"""The benchmark reaches thg by module and name: the tracer wraps
functions named as strings, and the bench scripts import and call thg.
Every one of those names must still exist, or a benchmark run breaks."""

import ast
import importlib
import importlib.util
import pathlib
import sys
import types

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_name_resolves(monkeypatch):
    # Load the tracer without leaving bytecode beside it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("thg_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for _, module_name, attribute, _ in tracer.TARGETS:
        obj = importlib.import_module(module_name)
        for part in attribute.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module_name}.{attribute}")
    assert tracer.TARGETS and missing == []


def _thg_references(source: str):
    """(module, dotted attribute) pairs that a bench script reaches in thg:
    names in `from thg.<module> import ...`, and attribute chains on a
    name bound by `from thg import <module>` or `import thg.<module>`."""
    tree = ast.parse(source)
    bound = {}  # local name -> thg module it stands for
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "thg":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"thg.{alias.name}"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("thg."):
            refs.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("thg.") and alias.asname is None:
                    bound["thg"] = "thg"
                    refs.add((alias.name, ""))
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            refs.add((bound[node.id], ".".join(reversed(chain))))
    return refs


def _resolves(module_name: str, attribute: str) -> bool:
    obj = importlib.import_module(module_name)
    for part in filter(None, attribute.split(".")):
        if not hasattr(obj, part) and isinstance(obj, types.ModuleType):
            importlib.import_module(f"{obj.__name__}.{part}")
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_every_thg_name_the_bench_scripts_use_resolves():
    refs = set()
    for script in sorted(TRACER.parent.glob("*.py")):
        refs.update((script.name, module, attribute) for module, attribute
                    in _thg_references(script.read_text()))
    assert ("ops.py", "thg.tower", "direct_sum_group") in refs
    assert ("ops.py", "thg.fingroup", "is_isomorphic") in refs
    assert ("server.py", "thg.cli", "run") in refs
    missing = [ref for ref in sorted(refs) if not _resolves(*ref[1:])]
    assert missing == []
