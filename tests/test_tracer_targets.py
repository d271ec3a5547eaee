"""The benchmark reaches thg by module and name: the tracer wraps
functions named as strings, and the bench scripts import and call thg.
Every one of those names must still exist, or a benchmark run breaks.
Every other name that thg defines must have a caller in thg itself."""

import ast
import importlib
import importlib.util
import pathlib
import sys
import types

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
LIBRARY = TRACER.parents[1] / "src" / "thg"


def _load_tracer(monkeypatch):
    # Load the tracer without leaving bytecode beside it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("thg_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_resolves(monkeypatch):
    tracer = _load_tracer(monkeypatch)
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


def _bench_references():
    """(script, module, dotted attribute) for every thg name a bench script reaches."""
    refs = set()
    for script in sorted(TRACER.parent.glob("*.py")):
        refs.update((script.name, module, attribute) for module, attribute
                    in _thg_references(script.read_text()))
    return refs


def test_every_thg_name_the_bench_scripts_use_resolves():
    refs = _bench_references()
    assert ("ops.py", "thg.tower", "direct_sum_group") in refs
    assert ("ops.py", "thg.fingroup", "is_isomorphic") in refs
    assert ("server.py", "thg.cli", "run") in refs
    missing = [ref for ref in sorted(refs) if not _resolves(*ref[1:])]
    assert missing == []


def test_every_library_definition_has_a_caller_outside_the_tests(monkeypatch):
    """No library code whose only callers are tests, or that has no caller
    at all: every function, class and non-dunder method defined in thg is
    referred to by thg code (as a name, an attribute or an imported name;
    docstrings and doctests are strings, so they do not count), named in
    the tracer's TARGETS, or reached by a bench script.

    The match is by name alone, so a reference to any definition of the
    same name counts for all of them, a recursive call counts for its own
    function, and a name reached only through getattr on a string is
    not seen."""
    defined, used = [], set()
    for path in sorted(LIBRARY.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append((path.name, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    for _, _, attribute, _ in _load_tracer(monkeypatch).TARGETS:
        used.update(attribute.split("."))
    for _, _, attribute in _bench_references():
        used.update(attribute.split("."))
    assert [d for d in defined if d[2] not in used] == []
