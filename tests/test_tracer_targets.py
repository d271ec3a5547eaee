"""The benchmark's tracer wraps thg functions by module and name; every
one of them must still exist, or a traced benchmark run breaks."""

import importlib
import importlib.util
import pathlib
import sys

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
