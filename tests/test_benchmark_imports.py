"""The benchmark under perfbench/ imports and wraps iabnet names that nothing
under tests/ would otherwise reach; this checks that they all still exist."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_modules_import_and_traced_names_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")  # binds every iabnet name it imports
    tracing = importlib.import_module("tracing")
    wanted = list(tracing.TRACED) + [
        ("experiments", w.runner) for w in workloads.WORKLOADS.values() if hasattr(w, "runner")
    ]
    missing = [
        f"iabnet.{module}.{func}"
        for module, func in wanted
        if not callable(getattr(importlib.import_module(f"iabnet.{module}"), func, None))
    ]
    assert missing == []
    module, func = tracing.KSTEST
    assert callable(getattr(importlib.import_module(module), func))
