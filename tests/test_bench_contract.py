"""The package names the benchmark in `perfbench/` reaches for.

`perfbench/tracing.py` wraps module attributes by name and the worker and
workloads call a few more; a refactor that renames or removes one of them
would break the traced benchmark without failing any other test.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import richardson as rs
from richardson import cli, continuation, solver

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_are_callables():
    targets = _load("tracing").TARGETS
    assert targets
    for span, (module, attr, _) in targets.items():
        func = getattr(importlib.import_module(module), attr, None)
        assert callable(func), f"{span}: {module}.{attr}"


def test_worker_and_workload_names():
    assert cli.max_threads() >= 1
    assert isinstance(rs.backend_name(), str)
    solver._single_level_roots.cache_clear()
    ref = json.loads((PERFBENCH / "reference.json").read_text())
    rec = ref["cli-lat6"]["records"][0]
    point = cli.record_to_point(rec)
    assert point.g_c == rec["g_c"] and point.k == rec["level_index"] - 1
    assert continuation.SweepOptions(auto_scan=False).auto_scan is False
