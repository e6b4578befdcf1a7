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


def test_critical_leaves_one_record_file_for_the_benchmark(tmp_path, capsys):
    # `CliLat6.observe` in perfbench/workloads.py reads the one
    # `<stem>_critical_*.json` that `critical` wrote; no other file that
    # `critical` writes may match the pattern
    prob_file = tmp_path / "lat6.json"
    problem = rs.PairingProblem((rs.Level(0.0, 6), rs.Level(1.0, 2)), 4)
    prob_file.write_text(rs.save_problem(problem))
    assert cli.main(["critical", "--problem", str(prob_file), "--g-min",
                     "-0.3", "--g-max", "0"]) == 0
    files = list(tmp_path.glob(f"{prob_file.stem}_critical_*.json"))
    assert len(files) == 1
    records = json.loads(files[0].read_text())
    assert isinstance(records, list) and records
    assert [cli.record_to_point(r).k for r in records] == [0]


def test_the_reference_records_pass_the_point_check(tmp_path):
    # the cli-lat6 sweeps load the records that `critical` wrote, which
    # are these; `cli.load_records` puts each through
    # `critical.critical_point` and compares its m_k, energy and chi
    ref = PERFBENCH / "reference.json"
    records = json.loads(ref.read_text())["cli-lat6"]["records"]
    rec_file = tmp_path / "records.json"
    rec_file.write_text(json.dumps(records))
    _, points = cli.load_records(rec_file, rs.build_lattice_model(6, 18))
    assert [(p.k + 1, p.g_c) for p in points] == [
        (r["level_index"], r["g_c"]) for r in records]
    assert len(points) == 29
