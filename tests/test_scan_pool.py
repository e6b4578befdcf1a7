"""Scans run side by side in worker processes give what one process gives.

`critical.run_scans` spreads its requests, one walk each, over a
fork-context process pool of `critical.scan_workers()` processes.  These
tests set that count to force the pool (2, even on a one-CPU host) or the
in-process path (1), and compare the two.
"""

import concurrent.futures
import multiprocessing
import os
import pickle
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import richardson as rs
from richardson import cli, critical
from richardson.critical import TruncatedScanWarning
from richardson.errors import ConsistencyError, ContinuationError

from conftest import fault_walks


def _workers(monkeypatch, n):
    monkeypatch.setattr(critical, "scan_workers", lambda: n)


def _bits(value):
    """The bytes of a field, so that equal bits compare equal, NaN too."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.view(np.uint64).tolist()
    if isinstance(value, float):
        return np.float64(value).view(np.uint64).item()
    return value


def _fields(point):
    return {name: _bits(getattr(point, name))
            for name in critical.CriticalPoint.__dataclass_fields__}


def _assert_read_only(point):
    assert not point.e_noncluster.flags.writeable
    assert not point.chi.flags.writeable


def test_a_pickled_point_keeps_its_bits_and_read_only_arrays(toy_3lvl):
    [point] = rs.scan_critical(toy_3lvl, 0, (-0.6, 0.0))
    back = pickle.loads(pickle.dumps(point))
    assert type(back) is critical.CriticalPoint
    assert _fields(back) == _fields(point)
    _assert_read_only(back)


def test_pooled_scans_are_bit_identical_to_in_process_scans(monkeypatch):
    # the 4x4 lattice: levels 1-3 cannot supply their cluster, level 0
    # finds a point at g < 0, level 4 stalls at g < 0 and finds one at g > 0
    problem = rs.build_lattice_model(4, 4)
    for k in (1, 2, 3):
        with pytest.raises(ValueError, match="cannot supply"):
            critical.scan_requests(problem, k, (-0.3, 0.3))
    requests = [req for k in (0, 4)
                for req in critical.scan_requests(problem, k, (-0.3, 0.3))]
    parent = os.getpid()
    in_workers = multiprocessing.Value("q", 0)
    scan_side = critical._scan_side

    def counted(*args):
        if os.getpid() != parent:
            with in_workers.get_lock():
                in_workers.value += 1
        return scan_side(*args)

    monkeypatch.setattr(critical, "_scan_side", counted)
    _workers(monkeypatch, 1)
    alone = critical.run_scans(problem, requests)
    assert in_workers.value == 0
    _workers(monkeypatch, 2)
    pooled = critical.run_scans(problem, requests)
    assert in_workers.value == len(requests) == 4

    assert [len(r) for r in pooled] == [len(r) for r in alone] \
        == [1, 0, 0, 1]
    for a, b in zip(alone, pooled):
        assert [_fields(p) for p in b] == [_fields(p) for p in a]
        for p in b:
            _assert_read_only(p)
        assert b.issues == a.issues
        assert type(b.error) is type(a.error)
        assert str(b.error) == str(a.error)
    assert pooled[2].issues[0].startswith(
        "scan truncated: deflated branch (level 4, M_k=2) stalled near")


def _stall_both_sides(monkeypatch):
    def stalling(k, g):
        if g < -0.5 or g > 0.2:
            raise ContinuationError(f"test stall at g={g:.6g}")

    fault_walks(monkeypatch, stalling)


def test_pooled_warnings_point_at_the_caller(toy_3lvl, monkeypatch):
    _stall_both_sides(monkeypatch)
    _workers(monkeypatch, 2)
    with pytest.warns(TruncatedScanWarning) as seen:
        found = rs.scan_critical(toy_3lvl, 0, (-0.6, 0.3), grid_points=60)
    assert len(found.issues) == 2
    assert [str(w.message) for w in seen] == found.issues
    assert [w.filename for w in seen] == [__file__] * 2

    pending = critical.run_scans(toy_3lvl, critical.scan_requests(
        toy_3lvl, 0, (-0.6, 0.3), grid_points=60))
    with pytest.warns(TruncatedScanWarning) as seen:
        assert [_fields(p) for walk in pending for p in walk.report()] == \
            [_fields(p) for p in found]
    assert [w.filename for w in seen] == [__file__] * 2
    with pytest.warns(TruncatedScanWarning) as again:
        for walk in pending:
            walk.report()       # every call warns again
    assert [str(w.message) for w in again] == found.issues


def _toy_file(tmp_path):
    """Two levels that can collapse; four cheap sides over (-0.3, 0.3)."""
    prob_file = tmp_path / "toy.json"
    prob_file.write_text(rs.save_problem(rs.PairingProblem(
        (rs.Level(0.0, 6), rs.Level(1.0, 2)), 4)))
    return prob_file


def _fail_above(monkeypatch, g_fail):
    def failing(k, g):
        if g > g_fail:
            raise ConsistencyError(f"test failure at level {k}, g={g:.6g}")

    fault_walks(monkeypatch, failing)


def _critical_run(tmp_path, capsys, monkeypatch, workers):
    out = tmp_path / str(workers)
    out.mkdir()
    _workers(monkeypatch, workers)
    code = cli.main(["critical", "--problem", str(_toy_file(out)),
                     "--g-min", "-0.3", "--g-max", "0.3"])
    assert multiprocessing.active_children() == []
    return code, capsys.readouterr(), sorted(f.name for f in out.iterdir())


def test_a_raising_worker_gives_the_exit_code_and_error_line(
        tmp_path, capsys, monkeypatch):
    _fail_above(monkeypatch, 0.1)
    alone = _critical_run(tmp_path, capsys, monkeypatch, 1)
    pooled = _critical_run(tmp_path, capsys, monkeypatch, 2)
    assert alone[0] == pooled[0] == cli.EXIT_TRUNCATED
    assert pooled[1].err == alone[1].err
    assert pooled[1].err.startswith("error: test failure at level 0, g=0.1")
    assert pooled[1].out == alone[1].out == ""
    assert pooled[2] == alone[2] == ["toy.json"]


@pytest.mark.parametrize("workers", [1, 2])
def test_an_error_stops_its_scan_as_one_process_would(monkeypatch, workers):
    # level 0: the g < 0 side finds g_c = -0.25, the g > 0 side fails;
    # level 1: the g < 0 side fails, and the g > 0 side stalls where one
    # process would never have walked
    def failing(k, g):
        if (k == 0 and g > 0.1) or (k == 1 and g < -0.29):
            raise ConsistencyError(f"test failure at level {k}")
        if k == 1 and g > 0.1:
            raise ContinuationError("test stall")

    fault_walks(monkeypatch, failing)
    _workers(monkeypatch, workers)
    problem = rs.PairingProblem((rs.Level(0.0, 6), rs.Level(1.0, 2)), 4)
    for k in (0, 1):
        # an issue of either walk would warn, and so raise, before the error
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncatedScanWarning)
            with pytest.raises(ConsistencyError,
                               match=f"^test failure at level {k}$"):
                critical.scan_critical(problem, k, (-0.3, 0.3))
    with pytest.warns(TruncatedScanWarning):
        assert critical.scan_critical(problem, 1, (0.0, 0.3)).issues == \
            ["scan truncated: test stall"]
    assert [p.k for p in critical.scan_critical(problem, 0,
                                                (-0.3, 0.0))] == [0]


def test_a_stopped_walk_holds_no_points(monkeypatch):
    # 4x4 lattice, level 0, g < 0: the walk finds brackets at g_c = -0.3605
    # and -0.2131, then stalls; the first bracket gives a point, the second
    # raises, and the walk keeps its issue and error but not that point
    problem = rs.build_lattice_model(4, 4)
    resolve = critical._resolve_bracket
    resolved = []

    def stalling(k, g):
        if g < -0.5:
            raise ContinuationError("test stall")

    def second_fails(*args):
        if resolved:
            raise RuntimeError("test failure on the second bracket")
        resolved.append(resolve(*args))
        return resolved[-1]

    fault_walks(monkeypatch, stalling)
    monkeypatch.setattr(critical, "_resolve_bracket", second_fails)
    [found] = critical.run_scans(problem, critical.scan_requests(
        problem, 0, (-0.6, 0.0)))
    assert len(resolved) == 1
    assert list(found) == []
    assert isinstance(found.error, RuntimeError)
    assert found.issues == ["scan truncated: test stall"]


def test_no_worker_outlives_critical_or_verify(tmp_path, capsys, monkeypatch):
    _workers(monkeypatch, 2)
    prob_file = _toy_file(tmp_path)
    assert cli.main(["critical", "--problem", str(prob_file), "--g-min",
                     "-0.3", "--g-max", "0.3"]) == 0
    assert multiprocessing.active_children() == []
    verify = ["verify", "--problem", str(prob_file), "--points", "3",
              "--g-min", "-0.3", "--g-max", "0.3"]
    assert cli.main(verify) == 0
    assert multiprocessing.active_children() == []
    _fail_above(monkeypatch, 0.1)
    assert cli.main(verify) == cli.EXIT_TRUNCATED
    assert "skipped (test failure" in capsys.readouterr().out
    assert multiprocessing.active_children() == []


def test_verify_walks_each_request_once(tmp_path, capsys, monkeypatch):
    # five branches, whose 22 (branch, sign, level) walks are 8 requests
    prob_file = tmp_path / "shared.json"
    prob_file.write_text(rs.save_problem(rs.PairingProblem(
        (rs.Level(0.0, 4), rs.Level(1.0, 4), rs.Level(2.5, 2)), 3)))
    calls = []
    real = critical.run_scans

    def counted(problem, requests):
        calls.extend(requests)
        return real(problem, requests)

    monkeypatch.setattr(critical, "run_scans", counted)
    assert cli.main(["verify", "--problem", str(prob_file), "--points", "3",
                     "--g-min", "-0.1", "--g-max", "0.1",
                     "--excitations", "2"]) == 0
    assert "checking 5 branch(es)" in capsys.readouterr().out
    assert len(calls) == len(set(calls)) == 8


def test_a_one_sided_scan_never_forks(toy_3lvl, monkeypatch):
    def no_fork():
        raise AssertionError("a one-sided scan forked")

    _workers(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", no_fork)
    assert len(rs.scan_critical(toy_3lvl, 0, (-0.6, 0.0))) == 1


def test_max_threads_is_the_scan_pool_size():
    assert cli.max_threads() == critical.scan_workers() \
        == len(os.sched_getaffinity(0))


def test_importing_the_package_loads_no_pool_module():
    src = str(Path(critical.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    program = ("import sys, richardson, richardson.cli\n"
               "print(sorted(m for m in sys.modules if m.split('.')[0] in "
               "('multiprocessing', 'concurrent')))\n")
    run = subprocess.run([sys.executable, "-c", program], capture_output=True,
                         text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def _toy():
    return rs.PairingProblem((rs.Level(0.0, 6), rs.Level(1.0, 2)), 4)


def test_the_farthest_reaching_walk_goes_to_the_pool_first(monkeypatch):
    # over (-0.3, 0.6) each level's g > 0 walk reaches farther; equal
    # reaches keep their request order
    problem = _toy()
    requests = [req for k in (0, 1)
                for req in critical.scan_requests(problem, k, (-0.3, 0.6))]
    submitted = []

    class InlinePool:
        """Stands in for the process pool: runs each walk in this process
        as it is submitted, and records the order of submission."""

        def __init__(self, workers, mp_context=None):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, job):
            submitted.append(job[1])
            future = concurrent.futures.Future()
            future.set_result(fn(job))
            return future

    _workers(monkeypatch, 1)
    alone = critical.run_scans(problem, requests)
    _workers(monkeypatch, 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InlinePool)
    pooled = critical.run_scans(problem, requests)
    assert [(req.k, req.g_range) for req in submitted] == [
        (0, (0.0, 0.6)), (1, (0.0, 0.6)), (0, (-0.3, 0.0)), (1, (-0.3, 0.0))]
    # the results still come in request order
    assert [[_fields(p) for p in walk] for walk in pooled] == \
        [[_fields(p) for p in walk] for walk in alone]
    assert [[p.k for p in walk] for walk in pooled] == [[0], [], [], [1]]
    assert pooled[0][0].g_c < 0 < pooled[3][0].g_c


def _fail_far_side(monkeypatch):
    # level 0: the g < 0 walk stalls, the g > 0 walk fails; level 1: the
    # g < 0 walk fails, and the g > 0 walk stalls where one process would
    # never have walked.  The g > 0 walks are submitted first.
    def failing(k, g):
        if (k == 0 and g > 0.5) or (k == 1 and g < -0.29):
            raise ConsistencyError(f"test failure at level {k}")
        if (k == 0 and g < -0.29) or (k == 1 and g > 0.5):
            raise ContinuationError("test stall")

    fault_walks(monkeypatch, failing)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_walk_submitted_first_reports_in_request_order(
        monkeypatch, workers):
    _fail_far_side(monkeypatch)
    _workers(monkeypatch, workers)
    problem = _toy()
    found = critical.run_scans(problem, [
        req for k in (0, 1)
        for req in critical.scan_requests(problem, k, (-0.3, 0.6))])
    assert [walk.issues for walk in found] == [
        ["scan truncated: test stall"], [], [], ["scan truncated: test stall"]]
    assert [str(walk.error) if walk.error else None for walk in found] == [
        None, "test failure at level 0", "test failure at level 1", None]
    assert [len(walk) for walk in found] == [1, 0, 0, 1]

    with pytest.warns(TruncatedScanWarning) as seen:
        with pytest.raises(ConsistencyError, match="^test failure at level 0$"):
            critical.scan_critical(problem, 0, (-0.3, 0.6))
    assert [str(w.message) for w in seen] == ["scan truncated: test stall"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncatedScanWarning)
        with pytest.raises(ConsistencyError, match="^test failure at level 1$"):
            critical.scan_critical(problem, 1, (-0.3, 0.6))


def _two_sided_critical(tmp_path, workers, monkeypatch, capsys):
    out = tmp_path / str(workers)
    out.mkdir()
    prob_file = _toy_file(out)
    _workers(monkeypatch, workers)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always", TruncatedScanWarning)
        code = cli.main(["critical", "--problem", str(prob_file),
                         "--g-min", "-0.3", "--g-max", "0.6"])
    assert multiprocessing.active_children() == []
    std = capsys.readouterr()
    files = {f.name: f.read_text() for f in sorted(out.iterdir())}
    return (code, std.out.replace(str(out), "OUT"), std.err,
            [str(w.message) for w in seen], files)


@pytest.mark.parametrize("fail", [False, True], ids=["clean", "failing"])
def test_critical_over_unequal_sides_matches_one_process(
        tmp_path, capsys, monkeypatch, fail):
    if fail:
        _fail_far_side(monkeypatch)
    alone = _two_sided_critical(tmp_path, 1, monkeypatch, capsys)
    pooled = _two_sided_critical(tmp_path, 2, monkeypatch, capsys)
    assert pooled == alone
    if fail:
        assert alone[:4] == (cli.EXIT_TRUNCATED, "",
                             "error: test failure at level 0\n",
                             ["scan truncated: test stall"])
    else:
        assert alone[0] == 0 and alone[2:4] == ("", [])
        assert alone[1].splitlines()[1:3] == [
            "1    -0.25        4    0", "2    0.380834     2    5.04667"]


def _plan_walks(monkeypatch, walks):
    """Make `critical.run_scans` return `walks[req]` for each request, and
    record each batch it is given."""
    batches = []

    def run(problem, requests):
        batches.append(list(requests))
        return [walks[req] for req in requests]

    monkeypatch.setattr(critical, "run_scans", run)
    return batches


def _request(k, side=-1):
    g_range = (-0.3, 0.0) if side < 0 else (0.0, 0.3)
    return critical.ScanRequest(k, g_range, rs.OccupationMap((0, 0)), 10)


def _reported(found):
    """(warning texts, error text or None) of one `report` call."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            found.report()
            error = None
        except ConsistencyError as err:
            error = str(err)
    assert all(w.filename == __file__ for w in seen)
    return [str(w.message) for w in seen], error


def test_a_walk_that_plans_share_warns_once_from_the_first_reader(
        monkeypatch):
    a, b = _request(0), _request(1)
    batches = _plan_walks(monkeypatch, {
        a: critical.ScanResult(["a1"], ["a stall"]),
        b: critical.ScanResult(["b1", "b2"], ["b stall"])})
    first, second, third = critical.run_plans(None, [[a, b], [b], [b, a]])
    assert batches == [[a, b]]
    assert (list(first), list(second), list(third)) == (
        ["a1", "b1", "b2"], ["b1", "b2"], ["b1", "b2", "a1"])
    assert _reported(first) == (["a stall", "b stall"], None)
    assert _reported(second) == _reported(third) == ([], None)
    assert second.issues == third.issues == []


def test_a_walk_after_an_error_warns_from_the_next_plan_that_reads_it(
        monkeypatch):
    bad, late = _request(0), _request(1, side=1)
    batches = _plan_walks(monkeypatch, {
        bad: critical.ScanResult(
            [], ["bad stall"], ConsistencyError("test failure")),
        late: critical.ScanResult(["late1"], ["late stall"])})
    stopped, other, again = critical.run_plans(
        None, [[bad, late], [late], [late, bad]])
    assert batches == [[bad, late]]
    assert list(stopped) == [] and list(other) == ["late1"]
    assert _reported(stopped) == (["bad stall"], "test failure")
    assert _reported(other) == (["late stall"], None)
    # read by an earlier plan, each walk warns nothing more; the error
    # still stops the plan, and the points met before it are dropped
    assert list(again) == []
    assert _reported(again) == ([], "test failure")


def test_equal_requests_across_plans_reach_run_scans_once(monkeypatch):
    problem = rs.PairingProblem((rs.Level(0.0, 6), rs.Level(1.0, 2)), 4)
    plans = [critical.scan_requests(problem, k, (-0.3, 0.6))
             for k in (0, 1, 0, 1, 0)]
    real = critical.run_scans
    batches = []

    def counted(problem, requests):
        batches.append(list(requests))
        return real(problem, requests)

    monkeypatch.setattr(critical, "run_scans", counted)
    merged = critical.run_plans(problem, plans)
    assert batches == [plans[0] + plans[1]]
    # level 0 at g_c = -0.25, level 1 at 0.380834
    assert [[p.k for p in found] for found in merged] == [[0], [1]] * 2 + [[0]]
    for i, found in enumerate(merged[2:], start=2):
        assert [_fields(p) for p in found] == \
            [_fields(p) for p in merged[i % 2]]
