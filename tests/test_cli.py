import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import richardson as rs
from richardson import _kernels as kern
from richardson import cli, continuation, critical
from richardson.errors import ContinuationError, DegenerateTangentError

from conftest import fault_walks

TABLE1_ROWS = [
    "1    -4         2      0",
    "2    -3         8      0",
    "3    -2         8      0",
    "4    -1         8      0",
    "5    0          20     0",
    "6    1          8      0",
    "7    2          8      0",
    "8    3          8      0",
    "9    4          2      0",
]


def run_cli(argv):
    return cli.main(argv)


def test_lattice_prints_table1(tmp_path, capsys):
    out_file = tmp_path / "lat6.json"
    code = run_cli(["lattice", "--n", "6", "--pairs", "18",
                    "--out", str(out_file)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    for row in TABLE1_ROWS:
        assert row in lines
    problem = rs.load_problem(out_file.read_text())
    assert problem.m_pairs == 18


def test_lattice_capacity_exit_code(capsys):
    assert run_cli(["lattice", "--n", "6", "--pairs", "100"]) == 2


def test_lattice_odd_note(capsys):
    assert run_cli(["lattice", "--n", "5", "--pairs", "4"]) == 0
    assert "odd lattice" in capsys.readouterr().out


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_lattice_rejects_a_pair_count_below_one(tmp_path, capsys, pairs):
    # every other command refuses a problem without pairs, so `lattice`
    # must not write one
    out_file = tmp_path / "lat4.json"
    assert run_cli(["lattice", "--n", "4", "--pairs", pairs,
                    "--out", str(out_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: argument --pairs: must be an integer >= 1, got {pairs!r}"]
    assert not out_file.exists()


def test_critical_records_roundtrip(tmp_path, capsys):
    prob_file = tmp_path / "toy.json"
    p = rs.PairingProblem((rs.Level(0.0, 6), rs.Level(1.0, 2)), 4)
    prob_file.write_text(rs.save_problem(p))
    out = tmp_path / "records.json"
    code = run_cli(["critical", "--problem", str(prob_file),
                    "--level", "1", "--g-min", "-0.6", "--g-max", "0",
                    "--out", str(out)])
    assert code == 0
    recs = json.loads(out.read_text())
    assert len(recs) == 1
    assert recs[0]["level_index"] == 1
    assert recs[0]["g_c"] == pytest.approx(-0.25, abs=1e-9)
    point = cli.record_to_point(recs[0])
    assert point.k == 0 and point.m_k == 4
    text = capsys.readouterr().out
    assert "-0.25" in text


def test_critical_empty_range(tmp_path, capsys):
    prob_file = tmp_path / "toy.json"
    p = rs.PairingProblem((rs.Level(0.0, 6), rs.Level(1.0, 2)), 4)
    prob_file.write_text(rs.save_problem(p))
    code = run_cli(["critical", "--problem", str(prob_file),
                    "--level", "1", "--g-min", "-0.01", "--g-max", "0"])
    assert code == 0
    assert "no critical points" in capsys.readouterr().out


def test_sweep_writes_csv(tmp_path, capsys):
    prob_file = tmp_path / "n2.json"
    p = rs.build_lattice_model(2, 2)
    prob_file.write_text(rs.save_problem(p))
    code = run_cli(["sweep", "--problem", str(prob_file),
                    "--g-target", "-0.4", "--out", str(tmp_path),
                    "--cluster-level", "1"])
    assert code == 0
    csvs = sorted(tmp_path.glob("*_neg.csv"))
    assert len(csvs) == 1
    lines = csvs[0].read_text().splitlines()
    assert lines[0].startswith("g,E,re_e1")
    first = lines[1].split(",")
    assert float(first[0]) < 0
    assert (tmp_path / csvs[0].name.replace(".csv", "_spower.csv")).exists()


def test_sweep_zero_target_usage_error(tmp_path, capsys):
    prob_file = tmp_path / "n2.json"
    prob_file.write_text(rs.save_problem(rs.build_lattice_model(2, 2)))
    assert run_cli(["sweep", "--problem", str(prob_file),
                    "--g-target", "0"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: argument --g-target: must be a finite nonzero number, "
        "got '0'"]


def test_sweep_continuation_failure_exit_code(tmp_path, capsys):
    # with levels near 2 eta = 2000 the residuals' round-off at the
    # weak-coupling start (g = 1e-3) is above Newton's tolerance: exit 4
    # with one error line, no traceback
    prob_file = tmp_path / "far.json"
    prob_file.write_text(rs.save_problem(rs.PairingProblem(
        (rs.Level(1000.0, 4), rs.Level(1001.0, 4)), 2)))
    assert run_cli(["sweep", "--problem", str(prob_file),
                    "--g-target", "0.1", "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: sweep could not converge")
    assert "Traceback" not in err


def test_sweep_typed_error_exit_code(tmp_path, capsys, monkeypatch):
    # a package error with no exit code of its own is a branch that could
    # not be continued: exit 4 with one error line, no traceback
    def degenerate(point, problem):
        raise DegenerateTangentError("derivative system is singular")

    monkeypatch.setattr(continuation, "solve_tangent", degenerate)
    prob_file = tmp_path / "toy.json"
    p = rs.PairingProblem((rs.Level(0.0, 6), rs.Level(1.0, 2)), 4)
    prob_file.write_text(rs.save_problem(p))
    assert run_cli(["sweep", "--problem", str(prob_file),
                    "--g-target", "-0.5", "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: derivative system is singular"]


def test_sweep_uses_cached_records(tmp_path, capsys):
    prob_file = tmp_path / "toy.json"
    p = rs.PairingProblem((rs.Level(0.0, 6), rs.Level(1.0, 2)), 4)
    prob_file.write_text(rs.save_problem(p))
    assert run_cli(["critical", "--problem", str(prob_file),
                    "--level", "1", "--g-min", "-0.6", "--g-max", "0"]) == 0
    capsys.readouterr()
    assert run_cli(["sweep", "--problem", str(prob_file),
                    "--g-target", "-0.5", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "loaded 1 critical point" in out
    assert "status: completed" in out
    assert "g_c=-0.25" in out


def test_verify_small_lattice(tmp_path, capsys):
    prob_file = tmp_path / "n2.json"
    prob_file.write_text(rs.save_problem(rs.build_lattice_model(2, 2)))
    code = run_cli(["verify", "--problem", str(prob_file),
                    "--g-min", "-0.2", "--g-max", "0.2", "--points", "11"])
    assert code == 0
    out = capsys.readouterr().out
    dev_line = [ln for ln in out.splitlines() if "max deviation" in ln][0]
    assert float(dev_line.split()[-1]) <= 1e-8


def test_verify_exits_4_on_skipped_or_truncated_sample(tmp_path, capsys,
                                                       monkeypatch):
    # one grid point cannot be swept, another ends truncated: both are
    # reported, the summary still prints, and the exit code says so
    real = continuation.sweep

    def flaky(problem, branch, g, *args, **kwargs):
        if g == -0.2:
            raise ContinuationError("branch stalled")
        path = real(problem, branch, g, *args, **kwargs)
        if g == 0.2:
            path.status = "truncated"
        return path

    monkeypatch.setattr(continuation, "sweep", flaky)
    prob_file = tmp_path / "n2.json"
    prob_file.write_text(rs.save_problem(rs.build_lattice_model(2, 2)))
    assert run_cli(["verify", "--problem", str(prob_file),
                    "--points", "5"]) == 4
    out = capsys.readouterr().out
    assert "at g=-0.2: skipped (branch stalled)" in out
    assert "at g=0.2: truncated" in out
    assert "samples checked: " in out


def test_verify_deviation_above_tolerance_exits_4(tmp_path, capsys,
                                                   monkeypatch):
    prob_file = tmp_path / "n2.json"
    prob_file.write_text(rs.save_problem(rs.build_lattice_model(2, 2)))
    argv = ["verify", "--problem", str(prob_file), "--points", "3"]
    assert run_cli(argv) == 0
    monkeypatch.setattr(cli, "VERIFY_TOL", 1e-30)
    assert run_cli(argv) == 4
    out = capsys.readouterr().out
    assert "branch (1, 1, 0) at g=-0.2: deviation " in out
    assert "exceeds 1e-30" in out
    assert "samples checked: 12" in out


def test_verify_exits_4_when_branches_share_an_eigenvalue(
        tmp_path, capsys, monkeypatch):
    # every branch swept as the ground branch lands on its eigenvalue
    real = continuation.sweep

    def ground_only(problem, branch, g, *args, **kwargs):
        return real(problem, rs.ground_occupation(problem), g, *args,
                    **kwargs)

    monkeypatch.setattr(continuation, "sweep", ground_only)
    prob_file = tmp_path / "n2.json"
    prob_file.write_text(rs.save_problem(rs.build_lattice_model(2, 2)))
    assert run_cli(["verify", "--problem", str(prob_file),
                    "--points", "3"]) == 4
    out = capsys.readouterr().out
    assert "at g=-0.2: branches (1, 1, 0), (0, 1, 1), (0, 2, 0), (1, 0, 1) " \
           "land nearest the same eigenvalue" in out
    assert "at g=0:" not in out


@pytest.mark.parametrize("nearest, shared", [
    ({"a": 0, "b": 3}, []),
    ({"a": 1, "b": 2}, []),             # a degenerate pair, one each
    ({"a": 1, "b": 1}, []),
    ({"a": 1, "b": 1, "c": 2}, [(["a", "b", "c"], 2.0)]),
    ({"a": 0, "b": 0}, [(["a", "b"], 1.0)]),
])
def test_shared_eigenvalues_count_against_the_group_size(nearest, shared):
    spectrum = np.array([1.0, 2.0, 2.0 + 5e-10, 3.0])
    assert cli._shared_eigenvalues(spectrum, nearest) == shared


def test_ground_only_verify_builds_no_dense_hamiltonian(tmp_path, capsys,
                                                         monkeypatch):
    def dense(problem, g):
        raise AssertionError("dense oracle used for the ground branch")

    monkeypatch.setattr(rs.oracle, "hamiltonian", dense)
    monkeypatch.setattr(rs.oracle, "exact_spectrum", dense)
    prob_file = tmp_path / "n2.json"
    prob_file.write_text(rs.save_problem(rs.build_lattice_model(2, 2)))
    assert run_cli(["verify", "--problem", str(prob_file), "--points", "5",
                    "--excitations", "0"]) == 0
    assert "samples checked: 5" in capsys.readouterr().out


def test_verify_with_excited_branches_keeps_the_dense_spectrum(
        tmp_path, capsys, monkeypatch):
    def lanczos(problem, g):
        raise AssertionError("Lanczos used with excited branches")

    monkeypatch.setattr(rs.oracle, "ground_energy", lanczos)
    prob_file = tmp_path / "n2.json"
    prob_file.write_text(rs.save_problem(rs.build_lattice_model(2, 2)))
    assert run_cli(["verify", "--problem", str(prob_file), "--points", "3",
                    "--excitations", "1"]) == 0
    assert "samples checked: 12" in capsys.readouterr().out


def test_ground_only_verify_exits_4_off_the_lowest_eigenvalue(
        tmp_path, capsys, monkeypatch):
    real = rs.oracle.ground_energy
    monkeypatch.setattr(rs.oracle, "ground_energy",
                        lambda problem, g: real(problem, g) + 1e-6)
    prob_file = tmp_path / "n2.json"
    prob_file.write_text(rs.save_problem(rs.build_lattice_model(2, 2)))
    assert run_cli(["verify", "--problem", str(prob_file), "--points", "3",
                    "--excitations", "0"]) == 4
    out = capsys.readouterr().out
    assert "branch (1, 1, 0) at g=-0.2: deviation 1e-06 exceeds 1e-08" in out
    assert "samples checked: 3" in out


def test_verify_ground_branch_at_dimension_2004(tmp_path, capsys):
    # the benchmark's 6x6 M=6 verify job
    prob_file = tmp_path / "lat6m6.json"
    prob_file.write_text(rs.save_problem(rs.build_lattice_model(6, 6)))
    assert run_cli(["verify", "--problem", str(prob_file), "--points", "3",
                    "--excitations", "0", "--g-min", "-0.198",
                    "--g-max", "0.198"]) == 0
    out = capsys.readouterr().out
    assert "samples checked: 3" in out
    dev_line = [ln for ln in out.splitlines() if "max deviation" in ln][0]
    assert float(dev_line.split()[-1]) <= 1e-8


def test_verify_lat4_matches_the_benchmark_text(tmp_path, capsys,
                                                monkeypatch):
    # the benchmark's 4x4 M=4 verify job: its output must not change, and
    # its deflated walks that stall at -0.2003 must not crawl.  The count
    # is shared memory, so the scan workers' calls count too.
    calls = multiprocessing.Value("q", 0)
    residuals = kern.residuals

    def counting(*args):
        with calls.get_lock():
            calls.value += 1
        return residuals(*args)

    monkeypatch.setattr(kern, "residuals", counting)
    prob_file = tmp_path / "lat4.json"
    prob_file.write_text(rs.save_problem(rs.build_lattice_model(4, 4)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")    # as on the command line
        assert run_cli(["verify", "--problem", str(prob_file), "--points",
                        "5", "--g-min", "-0.198", "--g-max", "0.198"]) == 0
    captured = capsys.readouterr()
    # the lines the command line prints for the warnings recorded here
    err = captured.err + "".join(
        cli._warning_line(w.message, w.category, w.filename, w.lineno)
        for w in caught)
    data = Path(__file__).resolve().parent / "data"
    assert captured.out == (data / "verify_lat4_stdout.txt").read_text()
    assert err == (data / "verify_lat4_stderr.txt").read_text()
    assert calls.value <= 80_000


def test_verify_guard_exit(tmp_path, capsys):
    prob_file = tmp_path / "big.json"
    prob_file.write_text(rs.save_problem(rs.build_lattice_model(8, 16)))
    assert run_cli(["verify", "--problem", str(prob_file),
                    "--points", "3"]) == 5


@pytest.mark.parametrize("problem, code, message", [
    (rs.build_lattice_model(6, 18), 5, "pair basis dimension 54964 exceeds"),
    # -2d = 1.5 in the equations, but the oracle's basis holds whole pairs
    (rs.PairingProblem((rs.Level(0.0, 3), rs.Level(1.0, 2)), 1), 2,
     "error: oracle: Level(eta=0.0, omega=3, nu=0) has odd Omega - 2 nu = 3")])
def test_verify_checks_oracle_before_any_sweep(tmp_path, capsys, monkeypatch,
                                               problem, code, message):
    def no_sweep(*args, **kwargs):
        raise AssertionError("verify swept before checking the oracle")

    monkeypatch.setattr(rs.continuation, "sweep", no_sweep)
    prob_file = tmp_path / "p.json"
    prob_file.write_text(rs.save_problem(problem))
    assert run_cli(["verify", "--problem", str(prob_file)]) == code
    assert message in capsys.readouterr().err


def test_verify_checks_blocked_levels_as_their_twin(tmp_path, capsys,
                                                    seniority_twins):
    runs = []
    for name, problem in zip(("blocked", "twin"), seniority_twins):
        prob_file = tmp_path / f"{name}.json"
        prob_file.write_text(rs.save_problem(problem))
        code = run_cli(["verify", "--problem", str(prob_file), "--points",
                        "5", "--g-min", "-0.3", "--g-max", "0.3"])
        runs.append((code, capsys.readouterr()))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and "samples checked: 20\n" in runs[0][1].out


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": str(tmp_path / "from_config.json")}))
    code = run_cli(["--config", str(cfg), "lattice", "--n", "2",
                    "--pairs", "2"])
    assert code == 0
    assert (tmp_path / "from_config.json").exists()


def _toy3_file(tmp_path):
    prob_file = tmp_path / "toy3.json"
    p = rs.PairingProblem(
        (rs.Level(0.0, 4), rs.Level(1.0, 4), rs.Level(2.5, 2)), 4)
    prob_file.write_text(rs.save_problem(p))
    return prob_file


def test_config_sets_option_with_a_default(tmp_path, capsys):
    # --level defaults to "all"; the config value replaces that default
    prob_file = _toy3_file(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"level": "1"}))
    argv = ["--config", str(cfg), "critical", "--problem", str(prob_file),
            "--g-min", "-0.6", "--g-max", "0"]
    assert run_cli(argv) == 0
    out = capsys.readouterr().out
    assert "-0.243532" in out and "-0.535231" not in out
    # an explicit flag still wins over the config
    assert run_cli(argv + ["--level", "2"]) == 0
    out = capsys.readouterr().out
    assert "-0.535231" in out and "-0.243532" not in out


def test_config_unknown_keys_usage_error(tmp_path, capsys):
    out_file = tmp_path / "lat.json"
    # a misspelt option and a name argparse reserves for the handler
    for key in ("outt", "func"):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: str(out_file)}))
        code = run_cli(["--config", str(cfg), "lattice", "--n", "2",
                        "--pairs", "2"])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not out_file.exists()


def test_missing_problem_file_usage_error(capsys):
    assert run_cli(["critical", "--problem", "nope.json", "--level", "1",
                    "--g-min", "-0.1", "--g-max", "0"]) == 2


def test_critical_all_levels(tmp_path, capsys):
    prob_file = _toy3_file(tmp_path)
    code = run_cli(["critical", "--problem", str(prob_file), "--level", "all",
                    "--g-min", "-0.6", "--g-max", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "-0.243532" in out     # level-1 collapse on the ground branch
    assert "-0.535231" in out     # level-2 collapse


def test_critical_all_levels_matches_the_benchmark_reference(tmp_path,
                                                             capsys):
    # the README walkthrough's 29 records, against the benchmark's
    # reference file; a round-off change in the kernels moves the level-5
    # records with g > 0 (notes/decisions.md, "Round-off and the level-5
    # records")
    reference = Path(__file__).resolve().parents[1] / "perfbench" \
        / "reference.json"
    want = json.loads(reference.read_text())["cli-lat6"]["records"]
    prob_file = tmp_path / "lat6.json"
    prob_file.write_text(rs.save_problem(rs.build_lattice_model(6, 18)))
    assert run_cli(["critical", "--problem", str(prob_file), "--level",
                    "all", "--g-min", "-0.2", "--g-max", "0.7"]) == 0
    files = list(tmp_path.glob("lat6_critical_*.json"))
    assert len(files) == 1
    got = json.loads(files[0].read_text())
    assert len(got) == len(want) == 29
    for rec, ref in zip(got, want):
        assert rec["level_index"] == ref["level_index"]
        for key in ("g_c", "energy"):
            assert abs(rec[key] - ref[key]) \
                <= 1e-10 * max(1.0, abs(ref[key])), (ref["level_index"], key)
    # JSON keeps every bit, so each record passes the residual check that
    # `sweep` applies as it loads them
    problem = rs.load_problem(prob_file.read_text())
    assert len(cli.load_records(files[0], problem)[1]) == 29


def test_sweep_stride_thins_csv(tmp_path, capsys):
    prob_file = tmp_path / "n2.json"
    prob_file.write_text(rs.save_problem(rs.build_lattice_model(2, 2)))
    assert run_cli(["sweep", "--problem", str(prob_file), "--g-target",
                    "-0.4", "--out", str(tmp_path)]) == 0
    n_full = len(list(tmp_path.glob("*_neg.csv"))[0].read_text().splitlines())
    for f in tmp_path.glob("*.csv"):
        f.unlink()
    assert run_cli(["sweep", "--problem", str(prob_file), "--g-target",
                    "-0.4", "--out", str(tmp_path), "--stride", "3"]) == 0
    n_thin = len(list(tmp_path.glob("*_neg.csv"))[0].read_text().splitlines())
    assert n_thin < n_full


def test_critical_all_scans_only_levels_that_can_collapse(tmp_path, capsys,
                                                          monkeypatch):
    # 4x4 lattice, M = 4: M_k = 2, 5, 7 on the occupied levels, so only
    # j = 1 can hold a cluster
    scanned = []
    run = critical.run_scans

    def recording(problem, requests):
        scanned.extend(r.k for r in requests)
        return run(problem, requests)

    monkeypatch.setattr(critical, "run_scans", recording)
    prob_file = tmp_path / "lat4.json"
    prob_file.write_text(rs.save_problem(rs.build_lattice_model(4, 4)))
    assert run_cli(["critical", "--problem", str(prob_file), "--level", "all",
                    "--g-min", "-0.2", "--g-max", "0.2"]) == 0
    assert sorted(set(scanned)) == [0]


def _write_config(tmp_path, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    return ["--config", str(cfg), "lattice", "--n", "2", "--pairs", "2"]


def _write_records(tmp_path, text):
    prob_file = tmp_path / "toy.json"
    p = rs.PairingProblem((rs.Level(0.0, 6), rs.Level(1.0, 2)), 4)
    prob_file.write_text(rs.save_problem(p))
    cli.records_path(prob_file, rs.ground_occupation(p)).write_text(text)
    return ["sweep", "--problem", str(prob_file), "--g-target", "-0.5",
            "--out", str(tmp_path)]


def _out_under_a_file(tmp_path, command):
    """argv whose --out needs a directory where a plain file stands."""
    prob_file = tmp_path / "n2.json"
    prob_file.write_text(rs.save_problem(rs.build_lattice_model(2, 2)))
    afile = tmp_path / "afile"
    afile.write_text("")
    if command == "sweep":
        return ["sweep", "--problem", str(prob_file), "--g-target", "-0.1",
                "--out", str(afile)]
    return ["critical", "--problem", str(prob_file), "--g-min", "-0.1",
            "--g-max", "0", "--out", str(afile / "x.json")]


@pytest.mark.parametrize("make_argv, name", [
    (lambda tmp: ["--config", str(tmp / "missing.json"), "lattice", "--n",
                  "2", "--pairs", "2"], "missing.json"),
    (lambda tmp: _write_config(tmp, "{not json"), "cfg.json"),
    (lambda tmp: _write_config(tmp, "[1, 2]"), "cfg.json"),
    (lambda tmp: _write_records(tmp, '{"g_c": -0.25}'), "toy_critical_"),
    (lambda tmp: _write_records(tmp, '[{"g_c": -0.25}]'), "toy_critical_"),
    (lambda tmp: ["sweep", "--problem", str(tmp), "--g-target", "-0.1"],
     "problem file"),
    (lambda tmp: _out_under_a_file(tmp, "sweep"), "afile"),
    (lambda tmp: _out_under_a_file(tmp, "critical"), "afile"),
], ids=["config-missing", "config-not-json", "config-not-object",
        "records-not-list", "record-lacks-key", "problem-is-a-directory",
        "sweep-out-is-a-file", "critical-out-under-a-file"])
def test_bad_input_file_is_one_error_line(tmp_path, capsys, make_argv, name):
    assert run_cli(make_argv(tmp_path)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and name in err[0]


@pytest.mark.parametrize("command", ["sweep", "critical"])
def test_output_location_is_checked_before_any_work(tmp_path, capsys,
                                                    monkeypatch, command):
    def no_work(*args, **kwargs):
        raise AssertionError("ran before the output location was checked")

    monkeypatch.setattr(continuation, "sweep", no_work)
    monkeypatch.setattr(critical, "run_scans", no_work)
    assert run_cli(_out_under_a_file(tmp_path, command)) == 2


@pytest.mark.parametrize("options, config, name", [
    (["verify", "--points", "0"], None, "--points"),
    (["critical", "--g-min", "-0.1", "--g-max", "0", "--grid", "0"], None,
     "--grid"),
    (["sweep", "--g-target", "-0.1", "--step", "-0.001"], None, "--step"),
    (["sweep", "--g-target", "-0.1", "--crossing-radius", "-0.005"], None,
     "--crossing-radius"),
    (["sweep", "--g-target", "-0.1", "--stride", "0"], None, "--stride"),
    (["sweep", "--g-target", "-0.1"], {"stride": 0}, "--stride"),
    (["sweep", "--g-target", "-0.1"], {"step": 0}, "--step"),
    (["verify"], {"points": -3}, "--points"),
    (["verify"], {"points": 2.5}, "--points"),
    (["verify", "--excitations", "-1"], None, "--excitations"),
    (["verify"], {"excitations": -1}, "--excitations"),
    (["critical", "--g-min", "0", "--g-max", "inf"], None, "--g-max"),
    (["critical", "--g-min", "nan", "--g-max", "0"], None, "--g-min"),
    (["sweep", "--g-target", "nan"], None, "--g-target"),
    (["sweep", "--g-target", "1e400"], None, "--g-target"),
    (["verify", "--g-max", "inf"], None, "--g-max"),
    (["critical", "--g-max", "0"], {"g-min": "nan"}, "--g-min"),
    (["sweep"], {"g-target": "inf"}, "--g-target"),
], ids=["points", "grid", "step", "crossing-radius", "stride",
        "config-stride", "config-step", "config-points", "config-float-count",
        "excitations", "config-excitations", "critical-g-max-inf",
        "critical-g-min-nan", "sweep-g-target-nan", "sweep-g-target-1e400",
        "verify-g-max-inf", "config-g-min-nan", "config-g-target-inf"])
def test_non_positive_option_is_rejected_before_any_work(
        tmp_path, capsys, monkeypatch, options, config, name):
    def no_work(*args, **kwargs):
        raise AssertionError("ran before the options were checked")

    for mod, attr in ((continuation, "sweep"), (critical, "run_scans"),
                      (rs.oracle, "checked_dimension")):
        monkeypatch.setattr(mod, attr, no_work)
    prob_file = tmp_path / "n2.json"
    prob_file.write_text(rs.save_problem(rs.build_lattice_model(2, 2)))
    argv = options[:1] + ["--problem", str(prob_file)] + options[1:]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = ["--config", str(cfg)] + argv
    assert run_cli(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and name in err[0]


@pytest.mark.parametrize("options, config", [
    (["--stride", "x"], None),
    ([], {"stride": "x"}),
], ids=["flag", "config"])
def test_unconvertible_option_is_one_error_line(tmp_path, capsys, monkeypatch,
                                                options, config):
    # a value the option's type cannot read is converted and reported the
    # same way from a flag and from --config: exit 2, one line, no work
    def no_work(*args, **kwargs):
        raise AssertionError("ran before the options were checked")

    monkeypatch.setattr(continuation, "sweep", no_work)
    prob_file = tmp_path / "n2.json"
    prob_file.write_text(rs.save_problem(rs.build_lattice_model(2, 2)))
    argv = ["sweep", "--problem", str(prob_file), "--g-target", "-0.1"]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = ["--config", str(cfg)] + argv
    assert run_cli(argv + options) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and "--stride" in err[0]


def test_config_null_keeps_the_default(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": None}))
    assert run_cli(["--config", str(cfg), "lattice", "--n", "2",
                    "--pairs", "2"]) == 0
    assert "wrote" not in capsys.readouterr().out


@pytest.mark.parametrize("levels, options, name", [
    ((), ["critical", "--level", "99"], "--level 99"),
    ((), ["critical", "--level", "0"], "--level 0"),
    ((), ["critical", "--level", "abc"], "argument --level: "),
    ((), [{"level": "abc"}, "critical"], "argument --level: "),
    ((), ["sweep", "--cluster-level", "0"], "--cluster-level 0"),
    ((), ["sweep", "--cluster-level", "99"], "--cluster-level 99"),
    ((rs.Level(0.0, 2), rs.Level(1.0, 3)), ["sweep", "--cluster-level", "2"],
     "M_k"),
], ids=["level-99", "level-0", "level-abc", "config-level-abc",
        "cluster-level-0", "cluster-level-99", "cluster-level-odd-omega"])
def test_bad_level_argument_is_rejected_before_any_work(
        tmp_path, capsys, monkeypatch, levels, options, name):
    # by default the 4x4 lattice with M = 4; a level with odd Omega has the
    # non-integer cluster size M_k = 1 + Omega/2, so it has no S_p table
    def no_work(*args, **kwargs):
        raise AssertionError("ran before the level arguments were checked")

    monkeypatch.setattr(continuation, "sweep", no_work)
    monkeypatch.setattr(critical, "run_scans", no_work)
    problem = rs.PairingProblem(levels, 2) if levels \
        else rs.build_lattice_model(4, 4)
    prob_file = tmp_path / "prob.json"
    prob_file.write_text(rs.save_problem(problem))
    config = []
    if isinstance(options[0], dict):    # the value comes from --config
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(options[0]))
        config, options = ["--config", str(cfg)], options[1:]
    span = (["--g-min", "-0.1", "--g-max", "0"] if options[0] == "critical"
            else ["--g-target", "-0.1", "--out", str(tmp_path / "runs")])
    assert run_cli(config + options[:1] + ["--problem", str(prob_file)] + span
                   + options[1:]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and name in err[0]
    assert sorted(f for f in tmp_path.rglob("*") if f.is_file()) == sorted(
        [prob_file] + [tmp_path / "cfg.json"] * bool(config))


@pytest.mark.parametrize("levels, options, message", [
    # level 3 of the 4x4 lattice has Omega = 12, so M_k = 7 > M = 4
    ((), ["--level", "3"],
     "branch occupation cannot supply the 7 cluster pairs"),
    ((rs.Level(0.0, 2), rs.Level(1.0, 3)), ["--level", "2"],
     "cluster condition M_k = 1 - 2 d_k = 2.5 is not a positive integer "
     "for level Level(eta=1.0, omega=3, nu=0)"),
], ids=["cluster-above-m", "odd-omega"])
def test_a_walk_that_cannot_start_fails_before_any_worker(
        tmp_path, capsys, monkeypatch, levels, options, message):
    # the real run_scans, with a pool of two, so that a request that got
    # as far as a walk would fork or walk
    def no_walk(*args):
        raise AssertionError("a walk started")

    def no_fork():
        raise AssertionError("a scan worker started")

    monkeypatch.setattr(critical, "_scan_side", no_walk)
    monkeypatch.setattr(critical, "scan_workers", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    problem = rs.PairingProblem(levels, 2) if levels \
        else rs.build_lattice_model(4, 4)
    prob_file = tmp_path / "prob.json"
    prob_file.write_text(rs.save_problem(problem))
    assert run_cli(["critical", "--problem", str(prob_file), "--g-min",
                    "-0.1", "--g-max", "0.1"] + options) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert [f for f in tmp_path.rglob("*") if f.is_file()] == [prob_file]


def _warn_on_level(monkeypatch, level):
    """Make `critical.run_scans` report one issue for 0-based `level`."""
    run = critical.run_scans

    def warning(problem, requests):
        return [critical.ScanResult(found, found.issues + (
                    [f"scan truncated: test stall at level {req.k}"]
                    if req.k == level else []), found.error)
                for req, found in zip(requests, run(problem, requests))]

    monkeypatch.setattr(critical, "run_scans", warning)


def test_warnings_print_as_one_line(tmp_path):
    # a fresh interpreter, where warnings reach stderr as a user sees them
    program = textwrap.dedent("""
        import sys, warnings
        from richardson import cli, critical

        def truncated(problem, requests):
            return [critical.ScanResult([], ["scan truncated: test stall"])
                    for _ in requests]

        critical.run_scans = truncated
        before = warnings.formatwarning
        code = cli.main(sys.argv[1:])
        assert warnings.formatwarning is before, "formatwarning not restored"
        sys.exit(code)
    """)
    prob_file = tmp_path / "toy.json"
    p = rs.PairingProblem((rs.Level(0.0, 6), rs.Level(1.0, 2)), 4)
    prob_file.write_text(rs.save_problem(p))
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-W", "always", "-c", program, "critical",
         "--problem", str(prob_file), "--level", "1", "--g-min", "-0.3",
         "--g-max", "0"], capture_output=True, text=True, env=env,
        timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stderr.splitlines() == ["warning: scan truncated: test stall"]


def test_critical_warning_reaches_the_caller_once(tmp_path, capsys,
                                                  monkeypatch):
    # a scan's warning reaches the caller's filters once, from the line of
    # `cli` that called the scan; `critical` reads the issue from the result
    _warn_on_level(monkeypatch, 1)
    prob_file = tmp_path / "toy.json"
    p = rs.PairingProblem((rs.Level(0.0, 6), rs.Level(1.0, 2)), 4)
    prob_file.write_text(rs.save_problem(p))
    argv = ["critical", "--problem", str(prob_file), "--g-min", "-0.3",
            "--g-max", "0"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(argv) == 0
    assert [str(w.message) for w in caught] == [
        "scan truncated: test stall at level 1"]
    assert caught[0].category is critical.TruncatedScanWarning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.filterwarnings("ignore", module=r"richardson\.cli")
        assert run_cli(argv) == 0
    assert caught == []
    with warnings.catch_warnings():
        warnings.simplefilter("error", critical.TruncatedScanWarning)
        with pytest.raises(critical.TruncatedScanWarning):
            run_cli(argv)


def _no_scan(monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("sweep scanned")

    monkeypatch.setattr(critical, "run_scans", no_scan)
    monkeypatch.setattr(continuation, "run_scans", no_scan)


def _toy_critical(tmp_path, options=(), g_min="-0.52"):
    """The toy problem, two levels that can collapse, after `critical`."""
    prob_file = tmp_path / "toy.json"
    p = rs.PairingProblem((rs.Level(0.0, 6), rs.Level(1.0, 2)), 4)
    prob_file.write_text(rs.save_problem(p))
    assert run_cli(["critical", "--problem", str(prob_file), "--g-min",
                    g_min, "--g-max", "0", *options]) == 0
    return prob_file, cli.coverage_path(prob_file, rs.ground_occupation(p))


def _toy_sweep(prob_file, out, options=()):
    return run_cli(["sweep", "--problem", str(prob_file), "--g-target",
                    "-0.5", "--out", str(out), *options])


@pytest.fixture(scope="module")
def lat4_records(tmp_path_factory):
    """(problem text, records) of `critical` on 4x4 M=4 over (-0.5, 0)."""
    prob_file = tmp_path_factory.mktemp("lat4") / "lat4.json"
    problem = rs.build_lattice_model(4, 4)
    prob_file.write_text(rs.save_problem(problem))
    assert run_cli(["critical", "--problem", str(prob_file),
                    "--g-min", "-0.5", "--g-max", "0"]) == 0
    rec_file = cli.records_path(prob_file, rs.ground_occupation(problem))
    return prob_file.read_text(), json.loads(rec_file.read_text())


@pytest.mark.parametrize("key, value", [
    ("level_index", 99), ("m_k", 1), ("level_index", 2)],
    ids=["no-such-level", "m_k-not-1-2d", "level-of-another-m_k"])
def test_sweep_refuses_a_record_that_no_scan_finds(tmp_path, capsys,
                                                   lat4_records, key, value):
    text, recs = lat4_records
    prob_file = tmp_path / "lat4.json"
    prob_file.write_text(text)
    edited = [dict(recs[0], **{key: value})] + recs[1:]
    cli.records_path(prob_file, rs.ground_occupation(
        rs.load_problem(text))).write_text(json.dumps(edited))
    capsys.readouterr()
    assert run_cli(["sweep", "--problem", str(prob_file), "--g-target",
                    "-0.5", "--out", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "bad record" in err[0]
    assert list(tmp_path.rglob("*.csv")) == []


@pytest.mark.parametrize("edit, why", [
    (lambda rec: dict(rec, g_c=-0.25), "fails validation"),
    (lambda rec: dict(rec, e_noncluster=[
        [a, -abs(b)] for a, b in rec["e_noncluster"]]), "imaginary residue"),
    (lambda rec: dict(rec, g_c=float("nan")), "must be finite"),
    (lambda rec: dict(rec, g_c=float("inf")), "must be finite"),
    (lambda rec: dict(rec, energy=float("nan")), "must be finite"),
    (lambda rec: dict(rec, energy=rec["energy"] + 1.0), "energy is not"),
    (lambda rec: dict(rec, chi=[2.0 * c for c in rec["chi"]]), "chi is not"),
    (lambda rec: dict(rec, noncluster_origin=rec["noncluster_origin"][1:]),
     "labelled with a level index"),
    (lambda rec: dict(rec, noncluster_origin=[99, 99]),
     "labelled with a level index"),
    (lambda rec: dict(rec, deflated_occupation=[1]), "deflated occupation"),
], ids=["g_c-off-the-root", "energies-not-conjugate", "g_c-nan", "g_c-inf",
        "energy-nan", "energy-shifted", "chi-scaled", "label-dropped",
        "labels-no-level", "deflated-occupation-short"])
def test_sweep_refuses_a_record_that_is_no_critical_point(
        tmp_path, capsys, lat4_records, edit, why):
    # the record keeps a shape that some scan can find, but it is not
    # finite, fails the scan's residual check, raises while checked, or
    # carries an energy or chi that its g_c and e_noncluster do not give
    text, recs = lat4_records
    assert recs[1]["g_c"] == pytest.approx(-0.2131309)
    prob_file = tmp_path / "lat4.json"
    prob_file.write_text(text)
    cli.records_path(prob_file, rs.ground_occupation(
        rs.load_problem(text))).write_text(json.dumps(
            [recs[0], edit(recs[1])]))
    capsys.readouterr()
    assert run_cli(["sweep", "--problem", str(prob_file), "--g-target",
                    "-0.5", "--out", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "bad record" in err[0] and why in err[0]
    assert list(tmp_path.rglob("*.csv")) == []


@pytest.mark.parametrize("key, value", [
    ("level_index", 1.7), ("level_index", True), ("m_k", 2.5), ("m_k", True),
    ("deflated_occupation", [0.5, 2.4, 0, 0, 0]),
    ("noncluster_origin", [1.5, 1])],
    ids=["level_index-1.7", "level_index-true", "m_k-2.5", "m_k-true",
         "deflated_occupation-fractions", "noncluster_origin-1.5"])
def test_sweep_refuses_a_record_count_that_is_no_integer(
        tmp_path, capsys, lat4_records, key, value):
    # before, int() truncated each of these, and the sweep exited 0
    text, recs = lat4_records
    prob_file = tmp_path / "lat4.json"
    prob_file.write_text(text)
    cli.records_path(prob_file, rs.ground_occupation(
        rs.load_problem(text))).write_text(json.dumps(
            [recs[0], dict(recs[1], **{key: value})]))
    capsys.readouterr()
    assert run_cli(["sweep", "--problem", str(prob_file), "--g-target",
                    "-0.5", "--out", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "bad record" in err[0] and f"{key}: " in err[0]
    assert list(tmp_path.rglob("*.csv")) == []


def test_loaded_records_pass_the_scans_point_check(tmp_path, lat4_records,
                                                   monkeypatch):
    # one check, `critical.critical_point`, for a scanned and a loaded point
    text, recs = lat4_records
    rec_file = tmp_path / "records.json"
    rec_file.write_text(json.dumps(recs))
    seen = []
    check = critical.critical_point

    def counted(problem, k, *args):
        seen.append(k)
        return check(problem, k, *args)

    monkeypatch.setattr(critical, "critical_point", counted)
    _, points = cli.load_records(rec_file, rs.load_problem(text))
    assert seen == [p.k for p in points] == [0, 0]


def test_a_label_with_a_path_separator_is_refused(tmp_path, capsys):
    # the label names the sweep's CSV files under --out; "../escaped/x"
    # wrote runs/../escaped/x_<tag>_neg.csv, beside runs
    prob_file = tmp_path / "toy.json"
    doc = json.loads(rs.save_problem(rs.build_lattice_model(2, 2)))
    prob_file.write_text(json.dumps(dict(doc, label="../escaped/x")))
    assert run_cli(["sweep", "--problem", str(prob_file), "--g-target",
                    "-0.1", "--out", str(tmp_path / "runs")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: label: '../escaped/x' must be a "
                                "string without a path separator"]
    assert sorted(f.name for f in tmp_path.iterdir()) == ["toy.json"]


def test_sweep_reads_a_negative_target_in_exponent_notation(tmp_path,
                                                            capsys):
    prob_file = tmp_path / "lat4.json"
    prob_file.write_text(rs.save_problem(rs.build_lattice_model(4, 4)))
    seen = []
    for target in (["--g-target=-1e-3"], ["--g-target", "-1e-3"]):
        assert run_cli(["sweep", "--problem", str(prob_file), *target,
                        "--out", str(tmp_path / "runs")]) == 0
        seen.append((capsys.readouterr(), sorted(
            (f.name, f.read_text()) for f in (tmp_path / "runs").iterdir())))
    assert seen[1] == seen[0]
    assert seen[0][0].err == ""


@pytest.mark.parametrize("g_min", ["-2e-1", "-2E-1", "-.2", "-20e-2",
                                   "-0.02e+1"])
def test_critical_reads_a_negative_bound_in_any_float_notation(
        tmp_path, capsys, g_min):
    prob_file = tmp_path / "toy.json"
    prob_file.write_text(rs.save_problem(rs.PairingProblem(
        (rs.Level(0.0, 6), rs.Level(1.0, 2)), 4)))
    out = tmp_path / "records.json"
    seen = []
    for value in ("-0.2", g_min):
        assert run_cli(["critical", "--problem", str(prob_file),
                        "--g-min", value, "--g-max", "0",
                        "--out", str(out)]) == 0
        seen.append((capsys.readouterr(), out.read_text()))
    assert seen[1] == seen[0]
    assert seen[0][0].err == ""


def test_sweep_reuses_the_scan_of_critical(tmp_path, capsys, monkeypatch):
    prob_file, cov_file = _toy_critical(tmp_path)
    cov = json.loads(cov_file.read_text())
    assert cov["levels"] == [1, 2] and cov["g_range"] == [-0.52, 0.0]
    assert "mk" not in cov and cov["grid"] is None
    capsys.readouterr()
    with monkeypatch.context() as patch:
        _no_scan(patch)
        assert _toy_sweep(prob_file, tmp_path / "reused") == 0
    reused = capsys.readouterr().out
    assert "note: registered (k=0, g_c=-0.25)\n" in reused
    cov_file.unlink()
    assert _toy_sweep(prob_file, tmp_path / "rescanned") == 0
    assert capsys.readouterr().out == reused.replace(
        str(tmp_path / "reused"), str(tmp_path / "rescanned"))
    csvs = [sorted((tmp_path / d).glob("*.csv")) for d in
            ("reused", "rescanned")]
    assert [f.name for f in csvs[0]] == [f.name for f in csvs[1]]
    for a, b in zip(*csvs):
        assert a.read_text() == b.read_text()


def test_sweep_reuses_a_coverage_file_with_a_null_mk(tmp_path, capsys,
                                                     monkeypatch):
    # earlier versions wrote "mk": null for a run at M_k = 1 - 2 d_k
    prob_file, cov_file = _toy_critical(tmp_path)
    doc = json.loads(cov_file.read_text())
    doc["mk"] = None
    cov_file.write_text(json.dumps(doc))
    _no_scan(monkeypatch)
    assert _toy_sweep(prob_file, tmp_path) == 0


def _edit_records(prob_file, cov_file):
    rec_file = cov_file.with_name(cov_file.name.replace("_scanned_",
                                                        "_critical_"))
    rec_file.write_text(rec_file.read_text() + "\n")


def _edit_problem(prob_file, cov_file):
    doc = json.loads(prob_file.read_text())
    doc["label"] = "edited"
    prob_file.write_text(json.dumps(doc))


def _set_mk(prob_file, cov_file):
    # a coverage file as `critical` wrote it when M_k was an option: its
    # records may hold points of another cluster size than 1 - 2 d_k
    doc = json.loads(cov_file.read_text())
    doc["mk"] = 4
    cov_file.write_text(json.dumps(doc))


@pytest.mark.parametrize("critical_options, g_min, edit, sweep_options", [
    ((), "-0.3", None, ()),
    (("--level", "1"), "-0.52", None, ()),
    ((), "-0.52", _set_mk, ()),
    (("--grid", "500"), "-0.52", None, ()),
    ((), "-0.52", _edit_records, ()),
    ((), "-0.52", _edit_problem, ()),
    ((), "-0.52", None, ("--crossing-radius", "0.02")),
], ids=["narrower-range", "single-level", "mk", "grid", "edited-records",
        "edited-problem", "crossing-radius"])
def test_sweep_rescans_what_critical_did_not_cover(
        tmp_path, capsys, monkeypatch, critical_options, g_min, edit,
        sweep_options):
    prob_file, cov_file = _toy_critical(tmp_path, critical_options, g_min)
    assert cov_file.exists()
    if edit is not None:
        edit(prob_file, cov_file)
    _no_scan(monkeypatch)
    with pytest.raises(AssertionError, match="sweep scanned"):
        _toy_sweep(prob_file, tmp_path, sweep_options)


def test_sweep_rescans_a_level_whose_scan_warned(tmp_path, capsys,
                                                 monkeypatch):
    with monkeypatch.context() as patch:
        _warn_on_level(patch, 1)
        prob_file, cov_file = _toy_critical(tmp_path)
    assert json.loads(cov_file.read_text())["levels"] == [1]
    _no_scan(monkeypatch)
    with pytest.raises(AssertionError, match="sweep scanned"):
        _toy_sweep(prob_file, tmp_path)


def test_coverage_ignores_the_warnings_filters(tmp_path, capsys,
                                              monkeypatch):
    # level 2 (1-based) stalls past g = -0.3; with every warning ignored its
    # truncated scan still keeps it out of the coverage file
    def stalling(k, g):
        if k == 1 and g < -0.3:
            raise ContinuationError(f"test stall at g={g:.6g}")

    fault_walks(monkeypatch, stalling)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("ignore")
        prob_file, cov_file = _toy_critical(tmp_path)
    assert caught == []
    assert json.loads(cov_file.read_text())["levels"] == [1]


def test_a_stalled_dip_rewalk_keeps_its_level_out_of_the_coverage(
        tmp_path, capsys, monkeypatch):
    # level 2 (1-based): one grid determinant dips sharply with no sign
    # change, and the fine re-walk of that dip stalls; a root pair may hide
    # there, so the level is not fully scanned
    walk = critical._walk

    def dipping(walker, problem, k, grid):
        if len(grid) == 201:
            return grid[:0], np.empty(0), [], ContinuationError("test stall")
        gs, dets, states, stall = walk(walker, problem, k, grid)
        if k == 1:
            i = next(i for i in range(1, len(dets) - 1)
                     if dets[i - 1] * dets[i + 1] > 0)
            dets = dets.copy()
            dets[i] = 1e-3 * dets[i + 1]
        return gs, dets, states, stall

    monkeypatch.setattr(critical, "_walk", dipping)
    with pytest.warns(critical.TruncatedScanWarning,
                      match=r"^dip re-walk in \(.*\) for level 1 stopped: "
                            r"test stall$"):
        prob_file, cov_file = _toy_critical(tmp_path)
    assert json.loads(cov_file.read_text())["levels"] == [1]


@pytest.mark.parametrize("text", ["{not json", "[]", '{"levels": [1, 2]}'],
                         ids=["not-json", "not-object", "lacks-keys"])
def test_bad_coverage_file_is_one_error_line(tmp_path, capsys, monkeypatch,
                                             text):
    prob_file, cov_file = _toy_critical(tmp_path)
    cov_file.write_text(text)
    capsys.readouterr()
    _no_scan(monkeypatch)
    monkeypatch.setattr(continuation, "sweep", lambda *a, **k: 1 / 0)
    assert _toy_sweep(prob_file, tmp_path) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and cov_file.name in err[0]


@pytest.mark.parametrize("key", ["problem", "prob"])
def test_config_supplies_a_required_option(tmp_path, capsys, key):
    # a config entry is a flag, so it satisfies a required option, and an
    # abbreviation names the option as it would on the command line
    prob_file = tmp_path / "n2.json"
    prob_file.write_text(rs.save_problem(rs.build_lattice_model(2, 2)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: str(prob_file)}))
    assert run_cli(["--config", str(cfg), "verify", "--points", "3"]) == 0
    assert "samples checked: 12" in capsys.readouterr().out


def test_config_unknown_key_is_an_unrecognized_flag(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"outt": "x.json"}))
    assert run_cli(["--config", str(cfg), "lattice", "--n", "2",
                    "--pairs", "2"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: unrecognized arguments: --outt=x.json"]


@pytest.mark.parametrize("spec, reason", [
    ("2,x,1", "invalid literal for int() with base 10: 'x'"),
    ("2,2", "occupation has 2 entries for 3 levels"),
    ("5,0,0", "counts[0]=5 exceeds level capacity 2"),
])
@pytest.mark.parametrize("command", ["critical", "sweep"])
@pytest.mark.parametrize("from_config", [False, True], ids=["flag", "config"])
def test_bad_branch_names_the_option(tmp_path, capsys, monkeypatch, spec,
                                     reason, command, from_config):
    def no_work(*args, **kwargs):
        raise AssertionError("ran before the branch was checked")

    monkeypatch.setattr(continuation, "sweep", no_work)
    monkeypatch.setattr(critical, "run_scans", no_work)
    prob_file = _toy3_file(tmp_path)
    argv = [command, "--problem", str(prob_file), "--out",
            str(tmp_path / "out")]
    argv += (["--g-min", "-0.6", "--g-max", "0"] if command == "critical"
             else ["--g-target", "-0.5"])
    if from_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"branch": spec}))
        argv = ["--config", str(cfg)] + argv
    else:
        argv += ["--branch", spec]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: --branch {spec}: {reason}"]


def test_branch_counts_name_the_records_of_that_branch(tmp_path, capsys,
                                                       monkeypatch):
    prob_file = _toy3_file(tmp_path)
    branch = rs.OccupationMap((2, 1, 1))
    assert run_cli(["critical", "--problem", str(prob_file), "--branch",
                    "2,1,1", "--g-min", "-0.6", "--g-max", "0"]) == 0
    rec_file = cli.records_path(prob_file, branch)
    recs = json.loads(rec_file.read_text())
    assert len(recs) == 2
    assert all(r["occupation"] == [2, 1, 1] for r in recs)
    capsys.readouterr()

    def no_scan(*args, **kwargs):
        raise AssertionError("the records cover the sweep")

    monkeypatch.setattr(continuation, "run_scans", no_scan)
    assert run_cli(["sweep", "--problem", str(prob_file), "--branch",
                    "2 1 1", "--g-target", "-0.5", "--out",
                    str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert f"loaded 2 critical point(s) from {rec_file}" in out
    assert "status: completed   crossings: j=1 g_c=-0.243532" in out
    assert (tmp_path / f"toy3_{cli.branch_tag(branch)}_neg.csv").exists()


def test_truncated_sweep_prints_notes_and_exits_4(tmp_path, capsys,
                                                  monkeypatch):
    # any energy change exceeds a zero multiple of the trend
    monkeypatch.setattr(continuation, "ENERGY_JUMP_FACTOR", 0.0)
    prob_file = tmp_path / "n2.json"
    prob_file.write_text(rs.save_problem(rs.build_lattice_model(2, 2)))
    assert run_cli(["sweep", "--problem", str(prob_file), "--g-target",
                    "-0.4", "--out", str(tmp_path)]) == 4
    out = capsys.readouterr().out.splitlines()
    assert "status: truncated   crossings: none" in out
    assert out[-1].startswith("note: energy jump at g=")
    assert len(list(tmp_path.glob("*_neg.csv"))) == 1


def test_sweep_step_is_the_first_step(tmp_path, capsys):
    prob_file = tmp_path / "n2.json"
    prob_file.write_text(rs.save_problem(rs.build_lattice_model(2, 2)))
    for step in ("2.5e-4", None):
        for f in tmp_path.glob("*.csv"):
            f.unlink()
        argv = ["sweep", "--problem", str(prob_file), "--g-target", "-0.4",
                "--out", str(tmp_path)]
        assert run_cli(argv + ["--step", step] * bool(step)) == 0
        rows = next(tmp_path.glob("*_neg.csv")).read_text().splitlines()
        g0, g1 = (float(row.split(",")[0]) for row in rows[1:3])
        want = float(step) if step else \
            continuation.SweepOptions().step_init
        assert g0 - g1 == pytest.approx(want, abs=1e-12)


def test_verify_skips_every_point_of_a_sign_whose_scan_failed(
        tmp_path, capsys, monkeypatch):
    real = continuation.auto_scan_points

    def failing_pos(problem, branch, g_target, *args, **kwargs):
        if g_target > 0:
            raise ContinuationError("scan stalled")
        return real(problem, branch, g_target, *args, **kwargs)

    monkeypatch.setattr(continuation, "auto_scan_points", failing_pos)
    prob_file = tmp_path / "n2.json"
    prob_file.write_text(rs.save_problem(rs.build_lattice_model(2, 2)))
    assert run_cli(["verify", "--problem", str(prob_file),
                    "--points", "5"]) == 4
    out = capsys.readouterr().out.splitlines()
    # each of the 4 branches at each positive grid point
    skipped = [ln.split(" at g=")[1] for ln in out
               if ln.endswith(": skipped (scan stalled)")]
    assert sorted(skipped) == ["0.1: skipped (scan stalled)"] * 4 \
        + ["0.2: skipped (scan stalled)"] * 4
    assert "samples checked: 12" in out


@pytest.mark.parametrize("excitations, note", [
    ("0", "note: 1 of 4 oracle states covered; raise --excitations for more"),
    ("1", None),
])
def test_verify_notes_the_oracle_states_it_left_out(tmp_path, capsys,
                                                    excitations, note):
    prob_file = tmp_path / "n2.json"
    prob_file.write_text(rs.save_problem(rs.build_lattice_model(2, 2)))
    assert run_cli(["verify", "--problem", str(prob_file), "--points", "3",
                    "--excitations", excitations]) == 0
    notes = [ln for ln in capsys.readouterr().out.splitlines()
             if ln.startswith("note: ")]
    assert notes == ([note] if note else [])
