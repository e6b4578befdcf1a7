import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest

import richardson as rs
from richardson import cli, continuation, critical
from richardson.errors import ContinuationError, DegenerateTangentError

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


def test_sweep_continuation_failure_exit_code(tmp_path, capsys):
    # at |g| = 5e-5 the weak-coupling start of the 4x4 lattice does not
    # converge: exit 4 with one error line, no traceback
    prob_file = tmp_path / "lat4.json"
    prob_file.write_text(rs.save_problem(rs.build_lattice_model(4, 4)))
    assert run_cli(["sweep", "--problem", str(prob_file),
                    "--g-target", "1e-4", "--out", str(tmp_path)]) == 4
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


def test_verify_guard_exit(tmp_path, capsys):
    prob_file = tmp_path / "big.json"
    prob_file.write_text(rs.save_problem(rs.build_lattice_model(8, 16)))
    assert run_cli(["verify", "--problem", str(prob_file),
                    "--points", "3"]) == 5


@pytest.mark.parametrize("problem, code, message", [
    (rs.build_lattice_model(6, 18), 5, "pair basis dimension 54964 exceeds"),
    (rs.PairingProblem((rs.Level(0.0, 4, nu=2), rs.Level(1.0, 4)), 2), 2,
     "seniority-0 problems only")])
def test_verify_checks_oracle_before_any_sweep(tmp_path, capsys, monkeypatch,
                                               problem, code, message):
    def no_sweep(*args, **kwargs):
        raise AssertionError("verify swept before checking the oracle")

    monkeypatch.setattr(rs.continuation, "sweep", no_sweep)
    prob_file = tmp_path / "p.json"
    prob_file.write_text(rs.save_problem(problem))
    assert run_cli(["verify", "--problem", str(prob_file)]) == code
    assert message in capsys.readouterr().err


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
    scan = critical.scan_critical

    def recording(problem, k, *args, **kwargs):
        scanned.append(k)
        return scan(problem, k, *args, **kwargs)

    monkeypatch.setattr(critical, "scan_critical", recording)
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
    monkeypatch.setattr(critical, "scan_critical", no_work)
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
], ids=["points", "grid", "step", "crossing-radius", "stride",
        "config-stride", "config-step", "config-points", "config-float-count"])
def test_non_positive_option_is_rejected_before_any_work(
        tmp_path, capsys, monkeypatch, options, config, name):
    def no_work(*args, **kwargs):
        raise AssertionError("ran before the options were checked")

    for mod, attr in ((continuation, "sweep"), (critical, "scan_critical"),
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
    ((), ["critical", "--level", "1", "--mk", "0"], "--mk"),
    ((), ["critical", "--level", "1", "--mk", "-1"], "--mk"),
    ((), ["sweep", "--cluster-level", "0"], "--cluster-level 0"),
    ((), ["sweep", "--cluster-level", "99"], "--cluster-level 99"),
    ((rs.Level(0.0, 2), rs.Level(1.0, 3)), ["sweep", "--cluster-level", "2"],
     "M_k"),
], ids=["level-99", "level-0", "level-abc", "config-level-abc", "mk-0",
        "mk-negative", "cluster-level-0", "cluster-level-99",
        "cluster-level-odd-omega"])
def test_bad_level_argument_is_rejected_before_any_work(
        tmp_path, capsys, monkeypatch, levels, options, name):
    # by default the 4x4 lattice with M = 4; a level with odd Omega has the
    # non-integer cluster size M_k = 1 + Omega/2, so it has no S_p table
    def no_work(*args, **kwargs):
        raise AssertionError("ran before the level arguments were checked")

    monkeypatch.setattr(continuation, "sweep", no_work)
    monkeypatch.setattr(critical, "scan_critical", no_work)
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


def _warn_on_level(monkeypatch, level):
    """Make `critical.scan_critical` warn once for 0-based `level`."""
    scan = critical.scan_critical

    def warning(problem, k, *args, **kwargs):
        if k == level:   # from the caller's line, as `scan_critical` warns
            warnings.warn(f"scan truncated: test stall at level {k}",
                          critical.TruncatedScanWarning, stacklevel=2)
        return scan(problem, k, *args, **kwargs)

    monkeypatch.setattr(critical, "scan_critical", warning)


def test_warnings_print_as_one_line(tmp_path):
    # a fresh interpreter, where warnings reach stderr as a user sees them
    program = textwrap.dedent("""
        import sys, warnings
        from richardson import cli, critical

        def truncated(*args, **kwargs):
            warnings.warn("scan truncated: test stall",
                          critical.TruncatedScanWarning)
            return []

        critical.scan_critical = truncated
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
    # `critical` records each level's warnings to learn which scans were
    # whole, then issues them again for the caller's own filters
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

    monkeypatch.setattr(critical, "scan_critical", no_scan)
    monkeypatch.setattr(continuation, "scan_critical", no_scan)


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


def test_sweep_reuses_the_scan_of_critical(tmp_path, capsys, monkeypatch):
    prob_file, cov_file = _toy_critical(tmp_path)
    cov = json.loads(cov_file.read_text())
    assert cov["levels"] == [1, 2] and cov["g_range"] == [-0.52, 0.0]
    assert cov["mk"] is None and cov["grid"] is None
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


def _edit_records(prob_file, cov_file):
    rec_file = cov_file.with_name(cov_file.name.replace("_scanned_",
                                                        "_critical_"))
    rec_file.write_text(rec_file.read_text() + "\n")


def _edit_problem(prob_file, cov_file):
    doc = json.loads(prob_file.read_text())
    doc["label"] = "edited"
    prob_file.write_text(json.dumps(doc))


@pytest.mark.parametrize("critical_options, g_min, edit, sweep_options", [
    ((), "-0.3", None, ()),
    (("--level", "1"), "-0.52", None, ()),
    (("--mk", "4"), "-0.52", None, ()),
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
