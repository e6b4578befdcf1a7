import json

import numpy as np
import pytest

import richardson as rs
from richardson import cli

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


def test_verify_guard_exit(tmp_path, capsys):
    prob_file = tmp_path / "big.json"
    prob_file.write_text(rs.save_problem(rs.build_lattice_model(8, 16)))
    assert run_cli(["verify", "--problem", str(prob_file),
                    "--points", "3"]) == 5


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


def test_critical_all_levels_with_thread_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RICHARDSON_THREADS", "2")
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
