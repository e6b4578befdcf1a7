"""Command-line frontend: lattice, critical, sweep, verify.

Commands compose through files: `lattice` writes a problem file, `critical`
writes critical-point records next to it, and `sweep` auto-loads those
records (or scans on the fly) before walking the coupling.  Human-readable
tables go to stdout with 6 significant digits; CSV and JSON files carry 12
digits so they can seed further runs.  Level indices in tables and flags
are 1-based to match the j labels physicists expect; the Python API is
0-based.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import continuation, critical, model, oracle
from .errors import (CapacityError, ContinuationError, OracleDimensionError,
                     ProblemFormatError, RichardsonError, UnresolvedRootError)

EXIT_USAGE = 2
EXIT_CAPACITY = 2
EXIT_UNRESOLVED = 3
EXIT_TRUNCATED = 4
EXIT_GUARD = 5


def _fmt(x, digits=6):
    return f"{x:.{digits}g}"


def atomic_write(path, text):
    """Write via a temp file in the same directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def max_threads():
    env = os.environ.get("RICHARDSON_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return min(4, os.cpu_count() or 1)


def load_problem_file(path) -> model.PairingProblem:
    try:
        return model.load_problem(Path(path).read_text())
    except FileNotFoundError:
        raise ProblemFormatError(f"problem file not found: {path}")


def parse_branch(spec, problem) -> model.OccupationMap:
    if not spec or spec == "ground":
        return model.ground_occupation(problem)
    counts = tuple(int(tok) for tok in spec.replace(",", " ").split())
    return model.OccupationMap(counts).validate_for(problem)


def branch_tag(occ: model.OccupationMap) -> str:
    import hashlib
    digest = hashlib.sha1(",".join(map(str, occ.counts)).encode()).hexdigest()
    return digest[:8]


def print_level_table(problem, out=None):
    out = out if out is not None else sys.stdout
    print("j    eta        omega  nu", file=out)
    for j, lv in enumerate(problem.levels, start=1):
        print(f"{j:<4} {_fmt(lv.eta):<10} {lv.omega:<6} {lv.nu}", file=out)
    print(f"levels: {problem.n_levels}   pairs: {problem.m_pairs}   "
          f"capacity: {problem.total_pair_capacity}", file=out)


# ---------------------------------------------------------------------------
# critical-point record files
# ---------------------------------------------------------------------------

def point_to_record(p: critical.CriticalPoint) -> dict:
    return {
        "level_index": p.k + 1,
        "g_c": p.g_c,
        "m_k": p.m_k,
        "energy": p.energy,
        "e_noncluster": [[z.real, z.imag] for z in p.e_noncluster],
        "chi": list(p.chi),
        "occupation": list(p.occupation_label.counts),
        "deflated_occupation": list(p.deflated_occupation.counts),
        "noncluster_origin": list(p.noncluster_origin),
    }


def record_to_point(rec: dict) -> critical.CriticalPoint:
    e_nc = np.array([complex(a, b) for a, b in rec["e_noncluster"]],
                    dtype=np.complex128)
    return critical.CriticalPoint(
        g_c=float(rec["g_c"]), k=int(rec["level_index"]) - 1,
        m_k=int(rec["m_k"]), e_noncluster=e_nc,
        chi=np.array(rec["chi"], dtype=float), energy=float(rec["energy"]),
        occupation_label=model.OccupationMap(tuple(rec["occupation"])),
        deflated_occupation=model.OccupationMap(
            tuple(rec["deflated_occupation"])),
        noncluster_origin=tuple(rec["noncluster_origin"]))


def records_path(problem_path, branch):
    base = Path(problem_path)
    return base.with_name(f"{base.stem}_critical_{branch_tag(branch)}.json")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_lattice(args):
    problem = model.build_lattice_model(args.n, args.pairs)
    if args.n % 2 == 1:
        print("note: odd lattice size, level energies are not integers")
    print_level_table(problem)
    if args.out:
        atomic_write(args.out, model.save_problem(problem))
        print(f"wrote {args.out}")
    return 0


def _scan_one(problem, k, g_range, branch, args):
    return critical.scan_critical(
        problem, k, g_range, branch, m_k=args.mk,
        grid_points=args.grid)


def cmd_critical(args):
    problem = load_problem_file(args.problem)
    branch = parse_branch(args.branch, problem)
    g_range = (args.g_min, args.g_max)
    if args.level == "all":
        levels = [k for k, c in enumerate(branch.counts) if c > 0]
    else:
        levels = [int(args.level) - 1]
    points = []
    with ThreadPoolExecutor(max_workers=max_threads()) as pool:
        futures = {pool.submit(_scan_one, problem, k, g_range, branch, args): k
                   for k in levels}
        for fut, k in futures.items():
            points.extend(fut.result())
    points.sort(key=lambda p: p.g_c)

    print("j    g_c          M_k  energy")
    for p in points:
        print(f"{p.k + 1:<4} {_fmt(p.g_c, 6):<12} {p.m_k:<4} "
              f"{_fmt(p.energy, 6)}")
    if not points:
        print("(no critical points in range)")
    out = args.out or records_path(args.problem, branch)
    atomic_write(out, json.dumps([point_to_record(p) for p in points],
                                 indent=2) + "\n")
    print(f"wrote {out}")
    return 0


def _csv(header, rows, digits=12):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.{digits}g}" for v in row))
    return "\n".join(lines) + "\n"


def cmd_sweep(args):
    problem = load_problem_file(args.problem)
    branch = parse_branch(args.branch, problem)
    if args.g_target == 0.0:
        print("error: --g-target must be nonzero", file=sys.stderr)
        return EXIT_USAGE
    points = None
    rec_file = records_path(args.problem, branch)
    if rec_file.exists():
        recs = json.loads(rec_file.read_text())
        points = [record_to_point(r) for r in recs]
        print(f"loaded {len(points)} critical point(s) from {rec_file}")
    opts = continuation.SweepOptions()
    if args.step:
        opts.step_init = args.step
    if args.crossing_radius:
        opts.crossing_radius = args.crossing_radius
    path = continuation.sweep(problem, branch, args.g_target, options=opts,
                              critical_points=points)

    label = problem.label or Path(args.problem).stem
    sign = "pos" if args.g_target > 0 else "neg"
    prefix = Path(args.out) if args.out else Path(".")
    prefix.mkdir(parents=True, exist_ok=True)
    name = f"{label}_{branch_tag(branch)}_{sign}"

    fig = continuation.sample_figure_data(
        path, problem,
        cluster_level=(args.cluster_level - 1
                       if args.cluster_level is not None else None))
    stride = max(1, args.stride)
    atomic_write(prefix / f"{name}.csv",
                 _csv(fig.header, fig.rows[::stride]))
    print(f"wrote {prefix / (name + '.csv')} "
          f"({len(fig.rows[::stride])} samples)")
    if fig.s_rows is not None:
        atomic_write(prefix / f"{name}_spower.csv",
                     _csv(fig.s_header, fig.s_rows))
        print(f"wrote {prefix / (name + '_spower.csv')}")
    print(f"status: {path.status}   crossings: "
          + (", ".join(f"j={p.k + 1} g_c={_fmt(p.g_c)}"
                       for p in path.crossings) or "none"))
    for diag in path.diagnostics:
        print("note:", diag)
    if path.status != "completed":
        return EXIT_TRUNCATED
    return 0


def cmd_verify(args):
    problem = load_problem_file(args.problem)
    grid = np.linspace(args.g_min, args.g_max, args.points)
    spectrum_cache = {}
    branches = [model.ground_occupation(problem)]
    branches += [occ for occ in model.excited_occupations(
        problem, args.excitations) if occ != branches[0]]
    dim = len(oracle.pair_basis(problem))
    print(f"oracle dimension: {dim}; checking {len(branches)} branch(es) "
          f"on {len(grid)} couplings")
    worst = 0.0
    checked = 0
    for occ in branches:
        for g in grid:
            if g == 0.0:
                energy = sum(2.0 * lv.eta * c
                             for lv, c in zip(problem.levels, occ.counts))
            else:
                try:
                    path = continuation.sweep(problem, occ, g)
                except (ContinuationError, RichardsonError) as err:
                    print(f"branch {occ.counts} at g={_fmt(g)}: skipped ({err})")
                    continue
                if path.status != "completed":
                    print(f"branch {occ.counts} at g={_fmt(g)}: truncated")
                    continue
                energy = path.samples[-1].energy
            if g not in spectrum_cache:
                spectrum_cache[g] = oracle.exact_spectrum(problem.with_g(g))
            dev = float(np.min(np.abs(spectrum_cache[g] - energy)))
            worst = max(worst, dev)
            checked += 1
    print(f"samples checked: {checked}")
    print(f"max deviation from exact spectrum: {_fmt(worst, 3)}")
    if len(branches) < dim:
        print(f"note: {len(branches)} of {dim} oracle states covered; "
              f"raise --excitations for more")
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="richardson",
        description="Richardson pairing equations: critical couplings, "
                    "exact solutions at g_c, continuation through them")
    ap.add_argument("--config",
                    help="JSON file with default option values for the "
                         "subcommand; flags given on the command line win")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice", help="generate the square-lattice model")
    p.add_argument("--n", type=int, required=True, help="lattice size n")
    p.add_argument("--pairs", type=int, required=True, help="pair count M")
    p.add_argument("--out", help="problem file to write")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("critical", help="locate critical couplings")
    p.add_argument("--problem", required=True)
    p.add_argument("--level", default="all",
                   help="1-based level j, or 'all' for occupied levels")
    p.add_argument("--g-min", type=float, required=True)
    p.add_argument("--g-max", type=float, required=True)
    p.add_argument("--branch", default="ground",
                   help="'ground' or comma-separated occupation counts")
    p.add_argument("--mk", type=int, default=None,
                   help="override the cluster size M_k")
    p.add_argument("--grid", type=int, default=None,
                   help="scan grid points")
    p.add_argument("--out", help="critical-point record file")
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("sweep", help="continue a branch from g=0 to a target")
    p.add_argument("--problem", required=True)
    p.add_argument("--g-target", type=float, required=True)
    p.add_argument("--branch", default="ground")
    p.add_argument("--out", help="output directory (default .)")
    p.add_argument("--cluster-level", type=int, default=None,
                   help="1-based level for the S_p table")
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--crossing-radius", type=float, default=None)
    p.add_argument("--stride", type=int, default=1,
                   help="keep every n-th sample in the CSV")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify",
                       help="compare swept energies with exact diagonalization")
    p.add_argument("--problem", required=True)
    p.add_argument("--g-min", type=float, default=-0.2)
    p.add_argument("--g-max", type=float, default=0.2)
    p.add_argument("--points", type=int, default=11)
    p.add_argument("--excitations", type=int, default=1)
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.config:
        # config values become the subcommand's defaults; explicit flags win
        defaults = json.loads(Path(args.config).read_text())
        sub = next(a for a in ap._actions
                   if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[args.command]
        options = {a.dest for a in parser._actions
                   if a.option_strings and a.dest != "help"}
        defaults = {key.replace("-", "_"): val
                    for key, val in defaults.items()}
        unknown = sorted(set(defaults) - options)
        if unknown:
            print(f"error: {args.config}: not an option of "
                  f"'{args.command}': {', '.join(unknown)}", file=sys.stderr)
            return EXIT_USAGE
        parser.set_defaults(**defaults)
        args = ap.parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CAPACITY
    except UnresolvedRootError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_UNRESOLVED
    except OracleDimensionError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_GUARD
    except (ProblemFormatError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
