"""Command-line frontend: lattice, critical, sweep, verify.

Commands compose through files: `lattice` writes a problem file, `critical`
writes critical-point records next to it, and `sweep` loads those records.
Beside the default record file `critical` writes a coverage file,
`<stem>_scanned_<tag>.json`: the sha1 of the problem and of the record
file's text, the branch occupation, the scanned g range, the `--grid`
override (null when not given) and the 1-based levels whose scan listed no
issue (`critical.ScanResult.issues`, which no warnings filter changes).
`sweep` walks from the loaded records alone when that file matches both
hashes, has no override, covers the auto-scan range
(0, g_target +- 2 r_c), r_c the crossing radius, and lists every level
that can collapse (`critical.critical_levels`).  Otherwise it re-scans
those levels over that range and drops a rescanned point within 1e-9 of a
loaded one of its level.
Human-readable tables go to stdout with 6 significant
digits; CSV and JSON files carry 12 digits so they can seed further runs.
Level indices in tables and flags are 1-based to match the j labels
physicists expect; the Python API is 0-based.  Warnings print as one
`warning: <message>` line each.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from . import continuation, critical, model, oracle
from .cluster import default_cluster_size
from .errors import (CapacityError, OracleDimensionError, ProblemFormatError,
                     RichardsonError)

EXIT_USAGE = 2
EXIT_TRUNCATED = 4
EXIT_GUARD = 5
# largest deviation from the exact spectrum that `verify` passes
VERIFY_TOL = 1e-8


def _fmt(x, digits=6):
    return f"{x:.{digits}g}"


def output_dir(path):
    """Create the directory `path` (with its parents); a path that cannot be
    one, such as an existing plain file, is a usage error naming it."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ProblemFormatError(f"output location {path}: {err.strerror}")
    return path


def atomic_write(path, text):
    """Write via a temp file in the same directory, then rename."""
    path = Path(path)
    output_dir(path.parent)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def max_threads():
    """The size of the process pool that runs scan walks side by side at
    most (`critical.scan_workers`); `perfbench/worker.py` prints it."""
    return critical.scan_workers()


def load_problem_file(path) -> model.PairingProblem:
    try:
        return model.load_problem(Path(path).read_text())
    except OSError as err:
        raise ProblemFormatError(f"problem file {path}: {err.strerror}")


def _read_json(path, expected):
    """(text, value) of the JSON file `path`, whose value must be an
    `expected` (dict or list); anything else is a ProblemFormatError naming
    the file."""
    try:
        text = Path(path).read_text()
        doc = json.loads(text)
    except (OSError, json.JSONDecodeError) as err:
        raise ProblemFormatError(f"{path}: {err}") from err
    if not isinstance(doc, expected):
        raise ProblemFormatError(f"{path}: expected a JSON "
                                 f"{'object' if expected is dict else 'list'}")
    return text, doc


def _sha1(text):
    # imported here: loading hashlib adds about 3.5 MB of resident memory,
    # and `lattice` and `verify` never hash
    import hashlib
    return hashlib.sha1(text.encode()).hexdigest()


def level_index(problem, j, flag):
    """0-based index of the 1-based level j given by `flag`, in 1..n_levels."""
    if not 1 <= j <= problem.n_levels:
        raise ProblemFormatError(f"{flag} {j}: not in 1..{problem.n_levels}")
    return j - 1


def parse_branch(spec, problem) -> model.OccupationMap:
    """The occupation that `--branch` names: 'ground' or pair counts per
    level, separated by commas or spaces; a bad spec is a usage error
    naming the option."""
    if not spec or spec == "ground":
        return model.ground_occupation(problem)
    try:
        counts = tuple(int(tok) for tok in spec.replace(",", " ").split())
        return model.OccupationMap(counts).validate_for(problem)
    except (CapacityError, ValueError) as err:
        raise ProblemFormatError(f"--branch {spec}: {err}") from None


def branch_tag(occ: model.OccupationMap) -> str:
    return _sha1(",".join(map(str, occ.counts)))[:8]


def print_level_table(problem):
    print("j    eta        omega  nu")
    for j, lv in enumerate(problem.levels, start=1):
        print(f"{j:<4} {_fmt(lv.eta):<10} {lv.omega:<6} {lv.nu}")
    print(f"levels: {problem.n_levels}   pairs: {problem.m_pairs}   "
          f"capacity: {problem.total_pair_capacity}")


# ---------------------------------------------------------------------------
# critical-point record files
# ---------------------------------------------------------------------------

def point_to_record(p: critical.CriticalPoint,
                    branch: model.OccupationMap) -> dict:
    """The JSON record of a point that `critical` found for `branch`."""
    return {
        "level_index": p.k + 1,
        "g_c": p.g_c,
        "m_k": p.m_k,
        "energy": p.energy,
        "e_noncluster": [[z.real, z.imag] for z in p.e_noncluster],
        "chi": list(p.chi),
        "occupation": list(branch.counts),
        "deflated_occupation": list(p.deflated_occupation.counts),
        "noncluster_origin": list(p.noncluster_origin),
    }


def record_to_point(rec: dict) -> critical.CriticalPoint:
    """The point of a record; its branch `"occupation"` is not read.  A
    count or index that is not an integer is a ValueError naming its key."""
    def ints(key):
        return tuple(model.as_int(v, key) for v in rec[key])

    e_nc = np.array([complex(a, b) for a, b in rec["e_noncluster"]],
                    dtype=np.complex128)
    return critical.CriticalPoint(
        g_c=float(rec["g_c"]),
        k=model.as_int(rec["level_index"], "level_index") - 1,
        m_k=model.as_int(rec["m_k"], "m_k"), e_noncluster=e_nc,
        chi=np.array(rec["chi"], dtype=float), energy=float(rec["energy"]),
        deflated_occupation=model.OccupationMap(ints("deflated_occupation")),
        noncluster_origin=ints("noncluster_origin"))


def load_records(rec_file, problem):
    """(text, points) of the record file `rec_file`.  Each record must be a
    point that a scan of `problem` can find: `critical.critical_point` of
    its level, g_c, e_noncluster, deflated occupation and labels, whose
    m_k, energy and chi it carries, finite and to a relative 1e-10;
    anything else is a "bad record" error."""
    rec_text, recs = _read_json(rec_file, list)
    try:
        points = [record_to_point(r) for r in recs]
        for p in points:
            built = critical.critical_point(
                problem, p.k, p.g_c, p.e_noncluster, p.deflated_occupation,
                p.noncluster_origin)
            # the restart reads these, which no residual checks
            for name in ("m_k", "energy", "chi"):
                have, want = (np.asarray(getattr(q, name)) for q in (p, built))
                if not np.isfinite(have).all():
                    raise ValueError(f"{name} must be finite")
                if have.shape != want.shape or not np.allclose(
                        have, want, rtol=1e-10, atol=0.0):
                    raise ValueError(f"{name} is not the one of g_c and "
                                     f"e_noncluster")
    except (KeyError, TypeError, ValueError, RichardsonError) as err:
        raise ProblemFormatError(f"{rec_file}: bad record: {err!r}")
    return rec_text, points


def records_path(problem_path, branch):
    base = Path(problem_path)
    return base.with_name(f"{base.stem}_critical_{branch_tag(branch)}.json")


def coverage_path(problem_path, branch):
    """What `critical` scanned for the default record file; the name must
    not match `<stem>_critical_*.json`."""
    base = Path(problem_path)
    return base.with_name(f"{base.stem}_scanned_{branch_tag(branch)}.json")


def _scan_covers(cov_file, problem, branch, rec_text, g_range):
    """Does the coverage file say that the records in `rec_text` hold
    every critical point a default auto-scan over g_range would find?"""
    doc = _read_json(cov_file, dict)[1]
    try:
        g_lo, g_hi = doc["g_range"]
        wanted = {k + 1 for k in critical.critical_levels(problem, branch)}
        return (doc["problem_sha1"] == _sha1(model.save_problem(problem))
                and doc["records_sha1"] == _sha1(rec_text)
                and doc["occupation"] == list(branch.counts)
                # "mk" was an M_k option once; its records may use an M_k
                # other than 1 - 2 d_k, so they cover nothing
                and doc.get("mk") is None and doc["grid"] is None
                and g_lo <= g_range[0] and g_range[1] <= g_hi
                and wanted <= set(doc["levels"]))
    except (KeyError, TypeError, ValueError) as err:
        raise ProblemFormatError(f"{cov_file}: bad coverage: {err!r}")


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


def cmd_critical(args):
    problem = load_problem_file(args.problem)
    branch = parse_branch(args.branch, problem)
    g_range = (args.g_min, args.g_max)
    if args.level == "all":
        levels = critical.critical_levels(problem, branch)
    else:
        levels = [level_index(problem, args.level, "--level")]
    default_out = records_path(args.problem, branch)
    out = args.out or default_out
    output_dir(Path(out).parent)
    scans = critical.run_plans(problem, [critical.scan_requests(
        problem, k, g_range, branch, grid_points=args.grid) for k in levels])
    points = sorted((p for found in scans for p in found.report()),
                    key=lambda p: p.g_c)
    covered = [k + 1 for k, found in zip(levels, scans) if not found.issues]

    print("j    g_c          M_k  energy")
    for p in points:
        print(f"{p.k + 1:<4} {_fmt(p.g_c, 6):<12} {p.m_k:<4} "
              f"{_fmt(p.energy, 6)}")
    if not points:
        print("(no critical points in range)")
    text = json.dumps([point_to_record(p, branch) for p in points],
                      indent=2) + "\n"
    atomic_write(out, text)
    if Path(out) == default_out:
        atomic_write(coverage_path(args.problem, branch), json.dumps({
            "problem_sha1": _sha1(model.save_problem(problem)),
            "records_sha1": _sha1(text),
            "occupation": list(branch.counts),
            "g_range": sorted(g_range), "grid": args.grid,
            "levels": covered}, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


def _csv(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.12g}" for v in row))
    return "\n".join(lines) + "\n"


def cmd_sweep(args):
    problem = load_problem_file(args.problem)
    branch = parse_branch(args.branch, problem)
    cluster_level = None if args.cluster_level is None else level_index(
        problem, args.cluster_level, "--cluster-level")
    if cluster_level is not None:   # M_k must be an integer for the S_p table
        default_cluster_size(problem.levels[cluster_level])
    opts = continuation.SweepOptions(step_init=args.step,
                                     crossing_radius=args.crossing_radius)
    points = None
    rec_file = records_path(args.problem, branch)
    if rec_file.exists():
        rec_text, points = load_records(rec_file, problem)
        print(f"loaded {len(points)} critical point(s) from {rec_file}")
        cov_file = coverage_path(args.problem, branch)
        # the records already hold what the auto-scan would find
        if cov_file.exists() and _scan_covers(
                cov_file, problem, branch, rec_text,
                continuation.auto_scan_range(args.g_target,
                                             opts.crossing_radius)):
            opts.auto_scan = False
    prefix = output_dir(args.out or ".")
    path = continuation.sweep(problem, branch, args.g_target, options=opts,
                              critical_points=points)

    label = problem.label or Path(args.problem).stem
    sign = "pos" if args.g_target > 0 else "neg"
    name = f"{label}_{branch_tag(branch)}_{sign}"

    fig = continuation.sample_figure_data(path, problem,
                                          cluster_level=cluster_level)
    rows = fig.rows[::args.stride]
    atomic_write(prefix / f"{name}.csv", _csv(fig.header, rows))
    print(f"wrote {prefix / (name + '.csv')} ({len(rows)} samples)")
    if fig.s_rows is not None:
        atomic_write(prefix / f"{name}_spower.csv",
                     _csv(fig.s_header, fig.s_rows))
        print(f"wrote {prefix / (name + '_spower.csv')}")
    print(f"status: {path.status}   crossings: "
          + (", ".join(f"j={p.k + 1} g_c={_fmt(p.g_c)}"
                       for p in path.crossings) or "none"))
    if path.registered:
        print("note: registered " + ", ".join(
            f"(k={p.k}, g_c={p.g_c:.6g})" for p in path.registered))
    for diag in path.diagnostics:
        print("note:", diag)
    if path.status != "completed":
        return EXIT_TRUNCATED
    return 0


def _sign_grids(grid):
    """The nonzero points of the grid, one list per sign of g, in the order
    the grid meets the signs."""
    return [[g for g in grid if g * sign > 0]
            for sign in dict.fromkeys(np.sign(grid[grid != 0.0]))]


def _verify_branch(problem, occ, grid, scans):
    """{g: energy} of the branch at each grid point, None where its sweep
    was skipped or truncated: the unperturbed energy at g = 0, else the end
    of a sweep to g.  Each sign of g is scanned once, to its farthest grid
    point g_far, and every sweep of that sign walks from those points, the
    merged auto-scan `scans[occ, g_far]` in order of |g_c|."""
    unperturbed = sum(2.0 * lv.eta * c
                      for lv, c in zip(problem.levels, occ.counts))
    out = {g: unperturbed if g == 0.0 else None for g in grid}
    opts = continuation.SweepOptions(auto_scan=False)
    for gs in _sign_grids(grid):
        try:
            points = sorted(scans[occ, max(gs, key=abs)].report(),
                            key=lambda p: abs(p.g_c))
        except RichardsonError as err:
            for g in gs:
                print(f"branch {occ.counts} at g={_fmt(g)}: skipped ({err})")
            continue
        for g in gs:
            try:
                path = continuation.sweep(problem, occ, g, opts,
                                          critical_points=points)
            except RichardsonError as err:
                print(f"branch {occ.counts} at g={_fmt(g)}: skipped ({err})")
                continue
            if path.status != "completed":
                print(f"branch {occ.counts} at g={_fmt(g)}: truncated")
                continue
            out[g] = path.samples[-1].energy
    return out


def _shared_eigenvalues(spectrum, nearest):
    """Groups of eigenvalues (neighbours within 1e-9 of each other) that
    more of the given branches land nearest to than the group has
    members: [(branches, lowest eigenvalue of the group)]."""
    group = np.concatenate(([0], np.cumsum(np.diff(spectrum) > 1e-9)))
    size = np.bincount(group)
    landed = {}
    for occ, idx in nearest.items():
        landed.setdefault(group[idx], []).append(occ)
    return [(occs, spectrum[group == gid][0])
            for gid, occs in landed.items() if len(occs) > size[gid]]


def cmd_verify(args):
    problem = load_problem_file(args.problem)
    grid = np.linspace(args.g_min, args.g_max, args.points)
    branches = [model.ground_occupation(problem)]
    branches += [occ for occ in model.excited_occupations(
        problem, args.excitations) if occ != branches[0]]
    dim = oracle.checked_dimension(problem)   # guards before any sweep
    print(f"oracle dimension: {dim}; checking {len(branches)} branch(es) "
          f"on {len(grid)} couplings")
    # the auto-scan of each branch to each sign's farthest point, all of
    # them run side by side before any sweep; a walk that branches share
    # is walked once and warned by the first branch that reads it
    radius = continuation.SweepOptions().crossing_radius
    plans = {(occ, far): continuation.auto_scan_requests(problem, occ, far,
                                                         radius)
             for occ in branches
             for far in (max(gs, key=abs) for gs in _sign_grids(grid))}
    scans = dict(zip(plans, critical.run_plans(problem, [*plans.values()])))
    energies = {occ: _verify_branch(problem, occ, grid, scans)
                for occ in branches}
    worst = 0.0
    checked = 0
    failed = False
    for g in dict.fromkeys(grid):
        landed = {occ: e[g] for occ, e in energies.items() if e[g] is not None}
        if not landed:
            continue
        # the ground branch alone needs only the lowest eigenvalue
        if landed.keys() == {branches[0]}:
            spectrum = np.array([oracle.ground_energy(problem, g)])
        else:
            spectrum = oracle.exact_spectrum(problem, g)
        nearest = {}
        for occ, energy in landed.items():
            nearest[occ] = int(np.argmin(np.abs(spectrum - energy)))
            dev = float(abs(spectrum[nearest[occ]] - energy))
            if dev > VERIFY_TOL:
                print(f"branch {occ.counts} at g={_fmt(g)}: deviation "
                      f"{_fmt(dev, 3)} exceeds {_fmt(VERIFY_TOL, 3)}")
                failed = True
            worst = max(worst, dev)
        for occs, value in _shared_eigenvalues(spectrum, nearest):
            print(f"at g={_fmt(g)}: branches "
                  + ", ".join(str(occ.counts) for occ in occs)
                  + f" land nearest the same eigenvalue {_fmt(value)}")
            failed = True
        checked += len(landed) * int(np.count_nonzero(grid == g))
    print(f"samples checked: {checked}")
    print(f"max deviation from exact spectrum: {_fmt(worst, 3)}")
    if len(branches) < dim:
        print(f"note: {len(branches)} of {dim} oracle states covered; "
              f"raise --excitations for more")
    # a skipped or truncated sample is not a checked one
    if failed or checked < len(branches) * len(grid):
        return EXIT_TRUNCATED
    return 0


def _number(cast, accept, what):
    """argparse type: the text read by `cast`, refused as "must be <what>"
    unless `accept` holds for it."""
    def convert(text):
        try:
            val = cast(text)
            if accept(val):
                return val
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
    return convert


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag or config value as one ProblemFormatError line
    instead of a usage block and SystemExit, and reads a negative number
    in any float notation as a value, not as a flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern (Python 3.11) has no exponent, so it reads
        # the -1e-3 of `--g-target -1e-3` as an unknown flag
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise ProblemFormatError(message)


def build_parser():
    ap = _Parser(
        prog="richardson",
        description="Richardson pairing equations: critical couplings, "
                    "exact solutions at g_c, continuation through them")
    # listed for --help; `_config_flags` takes it off argv before parsing
    ap.add_argument("--config",
                    help="JSON file of option values for the subcommand, "
                         "read as flags before the command line's own")
    sub = ap.add_subparsers(dest="command", required=True)
    count = _number(int, lambda n: n >= 1, "an integer >= 1")
    length = _number(float, lambda x: x > 0, "a number > 0")
    radius = _number(float, lambda x: 0 < x < math.inf, "a finite number > 0")
    coupling = _number(float, math.isfinite, "a finite number")

    p = sub.add_parser("lattice", help="generate the square-lattice model")
    p.add_argument("--n", type=int, required=True, help="lattice size n")
    p.add_argument("--pairs", type=count, required=True,
                   help="pair count M")
    p.add_argument("--out", help="problem file to write")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("critical", help="locate critical couplings")
    p.add_argument("--problem", required=True)
    p.add_argument("--level", default="all", type=_number(
                       lambda t: t if t == "all" else int(t),
                       lambda v: True, "'all' or an integer"),
                   help="1-based level j, or 'all' for the occupied levels "
                        "that can collapse")
    p.add_argument("--g-min", type=coupling, required=True)
    p.add_argument("--g-max", type=coupling, required=True)
    p.add_argument("--branch", default="ground",
                   help="'ground' or comma-separated occupation counts")
    p.add_argument("--grid", type=count, default=None,
                   help="scan grid points")
    p.add_argument("--out", help="critical-point record file")
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("sweep", help="continue a branch from g=0 to a target")
    p.add_argument("--problem", required=True)
    p.add_argument("--g-target", required=True, type=_number(
                       float, lambda x: math.isfinite(x) and x != 0.0,
                       "a finite nonzero number"))
    p.add_argument("--branch", default="ground")
    p.add_argument("--out", help="output directory (default .)")
    p.add_argument("--cluster-level", type=int, default=None,
                   help="1-based level for the S_p table")
    p.add_argument("--step", type=length,
                   default=continuation.SweepOptions.step_init)
    p.add_argument("--crossing-radius", type=radius,
                   default=continuation.SweepOptions.crossing_radius)
    p.add_argument("--stride", type=count, default=1,
                   help="keep every n-th sample in the CSV")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify",
                       help="compare swept energies with exact diagonalization")
    p.add_argument("--problem", required=True)
    p.add_argument("--g-min", type=coupling, default=-0.2)
    p.add_argument("--g-max", type=coupling, default=0.2)
    p.add_argument("--points", type=count, default=11)
    p.add_argument("--excitations", default=1, type=_number(
                       int, lambda n: n >= 0, "an integer >= 0"),
                   help="check the branches of up to this many pair "
                        "excitations of the ground state")
    p.set_defaults(func=cmd_verify)
    return ap


def _config_flags(argv):
    """argv with `--config FILE` taken off and the file's entries put right
    after the subcommand as `--key=value` flags, so that argparse reads
    them like flags and the command line's own flags, which follow, win.
    A non-string value is written as JSON; a null one is left out."""
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    pre.add_argument("rest", nargs=argparse.REMAINDER)
    known, before = pre.parse_known_args(argv)
    if known.config is None:
        return argv
    flags = [f"--{key}={val if isinstance(val, str) else json.dumps(val)}"
             for key, val in _read_json(known.config, dict)[1].items()
             if val is not None]
    return before + known.rest[:1] + flags + known.rest[1:]


def _warning_line(message, category, filename, lineno, line=None):
    return f"warning: {message}\n"


def main(argv=None):
    ap = build_parser()
    formatwarning = warnings.formatwarning
    warnings.formatwarning = _warning_line
    try:
        args = ap.parse_args(_config_flags(argv))
        return args.func(args)
    except OracleDimensionError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_GUARD
    except (CapacityError, ProblemFormatError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except RichardsonError as err:      # a branch that could not be continued
        print(f"error: {err}", file=sys.stderr)
        return EXIT_TRUNCATED
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
