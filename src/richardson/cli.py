"""Command-line frontend: lattice, critical, sweep, verify.

Commands compose through files: `lattice` writes a problem file, `critical`
writes critical-point records next to it, and `sweep` loads those records.
Beside the default record file `critical` writes a coverage file,
`<stem>_scanned_<tag>.json`: the sha1 of the problem and of the record
file's text, the branch occupation, the scanned g range, the `--mk` and
`--grid` overrides (null when not given) and the 1-based levels whose scan
raised no TruncatedScanWarning.  `sweep` walks from the loaded records
alone when that file matches both hashes, has no overrides, covers the
auto-scan range (0, g_target +- 2 r_c), r_c the crossing radius, and lists
every level that can collapse (`critical.critical_levels`).  Otherwise it
re-scans those levels over that range and drops a rescanned point within
1e-9 of a loaded one of its level.
Human-readable tables go to stdout with 6 significant
digits; CSV and JSON files carry 12 digits so they can seed further runs.
Level indices in tables and flags are 1-based to match the j labels
physicists expect; the Python API is 0-based.  Warnings print as one
`warning: <message>` line each.
"""

from __future__ import annotations

import argparse
import json
import os
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
    """1: `critical` scans its levels in order on the calling thread.  Read
    only by `perfbench/worker.py`; ROADMAP direction 1 deletes both."""
    return 1


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
    if not spec or spec == "ground":
        return model.ground_occupation(problem)
    counts = tuple(int(tok) for tok in spec.replace(",", " ").split())
    return model.OccupationMap(counts).validate_for(problem)


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


def coverage_path(problem_path, branch):
    """What `critical` scanned for the default record file; the name must
    not match `<stem>_critical_*.json`."""
    base = Path(problem_path)
    return base.with_name(f"{base.stem}_scanned_{branch_tag(branch)}.json")


def _scan_level(problem, k, g_range, branch, args):
    """(points, warned): `critical.scan_critical` of level k, and whether
    it raised a TruncatedScanWarning.  Each warning it raised is issued
    again afterwards, from the module it named, so the caller's filters
    still see it once."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", critical.TruncatedScanWarning)
            points = critical.scan_critical(problem, k, g_range, branch,
                                            m_k=args.mk,
                                            grid_points=args.grid)
    finally:
        modules = {getattr(m, "__file__", None): name
                   for name, m in list(sys.modules.items())}
        for w in caught:
            # warn_explicit drops a warning whose module is None; with no
            # module of that file, name it as warn_explicit would
            module = modules.get(w.filename, w.filename.removesuffix(".py"))
            warnings.warn_explicit(w.message, w.category, w.filename,
                                   w.lineno, module, source=w.source)
    return points, any(issubclass(w.category, critical.TruncatedScanWarning)
                       for w in caught)


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
                and doc["mk"] is None and doc["grid"] is None
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
        levels = critical.critical_levels(problem, branch, args.mk)
    else:
        levels = [level_index(problem, args.level, "--level")]
    default_out = records_path(args.problem, branch)
    out = args.out or default_out
    output_dir(Path(out).parent)
    points, covered = [], []
    for k in levels:
        found, warned = _scan_level(problem, k, g_range, branch, args)
        points += found
        if not warned:
            covered.append(k + 1)
    points.sort(key=lambda p: p.g_c)

    print("j    g_c          M_k  energy")
    for p in points:
        print(f"{p.k + 1:<4} {_fmt(p.g_c, 6):<12} {p.m_k:<4} "
              f"{_fmt(p.energy, 6)}")
    if not points:
        print("(no critical points in range)")
    text = json.dumps([point_to_record(p) for p in points], indent=2) + "\n"
    atomic_write(out, text)
    if Path(out) == default_out:
        atomic_write(coverage_path(args.problem, branch), json.dumps({
            "problem_sha1": _sha1(model.save_problem(problem)),
            "records_sha1": _sha1(text),
            "occupation": list(branch.counts),
            "g_range": sorted(g_range), "mk": args.mk, "grid": args.grid,
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
    if args.g_target == 0.0:
        print("error: --g-target must be nonzero", file=sys.stderr)
        return EXIT_USAGE
    cluster_level = None if args.cluster_level is None else level_index(
        problem, args.cluster_level, "--cluster-level")
    if cluster_level is not None:   # M_k must be an integer for the S_p table
        default_cluster_size(problem.levels[cluster_level])
    opts = continuation.SweepOptions()
    if args.step is not None:
        opts.step_init = args.step
    if args.crossing_radius is not None:
        opts.crossing_radius = args.crossing_radius
    points = None
    rec_file = records_path(args.problem, branch)
    if rec_file.exists():
        rec_text, recs = _read_json(rec_file, list)
        try:
            points = [record_to_point(r) for r in recs]
        except (KeyError, TypeError, ValueError) as err:
            raise ProblemFormatError(f"{rec_file}: bad record: {err!r}")
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


def cmd_verify(args):
    problem = load_problem_file(args.problem)
    grid = np.linspace(args.g_min, args.g_max, args.points)
    spectrum_cache = {}
    branches = [model.ground_occupation(problem)]
    branches += [occ for occ in model.excited_occupations(
        problem, args.excitations) if occ != branches[0]]
    dim = oracle.checked_dimension(problem)   # guards before any sweep
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
                except RichardsonError as err:
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
    # a skipped or truncated sample is not a checked one
    return EXIT_TRUNCATED if checked < len(branches) * len(grid) else 0


def _level(text):
    """argparse type for `critical --level`: 'all' or a 1-based index."""
    if text == "all":
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be 'all' or an integer, got {text!r}") from None


def _positive(kind):
    """argparse type for a count (int, >= 1) or a length (float, > 0)."""
    want = "an integer >= 1" if kind is int else "a number > 0"

    def convert(text):
        try:
            val = kind(text)
        except ValueError:
            val = 0
        if not val > 0:
            raise argparse.ArgumentTypeError(f"must be {want}, got {text!r}")
        return val
    return convert


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag or config value as one ProblemFormatError line
    instead of a usage block and SystemExit."""

    def error(self, message):
        raise ProblemFormatError(message)


def build_parser():
    ap = _Parser(
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
    p.add_argument("--level", type=_level, default="all",
                   help="1-based level j, or 'all' for the occupied levels "
                        "that can collapse")
    p.add_argument("--g-min", type=float, required=True)
    p.add_argument("--g-max", type=float, required=True)
    p.add_argument("--branch", default="ground",
                   help="'ground' or comma-separated occupation counts")
    p.add_argument("--mk", type=_positive(int), default=None,
                   help="override the cluster size M_k")
    p.add_argument("--grid", type=_positive(int), default=None,
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
    p.add_argument("--step", type=_positive(float), default=None)
    p.add_argument("--crossing-radius", type=_positive(float), default=None)
    p.add_argument("--stride", type=_positive(int), default=1,
                   help="keep every n-th sample in the CSV")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify",
                       help="compare swept energies with exact diagonalization")
    p.add_argument("--problem", required=True)
    p.add_argument("--g-min", type=float, default=-0.2)
    p.add_argument("--g-max", type=float, default=0.2)
    p.add_argument("--points", type=_positive(int), default=11)
    p.add_argument("--excitations", type=int, default=1)
    p.set_defaults(func=cmd_verify)
    return ap


def _warning_line(message, category, filename, lineno, line=None):
    return f"warning: {message}\n"


def main(argv=None):
    ap = build_parser()
    formatwarning = warnings.formatwarning
    warnings.formatwarning = _warning_line
    try:
        args = ap.parse_args(argv)
        if args.config:
            # config values become the subcommand's string defaults, which
            # argparse converts and checks like flags; flags win, and a
            # null keeps the option's own default
            sub = next(a for a in ap._actions
                       if isinstance(a, argparse._SubParsersAction))
            parser = sub.choices[args.command]
            options = {a.dest for a in parser._actions
                       if a.option_strings and a.dest != "help"}
            config = {key.replace("-", "_"): val for key, val
                      in _read_json(args.config, dict)[1].items()}
            unknown = sorted(set(config) - options)
            if unknown:
                raise ProblemFormatError(
                    f"{args.config}: not an option of '{args.command}': "
                    f"{', '.join(unknown)}")
            parser.set_defaults(**{
                key: val if isinstance(val, str) else json.dumps(val)
                for key, val in config.items() if val is not None})
            args = ap.parse_args(argv)
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
