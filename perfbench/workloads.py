"""The benchmark's workloads: inputs made from a seed, one pass of jobs, and
the check of every job's output against the committed reference.

A pass runs its jobs one after another (a closed loop with one client).
``run_pass`` does only the program's work and is what the benchmark times;
``check`` reads the outputs afterwards.  Each job's check returns None when
the output matches the reference, or a one-line reason when it does not.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import re
import time
from dataclasses import dataclass

# g_c and energies must match the reference to this, relative to
# max(1, |reference|); sweep CSVs carry 12 significant digits.
REL_TOL = 1e-10
# largest allowed deviation of `verify` from the exact spectrum
ORACLE_TOL = 1e-8
# largest allowed residual of a swept solution
RESIDUAL_TOL = 1e-10


def close(value, ref, tol=REL_TOL):
    return abs(value - ref) <= tol * max(1.0, abs(ref))


@dataclass
class Outcome:
    """What one job left behind: exit code, captured output, or the error,
    and the job's wall time."""

    name: str
    rc: int | None = None
    stdout: str = ""
    stderr: str = ""
    value: object = None
    error: str | None = None
    seconds: float = 0.0


def run_cli(cli, name, argv) -> Outcome:
    """One in-process CLI command with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    oc = Outcome(name)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            oc.rc = cli.main(argv)
    except Exception as exc:     # a raising job is a failed job, not a crash
        oc.error = f"{type(exc).__name__}: {exc}"
    oc.seconds = time.perf_counter() - t0
    oc.stdout, oc.stderr = out.getvalue(), err.getvalue()
    return oc


def parse_status(stdout):
    """(status, [(level j, g_c), ...]) from a `sweep` command's output."""
    for line in stdout.splitlines():
        if line.startswith("status: "):
            status = line.split()[1]
            found = re.findall(r"j=(\d+) g_c=(\S+?)(?:,|$)", line)
            return status, [(int(j), float(g)) for j, g in found]
    return None, []


def last_csv_row(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {k: float(v) for k, v in rows[-1].items()} if rows else None


def pair_residual(values, g, problem):
    """Richardson residual max norm, computed here rather than by the package."""
    worst = 0.0
    for a, ea in enumerate(values):
        lvl = sum((lv.nu / 2.0 - lv.omega / 4.0) / (2.0 * lv.eta - ea)
                  for lv in problem.levels)
        pair = sum(1.0 / (ea - eb) for b, eb in enumerate(values) if b != a)
        worst = max(worst, abs(1.0 - 4.0 * g * lvl + 4.0 * g * pair))
    return worst


# ---------------------------------------------------------------------------
# cli-lat6: the README walkthrough
# ---------------------------------------------------------------------------

class CliLat6:
    """critical --level all, then the two acceptance sweeps, through cli.main.

    The inputs are the fixed README walkthrough; the seed changes nothing.
    The record file written by `critical` is what both sweeps load.
    """

    name = "cli-lat6"
    SWEEPS = (("sweep-neg", -0.15, []),
              ("sweep-pos", 0.65, ["--cluster-level", "2"]))

    def __init__(self, rs, reference, seed):
        self.cli = rs.cli
        self.problem_text = rs.model.save_problem(
            rs.model.build_lattice_model(6, 18))
        self.ref = reference["cli-lat6"] if reference else None

    def run_pass(self, work):
        problem = work / "lat6.json"
        problem.write_text(self.problem_text)
        runs = str(work / "runs")
        out = [run_cli(self.cli, "critical", [
            "critical", "--problem", str(problem), "--level", "all",
            "--g-min", "-0.2", "--g-max", "0.7"])]
        for name, target, extra in self.SWEEPS:
            out.append(run_cli(self.cli, name, [
                "sweep", "--problem", str(problem), "--g-target",
                repr(target), "--out", runs] + extra))
        return out

    @staticmethod
    def observe(work, outcomes):
        """The pass's results in the reference's layout."""
        files = sorted(work.glob("lat6_critical_*.json"))
        seen = {"records": json.loads(files[0].read_text())
                if len(files) == 1 else None, "sweeps": {}}
        for (name, target, _), oc in zip(CliLat6.SWEEPS, outcomes[1:]):
            status, crossings = parse_status(oc.stdout)
            sign = name.rsplit("-", 1)[1]
            csvs = sorted((work / "runs").glob(f"*_{sign}.csv"))
            row = last_csv_row(csvs[0]) if len(csvs) == 1 else None
            seen["sweeps"][name] = {
                "target": target, "status": status, "crossings": crossings,
                "end_g": row["g"] if row else None,
                "energy": row["E"] if row else None,
                "spower_files": len(list(
                    (work / "runs").glob(f"*_{sign}_spower.csv")))}
        return seen

    def check(self, work, outcomes):
        seen = self.observe(work, outcomes)
        reasons = []
        reasons.append(self._check_records(outcomes[0], seen["records"]))
        for oc in outcomes[1:]:
            reasons.append(self._check_sweep(oc, seen["sweeps"][oc.name],
                                             self.ref["sweeps"][oc.name]))
        return reasons

    def _check_records(self, oc, records):
        if oc.error or oc.rc != 0:
            return f"critical: rc={oc.rc} {oc.error or ''}".strip()
        ref = self.ref["records"]
        if records is None or len(records) != len(ref):
            return (f"critical: {len(records) if records else 0} records, "
                    f"expected {len(ref)}")
        for got, want in zip(records, ref):
            if got["level_index"] != want["level_index"] \
                    or not close(got["g_c"], want["g_c"]) \
                    or not close(got["energy"], want["energy"]):
                return (f"critical: record j={got['level_index']} "
                        f"g_c={got['g_c']!r} E={got['energy']!r} differs "
                        f"from j={want['level_index']} g_c={want['g_c']!r} "
                        f"E={want['energy']!r}")
        return None

    @staticmethod
    def _check_sweep(oc, seen, want):
        if oc.error or oc.rc != 0:
            return f"{oc.name}: rc={oc.rc} {oc.error or ''}".strip()
        if seen["status"] != "completed":
            return f"{oc.name}: status {seen['status']}"
        if seen["energy"] is None or not close(seen["end_g"], want["target"]) \
                or not close(seen["energy"], want["energy"]):
            return (f"{oc.name}: ends at g={seen['end_g']} E={seen['energy']}"
                    f", expected E={want['energy']!r}")
        got = seen["crossings"]
        # the CLI prints g_c with 6 significant digits
        if len(got) != len(want["crossings"]) or any(
                j != wj or not close(g, wg, 1e-5)
                for (j, g), (wj, wg) in zip(got, want["crossings"])):
            return f"{oc.name}: crossings {got}, expected {want['crossings']}"
        if seen["spower_files"] != want["spower_files"]:
            return f"{oc.name}: {seen['spower_files']} S_p tables"
        return None


# ---------------------------------------------------------------------------
# crossings-lat6: the walk and the restarts, no scan
# ---------------------------------------------------------------------------

class CrossingsLat6:
    """Ground-branch sweeps from the reference records, auto-scan off.

    Targets are drawn from the seed, a fixed number between each pair of
    consecutive ground-branch crossings, so every seed asks for the same
    mix of restarts.  No target lies within 2 crossing radii of a crossing,
    so the expected crossing count is unambiguous.
    """

    name = "crossings-lat6"
    RANGES = ((-0.15, -0.005), (0.005, 0.65))
    PER_SIDE = 16
    MARGIN = 0.01

    def __init__(self, rs, reference, seed):
        self.sweep_mod = rs.continuation
        self.problem = rs.model.build_lattice_model(6, 18)
        self.ground = rs.model.ground_occupation(self.problem)
        self.options = rs.continuation.SweepOptions(auto_scan=False)
        ref = reference["cli-lat6"]
        self.points = [rs.cli.record_to_point(r) for r in ref["records"]]
        self.ground_gc = sorted(
            ((j, g) for s in ref["sweeps"].values() for j, g in s["crossings"]),
            key=lambda jg: jg[1])
        self.targets = self._draw(random.Random(seed))

    def _draw(self, rng):
        targets = []
        for lo, hi in self.RANGES:
            cuts = [g for _, g in self.ground_gc if lo < g < hi]
            edges = [lo] + cuts + [hi]
            segments = []
            for a, b in zip(edges, edges[1:]):
                a2 = a + self.MARGIN if a in cuts else a
                b2 = b - self.MARGIN if b in cuts else b
                if b2 > a2:
                    segments.append((a2, b2))
            for i in range(self.PER_SIDE):
                a, b = segments[i % len(segments)]
                targets.append(rng.uniform(a, b))
        return targets

    def expected_crossings(self, target):
        """Ground-branch crossings between 0 and target, in walk order."""
        return sorted(((j, g) for j, g in self.ground_gc
                       if g * target > 0 and abs(g) < abs(target)),
                      key=lambda jg: abs(jg[1]))

    def run_pass(self, work):
        out = []
        for i, target in enumerate(self.targets):
            oc = Outcome(f"target {i} g={target:.6f}")
            t0 = time.perf_counter()
            try:
                oc.value = self.sweep_mod.sweep(
                    self.problem, self.ground, target, self.options,
                    critical_points=self.points)
            except Exception as exc:
                oc.error = f"{type(exc).__name__}: {exc}"
            oc.seconds = time.perf_counter() - t0
            out.append(oc)
        return out

    def check(self, work, outcomes):
        return [self._check_one(t, oc)
                for t, oc in zip(self.targets, outcomes)]

    def _check_one(self, target, oc):
        if oc.error:
            return f"{oc.name}: {oc.error}"
        path = oc.value
        if path.status != "completed":
            return f"{oc.name}: status {path.status}"
        last = path.samples[-1]
        if not close(last.g, target):
            return f"{oc.name}: ends at g={last.g}"
        worst = max(s.residual_norm for s in path.samples)
        if worst > RESIDUAL_TOL:
            return f"{oc.name}: sample residual {worst:.2e}"
        own = pair_residual(last.energies.values, last.g, self.problem)
        if own > RESIDUAL_TOL:
            return f"{oc.name}: end residual {own:.2e}"
        want = self.expected_crossings(target)
        got = [(p.k + 1, p.g_c) for p in path.crossings]
        if len(got) != len(want) or any(
                j != wj or not close(g, wg) for (j, g), (wj, wg)
                in zip(got, want)):
            return f"{oc.name}: crossings {got}, expected {want}"
        return None


# ---------------------------------------------------------------------------
# verify-oracle: exact diagonalization against the swept energies
# ---------------------------------------------------------------------------

class VerifyOracle:
    """`verify` on three lattices: 4x4 M=4, 6x6 M=6, and 6x6 M=18, which
    must hit the oracle's dimension guard.

    The inputs are fixed; the seed changes nothing.  Every problem is
    verified over the symmetric coupling range (-G_MAX, G_MAX), so the
    middle grid point is exactly g = 0, where `verify` uses the unperturbed
    energy as it does with its default range.  The work of the 4x4 scans
    depends strongly on the range: at the CLI default G_MAX = 0.2 they
    evaluate the residual 33 438 times, at 0.197, 0.198, 0.199 and 0.203
    124 000 to 156 000 times, with the same number of Newton solves.
    G_MAX = 0.198 is one of the common, Newton-heavy ranges.  A range drawn
    from the seed would make the seed, not the program, set the pass time.
    """

    name = "verify-oracle"
    PROBLEMS = (("lat4", 4, 4, ["--points", "5"]),
                ("lat6m6", 6, 6, ["--points", "3", "--excitations", "0"]),
                ("lat6", 6, 18, []))
    G_MAX = 0.198

    def __init__(self, rs, reference, seed):
        self.cli = rs.cli
        self.inputs = []
        for label, n, pairs, extra in self.PROBLEMS:
            text = rs.model.save_problem(rs.model.build_lattice_model(n, pairs))
            self.inputs.append((label, text, extra + [
                "--g-min", repr(-self.G_MAX), "--g-max", repr(self.G_MAX)]))
        self.ref = reference["verify-oracle"] if reference else None

    def run_pass(self, work):
        out = []
        for label, text, extra in self.inputs:
            problem = work / f"{label}.json"
            problem.write_text(text)
            out.append(run_cli(self.cli, label,
                               ["verify", "--problem", str(problem)] + extra))
        return out

    @staticmethod
    def observe(work, outcomes):
        seen = []
        for oc in outcomes:
            samples = re.search(r"^samples checked: (\d+)$", oc.stdout, re.M)
            dev = re.search(r"^max deviation from exact spectrum: (\S+)$",
                            oc.stdout, re.M)
            seen.append({"rc": oc.rc,
                         "samples": int(samples[1]) if samples else None,
                         "deviation": float(dev[1]) if dev else None})
        return seen

    def check(self, work, outcomes):
        reasons = []
        for oc, seen, want in zip(outcomes, self.observe(work, outcomes),
                                  self.ref):
            if oc.error or oc.rc != want["rc"]:
                reasons.append(f"{oc.name}: rc={oc.rc}, expected "
                               f"{want['rc']} {oc.error or ''}".strip())
            elif seen["samples"] != want["samples"]:
                reasons.append(f"{oc.name}: {seen['samples']} samples checked"
                               f", expected {want['samples']}")
            elif want["rc"] == 0 and (seen["deviation"] is None
                                      or seen["deviation"] > ORACLE_TOL):
                reasons.append(f"{oc.name}: deviation {seen['deviation']}")
            else:
                reasons.append(None)
        return reasons


WORKLOADS = {w.name: w for w in (CliLat6, CrossingsLat6, VerifyOracle)}
