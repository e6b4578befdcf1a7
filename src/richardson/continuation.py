"""End-to-end continuation: sweep g from zero through the critical regions.

The sweep steps the full Richardson solution in g with a `solver.Walker`
(secant predictor, step halved while Newton fails) and sizes each step by
the Newton iterations of the last one.  Critical couplings are located
ahead of time per level (precompute-then-jump) and the walk then goes leg
by leg: up to the window edge |g - g_c| = r_c of each registered point in
order of |g_c|, and on to the target after the last.  At an edge where the
physical state corroborates a forming cluster at that level, the solution
is restarted on the far side from the expansion at g_c (`linear_guess`)
and the next leg starts there; otherwise the point is passed.  Restart
robustness comes from walking outward, with the same walker, from a
fraction of the jump (the guess becomes exact as delta g -> 0), with an
energy-trend check that rejects convergence onto a neighboring eigenstate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels as kern
from .cluster import default_cluster_size, detect_cluster, power_sums
from .critical import (CriticalPoint, ScanRequest, critical_levels,
                       run_scans, scan_requests)
from .errors import ConsistencyError, ContinuationError
from .model import PairingProblem, as_occupation
from .solver import (PairEnergies, Walker, newton_core, restart_step_cap,
                     weak_coupling_g)
from .tangent import TangentData, linear_guess, solve_tangent

# sweep step control: bounds, and the Newton iteration counts above which
# the step halves and below which it doubles
STEP_MIN = 1e-6
STEP_MAX = 2e-2
HALVE_ABOVE_ITERS = 12
DOUBLE_BELOW_ITERS = 4
# an energy change beyond this multiple of the local trend aborts the sweep
ENERGY_JUMP_FACTOR = 10.0


@dataclass
class SweepOptions:
    """First step, crossing window and auto-scan switch for sweep()."""

    step_init: float = 1e-3
    crossing_radius: float = 5e-3
    auto_scan: bool = True


@dataclass(frozen=True)
class SweepSample:
    g: float
    energies: PairEnergies
    energy: float
    residual_norm: float


@dataclass
class SweepPath:
    samples: list[SweepSample]
    crossings: list[CriticalPoint]
    status: str                 # "completed" or "truncated"
    diagnostics: list[str] = field(default_factory=list)
    registered: list[CriticalPoint] = field(default_factory=list)


# ---------------------------------------------------------------------------
# collapse detection
# ---------------------------------------------------------------------------

def collapse_candidates(values, problem: PairingProblem):
    """Levels whose neighborhood holds more energies than the level can.

    A level with counts above its pair capacity signals a forming cluster
    (the collapse always involves one energy more than the Pauli limit).
    """
    out = []
    for k, lv in enumerate(problem.levels):
        n = len(detect_cluster(values, problem, k))
        if n > lv.pair_capacity:
            out.append((k, n))
    return out


# ---------------------------------------------------------------------------
# restart machinery
# ---------------------------------------------------------------------------

def _energy_slope(tangent: TangentData) -> float:
    """dE/dg at g_c: the cluster contributes M_k 2eta_k - S_1, so its
    energy slope is -dS_1/dg; the rest moves with de_b/dg."""
    return -tangent.ds1_dg + float(np.sum(tangent.de_dg.real))


def expected_restart_energy(tangent: TangentData, delta_g: float) -> float:
    """Linear prediction of the total energy at g_c + delta_g."""
    return tangent.point.energy + _energy_slope(tangent) * delta_g


def restart_solve(tangent: TangentData, problem: PairingProblem,
                  delta_g: float) -> PairEnergies:
    """Converged solution at g_c + delta_g seeded from `linear_guess`.

    Tries the guess directly, with the restart step cap.  If that solve
    does not land on the branch, walks outward from delta_g / 8 (then
    delta_g / 32, ...), where the guess is asymptotically exact, tripling
    the distance from g_c at every step and never halving one.  Every
    solve must pass the same on-branch test: converged, with its energy
    within max(1e-3, slope |delta| / 4) of the tangent prediction (nearby
    eigenstates are dense around a collapse, so convergence alone does not
    identify the branch).

    An uncapped retry of the direct solve landed none of the 74 restarts
    of the test suite nor any restart of the benchmark's workloads:

    | where | direct | walk-out at delta/8 | at delta/32 | uncapped |
    | --- | --- | --- | --- | --- |
    | tests (74 restarts) | 67 | 6 | 1 | 0 |
    | cli-lat6, per pass | 4 | 3 | 0 | 0 |
    | verify-oracle, per pass | 2 | 0 | 0 | 0 |
    """
    if delta_g == 0.0:
        raise ContinuationError(
            "cannot converge the full equations exactly at a critical "
            "point; restart at a nonzero delta_g")
    point = tangent.point
    g0 = point.g_c + delta_g
    eta2 = problem.eta2_array()
    d = problem.d_array()
    slope = abs(_energy_slope(tangent))
    cap = restart_step_cap(problem)

    # (fraction of delta_g solved first, Newton iteration budget): the
    # direct attempt, then walk-outs whose guess error vanishes as the
    # fraction shrinks
    for div, max_iter in ((1.0, 40), (8.0, 60), (32.0, 60), (128.0, 60),
                          (512.0, 60)):
        frac = delta_g / div
        guess = linear_guess(tangent, frac)
        vals, ok, _, rn = newton_core(guess.values, point.g_c + frac, eta2,
                                      d, max_iter=max_iter, step_cap=cap)
        e_exp = expected_restart_energy(tangent, frac)
        if ok and abs(float(np.sum(vals.real)) - e_exp) <= \
                max(1e-3, 0.25 * slope * abs(frac)):
            break
    else:
        raise ContinuationError(
            f"restart at g={g0:.8g} failed (inner step residual {rn:.2e})")
    walker = Walker(eta2, d, point.g_c + frac, vals, min_step=math.inf,
                    name="restart walk-out")
    while walker.g != g0:
        walker.step_toward(g0, 2.0 * (walker.g - point.g_c))
    return PairEnergies(walker.e, guess.origin)


# ---------------------------------------------------------------------------
# the sweep driver
# ---------------------------------------------------------------------------

def auto_scan_range(g_target: float, crossing_radius: float):
    """(g_lo, g_hi) that the auto-scan of a sweep to g_target covers: from
    0 to two crossing radii beyond the target."""
    direction = 1 if g_target > 0 else -1
    outer = g_target + direction * 2 * crossing_radius
    return (0.0, outer) if direction > 0 else (outer, 0.0)


def auto_scan_requests(problem: PairingProblem, branch, g_target: float,
                       crossing_radius: float) -> list[ScanRequest]:
    """The walks of the auto-scan of a sweep to g_target: the
    `scan_requests` of each level of `critical_levels` over
    `auto_scan_range`, in level order."""
    rng = auto_scan_range(g_target, crossing_radius)
    return [req for k in critical_levels(problem, branch)
            for req in scan_requests(problem, k, rng, branch)]


def auto_scan_points(problem: PairingProblem, branch, g_target: float,
                     crossing_radius: float,
                     scans: dict | None = None) -> list[CriticalPoint]:
    """What the auto-scan of a sweep to g_target registers: the points of
    `auto_scan_requests`, in order of |g_c|.

    The requests not yet in the dict `scans` ({ScanRequest: ScanResult})
    run together through `run_scans` and are stored there.  Equal requests
    are the same walk, so branches that share a deflated branch share its
    walk and its points.  Each walk's issues are then warned, and its
    error raised, from here in level order (`ScanResult.report`).  The
    caller owns the dict and so decides how long a walk is reused.
    """
    requests = auto_scan_requests(problem, branch, g_target,
                                  crossing_radius)
    scans = {} if scans is None else scans
    todo = [req for req in requests if req not in scans]
    scans.update(zip(todo, run_scans(problem, todo)))
    points = []
    for req in requests:
        points += scans[req].report()
    return sorted(points, key=lambda p: abs(p.g_c))


def _corroborates(point, tan, g_now, vals_now) -> bool:
    """Does the walking state belong to this critical point's branch?

    Checked at the window edge: the total energy and every predicted
    non-cluster energy must match the tangent extrapolation.  Points
    from other eigenstates sharing the deflated branch fail this.
    """
    dg = g_now - point.g_c
    e_pred = expected_restart_energy(tan, dg)
    if abs(float(np.sum(vals_now.real)) - e_pred) > 1.0:
        return False
    return not any(np.min(np.abs(vals_now - z)) > 0.3
                   for z in point.e_noncluster + tan.de_dg * dg)


def sweep(problem: PairingProblem, branch, g_target: float,
          options: SweepOptions | None = None,
          critical_points: list[CriticalPoint] | None = None) -> SweepPath:
    """Continue the branch from weak coupling to g_target, crossing every
    corroborated critical point via the tangent restart.

    The walk goes leg by leg through the registered points in order of
    |g_c|, skipping a point beyond |g_target| + r_c or whose window
    |g - g_c| < r_c is already behind it.  Each leg ends at the window
    edge g_c - sign r_c (or at g_target if nearer), where the point is
    crossed by the tangent restart to g_c + sign r_c, or passed when the
    state does not corroborate it.  When g_target lies in a window short
    of its g_c, the restart lands on g_target and the point is not listed
    as crossed.  The last leg runs to g_target.

    The returned path's `registered` lists the points the walk considered:
    the given `critical_points` of g_target's sign in their given order,
    then those the auto-scan over `auto_scan_range` found that are not
    within 1e-9 of a given one at the same level.  A zero or non-finite
    g_target raises ValueError before any scan or walk.
    """
    if g_target == 0.0 or not math.isfinite(g_target):
        raise ValueError(f"g_target must be finite and nonzero, "
                         f"got {g_target!r}")
    opts = options or SweepOptions()
    occ = as_occupation(branch).validate_for(problem)
    direction = 1 if g_target > 0 else -1
    eta2 = problem.eta2_array()
    d = problem.d_array()

    registered = [p for p in (critical_points or [])
                  if np.sign(p.g_c) == direction]
    diagnostics: list[str] = []
    if opts.auto_scan:
        for p in auto_scan_points(problem, occ, g_target,
                                  opts.crossing_radius):
            if not any(q.k == p.k and abs(q.g_c - p.g_c) < 1e-9
                       for q in registered):
                registered.append(p)
    r_c = opts.crossing_radius

    # below weak_coupling_g the residuals' round-off can exceed Newton's
    # tolerance, so a nearer target is reached by walking back in from it
    g0 = direction * weak_coupling_g(problem)
    walker, origin, rn = Walker.weak_start(eta2, d, occ.counts, g0,
                                           min_step=STEP_MIN, name="sweep")

    def sample(residual_norm):
        return SweepSample(walker.g, PairEnergies(walker.e, origin),
                           float(np.sum(walker.e.real)), residual_norm)

    samples = [sample(rn)]
    crossings: list[CriticalPoint] = []
    step = opts.step_init
    slope_est = None

    def walk(g_to, reach):
        """Step toward g_to until |g| >= reach, or in to |g_target| from
        a start beyond it, one sample per accepted step; returns why the
        walk had to stop short, or None."""
        nonlocal step, slope_est
        while abs(walker.g) < reach or abs(walker.g) > abs(g_target):
            g = walker.g
            try:
                step, iters, rn = walker.step_toward(
                    g_to, math.copysign(step, g_to - g))
            except ContinuationError as err:
                # forming, unregistered collapse is the usual culprit
                cands = collapse_candidates(walker.e, problem)
                if not cands:
                    return f"Newton failed after max step reductions: {err}"
                hint = ", ".join(f"level {k}" for k, _ in cands)
                return (f"stalled at g={g:.8g} near a collapse with no "
                        f"registered critical point ({hint}); run "
                        f"scan_critical there and pass critical_points")
            step = abs(step)

            de = abs(float(np.sum(walker.e.real)) - samples[-1].energy)
            dg = abs(walker.g - g)
            if slope_est is not None and dg > 0 and \
                    de > ENERGY_JUMP_FACTOR * slope_est * dg + 1e-9:
                return (f"energy jump at g={walker.g:.8g}: |dE|={de:.3g} "
                        f"exceeds 10x local trend; aborting to avoid "
                        f"branch switch")
            if dg > 0:
                slope_est = de / dg if slope_est is None else \
                    max(0.5 * (slope_est + de / dg), 1e-12)
            samples.append(sample(rn))
            if iters > HALVE_ABOVE_ITERS:
                step = max(step * 0.5, STEP_MIN)
            elif iters < DOUBLE_BELOW_ITERS:
                step = min(step * 2.0, STEP_MAX)
        return None

    for point in sorted(registered, key=lambda p: abs(p.g_c)):
        if abs(point.g_c) > abs(g_target) + r_c \
                or abs(point.g_c) + r_c <= abs(walker.g):
            continue
        # within 1e-12 of the window edge counts as at it
        stop = walk(min(g_target, point.g_c - direction * r_c, key=abs),
                    min(abs(g_target), abs(point.g_c) - r_c - 1e-12))
        if stop or abs(walker.g) >= abs(g_target):
            break
        tan = solve_tangent(point, problem)
        if not _corroborates(point, tan, walker.g, walker.e):
            diagnostics.append(
                f"passed critical point of another branch at "
                f"g_c={point.g_c:.8g} (level {point.k})")
            continue
        jump_delta = direction * r_c
        if abs(point.g_c + jump_delta) > abs(g_target):
            jump_delta = g_target - point.g_c
        try:
            landed = restart_solve(tan, problem, jump_delta)
        except ContinuationError as err:
            stop = f"restart failed at g_c={point.g_c:.8g}: {err}"
            break
        if abs(point.g_c) < abs(g_target):
            crossings.append(point)
        walker = Walker(eta2, d, point.g_c + jump_delta, landed.values,
                        min_step=STEP_MIN, name="sweep")
        origin = landed.origin
        samples.append(sample(float(np.max(np.abs(
            kern.residuals(walker.e, walker.g, eta2, d)[0])))))
        slope_est = None
    else:
        stop = walk(g_target, abs(g_target))

    if stop:
        diagnostics.append(stop)
    return SweepPath(samples, crossings,
                     "truncated" if stop else "completed", diagnostics,
                     registered)


# ---------------------------------------------------------------------------
# figure data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FigureData:
    """Plot-ready tables: pair-energy real parts and cluster power sums."""

    header: tuple[str, ...]
    rows: np.ndarray
    s_header: tuple[str, ...]
    s_rows: np.ndarray | None


def sample_figure_data(path: SweepPath, problem: PairingProblem,
                       cluster_level: int | None = None) -> FigureData:
    """Tables of (g, E, Re e_a ...) and, for a chosen level, (g, S_1..S_{M_k+1}).

    Pair-energy columns are ordered by origin label (then by real part)
    within each sample.  The S_p table tracks the M_k energies nearest
    2 eta_k (well defined through the crossing, where fixed-radius
    membership breaks down); the in_radius column counts how many of the
    sample's energies fall inside the membership radius.
    """
    m = len(path.samples[0].energies)
    header = ("g", "E") + tuple(f"re_e{i + 1}" for i in range(m)) \
        + tuple(f"im_e{i + 1}" for i in range(m))
    rows = np.empty((len(path.samples), 2 + 2 * m))
    for i, s in enumerate(path.samples):
        order = sorted(range(m),
                       key=lambda a: (s.energies.origin[a],
                                      s.energies.values[a].real))
        vals = s.energies.values[order]
        rows[i] = (s.g, s.energy, *vals.real, *vals.imag)

    s_rows = None
    s_header = ()
    if cluster_level is not None:
        k = cluster_level
        m_k = default_cluster_size(problem.levels[k])
        eta2k = 2.0 * problem.levels[k].eta
        s_header = ("g",) + tuple(f"S{p}" for p in range(1, m_k + 2)) \
            + ("in_radius",)
        out = []
        for s in path.samples:
            order = np.argsort(np.abs(s.energies.values - eta2k))[:m_k]
            inside = len(detect_cluster(s.energies.values, problem, k))
            try:
                ps = power_sums(s.energies.values[order],
                                problem.levels[k].eta, m_k + 1)
            except ConsistencyError:
                continue
            out.append((s.g, *ps, float(inside)))
        s_rows = np.array(out) if out else np.empty((0, m_k + 3))
    return FigureData(header, rows, s_header, s_rows)
