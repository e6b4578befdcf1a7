"""End-to-end continuation: sweep g from zero through the critical regions.

The sweep steps the full Richardson solution adaptively in g, reseeding
each Newton solve from a secant predictor.  Critical couplings are located
ahead of time per level (precompute-then-jump); when the walk is about to
enter the window |g - g_c| < r_c of a registered point and the physical
state corroborates a forming cluster at that level, the solution is
restarted on the far side from the expansion at g_c (`linear_guess`)
and the walk continues.  Restart robustness comes from walking outward
from a fraction of the jump (the guess becomes exact as delta g -> 0),
with an energy-trend check that rejects convergence onto a neighboring
eigenstate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels as kern
from .cluster import default_cluster_size, detect_cluster, power_sums
from .critical import CriticalPoint, scan_critical
from .errors import ContinuationError
from .model import PairingProblem, as_occupation
from .solver import (PairEnergies, continuation_step, init_weak_coupling,
                     newton_core, restart_step_cap)
from .tangent import TangentData, linear_guess, solve_tangent


@dataclass
class SweepOptions:
    """Stepping, crossing and guard controls for sweep()."""

    step_init: float = 1e-3
    step_min: float = 1e-6
    step_max: float = 2e-2
    crossing_radius: float = 5e-3
    newton_tol: float = 1e-12
    halve_above_iters: int = 12
    double_below_iters: int = 4
    energy_jump_factor: float = 10.0
    auto_scan: bool = True
    scan_levels: tuple[int, ...] | None = None
    grid_points: int | None = None
    g_init: float | None = None


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

    @property
    def g_values(self):
        return np.array([s.g for s in self.samples])

    @property
    def energies(self):
        return np.array([s.energy for s in self.samples])


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

def expected_restart_energy(tangent: TangentData, delta_g: float) -> float:
    """Linear prediction of the total energy at g_c + delta_g.

    The cluster contributes M_k 2eta_k - S_1, so its energy slope is
    -dS_1/dg; the rest moves with de_b/dg.
    """
    slope = -tangent.ds1_dg + float(np.sum(tangent.de_dg.real))
    return tangent.point.energy + slope * delta_g


def restart_solve(tangent: TangentData, problem: PairingProblem,
                  delta_g: float, *, tol=1e-12,
                  energy_tol=None) -> PairEnergies:
    """Converged solution at g_c + delta_g seeded from `linear_guess`.

    Tries the guess directly, with and without the restart step cap,
    checking the converged energy against the tangent prediction (nearby
    eigenstates are dense around a collapse, so convergence alone does not
    identify the branch).  If both attempts fail, walks outward from
    delta_g / 8, where the guess is asymptotically exact.
    """
    if delta_g == 0.0:
        raise ContinuationError(
            "cannot converge the full equations exactly at a critical "
            "point; restart at a nonzero delta_g")
    point = tangent.point
    g0 = point.g_c + delta_g
    eta2 = problem.eta2_array()
    d = problem.d_array()
    slope = abs(-tangent.ds1_dg + float(np.sum(tangent.de_dg.real)))
    if energy_tol is None:
        energy_tol = max(1e-3, 0.25 * slope * abs(delta_g))
    e_exp = expected_restart_energy(tangent, delta_g)

    cap = restart_step_cap(problem)
    guess = linear_guess(tangent, delta_g, max_delta=abs(delta_g))
    for use_cap in (cap, None):
        vals, ok, _, _ = newton_core(guess.values, g0, eta2, d, tol=tol,
                                     max_iter=40, step_cap=use_cap)
        if ok and abs(float(np.sum(vals.real)) - e_exp) <= energy_tol:
            return PairEnergies(vals, guess.origin, g0)

    # walk outward: the guess error vanishes as delta -> 0, so shrink the
    # first step until its solve validates
    vals = None
    rn = np.inf
    for div in (8.0, 32.0, 128.0, 512.0):
        frac = delta_g / div
        g_here = point.g_c + frac
        sub = linear_guess(tangent, frac, max_delta=abs(delta_g))
        cand, ok, _, rn = newton_core(sub.values, g_here, eta2, d, tol=tol,
                                      max_iter=60, step_cap=cap)
        e_sub = expected_restart_energy(tangent, frac)
        if ok and abs(float(np.sum(cand.real)) - e_sub) <= \
                max(1e-3, 0.25 * slope * abs(frac)):
            vals = cand
            break
    if vals is None:
        raise ContinuationError(
            f"restart at g={g0:.8g} failed (inner step residual {rn:.2e})")
    prev = None
    while g_here != g0:
        step = min(abs(2.0 * (g_here - point.g_c)),
                   abs(g0 - point.g_c) - abs(g_here - point.g_c))
        g_next = g_here + np.sign(delta_g) * step if step > 0 else g0
        new, ok, _, rn = continuation_step(vals, g_here, g_next, eta2, d,
                                           prev, tol=tol)
        if not ok:
            raise ContinuationError(
                f"restart walk-out stalled at g={g_next:.8g} "
                f"(residual {rn:.2e})")
        prev = (g_here, vals)
        g_here, vals = g_next, new
    return PairEnergies(vals, guess.origin, g0)


# ---------------------------------------------------------------------------
# the sweep driver
# ---------------------------------------------------------------------------

def _auto_scan_points(problem, branch, g_target, opts) -> list[CriticalPoint]:
    direction = 1 if g_target > 0 else -1
    outer = g_target + direction * 2 * opts.crossing_radius
    rng = (0.0, outer) if direction > 0 else (outer, 0.0)
    levels = opts.scan_levels
    if levels is None:
        levels = tuple(k for k, c in enumerate(branch.counts) if c > 0)
    points = []
    for k in levels:
        try:
            points.extend(scan_critical(problem, k, rng, branch,
                                         grid_points=opts.grid_points,
                                         g_init=opts.g_init))
        except (ContinuationError, ValueError):
            continue
    points.sort(key=lambda p: abs(p.g_c))
    return points


def sweep(problem: PairingProblem, branch, g_target: float,
          options: SweepOptions | None = None,
          critical_points: list[CriticalPoint] | None = None) -> SweepPath:
    """Continue the branch from weak coupling to g_target, crossing every
    corroborated critical point via the tangent restart."""
    if g_target == 0.0:
        raise ValueError("g_target must be nonzero")
    opts = options or SweepOptions()
    occ = as_occupation(branch).validate_for(problem)
    direction = 1 if g_target > 0 else -1
    eta2 = problem.eta2_array()
    d = problem.d_array()

    registered = [p for p in (critical_points or [])
                  if np.sign(p.g_c) == direction]
    diagnostics: list[str] = []
    if opts.auto_scan:
        for p in _auto_scan_points(problem, occ, g_target, opts):
            if not any(q.k == p.k and abs(q.g_c - p.g_c) < 1e-9
                       for q in registered):
                registered.append(p)
        if registered:
            diagnostics.append(
                "registered " +
                ", ".join(f"(k={p.k}, g_c={p.g_c:.6g})" for p in registered))
    tangents: dict[int, TangentData] = {}

    g_init = opts.g_init if opts.g_init is not None else \
        1e-3 * problem.mean_level_spacing()
    g0 = direction * min(abs(g_init), abs(g_target) / 2.0)
    seed = init_weak_coupling(problem, occ, g0, g_max=abs(g0))
    vals, ok, iters, rn = newton_core(seed.values, g0, eta2, d,
                                      tol=opts.newton_tol)
    if not ok:
        raise ContinuationError(
            f"sweep could not converge its weak-coupling start at g={g0}")
    origin = seed.origin

    samples = [SweepSample(g0, PairEnergies(vals, origin, g0),
                           float(np.sum(vals.real)), rn)]
    crossings: list[CriticalPoint] = []
    used_points: set[int] = set()
    step = opts.step_init
    prev: tuple[float, np.ndarray] | None = None
    g = g0
    slope_est = None
    status = "completed"
    r_c = opts.crossing_radius

    def next_point(g_from):
        ahead = [p for p in registered
                 if id(p) not in used_points
                 and abs(p.g_c) + r_c > abs(g_from)
                 and abs(p.g_c) <= abs(g_target) + r_c]
        return min(ahead, key=lambda p: abs(p.g_c)) if ahead else None

    def tangent_for(point):
        idx = id(point)
        if idx not in tangents:
            tangents[idx] = solve_tangent(point, problem)
        return tangents[idx]

    def corroborate(point, tan, g_now, vals_now):
        """Does the walking state belong to this critical point's branch?

        Checked at the window edge: the total energy and every predicted
        non-cluster energy must match the tangent extrapolation.  Points
        from other eigenstates sharing the deflated branch fail this.
        """
        dg = g_now - point.g_c
        e_pred = expected_restart_energy(tan, dg)
        if abs(float(np.sum(vals_now.real)) - e_pred) > 1.0:
            return False
        nc_pred = point.e_noncluster + tan.de_dg * dg
        for z in nc_pred:
            if np.min(np.abs(vals_now - z)) > 0.3:
                return False
        return True

    while abs(g) < abs(g_target):
        point = next_point(g)
        if point is not None and abs(g) >= abs(point.g_c) - r_c - 1e-12:
            # at or inside the approach window
            tan = tangent_for(point)
            if corroborate(point, tan, g, vals):
                jump_delta = direction * r_c
                if abs(point.g_c + jump_delta) > abs(g_target):
                    jump_delta = g_target - point.g_c
                try:
                    landed = restart_solve(tan, problem, jump_delta,
                                           tol=opts.newton_tol)
                except ContinuationError as err:
                    diagnostics.append(
                        f"restart failed at g_c={point.g_c:.8g}: {err}")
                    status = "truncated"
                    break
                used_points.add(id(point))
                crossings.append(point)
                prev = None
                g, vals, origin = (point.g_c + jump_delta,
                                   np.array(landed.values), landed.origin)
                rjump = float(np.max(np.abs(kern.residuals(vals, g, eta2, d))))
                samples.append(SweepSample(
                    g, PairEnergies(vals, origin, g),
                    float(np.sum(vals.real)), rjump))
                slope_est = None
            else:
                used_points.add(id(point))
                diagnostics.append(
                    f"passed critical point of another branch at "
                    f"g_c={point.g_c:.8g} (level {point.k})")
            continue

        g_next = g + direction * step
        if abs(g_next) > abs(g_target):
            g_next = g_target
        if point is not None:
            edge = point.g_c - direction * r_c
            if abs(g_next) > abs(edge):
                g_next = edge

        new_vals, ok, iters, rn = continuation_step(
            vals, g, g_next, eta2, d, prev, tol=opts.newton_tol)
        if not ok:
            step *= 0.5
            if step < opts.step_min:
                # forming, unregistered collapse is the usual culprit
                cands = collapse_candidates(vals, problem)
                if cands:
                    hint = ", ".join(f"level {k}" for k, _ in cands)
                    diagnostics.append(
                        f"stalled at g={g:.8g} near a collapse with no "
                        f"registered critical point ({hint}); run "
                        f"scan_critical there and pass critical_points")
                else:
                    diagnostics.append(
                        f"Newton failed at g={g:.8g} after max step "
                        f"reductions (residual {rn:.2e})")
                status = "truncated"
                break
            continue

        energy = float(np.sum(new_vals.real))
        if slope_est is not None and abs(g_next - g) > 0:
            bound = opts.energy_jump_factor * slope_est * abs(g_next - g) \
                + 1e-9
            if abs(energy - samples[-1].energy) > bound:
                diagnostics.append(
                    f"energy jump at g={g_next:.8g}: "
                    f"|dE|={abs(energy - samples[-1].energy):.3g} exceeds "
                    f"10x local trend; aborting to avoid branch switch")
                status = "truncated"
                break
        if abs(g_next - g) > 0:
            new_slope = abs(energy - samples[-1].energy) / abs(g_next - g)
            slope_est = new_slope if slope_est is None else \
                max(0.5 * (slope_est + new_slope), 1e-12)

        prev = (g, vals)
        g, vals, origin = g_next, new_vals, origin
        samples.append(SweepSample(g, PairEnergies(vals, origin, g),
                                   energy, rn))
        if iters > opts.halve_above_iters:
            step = max(step * 0.5, opts.step_min)
        elif iters < opts.double_below_iters:
            step = min(step * 2.0, opts.step_max)

    return SweepPath(samples, crossings, status, diagnostics)


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
                       cluster_level: int | None = None,
                       radius: float | None = None) -> FigureData:
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
            # the S_p curves track the M_k energies nearest 2 eta_k; the
            # last column counts how many sit inside the membership radius
            order = np.argsort(np.abs(s.energies.values - eta2k))[:m_k]
            inside = len(detect_cluster(s.energies.values, problem, k,
                                        radius))
            try:
                ps = power_sums(s.energies.values[order],
                                problem.levels[k].eta, m_k + 1)
            except Exception:
                continue
            out.append((s.g, *ps.s, float(inside)))
        s_rows = np.array(out) if out else np.empty((0, m_k + 3))
    return FigureData(header, rows, s_header, s_rows)
