"""Critical coupling location: the determinant condition plus deflated equations.

A critical point (g_c, level k) is where M_k pair energies sit exactly at
2 eta_k.  The non-collapsing energies then satisfy the deflated equations
(the cluster acts as an M_k-fold pole at 2 eta_k) and the homogeneous
cluster system must be singular, i.e. det of the cluster matrix vanishes.
Both conditions together determine g_c and the non-cluster energies.

The search walks a deflated solution branch in g from weak coupling with
a `solver.Walker` over a grid, so the deflated equations hold at every
step, keeping the state at each grid point.  After the walk, one stacked
pass evaluates the row-norm-scaled determinant at every kept state, and
the search brackets its sign changes.  Each bracket is then resolved by
false position in g along the same branch, walked on from the bracket's
stored state: every iterate is a converged branch state, and only the
one-dimensional determinant root is left to find; `critical_point`
checks found and loaded points.  M_k = 1 - 2 d_k is the level's, no argument.
A scan walks each side of g = 0 it covers from weak coupling, and each
walk is one `ScanRequest`: `scan_requests` decides its side, deflated
branch and grid before any walk starts, and `run_scans` runs a batch of
walks in worker processes.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import _kernels as kern
from .cluster import (chi_ratios, cluster_matrix, default_cluster_size,
                      pn_coefficients, scaled_determinant)
from .errors import ContinuationError, RichardsonError, UnresolvedRootError
from .model import OccupationMap, PairingProblem, as_occupation, ground_occupation
from .solver import Walker, weak_coupling_g

RESIDUAL_TOL = 1e-10
DEFAULT_GRID_PER_UNIT = 400


class TruncatedScanWarning(UserWarning):
    """A deflated branch could not be continued across the full range."""


@dataclass(frozen=True)
class CriticalPoint:
    """Complete record of one critical coupling.

    ``deflated_occupation`` is the M - M_k pair configuration that seeds
    the deflated branch.  The point belongs to that deflated branch, not to
    one state branch: every branch that deflates to it at level k shares
    the point.
    """

    g_c: float
    k: int
    m_k: int
    e_noncluster: np.ndarray
    chi: np.ndarray
    energy: float
    deflated_occupation: OccupationMap
    noncluster_origin: tuple[int, ...]

    def __post_init__(self):
        vals = np.array(self.e_noncluster, dtype=np.complex128)
        vals.setflags(write=False)
        object.__setattr__(self, "e_noncluster", vals)
        chi = np.array(self.chi, dtype=float)
        chi.setflags(write=False)
        object.__setattr__(self, "chi", chi)

    def __reduce__(self):
        # through the constructor, so that a point back from a scan worker
        # has read-only arrays again
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


def deflated_d_array(problem: PairingProblem, k: int) -> np.ndarray:
    """Effective degeneracies with the collapsed cluster folded into level k.

    The M_k-fold pole 4g M_k/(e - 2 eta_k) equals a level term with
    d_k -> d_k + M_k, so the deflated system is the Richardson system of
    M - M_k pairs with this one modified degeneracy.
    """
    d = problem.d_array()
    d[k] += default_cluster_size(problem.levels[k])
    return d


def deflated_residuals(g: float, e_noncluster, problem: PairingProblem,
                       k: int) -> np.ndarray:
    """Residuals of the deflated equations for the non-cluster energies."""
    e = np.asarray(e_noncluster, dtype=np.complex128)
    return kern.residuals(e, g, problem.eta2_array(),
                          deflated_d_array(problem, k))[0]


def deflated_jacobian(g: float, e_noncluster, problem: PairingProblem,
                      k: int) -> np.ndarray:
    e = np.asarray(e_noncluster, dtype=np.complex128)
    return kern.jacobian_at(e, g, problem.eta2_array(),
                            deflated_d_array(problem, k))


def critical_residuals(g: float, e_noncluster, problem: PairingProblem,
                       k: int) -> np.ndarray:
    """Scaled determinant followed by the deflated residuals."""
    det = _scaled_dets(problem, k, [g], [e_noncluster])[0]
    defl = deflated_residuals(g, e_noncluster, problem, k)
    return np.concatenate(([complex(det)], defl))


def _scaled_dets(problem, k, gs, states):
    """Scaled cluster determinant at each coupling gs[i] with the
    non-cluster energies states[i], in one stacked pass; each value has
    the bits of a pass over its row alone.

    Errors end as evaluating the rows one after another would.  The stack
    runs with every numpy floating-point error raised; if it raises
    anything, the rows run again one at a time in the caller's numpy error
    state, so the first row that raises or warns does so as it would
    alone, and no row after a raising one is evaluated.
    """
    if not len(gs):
        return np.empty(0)
    gs = np.asarray(gs, dtype=float)
    e = np.array(states, dtype=np.complex128)
    m_k = default_cluster_size(problem.levels[k])

    def chain(rows):
        pn = pn_coefficients(problem, k, e[rows], m_k - 1)
        return scaled_determinant(cluster_matrix(gs[rows], pn, m_k))

    try:
        with np.errstate(all="raise"):
            return chain(slice(None))
    except (FloatingPointError, RichardsonError):
        return np.concatenate([chain(slice(i, i + 1))
                               for i in range(len(gs))])


# ---------------------------------------------------------------------------
# deflated branch bookkeeping
# ---------------------------------------------------------------------------

def deflated_occupation(problem: PairingProblem, branch, k: int,
                        direction: int) -> OccupationMap:
    """Weak-coupling occupation of the deflated branch.

    Removes the M_k cluster pairs from the branch occupation: all of level
    k's pairs first, the remainder from the extreme occupied levels in the
    direction the collapsing energies flow in from.  For g < 0 energies
    drift down, so the extras leave the topmost occupied levels; for g > 0
    they leave the bottommost.  Validated against the 6x6 benchmark, where
    any other donor choice leaves the deflated branch stuck on one of its
    own collapses before the determinant root is reached.
    """
    counts = list(as_occupation(branch).validate_for(problem).counts)
    m_k = need = default_cluster_size(problem.levels[k])
    take = min(counts[k], need)
    counts[k] -= take
    need -= take
    order = list(range(len(counts)))
    if direction < 0:
        order.reverse()
    for j in order:
        if j == k:
            continue
        while need > 0 and counts[j] > 0:
            counts[j] -= 1
            need -= 1
    if need > 0:
        raise ValueError(
            f"branch occupation cannot supply the {m_k} cluster pairs")
    return OccupationMap(tuple(counts))


def critical_levels(problem: PairingProblem, branch) -> list[int]:
    """Levels where the branch can have a critical point: the occupied
    levels whose cluster size M_k = 1 - 2 d_k is a positive integer no
    larger than M.  No larger cluster can form, and a non-integer M_k
    (odd Omega - 2 nu) names none."""
    levels = []
    for k, (count, lv) in enumerate(zip(as_occupation(branch).counts,
                                        problem.levels)):
        try:
            if count > 0 and default_cluster_size(lv) <= problem.m_pairs:
                levels.append(k)
        except ValueError:      # M_k is no integer
            pass
    return levels


def _branch_name(problem, k):
    return (f"deflated branch (level {k}, "
            f"M_k={default_cluster_size(problem.levels[k])})")


def _resume(problem, k, g, e):
    """Deflated walk continued from a stored grid state.  Safe in either
    direction within one grid cell, which contains no singular stretch of
    the walk that produced it."""
    return Walker(problem.eta2_array(), deflated_d_array(problem, k), g,
                  e, min_step=1e-9, name=_branch_name(problem, k))


def _walk(walker, problem, k, grid):
    """Walk `walker` over `grid`, then evaluate the scaled determinant at
    every state it reached in one pass (`_scaled_dets`).

    Returns (gs, dets, states, stall): the grid couplings reached, the
    determinant and the energies at each, and the ContinuationError that
    stopped the walk short of the grid's end, or None.  The pass runs
    whatever the walk raised, and an error of the pass replaces it: as in
    a walk that evaluated each determinant on arrival, an error at a
    reached state comes first, and a stall after it is never seen.
    """
    states, stall = [], None
    try:
        for g in grid:
            states.append(walker.advance_to(g))
    except ContinuationError as err:
        stall = err
    finally:
        gs = grid[:len(states)]
        dets = _scaled_dets(problem, k, gs, states)
    return gs, dets, states, stall


def critical_point(problem: PairingProblem, k: int, g_c: float,
                   e_noncluster, deflated_occ, origin) -> CriticalPoint:
    """The point of level k at g_c, if a scan of `problem` can find it:
    else ValueError for a wrong level, label or shape, UnresolvedRootError
    for non-finite numbers (before any arithmetic) or `critical_residuals`
    above RESIDUAL_TOL.  chi is taken once the deflated residuals hold."""
    if k not in range(problem.n_levels):
        raise ValueError(f"k={k} is not a level index of the problem")
    m_k = default_cluster_size(problem.levels[k])
    e = np.asarray(e_noncluster, dtype=np.complex128)
    occ, origin = as_occupation(deflated_occ), tuple(origin)
    rest, levels = problem.m_pairs - m_k, range(problem.n_levels)
    if (e.shape != (rest,) or len(origin) != rest
            or not all(j in levels for j in origin)
            or len(occ.counts) != len(levels) or occ.total != rest):
        raise ValueError(f"level {k} (M_k={m_k}) takes M - M_k non-cluster "
                         f"energies, each labelled with a level index, and "
                         f"a deflated occupation of M - M_k pairs with one "
                         f"count per level")
    if not (np.isfinite(g_c) and np.isfinite(e).all()):
        raise UnresolvedRootError(f"critical point at g={g_c:.8g}: g_c and "
                                  f"e_noncluster must be finite")
    res = np.abs(critical_residuals(g_c, e, problem, k))
    if np.all(res[1:] <= RESIDUAL_TOL):
        chi = chi_ratios(g_c, pn_coefficients(problem, k, e, m_k - 1), m_k)
    bad = float(np.max(res))
    if not bad <= RESIDUAL_TOL:
        raise UnresolvedRootError(
            f"critical point at g={g_c:.8g} fails validation "
            f"(residual {bad:.2e})")
    energy = m_k * problem.eta2_array()[k] + float(np.sum(e.real))
    return CriticalPoint(
        g_c=float(g_c), k=k, m_k=m_k, e_noncluster=e, chi=chi,
        energy=energy, deflated_occupation=occ, noncluster_origin=origin)


class ScanResult(list):
    """The critical points of one walk (`run_scans`) or of one scan
    (`scan_critical`), in order of g_c.  ``issues`` holds the text of each
    truncation or skipped bracket, in the order the scan met them.
    ``error`` is the exception that stopped the scan, or None; a stopped
    scan keeps the issues met before it and no points.  `report` warns the
    issues and raises the error."""

    def __init__(self, points=(), issues=(), error=None):
        super().__init__(points)
        self.issues = list(issues)
        self.error = error
        self._reported = False

    def report(self, stacklevel=1):
        """Warn each issue as a TruncatedScanWarning from the line that
        called this method (`stacklevel` counts as for `warnings.warn`),
        then raise ``error`` if it is set; returns self.  A scan that ran
        to its end warns on the first call only.  A stopped one warns and
        raises on every call, as running the scan again would."""
        if self.error is not None or not self._reported:
            for text in self.issues:
                warnings.warn(text, TruncatedScanWarning,
                              stacklevel=stacklevel + 1)
        self._reported = True
        if self.error is not None:
            raise self.error
        return self


class ScanRequest(NamedTuple):
    """One walk of a scan, every field resolved: the deflated branch
    `deflated_occ` of level k, walked from weak coupling over `grid_points`
    cells of g_range, on one side of g = 0.  Equal requests are one walk."""

    k: int
    g_range: tuple[float, float]
    deflated_occ: OccupationMap
    grid_points: int


def scan_requests(problem: PairingProblem, k: int, g_range, branch=None, *,
                  grid_points=None, deflated_occ=None) -> list[ScanRequest]:
    """The walks of a scan of level k over g_range, one per side of g = 0,
    negative side first.

    The deflated branch is `deflated_occ`, or else the one `branch`
    (default the ground state) deflates to on that side
    (`deflated_occupation`).  The grid defaults to `DEFAULT_GRID_PER_UNIT`
    points per unit of the side's span, at least 400.  A non-finite
    g_range, a non-integer M_k, or a branch that cannot supply the cluster
    raises ValueError here, before any walk starts.
    """
    if not np.isfinite(g_range).all():
        raise ValueError(f"g_range {tuple(g_range)} must be finite")
    default_cluster_size(problem.levels[k])     # refused before any walk
    branch = ground_occupation(problem) if branch is None else branch
    g_lo, g_hi = sorted(g_range)
    sides = [(g_lo, 0.0), (0.0, g_hi)] if g_lo < 0 < g_hi else [(g_lo, g_hi)]
    requests = []
    for lo, hi in sides:
        occ = deflated_occ
        if occ is None:
            occ = deflated_occupation(problem, branch, k,
                                      1 if hi > 0 else -1)
        grid = grid_points
        if grid is None:
            grid = max(400, int(round((hi - lo) * DEFAULT_GRID_PER_UNIT)))
        requests.append(ScanRequest(k, (lo, hi), as_occupation(occ), grid))
    return requests


def scan_critical(problem: PairingProblem, k: int, g_range, branch=None, *,
                  grid_points=None, deflated_occ=None) -> ScanResult:
    """All critical couplings for level k with g in (g_lo, g_hi).

    Walks the deflated branch that `scan_requests` resolves over a uniform
    grid, brackets every sign change of the scaled determinant and finds
    each root by false position in g along the branch (`_resolve_bracket`).
    Cells where |det| dips sharply without a sign change are re-walked at
    100x density to catch close root pairs.  A range across 0 is scanned as
    its two walks, each out from weak coupling, side by side as `run_scans`
    runs them; a walk that raises stops the scan with the issues met before
    it and no points, and the later walk counts for nothing.  Branch
    continuation failure truncates a walk, and a bracket that does not hold
    a validated root is skipped; either lands in the result's ``issues`` and
    is warned from the caller's line as a TruncatedScanWarning.  A warnings
    filter such as ``warnings.simplefilter("error", TruncatedScanWarning)``
    turns every skip and truncation into an error; filters do not change
    ``issues``.
    """
    found = ScanResult()
    for part in run_scans(problem, scan_requests(
            problem, k, g_range, branch, grid_points=grid_points,
            deflated_occ=deflated_occ)):
        found += part
        found.issues += part.issues
        found.error = part.error
        if found.error is not None:
            break
    return found.report(stacklevel=2)


def scan_workers() -> int:
    """Processes that `run_scans` may spread its walks over: one per CPU
    this process may run on, or 1 where the platform cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_scans(problem: PairingProblem, requests) -> list[ScanResult]:
    """One ScanResult per `ScanRequest`, in request order: the walk that
    the request names, run once.  Nothing is warned or raised until the
    caller reads each result through `ScanResult.report`.

    The walks share no state, so they run side by side in a fork-context
    process pool of `scan_workers` processes, at most one per request;
    with one worker they run in this process.  The pool gets the walks
    farthest-reaching first, by max |g| of each g_range (ties in request
    order): a walk's cost grows with its reach, and a costly walk started
    last leaves the other workers idle while it runs (longest processing
    time first).  A walk runs the same arithmetic wherever and whenever it
    runs, so its points are the same bits.  A walk that raises keeps the
    issues met before the error, and no points.
    """
    jobs = [(problem, req) for req in requests]
    workers = min(scan_workers(), len(jobs))
    if workers <= 1:
        return list(map(_run_walk, jobs))
    # imported here: the pool modules cost about 15 ms and 1.3 MB, which a
    # one-walk scan or a one-CPU run never needs
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    reach = [max(map(abs, req.g_range)) for _, req in jobs]
    with ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork")) as pool:
        futures = {i: pool.submit(_run_walk, jobs[i])
                   for i in sorted(range(len(jobs)), key=lambda i: -reach[i])}
        return [futures[i].result() for i in range(len(jobs))]


def _run_walk(job) -> ScanResult:
    """The walk of one (problem, request).  An exception is returned as
    the result's ``error``, with the issues met before it, so that the
    caller raises it where walking one request after another would."""
    found = ScanResult()
    try:
        _scan_side(found, *job)
    except Exception as err:
        found.error = err
        found.clear()
    found.sort(key=lambda p: p.g_c)
    return found


def _scan_side(found, problem, request):
    """The walk of `request`, adding its points and issues to `found`."""
    k, (g_lo, g_hi), deflated_occ, grid_points = request
    direction = 1 if g_hi > 0 else -1
    far = g_hi if direction > 0 else g_lo
    near = g_lo if direction > 0 else g_hi
    if far == near:
        return

    g_init = weak_coupling_g(problem)
    start = direction * max(abs(near), abs(g_init))
    grid = np.linspace(start, far, grid_points + 1)

    try:
        walker, origin, _ = Walker.weak_start(
            problem.eta2_array(), deflated_d_array(problem, k),
            deflated_occ.counts, direction * abs(g_init),
            min_step=1e-7, name=_branch_name(problem, k))
    except ContinuationError as err:
        found.issues.append(f"scan truncated: {err}")
        return
    gs, dets, states, stall = _walk(walker, problem, k, grid)
    if stall is not None:
        found.issues.append(f"scan truncated: {stall}")
    if len(gs) < 2:
        return

    brackets = _find_brackets(problem, k, gs, dets, states, found.issues)
    for g_a, g_b, det_a, det_b, e_a in brackets:
        try:
            found.append(_resolve_bracket(problem, k, g_a, g_b, det_a, det_b,
                                          e_a, deflated_occ, origin))
        except RichardsonError as err:
            # a deflated branch hopping at one of its own collapses can
            # flip the determinant sign with no zero in between
            found.issues.append(
                f"skipping spurious bracket: root in ({g_a:.8g}, {g_b:.8g}) "
                f"for level {k} could not be resolved: {err}")


def _sign_cells(gs, dets, states):
    """Cells (g_a, g_b, det_a, det_b, e_a) where the determinant changes
    sign or is zero at the right end, so an exact zero counts once."""
    signs = np.sign(dets)
    return [(gs[i], gs[i + 1], dets[i], dets[i + 1], states[i])
            for i in range(len(gs) - 1)
            if signs[i + 1] == 0
            or (signs[i] != 0 and signs[i] != signs[i + 1])]


def _find_brackets(problem, k, gs, dets, states, issues):
    """`_sign_cells` of the grid and of a fine re-walk of each sharp |det|
    dip without a sign change, which may hide a close root pair.  A
    re-walk that stalls yields no cell; its stall lands in `issues`."""
    out = _sign_cells(gs, dets, states)
    signs = np.sign(dets)
    mags = np.abs(dets)
    for i in range(1, len(gs) - 1):
        sharp = mags[i] < 0.1 * min(mags[i - 1], mags[i + 1])
        if not sharp or signs[i - 1] != signs[i] or signs[i] != signs[i + 1]:
            continue
        # possible root pair inside (g_{i-1}, g_{i+1}); re-walk finely
        cw = _resume(problem, k, gs[i - 1], states[i - 1])
        fine, fdets, fstates, stall = _walk(
            cw, problem, k, np.linspace(gs[i - 1], gs[i + 1], 201))
        if stall is not None:
            issues.append(f"dip re-walk in ({gs[i - 1]:.8g}, "
                          f"{gs[i + 1]:.8g}) for level {k} stopped: {stall}")
            continue
        out += _sign_cells(fine, fdets, fstates)
    out.sort(key=lambda t: min(t[0], t[1]))
    return out


def _resolve_bracket(problem, k, g_a, g_b, det_a, det_b, e_a, deflated_occ,
                     origin):
    """Root of the scaled determinant in (g_a, g_b) along the deflated branch.

    Illinois false position (a bisection step whenever the secant point
    leaves the bracket) on the determinant along the walk resumed at g_a,
    so the deflated equations hold at every iterate.  Stops once |det| <= 1e-13
    or the bracket no longer shrinks; `critical_point` then decides.
    """
    cell = _resume(problem, k, g_a, e_a)
    lo, f_lo, hi, f_hi = g_a, det_a, g_b, det_b
    g_c, f_c = (g_a, det_a) if abs(det_a) <= abs(det_b) else (g_b, det_b)
    kept = 0        # the end kept by the last update: -1 lo, +1 hi
    while abs(f_c) > 1e-13:
        g = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not min(lo, hi) < g < max(lo, hi):
            g = 0.5 * (lo + hi)
            if g == lo or g == hi:
                break
        g_c, f_c = g, _scaled_dets(problem, k, [g], [cell.advance_to(g)])[0]
        if (f_c > 0) == (f_lo > 0):
            lo, f_lo = g_c, f_c
            if kept > 0:
                f_hi *= 0.5
            kept = 1
        else:
            hi, f_hi = g_c, f_c
            if kept < 0:
                f_lo *= 0.5
            kept = -1
    return critical_point(problem, k, g_c, cell.advance_to(g_c),
                          deflated_occ, origin)

