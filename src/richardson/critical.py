"""Critical coupling location: the determinant condition plus deflated equations.

A critical point (g_c, level k) is where M_k pair energies sit exactly at
2 eta_k.  The non-collapsing energies then satisfy the deflated equations
(the cluster acts as an M_k-fold pole at 2 eta_k) and the homogeneous
cluster system must be singular, i.e. det of the cluster matrix vanishes.
Both conditions together determine g_c and the non-cluster energies.

The search walks a deflated solution branch in g from weak coupling,
brackets sign changes of the row-norm-scaled determinant and polishes each
bracket by Newton on the coupled system in (g, e_noncluster).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels as kern
from .cluster import (chi_ratios, cluster_matrix, default_cluster_size,
                      pn_coefficients, scaled_determinant)
from .errors import ContinuationError, UnresolvedRootError
from .model import OccupationMap, PairingProblem, as_occupation, ground_occupation
from .solver import (_weak_seed_arrays, continuation_step, newton_core,
                     symmetrize_conjugate)

DET_TOL = 1e-10
RESIDUAL_TOL = 1e-10
DEFAULT_GRID_PER_UNIT = 400


class TruncatedScanWarning(UserWarning):
    """A deflated branch could not be continued across the full range."""


@dataclass(frozen=True)
class CriticalPoint:
    """Complete record of one critical coupling.

    ``occupation_label`` is the weak-coupling occupation of the state
    branch (M pairs); ``deflated_occupation`` is the M - M_k pair
    configuration that seeds the deflated branch.
    """

    g_c: float
    k: int
    m_k: int
    e_noncluster: np.ndarray
    chi: np.ndarray
    energy: float
    occupation_label: OccupationMap
    deflated_occupation: OccupationMap
    noncluster_origin: tuple[int, ...]

    def __post_init__(self):
        vals = np.array(self.e_noncluster, dtype=np.complex128)
        vals.setflags(write=False)
        object.__setattr__(self, "e_noncluster", vals)
        chi = np.array(self.chi, dtype=float)
        chi.setflags(write=False)
        object.__setattr__(self, "chi", chi)


def deflated_d_array(problem: PairingProblem, k: int, m_k: int) -> np.ndarray:
    """Effective degeneracies with the collapsed cluster folded into level k.

    The M_k-fold pole 4g M_k/(e - 2 eta_k) equals a level term with
    d_k -> d_k + M_k, so the deflated system is the Richardson system of
    M - M_k pairs with this one modified degeneracy.
    """
    d = problem.d_array()
    d[k] += m_k
    return d


def deflated_residuals(g: float, e_noncluster, problem: PairingProblem,
                       k: int, m_k: int) -> np.ndarray:
    """Residuals of the deflated equations for the non-cluster energies."""
    e = np.asarray(e_noncluster, dtype=np.complex128)
    if e.size == 0:
        return e
    return kern.residuals(e, g, problem.eta2_array(),
                          deflated_d_array(problem, k, m_k))


def deflated_jacobian(g: float, e_noncluster, problem: PairingProblem,
                      k: int, m_k: int) -> np.ndarray:
    e = np.asarray(e_noncluster, dtype=np.complex128)
    return kern.jacobian(e, g, problem.eta2_array(),
                         deflated_d_array(problem, k, m_k))


def critical_residuals(g: float, e_noncluster, problem: PairingProblem,
                       k: int, m_k: int) -> np.ndarray:
    """Scaled determinant followed by the deflated residuals."""
    pn = pn_coefficients(problem, k, e_noncluster, m_k - 1)
    det = scaled_determinant(cluster_matrix(g, pn, m_k))
    defl = deflated_residuals(g, e_noncluster, problem, k, m_k)
    return np.concatenate(([complex(det)], defl))


# ---------------------------------------------------------------------------
# deflated branch bookkeeping
# ---------------------------------------------------------------------------

def deflated_occupation(problem: PairingProblem, branch, k: int, m_k: int,
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
    need = m_k
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


class _DeflatedBranch:
    """Adaptive continuation of the deflated system in g.

    Seeds at a tiny coupling from the deflated occupation and walks
    toward requested g values, halving the step when Newton struggles.
    `resume` continues from a stored (g, e) instead.
    """

    def __init__(self, problem, k, m_k, deflated_occ, *, g_init=None):
        self.problem = problem
        self.k = k
        self.m_k = m_k
        self.eta2 = problem.eta2_array()
        self.d_mod = deflated_d_array(problem, k, m_k)
        self.occ = deflated_occ
        self.min_step = 1e-7
        self._g_init = g_init if g_init is not None else \
            1e-3 * problem.mean_level_spacing()
        self.g = None
        self.e = None
        self.origin = None
        self._prev = None

    @classmethod
    def resume(cls, problem, k, m_k, g, e):
        """Branch continued from a stored grid state.  Safe in either
        direction within one grid cell, which contains no singular stretch
        of the walk that produced it."""
        branch = cls(problem, k, m_k, None)
        branch.g, branch.e = g, np.array(e, dtype=np.complex128)
        branch.min_step = 1e-9
        return branch

    def _start(self, direction):
        g0 = direction * abs(self._g_init)
        e0, origin = _weak_seed_arrays(self.eta2, self.d_mod,
                                       as_occupation(self.occ).counts, g0)
        e, ok, _, rn = newton_core(e0, g0, self.eta2, self.d_mod)
        if not ok:
            raise ContinuationError(
                f"deflated branch failed to converge at start g={g0:.3g} "
                f"(residual {rn:.2e})")
        self.g, self.e, self.origin = g0, e, origin

    def advance_to(self, g_target):
        """Continue the branch to g_target; returns the energies there."""
        if self.g is None:
            self._start(1 if g_target > 0 else -1)
        if self.e.size == 0:
            self.g = g_target
            return self.e
        while self.g != g_target:
            step = g_target - self.g
            while True:
                e_try, ok, _, _ = continuation_step(
                    self.e, self.g, self.g + step, self.eta2, self.d_mod,
                    self._prev)
                if ok:
                    break
                step *= 0.5
                if abs(step) < self.min_step:
                    raise ContinuationError(
                        f"deflated branch stalled near g={self.g:.6g} "
                        f"(level {self.k}, M_k={self.m_k})")
            self._prev = (self.g, self.e)
            self.g, self.e = self.g + step, e_try
        return self.e

    def det_at(self, g):
        e = self.advance_to(g)
        pn = pn_coefficients(self.problem, self.k, e, self.m_k - 1)
        return scaled_determinant(cluster_matrix(g, pn, self.m_k))


# ---------------------------------------------------------------------------
# Newton polish of the coupled system in (g, e_noncluster)
# ---------------------------------------------------------------------------

def _adjugate_sums(mat, dmat_list):
    """sum_pq C_pq * dA_pq for each dA in dmat_list, C the cofactor matrix."""
    n = mat.shape[0]
    cof = np.empty((n, n))
    for p in range(n):
        for q in range(n):
            minor = np.delete(np.delete(mat, p, axis=0), q, axis=1)
            cof[p, q] = (-1.0) ** (p + q) * (np.linalg.det(minor)
                                             if minor.size else 1.0)
    return [float((cof * dm).sum()) for dm in dmat_list]


def _det_row_derivatives(g, e_nc, problem, k, m_k):
    """Value and gradient of the raw determinant of the cluster matrix.

    Returns (det, d_det/dg, complex array d_det/de_b).  The matrix depends
    on g explicitly (all entries except the unit diagonal scale with g) and
    on e_b through P_n.
    """
    pn = pn_coefficients(problem, k, e_nc, m_k - 1)
    mat = cluster_matrix(g, pn, m_k)
    det = float(np.linalg.det(mat))
    dmat_dg = (mat - np.eye(m_k)) / g if g != 0 else cluster_matrix(1.0, pn, m_k) - np.eye(m_k)
    sums = _adjugate_sums(mat, [dmat_dg])
    ddet_dg = sums[0]
    eta2k = problem.eta2_array()[k]
    ddet_de = np.zeros(e_nc.shape[0], dtype=np.complex128)
    if e_nc.size:
        # dP_n/de_b = (n+1)/(2 eta_k - e_b)^(n+2)
        weights = []
        for b in range(e_nc.shape[0]):
            w = np.array([(n + 1) / (eta2k - e_nc[b]) ** (n + 2)
                          for n in range(m_k)])
            weights.append(w)
        # dA/dP_n has the sparsity of the P_n placement: diag for n=0,
        # upper diagonals for n>=1, all scaled by 4g
        placement = []
        for n in range(m_k):
            pl = np.zeros((m_k, m_k))
            for row in range(m_k - n):
                pl[row, row + n] = 4.0 * g
            placement.append(pl)
        psums = _adjugate_sums(mat, placement)
        for b in range(e_nc.shape[0]):
            ddet_de[b] = sum(psums[n] * weights[b][n] for n in range(m_k))
    return det, ddet_dg, ddet_de


def _row_norm_product(g, e_nc, problem, k, m_k):
    pn = pn_coefficients(problem, k, e_nc, m_k - 1)
    mat = cluster_matrix(g, pn, m_k)
    return float(np.prod(np.sqrt((mat * mat).sum(axis=1))))


def _polish_root(problem, k, m_k, g0, e0, g_lo, g_hi, *, tol=1e-12,
                 max_iter=60):
    """Newton on [scaled det; deflated residuals] in (g, Re e, Im e).

    The determinant row is rescaled by the row-norm product at the current
    iterate, which leaves the Newton step unchanged while making the
    convergence test meaningful.  g is clamped to the bracket.
    """
    eta2 = problem.eta2_array()
    d_mod = deflated_d_array(problem, k, m_k)
    g = float(g0)
    e = np.array(e0, dtype=np.complex128)
    nb = e.shape[0]

    def assemble(g, e):
        det, ddet_dg, ddet_de = _det_row_derivatives(g, e, problem, k, m_k)
        scale = _row_norm_product(g, e, problem, k, m_k)
        scale = scale if scale > 0 else 1.0
        size = 1 + 2 * nb
        F = np.empty(size)
        J = np.zeros((size, size))
        F[0] = det / scale
        J[0, 0] = ddet_dg / scale
        if nb:
            r = kern.residuals(e, g, eta2, d_mod)
            jc = kern.jacobian(e, g, eta2, d_mod)
            dr_dg = (r - 1.0) / g
            F[1::2] = r.real
            F[2::2] = r.imag
            J[0, 1::2] = ddet_de.real / scale
            J[0, 2::2] = -ddet_de.imag / scale
            J[1::2, 0] = dr_dg.real
            J[2::2, 0] = dr_dg.imag
            J[1::2, 1::2] = jc.real
            J[1::2, 2::2] = -jc.imag
            J[2::2, 1::2] = jc.imag
            J[2::2, 2::2] = jc.real
        return F, J

    F, J = assemble(g, e)
    fn = float(np.max(np.abs(F)))
    for _ in range(max_iter):
        if fn <= tol:
            break
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            raise UnresolvedRootError(
                f"singular polish system near g={g:.8g} (level {k})")
        lam, accepted = 1.0, False
        for _ in range(40):
            g_t = min(max(g + lam * step[0], min(g_lo, g_hi)),
                      max(g_lo, g_hi))
            e_t = e + lam * (step[1::2] + 1j * step[2::2]) if nb else e
            e_t = symmetrize_conjugate(e_t) if nb else e_t
            try:
                F_t, J_t = assemble(g_t, e_t)
            except (FloatingPointError, ZeroDivisionError):
                lam *= 0.5
                continue
            fn_t = float(np.max(np.abs(F_t)))
            if np.isfinite(fn_t) and (fn_t < fn or fn_t <= tol):
                g, e, F, J, fn = g_t, e_t, F_t, J_t, fn_t
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            break
    return g, e, fn


def _bisect_root(branch, g_lo, g_hi, det_lo, *, iters=80):
    """Pure bisection on the scaled determinant along the branch."""
    lo, hi = g_lo, g_hi
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        dm = branch.det_at(mid)
        if dm == 0.0:
            return mid
        if (dm > 0) == (det_lo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _build_point(problem, k, m_k, g_c, e_nc, branch_occ, deflated_occ,
                 origins) -> CriticalPoint:
    pn = pn_coefficients(problem, k, e_nc, max(2 * m_k - 1, m_k - 1))
    chi = chi_ratios(g_c, pn, m_k)
    eta2k = problem.eta2_array()[k]
    energy = m_k * eta2k + float(np.sum(e_nc.real))
    return CriticalPoint(
        g_c=float(g_c), k=k, m_k=m_k, e_noncluster=e_nc, chi=chi,
        energy=energy, occupation_label=as_occupation(branch_occ),
        deflated_occupation=as_occupation(deflated_occ),
        noncluster_origin=tuple(origins))


def _validate_point(point, problem):
    res = critical_residuals(point.g_c, point.e_noncluster, problem,
                             point.k, point.m_k)
    bad = float(np.max(np.abs(res)))
    if bad > RESIDUAL_TOL:
        raise UnresolvedRootError(
            f"critical point at g={point.g_c:.8g} fails validation "
            f"(residual {bad:.2e})")
    return point


def scan_critical(problem: PairingProblem, k: int, g_range, branch=None, *,
                  m_k=None, grid_points=None, deflated_occ=None,
                  g_init=None, refine_dips=True,
                  strict=False) -> list[CriticalPoint]:
    """All critical couplings for level k with g in (g_lo, g_hi).

    Walks the deflated branch over a uniform grid, brackets every sign
    change of the scaled determinant and polishes each root on the coupled
    system.  Cells where |det| dips sharply without a sign change are
    re-walked at 100x density to catch close root pairs.  Branch
    continuation failure truncates the scan with a TruncatedScanWarning.
    """
    g_lo, g_hi = sorted(g_range)
    if g_lo < 0 < g_hi:
        lower = scan_critical(problem, k, (g_lo, 0.0), branch, m_k=m_k,
                              grid_points=grid_points,
                              deflated_occ=deflated_occ, g_init=g_init,
                              refine_dips=refine_dips, strict=strict)
        upper = scan_critical(problem, k, (0.0, g_hi), branch, m_k=m_k,
                              grid_points=grid_points,
                              deflated_occ=deflated_occ, g_init=g_init,
                              refine_dips=refine_dips, strict=strict)
        return sorted(lower + upper, key=lambda p: p.g_c)

    direction = 1 if g_hi > 0 else -1
    far = g_hi if direction > 0 else g_lo
    near = g_lo if direction > 0 else g_hi
    if m_k is None:
        m_k = default_cluster_size(problem.levels[k])
    branch_occ = as_occupation(branch) if branch is not None \
        else ground_occupation(problem)
    if deflated_occ is None:
        deflated_occ = deflated_occupation(problem, branch_occ, k, m_k,
                                           direction)
    span = abs(far - near)
    if span == 0.0:
        return []
    if grid_points is None:
        grid_points = max(400, int(round(span * DEFAULT_GRID_PER_UNIT)))

    walker = _DeflatedBranch(problem, k, m_k, deflated_occ, g_init=g_init)
    start = direction * max(abs(near), abs(walker._g_init))
    grid = np.linspace(start, far, grid_points + 1)

    dets, stops, states = [], [], []
    try:
        for g in grid:
            dets.append(walker.det_at(g))
            stops.append(g)
            states.append(walker.e.copy())
    except ContinuationError as err:
        warnings.warn(f"scan truncated: {err}", TruncatedScanWarning,
                      stacklevel=2)
    if len(stops) < 2:
        return []

    brackets = _find_brackets(problem, k, m_k, np.array(stops),
                              np.array(dets), states, refine_dips)
    points = []
    for g_a, g_b, det_a, det_b, e_a in brackets:
        try:
            points.append(_polish_bracket(problem, k, m_k, g_a, g_b,
                                          det_a, det_b, e_a, branch_occ,
                                          deflated_occ, walker.origin))
        except UnresolvedRootError as err:
            if strict:
                raise
            # a deflated branch hopping at one of its own collapses can
            # flip the determinant sign with no zero in between
            warnings.warn(f"skipping spurious bracket: {err}",
                          TruncatedScanWarning, stacklevel=2)
    points.sort(key=lambda p: p.g_c)
    return points


def _find_brackets(problem, k, m_k, gs, dets, states, refine_dips):
    """Sign-change cells as (g_a, g_b, det_a, det_b, e_a); sharp |det| dips
    without a sign change are re-walked finely to catch close root pairs."""
    out = []
    signs = np.sign(dets)
    for i in range(len(gs) - 1):
        if signs[i + 1] == 0 or (signs[i] != 0 and signs[i] != signs[i + 1]):
            out.append((gs[i], gs[i + 1], dets[i], dets[i + 1], states[i]))
    if refine_dips:
        mags = np.abs(dets)
        for i in range(1, len(gs) - 1):
            sharp = mags[i] < 0.1 * min(mags[i - 1], mags[i + 1])
            if not sharp or signs[i - 1] != signs[i] or signs[i] != signs[i + 1]:
                continue
            # possible root pair inside (g_{i-1}, g_{i+1}); re-walk finely
            try:
                cw = _DeflatedBranch.resume(problem, k, m_k, gs[i - 1],
                                            states[i - 1])
                fine = np.linspace(gs[i - 1], gs[i + 1], 201)
                fdets, fstates = [], []
                for g in fine:
                    fdets.append(cw.det_at(g))
                    fstates.append(cw.e.copy())
            except ContinuationError:
                continue
            fsigns = np.sign(fdets)
            for j in range(len(fine) - 1):
                if fsigns[j] != fsigns[j + 1]:
                    out.append((fine[j], fine[j + 1], fdets[j],
                                fdets[j + 1], fstates[j]))
    out.sort(key=lambda t: min(t[0], t[1]))
    return out


def _polish_bracket(problem, k, m_k, g_a, g_b, det_a, det_b, e_a,
                    branch_occ, deflated_occ, origin):
    cell = _DeflatedBranch.resume(problem, k, m_k, g_a, e_a)
    if det_b == det_a:
        g_seed = 0.5 * (g_a + g_b)
    else:
        g_seed = g_a + (g_b - g_a) * det_a / (det_a - det_b)
    try:
        e_seed = cell.advance_to(g_seed)
    except ContinuationError:
        g_seed, e_seed = g_a, e_a
    try:
        g_c, e_nc, fn = _polish_root(problem, k, m_k, g_seed, e_seed,
                                     g_a, g_b)
        if fn > DET_TOL:
            raise UnresolvedRootError(
                f"polish stalled at residual {fn:.2e}")
    except UnresolvedRootError:
        cell = _DeflatedBranch.resume(problem, k, m_k, g_a, e_a)
        g_c = _bisect_root(cell, g_a, g_b, det_a)
        e_nc = cell.advance_to(g_c)
        res = critical_residuals(g_c, e_nc, problem, k, m_k)
        if float(np.max(np.abs(res))) > RESIDUAL_TOL:
            raise UnresolvedRootError(
                f"root in ({g_a:.8g}, {g_b:.8g}) for level {k} could not "
                f"be resolved: residual {float(np.max(np.abs(res))):.2e}")
    point = _build_point(problem, k, m_k, g_c, e_nc, branch_occ,
                         deflated_occ, origin)
    return _validate_point(point, problem)


def solve_critical(problem: PairingProblem, k: int, bracket, branch=None, *,
                   m_k=None, deflated_occ=None,
                   grid_points=None) -> CriticalPoint | None:
    """First critical point (nearest g=0) in the bracket, or None."""
    points = scan_critical(problem, k, bracket, branch, m_k=m_k,
                           deflated_occ=deflated_occ,
                           grid_points=grid_points, strict=True)
    if not points:
        return None
    return min(points, key=lambda p: abs(p.g_c))
