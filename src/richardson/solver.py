"""Richardson equation residuals, Jacobians and the damped Newton solver.

The nonlinear system solved here is, for each of the M pair energies e_a,

    1 - 4g sum_j d_j/(2 eta_j - e_a) + 4g sum_{b != a} 1/(e_a - e_b) = 0.

Solutions of this real-coefficient system come in complex-conjugate pairs;
the solver re-imposes that structure after every Newton step, which both
prevents drift and keeps the iteration on the physical branch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as kern
from .errors import (ConsistencyError, InitializationError,
                     SingularEvaluationError)
from .model import PairingProblem, as_occupation

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 200
NEWTON_MAX_HALVINGS = 30
IMAG_TOL = 1e-9


@dataclass(frozen=True)
class PairEnergies:
    """Ordered pair energies with the level each one tends to as g -> 0."""

    values: np.ndarray
    origin: tuple[int, ...]
    g: float

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.complex128)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "origin", tuple(self.origin))
        if len(self.origin) != vals.shape[0]:
            raise ValueError("origin labels must match the number of energies")

    def __len__(self):
        return self.values.shape[0]


@dataclass(frozen=True)
class SolveReport:
    converged: bool
    iterations: int
    residual_norm: float
    final: PairEnergies


# ---------------------------------------------------------------------------
# array-level core (shared with the deflated system in `critical`)
# ---------------------------------------------------------------------------

def find_poles(e, eta2):
    """Exact-zero denominators as (kind, i, j) triples; empty when clean."""
    e = np.asarray(e)
    hits = []
    lvl = eta2[None, :] - e[:, None]
    for a, j in zip(*np.nonzero(lvl == 0.0)):
        hits.append(("level", int(a), int(j)))
    pair = e[:, None] - e[None, :]
    np.fill_diagonal(pair, 1.0)
    for a, b in zip(*np.nonzero(pair == 0.0)):
        if a < b:
            hits.append(("pair", int(a), int(b)))
    return hits


def _raise_on_pole(e, eta2):
    hits = find_poles(e, eta2)
    if hits:
        raise SingularEvaluationError(
            f"singular evaluation: exact pole(s) at {hits}", hits)


def symmetrize_conjugate(values):
    """Greedy nearest-neighbor conjugate pairing; near-real values snap to real.

    Each value is matched to the unmatched value whose conjugate lies
    closest (possibly itself); pairs are replaced by (z + conj(z'))/2 and
    its conjugate, self-matches by their real part.
    """
    vals = np.array(values, dtype=np.complex128)
    todo = list(range(vals.shape[0]))
    while todo:
        i = todo.pop(0)
        best_j = i
        best = abs(vals[i] - np.conj(vals[i]))
        for j in todo:
            dist = abs(vals[i] - np.conj(vals[j]))
            if dist < best:
                best, best_j = dist, j
        if best_j == i:
            vals[i] = vals[i].real
        else:
            todo.remove(best_j)
            z = 0.5 * (vals[i] + np.conj(vals[best_j]))
            vals[i] = z
            vals[best_j] = np.conj(z)
    return vals


def newton_core(e0, g, eta2, d, *, tol=NEWTON_TOL, max_iter=NEWTON_MAX_ITER,
                max_halvings=NEWTON_MAX_HALVINGS, symmetrize=True,
                step_cap=None):
    """Damped Newton on the array-level system; returns (values, converged,
    iterations, residual_norm).  Never raises on non-convergence.

    Exact poles in the starting point raise SingularEvaluationError; a
    damped trial that lands on one has a non-finite residual and is
    rejected like any other.  A non-finite Newton step (an escaped iterate
    overflowing the Jacobian) ends the iteration.

    step_cap bounds the infinity norm of a single Newton step; useful for
    restarts near critical points, where an early ill-conditioned Jacobian
    can throw the iterate out of every basin.
    """
    e = symmetrize_conjugate(e0) if symmetrize else np.array(e0, dtype=np.complex128)
    _raise_on_pole(e, eta2)
    if e.shape[0] == 0:
        return e, True, 0, 0.0
    r = kern.residuals(e, g, eta2, d)
    rn = float(np.max(np.abs(r)))
    iters = 0
    while rn > tol and iters < max_iter:
        with np.errstate(all="ignore"):   # escaped iterates overflow
            jac = kern.jacobian(e, g, eta2, d)
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            break
        iters += 1
        if not np.all(np.isfinite(step)):
            break
        lam = 1.0
        if step_cap is not None:
            sn = float(np.max(np.abs(step)))
            if sn > step_cap:
                lam = step_cap / sn
        for _ in range(max_halvings + 1):
            with np.errstate(all="ignore"):   # wild trials may overflow
                trial = e + lam * step
                if symmetrize:
                    trial = symmetrize_conjugate(trial)
                rt = kern.residuals(trial, g, eta2, d)
                rtn = float(np.max(np.abs(rt)))
            if math.isfinite(rtn) and (rtn < rn or rtn <= tol):
                e, r, rn = trial, rt, rtn
                break
            lam *= 0.5
        else:
            break
    return e, rn <= tol, iters, rn


def continuation_step(e, g, g_next, eta2, d, prev=None, *, tol=NEWTON_TOL):
    """Newton solve at g_next that continues the solution e at g.

    Seeds from the secant through prev = (g_prev, e_prev) and (g, e) when
    that history exists, then from e itself; returns the newton_core
    result of the first converged attempt, or else of the last one.
    """
    seeds = [e]
    if prev is not None and prev[0] != g:
        slope = (e - prev[1]) / (g - prev[0])
        seeds.insert(0, e + slope * (g_next - g))
    for seed in seeds:
        out = newton_core(seed, g_next, eta2, d, tol=tol, max_iter=60)
        if out[1]:
            break
    return out


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def residuals(e: PairEnergies, problem: PairingProblem) -> np.ndarray:
    """Residual vector of the Richardson equations at problem.g."""
    eta2 = problem.eta2_array()
    _raise_on_pole(e.values, eta2)
    return kern.residuals(e.values, problem.g, eta2, problem.d_array())


def jacobian(e: PairEnergies, problem: PairingProblem) -> np.ndarray:
    """M x M analytic Jacobian d(residual_a)/d(e_b) at problem.g."""
    eta2 = problem.eta2_array()
    _raise_on_pole(e.values, eta2)
    return kern.jacobian(e.values, problem.g, eta2, problem.d_array())


def newton_solve(initial: PairEnergies, problem: PairingProblem, *,
                 tol=NEWTON_TOL, max_iter=NEWTON_MAX_ITER,
                 max_halvings=NEWTON_MAX_HALVINGS,
                 step_cap=None) -> SolveReport:
    """Solve the Richardson equations at problem.g starting from `initial`.

    Damping halves the step until the residual norm decreases; conjugate
    symmetry is re-imposed after every step.  Non-convergence is reported,
    not raised.
    """
    vals, ok, iters, rn = newton_core(
        initial.values, problem.g, problem.eta2_array(), problem.d_array(),
        tol=tol, max_iter=max_iter, max_halvings=max_halvings,
        step_cap=step_cap)
    return SolveReport(ok, iters, rn,
                       PairEnergies(vals, initial.origin, problem.g))


def restart_step_cap(problem: PairingProblem) -> float:
    """Step bound used for Newton solves seeded by tangent restarts."""
    eta2 = problem.eta2_array()
    if eta2.shape[0] < 2:
        return 1.0
    return 0.025 * float(np.min(np.diff(eta2)))


@functools.lru_cache(maxsize=256)
def _single_level_roots(d: float, m: int) -> tuple[complex, ...]:
    """Scaled solutions x of the reduced single-level system.

    Substituting e = 2 eta + 4 g x into
    1 - 4g d/(2 eta - e) + 4g sum 1/(e - e') = 0 removes g entirely:

        1 + d/x_a + sum_b 1/(x_a - x_b) = 0.

    When the x_a solve this, q(x) = prod (x - x_a) satisfies the ODE
    x q'' + 2(d + x) q' - 2m q = 0, which fixes the monic coefficients by a
    downward recurrence; the companion-matrix roots of q seed a Newton
    polish on the system itself (`newton_core` with one level at 0 and
    g = 1/4).  Cached per (d, m).
    """
    if m == 1:
        return (complex(-d),)
    # c_i = c_{i+1} (i+1)(i+2d) / (2(m-i)), highest power first for np.roots
    coeffs = np.empty(m + 1)
    coeffs[0] = 1.0
    for i in range(m - 1, -1, -1):
        coeffs[m - i] = coeffs[m - i - 1] * (i + 1) * (i + 2.0 * d) \
            / (2.0 * (m - i))
    seed = symmetrize_conjugate(np.roots(coeffs))
    if np.any(seed == 0.0):
        raise InitializationError(
            f"no single-level solution for d={d}, m={m} (capacity exceeded)")
    x, _, _, rn = newton_core(seed, 0.25, np.zeros(1), np.array([d]),
                              tol=1e-13)
    if rn > 1e-12:
        raise InitializationError(
            f"reduced single-level solve did not converge for d={d}, m={m} "
            f"(residual {rn:.2e}); try a smaller g_small")
    return tuple(x)


def init_weak_coupling(problem: PairingProblem, occupation, g_small: float, *,
                       g_max=None) -> PairEnergies:
    """Weak-coupling seed: m pair energies near 2 eta_j for each occupied level.

    Each level's energies come from the reduced single-level system solved
    by Newton from a small conjugate-symmetric circle around 2 eta_j.
    """
    occ = as_occupation(occupation).validate_for(problem)
    if g_max is None:
        g_max = 1e-3 * problem.mean_level_spacing()
    if not 0.0 < abs(g_small) <= g_max:
        raise ValueError(
            f"g_small={g_small} outside (0, {g_max:.3g}]; pass g_max to override")
    return PairEnergies(*_weak_seed_arrays(problem.eta2_array(),
                                           problem.d_array(), occ.counts,
                                           g_small),
                        g=g_small)


def _weak_seed_arrays(eta2, d, counts, g_small):
    values: list[complex] = []
    origin: list[int] = []
    for j, m in enumerate(counts):
        if m == 0:
            continue
        x = np.array(_single_level_roots(float(d[j]), int(m)))
        values.extend(eta2[j] + 4.0 * g_small * x)
        origin.extend([j] * m)
    return np.array(values, dtype=np.complex128), tuple(origin)


def total_energy(e: PairEnergies) -> float:
    """Real part of sum(e_a); raises if the imaginary part is not negligible."""
    s = complex(np.sum(e.values))
    if abs(s.imag) > IMAG_TOL:
        raise ConsistencyError(
            f"energy has imaginary part {s.imag:.3e} above {IMAG_TOL}")
    return s.real
