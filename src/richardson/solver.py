"""The damped Newton solver of the Richardson equations and its walker.

Every solve runs through two array-level entries: `newton_core`, one
damped Newton solve at fixed g, and `Walker`, the continuation of one
solution in g.  Both take the energies, g, 2 eta and d as arrays; the
residuals and Jacobians they evaluate are `_kernels.residuals` and
`_kernels.jacobian`.  `_weak_seed_arrays` gives the weak-coupling start.

The nonlinear system solved here is, for each of the M pair energies e_a,

    1 - 4g sum_j d_j/(2 eta_j - e_a) + 4g sum_{b != a} 1/(e_a - e_b) = 0.

Solutions of this real-coefficient system come in complex-conjugate pairs;
the solver re-imposes that structure after every Newton step, which both
prevents drift and keeps the iteration on the physical branch.

Newton is damped: a trial step is halved until the residual norm drops.
The full step costs one residual pass.  When it fails, a complex trial
pays one pass per halving; a real one tests all its halvings in one
batched pass.  A solve gives up, unconverged, when the halvings run out
or when 12 iterations in a row each needed more than 8 halvings (a crawl,
in which the residual barely moves).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as kern
from .errors import (ContinuationError, InitializationError,
                     SingularEvaluationError)
from .model import PairingProblem

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 200
NEWTON_MAX_HALVINGS = 30
# a crawling iteration accepts its trial only after more than this many
# halvings; this many crawling iterations in a row end the solve
NEWTON_CRAWL_HALVINGS = 8
NEWTON_MAX_CRAWL = 12
IMAG_TOL = 1e-9


@dataclass(frozen=True)
class PairEnergies:
    """Ordered pair energies with the level each one tends to as g -> 0."""

    values: np.ndarray
    origin: tuple[int, ...]

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.complex128)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "origin", tuple(self.origin))
        if len(self.origin) != vals.shape[0]:
            raise ValueError("origin labels must match the number of energies")

    def __len__(self):
        return self.values.shape[0]


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
            f"singular evaluation: exact pole(s) at {hits}")


def symmetrize_conjugate(values):
    """Greedy nearest-neighbor conjugate pairing; near-real values snap to real.

    Each value is matched to the unmatched value whose conjugate lies
    closest (possibly itself); pairs are replaced by (z + conj(z'))/2 and
    its conjugate, self-matches by their real part.  Python complex abs is
    numpy's scalar hypot, except that it raises OverflowError where numpy
    gives inf (overflow) or NaN (a NaN part while errno holds a stale
    ERANGE); a self-distance cannot overflow.  All-real input skips the
    greedy: every self-distance is 0 or NaN, which no distance beats.
    """
    arr = np.asarray(values, dtype=np.complex128)
    if not arr.imag.any():
        return arr.real.astype(np.complex128)
    vals = arr.tolist()
    conj = [v.conjugate() for v in vals]
    todo = list(range(len(vals)))
    while todo:
        i = todo.pop(0)
        vi = vals[i]
        best_j = i
        try:
            best = abs(vi - conj[i])
        except OverflowError:
            best = math.nan
        for j in todo:
            try:
                dist = abs(vi - conj[j])
            except OverflowError:   # inf or NaN: never a better match
                dist = math.inf
            if dist < best:
                best, best_j = dist, j
        if best_j == i:
            vals[i] = vi.real
        else:
            todo.remove(best_j)
            z = 0.5 * (vi + conj[best_j])
            vals[i] = z
            vals[best_j] = z.conjugate()
    return np.array(vals, dtype=np.complex128)


def newton_core(e0, g, eta2, d, *, tol=NEWTON_TOL, max_iter=NEWTON_MAX_ITER,
                step_cap=None):
    """Damped Newton on the array-level system; returns (values, converged,
    iterations, residual_norm).  Never raises on non-convergence.

    The accepted trial's residual pass (`_kernels.residuals`) also yields
    the arrays its Jacobian is built from.  The damping ladder costs one
    pass for the full step, then one per halving of a complex trial, or
    one batched pass for all the halvings of a real one; both accept the
    same trial (`_damped_trial`).  Exact poles in the starting point
    raise SingularEvaluationError; an exact pole always makes the residual
    non-finite, so the start is scanned for poles (`find_poles`) only when
    its residual is not finite.  A damped trial that lands on a pole has a
    non-finite residual and is rejected like any other.  A non-finite
    Newton step (an escaped iterate overflowing the Jacobian) ends the
    iteration.  So does a crawl: NEWTON_MAX_CRAWL iterations in a row whose
    accepted trial needed more than NEWTON_CRAWL_HALVINGS halvings.  The
    halvings are counted, not the damping factor, so a small step_cap
    alone does not make an iteration crawl.

    step_cap bounds the infinity norm of a single Newton step; useful for
    restarts near critical points, where an early ill-conditioned Jacobian
    can throw the iterate out of every basin.
    """
    e = symmetrize_conjugate(e0)
    if e.shape[0] == 0:
        return e, True, 0, 0.0
    iters = 0
    # poles and escaped iterates overflow the residuals and the Jacobian,
    # wild trials the residuals
    with np.errstate(all="ignore"):
        r, diff_lvl, inv = kern.residuals(e, g, eta2, d)
        rn = float(np.maximum.reduce(np.abs(r)))
        if not math.isfinite(rn):
            _raise_on_pole(e, eta2)
        crawl = 0
        while rn > tol and iters < max_iter:
            jac = kern.jacobian(g, d, diff_lvl, inv)
            try:
                step = np.linalg.solve(jac, -r)
            except np.linalg.LinAlgError:
                break
            iters += 1
            if not np.isfinite(step).all():
                break
            lam = 1.0
            if step_cap is not None:
                sn = float(np.maximum.reduce(np.abs(step)))
                if sn > step_cap:
                    lam = step_cap / sn
            accepted = _damped_trial(e, step, lam, rn, tol, g, eta2, d)
            if accepted is None:
                break
            halvings, e, r, rn, diff_lvl, inv = accepted
            crawl = crawl + 1 if halvings > NEWTON_CRAWL_HALVINGS else 0
            if crawl == NEWTON_MAX_CRAWL:
                break
    return e, rn <= tol, iters, rn


def _damped_trial(e, step, lam, rn, tol, g, eta2, d):
    """The first trial e + lam 2^-h step, h = 0..NEWTON_MAX_HALVINGS, whose
    residual norm passes the damping test, as (h, trial, residuals, norm,
    diff_lvl, inv); None when no rung passes.

    Rung 0, and each later rung of a complex trial, costs one residual
    pass.  When e and step are real, every trial is real and
    `symmetrize_conjugate` would only keep its real part, so rungs 1..
    NEWTON_MAX_HALVINGS are tested in one batched pass.  Their damping
    factors come from repeated halving, as the per-rung loop makes them,
    and each row of the batch has the bits of its own pass.
    """
    for h in range(NEWTON_MAX_HALVINGS + 1):
        if h == 1 and not (e.imag.any() or step.imag.any()):
            lams = np.full(NEWTON_MAX_HALVINGS, 0.5)
            lams[0] = lam
            np.multiply.accumulate(lams, out=lams)
            trials = (e + lams[:, None] * step).real.astype(np.complex128)
            rt, diff_t, inv_t = kern.residuals(trials, g, eta2, d)
            rtn = np.maximum.reduce(np.abs(rt), axis=1)
            passed = np.flatnonzero(np.isfinite(rtn)
                                    & ((rtn < rn) | (rtn <= tol)))
            if passed.size == 0:
                return None
            i = int(passed[0])
            return (i + 1, trials[i], rt[i], float(rtn[i]), diff_t[i],
                    inv_t[i])
        trial = symmetrize_conjugate(e + lam * step)
        rt, diff_t, inv_t = kern.residuals(trial, g, eta2, d)
        rtn = float(np.maximum.reduce(np.abs(rt)))
        if math.isfinite(rtn) and (rtn < rn or rtn <= tol):
            return h, trial, rt, rtn, diff_t, inv_t
        lam *= 0.5
    return None


class Walker:
    """Continuation of one solution of the system (eta2, d) in g.

    Holds the state (g, e), the state before the last accepted step (prev,
    which feeds the secant predictor) and min_step, the smallest step worth
    trying; `name` labels its errors.  Every continuation in g, the
    deflated scans in `critical` and the sweep and restart walk-out in
    `continuation`, runs through `step_toward`, the only place a
    continuation step is halved.
    """

    def __init__(self, eta2, d, g, e, *, min_step, name):
        self.eta2 = eta2
        self.d = d
        self.min_step = min_step
        self.name = name
        self.g = g
        self.e = np.asarray(e, dtype=np.complex128)
        self.prev = None

    @classmethod
    def weak_start(cls, eta2, d, counts, g0, *, min_step, name):
        """Walker converged at the weak coupling g0 from the single-level
        seeds of the occupation counts; returns (walker, origin labels,
        residual norm)."""
        e0, origin = _weak_seed_arrays(eta2, d, counts, g0)
        e, ok, _, rn = newton_core(e0, g0, eta2, d)
        if not ok:
            raise ContinuationError(
                f"{name} could not converge its weak-coupling start at "
                f"g={g0:.3g} (residual {rn:.2e})")
        return cls(eta2, d, g0, e, min_step=min_step, name=name), origin, rn

    def _solve(self, g_next):
        """Newton at g_next seeded from the secant through prev and (g, e)
        when that history exists, then from e itself; the newton_core
        result of the first converged attempt, or else of the last one."""
        if self.e.size == 0:
            return self.e, True, 0, 0.0
        seeds = [self.e]
        if self.prev is not None and self.prev[0] != self.g:
            slope = (self.e - self.prev[1]) / (self.g - self.prev[0])
            seeds.insert(0, self.e + slope * (g_next - self.g))
        for seed in seeds:
            out = newton_core(seed, g_next, self.eta2, self.d, max_iter=60)
            if out[1]:
                break
        return out

    def step_toward(self, g_to, step=None):
        """Make one accepted step toward g_to and return (step, iterations,
        residual norm) of it.

        Tries g + step (default: the whole remaining distance), clamped at
        g_to, and halves the step while Newton fails (an infinite one from
        the distance tried).  Once the step falls below min_step, or is NaN,
        it raises ContinuationError and leaves the state as it was.
        """
        step = g_to - self.g if step is None else step
        while True:
            g_next = self.g + step
            if (g_next - g_to) * step >= 0:
                g_next = g_to
            e, ok, iters, rn = self._solve(g_next)
            if ok:
                break
            step = 0.5 * (g_next - self.g if math.isinf(step) else step)
            if not abs(step) >= self.min_step:      # NaN stops too
                raise ContinuationError(
                    f"{self.name} stalled near g={self.g:.8g} "
                    f"(residual {rn:.2e})")
        self.prev = (self.g, self.e)
        self.g, self.e = g_next, e
        return step, iters, rn

    def advance_to(self, g_to):
        """Step until the walker stands at g_to; returns the energies there."""
        while self.g != g_to:
            self.step_toward(g_to)
        return self.e


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


def weak_coupling_g(problem: PairingProblem) -> float:
    """The weak coupling |g| that walks start at: 1e-3 of the mean level
    spacing.  Sweeps and scans seed there (`Walker.weak_start`)."""
    return 1e-3 * problem.mean_level_spacing()


def _weak_seed_arrays(eta2, d, counts, g_small):
    """Weak-coupling seed at g_small as (values, origin labels): m pair
    energies near 2 eta_j for each level j that holds m pairs, from the
    roots of the reduced single-level system (`_single_level_roots`)."""
    values: list[complex] = []
    origin: list[int] = []
    for j, m in enumerate(counts):
        if m == 0:
            continue
        x = np.array(_single_level_roots(float(d[j]), int(m)))
        values.extend(eta2[j] + 4.0 * g_small * x)
        origin.extend([j] * m)
    return np.array(values, dtype=np.complex128), tuple(origin)
