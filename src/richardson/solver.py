"""The damped Newton solver of the Richardson equations and its walker.

Every solve runs through `newton_rows`, one damped Newton over a stack of
rows, each with its own start and g; `newton_core`, one solve at fixed g,
is its one-row case.  `Walker` is the continuation of one solution in g.
All take the energies, g, 2 eta and d as arrays; the residuals and
Jacobians they evaluate are `_kernels.residuals` and `_kernels.jacobian`,
stacked.  `_weak_seed_arrays` gives the weak-coupling start.

The nonlinear system solved here is, for each of the M pair energies e_a,

    1 - 4g sum_j d_j/(2 eta_j - e_a) + 4g sum_{b != a} 1/(e_a - e_b) = 0.

Solutions of this real-coefficient system come in complex-conjugate pairs;
the solver re-imposes that structure after every Newton step, which both
prevents drift and keeps the iteration on the physical branch.

Newton is damped: a trial step is halved until the residual norm drops.
The full steps of all the rows cost one stacked residual pass.  Where one
fails, a complex trial pays one pass per halving; the real ones test all
their halvings in one batched pass.  A solve gives up, unconverged, when
the halvings run out or when 12 iterations in a row each needed more than
8 halvings (a crawl, in which the residual barely moves).  A walker step
whose first try fails solves all its halvings in one stack.
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
    ERANGE); a self-distance cannot overflow.  A real value matches itself
    without a search: its self-distance is 0 or NaN, which no distance
    beats; so all-real input skips the greedy.
    """
    arr = np.asarray(values, dtype=np.complex128)
    if not np.count_nonzero(arr.imag):
        return arr.real.astype(np.complex128)
    vals = arr.tolist()
    conj = [v.conjugate() for v in vals]
    todo = list(range(len(vals)))
    while todo:
        i = todo.pop(0)
        vi = vals[i]
        if not vi.imag:
            vals[i] = vi.real
            continue
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


def _symmetrize_rows(t):
    """`symmetrize_conjugate` of each row of t: real rows in one pass."""
    if len(t) == 1:
        return symmetrize_conjugate(t[0])[None]
    if not np.count_nonzero(t.imag):
        return t.real.astype(np.complex128)
    return np.array([symmetrize_conjugate(row) for row in t])


def newton_rows(e0, g, eta2, d, *, tol=NEWTON_TOL, max_iter=NEWTON_MAX_ITER,
                step_cap=None):
    """Damped Newton on a stack of rows, tried in order: row i solves from
    e0[i] (shape (R, M)) at g[i].  Returns the rows up to the first that
    converges (all, if none does) as an array, with lists of their
    convergence, iterations and residual norms; row i has the bits of
    `newton_core(e0[i], g[i], eta2, d, ...)`.  A row after a converged row
    is dropped once that row converges.

    Each iteration makes one stacked pass of Jacobian, solve and rung 0
    (the full, or step_cap-damped, step) over the rows still iterating; a
    row that fails rung 0 halves its trial (`_ladders`).  A row ends
    converged, out of iterations, at a singular Jacobian or a non-finite
    step (an escaped iterate), when no rung passes, or after a crawl:
    NEWTON_MAX_CRAWL iterations in a row that each needed more than
    NEWTON_CRAWL_HALVINGS halvings (halvings, not the damping factor, so a
    small step_cap is no crawl).  step_cap bounds the infinity norm of a
    step, for restarts near critical points, where an early
    ill-conditioned Jacobian can throw the iterate out of every basin.

    Only a start whose residual is not finite is scanned for exact poles.
    A row that has one raises SingularEvaluationError if no row before it
    converges, as one-row solves, in turn, would raise it.
    """
    e0 = np.asarray(e0, dtype=np.complex128)
    g = np.asarray(g, dtype=np.float64)
    n_rows, m = e0.shape
    e = _symmetrize_rows(e0)
    if m == 0:
        end = min(n_rows, 1)
        return e[:end], [True] * end, [0] * end, [0.0] * end
    # each row's g, as a column; a lone row's as a float, whose arithmetic
    # costs less than that of an array (the bits are the same)
    gcol = g[:, None] if n_rows > 1 else float(g[0])
    # poles and escaped iterates overflow the residuals and the Jacobian,
    # wild trials the residuals
    with np.errstate(all="ignore"):
        r, diff_lvl, inv = kern.residuals(e, gcol, eta2, d)
        rn = np.maximum.reduce(np.abs(r), axis=1)
        rn_l = rn.tolist()
        # an exact pole makes the residual non-finite; such a row stops at
        # once, and raises if the one-row solves, in turn, would reach it
        poles = [i for i, x in enumerate(rn_l)
                 if not math.isfinite(x) and find_poles(e[i], eta2)]
        # e, r, rn, ... hold the rows still iterating, idx their places and
        # n_it their iterations (less lag, 1 where a solve raised); Python
        # lists steer the loop, cheaper for one row than array reductions
        out_e, out_rn, iters = e, rn_l, [0] * n_rows
        idx = list(range(n_rows))
        lag = [0] * n_rows
        crawl = [0] * n_rows
        stop = [not x > tol or i in poles for i, x in enumerate(rn_l)]
        n_it = 0
        end = n_rows
        while True:
            if n_it == max_iter:
                stop = [True] * len(idx)
            if any(stop):
                ends = [i for i, s, x in zip(idx, stop, rn_l)
                        if s and (x <= tol or i in poles)]
                if ends and ends[0] < end:
                    end = ends[0] + 1
                    stop = [s or i >= end for i, s in zip(idx, stop)]
                if all(stop) and len(idx) == n_rows:
                    out_e, out_rn = e, rn_l
                    iters = [n_it - k for k in lag]
                    break
                for k, i in enumerate(idx):
                    if stop[k]:
                        out_e[i], out_rn[i] = e[k], rn_l[k]
                        iters[i] = n_it - lag[k]
                go = [k for k, s in enumerate(stop) if not s]
                if not go:
                    break
                idx, lag, crawl, rn_l = ([x[k] for k in go]
                                         for x in (idx, lag, crawl, rn_l))
                e, r, rn, diff_lvl, inv, g = (
                    x[go] for x in (e, r, rn, diff_lvl, inv, g))
                gcol = g[:, None]
            jac = kern.jacobian(gcol, d, diff_lvl, inv)
            n_it += 1
            try:
                step = np.linalg.solve(jac, -r[..., None])[..., 0]
            except np.linalg.LinAlgError:
                step = np.empty_like(r)
                for k in range(len(idx)):
                    try:
                        step[k] = np.linalg.solve(jac[k], -r[k])
                    except np.linalg.LinAlgError:
                        step[k], lag[k] = np.nan, 1
            ok = None
            if np.count_nonzero(np.isfinite(step)) < step.size:
                ok = np.isfinite(step).all(axis=1).tolist()
                step[[not x for x in ok]] = 0.0
            lam = 1.0
            if step_cap is not None:
                sn = np.maximum.reduce(np.abs(step), axis=1)
                lam = np.where(sn > step_cap, step_cap / sn, 1.0)[:, None]
            trial = _symmetrize_rows(e + lam * step)
            rt, diff_t, inv_t = kern.residuals(trial, gcol, eta2, d)
            rtn = np.maximum.reduce(np.abs(rt), axis=1)
            rtn_l = rtn.tolist()
            # a norm that is inf or NaN passes neither test
            passed = [x < y or x <= tol for x, y in zip(rtn_l, rn_l)]
            if ok is None and all(passed):
                if any(crawl):
                    crawl = [0] * len(idx)
                stop = [x <= tol for x in rtn_l]
            else:
                ok = ok or [True] * len(idx)
                halvings = [0 if p and o else -1 for p, o in zip(passed, ok)]
                _ladders([k for k, h in enumerate(halvings) if h and ok[k]],
                         halvings, e, step,
                         np.broadcast_to(lam, (len(idx), 1))[:, 0].tolist(),
                         rn_l, tol, g, eta2, d,
                         (trial, rt, rtn, diff_t, inv_t))
                lost = [k for k, h in enumerate(halvings) if h < 0]
                if lost:
                    for new, old in zip((trial, rt, rtn, diff_t, inv_t),
                                        (e, r, rn, diff_lvl, inv)):
                        new[lost] = old[lost]
                rtn_l = rtn.tolist()
                crawl = [c + 1 if h > NEWTON_CRAWL_HALVINGS else 0
                         for c, h in zip(crawl, halvings)]
                stop = [h < 0 or c == NEWTON_MAX_CRAWL or x <= tol
                        for h, c, x in zip(halvings, crawl, rtn_l)]
            e, r, rn, diff_lvl, inv, rn_l = trial, rt, rtn, diff_t, inv_t, \
                rtn_l
    if poles and poles[0] < end:
        _raise_on_pole(out_e[poles[0]], eta2)
    return (out_e[:end], [x <= tol for x in out_rn[:end]], iters[:end],
            out_rn[:end])


def _ladders(rows, halvings, e, step, lam, rn, tol, g, eta2, d, trials):
    """Halve the trials e + lam step of the listed rows, which failed rung
    0, until the residual norm passes the damping test against rn (lam and
    rn: lists over the rows).  A row's first passing rung h >= 1 goes into
    halvings and its trial, residuals, norm, diff_lvl and inv into that
    row of the arrays in trials.  The rungs of all real rows, whose trials
    stay real, are tested in one batched pass; a complex row tests its
    rungs one pass at a time.  The damping factors come from repeated
    halving, as a per-rung loop makes them.
    """
    n_h = NEWTON_MAX_HALVINGS
    if not rows or not n_h:
        return
    if not (np.count_nonzero(e.imag) or np.count_nonzero(step.imag)):
        ladder, single = rows, []
    else:
        cplx = [k for k in rows if np.count_nonzero(e[k].imag)
                or np.count_nonzero(step[k].imag)]
        ladder, single = [k for k in rows if k not in cplx], cplx
    if ladder:
        lams = np.full((len(ladder), n_h), 0.5)
        lams[:, 0] = [0.5 * lam[k] for k in ladder]
        np.multiply.accumulate(lams, axis=1, out=lams)
        t = (e[ladder, None] + lams[..., None]
             * step[ladder, None]).real.astype(np.complex128)
        out = kern.residuals(t, g[ladder, None, None], eta2, d)
        tn = np.maximum.reduce(np.abs(out[0]), axis=2)
        rn_col = np.array([rn[k] for k in ladder])[:, None]
        passed = (tn < rn_col) | (tn <= tol)
        for j, k in enumerate(ladder):
            hit = np.flatnonzero(passed[j])
            if hit.size:
                h = int(hit[0])
                halvings[k] = h + 1
                for dst, src in zip(trials, (t, out[0], tn) + out[1:]):
                    dst[k] = src[j, h]
    for k in single:
        e_k, step_k, g_k, lam_k = e[k], step[k], float(g[k]), lam[k]
        for h in range(1, n_h + 1):
            lam_k *= 0.5
            t = symmetrize_conjugate(e_k + lam_k * step_k)
            out = kern.residuals(t, g_k, eta2, d)
            tn = float(np.maximum.reduce(np.abs(out[0])))
            if tn < rn[k] or tn <= tol:
                halvings[k] = h
                for dst, src in zip(trials, (t, out[0], tn) + out[1:]):
                    dst[k] = src
                break


def newton_core(e0, g, eta2, d, *, tol=NEWTON_TOL, max_iter=NEWTON_MAX_ITER,
                step_cap=None):
    """Damped Newton on the array-level system from the energies e0 at g;
    returns (values, converged, iterations, residual_norm).  Never raises
    on non-convergence.  The one-row case of `newton_rows`, which has the
    damping, the exits and the pole check.
    """
    e, ok, iters, rn = newton_rows(
        np.asarray(e0, dtype=np.complex128)[None], [g], eta2, d, tol=tol,
        max_iter=max_iter, step_cap=step_cap)
    return e[0], ok[0], iters[0], rn[0]


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

    def _seeds(self, g_next):
        """Newton's seeds at g_next, in the order they are tried: the secant
        through prev and (g, e) when that history exists, then e itself."""
        seeds = [self.e]
        if self.prev is not None and self.prev[0] != self.g:
            slope = (self.e - self.prev[1]) / (self.g - self.prev[0])
            seeds.insert(0, self.e + slope * (g_next - self.g))
        return seeds

    def _solve(self, g_next):
        """The newton_core result at g_next of the first seed that
        converges, or else of the last one."""
        if self.e.size == 0:
            return self.e, True, 0, 0.0
        for seed in self._seeds(g_next):
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

        When the first try fails, all the halvings down to min_step, each
        with `_solve`'s seeds in order, are solved in one `newton_rows`
        stack, which stops at its first converged row: the step, seed and
        bits that trying them one by one accepts.
        """
        step = g_to - self.g if step is None else step
        g_next = self.g + step
        if (g_next - g_to) * step >= 0:
            g_next = g_to
        e, ok, iters, rn = self._solve(g_next)
        if not ok:
            tries = []
            while True:
                step = 0.5 * (g_next - self.g if math.isinf(step) else step)
                if not abs(step) >= self.min_step:      # NaN stops too
                    break
                g_next = self.g + step
                if (g_next - g_to) * step >= 0:
                    g_next = g_to
                tries.append((step, g_next))
            if tries:
                seeds = [self._seeds(g_n) for _, g_n in tries]
                es, oks, its, rns = newton_rows(
                    [s for row in seeds for s in row],
                    [g_n for (_, g_n), row in zip(tries, seeds) for _ in row],
                    self.eta2, self.d, max_iter=60)
                step, g_next = tries[(len(oks) - 1) // len(seeds[0])]
                e, ok, iters, rn = es[-1], oks[-1], its[-1], rns[-1]
            if not ok:
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
