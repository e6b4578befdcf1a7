"""Exact diagonalization of the pairing Hamiltonian in its pair basis.

Reference spectra for small instances.  A level of seniority nu enters
only through d = nu/2 - Omega/4, as the seniority-0 level of its
Omega - 2 nu unblocked states does; it holds their pairs, at most
c_j = `Level.pair_capacity`, and the unpaired particles' constant energy
is left out (odd Omega - 2 nu is refused).  The coupling g is fixed so
that the one-pair spectrum coincides with the roots of

    1 = 4g sum_j d_j / (2 eta_j - e),

i.e. the Hamiltonian used is H = sum_j 2 eta_j n_j + 2g B^dag B with
B^dag = sum_j B^dag_j the collective pair creation operator.  That pins the
mapping between the Hamiltonian coupling and the g of the Richardson
equations; the solver treats the latter as primary.
"""

from __future__ import annotations

import numpy as np

from .errors import OracleConvergenceError, OracleDimensionError
from .model import PairingProblem, excited_occupations

DIMENSION_GUARD = 20000
# `ground_energy`: stop when the Ritz residual bound is below this times
# max(1, |E|); give up after this many Lanczos steps
LANCZOS_TOL = 1e-13
LANCZOS_MAX_STEPS = 300


def pair_basis(problem: PairingProblem) -> list[tuple[int, ...]]:
    """All pair occupation vectors with sum M, lexicographic order."""
    return [occ.counts
            for occ in excited_occupations(problem, problem.m_pairs)]


def basis_dimension(problem: PairingProblem) -> int:
    """len(pair_basis(problem)), counted by dynamic programming over the
    capacities instead of enumerating the states."""
    ways = [1] + [0] * problem.m_pairs     # ways[m]: states holding m pairs
    for cap in problem.capacities():
        ways = [sum(ways[m - c] for c in range(min(cap, m) + 1))
                for m in range(len(ways))]
    return ways[-1]


def checked_dimension(problem: PairingProblem) -> int:
    """basis_dimension(problem), enumerating nothing; raises ValueError on
    odd Omega - 2 nu and OracleDimensionError above DIMENSION_GUARD."""
    for lv in problem.levels:
        if (free := lv.omega - 2 * lv.nu) % 2:
            raise ValueError(f"oracle: {lv} has odd Omega - 2 nu = {free}")
    dim = basis_dimension(problem)
    if dim > DIMENSION_GUARD:
        raise OracleDimensionError(
            f"pair basis dimension {dim} exceeds guard {DIMENSION_GUARD}")
    return dim


def _states(problem: PairingProblem) -> np.ndarray:
    """pair_basis(problem) as a (dimension, n_levels) integer array, after
    the guards of checked_dimension."""
    dim = checked_dimension(problem)
    return np.array(pair_basis(problem), dtype=np.int64).reshape(
        dim, problem.n_levels)


def _diagonal(problem: PairingProblem, g: float, states: np.ndarray):
    """H's diagonal: sum_j 2 eta_j n_j + 2g sum_j n_j (c_j - n_j + 1),
    the first sum accumulated level by level."""
    eta2 = problem.eta2_array()
    caps = np.array(problem.capacities(), dtype=np.int64)
    diag = np.zeros(states.shape[0])
    for j in range(states.shape[1]):
        diag += eta2[j] * states[:, j]
    return diag + 2.0 * g * (states * (caps - states + 1)).sum(axis=1)


def _lex_ranks(states: np.ndarray, caps, m_pairs: int) -> np.ndarray:
    """Position of each row of `states` among all occupation vectors with
    these capacities and m_pairs pairs, in ascending lexicographic order.
    Counted level by level, so every rank lies below the basis dimension
    whatever the number of levels."""
    n_levels = len(caps)
    # tail[j, m]: vectors of levels j.. holding m pairs
    tail = np.zeros((n_levels + 1, m_pairs + 1), dtype=np.int64)
    tail[n_levels, 0] = 1
    for j in reversed(range(n_levels)):
        for c in range(min(caps[j], m_pairs) + 1):
            tail[j, c:] += tail[j + 1, :m_pairs + 1 - c]
    # below[j, m]: sum of tail[j, :m]
    below = np.zeros((n_levels + 1, m_pairs + 2), dtype=np.int64)
    np.cumsum(tail, axis=1, out=below[:, 1:])
    rank = np.zeros(states.shape[0], dtype=np.int64)
    left = np.full(states.shape[0], m_pairs)
    for j in range(n_levels):
        # the vectors that agree before level j and hold fewer pairs on it
        n = states[:, j]
        rank += below[j + 1, left + 1] - below[j + 1, left - n + 1]
        left = left - n
    return rank


def _hops(problem: PairingProblem, g: float):
    """H(g) in coordinate form: (diag, dst, src, val), its diagonal and one
    entry H[dst, src] = val for every hop, no (dst, src) twice.

    Built over all states at once, one source level jp at a time: the hop
    that moves a pair from level jp to level j has the value
    (2g sqrt((n_j + 1)(c_j - n_j))) sqrt(n_jp (c_jp - n_jp + 1)).
    The basis is in lexicographic order, so a state's row is its
    `_lex_ranks` rank.
    """
    states = _states(problem)
    n_levels = states.shape[1]
    caps = np.array(problem.capacities(), dtype=np.int64)
    g2 = 2.0 * g
    down = np.sqrt(states * (caps - states + 1))      # annihilate on jp
    up = np.sqrt((states + 1) * (caps - states))       # create on j
    others = np.arange(n_levels)
    dsts, srcs, vals = [], [], []
    for jp in range(n_levels):
        # every hop from level jp: (state, level j that takes the pair)
        src, j = np.nonzero((states[:, jp:jp + 1] > 0) & (states < caps)
                            & (others != jp))
        target = states[src]
        hop = np.arange(src.size)
        target[hop, jp] -= 1
        target[hop, j] += 1
        dsts.append(_lex_ranks(target, caps, problem.m_pairs))
        srcs.append(src)
        vals.append(g2 * up[src, j] * down[src, jp])
    return (_diagonal(problem, g, states), np.concatenate(dsts),
            np.concatenate(srcs), np.concatenate(vals))


def hamiltonian(problem: PairingProblem, g: float) -> np.ndarray:
    """Dense symmetric Hamiltonian H(g) in the pair basis, from `_hops`."""
    diag, dst, src, val = _hops(problem, g)
    h = np.zeros((diag.size, diag.size))
    h[np.diag_indices(diag.size)] = diag
    h[dst, src] += val
    return h


def exact_spectrum(problem: PairingProblem, g: float) -> np.ndarray:
    """All eigenvalues of the pairing Hamiltonian at coupling g, ascending.

    At g = 0 the Hamiltonian is diagonal, and its sorted diagonal is what
    `eigvalsh` returns for it, bit for bit, without the O(dim^3) solve.
    """
    if g == 0.0:
        return np.sort(_diagonal(problem, g, _states(problem)))
    return np.linalg.eigvalsh(hamiltonian(problem, g))


def ground_energy(problem: PairingProblem, g: float) -> float:
    """Lowest eigenvalue of the pairing Hamiltonian at coupling g.

    Lanczos with full reorthogonalization on H applied from `_hops`, so no
    dense matrix is built.  The start vector comes from a fixed seed, so
    the result repeats bit for bit.  It stops once the lowest Ritz value's
    residual bound beta_k |s_k0| is at most LANCZOS_TOL max(1, |theta_0|),
    or once the Krylov space spans the basis, where the Ritz value is
    exact; after LANCZOS_MAX_STEPS steps without either it raises
    OracleConvergenceError.  At g = 0 it is the smallest diagonal entry.
    """
    if g == 0.0:
        return float(np.min(_diagonal(problem, g, _states(problem))))
    diag, dst, src, val = _hops(problem, g)
    dim = diag.size
    steps = min(dim, LANCZOS_MAX_STEPS)
    basis = np.empty((steps, dim))
    q = np.random.default_rng(0).standard_normal(dim)
    q /= np.linalg.norm(q)
    alpha, beta = [], []
    for k in range(steps):
        basis[k] = q
        w = diag * q + np.bincount(dst, weights=val * q[src], minlength=dim)
        alpha.append(float(q @ w))
        for _ in range(2):      # classical Gram-Schmidt, twice
            w -= basis[:k + 1].T @ (basis[:k + 1] @ w)
        b = float(np.linalg.norm(w))
        theta, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1)
                                  + np.diag(beta, -1))
        if b * abs(s[-1, 0]) <= LANCZOS_TOL * max(1.0, abs(theta[0])) \
                or k + 1 == dim:
            return float(theta[0])
        beta.append(b)
        q = w / b
    raise OracleConvergenceError(
        f"Lanczos did not converge in {steps} steps on dimension {dim} "
        f"(residual bound {b * abs(s[-1, 0]):.2e})")
