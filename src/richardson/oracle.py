"""Exact diagonalization of the pairing Hamiltonian in the seniority-0 basis.

Reference spectra for small instances.  The pairing coupling is fixed so
that the one-pair spectrum coincides with the roots of

    1 = 4g sum_j d_j / (2 eta_j - e),

i.e. the Hamiltonian used is H = sum_j 2 eta_j n_j + 2g B^dag B with
B^dag = sum_j B^dag_j the collective pair creation operator.  That pins the
mapping between the Hamiltonian coupling and the g of the Richardson
equations; the solver treats the latter as primary.
"""

from __future__ import annotations

import numpy as np

from .errors import OracleDimensionError
from .model import PairingProblem, excited_occupations

DIMENSION_GUARD = 20000


def pair_basis(problem: PairingProblem) -> list[tuple[int, ...]]:
    """All seniority-0 occupation vectors with sum M, lexicographic order."""
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
    """basis_dimension(problem); raises ValueError for seniority > 0 and
    OracleDimensionError above DIMENSION_GUARD, enumerating nothing."""
    if any(lv.nu != 0 for lv in problem.levels):
        raise ValueError("oracle handles seniority-0 problems only")
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


def _diagonal(problem: PairingProblem, states: np.ndarray) -> np.ndarray:
    """H's diagonal: sum_j 2 eta_j n_j + 2g sum_j n_j (Omega_j/2 - n_j + 1),
    the first sum accumulated level by level."""
    eta2 = problem.eta2_array()
    caps = np.array(problem.capacities(), dtype=np.int64)
    diag = np.zeros(states.shape[0])
    for j in range(states.shape[1]):
        diag += eta2[j] * states[:, j]
    return diag + 2.0 * problem.g * (states * (caps - states + 1)).sum(axis=1)


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


def hamiltonian(problem: PairingProblem) -> np.ndarray:
    """Dense symmetric pairing Hamiltonian in the seniority-0 pair basis.

    Built over all states at once, one source level jp at a time: the hop
    that moves a pair from level jp to level j has the value
    (2g sqrt((n_j + 1)(Omega_j/2 - n_j))) sqrt(n_jp (Omega_jp/2 - n_jp + 1)).
    The basis is in lexicographic order, so a state's row is its
    `_lex_ranks` rank.
    """
    states = _states(problem)
    dim, n_levels = states.shape
    caps = np.array(problem.capacities(), dtype=np.int64)
    g2 = 2.0 * problem.g
    h = np.zeros((dim, dim))
    h[np.diag_indices(dim)] = _diagonal(problem, states)
    down = np.sqrt(states * (caps - states + 1))      # annihilate on jp
    up = np.sqrt((states + 1) * (caps - states))       # create on j
    others = np.arange(n_levels)
    for jp in range(n_levels):
        # every hop from level jp: (state, level j that takes the pair)
        src, j = np.nonzero((states[:, jp:jp + 1] > 0) & (states < caps)
                            & (others != jp))
        target = states[src]
        hop = np.arange(src.size)
        target[hop, jp] -= 1
        target[hop, j] += 1
        dst = _lex_ranks(target, caps, problem.m_pairs)
        h[dst, src] += g2 * up[src, j] * down[src, jp]
    return h


def exact_spectrum(problem: PairingProblem) -> np.ndarray:
    """All eigenvalues of the seniority-0 pairing Hamiltonian, ascending.

    At g = 0 the Hamiltonian is diagonal, and its sorted diagonal is what
    `eigvalsh` returns for it, bit for bit, without the O(dim^3) solve.
    """
    if problem.g == 0.0:
        return np.sort(_diagonal(problem, _states(problem)))
    return np.linalg.eigvalsh(hamiltonian(problem))
