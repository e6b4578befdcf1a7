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
            f"pair basis dimension {dim} exceeds guard {DIMENSION_GUARD}", dim)
    return dim


def hamiltonian(problem: PairingProblem) -> np.ndarray:
    """Dense symmetric pairing Hamiltonian in the seniority-0 pair basis."""
    dim = checked_dimension(problem)
    basis = pair_basis(problem)
    index = {state: i for i, state in enumerate(basis)}
    eta2 = problem.eta2_array()
    caps = problem.capacities()
    g2 = 2.0 * problem.g
    h = np.zeros((dim, dim))
    for s, n in enumerate(basis):
        diag = sum(eta2[j] * nj for j, nj in enumerate(n))
        diag += g2 * sum(nj * (caps[j] - nj + 1) for j, nj in enumerate(n))
        h[s, s] = diag
        for jp in range(len(n)):          # annihilate a pair on jp
            if n[jp] == 0:
                continue
            down = np.sqrt(n[jp] * (caps[jp] - n[jp] + 1))
            for j in range(len(n)):       # create it on j
                if j == jp or n[j] >= caps[j]:
                    continue
                up = np.sqrt((n[j] + 1) * (caps[j] - n[j]))
                target = list(n)
                target[jp] -= 1
                target[j] += 1
                t = index[tuple(target)]
                h[t, s] += g2 * up * down
    return h


def exact_spectrum(problem: PairingProblem) -> np.ndarray:
    """All eigenvalues of the seniority-0 pairing Hamiltonian, ascending."""
    return np.linalg.eigvalsh(hamiltonian(problem))
