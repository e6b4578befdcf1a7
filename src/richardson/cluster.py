"""Cluster variables: power sums S_p, coefficients P_n, and limit ratios chi_p.

Near a critical coupling a cluster of M_k = 1 - 2 d_k pair energies
collapses onto 2 eta_k.  The power sums S_p = sum (2 eta_k - e_a)^p are the
smooth real coordinates of that cluster; P_n collects the inverse-power
sums over the other levels and the non-collapsing energies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels as kern
from .errors import (ConsistencyError, DegenerateNullSpaceError,
                     SingularEvaluationError)
from .model import Level, PairingProblem
from .solver import IMAG_TOL


@dataclass(frozen=True)
class PowerSums:
    """S_1..S_pmax anchored at 2 eta_k; S_0 = M_k is implicit."""

    s: np.ndarray

    def __post_init__(self):
        arr = np.array(self.s, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "s", arr)


@dataclass(frozen=True)
class PnCoefficients:
    """P_0..P_nmax anchored at level k."""

    p: np.ndarray
    k_ref: int

    def __post_init__(self):
        arr = np.array(self.p, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "p", arr)


def default_cluster_size(level: Level) -> int:
    """M_k = 1 - 2 d_k; asserts that the value is a positive integer."""
    m = 1.0 - 2.0 * level.d
    m_int = round(m)
    if abs(m - m_int) > 1e-12 or m_int < 1:
        raise ValueError(
            f"cluster condition M_k = 1 - 2 d_k = {m} is not a positive "
            f"integer for level {level}")
    return int(m_int)


def power_sums(e_cluster, eta_k: float, p_max: int, *,
               atol=IMAG_TOL) -> PowerSums:
    """S_p = sum_{a in cluster} (2 eta_k - e_a)^p for p = 1..p_max."""
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    offs = 2.0 * eta_k - np.asarray(e_cluster, dtype=np.complex128)
    out = np.empty(p_max, dtype=float)
    term = offs.copy()
    for p in range(1, p_max + 1):
        s = term.sum()
        if abs(s.imag) > atol:
            raise ConsistencyError(
                f"S_{p} imaginary residue {s.imag:.3e} exceeds {atol}; "
                "cluster is not conjugate-closed")
        out[p - 1] = s.real
        term = term * offs
    return PowerSums(out)


def pn_coefficients(problem: PairingProblem, k: int, e_noncluster,
                    n_max: int, *, atol=IMAG_TOL) -> PnCoefficients:
    """P_n per the cluster expansion, n = 0..n_max, real parts.

    P_n = sum_{j != k} d_j/(2eta_k - 2eta_j)^(n+1)
        + sum_{b not in C_k} 1/(2eta_k - e_b)^(n+1)
    """
    eta2 = problem.eta2_array()
    e_nc = np.asarray(e_noncluster, dtype=np.complex128)
    if e_nc.size and np.any(eta2[k] - e_nc == 0.0):
        raise SingularEvaluationError(
            f"non-cluster energy equals 2*eta_{k} exactly")
    vals = kern.pn_sums(eta2, problem.d_array(), k, e_nc, n_max)
    bad = np.max(np.abs(vals.imag), initial=0.0)
    if bad > atol:
        raise ConsistencyError(
            f"P_n imaginary residue {bad:.3e} exceeds {atol}")
    return PnCoefficients(vals.real, k_ref=k)


def power_sums_to_elementary(s: np.ndarray) -> np.ndarray:
    """Newton's identities: power sums S_1..S_m -> elementary symmetric e_1..e_m."""
    m = len(s)
    elem = np.zeros(m + 1)
    elem[0] = 1.0
    for i in range(1, m + 1):
        acc = 0.0
        for j in range(1, i + 1):
            acc += (-1.0) ** (j - 1) * elem[i - j] * s[j - 1]
        elem[i] = acc / i
    return elem[1:]


@dataclass(frozen=True)
class InversionResult:
    """Recovered cluster energies plus a root-conditioning estimate."""

    energies: np.ndarray
    condition: float


def invert_power_sums(s, size: int, eta_k: float) -> InversionResult:
    """Recover cluster energies from S_1..S_{M_k}.

    Newton's identities give the monic polynomial with roots
    x_a = 2 eta_k - e_a; roots come from the companion-matrix eigenvalues
    (numpy.roots); the condition field estimates their sensitivity.
    """
    svals = s.s if isinstance(s, PowerSums) else np.asarray(s, dtype=float)
    if len(svals) < size:
        raise ValueError(f"need at least {size} power sums, got {len(svals)}")
    elem = power_sums_to_elementary(svals[:size])
    coeffs = np.ones(size + 1)
    signs = -1.0
    for i in range(1, size + 1):
        coeffs[i] = signs * elem[i - 1]
        signs = -signs
    roots = np.roots(coeffs)
    # root condition estimate: |coefficient noise| amplification at each root
    deriv = np.polyder(coeffs)
    cond = 1.0
    for r in roots:
        dp = abs(np.polyval(deriv, r))
        num = sum(abs(c) * abs(r) ** (size - i) for i, c in enumerate(coeffs))
        if dp > 0:
            cond = max(cond, num / dp)
        else:
            cond = np.inf
    energies = 2.0 * eta_k - roots
    return InversionResult(np.asarray(energies, dtype=np.complex128), float(cond))


def cluster_matrix(g: float, pn, m_k: int) -> np.ndarray:
    """The M_k x M_k matrix of the homogeneous cluster system.

    Row p (1-based): -2g(M_k+1-p) on the subdiagonal, (1+4g P_0) on the
    diagonal, 4g P_{c-p} above it.
    """
    p = pn.p if isinstance(pn, PnCoefficients) else np.asarray(pn, dtype=float)
    if len(p) < m_k:
        raise ValueError(f"need P_0..P_{m_k - 1}, got {len(p)} entries")
    mat = np.zeros((m_k, m_k))
    for row in range(1, m_k + 1):
        mat[row - 1, row - 1] = 1.0 + 4.0 * g * p[0]
        if row >= 2:
            mat[row - 1, row - 2] = -2.0 * g * (m_k + 1 - row)
        for col in range(row + 1, m_k + 1):
            mat[row - 1, col - 1] = 4.0 * g * p[col - row]
    return mat


def chi_ratios(g_c: float, pn, m_k: int, *,
               separation=0.1) -> np.ndarray:
    """Limit ratios chi_p = lim S_p/S_1 from the cluster-matrix null vector.

    The null vector is the right singular vector of the smallest singular
    value, normalized to chi_1 = 1.  A smallest singular value not clearly
    separated from the next signals a degenerate null space.
    """
    if m_k == 1:
        return np.array([1.0])
    mat = cluster_matrix(g_c, pn, m_k)
    _, sing, vt = np.linalg.svd(mat)
    if sing[-2] > 0 and sing[-1] / sing[-2] > separation:
        raise DegenerateNullSpaceError(
            f"null space not one-dimensional: sigma_min/sigma_next = "
            f"{sing[-1] / sing[-2]:.3g} > {separation}")
    null = vt[-1]
    if abs(null[0]) < 1e-12:
        raise DegenerateNullSpaceError(
            "null vector has vanishing S_1 component; cannot normalize chi_1=1")
    return null / null[0]


def scaled_determinant(mat: np.ndarray) -> float:
    """det(mat) divided by the product of row norms (sign preserved)."""
    if mat.shape[0] == 0:
        return 1.0
    norms = np.sqrt((mat * mat).sum(axis=1))
    if np.any(norms == 0.0):
        return 0.0
    sign, logabs = np.linalg.slogdet(mat)
    if sign == 0.0:
        return 0.0
    return float(sign * np.exp(logabs - np.log(norms).sum()))


def detect_cluster(values, problem: PairingProblem, k: int,
                   radius=None) -> np.ndarray:
    """Indices of energies within the membership radius of 2 eta_k.

    The radius is 0.25 x the nearest-level gap in 2*eta, capped by the
    user radius when given.
    """
    eta2 = problem.eta2_array()
    gaps = np.abs(eta2 - eta2[k])
    gaps[k] = np.inf
    r = 0.25 * gaps.min()
    if radius is not None:
        r = min(r, radius)
    vals = np.asarray(values)
    return np.nonzero(np.abs(vals - eta2[k]) < r)[0]
