"""Cluster variables: power sums S_p, coefficients P_n, and limit ratios chi_p.

Near a critical coupling a cluster of M_k = 1 - 2 d_k pair energies
collapses onto 2 eta_k.  The power sums S_p = sum (2 eta_k - e_a)^p are the
smooth real coordinates of that cluster; P_n collects the inverse-power
sums over the other levels and the non-collapsing energies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as kern
from .errors import (ConsistencyError, DegenerateNullSpaceError,
                     SingularEvaluationError)
from .model import Level, PairingProblem
from .solver import IMAG_TOL

# the cluster matrix's smallest singular value must sit below this fraction
# of the next one for its null space to count as one-dimensional
NULL_SPACE_SEPARATION = 0.1


def default_cluster_size(level: Level) -> int:
    """M_k = 1 - 2 d_k; asserts that the value is a positive integer."""
    m = 1.0 - 2.0 * level.d
    m_int = round(m)
    if abs(m - m_int) > 1e-12 or m_int < 1:
        raise ValueError(
            f"cluster condition M_k = 1 - 2 d_k = {m} is not a positive "
            f"integer for level {level}")
    return int(m_int)


def power_sums(e_cluster, eta_k: float, p_max: int) -> np.ndarray:
    """S_p = sum_{a in cluster} (2 eta_k - e_a)^p for p = 1..p_max, as a
    read-only float array; S_0 = M_k is implicit.  A sum with a non-finite
    value or an imaginary residue above IMAG_TOL raises ConsistencyError."""
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    offs = 2.0 * eta_k - np.asarray(e_cluster, dtype=np.complex128)
    out = np.empty(p_max, dtype=float)
    term = offs.copy()
    for p in range(1, p_max + 1):
        s = term.sum()
        if not np.isfinite(s):
            raise ConsistencyError(f"S_{p} = {s} is not finite")
        if abs(s.imag) > IMAG_TOL:
            raise ConsistencyError(
                f"S_{p} imaginary residue {s.imag:.3e} exceeds {IMAG_TOL}; "
                "cluster is not conjugate-closed")
        out[p - 1] = s.real
        term = term * offs
    out.setflags(write=False)
    return out


def pn_coefficients(problem: PairingProblem, k: int, e_noncluster,
                    n_max: int) -> np.ndarray:
    """P_n per the cluster expansion, n = 0..n_max, real parts, as a
    read-only float array.

    P_n = sum_{j != k} d_j/(2eta_k - 2eta_j)^(n+1)
        + sum_{b not in C_k} 1/(2eta_k - e_b)^(n+1)

    Leading axes of e_noncluster, of shape (..., n), are stack axes: row i
    of the (..., n_max + 1) result is the one-row call at e_noncluster[i],
    bit for bit (`_kernels.pn_sums`).  A row with a non-cluster energy
    exactly at 2 eta_k raises SingularEvaluationError, one with a
    non-finite P_n or an imaginary residue above IMAG_TOL ConsistencyError;
    in a stack the first such row raises, and no row from the first pole
    on is evaluated.
    """
    eta2 = problem.eta2_array()
    e_nc = np.asarray(e_noncluster, dtype=np.complex128)
    lead = e_nc.shape[:-1]
    rows = e_nc.reshape(math.prod(lead), e_nc.shape[-1])
    poles = np.flatnonzero(np.any(eta2[k] - rows == 0.0, axis=-1))
    vals = kern.pn_sums(eta2, problem.d_array(), k,
                        rows[:poles[0]] if poles.size else rows, n_max)
    bad = np.maximum.reduce(np.abs(vals.imag), axis=-1, initial=0.0)
    flawed = np.flatnonzero(~(bad <= IMAG_TOL)
                            | ~np.isfinite(vals.real).all(axis=-1))
    if flawed.size:
        row = flawed[0]
        if not np.isfinite(vals[row]).all():
            raise ConsistencyError(f"P_n is not finite: {vals[row]}")
        raise ConsistencyError(
            f"P_n imaginary residue {bad[row]:.3e} exceeds {IMAG_TOL}")
    if poles.size:
        raise SingularEvaluationError(
            f"non-cluster energy equals 2*eta_{k} exactly")
    pn = vals.real.reshape(lead + (n_max + 1,)).copy()
    pn.setflags(write=False)
    return pn


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
    svals = np.asarray(s, dtype=float)
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


def cluster_matrix(g, pn, m_k: int, rows=None) -> np.ndarray:
    """The M_k x M_k matrix of the homogeneous cluster system, or the same
    pattern at `rows` rows (the tangent's matrix B, see `tangent`).

    Row p (1-based): -2g(M_k+1-p) on the subdiagonal, (1+4g P_0) on the
    diagonal, 4g P_{c-p} above it.  g of shape (...) and pn of shape
    (..., n) give a stack of matrices, shape (..., rows, rows), each entry
    the same scalar expression of its own g and P_n.
    """
    n = m_k if rows is None else rows
    p = np.asarray(pn, dtype=float)
    if p.shape[-1] < n:
        raise ValueError(f"need P_0..P_{n - 1}, got {p.shape[-1]} entries")
    g = np.asarray(g, dtype=float)[..., None]
    mat = np.zeros(np.broadcast_shapes(g.shape[:-1], p.shape[:-1]) + (n, n))
    i = np.arange(n)        # row p sits at index i = p - 1
    mat[..., i, i] = 1.0 + 4.0 * g * p[..., :1]
    mat[..., i[1:], i[:-1]] = -2.0 * g * (m_k - i[1:])
    for c in range(1, n):
        mat[..., i[:-c], i[c:]] = 4.0 * g * p[..., c:c + 1]
    return mat


def chi_ratios(g_c: float, pn, m_k: int) -> np.ndarray:
    """Limit ratios chi_p = lim S_p/S_1 from the cluster-matrix null vector.

    The null vector is the right singular vector of the smallest singular
    value, normalized to chi_1 = 1.  A smallest singular value not clearly
    separated from the next signals a degenerate null space.
    """
    if m_k == 1:
        return np.array([1.0])
    mat = cluster_matrix(g_c, pn, m_k)
    _, sing, vt = np.linalg.svd(mat)
    if sing[-2] > 0 and sing[-1] / sing[-2] > NULL_SPACE_SEPARATION:
        raise DegenerateNullSpaceError(
            f"null space not one-dimensional: sigma_min/sigma_next = "
            f"{sing[-1] / sing[-2]:.3g} > {NULL_SPACE_SEPARATION}")
    null = vt[-1]
    if abs(null[0]) < 1e-12:
        raise DegenerateNullSpaceError(
            "null vector has vanishing S_1 component; cannot normalize chi_1=1")
    return null / null[0]


def scaled_determinant(mat: np.ndarray) -> float | np.ndarray:
    """det(mat) divided by the product of row norms (sign preserved); 0.0
    for a matrix with a zero row or a zero determinant.

    mat of shape (..., n, n) is a stack: the result has shape (...), and
    each value the bits of the call on its own matrix, which returns a
    float.
    """
    mat = np.asarray(mat, dtype=float)
    lead = mat.shape[:-2]
    out = np.zeros(lead)
    if mat.shape[-1] == 0:
        out[...] = 1.0
    else:
        norms = np.sqrt(np.add.reduce(mat * mat, axis=-1))
        sign, logabs = np.linalg.slogdet(mat)
        live = np.all(norms != 0.0, axis=-1) & (sign != 0.0)
        out[live] = sign[live] * np.exp(
            logabs[live] - np.add.reduce(np.log(norms[live]), axis=-1))
    return out if lead else float(out)


def detect_cluster(values, problem: PairingProblem, k: int) -> np.ndarray:
    """Indices of energies within the membership radius of 2 eta_k, which
    is 0.25 x the nearest-level gap in 2*eta."""
    eta2 = problem.eta2_array()
    gaps = np.abs(eta2 - eta2[k])
    gaps[k] = np.inf
    r = 0.25 * gaps.min()
    vals = np.asarray(values)
    return np.nonzero(np.abs(vals - eta2[k]) < r)[0]
