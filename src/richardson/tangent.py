"""Expansion of the solution at a critical point and the restart guess.

At g_c the smooth coordinates are the cluster power sums S_p and the
non-cluster energies.  Near g_c the cluster obeys

    S_p = chi_p S_1 + a_p S_1^2 + O(S_1^3),   chi_p = 0 for p > M_k,

with S_1 = S_1' dg + S_1'' dg^2/2 + ...  Divided by S_1, the cluster moment
equations are smooth through g_c.  Their first derivative is B v = 0,
with B the matrix of the second-order cluster expansion and v its null
vector, v_1 = 1 and v_p = (S_p/S_1)' = S_1' a_p.  Only B's first column
depends on the derivatives (dS_1/dg, de_b/dg); its other columns are the
cluster matrix (`cluster.cluster_matrix`) extended to 3M_k rows.  So
B v = 0 is linear in (dS_1/dg, de_b/dg, v_2..v_{3M_k}).  With the
derivative of the non-cluster equations it forms one square bordered
matrix of size M + 2M_k, and one solve gives the derivatives and every
a_p.  The v_p with p > 2M_k vanish at this order (S_p/S_1 = O(dg^2)
there).

One order up, the second derivatives of the same unknowns enter exactly
where the first derivatives did, and the rest is a right-hand side built
from the first-order solution: the same matrix is solved again.

The restart guess at g_c + dg takes the dg^2 Taylor polynomial of the
cluster power sums,

    S_p ~ chi_p (S_1' dg + S_1'' dg^2/2) + a_p (S_1' dg)^2,   p = 1..M_k,

recovers the cluster energies by power-sum inversion, and moves the
non-cluster energies linearly, e_b ~ e_b(g_c) + (de_b/dg) dg.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels as kern
from .cluster import cluster_matrix, invert_power_sums, pn_coefficients
from .critical import CriticalPoint, deflated_d_array, deflated_jacobian
from .errors import ConsistencyError, DegenerateTangentError
from .model import PairingProblem
from .solver import PairEnergies

TANGENT_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class TangentData:
    """Expansion of the branch at one critical point.

    ``ds1_dg`` and ``d2s1_dg2`` are the first two g-derivatives of S_1,
    ``de_dg`` the non-cluster derivatives, and ``a[p-1]`` the quadratic
    coefficient a_p of S_p = chi_p S_1 + a_p S_1^2 for p = 1..2M_k
    (a_1 = 0).
    """

    ds1_dg: float
    de_dg: np.ndarray
    point: CriticalPoint
    d2s1_dg2: float
    a: np.ndarray

    def __post_init__(self):
        de = np.array(self.de_dg, dtype=np.complex128)
        de.setflags(write=False)
        object.__setattr__(self, "de_dg", de)
        a = np.array(self.a, dtype=float)
        a.setflags(write=False)
        object.__setattr__(self, "a", a)


def _conv(x, y, p):
    """sum_{i=1}^{p-2} x_i y_{p-1-i}, the quadratic term of cluster row p."""
    return sum(x[i] * y[p - 1 - i] for i in range(1, p - 1))


def _dpn_de(inv, n_max):
    """dP_n/de_b = (n+1)/(2 eta_k - e_b)^(n+2), shape (n_max+1, n_b)."""
    n = np.arange(n_max + 1)[:, None]
    return (n + 1) * inv[None, :] ** (n + 2)


def _bordered_system(point, problem):
    """The bordered matrix, its first-order rhs and the terms it reuses.

    Unknowns (dS_1/dg, de_b/dg, v_2..v_{3M_k}).  Cluster row p is
    B_{p,1} + sum_{j>=2} L_{p,j} v_j = 0, with L the cluster matrix at
    3M_k rows and B's first column
    B_{p,1} = -chi_p/g_c + q_p dS_1/dg + w_p . de/dg, where
    q_p = -2 g_c sum_{i=1}^{p-2} chi_{p-i-1} chi_i and
    w_{p,b} = 4 g_c sum_{n=0}^{M_k-p} chi_{n+p} dP_n/de_b; its constant
    goes to the rhs.  Non-cluster row b is the derivative of the deflated
    equations plus the cluster backreaction
    -4g sum_n S_n/(2 eta_k - e_b)^(n+1) through dS_1/dg.
    The matrix is complex and square, of size M + 2M_k; the non-cluster
    rows come in conjugate pairs, so the solution has real dS_1/dg and v_p
    and conjugate-closed de_b/dg.  Returns (matrix, rhs, inv, pn, chi)
    with inv = 1/(2 eta_k - e_b), pn = P_0..P_{3M_k-1} and chi padded to
    index 0..3M_k (zero past M_k).
    """
    g_c, k, m_k, rows = point.g_c, point.k, point.m_k, 3 * point.m_k
    e_nc = point.e_noncluster
    nb = e_nc.shape[0]
    inv = 1.0 / (problem.eta2_array()[k] - e_nc)
    pn = pn_coefficients(problem, k, e_nc, rows - 1)
    chi = np.zeros(rows + 1)
    chi[1:m_k + 1] = point.chi
    dpn = _dpn_de(inv, m_k)

    mat = np.zeros((rows + nb, rows + nb), dtype=np.complex128)
    rhs = np.full(rows + nb, 1.0 / g_c, dtype=np.complex128)
    for p in range(1, rows + 1):
        mat[p - 1, 0] = -2.0 * g_c * _conv(chi, chi, p)
    for p in range(1, m_k + 1):
        mat[p - 1, 1:nb + 1] = 4.0 * g_c * (chi[p:m_k + 1]
                                            @ dpn[:m_k - p + 1])
    mat[:rows, nb + 1:] = cluster_matrix(g_c, pn, m_k, rows)[:, 1:]
    rhs[:rows] = chi[1:] / g_c
    if nb:
        mat[rows:, 0] = -4.0 * g_c * (inv[:, None] ** np.arange(2, m_k + 2)
                                      @ point.chi)
        mat[rows:, 1:nb + 1] = deflated_jacobian(g_c, e_nc, problem, k)
    return mat, rhs, inv, pn, chi


def _solve_checked(mat, rhs, point):
    try:
        x = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as err:
        raise DegenerateTangentError(
            f"derivative system singular at g_c={point.g_c:.8g}") from err
    scale = float(np.max(np.abs(mat).sum(axis=1)) + np.max(np.abs(rhs)))
    resid = float(np.max(np.abs(mat @ x - rhs)))
    if resid > TANGENT_RESIDUAL_TOL * scale:
        raise DegenerateTangentError(
            f"derivative system residual {resid:.2e} exceeds "
            f"{TANGENT_RESIDUAL_TOL:.0e} x row norms")
    return x


def _real(z, name):
    z = complex(z)
    if abs(z.imag) > 1e-7 * max(1.0, abs(z.real)):
        raise ConsistencyError(f"{name} has imaginary part {z.imag:.3e}")
    return z.real


def _second_derivative(point, problem, system, ds1, de, a):
    """d^2 S_1/dg^2 from the bordered matrix with a second-order rhs.

    With u_p = S_p/S_1 (u_p' = S_1' a_p), cluster row p reads
    L(g, P) u - 2g S_1 sum_i u_i u_{p-1-i} = 0.  Its second derivative
    at g_c is the first-order row with (S_1'', e'', u'') in place of
    (S_1', e', u') plus r_p below; the non-cluster rows likewise gain r_b.
    """
    g, k, m_k = point.g_c, point.k, point.m_k
    rows = 3 * m_k
    mat, _, inv, pn, chi = system
    e = point.e_noncluster
    eta2 = problem.eta2_array()
    dpn = _dpn_de(inv, rows - 1)
    n = np.arange(rows)[:, None]
    d1p = (dpn @ de).real                                   # dP_n/dg
    d2p = ((n + 1) * (n + 2) * inv[None, :] ** (n + 3) @ de ** 2).real
    du = np.zeros(rows + 1)
    du[1:2 * m_k + 1] = ds1 * a

    # 2 L' u' + L'' u (without e'') - 2 [g S_1 Q(u)]'' (without S_1'')
    rhs = np.empty(mat.shape[0], dtype=np.complex128)
    for p in range(1, rows + 1):
        span = rows - p + 1
        rhs[p - 1] = -((8.0 * pn + 8.0 * g * d1p)[:span] @ du[p:]
                       + (8.0 * d1p + 4.0 * g * d2p)[:span] @ chi[p:]
                       - 4.0 * (m_k + 1 - p) * du[p - 1]
                       - 4.0 * ds1 * _conv(chi, chi, p)
                       - 8.0 * g * ds1 * _conv(chi, du, p))
    if e.size:
        # deflated rows: 2 J e'/g + g d^2H[e', e'], H = (residual - 1)/g
        lvl = deflated_d_array(problem, k) / (eta2 - e[:, None]) ** 3
        pair = (de[:, None] - de[None, :]) ** 2 * kern._inv_offdiag(e) ** 3
        hess = g * (-8.0 * de ** 2 * lvl.sum(axis=1) + 8.0 * pair.sum(axis=1))
        # backreaction -4g sum_n S_n/(2 eta_k - e_b)^(n+1) with S_n = S_1 u_n
        pw = inv[:, None] ** np.arange(1, rows + 2)
        nn = np.arange(rows + 1)
        r_nc = (2.0 * mat[rows:, 1:e.size + 1] @ de / g + hess
                - 8.0 * ds1 * (pw @ chi)
                - 8.0 * g * ds1 * (pw @ du)
                - 8.0 * g * ds1 * de * (inv[:, None] * pw @ ((nn + 1) * chi)))
        rhs[rows:] = -r_nc
    x = _solve_checked(mat, rhs, point)
    return _real(x[0], "d2S_1/dg2")


def solve_tangent(point: CriticalPoint,
                  problem: PairingProblem) -> TangentData:
    """Solve the bordered system at first and second order; asserts
    residuals and realness."""
    system = _bordered_system(point, problem)
    x = _solve_checked(system[0], system[1], point)
    ds1 = _real(x[0], "dS_1/dg")
    nb = point.e_noncluster.shape[0]
    de = x[1:nb + 1]
    a = np.zeros(2 * point.m_k)
    if ds1 != 0.0:
        a[1:] = x[nb + 1:nb + 2 * point.m_k].real / ds1
    d2s1 = _second_derivative(point, problem, system, ds1, de, a)
    return TangentData(ds1_dg=ds1, de_dg=de, point=point, d2s1_dg2=d2s1,
                       a=a)


def linear_guess(tangent: TangentData, delta_g: float) -> PairEnergies:
    """Restart guess for the full equations at g = g_c + delta_g.

    Cluster energies come from inverting the delta_g^2 Taylor polynomial
    S_p = chi_p (S_1' dg + S_1'' dg^2/2) + a_p (S_1' dg)^2 of the power
    sums; non-cluster energies move linearly.  Origin labels: the cluster
    block carries the collapsed level, the rest keep their branch labels.
    """
    point = tangent.point
    s1_lin = tangent.ds1_dg * delta_g
    s1 = s1_lin + 0.5 * tangent.d2s1_dg2 * delta_g ** 2
    s_hat = point.chi * s1 + tangent.a[:point.m_k] * s1_lin ** 2
    # 2 eta_k is recoverable from the point itself:
    # energy = M_k * 2 eta_k + sum Re e_noncluster
    eta2k = (point.energy - float(np.sum(point.e_noncluster.real))) / point.m_k
    inv = invert_power_sums(s_hat, point.m_k, 0.5 * eta2k)
    if delta_g != 0.0 and inv.condition > 1e8:
        warnings.warn(
            f"power-sum inversion poorly conditioned "
            f"(estimate {inv.condition:.2g})", stacklevel=2)
    cluster_vals = inv.energies
    if delta_g != 0.0 and np.max(np.abs(cluster_vals - eta2k)) < 1e-10:
        # dS_1/dg can vanish at symmetric points; the guess then
        # degenerates to the exact collapse, which is a pole.  Spread the
        # cluster on a small conjugate-symmetric circle at the curvature
        # scale |delta_g| instead.
        m = point.m_k
        theta0 = 0.0 if m % 2 else math.pi / m
        cluster_vals = eta2k + abs(delta_g) * np.exp(
            1j * (theta0 + 2.0 * math.pi * np.arange(m) / m))
    nc_vals = point.e_noncluster + tangent.de_dg * delta_g
    values = np.concatenate([cluster_vals, nc_vals])
    origin = (point.k,) * point.m_k + point.noncluster_origin
    return PairEnergies(values, origin)
