import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import richardson as rs
from richardson.cluster import (power_sums_to_elementary, scaled_determinant)
from richardson.errors import ConsistencyError

from test_kernels import _same_bits


def _cluster_matrix_ref(g, pn, m_k, rows=None):
    """The cluster matrix entry by entry, as scalars (the reference)."""
    n = m_k if rows is None else rows
    p = np.asarray(pn, dtype=float)
    mat = np.zeros((n, n))
    for row in range(1, n + 1):
        mat[row - 1, row - 1] = 1.0 + 4.0 * g * p[0]
        if row >= 2:
            mat[row - 1, row - 2] = -2.0 * g * (m_k + 1 - row)
        for col in range(row + 1, n + 1):
            mat[row - 1, col - 1] = 4.0 * g * p[col - row]
    return mat


def _scaled_determinant_ref(mat):
    """The scaled determinant of one matrix (the reference)."""
    if mat.shape[0] == 0:
        return 1.0
    norms = np.sqrt((mat * mat).sum(axis=1))
    if np.any(norms == 0.0):
        return 0.0
    sign, logabs = np.linalg.slogdet(mat)
    if sign == 0.0:
        return 0.0
    return float(sign * np.exp(logabs - np.log(norms).sum()))


def conj_closed_cluster(rng, size, center=0.0, spread=0.5):
    vals = []
    n_pairs = size // 2
    for _ in range(n_pairs):
        z = center + rng.normal(0, spread) + 1j * abs(rng.normal(0, spread))
        vals += [z, np.conj(z)]
    if size % 2:
        vals.append(center + rng.normal(0, spread))
    return np.array(vals)


def test_power_sums_basic():
    eta_k = 1.0
    cluster = [2 * eta_k - 0.1, 2 * eta_k + 0.1]
    ps = rs.power_sums(cluster, eta_k, 2)
    assert abs(ps[0]) < 1e-15
    assert abs(ps[1] - 0.02) < 1e-15


def test_power_sums_collapsed():
    ps = rs.power_sums([4.0, 4.0, 4.0], 2.0, 4)
    assert np.all(ps == 0.0)


def test_power_sums_vs_naive_loop():
    rng = np.random.default_rng(5)
    for size in (2, 3, 5):
        cluster = conj_closed_cluster(rng, size, center=-2.0)
        ps = rs.power_sums(cluster, -1.0, 6)
        for p in range(1, 7):
            naive = sum((-2.0 - z) ** p for z in cluster)
            assert abs(naive.imag) < 1e-9
            assert abs(ps[p - 1] - naive.real) < 1e-12


def test_power_sums_and_pn_are_read_only_float_arrays(toy_3lvl):
    ps = rs.power_sums([1.9, 2.1], 1.0, 3)
    pn = rs.pn_coefficients(toy_3lvl, 0, [2.3], 2)
    for arr in (ps, pn):
        assert type(arr) is np.ndarray and arr.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_power_sums_consistency_error():
    with pytest.raises(ConsistencyError):
        rs.power_sums([1.0 + 0.5j, 2.0], 0.0, 2)


def test_pn_single_term():
    # two levels, no non-cluster energies: P_n = d_1 / (2eta_0 - 2eta_1)^(n+1)
    p = rs.PairingProblem((rs.Level(0.0, 4), rs.Level(1.0, 2)), 2)
    pn = rs.pn_coefficients(p, 0, [], 3)
    d1 = -0.5
    for n in range(4):
        assert abs(pn[n] - d1 / (-2.0) ** (n + 1)) < 1e-14


def test_pn_conjugate_pair_contribution():
    p = rs.PairingProblem((rs.Level(0.0, 4), rs.Level(1.0, 2)), 2)
    z = 1.7 + 0.4j
    pn = rs.pn_coefficients(p, 0, [z, np.conj(z)], 2)
    base = rs.pn_coefficients(p, 0, [], 2)
    for n in range(3):
        expect = 2 * np.real(1.0 / (0.0 - z) ** (n + 1))
        assert abs(pn[n] - base[n] - expect) < 1e-12


def test_invert_power_sums_roundtrip():
    rng = np.random.default_rng(42)
    eta_k = -0.5
    for _ in range(200):
        size = int(rng.integers(1, 7))
        cluster = conj_closed_cluster(rng, size, center=2 * eta_k, spread=0.4)
        ps = rs.power_sums(cluster, eta_k, size)
        inv = rs.invert_power_sums(ps, size, eta_k)
        got = list(inv.energies)
        worst = 0.0
        for z in cluster:
            j = int(np.argmin(np.abs(np.array(got) - z)))
            worst = max(worst, abs(got[j] - z))
            got.pop(j)
        assert worst < 1e-8


def test_invert_trivial_cases():
    inv = rs.invert_power_sums(np.zeros(3), 3, 1.5)
    assert np.max(np.abs(inv.energies - 3.0)) < 1e-12
    inv1 = rs.invert_power_sums(np.array([0.25]), 1, 1.0)
    assert abs(inv1.energies[0] - (2.0 - 0.25)) < 1e-15


def test_newton_identities_vs_direct_expansion():
    rng = np.random.default_rng(9)
    for size in (2, 3, 4):
        roots = conj_closed_cluster(rng, size)
        s = np.array([np.sum(roots ** p).real for p in range(1, size + 1)])
        elem = power_sums_to_elementary(s)
        direct = np.poly(roots)       # [1, -e1, e2, ...]
        expect = direct[1:] * np.array([(-1.0) ** i
                                        for i in range(1, size + 1)])
        assert np.max(np.abs(elem - expect.real)) < 1e-10


def test_cluster_matrix_structure():
    pn = np.array([0.3, -0.2, 0.7])
    assert np.allclose(rs.cluster_matrix(0.0, pn, 3), np.eye(3))
    g = 0.11
    m2 = rs.cluster_matrix(g, pn, 2)
    assert np.allclose(m2, [[1 + 4 * g * 0.3, 4 * g * (-0.2)],
                            [-2 * g, 1 + 4 * g * 0.3]])


def test_cluster_matrix_determinant_polynomial():
    # M_k = 2: det = (1 + 4 g P0)^2 + 8 g^2 P1, degree 2 in g
    pn = np.array([0.4, -0.35])
    for g in np.linspace(-0.8, 0.8, 9):
        det = np.linalg.det(rs.cluster_matrix(g, pn, 2))
        expect = (1 + 4 * g * 0.4) ** 2 + 8 * g * g * (-0.35)
        assert abs(det - expect) < 1e-12


def test_chi_trivial():
    # M_k = 1 short-circuits to [1]; larger cases need a genuine critical
    # point and live in test_critical
    assert np.allclose(rs.chi_ratios(0.1, np.array([0.2]), 1), [1.0])


def test_scaled_determinant_sign_and_roots():
    # scaling preserves роots and sign: check on a parameterized family
    pn = np.array([0.4, -0.35])
    gs = np.linspace(-1.2, 1.2, 400)
    raw = np.array([np.linalg.det(rs.cluster_matrix(g, pn, 2)) for g in gs])
    scl = np.array([scaled_determinant(rs.cluster_matrix(g, pn, 2))
                    for g in gs])
    assert np.all(np.sign(raw) == np.sign(scl))


def test_detect_cluster(lattice6):
    vals = np.array([-2.1, -2.05 + 0.1j, -2.05 - 0.1j, -3.9, 0.2])
    idx = rs.detect_cluster(vals, lattice6, 3)
    assert sorted(idx) == [0, 1, 2]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 10_000))
def test_power_sum_inversion_roundtrip_property(size, seed):
    rng = np.random.default_rng(seed)
    cluster = conj_closed_cluster(rng, size, center=1.0, spread=0.3)
    ps = rs.power_sums(cluster, 0.5, size)
    inv = rs.invert_power_sums(ps, size, 0.5)
    back = rs.power_sums(inv.energies, 0.5, size)
    assert np.max(np.abs(back - ps)) < 1e-7 * max(1.0, np.max(np.abs(ps)))


def test_chi_matches_centered_slopes_6x6(lattice6, table3, tangents6):
    # chi_p = dS_p/dS_1 at the crossing, measured from converged solutions
    # at g_c +- 1e-4 by centered differences
    import richardson as rs
    from richardson.continuation import restart_solve
    pt = table3["points"][("pos", 1)]
    tan = tangents6[("pos", 1)]
    eta_k = lattice6.levels[pt.k].eta
    s = {}
    for sgn in (+1, -1):
        sol = restart_solve(tan, lattice6, sgn * 1e-4)
        idx = np.argsort(np.abs(sol.values - 2 * eta_k))[:pt.m_k]
        s[sgn] = rs.power_sums(sol.values[idx], eta_k, pt.m_k)
    slopes = (s[+1] - s[-1]) / (s[+1][0] - s[-1][0])
    assert np.max(np.abs(slopes - pt.chi) / np.abs(pt.chi)) < 1e-3


@pytest.mark.parametrize("rows", [1, 2, 17, 401])
def test_determinant_path_stack_rows_are_the_one_row_calls(lattice6, rows):
    # every row of a stacked pn_coefficients -> cluster_matrix ->
    # scaled_determinant has the bits of the one-row call and of the scalar
    # references, with matrices that have a zero row or a zero determinant
    rng = np.random.default_rng(rows)
    for m_k in (1, 2, 5, 11):
        nb = lattice6.m_pairs - m_k
        # conjugate pairs and a real energy, all far from 2 eta_4
        half = rng.uniform(-30, -10, (rows, nb // 2)) \
            + 1j * rng.uniform(0.5, 3, (rows, nb // 2))
        e_nc = np.concatenate([half, half.conj(), rng.uniform(
            10, 30, (rows, nb % 2))], axis=1)
        pn = rs.pn_coefficients(lattice6, 4, e_nc, m_k - 1)
        gs = rng.uniform(-0.8, 0.8, rows)
        mats = rs.cluster_matrix(gs, pn, m_k)
        for i in range(rows):
            assert _same_bits(pn[i], rs.pn_coefficients(
                lattice6, 4, e_nc[i], m_k - 1))
            assert _same_bits(mats[i], _cluster_matrix_ref(gs[i], pn[i], m_k))
            assert _same_bits(mats[i], rs.cluster_matrix(gs[i], pn[i], m_k))
        mats[rows // 2, -1] = 0.0
        mats[-1] = np.arange(m_k * m_k).reshape(m_k, m_k) % 3
        mats[-1, -1] = mats[-1, 0]
        if m_k == 1:
            mats[0] = rs.cluster_matrix(1.0, [-0.25], 1)
        dets = scaled_determinant(mats)
        assert dets.shape == (rows,)
        for i in range(rows):
            one = scaled_determinant(mats[i])
            assert type(one) is float
            assert _same_bits(dets[i], one)
            assert _same_bits(one, _scaled_determinant_ref(mats[i]))
        assert dets[rows // 2] == dets[-1] == 0.0
    assert _same_bits(scaled_determinant(np.zeros((3, 0, 0))), np.ones(3))


def test_pn_coefficients_refuse_a_non_finite_value(lattice6):
    lat4 = rs.build_lattice_model(4, 4)
    with np.errstate(invalid="ignore"):
        with pytest.raises(ConsistencyError, match="P_n is not finite"):
            rs.pn_coefficients(lat4, 0, [np.nan, 1.0], 1)
        # in a stack the first flawed row raises
        with pytest.raises(ConsistencyError, match="P_n is not finite"):
            rs.pn_coefficients(lat4, 0, [[1.0, 2.0], [np.nan, 1.0],
                                         [1.0 + 1j, 2.0]], 1)


def test_power_sums_refuse_a_non_finite_sum():
    with np.errstate(invalid="ignore"):
        with pytest.raises(ConsistencyError, match="not finite"):
            rs.power_sums([complex(np.nan, np.nan)], 0.0, 2)

