from dataclasses import replace

import numpy as np
import pytest

import richardson as rs
from richardson.cluster import cluster_matrix, pn_coefficients
from richardson.critical import CriticalPoint
from richardson.solver import find_poles, newton_core, restart_step_cap
from richardson.tangent import _bordered_system

from conftest import nearest_members


def test_system_size_counts(toy_3lvl, lattice6, table3):
    pt = rs.scan_critical(toy_3lvl, 0, (-0.6, 0.0))[0]
    mat, rhs = _bordered_system(pt, toy_3lvl)[:2]
    assert mat.shape == (toy_3lvl.m_pairs + 2 * pt.m_k,) * 2
    pt6 = table3["points"][("neg", 3)]
    mat6, _ = _bordered_system(pt6, lattice6)[:2]
    assert mat6.shape == (18 + 2 * 5, 18 + 2 * 5)


def test_all_collapse_gives_cluster_only_system(toy_mm):
    pt = rs.scan_critical(toy_mm, 0, (-0.6, 0.0))[0]
    mat, rhs = _bordered_system(pt, toy_mm)[:2]
    assert mat.shape == (3 * pt.m_k, 3 * pt.m_k) == (12, 12)
    tan = rs.solve_tangent(pt, toy_mm)
    assert np.isfinite(tan.ds1_dg)
    assert tan.de_dg.shape == (0,)


def test_first_order_tail_vanishes(lattice6, table3, tangents6):
    # S_p/S_1 = O(dg^2) for p > 2M_k, so the first-order unknowns
    # v_p = S_1' a_p vanish there and one matrix serves both orders
    for key in tangents6:
        pt = table3["points"][key]
        mat, rhs = _bordered_system(pt, lattice6)[:2]
        v = np.linalg.solve(mat, rhs)[len(pt.e_noncluster) + 1:]
        tail = v[2 * pt.m_k - 1:]
        assert np.max(np.abs(tail)) <= 1e-10 * np.max(np.abs(v)), key


def test_tangent_residual_and_detB(lattice6, table3, tangents6):
    # substituting the solved derivatives into B's first column must make
    # det(B) vanish
    pt = table3["points"][("pos", 1)]
    tan = tangents6[("pos", 1)]
    g_c, m_k = pt.g_c, pt.m_k
    eta2k = 2 * lattice6.levels[pt.k].eta
    pn = pn_coefficients(lattice6, pt.k, pt.e_noncluster, 2 * m_k - 1)
    b = cluster_matrix(g_c, pn, m_k, rows=2 * m_k)
    chi = np.zeros(2 * m_k + 1)
    chi[1:m_k + 1] = pt.chi
    pn_prime = np.array([
        np.sum((n + 1) / (eta2k - pt.e_noncluster) ** (n + 2) * tan.de_dg)
        for n in range(m_k)])
    for p in range(1, 2 * m_k + 1):
        conv = sum(chi[p - i - 1] * chi[i] for i in range(1, p - 1))
        val = -chi[p] / g_c - 2 * g_c * tan.ds1_dg * conv
        val += 4 * g_c * sum(chi[n + p] * pn_prime[n]
                             for n in range(0, m_k - p + 1))
        b[p - 1, 0] = np.real(val)
    row_scale = np.prod(np.linalg.norm(b, axis=1))
    assert abs(np.linalg.det(b)) <= 1e-9 * row_scale


def test_tangent_solution_order_independent(lattice6, table3):
    # permuting the non-cluster energies (an internal ordering choice) must
    # not change the solution: the eliminated quadratic coefficients carry
    # no physical freedom
    pt = table3["points"][("pos", 1)]
    tan = rs.solve_tangent(pt, lattice6)
    perm = np.random.default_rng(0).permutation(len(pt.e_noncluster))
    pt_perm = CriticalPoint(
        g_c=pt.g_c, k=pt.k, m_k=pt.m_k,
        e_noncluster=pt.e_noncluster[perm], chi=pt.chi, energy=pt.energy,
        deflated_occupation=pt.deflated_occupation,
        noncluster_origin=tuple(pt.noncluster_origin[i] for i in perm))
    tan_perm = rs.solve_tangent(pt_perm, lattice6)
    assert tan.ds1_dg == pytest.approx(tan_perm.ds1_dg, abs=1e-12)
    back = np.empty_like(tan.de_dg)
    back[perm] = tan_perm.de_dg
    assert np.max(np.abs(back - tan.de_dg)) < 1e-12


def test_de_dg_conjugate_pairing(lattice6, tangents6, table3):
    pt = table3["points"][("neg", 3)]
    tan = tangents6[("neg", 3)]
    # wherever e_b and e_c are conjugate partners, so are their derivatives
    vals = pt.e_noncluster
    for i in range(len(vals)):
        j = int(np.argmin(np.abs(vals - np.conj(vals[i]))))
        assert abs(np.conj(tan.de_dg[j]) - tan.de_dg[i]) < 1e-9


def test_tangent_finite_difference_small_problem(toy_3lvl):
    pt = rs.scan_critical(toy_3lvl, 0, (-0.6, 0.0))[0]
    tan = rs.solve_tangent(pt, toy_3lvl)
    delta = 1e-5
    sols = {}
    for sgn in (+1, -1):
        sols[sgn] = rs.restart_solve(tan, toy_3lvl, sgn * delta)
    # non-cluster derivative via centered differences
    for i, z in enumerate(pt.e_noncluster):
        up = sols[+1].values[np.argmin(np.abs(sols[+1].values - z))]
        dn = sols[-1].values[np.argmin(np.abs(sols[-1].values - z))]
        fd = (up - dn) / (2 * delta)
        assert abs(fd - tan.de_dg[i]) <= 1e-4 * max(1.0, abs(tan.de_dg[i]))
    # dS_1/dg via centered differences of the measured power sums
    s1 = {}
    for sgn in (+1, -1):
        idx = nearest_members(sols[sgn].values, 2 * toy_3lvl.levels[0].eta,
                              pt.m_k)
        s1[sgn] = rs.power_sums(sols[sgn].values[idx],
                                toy_3lvl.levels[0].eta, 1)[0]
    fd = (s1[+1] - s1[-1]) / (2 * delta)
    assert abs(fd - tan.ds1_dg) <= 1e-4 * abs(tan.ds1_dg)


def test_linear_guess_delta_zero(lattice6, table3, tangents6):
    pt = table3["points"][("pos", 1)]
    guess = rs.linear_guess(tangents6[("pos", 1)], 0.0)
    eta2k = 2 * lattice6.levels[pt.k].eta
    assert np.max(np.abs(guess.values[:pt.m_k] - eta2k)) < 1e-12
    assert np.max(np.abs(guess.values[pt.m_k:] - pt.e_noncluster)) < 1e-12


def test_linear_guess_spreads_a_collapsed_cluster(toy_3lvl):
    # with dS_1/dg = S_1'' = 0 every cluster power sum vanishes, so the
    # inversion returns the exact collapse at 2 eta_k, a pole; the guess
    # spreads the cluster on a conjugate-closed circle of radius |delta|
    pt = rs.scan_critical(toy_3lvl, 0, (-0.6, 0.0))[0]
    tan = replace(rs.solve_tangent(pt, toy_3lvl), ds1_dg=0.0, d2s1_dg2=0.0)
    with pytest.warns(UserWarning, match="poorly conditioned"):
        guess = rs.linear_guess(tan, 1e-3)
    cluster = guess.values[:pt.m_k]
    eta2k = 2 * toy_3lvl.levels[0].eta
    assert np.max(np.abs(np.abs(cluster - eta2k) - 1e-3)) < 1e-12
    assert all(np.min(np.abs(cluster - z.conjugate())) < 1e-12
               for z in cluster)
    assert find_poles(guess.values, toy_3lvl.eta2_array()) == []


def test_restart_converges_fast_at_clean_point(lattice6, table3, tangents6):
    pt = table3["points"][("pos", 1)]
    tan = tangents6[("pos", 1)]
    for delta in (+1e-3, -1e-3):
        guess = rs.linear_guess(tan, delta)
        _, ok, iters, rn = newton_core(
            guess.values, pt.g_c + delta, lattice6.eta2_array(),
            lattice6.d_array(), step_cap=restart_step_cap(lattice6))
        assert ok and iters <= 8
        assert rn <= 1e-12


def test_guess_error_quadratic_in_smooth_coordinates(lattice6, table3,
                                                     tangents6):
    # the linear approximation lives in (S_p, e_noncluster); its error
    # there shrinks as delta^2
    pt = table3["points"][("pos", 1)]
    tan = tangents6[("pos", 1)]
    eta_k = lattice6.levels[pt.k].eta
    deltas = (1e-2, 1e-3, 1e-4)
    errs = []
    for delta in deltas:
        sol = rs.restart_solve(tan, lattice6, delta)
        idx = nearest_members(sol.values, 2 * eta_k, pt.m_k)
        s_true = rs.power_sums(sol.values[idx], eta_k, pt.m_k)
        s_hat = tan.ds1_dg * pt.chi * delta
        err = np.max(np.abs(s_hat - s_true))
        nc_true = np.delete(sol.values, idx)
        pool = list(nc_true)
        for z, dz in zip(pt.e_noncluster, tan.de_dg):
            pred = z + dz * delta
            j = int(np.argmin(np.abs(np.array(pool) - pred)))
            err = max(err, abs(pool[j] - pred))
            pool.pop(j)
        errs.append(err)
    slope = np.polyfit(np.log10(deltas), np.log10(errs), 1)[0]
    assert 1.8 <= slope <= 2.2


@pytest.mark.parametrize("key", [("pos", 1), ("neg", 3)])
def test_second_order_coefficients_match_central_differences(
        lattice6, table3, tangents6, key):
    # S_1'' and a_p (S_p = chi_p S_1 + a_p S_1^2) against the even parts of
    # the converged power sums at +-delta
    pt = table3["points"][key]
    tan = tangents6[key]
    eta_k = lattice6.levels[pt.k].eta
    delta = 1e-4
    s = {}
    for sgn in (+1, -1):
        sol = rs.restart_solve(tan, lattice6, sgn * delta)
        idx = nearest_members(sol.values, 2 * eta_k, pt.m_k)
        s[sgn] = rs.power_sums(sol.values[idx], eta_k, 2 * pt.m_k)
    s1_fd = (s[+1][0] - s[-1][0]) / (2 * delta)
    s1pp_fd = (s[+1][0] + s[-1][0]) / delta ** 2
    assert abs(s1pp_fd - tan.d2s1_dg2) <= 1e-3 * abs(tan.d2s1_dg2)
    chi = np.zeros(2 * pt.m_k)
    chi[:pt.m_k] = pt.chi
    even = 0.5 * sum(s[sgn] - chi * s[sgn][0] for sgn in (+1, -1))
    a_fd = even / (s1_fd * delta) ** 2
    assert tan.a.shape == (2 * pt.m_k,) and tan.a[0] == 0.0
    assert np.max(np.abs(a_fd - tan.a)) <= 1e-3 * np.max(np.abs(tan.a))
