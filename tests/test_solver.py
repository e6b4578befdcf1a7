import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import richardson as rs
from richardson import _kernels as kern
from richardson.errors import (ConsistencyError, InitializationError,
                               SingularEvaluationError)
from richardson.solver import (_single_level_roots, newton_core,
                               symmetrize_conjugate)

ONE_PAIR = rs.PairingProblem((rs.Level(1.0, 2),), 1, g=0.1)


def test_one_pair_closed_form_root():
    # 1 - 4g d/(2 eta - e) = 0  =>  e = 2 eta - 4 g d = 2.2 for
    # eta=1, d=-1/2, g=0.1 (attractive g<0 lowers the energy, as the
    # exact-diagonalization convention requires)
    e = rs.PairEnergies([2.2], (0,), 0.1)
    assert abs(rs.residuals(e, ONE_PAIR)[0]) < 1e-14


def test_residual_pole_error():
    e = rs.PairEnergies([2.0], (0,), 0.1)
    with pytest.raises(SingularEvaluationError):
        rs.residuals(e, ONE_PAIR)


def test_equal_pair_energies_pole_before_iteration():
    p = rs.PairingProblem((rs.Level(0.0, 8),), 2, g=0.05)
    e = rs.PairEnergies([0.3, 0.3], (0, 0), 0.05)
    with pytest.raises(SingularEvaluationError):
        rs.newton_solve(e, p)


def _random_state(rng, problem, spread=0.3):
    m = problem.m_pairs
    eta2 = problem.eta2_array()
    base = rng.choice(eta2, size=m) + rng.normal(0, spread, m)
    vals = base + 1j * rng.normal(0, spread, m)
    return rs.PairEnergies(vals, (0,) * m, problem.g)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(7)
    p = rs.build_lattice_model(2, 3).with_g(-0.07)
    h = 1e-7
    for _ in range(20):
        e = _random_state(rng, p)
        jac = rs.jacobian(e, p)
        for b in range(len(e)):
            for part, scale in ((1.0, 1.0), (1j, 1j)):
                diff = np.zeros(len(e), dtype=complex)
                diff[b] = h * part
                ep = rs.PairEnergies(e.values + diff, e.origin, p.g)
                em = rs.PairEnergies(e.values - diff, e.origin, p.g)
                fd = (rs.residuals(ep, p) - rs.residuals(em, p)) / (2 * h)
                # holomorphic: d/d(Im e) = i * d/d(Re e)
                expect = jac[:, b] * scale
                err = np.max(np.abs(fd - expect))
                assert err <= 1e-6 * max(1.0, np.max(np.abs(expect)))


def test_jacobian_symmetry_and_one_pair_value():
    rng = np.random.default_rng(3)
    p = rs.build_lattice_model(2, 2).with_g(0.04)
    e = _random_state(rng, p)
    jac = rs.jacobian(e, p)
    off = jac - np.diag(np.diag(jac))
    assert np.allclose(off, off.T)

    e1 = rs.PairEnergies([1.7], (0,), 0.1)
    jac1 = rs.jacobian(e1, ONE_PAIR)
    expect = -4 * 0.1 * (-0.5) / (2.0 - 1.7) ** 2
    assert jac1.shape == (1, 1)
    assert abs(jac1[0, 0] - expect) < 1e-12


def test_newton_one_pair_converges():
    rep = rs.newton_solve(rs.PairEnergies([2.5], (0,), 0.1), ONE_PAIR)
    assert rep.converged
    assert rep.residual_norm <= 1e-12
    assert abs(rep.final.values[0] - 2.2) < 1e-12


def test_newton_6x6_weak_coupling(lattice6, ground6):
    p = lattice6.with_g(-0.02)
    cur = rs.init_weak_coupling(lattice6, ground6, -1e-3)
    for gv in np.linspace(-1e-3, -0.02, 8):
        rep = rs.newton_solve(cur, lattice6.with_g(gv))
        assert rep.converged
        cur = rep.final
    assert np.max(np.abs(rs.residuals(cur, p))) <= 1e-12
    sym = symmetrize_conjugate(cur.values)
    assert np.max(np.abs(np.sort_complex(sym) -
                         np.sort_complex(cur.values))) < 1e-12


def test_newton_nonconvergence_reported_not_raised():
    # absurdly tight iteration budget: must report, never raise
    p = rs.build_lattice_model(2, 2).with_g(-0.2)
    seed = rs.init_weak_coupling(p, rs.ground_occupation(p), -1e-3)
    rep = rs.newton_solve(seed, p, max_iter=1)
    assert not rep.converged


def test_init_weak_coupling_single_pair_order():
    p = rs.PairingProblem((rs.Level(1.0, 2),), 1)
    errs = []
    for g in (1e-3, 5e-4):
        e = rs.init_weak_coupling(p, (1,), g, g_max=1.0)
        # exact root of the reduced system: e = 2 eta - 4 g d + O(g^2)
        errs.append(abs(e.values[0] - (2.0 - 4 * g * (-0.5))))
    assert errs[0] < 1e-12 and errs[1] < 1e-12


def test_init_weak_coupling_6x6_level2(lattice6):
    from dataclasses import replace
    p = replace(lattice6, m_pairs=4)
    occ = (0, 0, 4, 0, 0, 0, 0, 0, 0)
    e = rs.init_weak_coupling(p, occ, -1e-3, g_max=1.0)
    assert len(e) == 4
    assert np.all(np.abs(e.values - (-4.0)) < 0.05)
    assert np.max(np.abs(np.sort_complex(e.values) -
                         np.sort_complex(np.conj(e.values)))) < 1e-12
    assert e.origin == (2, 2, 2, 2)


def test_init_weak_coupling_spec_example_level(lattice6):
    # 4 pairs on the omega=8 level at 2 eta = -6: two conjugate pairs
    from dataclasses import replace
    p = replace(lattice6, m_pairs=4)
    occ = (0, 4, 0, 0, 0, 0, 0, 0, 0)
    e = rs.init_weak_coupling(p, occ, -1e-3, g_max=1.0)
    assert np.all(np.abs(e.values - (-6.0)) < 0.05)
    assert np.count_nonzero(e.values.imag > 1e-12) == 2


def test_init_weak_coupling_bounds(lattice6, ground6):
    with pytest.raises(ValueError):
        rs.init_weak_coupling(lattice6, ground6, 0.5)
    # a level asked to seed more pairs than it can hold has no solution
    with pytest.raises(InitializationError):
        _single_level_roots(-0.5, 2)


def test_total_energy():
    e = rs.PairEnergies([1 + 2j, 1 - 2j], (0, 0), 0.0)
    assert rs.total_energy(e) == 2.0
    bad = rs.PairEnergies([1 + 2j, 1 - 1j], (0, 0), 0.0)
    with pytest.raises(ConsistencyError):
        rs.total_energy(bad)


def test_one_pair_matches_companion_matrix_oracle():
    # brute-force oracle: clear denominators of 1 = 4g sum d_j/(2eta_j - e)
    # and take companion-matrix roots of the resulting polynomial
    levels = (rs.Level(-1.0, 4), rs.Level(0.5, 2), rs.Level(2.0, 6))
    for g in (-0.15, 0.08, 0.3):
        p = rs.PairingProblem(levels, 1, g=g)
        eta2, d = p.eta2_array(), p.d_array()
        poly = np.poly(eta2)                      # prod (e - 2eta_j)
        for j in range(3):
            others = np.poly(np.delete(eta2, j))
            poly = np.polyadd(poly, 4 * g * d[j] * np.pad(
                others, (len(poly) - len(others), 0)))
        roots = np.roots(poly)
        seed = rs.init_weak_coupling(p, (1, 0, 0), np.sign(g) * 1e-3,
                                     g_max=1.0)
        cur = seed
        for gv in np.linspace(seed.g, g, 12):
            cur = rs.newton_solve(cur, p.with_g(gv)).final
        assert np.min(np.abs(roots - cur.values[0])) < 1e-10


def test_solution_continuous_in_g():
    p = rs.build_lattice_model(2, 2)
    occ = rs.ground_occupation(p)
    cur = rs.newton_solve(rs.init_weak_coupling(p, occ, -1e-3),
                          p.with_g(-1e-3)).final
    last = None
    for gv in np.linspace(-1e-3, -0.3, 40):
        cur = rs.newton_solve(cur, p.with_g(gv)).final
        if last is not None:
            assert np.max(np.abs(np.sort_complex(cur.values) -
                                 np.sort_complex(last))) < 0.2
        last = cur.values


def test_single_level_roots_solve_reduced_system():
    # every (d, m) a square-lattice level (n = 2..8) can seed
    pairs = {(lv.d, m) for n in range(2, 9)
             for lv in rs.build_lattice_model(n, 1).levels
             for m in range(1, lv.pair_capacity + 1)}
    assert len(pairs) == 45
    for d, m in sorted(pairs):
        x = np.array(_single_level_roots(d, m))
        diff = x[:, None] - x[None, :]
        np.fill_diagonal(diff, np.inf)
        res = 1.0 + d / x + (1.0 / diff).sum(axis=1)
        assert np.max(np.abs(res)) <= 1e-12, (d, m)


def test_residuals_nonfinite_at_exact_poles():
    # the damped Newton rejects trials on a pole by this alone
    eta2 = np.array([-2.0, 0.0, 3.0])
    d = np.array([-0.5, -1.0, -1.5])
    with np.errstate(all="ignore"):
        level = kern.residuals(np.array([0.0, 1 + 0.5j, 1 - 0.5j]), -0.2,
                               eta2, d)
        pair = kern.residuals(np.array([0.7, 0.7, -1.0]), -0.2, eta2, d)
    assert not np.isfinite(level[0]) and np.all(np.isfinite(level[1:]))
    assert not np.any(np.isfinite(pair[:2])) and np.isfinite(pair[2])


def test_newton_escaped_energy_stops_without_warnings():
    # one energy far outside the spectrum overflows the Jacobian; the
    # non-finite step ends the solve instead of halving NaN trials
    p = rs.build_lattice_model(4, 4)
    seed = np.array(
        rs.init_weak_coupling(p, rs.ground_occupation(p), -1e-3).values)
    seed[-1] = 1e160
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, ok, iters, rn = newton_core(seed, -0.1, p.eta2_array(),
                                          p.d_array())
    assert not ok and iters == 1 and np.isfinite(rn)
    assert vals[-1] == 1e160


@settings(max_examples=50, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=5, allow_nan=False,
                                   allow_infinity=False),
                min_size=1, max_size=8))
def test_symmetrize_conjugate_properties(vals):
    out = symmetrize_conjugate(np.array(vals, dtype=complex))
    # closed under conjugation and idempotent
    assert np.max(np.abs(np.sort_complex(out) -
                         np.sort_complex(np.conj(out)))) < 1e-12
    again = symmetrize_conjugate(out)
    assert np.max(np.abs(np.sort_complex(again) -
                         np.sort_complex(out)))  < 1e-12
