import numpy as np
import pytest

import richardson as rs
from richardson import oracle
from richardson.errors import OracleConvergenceError, OracleDimensionError
from richardson.solver import IMAG_TOL, newton_core

from conftest import weak_seed


def test_g_zero_limit():
    p = rs.build_lattice_model(2, 2)
    spec = oracle.exact_spectrum(p, 0.0)
    eta2 = p.eta2_array()
    expected = sorted(sum(e * c for e, c in zip(eta2, state))
                      for state in oracle.pair_basis(p))
    assert np.allclose(spec, expected)


def test_one_pair_two_levels_quadratic():
    # eta = {0, 1}, omega = {2, 2}: eigenvalues solve e^2 - (2+4g)e + 4g = 0
    for g in (-0.2, 0.13, 0.4):
        p = rs.PairingProblem((rs.Level(0.0, 2), rs.Level(1.0, 2)), 1)
        spec = oracle.exact_spectrum(p, g)
        roots = np.sort(np.roots([1.0, -(2 + 4 * g), 4 * g]))
        assert np.allclose(spec, roots, atol=1e-12)


def test_hermiticity_and_dimension():
    p = rs.build_lattice_model(2, 3)
    h = oracle.hamiltonian(p, -0.17)
    assert np.max(np.abs(h - h.T)) < 1e-14
    assert h.shape[0] == len(oracle.pair_basis(p))
    assert len(oracle.exact_spectrum(p, -0.17)) == h.shape[0]


def test_basis_counts():
    p = rs.build_lattice_model(2, 2)
    basis = oracle.pair_basis(p)
    assert all(sum(s) == 2 for s in basis)
    caps = p.capacities()
    assert all(all(c <= cap for c, cap in zip(s, caps)) for s in basis)
    assert basis == sorted(basis)


def test_sweep_energy_matches_lowest_eigenvalue():
    p = rs.build_lattice_model(2, 2)
    occ = rs.ground_occupation(p)
    eta2, d = p.eta2_array(), p.d_array()
    cur = newton_core(weak_seed(p, occ, -1e-3)[0], -1e-3, eta2, d)[0]
    for gv in np.linspace(-1e-3, -0.1, 15):
        cur = newton_core(cur, gv, eta2, d)[0]
    energy = complex(np.sum(cur))
    assert abs(energy.imag) <= IMAG_TOL
    spec = oracle.exact_spectrum(p, -0.1)
    assert abs(energy.real - spec[0]) < 1e-8


@pytest.mark.parametrize("level", [rs.Level(0.0, 3), rs.Level(0.0, 5, nu=1)])
def test_odd_omega_minus_2nu_is_refused(level):
    # -2d = Omega/2 - nu is no whole pair capacity
    p = rs.PairingProblem((level, rs.Level(1.0, 2)), 1)
    for spectrum in (oracle.exact_spectrum, oracle.ground_energy):
        with pytest.raises(ValueError, match="odd Omega - 2 nu = 3"):
            spectrum(p, -0.1)


def test_dimension_guard():
    p = rs.build_lattice_model(8, 16)
    with pytest.raises(OracleDimensionError):
        oracle.exact_spectrum(p, 0.0)


@pytest.mark.parametrize("g", [-0.3, 0.0, 0.2])
def test_exact_spectrum_of_blocked_levels_is_the_twins(seniority_twins, g):
    blocked, twin = seniority_twins
    assert oracle.pair_basis(blocked) == oracle.pair_basis(twin)
    assert oracle.exact_spectrum(blocked, g).tobytes() == \
        oracle.exact_spectrum(twin, g).tobytes()


@pytest.mark.parametrize("n, pairs", [
    (2, 1), (2, 2), (2, 4), (3, 1), (3, 5), (3, 9), (4, 1), (4, 4),
    (4, 8), (4, 16), (5, 1), (5, 7), (5, 25), (6, 1), (6, 6), (6, 18),
    (6, 36)])
def test_basis_dimension_counts_lattice_basis(n, pairs):
    p = rs.build_lattice_model(n, pairs)
    assert oracle.basis_dimension(p) == len(oracle.pair_basis(p))


@pytest.mark.parametrize("pairs", [1, 3, 6, 10, 11])
def test_basis_dimension_mixed_capacities(pairs):
    p = rs.PairingProblem((rs.Level(0.0, 2), rs.Level(0.4, 6),
                           rs.Level(1.1, 4), rs.Level(1.5, 10)), pairs)
    assert oracle.basis_dimension(p) == len(oracle.pair_basis(p))


def _loop_hamiltonian(problem, g):
    """The Python triple loop `oracle.hamiltonian` was built with, kept as
    the reference for the vectorized build."""
    dim = oracle.checked_dimension(problem)
    basis = oracle.pair_basis(problem)
    index = {state: i for i, state in enumerate(basis)}
    eta2 = problem.eta2_array()
    caps = problem.capacities()
    g2 = 2.0 * g
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


SMALL_PROBLEMS = {
    "lat2": rs.build_lattice_model(2, 2),
    "lat4": rs.build_lattice_model(4, 4),
    "mixed": rs.PairingProblem((rs.Level(0.0, 2), rs.Level(0.4, 6),
                                rs.Level(1.1, 4), rs.Level(1.5, 10)), 6),
    # more levels than an int64 mixed-radix state key could number
    "64-levels": rs.PairingProblem(
        tuple(rs.Level(0.1 * j, 2) for j in range(64)), 1),
}


@pytest.mark.parametrize("g", [-0.17, 0.0, 0.3])
@pytest.mark.parametrize("name", SMALL_PROBLEMS)
def test_hamiltonian_equals_the_loop_bitwise(name, g):
    p = SMALL_PROBLEMS[name]
    h = oracle.hamiltonian(p, g)
    assert h.tobytes() == _loop_hamiltonian(p, g).tobytes()


@pytest.mark.parametrize("name", SMALL_PROBLEMS)
def test_g_zero_spectrum_is_eigvalsh_bitwise(name):
    # at g = 0 exact_spectrum sorts the diagonal instead of calling eigvalsh
    p = SMALL_PROBLEMS[name]
    want = np.linalg.eigvalsh(_loop_hamiltonian(p, 0.0))
    assert oracle.exact_spectrum(p, 0.0).tobytes() == want.tobytes()


@pytest.mark.parametrize("name", [*SMALL_PROBLEMS, "lat6m6"])
def test_basis_row_is_its_lex_rank(name):
    # `hamiltonian` indexes H's rows by `_lex_ranks` directly
    p = SMALL_PROBLEMS.get(name) or rs.build_lattice_model(6, 6)
    states = oracle._states(p)
    ranks = oracle._lex_ranks(states, p.capacities(), p.m_pairs)
    assert np.array_equal(ranks, np.arange(len(states)))


def _agrees_with_eigvalsh(p, g):
    want = np.linalg.eigvalsh(oracle.hamiltonian(p, g))[0]
    return (abs(oracle.ground_energy(p, g) - want)
            <= 1e-10 * max(1.0, abs(want)))


@pytest.mark.parametrize("g", [-0.17, 0.0, 0.3])
@pytest.mark.parametrize("name", SMALL_PROBLEMS)
def test_ground_energy_is_the_lowest_eigenvalue(name, g):
    assert _agrees_with_eigvalsh(SMALL_PROBLEMS[name], g)


@pytest.mark.parametrize("g", [-0.3, -0.198, -0.05, 0.0, 0.05, 0.198, 0.3])
def test_ground_energy_is_the_lowest_eigenvalue_at_dimension_2004(g):
    assert _agrees_with_eigvalsh(rs.build_lattice_model(6, 6), g)


def test_ground_energy_is_exact_once_krylov_spans_the_basis(monkeypatch):
    # with no stopping rule, Lanczos runs until its space is the whole
    # 41-state basis, below the step cap
    p = SMALL_PROBLEMS["lat4"]
    assert oracle.basis_dimension(p) < oracle.LANCZOS_MAX_STEPS
    monkeypatch.setattr(oracle, "LANCZOS_TOL", 0.0)
    assert _agrees_with_eigvalsh(p, 0.3)


def test_ground_energy_of_a_one_state_basis():
    p = rs.PairingProblem((rs.Level(0.0, 2), rs.Level(1.0, 2)), 2)
    assert oracle.basis_dimension(p) == 1
    assert oracle.ground_energy(p, 0.3) == oracle.hamiltonian(p, 0.3)[0, 0]


def test_ground_energy_repeats_bit_for_bit():
    p = rs.build_lattice_model(6, 6)
    assert oracle.ground_energy(p, 0.198) == oracle.ground_energy(p, 0.198)


def test_ground_energy_raises_past_its_step_cap(monkeypatch):
    monkeypatch.setattr(oracle, "LANCZOS_MAX_STEPS", 3)
    with pytest.raises(OracleConvergenceError, match="in 3 steps"):
        oracle.ground_energy(SMALL_PROBLEMS["lat4"], 0.3)


def test_ground_energy_guards_before_enumerating(monkeypatch):
    def no_basis(problem):
        raise AssertionError("pair basis enumerated past the guard")

    monkeypatch.setattr(oracle, "pair_basis", no_basis)
    with pytest.raises(OracleDimensionError):
        oracle.ground_energy(rs.build_lattice_model(6, 18), -0.1)


@pytest.mark.parametrize("g", [-0.3, 0.0, 0.2])
def test_ground_energy_of_blocked_levels_is_the_twins(seniority_twins, g):
    blocked, twin = seniority_twins
    assert np.float64(oracle.ground_energy(blocked, g)).tobytes() == \
        np.float64(oracle.ground_energy(twin, g)).tobytes()
