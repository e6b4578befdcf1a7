import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import richardson as rs
from richardson import _kernels as kern
from richardson import continuation, solver
from richardson.errors import (ContinuationError, InitializationError,
                               SingularEvaluationError)
from richardson.solver import (Walker, _single_level_roots, newton_core,
                               symmetrize_conjugate)

from conftest import physical_state_at, weak_seed

ONE_PAIR = rs.PairingProblem((rs.Level(1.0, 2),), 1)
ONE_PAIR_ARRAYS = (ONE_PAIR.eta2_array(), ONE_PAIR.d_array())


def test_one_pair_closed_form_root():
    # 1 - 4g d/(2 eta - e) = 0  =>  e = 2 eta - 4 g d = 2.2 for
    # eta=1, d=-1/2, g=0.1 (attractive g<0 lowers the energy, as the
    # exact-diagonalization convention requires)
    r = kern.residuals(np.array([2.2 + 0j]), 0.1, *ONE_PAIR_ARRAYS)[0]
    assert abs(r[0]) < 1e-14


def test_residual_pole_error():
    with pytest.raises(SingularEvaluationError):
        newton_core([2.0], 0.1, *ONE_PAIR_ARRAYS)


def test_equal_pair_energies_pole_before_iteration():
    p = rs.PairingProblem((rs.Level(0.0, 8),), 2)
    with pytest.raises(SingularEvaluationError):
        newton_core([0.3, 0.3], 0.05, p.eta2_array(), p.d_array())


def _random_state(rng, problem, spread=0.3):
    m = problem.m_pairs
    eta2 = problem.eta2_array()
    base = rng.choice(eta2, size=m) + rng.normal(0, spread, m)
    return base + 1j * rng.normal(0, spread, m)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(7)
    p, g = rs.build_lattice_model(2, 3), -0.07
    eta2, d = p.eta2_array(), p.d_array()
    h = 1e-7
    for _ in range(20):
        e = _random_state(rng, p)
        jac = kern.jacobian_at(e, g, eta2, d)
        for b in range(len(e)):
            for part, scale in ((1.0, 1.0), (1j, 1j)):
                diff = np.zeros(len(e), dtype=complex)
                diff[b] = h * part
                fd = (kern.residuals(e + diff, g, eta2, d)[0]
                      - kern.residuals(e - diff, g, eta2, d)[0]) / (2 * h)
                # holomorphic: d/d(Im e) = i * d/d(Re e)
                expect = jac[:, b] * scale
                err = np.max(np.abs(fd - expect))
                assert err <= 1e-6 * max(1.0, np.max(np.abs(expect)))


def test_jacobian_symmetry_and_one_pair_value():
    rng = np.random.default_rng(3)
    p = rs.build_lattice_model(2, 2)
    jac = kern.jacobian_at(_random_state(rng, p), 0.04, p.eta2_array(),
                           p.d_array())
    off = jac - np.diag(np.diag(jac))
    assert np.allclose(off, off.T)

    jac1 = kern.jacobian_at(np.array([1.7 + 0j]), 0.1, *ONE_PAIR_ARRAYS)
    expect = -4 * 0.1 * (-0.5) / (2.0 - 1.7) ** 2
    assert jac1.shape == (1, 1)
    assert abs(jac1[0, 0] - expect) < 1e-12


def test_newton_one_pair_converges():
    vals, ok, _, rn = newton_core([2.5], 0.1, *ONE_PAIR_ARRAYS)
    assert ok
    assert rn <= 1e-12
    assert abs(vals[0] - 2.2) < 1e-12


def test_newton_6x6_weak_coupling(lattice6, ground6):
    eta2, d = lattice6.eta2_array(), lattice6.d_array()
    cur = weak_seed(lattice6, ground6, -1e-3)[0]
    for gv in np.linspace(-1e-3, -0.02, 8):
        cur, ok, _, _ = newton_core(cur, gv, eta2, d)
        assert ok
    assert np.max(np.abs(kern.residuals(cur, gv, eta2, d)[0])) <= 1e-12
    sym = symmetrize_conjugate(cur)
    assert np.max(np.abs(np.sort_complex(sym) -
                         np.sort_complex(cur))) < 1e-12


def test_newton_nonconvergence_reported_not_raised():
    # absurdly tight iteration budget: must report, never raise
    p = rs.build_lattice_model(2, 2)
    seed = weak_seed(p, rs.ground_occupation(p), -1e-3)[0]
    assert not newton_core(seed, -0.2, p.eta2_array(), p.d_array(),
                           max_iter=1)[1]


def test_init_weak_coupling_single_pair_order():
    p = rs.PairingProblem((rs.Level(1.0, 2),), 1)
    errs = []
    for g in (1e-3, 5e-4):
        vals = weak_seed(p, (1,), g)[0]
        # exact root of the reduced system: e = 2 eta - 4 g d + O(g^2)
        errs.append(abs(vals[0] - (2.0 - 4 * g * (-0.5))))
    assert errs[0] < 1e-12 and errs[1] < 1e-12


def test_init_weak_coupling_6x6_level2(lattice6):
    from dataclasses import replace
    p = replace(lattice6, m_pairs=4)
    occ = (0, 0, 4, 0, 0, 0, 0, 0, 0)
    vals, origin = weak_seed(p, occ, -1e-3)
    assert len(vals) == 4
    assert np.all(np.abs(vals - (-4.0)) < 0.05)
    assert np.max(np.abs(np.sort_complex(vals) -
                         np.sort_complex(np.conj(vals)))) < 1e-12
    assert origin == (2, 2, 2, 2)


def test_init_weak_coupling_spec_example_level(lattice6):
    # 4 pairs on the omega=8 level at 2 eta = -6: two conjugate pairs
    from dataclasses import replace
    p = replace(lattice6, m_pairs=4)
    occ = (0, 4, 0, 0, 0, 0, 0, 0, 0)
    vals = weak_seed(p, occ, -1e-3)[0]
    assert np.all(np.abs(vals - (-6.0)) < 0.05)
    assert np.count_nonzero(vals.imag > 1e-12) == 2


def test_init_weak_coupling_bounds():
    # a level asked to seed more pairs than it can hold has no solution
    with pytest.raises(InitializationError):
        _single_level_roots(-0.5, 2)


def test_one_pair_matches_companion_matrix_oracle():
    # brute-force oracle: clear denominators of 1 = 4g sum d_j/(2eta_j - e)
    # and take companion-matrix roots of the resulting polynomial
    levels = (rs.Level(-1.0, 4), rs.Level(0.5, 2), rs.Level(2.0, 6))
    for g in (-0.15, 0.08, 0.3):
        p = rs.PairingProblem(levels, 1)
        eta2, d = p.eta2_array(), p.d_array()
        poly = np.poly(eta2)                      # prod (e - 2eta_j)
        for j in range(3):
            others = np.poly(np.delete(eta2, j))
            poly = np.polyadd(poly, 4 * g * d[j] * np.pad(
                others, (len(poly) - len(others), 0)))
        roots = np.roots(poly)
        g0 = np.sign(g) * 1e-3
        cur = weak_seed(p, (1, 0, 0), g0)[0]
        for gv in np.linspace(g0, g, 12):
            cur = newton_core(cur, gv, eta2, d)[0]
        assert np.min(np.abs(roots - cur[0])) < 1e-10


def test_solution_continuous_in_g():
    p = rs.build_lattice_model(2, 2)
    eta2, d = p.eta2_array(), p.d_array()
    cur = newton_core(weak_seed(p, rs.ground_occupation(p), -1e-3)[0],
                      -1e-3, eta2, d)[0]
    last = None
    for gv in np.linspace(-1e-3, -0.3, 40):
        cur = newton_core(cur, gv, eta2, d)[0]
        if last is not None:
            assert np.max(np.abs(np.sort_complex(cur) -
                                 np.sort_complex(last))) < 0.2
        last = cur


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
                               eta2, d)[0]
        pair = kern.residuals(np.array([0.7, 0.7, -1.0]), -0.2, eta2, d)[0]
    assert not np.isfinite(level[0]) and np.all(np.isfinite(level[1:]))
    assert not np.any(np.isfinite(pair[:2])) and np.isfinite(pair[2])


def test_newton_escaped_energy_stops_without_warnings():
    # one energy far outside the spectrum overflows the Jacobian; the
    # non-finite step ends the solve instead of halving NaN trials
    p = rs.build_lattice_model(4, 4)
    seed = weak_seed(p, rs.ground_occupation(p), -1e-3)[0]
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


def _symmetrize_reference(values):
    """The numpy-scalar greedy that symmetrize_conjugate replaced, verbatim."""
    vals = np.array(values, dtype=np.complex128)
    todo = list(range(vals.shape[0]))
    while todo:
        i = todo.pop(0)
        best_j = i
        best = abs(vals[i] - np.conj(vals[i]))
        for j in todo:
            dist = abs(vals[i] - np.conj(vals[j]))
            if dist < best:
                best, best_j = dist, j
        if best_j == i:
            vals[i] = vals[i].real
        else:
            todo.remove(best_j)
            z = 0.5 * (vals[i] + np.conj(vals[best_j]))
            vals[i] = z
            vals[best_j] = np.conj(z)
    return vals


_GRID = st.integers(-20, 20).map(lambda k: k / 10)   # exact distance ties
_PARTS = st.one_of(
    _GRID,
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e200,
                     -1e200]),
    _GRID.map(lambda x: x * 1e200),
    st.floats(width=64))
_VALUES = st.one_of(
    st.builds(complex, _PARTS, _PARTS),
    st.integers(-3, 3).map(lambda k: complex(k / 10)),   # repeated reals
    st.sampled_from([complex(1.5e308, 1.5e308),          # finite, but the
                     complex(-1.5e308, -1.5e308)]))      # distances overflow


@st.composite
def _symmetrize_inputs(draw):
    vals = draw(st.lists(_VALUES, max_size=10))
    for z in draw(st.lists(_VALUES, max_size=4)):
        eps = draw(st.sampled_from([0.0, 1e-13, 1e-9, 1e-3]))
        vals += [z, z.conjugate() + complex(eps, -eps)]   # near-conjugate
    return draw(st.permutations(vals))


@settings(max_examples=500, deadline=None)
@given(_symmetrize_inputs())
# an overflowing distance leaves errno at ERANGE for the NaN self-distance
@example([0j, complex(0, math.nan), complex(1.5e308, 1.5e308)])
# all-real inputs, which skip the greedy
@example([])
@example([complex(0.5, -0.0), complex(-1.0, -0.0), complex(2.0, 0.0)])
@example([complex(math.nan, 0.0), complex(math.inf, -0.0),
          complex(-math.inf, 0.0), complex(0.3, 0.0)])
@example([complex(0.3, 0.0), complex(0.3, -0.0), complex(0.3, 0.0),
          complex(-0.1, 0.0), complex(-0.1, 0.0), complex(math.nan, 0.0),
          complex(math.nan, 0.0)])
def test_symmetrize_conjugate_bit_identical_to_numpy_loop(vals):
    with np.errstate(all="ignore"):   # the reference warns on inf and NaN
        want = _symmetrize_reference(vals)
    got = symmetrize_conjugate(vals)
    assert got.dtype == np.complex128 and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_newton_core_restores_error_state(monkeypatch):
    one = (np.array([2.0]), np.array([-0.5]))      # eta2, d
    p = rs.build_lattice_model(4, 4)
    escaped = weak_seed(p, rs.ground_occupation(p), -1e-3)[0]
    escaped[-1] = 1e160

    def halvings(n, e0):
        monkeypatch.setattr(solver, "NEWTON_MAX_HALVINGS", n)
        return newton_core(e0, -0.1, *one)

    exits = [
        # converged: e = 2 eta - 4 g d = 1.8
        (lambda: newton_core([1.7], -0.1, *one), (True, 5)),
        # g = 0 gives a zero Jacobian: LinAlgError before the first step
        (lambda: newton_core([1.7], 0.0, *one), (False, 0)),
        # the escaped energy overflows the Jacobian: non-finite step
        (lambda: newton_core(escaped, -0.1, p.eta2_array(), p.d_array()),
         (False, 1)),
        # the full step from 2 - 0.39 overshoots to 2 - 0.0195 and no
        # halving is allowed
        (lambda: halvings(0, [1.61]), (False, 1)),
        # with one halving allowed, the halved step passes (a batch of one)
        (lambda: halvings(1, [1.61]), (True, 4)),
    ]
    state = dict(divide="raise", over="warn", under="print", invalid="log")
    with np.errstate(**state):
        before = np.geterr()
        for call, (ok, iters) in exits:
            _, got_ok, got_iters, _ = call()
            assert (got_ok, got_iters) == (ok, iters)
            assert np.geterr() == before
        # entry level and pair poles: the entry residual divides by zero
        # without raising FloatingPointError, and its non-finite value
        # triggers the scan
        for e0 in ([2.0], [1.0, 1.0]):
            with pytest.raises(SingularEvaluationError):
                newton_core(e0, -0.1, *one)
            assert np.geterr() == before
    assert before == {"divide": "raise", "over": "warn", "under": "print",
                      "invalid": "log"}


def test_newton_core_scans_for_poles_only_on_a_non_finite_start(
        monkeypatch):
    def no_scan(e, eta2):
        raise AssertionError("find_poles called on a finite start")

    monkeypatch.setattr(solver, "find_poles", no_scan)
    p = rs.build_lattice_model(4, 4)
    eta2, d = p.eta2_array(), p.d_array()
    seed = weak_seed(p, rs.ground_occupation(p), -1e-3)[0]
    assert newton_core(seed, -1e-3, eta2, d)[1]
    # a start one ulp off a level pole
    near = seed.copy()
    near[0] = np.nextafter(eta2[0], np.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        newton_core(near, -0.1, eta2, d, max_iter=3)
    # secant-seeded solves along a walk
    walker = Walker(eta2, d, -1e-3, seed, min_step=1e-6, name="test")
    walker.advance_to(-0.05)


@pytest.mark.parametrize("e0, eta2, hit", [
    ([2.0, 1.0 + 0.5j, 1.0 - 0.5j], [2.0, 5.0], "[('level', 0, 0)]"),
    ([0.7, 0.7, -1.0], [2.0, 5.0], "[('pair', 0, 1)]"),
    ([2.0, 2.0], [2.0, 5.0], "[('level', 0, 0), ('level', 1, 0), "
                             "('pair', 0, 1)]"),
])
def test_entry_pole_message_names_every_pole(e0, eta2, hit):
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        with pytest.raises(SingularEvaluationError) as err:
            newton_core(e0, -0.2, np.array(eta2), np.array([-0.5, -1.0]))
    assert str(err.value) == f"singular evaluation: exact pole(s) at {hit}"


def test_walker_lands_on_target_both_ways(lattice6, ground6):
    walker, origin, rn = Walker.weak_start(
        lattice6.eta2_array(), lattice6.d_array(), ground6.counts, -1e-3,
        min_step=1e-7, name="ground branch")
    assert len(origin) == 18 and rn <= 1e-12
    for g_to in (-0.03, -0.01):         # away from g = 0, then back
        e = walker.advance_to(g_to)
        assert walker.g == g_to
        direct = physical_state_at(lattice6, ground6, g_to)
        assert np.allclose(np.sort_complex(e), np.sort_complex(direct),
                           rtol=0, atol=1e-10)


def _one_pair_walker(min_step):
    # one pair on one level: e(g) = 2 eta - 4 g d = 2 + 2g
    return Walker(np.array([2.0]), np.array([-0.5]), 0.125, [2.25],
                  min_step=min_step, name="one pair")


def test_walker_halves_on_failure_and_clamps(monkeypatch):
    tried = []

    def fails_beyond_0_3(e0, g, eta2, d, **kw):
        tried.append(g)
        out = newton_core(e0, g, eta2, d, **kw)
        return (out[0], False) + out[2:] if g > 0.3 else out

    monkeypatch.setattr(solver, "newton_core", fails_beyond_0_3)
    walker = _one_pair_walker(min_step=1e-3)
    e_start = walker.e
    step, iters, rn = walker.step_toward(1.0, 0.5)
    assert tried == [0.625, 0.375, 0.25]
    assert step == 0.125 and rn <= 1e-12
    assert walker.g == 0.25 and abs(walker.e[0] - 2.5) < 1e-12
    assert walker.prev[0] == 0.125 and walker.prev[1] is e_start
    # a try past g_to is clamped there; prev now feeds the secant seed,
    # which is exact on this straight line
    tried.clear()
    walker.step_toward(0.3, 0.5)
    assert tried == [0.3] and walker.g == 0.3
    assert abs(walker.e[0] - 2.6) < 1e-12


def test_walker_gives_up_below_min_step_unchanged(monkeypatch):
    tried = []

    def never_converges(e0, g, eta2, d, **kw):
        tried.append(g)
        return np.asarray(e0), False, 60, 1.0

    walker = _one_pair_walker(min_step=0.1)
    walker.step_toward(0.25)
    monkeypatch.setattr(solver, "newton_core", never_converges)
    g, e, prev = walker.g, walker.e, walker.prev
    with pytest.raises(ContinuationError, match="one pair stalled near"):
        walker.step_toward(1.0, 0.5)
    # secant seed, then the state itself, at steps 0.5, 0.25 and 0.125;
    # step 0.0625 is below min_step
    assert tried == [0.75, 0.75, 0.5, 0.5, 0.375, 0.375]
    assert walker.g == g and walker.e is e and walker.prev is prev


def test_walker_on_the_empty_system(monkeypatch):
    walker, origin, rn = Walker.weak_start(
        np.array([0.0, 2.0]), np.array([-1.0, -1.0]), (0, 0), 1e-3,
        min_step=1e-7, name="empty")
    assert origin == () and rn == 0.0
    # nothing to solve: the walk moves g without calling Newton
    monkeypatch.setattr(solver, "newton_core", None)
    for g_to in (0.4, -0.2):
        assert walker.advance_to(g_to).shape == (0,)
        assert walker.g == g_to


def _newton_core_reference(e0, g, eta2, d, *, tol=solver.NEWTON_TOL,
                           max_iter=solver.NEWTON_MAX_ITER, step_cap=None):
    """newton_core before the crawl limit, verbatim but for module names."""
    e = symmetrize_conjugate(e0)
    if e.shape[0] == 0:
        return e, True, 0, 0.0
    iters = 0
    # poles and escaped iterates overflow the residuals and the Jacobian,
    # wild trials the residuals
    with np.errstate(all="ignore"):
        r, diff_lvl, inv = kern.residuals(e, g, eta2, d)
        rn = float(np.maximum.reduce(np.abs(r)))
        if not math.isfinite(rn):
            solver._raise_on_pole(e, eta2)
        while rn > tol and iters < max_iter:
            jac = kern.jacobian(g, d, diff_lvl, inv)
            try:
                step = np.linalg.solve(jac, -r)
            except np.linalg.LinAlgError:
                break
            iters += 1
            if not np.isfinite(step).all():
                break
            lam = 1.0
            if step_cap is not None:
                sn = float(np.maximum.reduce(np.abs(step)))
                if sn > step_cap:
                    lam = step_cap / sn
            for _ in range(solver.NEWTON_MAX_HALVINGS + 1):
                trial = symmetrize_conjugate(e + lam * step)
                rt, diff_t, inv_t = kern.residuals(trial, g, eta2, d)
                rtn = float(np.maximum.reduce(np.abs(rt)))
                if math.isfinite(rtn) and (rtn < rn or rtn <= tol):
                    e, r, rn, diff_lvl, inv = trial, rt, rtn, diff_t, inv_t
                    break
                lam *= 0.5
            else:
                break
    return e, rn <= tol, iters, rn


def _same_bits(got, want):
    """Two newton_core results agree bit for bit."""
    (e, ok, iters, rn), (e_w, ok_w, iters_w, rn_w) = got, want
    return ((ok, iters) == (ok_w, iters_w)
            and np.array_equal(e.view(np.uint64), e_w.view(np.uint64))
            and np.float64(rn).view(np.uint64)
            == np.float64(rn_w).view(np.uint64))


def _with_halvings(monkeypatch, core, *args, **kwargs):
    """core(*args, **kwargs) and the halvings each of its Newton iterations
    made before a trial was accepted (or the halvings ran out).

    Each Jacobian starts an iteration.  Its trials are the rows of the
    residual passes it makes, one per pass or a batch of them at once, in
    order; the accepted one is the first whose residual norm passes the
    damping test against the iterate's norm, and its index is the count
    of halvings.  An iteration that accepts none counts its trials less
    one, as one that ran out of halvings."""
    tol = kwargs.get("tol", solver.NEWTON_TOL)
    norms = []          # the start's norm, then one list per iteration
    residuals, jacobian = kern.residuals, kern.jacobian

    def counting_residuals(*a):
        out = residuals(*a)
        rtn = np.maximum.reduce(np.abs(out[0]), axis=-1)
        if norms:           # the start's pass belongs to no iteration
            norms[-1].extend(np.atleast_1d(rtn).tolist())
        else:
            norms.append(float(rtn))
        return out

    def counting_jacobian(*a):
        norms.append([])
        return jacobian(*a)

    with monkeypatch.context() as m:
        m.setattr(kern, "residuals", counting_residuals)
        m.setattr(kern, "jacobian", counting_jacobian)
        out = core(*args, **kwargs)
    halvings = []
    rn = norms[0] if norms else None
    for trials in norms[1:]:
        passed = [h for h, rtn in enumerate(trials)
                  if math.isfinite(rtn) and (rtn < rn or rtn <= tol)]
        if passed:
            halvings.append(passed[0])
            rn = trials[passed[0]]
        else:
            halvings.append(len(trials) - 1)
    return out, halvings


def _longest_crawl(halvings):
    run = longest = 0
    for h in halvings:
        run = run + 1 if h > solver.NEWTON_CRAWL_HALVINGS else 0
        longest = max(longest, run)
    return longest


class _Found(Exception):
    pass


def _first_solve(monkeypatch, run, pick):
    """The arguments (e0, g, eta2, d, kwargs) of the first Newton solve of
    run() that pick(arguments, result) accepts; run stops there."""
    found = []

    def recording(e0, g, eta2, d, **kwargs):
        out = newton_core(e0, g, eta2, d, **kwargs)
        args = (np.array(e0), g, eta2, d, kwargs)
        if pick(args, out):
            found.append(args)
            raise _Found
        return out

    with monkeypatch.context() as m:
        m.setattr(solver, "newton_core", recording)
        m.setattr(continuation, "newton_core", recording)
        with pytest.raises(_Found):
            run()
    return found[0]


@pytest.mark.parametrize("case", ["toy3 hop", "sweep to -0.45"])
def test_slow_converged_solves_are_bit_identical(monkeypatch, toy_3lvl,
                                                 case):
    # the converged solves of the test suite with the longest crawls: the
    # toy3 scan's hop at -0.0822 (5 crawling iterations, as in 10 other
    # tests) and a solve of test_point_beyond_target_is_not_crossed (9)
    if case == "toy3 hop":
        g_hop, iters, crawl = -0.08219942960143088, 10, 5

        def run():
            rs.scan_critical(toy_3lvl, 0, (-0.6, 0.0))
    else:
        g_hop, iters, crawl = -0.42870879821637403, 26, 9
        p = rs.PairingProblem((rs.Level(0.0, 2), rs.Level(1.0, 2),
                               rs.Level(2.5, 2)), 2)

        def run():
            continuation.sweep(p, rs.ground_occupation(p), -0.45)
    e0, g, eta2, d, kwargs = _first_solve(
        monkeypatch, run,
        lambda args, out: args[1] == g_hop and out[2] == iters)
    want, halvings = _with_halvings(monkeypatch, _newton_core_reference,
                                    e0, g, eta2, d, **kwargs)
    assert want[1] and _longest_crawl(halvings) == crawl
    assert _same_bits(newton_core(e0, g, eta2, d, **kwargs), want)


def test_crawling_solve_stops_after_12_crawling_iterations(monkeypatch):
    # the 4x4 M=4 level-4 deflated walk of the benchmark's verify job
    # stalls near g = -0.2003; its first solve that the reference would
    # have taken further
    lat4 = rs.build_lattice_model(4, 4)
    e0, g, eta2, d, kwargs = _first_solve(
        monkeypatch,
        lambda: rs.scan_critical(lat4, 4, (-0.208, 0.0),
                                 deflated_occ=(1, 1, 0, 0, 0)),
        lambda args, out: _newton_core_reference(
            *args[:4], **args[4])[2] > out[2])
    assert kwargs == {"max_iter": 60} and -0.2006 < g < -0.2003
    got, halvings = _with_halvings(monkeypatch, newton_core,
                                   e0, g, eta2, d, **kwargs)
    # two plain iterations, then 12 that each accept a trial only after
    # more than 8 halvings
    assert not got[1] and got[2] == 14
    assert [h > solver.NEWTON_CRAWL_HALVINGS for h in halvings] \
        == [False] * 2 + [True] * solver.NEWTON_MAX_CRAWL
    # the same iterates as the reference up to the stop; the reference
    # crawls on until its iteration budget runs out
    assert _same_bits(got, _newton_core_reference(e0, g, eta2, d,
                                                  max_iter=14))
    want, halvings = _with_halvings(monkeypatch, _newton_core_reference,
                                    e0, g, eta2, d, **kwargs)
    assert not want[1] and want[2] == 60 and _longest_crawl(halvings) > 50


def test_the_lat4_stall_costs_a_fixed_number_of_residual_passes(
        monkeypatch):
    # the scan that the benchmark's 4x4 verify job runs for this branch:
    # its real crawling iterations test their damping ladders in batches
    # (49 999 passes with one pass per rung)
    lat4 = rs.build_lattice_model(4, 4)
    g_range = continuation.auto_scan_range(
        -0.198, continuation.SweepOptions().crossing_radius)
    passes = []
    residuals = kern.residuals

    def counting_residuals(*a):
        passes.append(a[0].ndim)
        return residuals(*a)

    monkeypatch.setattr(kern, "residuals", counting_residuals)
    with pytest.warns(rs.critical.TruncatedScanWarning,
                      match=r"stalled near g=-0\.20034647 "
                            r"\(residual 1\.44e-09\)"):
        rs.scan_critical(lat4, 4, g_range, deflated_occ=(1, 1, 0, 0, 0))
    assert g_range == (-0.20800000000000002, 0.0)
    assert len(passes) == 15_897 and 2 in passes


def test_a_small_step_cap_alone_is_no_crawl():
    # one pair, e = 1.8 at g = -0.1: from 1.84 the capped steps of 1e-4
    # are below 2^-8 of the Newton step for over 80 iterations, but each
    # is accepted without a halving
    one = (np.array([2.0]), np.array([-0.5]))
    got = newton_core([1.84], -0.1, *one, step_cap=1e-4, max_iter=500)
    assert got[1] and got[2] > 300
    assert _same_bits(got, _newton_core_reference(
        [1.84], -0.1, *one, step_cap=1e-4, max_iter=500))


_ETA2 = st.lists(st.integers(-8, 8), min_size=1, max_size=3,
                 unique=True).map(lambda js: np.array(sorted(js)) / 2.0)
_START = st.builds(complex, st.floats(-6, 6), st.floats(-2, 2))
# imaginary part exactly 0: the iterates and steps stay real, and every
# damping ladder past its first rung is tested in one batched pass
_REAL_START = st.floats(-6, 6).map(complex)


def _newton_cases(start):
    """(eta2, d, e0, g, step_cap) on 1-3 levels with up to 4 pairs drawn
    from `start`."""
    return _ETA2.flatmap(lambda eta2: st.tuples(
        st.just(eta2),
        st.lists(st.sampled_from([-0.5, -1.0, -1.5]),
                 min_size=len(eta2), max_size=len(eta2)).map(np.array),
        st.lists(start, min_size=1, max_size=4).map(np.array),
        st.floats(-0.6, 0.6),
        st.sampled_from([None, 1e-3, 0.05])))


@settings(max_examples=200, deadline=None)
@given(_newton_cases(_START))
def test_newton_stops_on_the_reference_iterates(args):
    # from any start, the crawl limit only cuts the reference's iteration
    # short: same bits as the reference run for as many iterations
    eta2, d, e0, g, step_cap = args
    try:
        got = newton_core(e0, g, eta2, d, step_cap=step_cap)
    except SingularEvaluationError:
        return
    want = _newton_core_reference(e0, g, eta2, d, step_cap=step_cap,
                                  max_iter=got[2])
    assert _same_bits(got, want)


@settings(max_examples=200, deadline=None)
@given(_newton_cases(_REAL_START))
def test_newton_from_real_starts_stops_on_the_reference_iterates(args):
    # the batched ladder accepts the rung that the reference's per-rung
    # loop accepts, with the same bits
    eta2, d, e0, g, step_cap = args
    try:
        got = newton_core(e0, g, eta2, d, step_cap=step_cap)
    except SingularEvaluationError:
        return
    assert not got[0].imag.any()
    want = _newton_core_reference(e0, g, eta2, d, step_cap=step_cap,
                                  max_iter=got[2])
    assert _same_bits(got, want)


@pytest.mark.parametrize("max_halvings", [0, 1, 2])
def test_short_damping_ladders_match_the_reference(monkeypatch,
                                                   max_halvings):
    # the ladder's length is read at call time, by the batch as well
    monkeypatch.setattr(solver, "NEWTON_MAX_HALVINGS", max_halvings)
    rng = np.random.default_rng(max_halvings)
    eta2, d = np.array([0.0, 1.0, 2.5]), np.array([-0.5, -1.0, -0.5])
    for _ in range(200):
        e0 = rng.uniform(-1, 4, int(rng.integers(1, 5)))
        if rng.random() < 0.5:
            e0 = e0 + 1j * rng.uniform(-1, 1, e0.shape)
        g = float(rng.uniform(-0.6, 0.6))
        got = newton_core(e0, g, eta2, d)
        assert _same_bits(got, _newton_core_reference(e0, g, eta2, d,
                                                      max_iter=got[2]))


@st.composite
def _walk_steps(draw):
    """A small problem's branch walked by the reference Newton toward g_to,
    and the coupling of its next step."""
    etas = draw(st.lists(st.integers(-4, 4), min_size=2, max_size=3,
                         unique=True))
    levels = tuple(rs.Level(j / 2.0, draw(st.sampled_from([2, 4, 6])))
                   for j in sorted(etas))
    counts = [draw(st.integers(0, min(2, lv.pair_capacity)))
              for lv in levels]
    counts[0] = max(counts[0], 1 - sum(counts))
    p = rs.PairingProblem(levels, sum(counts))
    g_to = draw(st.floats(0.01, 0.6)) * draw(st.sampled_from([-1, 1]))
    frac = draw(st.sampled_from([1.0, 0.5, 0.1, 0.01]))
    return p, tuple(counts), g_to, frac


@settings(max_examples=60, deadline=None)
@given(_walk_steps())
def test_newton_matches_the_reference_wherever_it_converges(args):
    # Newton's solves in the program are continuation steps: the walker's
    # state, or its secant prediction, at the next coupling.  Wherever the
    # reference converges from such a seed, both agree bit for bit.
    p, counts, g_to, frac = args
    eta2, d = p.eta2_array(), p.d_array()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "newton_core", _newton_core_reference)
        walker, _, _ = Walker.weak_start(
            eta2, d, counts, math.copysign(solver.weak_coupling_g(p), g_to),
            min_step=1e-7, name="walk")
        try:
            walker.advance_to(g_to)
        except ContinuationError:
            pass                # the walk stalled: step from where it stands
    g_next = walker.g + frac * (g_to - walker.g) if walker.g != g_to \
        else 1.01 * g_to
    seeds = [walker.e]
    if walker.prev is not None and walker.prev[0] != walker.g:
        slope = (walker.e - walker.prev[1]) / (walker.g - walker.prev[0])
        seeds.append(walker.e + slope * (g_next - walker.g))
    for seed in seeds:
        want = _newton_core_reference(seed, g_next, eta2, d, max_iter=60)
        if want[1]:
            assert _same_bits(newton_core(seed, g_next, eta2, d,
                                          max_iter=60), want)
