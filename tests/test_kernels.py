"""The kernels give the same floats, bit for bit, as the straightforward
forms below, which are kept verbatim as the reference: the critical records
move when the summation order of the residual changes (see
notes/decisions.md, "Round-off and the level-5 records")."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from richardson import _kernels as kern

# ---------------------------------------------------------------------------
# reference kernels (the straightforward forms, one pass each)
# ---------------------------------------------------------------------------


def _inv_offdiag_ref(e, power):
    """1/(e_a - e_b)**power with a zeroed diagonal (no inf arithmetic)."""
    diff = e[:, None] - e[None, :]
    diff.flat[::e.shape[0] + 1] = 1.0
    inv = 1.0 / diff
    inv.flat[::e.shape[0] + 1] = 0.0
    return inv ** power


def _residuals_ref(e, g, eta2, d):
    """Richardson residuals 1 - 4g sum_j d_j/(2eta_j - e_a) + 4g sum_b 1/(e_a - e_b)."""
    diff_lvl = eta2[None, :] - e[:, None]
    lvl = (d[None, :] / diff_lvl).sum(axis=1)
    pair = _inv_offdiag_ref(e, 1).sum(axis=1)
    return 1.0 - 4.0 * g * lvl + 4.0 * g * pair


def _jacobian_ref(e, g, eta2, d):
    """Analytic Jacobian of the residuals with respect to the pair energies."""
    diff_lvl = eta2[None, :] - e[:, None]
    inv2 = _inv_offdiag_ref(e, 2)
    jac = 4.0 * g * inv2
    diag = -4.0 * g * (d[None, :] / (diff_lvl * diff_lvl)).sum(axis=1) \
        - 4.0 * g * inv2.sum(axis=1)
    jac.flat[::e.shape[0] + 1] = diag
    return jac


def _pn_sums_ref(eta2, d, k, e_noncluster, n_max):
    """P_n = sum_{j!=k} d_j/(2eta_k-2eta_j)^(n+1) + sum_b 1/(2eta_k-e_b)^(n+1).

    Returns the complex values P_0..P_{n_max}; callers take the real part
    and assert the imaginary residue.
    """
    dl = eta2[k] - eta2
    dl = np.delete(dl, k)
    dj = np.delete(d, k)
    de = eta2[k] - np.asarray(e_noncluster, dtype=np.complex128)
    out = np.empty(n_max + 1, dtype=np.complex128)
    lvl_term = dj / dl
    nc_term = 1.0 / de
    for n in range(n_max + 1):
        out[n] = lvl_term.sum() + nc_term.sum()
        lvl_term = lvl_term / dl
        nc_term = nc_term / de
    return out


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and np.array_equal(got.view(np.uint64), want.view(np.uint64)))


def _same_bits_or_nan(got, want):
    """`_same_bits`, except that parts NaN in both may differ in their bits."""
    got, want = np.asarray(got), np.asarray(want)
    if got.dtype != want.dtype or got.shape != want.shape:
        return False
    got, want = got.view(np.float64), want.view(np.float64)
    return bool(np.all((got.view(np.uint64) == want.view(np.uint64))
                       | (np.isnan(got) & np.isnan(want))))


# ---------------------------------------------------------------------------
# inputs: levels, then energies that may sit on a level or pair pole, or be
# inf or NaN
# ---------------------------------------------------------------------------

_finite = st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False)
_special = st.sampled_from([np.inf, -np.inf, np.nan])


@st.composite
def _levels(draw):
    eta2 = draw(st.lists(_finite, min_size=1, max_size=9, unique=True))
    d = draw(st.lists(st.floats(-12.0, 1.0, allow_nan=False),
                      min_size=len(eta2), max_size=len(eta2)))
    return np.array(eta2), np.array(d)


@st.composite
def _energies(draw, eta2, min_size=0, max_size=20):
    n = draw(st.integers(min_size, max_size))
    out = []
    for _ in range(n):
        kind = draw(st.sampled_from(
            ["real", "complex", "level", "pair", "special"]))
        if kind == "real":
            out.append(complex(draw(_finite)))
        elif kind == "complex":
            out.append(complex(draw(_finite), draw(_finite)))
        elif kind == "level":             # exact level pole
            out.append(complex(draw(st.sampled_from(list(eta2)))))
        elif kind == "pair" and out:      # exact pair pole
            out.append(draw(st.sampled_from(out)))
        else:
            out.append(complex(draw(st.one_of(_special, _finite)),
                               draw(st.one_of(_special, _finite))))
    return np.array(out, dtype=np.complex128)


@st.composite
def _systems(draw):
    eta2, d = draw(_levels())
    return draw(_energies(eta2)), draw(_finite), eta2, d


@settings(max_examples=300, deadline=None)
@given(_systems())
def test_residuals_and_jacobian_bit_identical_to_reference(system):
    e, g, eta2, d = system
    with np.errstate(all="ignore"):
        r, diff_lvl, inv = kern.residuals(e, g, eta2, d)
        jac = kern.jacobian(g, d, diff_lvl, inv)
        assert _same_bits(r, _residuals_ref(e, g, eta2, d))
        assert _same_bits(jac, _jacobian_ref(e, g, eta2, d))
        assert _same_bits(kern.jacobian_at(e, g, eta2, d), jac)
        # tangent's second-derivative rows cube the pair inverses
        assert _same_bits(kern._inv_offdiag(e) ** 3, _inv_offdiag_ref(e, 3))


@st.composite
def _stacks(draw):
    """B = 1..31 energy vectors of one length M = 0..12, stacked (B, M)."""
    eta2, d = draw(_levels())
    m = draw(st.integers(0, 12))
    rows = draw(st.lists(_energies(eta2, m, m), min_size=1, max_size=31))
    return np.stack(rows), draw(_finite), eta2, d


_ONE_LEVEL = (np.array([1.0]), np.array([-0.5]))


@settings(max_examples=300, deadline=None)
@given(_stacks())
@example((np.empty((3, 0), dtype=np.complex128), 0.5, *_ONE_LEVEL))
# M = 1, with a row on the level pole
@example((np.array([[1.0 + 0j], [0.3 + 0j], [complex(-0.0, 0.0)]]), -0.2,
          *_ONE_LEVEL))
# a pair coincidence, and the same energies real and complex
@example((np.array([[0.3, 0.3, -1.0], [0.3, -0.2j, -1.0],
                    [0.3, complex(-0.0, -0.0), -1.0]]), 0.7, *_ONE_LEVEL))
def test_batched_residual_rows_bit_identical_to_single_calls(stack):
    # where an add meets two NaNs, numpy keeps one or the other depending
    # on the array's length (its SIMD and scalar loops differ), so a row
    # with an inf or NaN energy may differ in NaN bits alone; Newton keeps
    # no non-finite row
    es, g, eta2, d = stack
    with np.errstate(all="ignore"):
        r, diff_lvl, inv = kern.residuals(es, g, eta2, d)
        for i, e in enumerate(es):
            want = kern.residuals(e, g, eta2, d)
            want += (kern.jacobian(g, d, *want[1:]),)
            got = (r[i], diff_lvl[i], inv[i],
                   kern.jacobian(g, d, diff_lvl[i], inv[i]))
            same = _same_bits if np.isfinite(e).all() else _same_bits_or_nan
            for row, one in zip(got, want):
                assert same(row, one)


@st.composite
def _pn_cases(draw):
    eta2, d = draw(_levels())
    k = draw(st.integers(0, len(eta2) - 1))
    return (eta2, d, k, draw(_energies(eta2)), draw(st.integers(0, 35)))


@settings(max_examples=300, deadline=None)
@given(_pn_cases())
# P_4's level sum is -NaN (inf - inf after an overflow) and its non-cluster
# sum +NaN: the sum keeps the level sum's NaN, as the scalar form does
@example((np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 0.5, -1.32202977e-85,
                    -5.68735452e-219]),
          np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, -1.0]), 0,
          np.array([complex(np.inf, np.nan)]), 4))
def test_pn_sums_bit_identical_to_reference(case):
    with np.errstate(all="ignore"):
        assert _same_bits(kern.pn_sums(*case), _pn_sums_ref(*case))


def test_pn_sums_bit_identical_on_random_clusters():
    # the shapes the tangent and the scan ask for: up to 9 levels, up to
    # 20 conjugate-closed non-cluster energies, n_max up to 3 M_k - 1
    rng = np.random.default_rng(7)
    for _ in range(2000):
        nlev = int(rng.integers(1, 10))
        eta2 = np.sort(rng.uniform(-10, 10, nlev))
        d = -rng.integers(1, 12, nlev) / 2.0
        nb = int(rng.integers(0, 11))
        half = rng.normal(size=nb) + 1j * rng.normal(size=nb)
        e_nc = np.concatenate([half, half.conj()]) * 4.0
        case = (eta2, d, int(rng.integers(nlev)), e_nc,
                int(rng.integers(0, 33)))
        assert _same_bits(kern.pn_sums(*case), _pn_sums_ref(*case))


def test_pn_sums_stack_rows_are_the_one_row_calls():
    # stacks of 1 to 401 rows, one or two stack axes; the rows with an inf
    # or NaN energy may differ in NaN bits alone (see the residual test)
    rng = np.random.default_rng(11)
    for rows in (1, 2, 17, 401):
        nlev = int(rng.integers(1, 10))
        eta2 = np.sort(rng.uniform(-10, 10, nlev))
        d = -rng.integers(1, 12, nlev) / 2.0
        nb = int(rng.integers(0, 11))
        half = (rng.normal(size=(rows, nb))
                + 1j * rng.normal(size=(rows, nb))) * 4.0
        e_nc = np.concatenate([half, half.conj()], axis=1)
        if nb:
            e_nc[rows // 2, 0] = complex(np.nan, 1.0)
            e_nc[-1, -1] = np.inf
        k, n_max = int(rng.integers(nlev)), int(rng.integers(0, 33))
        with np.errstate(all="ignore"):
            got = kern.pn_sums(eta2, d, k, e_nc, n_max)
            for stack in (got, kern.pn_sums(eta2, d, k, e_nc.reshape(
                    (1, rows, -1)), n_max)[0]):
                for i, e in enumerate(e_nc):
                    same = (_same_bits if np.isfinite(e).all()
                            else _same_bits_or_nan)
                    assert same(stack[i], kern.pn_sums(eta2, d, k, e, n_max))
                    assert same(stack[i], _pn_sums_ref(eta2, d, k, e, n_max))

