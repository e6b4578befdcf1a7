import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import richardson as rs
from richardson import continuation, critical, oracle, solver
from richardson.cluster import (cluster_matrix, default_cluster_size,
                                pn_coefficients, scaled_determinant)
from richardson.critical import TruncatedScanWarning, critical_levels
from richardson.errors import (ConsistencyError, ContinuationError,
                               SingularEvaluationError, UnresolvedRootError)
from richardson.solver import newton_core

from conftest import (TABLE3_SCANS, fault_walks, nearest_members,
                      physical_state_at)

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def test_deflated_residuals_empty_when_all_collapse(toy_mm):
    res = rs.deflated_residuals(-0.25, [], toy_mm, 0)
    assert res.shape == (0,)


def test_deflated_residuals_weak_coupling_limit(toy_3lvl):
    # with the cluster folded into level 0, the remaining pair sits near
    # 2 eta_j of its own level with the modified degeneracy
    from richardson.critical import deflated_d_array
    from richardson.solver import _weak_seed_arrays
    eta2 = toy_3lvl.eta2_array()
    d_mod = deflated_d_array(toy_3lvl, 0)
    last = None
    for g in (1e-4, 1e-5, 1e-6):
        e0, _ = _weak_seed_arrays(eta2, d_mod, (0, 1, 0), -g)
        r = np.max(np.abs(rs.deflated_residuals(-g, e0, toy_3lvl, 0)))
        if last is not None:
            assert r < 0.5 * last
        last = r
    assert last < 1e-4


def test_collapsing_level_deflates_to_one_minus_d(lattice6, ground6):
    # d_k + M_k = 1 - d_k: the cluster size is the level's
    levels = critical_levels(lattice6, ground6)
    assert levels
    for k in levels:
        d_k = lattice6.levels[k].d
        assert critical.deflated_d_array(lattice6, k)[k] == 1 - d_k


def test_a_scan_request_names_no_cluster_size():
    assert critical.ScanRequest._fields == (
        "k", "g_range", "deflated_occ", "grid_points")


def test_critical_point_rebuilds_a_scanned_point(toy_3lvl):
    pt = rs.scan_critical(toy_3lvl, 0, (-0.6, 0.0))[0]
    again = critical.critical_point(toy_3lvl, pt.k, pt.g_c, pt.e_noncluster,
                                    pt.deflated_occupation,
                                    pt.noncluster_origin)
    assert again.m_k == pt.m_k == 3 and again.g_c == pt.g_c
    assert again.energy == pt.energy
    assert again.chi.tobytes() == pt.chi.tobytes()
    assert again.e_noncluster.tobytes() == pt.e_noncluster.tobytes()


@pytest.mark.parametrize("change, error, text", [
    (dict(k=3), ValueError, "not a level index"),
    (dict(k=-1), ValueError, "not a level index"),
    (dict(e=[]), ValueError, "non-cluster energies"),
    (dict(origin=(7,)), ValueError, "labelled with a level index"),
    (dict(origin=()), ValueError, "labelled with a level index"),
    (dict(occ=(1, 1, 0)), ValueError, "deflated occupation"),
    (dict(occ=(0, 1)), ValueError, "deflated occupation"),
    (dict(g=float("nan")), UnresolvedRootError, "must be finite"),
    (dict(e=[complex("inf")]), UnresolvedRootError, "must be finite"),
    (dict(g=-0.1), UnresolvedRootError, "fails validation")],
    ids=["k-past-the-levels", "k-negative", "no-energies", "label-no-level",
         "label-missing", "occupation-too-full", "occupation-too-short",
         "g_c-nan", "energy-inf", "g_c-off-the-root"])
def test_critical_point_refuses_what_no_scan_finds(toy_3lvl, change, error,
                                                   text):
    pt = rs.scan_critical(toy_3lvl, 0, (-0.6, 0.0))[0]
    args = dict(k=pt.k, g=pt.g_c, e=pt.e_noncluster,
                occ=pt.deflated_occupation, origin=pt.noncluster_origin)
    args.update(change)
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # refused before any arithmetic
        with pytest.raises(error, match=text):
            critical.critical_point(toy_3lvl, args["k"], args["g"],
                                    args["e"], args["occ"], args["origin"])


def test_critical_residuals_at_g_zero(toy_3lvl):
    out = rs.critical_residuals(0.0, [2.3], toy_3lvl, 0)
    assert out[0] == pytest.approx(1.0)


def test_deflated_occupation_rules(lattice6, ground6):
    # attractive side: extras leave the topmost occupied level
    occ = rs.deflated_occupation(lattice6, ground6, 3, -1)
    assert occ.counts == (1, 4, 4, 0, 4, 0, 0, 0, 0)
    # repulsive side: extras leave the bottommost occupied level
    occ = rs.deflated_occupation(lattice6, ground6, 1, +1)
    assert occ.counts == (0, 0, 4, 4, 5, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        rs.deflated_occupation(rs.build_lattice_model(2, 2),
                               rs.ground_occupation(rs.build_lattice_model(2, 2)),
                               1, -1)


def test_toy_all_collapse_exact_point(toy_mm):
    # single seniority-0 state: E(g) = 2 + 8g exactly, so the level-0
    # collapse (all four pairs at 2 eta_0 = 0) happens at g = -1/4, E = 0
    pts = rs.scan_critical(toy_mm, 0, (-0.6, 0.0))
    assert len(pts) == 1
    pt = pts[0]
    assert pt.g_c == pytest.approx(-0.25, abs=1e-10)
    assert pt.energy == pytest.approx(0.0, abs=1e-10)
    assert pt.m_k == 4
    assert pt.e_noncluster.shape == (0,)


def test_toy_points_match_oracle_eigenvalues(toy_3lvl):
    found = 0
    for k, rng in ((0, (-0.6, 0.0)), (1, (-0.6, 0.0)), (2, (0.0, 0.6))):
        for pt in rs.scan_critical(toy_3lvl, k, rng):
            spec = oracle.exact_spectrum(toy_3lvl, pt.g_c)
            assert np.min(np.abs(spec - pt.energy)) < 1e-6
            found += 1
    assert found >= 3


@pytest.mark.xfail(strict=True, reason=(
    "over (-0.51, 0) the deflated walk (level 0, M_k=3) stalls near "
    "g = -0.0821 and the scan finds nothing; ROADMAP direction 2 (one "
    "walker that cannot leave its branch) and direction 5 (scans walk "
    "with adaptive steps) are to make a scan's points independent of "
    "its range"))
def test_a_scans_points_do_not_depend_on_its_range(toy_3lvl):
    branch = rs.OccupationMap((2, 1, 1))
    wide = rs.scan_critical(toy_3lvl, 0, (-0.6, 0.0), branch)
    assert len(wide) == 1 and wide.issues == []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncatedScanWarning)
        narrow = rs.scan_critical(toy_3lvl, 0, (-0.51, 0.0), branch)
    assert [pt.g_c for pt in narrow] == pytest.approx([wide[0].g_c],
                                                     abs=1e-9)


def test_point_invariants(toy_3lvl):
    pt = rs.scan_critical(toy_3lvl, 0, (-0.6, 0.0))[0]
    res = rs.critical_residuals(pt.g_c, pt.e_noncluster, toy_3lvl, pt.k)
    assert np.max(np.abs(res)) <= 1e-10
    # conjugate-closed non-cluster, real energy
    vals = pt.e_noncluster
    assert np.max(np.abs(np.sort_complex(vals) -
                         np.sort_complex(np.conj(vals)))) < 1e-9
    assert pt.energy == pytest.approx(
        pt.m_k * 2 * toy_3lvl.levels[pt.k].eta + np.sum(vals.real))
    # the cluster matrix is singular there
    pn = pn_coefficients(toy_3lvl, pt.k, pt.e_noncluster, pt.m_k - 1)
    sing = np.linalg.svd(cluster_matrix(pt.g_c, pn, pt.m_k), compute_uv=False)
    assert sing[-1] < 1e-8 * sing[0]


def test_chi_matches_measured_slopes(toy_3lvl):
    # chi_p = lim S_p/S_1 along the physical branch
    pt = rs.scan_critical(toy_3lvl, 0, (-0.6, 0.0))[0]
    tan = rs.solve_tangent(pt, toy_3lvl)
    sol = rs.restart_solve(tan, toy_3lvl, 1e-4)
    idx = nearest_members(sol.values, 2 * toy_3lvl.levels[0].eta, pt.m_k)
    ps = rs.power_sums(sol.values[idx], toy_3lvl.levels[0].eta, pt.m_k)
    ratios = ps / ps[0]
    assert np.max(np.abs(ratios - pt.chi)) < 1e-2


def test_solve_critical_bracket(lattice6, ground6, table3):
    # the point nearest g = 0 in the bracket
    pts = rs.scan_critical(lattice6, 3, (-0.05, 0.0), ground6)
    pt = min(pts, key=lambda p: abs(p.g_c))
    assert pt.g_c == pytest.approx(table3["points"][("neg", 3)].g_c,
                                   abs=1e-12)
    assert rs.scan_critical(lattice6, 3, (-0.03, -0.02), ground6) == []


def test_scan_empty_ranges(lattice6, ground6):
    assert rs.scan_critical(lattice6, 2, (-1e-4, 1e-4), ground6) == []


@pytest.mark.parametrize("g_range", [(0.0, np.inf), (np.nan, 0.0)],
                         ids=["inf-max", "nan-min"])
def test_scan_refuses_a_non_finite_range(monkeypatch, g_range):
    def no_work(*args, **kwargs):
        raise AssertionError("ran before the range was checked")

    monkeypatch.setattr(critical, "run_scans", no_work)
    with pytest.raises(ValueError, match="g_range"):
        rs.scan_critical(rs.build_lattice_model(4, 4), 0, g_range)


def test_scan_finds_root_between_brackets(lattice6, ground6):
    # determinant changes sign across the known k=2 (0-based 1) root
    pts = rs.scan_critical(lattice6, 1, (0.15, 0.19), ground6)
    assert len(pts) == 1
    assert pts[0].g_c == pytest.approx(0.1708776, abs=2e-7)


def test_ground_k0_positive_side_empty(table3):
    assert table3["points"][("pos", 0)] is None


def test_table3_points_match_reference_records(table3):
    # the cli-lat6 reference holds every ground-branch record over
    # (-0.2, 0.7); each Table-3 point is the record of its level nearest
    # g = 0 inside its own scan range
    records = json.loads(REFERENCE.read_text())["cli-lat6"]["records"]
    for (side, k), ((g_lo, g_hi), _) in TABLE3_SCANS.items():
        inside = [r for r in records if r["level_index"] == k + 1
                  and g_lo < r["g_c"] < g_hi]
        pt = table3["points"][(side, k)]
        if pt is None:
            assert not inside, (side, k)
            continue
        ref = min(inside, key=lambda r: abs(r["g_c"]))
        assert pt.m_k == ref["m_k"]
        for value, expected in ((pt.g_c, ref["g_c"]),
                                (pt.energy, ref["energy"])):
            assert abs(value - expected) <= 1e-10 * abs(expected), (side, k)


def _count_brackets(monkeypatch):
    found = []
    find = critical._find_brackets

    def counted(*args):
        out = find(*args)
        found.append(len(out))
        return out

    monkeypatch.setattr(critical, "_find_brackets", counted)
    return found


def _assert_every_bracket_skipped(problem, k, rng, monkeypatch):
    found = _count_brackets(monkeypatch)
    with pytest.warns(TruncatedScanWarning) as seen:
        assert rs.scan_critical(problem, k, rng) == []
    skipped = [w for w in seen
               if str(w.message).startswith("skipping spurious bracket")]
    assert sum(found) >= 1
    assert len(skipped) == sum(found)


def test_sign_change_without_zero_is_skipped(toy_3lvl, monkeypatch):
    # a determinant that only keeps its sign has a sign change in every
    # bracket and a zero in none: no bracket may yield a point
    true_det = critical.scaled_determinant
    monkeypatch.setattr(critical, "scaled_determinant",
                        lambda mat: np.sign(true_det(mat)))
    _assert_every_bracket_skipped(toy_3lvl, 0, (-0.6, 0.0), monkeypatch)


def test_walk_failure_inside_bracket_is_skipped(toy_3lvl, monkeypatch):
    # the branch resumed inside a bracket stalls at its first step; the
    # ContinuationError must become a skipped bracket, never escape
    resume = critical._resume

    def stalling(problem, k, g, e):
        cell = resume(problem, k, g, e)

        def step_toward(g_to, step=None):
            raise ContinuationError(f"deflated branch stalled near g={g:.6g}")

        cell.step_toward = step_toward
        return cell

    monkeypatch.setattr(critical, "_resume", stalling)
    _assert_every_bracket_skipped(toy_3lvl, 0, (-0.6, 0.0), monkeypatch)


def test_straddling_scan_reports_its_issues_from_the_caller(toy_3lvl,
                                                           monkeypatch):
    # a stall on each side of g = 0 truncates both halves of the scan; each
    # issue is warned from this file, in the order `issues` lists them
    def stalling(k, g):
        if g < -0.5 or g > 0.2:
            raise ContinuationError(f"test stall at g={g:.6g}")

    fault_walks(monkeypatch, stalling)
    with pytest.warns(TruncatedScanWarning) as seen:
        found = rs.scan_critical(toy_3lvl, 0, (-0.6, 0.3), grid_points=60)
    assert isinstance(found, list)
    assert [str(w.message) for w in seen] == found.issues
    assert [w.filename for w in seen] == [__file__] * 2
    stalls = [float(text.removeprefix("scan truncated: test stall at g="))
              for text in found.issues]
    assert stalls[0] < -0.5 and stalls[1] > 0.2


def test_unbuildable_bracket_is_skipped(lattice6):
    # at the bracket of level 4 near g = 0.1288 the cluster null space is
    # not one-dimensional, so the point cannot be built (chi_ratios raises
    # DegenerateNullSpaceError); that bracket alone is skipped
    with pytest.warns(TruncatedScanWarning) as seen:
        points = rs.scan_critical(lattice6, 4, (0.0, 0.31))
    assert [round(p.g_c, 6) for p in points] == [0.205328]
    skipped = [str(w.message) for w in seen
               if str(w.message).startswith("skipping spurious bracket")]
    assert len(skipped) == 1 and "null space" in skipped[0]


def test_cross_validation_extrapolation(lattice6, table3, tangents6):
    # approach the k=2 positive point from both sides; the cluster mean
    # extrapolates to 2 eta_k within 1e-3, non-cluster to e_noncluster
    # within 1e-5
    pt = table3["points"][("pos", 1)]
    tan = tangents6[("pos", 1)]
    eta2k = 2 * lattice6.levels[pt.k].eta
    for sign in (+1, -1):
        means, others, gs = [], [], []
        for delta in (sign * 2e-4, sign * 1e-4):
            sol = rs.restart_solve(tan, lattice6, delta)
            idx = nearest_members(sol.values, eta2k, pt.m_k)
            means.append(np.mean(sol.values[idx]).real)
            others.append(np.delete(sol.values, idx))
            gs.append(delta)
        # linear extrapolation to delta = 0
        w = gs[0] / (gs[0] - gs[1])
        mean0 = means[0] + w * (means[1] - means[0])
        assert abs(mean0 - eta2k) < 1e-3
        nc0 = others[0] + w * (others[1] - others[0])
        worst = 0.0
        pool = list(pt.e_noncluster)
        for z in nc0:
            j = int(np.argmin(np.abs(np.array(pool) - z)))
            worst = max(worst, abs(pool[j] - z))
            pool.pop(j)
        assert worst < 1e-5


def test_critical_point_vs_physical_branch(lattice6, ground6, table3):
    # the first negative point's non-cluster energies match the physical
    # state continued to just before the collapse (each predicted energy
    # has a state partner within its linear drift)
    pt = table3["points"][("neg", 3)]
    tan = rs.solve_tangent(pt, lattice6)
    delta = 5e-4
    state = physical_state_at(lattice6, ground6, pt.g_c + delta, steps=60)
    pool = list(state)
    worst = 0.0
    for z, dz in zip(pt.e_noncluster, tan.de_dg):
        pred = z + dz * delta
        j = int(np.argmin(np.abs(np.array(pool) - pred)))
        worst = max(worst, abs(pool[j] - pred))
        pool.pop(j)
    assert worst < 1e-3


def test_neg2_root_from_physical_branch(lattice6, ground6, table3):
    # a check on the j=3 negative root with no determinant scan: carry the
    # ground branch through the first negative crossing (the only point
    # registered), then take plain Newton steps toward the level-2
    # collapse.  That cluster's S_1 must extrapolate to zero at the scanned
    # root, and at the published -0.0635021 the cluster must still be open.
    first = table3["points"][("neg", 3)]
    pt = table3["points"][("neg", 2)]
    path = continuation.sweep(
        lattice6, ground6, -0.06,
        options=continuation.SweepOptions(auto_scan=False),
        critical_points=[first])
    assert path.status == "completed"
    assert len(path.crossings) == 1 and path.crossings[0] is first
    eta2, d = lattice6.eta2_array(), lattice6.d_array()
    eta_k = lattice6.levels[pt.k].eta

    def cluster_s1(vals):
        idx = nearest_members(vals, 2 * eta_k, pt.m_k)
        return rs.power_sums(vals[idx], eta_k, 1)[0]

    g, vals = path.samples[-1].g, path.samples[-1].energies.values
    prev = None
    gs, s1 = [], []
    for g_next in np.linspace(-0.06, -0.0635, 36)[1:]:
        seed = vals if prev is None else \
            vals + (vals - prev[1]) * (g_next - g) / (g - prev[0])
        new, ok, _, rn = newton_core(seed, g_next, eta2, d)
        assert ok, (g_next, rn)
        prev, g, vals = (g, vals), g_next, new
        gs.append(g)
        s1.append(cluster_s1(vals))
    roots = np.roots(np.polyfit(gs[-5:], s1[-5:], 2))
    root = roots[np.argmin(np.abs(roots - gs[-1]))]
    assert abs(root.imag) < 1e-12
    assert abs(root.real - pt.g_c) <= 1e-7

    published, ok, _, rn = newton_core(vals, -0.0635021, eta2, d)
    assert ok and rn <= 1e-12
    assert abs(cluster_s1(published)) >= 1e-3


def test_critical_levels_need_an_integer_cluster_within_the_branch():
    # M_k = 1 + Omega/2 at seniority 0: 2, 2.5 (odd Omega) and 5 > M = 3
    p = rs.PairingProblem((rs.Level(0.0, 2), rs.Level(1.0, 3),
                           rs.Level(2.0, 8)), 3)
    assert critical_levels(p, (1, 1, 1)) == [0]
    assert critical_levels(p, (0, 1, 2)) == []


def test_critical_levels_are_those_with_a_cluster_size_up_to_m():
    # on random problems and branches `critical_levels` names the occupied
    # levels whose `default_cluster_size` is an integer up to M
    rng = np.random.default_rng(7)
    for _ in range(2000):
        levels = []
        for eta in range(int(rng.integers(1, 5))):
            omega = int(rng.integers(1, 13))
            levels.append(rs.Level(float(eta), omega,
                                   int(rng.integers(0, omega // 2 + 1))))
        caps = [lv.pair_capacity for lv in levels]
        if sum(caps) == 0:
            continue
        counts = [int(rng.integers(0, c + 1)) for c in caps]
        if sum(counts) == 0:
            continue
        p = rs.PairingProblem(levels, sum(counts))
        wanted = []
        for k, lv in enumerate(levels):
            try:
                size = default_cluster_size(lv)
            except ValueError:
                continue
            if counts[k] > 0 and size <= p.m_pairs:
                wanted.append(k)
        assert critical_levels(p, counts) == wanted, (levels, counts)


def _two_close_roots(g):
    return (g - 1.005) * (g - 1.025)


def _rewalk(det):
    """A fine re-walk that reaches every point of its grid, where the
    determinant is det(g)."""
    def walk(walker, problem, k, grid):
        return grid, det(grid), [np.array([1.0 + 0j])] * len(grid), None

    return walk


def _dip_brackets(problem, monkeypatch, walk, det=_two_close_roots,
                  issues=None):
    """_find_brackets on the grid (0, 1, 2), where the middle |det| of
    (g - 1.005)(g - 1.025), or of `det`, dips below a tenth of its
    neighbours with no sign change; `walk` stands in for the fine
    re-walk."""
    monkeypatch.setattr(critical, "_walk", walk)
    gs = np.array([0.0, 1.0, 2.0])
    states = [np.array([1.0 + 0j])] * 3
    return critical._find_brackets(problem, 0, gs, det(gs), states,
                                   [] if issues is None else issues)


def test_det_dip_is_rewalked_into_two_brackets(toy_3lvl, monkeypatch):
    brackets = _dip_brackets(toy_3lvl, monkeypatch, _rewalk(_two_close_roots))
    assert [(a, b) for a, b, *_ in brackets] == [
        pytest.approx((1.00, 1.01)), pytest.approx((1.02, 1.03))]
    for _, _, det_a, det_b, _ in brackets:
        assert det_a * det_b < 0


def _root_on_the_fine_grid(g):
    return (g - np.linspace(0.0, 2.0, 201)[101]) * (g - 1.025)


def test_exact_zero_in_the_dip_rewalk_is_one_bracket(toy_3lvl, monkeypatch):
    # the fine grid of the re-walk holds the root exactly; its cells count
    # as the coarse grid's do, so the zero closes one bracket, not two
    brackets = _dip_brackets(toy_3lvl, monkeypatch,
                             _rewalk(_root_on_the_fine_grid),
                             det=_root_on_the_fine_grid)
    assert [(a, b) for a, b, *_ in brackets] == [
        pytest.approx((1.00, 1.01)), pytest.approx((1.02, 1.03))]


def test_failed_dip_rewalk_yields_no_bracket(toy_3lvl, monkeypatch):
    # the stall is kept as an issue, so the scan warns and its level does
    # not count as covered
    def walk_fails(walker, problem, k, grid):
        return grid[:0], np.empty(0), [], ContinuationError("walk fails")

    issues = ["earlier issue"]
    assert _dip_brackets(toy_3lvl, monkeypatch, walk_fails,
                         issues=issues) == []
    assert issues == ["earlier issue", "dip re-walk in (0, 2) for level 0 "
                      "stopped: walk fails"]


def test_a_walks_determinants_take_one_pass(lattice6, monkeypatch):
    # level 4, g > 0, no dip: one stacked pass over the 401 grid states,
    # then one row for each of the 18 false-position iterates and each of
    # the 4 validated points; the walk itself takes the residual passes it
    # took when every grid point had its own determinant pass
    stacks, passes = [], []
    det, residuals = critical.scaled_determinant, critical.kern.residuals

    def counted_det(mat):
        stacks.append(np.shape(mat)[:-2])
        return det(mat)

    def counted_residuals(*args):
        passes.append(1)
        return residuals(*args)

    solver._single_level_roots.cache_clear()     # its seeds cost 2 passes
    monkeypatch.setattr(critical, "scaled_determinant", counted_det)
    monkeypatch.setattr(critical.kern, "residuals", counted_residuals)
    assert len(rs.scan_critical(lattice6, 4, (0.0, 0.7))) == 4
    assert stacks == [(401,)] + [(1,)] * 22
    assert len(passes) == 13_350


def _one_by_one(problem, k, gs, states):
    """The determinants row after row, as a walk that evaluated each on
    arrival did (the reference)."""
    m_k = default_cluster_size(problem.levels[k])
    out = []
    for g, e in zip(gs, states):
        pn = pn_coefficients(problem, k, e, m_k - 1)
        out.append(scaled_determinant(cluster_matrix(g, pn, m_k)))
    return out


# toy_3lvl, level 0, M_k = 3, one non-cluster energy: (g, state) rows
_DET_ROWS = {
    "ok": (-0.3, [2.3]),
    "warns": (1e300, [2.3]),            # row norms overflow: 0.0, warned
    "residue": (-0.3, [2.3 + 0.5j]),    # ConsistencyError
    "overflows": (-0.3, [1e-200]),      # warned, then ConsistencyError
    "pole": (-0.3, [0.0]),              # SingularEvaluationError
}


def _det_outcome(dets, problem, rows, action):
    gs = [_DET_ROWS[r][0] for r in rows]
    states = [_DET_ROWS[r][1] for r in rows]
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter(action)
        try:
            got = [float(v).hex() for v in dets(problem, 0, gs, states)]
        except Exception as err:
            got = (type(err), str(err))
    return got, [(w.category, str(w.message)) for w in seen]


@pytest.mark.parametrize("action", ["always", "error"])
@pytest.mark.parametrize("rows", [
    ("ok", "warns", "ok"), ("ok", "residue", "overflows"),
    ("ok", "overflows", "residue"), ("warns", "pole", "residue"),
    ("ok", "ok", "warns", "residue", "warns")])
def test_a_stacked_determinant_pass_ends_as_the_rows_one_by_one(
        toy_3lvl, rows, action):
    # the values, warnings and error of the rows evaluated one after
    # another: nothing from a row after the first that raises, with
    # numpy's warnings shown or raised
    got = _det_outcome(critical._scaled_dets, toy_3lvl, rows, action)
    assert got == _det_outcome(_one_by_one, toy_3lvl, rows, action)
    assert got[1] or isinstance(got[0], tuple)


class _ScriptedWalker:
    """Reaches the given states in turn, then raises `stop`."""

    def __init__(self, states, stop):
        self.states, self.stop = list(states), stop

    def advance_to(self, g):
        if not self.states:
            raise self.stop
        return self.states.pop(0)


@pytest.mark.parametrize("stop", [ContinuationError("test stall"),
                                  SingularEvaluationError("test pole")])
def test_a_determinant_error_comes_before_what_stops_the_walk(toy_3lvl,
                                                              stop):
    # the walk reaches three states and stops at the fourth grid point; a
    # determinant that raises at a reached state wins over the stop, as it
    # did when each determinant was taken on arrival
    grid = np.array([-0.30, -0.31, -0.32, -0.33])
    clean = [[2.3], [2.31], [2.32]]
    bad = [[2.3], [2.31 + 0.5j], [2.32]]
    with pytest.raises(ConsistencyError, match="imaginary residue"):
        critical._walk(_ScriptedWalker(bad, stop), toy_3lvl, 0, grid)
    if isinstance(stop, ContinuationError):
        gs, dets, states, stall = critical._walk(
            _ScriptedWalker(clean, stop), toy_3lvl, 0, grid)
        assert stall is stop and list(gs) == list(grid[:3])
        assert dets.tolist() == _one_by_one(toy_3lvl, 0, gs, clean)
    else:
        with pytest.raises(SingularEvaluationError, match="test pole"):
            critical._walk(_ScriptedWalker(clean, stop), toy_3lvl, 0, grid)

