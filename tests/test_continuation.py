import dataclasses

import numpy as np
import pytest

import richardson as rs
from richardson import continuation, critical, oracle
from richardson.continuation import SweepOptions, collapse_candidates
from richardson.critical import ScanRequest
from richardson.errors import ContinuationError

from conftest import nearest_members


def test_one_pair_sweep_matches_companion_roots():
    levels = (rs.Level(-1.0, 4), rs.Level(0.5, 2), rs.Level(2.0, 6))
    p = rs.PairingProblem(levels, 1)
    path = continuation.sweep(p, (1, 0, 0), 0.3)
    assert path.status == "completed"
    eta2, d = p.eta2_array(), p.d_array()
    for s in path.samples:
        poly = np.poly(eta2)
        for j in range(3):
            others = np.poly(np.delete(eta2, j))
            poly = np.polyadd(poly, 4 * s.g * d[j] * np.pad(
                others, (len(poly) - len(others), 0)))
        roots = np.roots(poly)
        assert np.min(np.abs(roots - s.energies.values[0])) < 1e-10


@pytest.mark.parametrize("auto_scan", [True, False])
@pytest.mark.parametrize("g_target", [0.0, np.nan, np.inf, -np.inf])
def test_sweep_requires_nonzero_target(lattice6, ground6, monkeypatch,
                                       g_target, auto_scan):
    def no_work(*args, **kwargs):
        raise AssertionError("ran before g_target was checked")

    monkeypatch.setattr(continuation, "auto_scan_points", no_work)
    monkeypatch.setattr(continuation.Walker, "weak_start", no_work)
    with pytest.raises(ValueError, match="g_target"):
        continuation.sweep(lattice6, ground6, g_target,
                           SweepOptions(auto_scan=auto_scan))


@pytest.mark.parametrize("option, value", [
    ("step_init", np.nan), ("step_init", 0.0), ("step_init", -1e-3),
    ("crossing_radius", np.nan), ("crossing_radius", 0.0),
    ("crossing_radius", -5e-3), ("crossing_radius", np.inf),
])
def test_sweep_refuses_a_step_or_radius_the_cli_refuses(monkeypatch, option,
                                                        value):
    # the CLI's rules, "a number > 0" for the step and "a finite number
    # > 0" for the radius, checked before any scan or walk
    rule = {"step_init": "a number > 0",
            "crossing_radius": "a finite number > 0"}[option]

    def no_work(*args, **kwargs):
        raise AssertionError(f"ran before {option} was checked")

    monkeypatch.setattr(continuation, "auto_scan_points", no_work)
    monkeypatch.setattr(continuation.Walker, "weak_start", no_work)
    p = rs.build_lattice_model(4, 4)
    with pytest.raises(ValueError, match=f"^{option} must be {rule}"):
        continuation.sweep(p, rs.ground_occupation(p), -0.3,
                           SweepOptions(**{option: value}))


@pytest.mark.parametrize("g_target", [-1e-4, 1e-3, -1e-3])
def test_sweep_to_a_target_inside_the_weak_start(g_target):
    # |g_target| < 2 weak_coupling_g = 4e-3: the sweep starts at
    # weak_coupling_g and walks back in to the target
    p = rs.build_lattice_model(4, 4)
    path = continuation.sweep(p, rs.ground_occupation(p), g_target)
    assert path.status == "completed"
    assert abs(path.samples[0].g) == rs.solver.weak_coupling_g(p)
    assert path.samples[-1].g == g_target
    want = oracle.ground_energy(p, g_target)
    assert abs(path.samples[-1].energy - want) < 1e-9


def test_sweep_deterministic():
    p = rs.build_lattice_model(2, 2)
    occ = rs.ground_occupation(p)
    a = continuation.sweep(p, occ, -0.4)
    b = continuation.sweep(p, occ, -0.4)
    assert len(a.samples) == len(b.samples)
    for sa, sb in zip(a.samples, b.samples):
        assert sa.g == sb.g
        assert np.array_equal(sa.energies.values, sb.energies.values)


def test_sweep_monotone_and_residuals(sweeps6):
    for name in ("neg", "pos"):
        path = sweeps6[name]
        gs = np.array([s.g for s in path.samples])
        assert np.all(np.diff(np.abs(gs)) > 0)
        assert max(s.residual_norm for s in path.samples) <= 1e-10


def test_sweep_crossings_in_order(sweeps6, table3):
    # crossing g values agree with the independently scanned points
    neg = [p.g_c for p in sweeps6["neg"].crossings]
    assert neg == sorted(neg, reverse=True)
    assert len(neg) == 4
    for k, g_c in zip((3, 2, 1, 0), neg):
        assert table3["points"][("neg", k)].g_c == pytest.approx(g_c)
    pos = [p.g_c for p in sweeps6["pos"].crossings]
    assert len(pos) == 3
    for k, g_c in zip((1, 2, 3), pos):
        assert table3["points"][("pos", k)].g_c == pytest.approx(g_c)


def test_sweep_small_instance_matches_oracle():
    p = rs.build_lattice_model(2, 2)
    for branch in (rs.ground_occupation(p), rs.OccupationMap((0, 2, 0))):
        for g in (-0.35, 0.3):
            path = continuation.sweep(p, branch, g)
            assert path.status == "completed"
            spec = oracle.exact_spectrum(p, g)
            assert np.min(np.abs(spec - path.samples[-1].energy)) < 1e-8


def test_point_beyond_target_is_not_crossed():
    # g_c = -0.403709 lies inside the window of g_target = -0.4: the restart
    # from g_c lands on g_target, short of the point, so nothing is crossed
    p = rs.PairingProblem((rs.Level(0.0, 2), rs.Level(1.0, 2),
                           rs.Level(2.5, 2)), 2)
    occ = rs.ground_occupation(p)
    short = continuation.sweep(p, occ, -0.4)
    assert short.status == "completed" and short.crossings == []
    assert short.samples[-1].g == -0.4
    exact = oracle.exact_spectrum(p, -0.4).min()
    assert abs(short.samples[-1].energy - exact) <= 1e-10
    beyond = continuation.sweep(p, occ, -0.45)
    assert [c.g_c for c in beyond.crossings] == [
        pytest.approx(-0.403709, abs=1e-6)]


def test_unregistered_collapse_truncates_with_hint(lattice6, ground6):
    opts = SweepOptions(auto_scan=False)
    path = continuation.sweep(lattice6, ground6, 0.2, options=opts)
    assert path.status == "truncated"
    assert any("scan_critical" in d for d in path.diagnostics)


def test_collapse_candidates(lattice6):
    vals = np.full(18, -10.0 + 0j)
    vals[:5] = [-2.01, -2.02 + 0.1j, -2.02 - 0.1j, -1.9, -2.1]
    cands = collapse_candidates(vals, lattice6)
    assert any(k == 3 and n == 5 for k, n in cands)


def test_restart_solve_crosses_the_state_thicket(lattice6, table3, tangents6):
    # g_c + 1e-3 for the first negative point lies among five other
    # eigenstates' collapse points; the restart must land on this branch,
    # not on theirs
    tan = tangents6[("neg", 3)]
    sol = continuation.restart_solve(tan, lattice6, 1e-3)
    e_exp = continuation.expected_restart_energy(tan, 1e-3)
    assert abs(float(np.sum(sol.values.real)) - e_exp) < 0.05


def test_energy_trend_continuity(sweeps6):
    # no sample-to-sample energy jump above 10x the local trend
    for name in ("neg", "pos"):
        samples = sweeps6[name].samples
        for i in range(2, len(samples)):
            dg_prev = abs(samples[i - 1].g - samples[i - 2].g)
            dg = abs(samples[i].g - samples[i - 1].g)
            if dg_prev == 0 or dg == 0:
                continue
            slope = abs(samples[i - 1].energy - samples[i - 2].energy) / dg_prev
            jump = abs(samples[i].energy - samples[i - 1].energy)
            assert jump <= 10.0 * slope * dg + 1e-6


def test_figure_data_tables(sweeps6, lattice6):
    fig = continuation.sample_figure_data(sweeps6["pos"], lattice6,
                                          cluster_level=1)
    assert fig.header[:2] == ("g", "E")
    assert fig.rows.shape[1] == 2 + 2 * 18
    assert np.all(np.diff(fig.rows[:, 0]) > 0)
    assert fig.s_rows is not None
    # S_p changes sign across the registered crossing at 0.1708776
    g_c = 0.1708776
    s1 = fig.s_rows[:, 1]
    gs = fig.s_rows[:, 0]
    before = s1[(gs < g_c) & (gs > g_c - 0.03)]
    after = s1[(gs > g_c) & (gs < g_c + 0.03)]
    assert before.size and after.size
    assert np.sign(before[-1]) != np.sign(after[0])


def test_cluster_mean_crosses_level(sweeps6, lattice6, table3):
    # at each crossing the cluster mean passes through 2 eta_k: samples on
    # both window edges straddle it tightly
    pt = table3["points"][("pos", 1)]
    path = sweeps6["pos"]
    eta2k = 2 * lattice6.levels[1].eta
    edge = [s for s in path.samples
            if abs(abs(s.g - pt.g_c) - 5e-3) < 1e-9]
    assert len(edge) >= 2
    means = []
    for s in edge[:2]:
        idx = nearest_members(s.energies.values, eta2k, pt.m_k)
        means.append(np.mean(s.energies.values[idx]).real - eta2k)
    assert np.sign(means[0]) != np.sign(means[1])
    assert max(abs(m) for m in means) < 0.2


def test_s6_slope_negligible_at_crossing(lattice6, table3, tangents6):
    # the first power sum beyond M_k is higher order: its centered slope
    # at g_c is tiny compared with S_1's
    pt = table3["points"][("pos", 1)]
    tan = tangents6[("pos", 1)]
    eta_k = lattice6.levels[pt.k].eta
    delta = 1e-4
    s = {}
    for sgn in (+1, -1):
        sol = rs.restart_solve(tan, lattice6, sgn * delta)
        idx = nearest_members(sol.values, 2 * eta_k, pt.m_k)
        s[sgn] = rs.power_sums(sol.values[idx], eta_k, pt.m_k + 1)
    slope = (s[+1] - s[-1]) / (2 * delta)
    assert abs(slope[pt.m_k]) <= 1e-2 * abs(slope[0])


def _restart_newton_calls(monkeypatch, tan, problem, delta):
    """step_cap of every newton_core call restart_solve makes itself."""
    caps = []
    core = continuation.newton_core

    def recording(*args, **kwargs):
        caps.append(kwargs.get("step_cap"))
        return core(*args, **kwargs)

    monkeypatch.setattr(continuation, "newton_core", recording)
    continuation.restart_solve(tan, problem, delta)
    return caps


def test_restart_walk_out_solves_are_all_capped(monkeypatch, lattice6,
                                                tangents6):
    # the direct solve at -5e-3 misses the branch; no uncapped retry runs
    # before the walk-out from delta/8 lands it
    caps = _restart_newton_calls(monkeypatch, tangents6[("neg", 3)],
                                 lattice6, -5e-3)
    assert len(caps) == 2
    assert None not in caps


def test_restart_direct_solve_is_one_newton_call(monkeypatch, lattice6,
                                                 tangents6):
    caps = _restart_newton_calls(monkeypatch, tangents6[("neg", 3)],
                                 lattice6, 1e-3)
    assert len(caps) == 1 and caps[0] is not None


def test_figure_data_propagates_programming_errors(monkeypatch, sweeps6,
                                                   lattice6):
    # only a set that is not conjugate-closed drops its S_p row
    def broken(*args, **kwargs):
        raise TypeError("bug in power_sums")

    monkeypatch.setattr(continuation, "power_sums", broken)
    with pytest.raises(TypeError):
        continuation.sample_figure_data(sweeps6["pos"], lattice6,
                                        cluster_level=1)


# ---------------------------------------------------------------------------
# the crossing loop's rarely taken paths
# ---------------------------------------------------------------------------

def _toy_mm_point(toy_mm):
    """The toy's one negative critical point, where all M = 4 energies
    collapse at g_c = -1/4."""
    pts = rs.scan_critical(toy_mm, 0, (-0.5, 0.0), rs.ground_occupation(toy_mm))
    assert len(pts) == 1
    return pts[0]


def test_failed_restart_truncates_without_crossing(monkeypatch, toy_mm):
    def failing(*args, **kwargs):
        raise ContinuationError("no landing")

    monkeypatch.setattr(continuation, "restart_solve", failing)
    path = continuation.sweep(toy_mm, rs.ground_occupation(toy_mm), -0.5)
    assert path.status == "truncated"
    assert path.crossings == []
    failed = [d for d in path.diagnostics if d.startswith("restart failed")]
    assert failed == ["restart failed at g_c=-0.25: no landing"]


def test_energy_jump_truncates(monkeypatch):
    monkeypatch.setattr(continuation, "ENERGY_JUMP_FACTOR", 0.0)
    p = rs.build_lattice_model(2, 2)
    path = continuation.sweep(p, rs.ground_occupation(p), -0.4)
    assert path.status == "truncated"
    assert len(path.diagnostics) == 1
    assert path.diagnostics[0].startswith("energy jump at g=")


def test_stall_without_collapse_candidate(monkeypatch, toy_mm):
    monkeypatch.setattr(continuation, "collapse_candidates",
                        lambda values, problem: [])
    path = continuation.sweep(toy_mm, rs.ground_occupation(toy_mm), -0.5,
                              options=SweepOptions(auto_scan=False))
    assert path.status == "truncated"
    assert len(path.diagnostics) == 1
    assert path.diagnostics[0].startswith(
        "Newton failed after max step reductions: ")


def test_point_registered_twice_is_crossed_once(toy_mm):
    pt = _toy_mm_point(toy_mm)
    occ = rs.ground_occupation(toy_mm)
    opts = SweepOptions(auto_scan=False)
    once = continuation.sweep(toy_mm, occ, -0.5, options=opts,
                              critical_points=[pt])
    twice = continuation.sweep(toy_mm, occ, -0.5, options=opts,
                               critical_points=[pt, pt])
    assert once.status == twice.status == "completed"
    assert twice.crossings == [pt]
    assert twice.diagnostics == once.diagnostics == []
    assert len(twice.samples) == len(once.samples)
    for a, b in zip(once.samples, twice.samples):
        assert a.g == b.g and a.energy == b.energy
        assert a.residual_norm == b.residual_norm
        assert np.array_equal(a.energies.values, b.energies.values)


def test_registered_lists_given_points_then_scanned_ones(toy_mm):
    # given points of the target's sign in their order, then what the
    # auto-scan found that no given point of its level is within 1e-9 of
    pt = _toy_mm_point(toy_mm)
    occ = rs.ground_occupation(toy_mm)
    beyond = dataclasses.replace(pt, g_c=-0.6)
    other_sign = dataclasses.replace(pt, g_c=0.25)
    path = continuation.sweep(toy_mm, occ, -0.5,
                              critical_points=[other_sign, beyond])
    assert path.status == "completed"
    assert [p.g_c for p in path.registered] == [-0.6, pytest.approx(pt.g_c)]
    assert path.diagnostics == []
    again = continuation.sweep(toy_mm, occ, -0.5, critical_points=[pt])
    assert len(again.registered) == 1 and again.registered[0] is pt


def test_noncluster_mismatch_alone_passes_the_point():
    # three levels, three pairs: the level-1 collapse at g_c = 0.434 keeps
    # one real non-cluster energy, 6.61
    p = rs.PairingProblem((rs.Level(0.0, 2), rs.Level(1.0, 2),
                           rs.Level(3.0, 2)), 3)
    occ = rs.ground_occupation(p)
    pt = rs.scan_critical(p, 1, (0.0, 0.5), occ)[0]
    assert pt.e_noncluster.shape == (1,) and pt.e_noncluster[0].imag == 0.0
    opts = SweepOptions(auto_scan=False)
    r_c = opts.crossing_radius
    real = continuation.sweep(p, occ, 0.45, options=opts,
                              critical_points=[pt])
    assert real.crossings == [pt]

    moved = dataclasses.replace(pt, e_noncluster=pt.e_noncluster + 0.5)
    path = continuation.sweep(p, occ, 0.45, options=opts,
                              critical_points=[moved])
    assert path.crossings == []
    assert path.diagnostics[0] == (
        f"passed critical point of another branch at "
        f"g_c={pt.g_c:.8g} (level 1)")
    # the total energy alone would have corroborated the moved point
    edge = [s for s in path.samples if s.g == pt.g_c - r_c]
    assert len(edge) == 1
    e_pred = continuation.expected_restart_energy(
        rs.solve_tangent(moved, p), -r_c)
    assert abs(edge[0].energy - e_pred) <= 1.0


def test_restart_solve_failures_raise(monkeypatch, toy_mm):
    tan = rs.solve_tangent(_toy_mm_point(toy_mm), toy_mm)
    with pytest.raises(ContinuationError, match="nonzero delta_g"):
        continuation.restart_solve(tan, toy_mm, 0.0)

    def unconverged(e0, g, eta2, d, **kwargs):
        return np.asarray(e0), False, 60, 1.0

    monkeypatch.setattr(continuation, "newton_core", unconverged)
    with pytest.raises(ContinuationError, match="restart at g=-0.245 failed"):
        continuation.restart_solve(tan, toy_mm, 5e-3)


@pytest.mark.parametrize("far, targets", [
    # -0.039 and -0.044 lie in the window of the crossing at -0.0413245,
    # short of g_c and beyond it (and -0.044 in the window of a passed
    # level-4 point); -0.0845 and -0.13 short of the crossings at
    # -0.0877434 and -0.131927
    (-0.15, [-0.02, -0.039, -0.044, -0.0845, -0.13]),
    # 0.168 short of the crossing at 0.170878, 0.243 beyond the one at
    # 0.240579
    (0.26, [0.05, 0.168, 0.243]),
], ids=["neg", "pos"])
def test_a_sweep_from_a_wider_scan_ends_where_its_own_scan_does(
        lattice6, ground6, far, targets):
    # what verify relies on to scan each sign of g once.  Not bit for bit:
    # g_c moves by round-off with the scan's grid, and the passed level-4
    # points of a wider scan are others, which splits the walk into other
    # legs; the end state agrees to round-off
    opts = SweepOptions(auto_scan=False)
    points = continuation.auto_scan_points(lattice6, ground6, far,
                                           opts.crossing_radius)
    for g in targets:
        own = continuation.sweep(lattice6, ground6, g)
        wide = continuation.sweep(lattice6, ground6, g, opts,
                                  critical_points=points)
        assert own.status == wide.status == "completed"
        assert [c.k for c in wide.crossings] == [c.k for c in own.crossings]
        assert [c.g_c for c in wide.crossings] == pytest.approx(
            [c.g_c for c in own.crossings], abs=1e-12)
        a, b = own.samples[-1], wide.samples[-1]
        assert a.g == b.g == g
        assert a.energy == pytest.approx(b.energy, abs=1e-10), g
        assert np.max(np.abs(a.energies.values - b.energies.values)) < 1e-10


def test_shared_auto_scan_points_scan_each_key_once(monkeypatch):
    # the 22 (branch, sign, level) walks of this problem's 5 branches share
    # 8 deflated branches; a walk's points are reused by other branches
    p = rs.PairingProblem((rs.Level(0.0, 4), rs.Level(1.0, 4),
                           rs.Level(2.5, 2)), 3)
    fresh = {(b, g): continuation.auto_scan_points(p, b, g, 5e-3)
             for b in rs.excited_occupations(p, 2) for g in (-0.6, 0.6)}
    # (1, 2, 0) and (2, 1, 0) both deflate to the empty branch at level 0
    rng = continuation.auto_scan_range(-0.6, 5e-3)
    assert [continuation.auto_scan_requests(p, rs.OccupationMap(b), -0.6,
                                            5e-3)[0]
            for b in ((1, 2, 0), (2, 1, 0))] == [ScanRequest(
                0, rng, rs.OccupationMap((0, 0, 0)), 400)] * 2
    calls, scans = [], {}
    real = critical.run_scans

    def counted(problem, requests):
        calls.extend(requests)
        scans.update(zip(requests, real(problem, requests)))
        return [scans[req] for req in requests]

    monkeypatch.setattr(critical, "run_scans", counted)
    plans = critical.run_plans(p, [
        continuation.auto_scan_requests(p, b, g, 5e-3) for b, g in fresh])
    for found, want in zip(plans, fresh.values()):
        got = sorted(found.report(), key=lambda q: abs(q.g_c))
        assert len(got) == len(want)
        for q, w in zip(got, want):
            for f in dataclasses.fields(q):
                assert np.array_equal(getattr(q, f.name), getattr(w, f.name))
    assert len(calls) == len(set(calls)) == len(scans) == 8
    assert set(scans) == set(calls)
    assert all(type(req) is ScanRequest for req in scans)
    # more points handed out than scanned: branches shared some
    assert sum(map(len, scans.values())) < sum(map(len, fresh.values()))


@pytest.mark.parametrize("target", [-0.5, 0.5])
def test_blocked_levels_sweep_as_their_twin(seniority_twins, target):
    # each blocked level holds Omega // 2 - nu pairs, as its twin does
    blocked, twin = seniority_twins
    assert rs.ground_occupation(blocked).counts == (2, 1, 0)
    ends = []
    for problem in seniority_twins:
        path = continuation.sweep(problem, rs.ground_occupation(problem),
                                  target)
        assert path.status == "completed"
        ends.append(path.samples[-1].energy)
    assert np.float64(ends[0]).tobytes() == np.float64(ends[1]).tobytes()
    assert abs(ends[1] - oracle.ground_energy(twin, target)) <= 1e-14
