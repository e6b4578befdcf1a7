import dataclasses

import numpy as np
import pytest

import richardson as rs
from richardson import continuation, oracle
from richardson.continuation import SweepOptions, collapse_candidates
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


def test_sweep_requires_nonzero_target(lattice6, ground6):
    with pytest.raises(ValueError):
        continuation.sweep(lattice6, ground6, 0.0)


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
        gs = path.g_values
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
            spec = oracle.exact_spectrum(p.with_g(g))
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
    exact = oracle.exact_spectrum(p.with_g(-0.4)).min()
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
        s[sgn] = rs.power_sums(sol.values[idx], eta_k, pt.m_k + 1).s
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
