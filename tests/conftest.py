"""Shared fixtures: the 6x6 benchmark problem, its critical points, sweeps.

Heavy objects are session-scoped and carry their wall-clock cost so the
acceptance tests can check runtime budgets.
"""

import time
import warnings

import numpy as np
import pytest

import richardson as rs
from richardson import continuation, critical
from richardson.critical import TruncatedScanWarning
from richardson.errors import ContinuationError
from richardson.model import as_occupation
from richardson.solver import _weak_seed_arrays, newton_core


@pytest.fixture(autouse=True)
def _quiet_scan_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncatedScanWarning)
        yield


@pytest.fixture(scope="session")
def lattice6():
    return rs.build_lattice_model(6, 18)


@pytest.fixture(scope="session")
def ground6(lattice6):
    return rs.ground_occupation(lattice6)


# Table 3 scan plan: (side, 0-based level) -> (scan range, M_k).  The scan
# takes M_k = 1 - 2 d_k from the level; the column pins what it must be.
TABLE3_SCANS = {
    ("neg", 3): ((-0.05, 0.0), 5),
    ("neg", 2): ((-0.07, 0.0), 5),
    ("neg", 1): ((-0.10, 0.0), 5),
    ("neg", 0): ((-0.15, 0.0), 2),
    ("pos", 1): ((0.0, 0.20), 5),
    ("pos", 2): ((0.0, 0.30), 5),
    ("pos", 3): ((0.0, 0.65), 5),
    ("pos", 0): ((0.0, 0.70), 2),
}


@pytest.fixture(scope="session")
def table3(lattice6, ground6):
    """First critical point per (side, level), plus the scan wall time."""
    t0 = time.time()
    points = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncatedScanWarning)
        for key, (rng, mk) in TABLE3_SCANS.items():
            pts = rs.scan_critical(lattice6, key[1], rng, ground6)
            assert all(p.m_k == mk for p in pts), key
            points[key] = min(pts, key=lambda p: abs(p.g_c)) if pts else None
    return {"points": points, "elapsed": time.time() - t0}


@pytest.fixture(scope="session")
def tangents6(table3, lattice6):
    out = {}
    for key, pt in table3["points"].items():
        if pt is not None:
            out[key] = rs.solve_tangent(pt, lattice6)
    return out


@pytest.fixture(scope="session")
def sweeps6(lattice6, ground6):
    """The two full ground-branch sweeps of the acceptance gate."""
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncatedScanWarning)
        for name, target in (("neg", -0.15), ("pos", 0.65)):
            t0 = time.time()
            out[name] = continuation.sweep(lattice6, ground6, target)
            out[f"elapsed_{name}"] = time.time() - t0
    return out


@pytest.fixture(scope="session")
def toy_mm():
    """Two-level problem where the whole pair content collapses (M = M_k).

    Its single seniority-0 state has E(g) = 2 + 8g exactly, so the level-0
    collapse happens at g = -1/4 with E = 0.
    """
    return rs.PairingProblem((rs.Level(0.0, 6), rs.Level(1.0, 2)), 4)


@pytest.fixture(scope="session")
def toy_3lvl():
    """Three-level problem with non-trivial clusters at every level."""
    return rs.PairingProblem(
        (rs.Level(0.0, 4), rs.Level(1.0, 4), rs.Level(2.5, 2)), 4)


@pytest.fixture(scope="session")
def seniority_twins():
    """A problem with two blocked levels, and its seniority-0 twin.

    A level of seniority nu enters only through d = nu/2 - Omega/4, as the
    level of its Omega - 2 nu unblocked states does: Omega = 8 with nu = 2
    and Omega = 6 with nu = 1 are the twin's Omega = 4.
    """
    blocked = rs.PairingProblem((rs.Level(0.0, 8, nu=2), rs.Level(1.0, 4),
                                 rs.Level(2.5, 6, nu=1)), 3)
    twin = rs.PairingProblem((rs.Level(0.0, 4), rs.Level(1.0, 4),
                              rs.Level(2.5, 4)), 3)
    return blocked, twin


def weak_seed(problem, occupation, g_small):
    """The weak-coupling seed (values, origin labels) of the occupation at
    g_small (`solver._weak_seed_arrays`)."""
    return _weak_seed_arrays(problem.eta2_array(), problem.d_array(),
                             as_occupation(occupation).counts, g_small)


def physical_state_at(problem, occupation, g, *, steps=40):
    """The energies at g of a plain continuation from weak coupling: one
    `newton_core` solve per grid point, no crossing machinery."""
    eta2, d = problem.eta2_array(), problem.d_array()
    g0 = np.sign(g) * 1e-3 * problem.mean_level_spacing()
    cur = newton_core(weak_seed(problem, occupation, g0)[0], g0, eta2, d)[0]
    for gv in np.linspace(g0, g, steps)[1:]:
        cur, ok, _, _ = newton_core(cur, gv, eta2, d)
        assert ok, f"continuation stalled at g={gv}"
    return cur


def nearest_members(values, center, count):
    """Indices of the `count` energies closest to `center`."""
    return np.argsort(np.abs(np.asarray(values) - center))[:count]


def fault_walks(monkeypatch, fault):
    """Make every scan walk (`critical._walk`) of 0-based level k meet what
    fault(k, g) raises at the first grid coupling g where it raises: a
    ContinuationError stalls the walk there, any other error is raised
    once the walk and its determinants have reached the point before."""
    walk = critical._walk

    def faulty(walker, problem, k, grid):
        for n, g in enumerate(grid):
            try:
                fault(k, g)
            except ContinuationError as err:
                gs, dets, states, stall = walk(walker, problem, k, grid[:n])
                return gs, dets, states, stall or err
            except Exception:
                walk(walker, problem, k, grid[:n])
                raise
        return walk(walker, problem, k, grid)

    monkeypatch.setattr(critical, "_walk", faulty)
