import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import richardson as rs
from richardson.errors import (CapacityError, InitializationError,
                               ProblemFormatError)
from richardson.solver import _single_level_roots

TABLE1 = [(-4, 2), (-3, 8), (-2, 8), (-1, 8), (0, 20),
          (1, 8), (2, 8), (3, 8), (4, 2)]


def test_lattice_6x6_levels(lattice6):
    assert [(lv.eta, lv.omega) for lv in lattice6.levels] == TABLE1
    assert all(lv.nu == 0 for lv in lattice6.levels)


def test_lattice_n2_by_enumeration():
    # momenta (0,0),(0,pi),(pi,0),(pi,pi) -> energies -4,0,0,4
    p = rs.build_lattice_model(2, 2)
    assert [(lv.eta, lv.omega) for lv in p.levels] == [(-4, 2), (0, 4), (4, 2)]


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_lattice_state_count_and_symmetry(n):
    p = rs.build_lattice_model(n, 2)
    assert sum(lv.omega for lv in p.levels) == 2 * n * n
    table = {lv.eta: lv.omega for lv in p.levels}
    for eta, omega in table.items():
        assert table[-eta] == omega


def test_effective_degeneracy():
    lv = rs.Level(1.5, 8)
    assert lv.d == -2.0
    assert rs.Level(0.0, 8, nu=2).d == 1.0 - 2.0
    with pytest.raises(ValueError):
        rs.Level(0.0, 0)
    with pytest.raises(ValueError):
        rs.Level(0.0, 2, nu=3)


def test_pair_capacity_is_what_d_allows():
    # the Richardson equations put at most floor(-2 d) pairs on a level:
    # a lone level of even Omega - 2 nu solves with that many, not one more
    for omega in range(1, 25):
        for nu in range(omega // 2 + 1):
            lv = rs.Level(0.0, omega, nu)
            cap = lv.pair_capacity
            assert cap == math.floor(-2.0 * lv.d), lv
            if (omega - 2 * nu) % 2 or cap < 1:
                continue
            assert len(_single_level_roots(lv.d, cap)) == cap, lv
            with pytest.raises(InitializationError):
                _single_level_roots(lv.d, cap + 1)


def test_ground_occupation_6x6(lattice6):
    assert rs.ground_occupation(lattice6).counts == (1, 4, 4, 4, 5, 0, 0, 0, 0)


def test_ground_occupation_small_cases():
    p = rs.build_lattice_model(2, 1)
    assert rs.ground_occupation(p).counts == (1, 0, 0)
    p0 = rs.PairingProblem((rs.Level(0.0, 4),), 0)
    assert rs.ground_occupation(p0).counts == (0,)


def test_ground_minimizes_energy_bruteforce():
    p = rs.build_lattice_model(2, 2)
    caps = p.capacities()
    eta2 = p.eta2_array()
    best = min(
        (sum(e * c for e, c in zip(eta2, counts))
         for counts in np.ndindex(*[c + 1 for c in caps])
         if sum(counts) == 2),
    )
    grd = rs.ground_occupation(p)
    assert sum(e * c for e, c in zip(eta2, grd.counts)) == best


def test_excited_occupations_zero(lattice6):
    assert rs.excited_occupations(lattice6, 0) == \
        [rs.ground_occupation(lattice6)]


def test_excited_occupations_one(lattice6):
    occs = rs.excited_occupations(lattice6, 1)
    counts = [o.counts for o in occs]
    assert (1, 4, 4, 3, 6, 0, 0, 0, 0) in counts
    # independent count: one pair moved from an occupied level to any other
    # level with spare room, plus the ground itself
    grd = rs.ground_occupation(lattice6).counts
    caps = lattice6.capacities()
    moves = set()
    for src in range(9):
        if grd[src] == 0:
            continue
        for dst in range(9):
            if dst == src or grd[dst] >= caps[dst]:
                continue
            new = list(grd)
            new[src] -= 1
            new[dst] += 1
            moves.add(tuple(new))
    assert len(occs) == len(moves) + 1
    assert counts == sorted(counts)


def test_save_load_roundtrip(lattice6):
    p = lattice6
    text = rs.save_problem(p)
    back = rs.load_problem(text)
    assert back == p


def test_load_missing_levels_key():
    with pytest.raises(ProblemFormatError, match="levels"):
        rs.load_problem(json.dumps({"pairs": 2}))
    with pytest.raises(ProblemFormatError, match=r"levels\[1\]"):
        rs.load_problem(json.dumps(
            {"levels": [{"eta": 0, "omega": 2}, {"eta": 1}], "pairs": 1}))


def test_duplicate_levels_merged_with_warning():
    doc = {"levels": [{"eta": 0.0, "omega": 2, "nu": 0},
                      {"eta": 0.0, "omega": 4, "nu": 0},
                      {"eta": 1.0, "omega": 2, "nu": 0}],
           "pairs": 2}
    with pytest.warns(UserWarning, match="merged"):
        p = rs.load_problem(json.dumps(doc))
    assert [(lv.eta, lv.omega) for lv in p.levels] == [(0.0, 6), (1.0, 2)]


def test_capacity_error():
    with pytest.raises(CapacityError):
        rs.build_lattice_model(6, 100)


def test_odd_lattice_supported():
    p = rs.build_lattice_model(5, 2)
    assert sum(lv.omega for lv in p.levels) == 50
    assert any(abs(lv.eta - round(lv.eta)) > 1e-6 for lv in p.levels)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(-8, 8), st.sampled_from([2, 4, 6, 8])),
                min_size=1, max_size=8))
def test_merge_levels_properties(raw):
    levels = [rs.Level(float(e) / 2.0, o) for e, o in raw]
    merged = rs.merge_levels(levels, warn=False)
    etas = [lv.eta for lv in merged]
    assert etas == sorted(etas)
    assert all(b - a > 0 for a, b in zip(etas, etas[1:]))
    assert sum(lv.omega for lv in merged) == sum(lv.omega for lv in levels)
