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


_TWO_LEVELS = {"levels": [{"eta": 0.0, "omega": 2}, {"eta": 1.0, "omega": 4}],
               "pairs": 2}


def _edit_level(key, value):
    return lambda doc: dict(doc, levels=[{**doc["levels"][0], key: value},
                                         doc["levels"][1]])


@pytest.mark.parametrize("edit, field", [
    (_edit_level("omega", 2.7), "omega"), (_edit_level("nu", 0.9), "nu"),
    (_edit_level("omega", True), "omega"),
    (lambda doc: dict(doc, pairs=True), "pairs"),
    (_edit_level("eta", "nan"), "eta"), (_edit_level("eta", "inf"), "eta"),
    (_edit_level("eta", float("nan")), "eta"),
    (lambda doc: dict(doc, label="../x"), "label"),
    (lambda doc: dict(doc, label="a\\b"), "label"),
    (lambda doc: dict(doc, label=3), "label")],
    ids=["omega-2.7", "nu-0.9", "omega-true", "pairs-true", "eta-nan-text",
         "eta-inf-text", "eta-nan", "label-parent", "label-backslash",
         "label-number"])
def test_load_refuses_a_number_it_would_change(edit, field):
    # before, omega 2.7 and nu 0.9 were truncated, true read as 1 and
    # "nan" as a level energy; the label names files under --out
    assert rs.load_problem(json.dumps(_TWO_LEVELS)).m_pairs == 2
    with pytest.raises(ProblemFormatError, match=rf"\b{field}\b"):
        rs.load_problem(json.dumps(edit(_TWO_LEVELS)))


@pytest.mark.parametrize("make", [
    lambda: rs.OccupationMap((1.5, 2)), lambda: rs.OccupationMap((True, 1)),
    lambda: rs.Level(float("nan"), 2), lambda: rs.Level(float("inf"), 2),
    lambda: rs.Level(0.0, 2.5), lambda: rs.Level(0.0, 4, nu=True)],
    ids=["count-1.5", "count-true", "eta-nan", "eta-inf", "omega-2.5",
         "nu-true"])
def test_levels_and_occupations_refuse_what_they_would_change(make):
    with pytest.raises(ValueError):
        make()


def test_integral_numbers_are_kept():
    assert rs.OccupationMap((2.0, np.int64(1))).counts == (2, 1)
    level = rs.Level(np.float64(1.5), 4.0, nu=np.int64(1))
    assert level == rs.Level(1.5, 4, 1) and type(level.omega) is int


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
