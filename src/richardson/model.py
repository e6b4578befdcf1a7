"""Pairing problem definitions: levels, occupations, the square-lattice model.

Level indices are 0-based throughout the API; the CLI prints 1-based ``j``
labels in its tables.  All quantities are dimensionless.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ProblemFormatError

#: momenta closer in energy than this are grouped into one level (lattice
#: energies are exact integers for even n, so this is safety only)
ENERGY_GROUP_TOL = 1e-9


def as_int(value, what) -> int:
    """`value` as an int if it is an integral number, not a bool; else
    ValueError naming `what`.  Nothing is truncated: 2.7 is refused."""
    try:
        if not isinstance(value, (bool, np.bool_)) and value == int(value):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{what}: {value!r} is not an integer")


@dataclass(frozen=True)
class Level:
    """A single-particle level: energy eta, total degeneracy omega, seniority nu."""

    eta: float
    omega: int
    nu: int = 0

    def __post_init__(self):
        if isinstance(self.eta, bool) or not isinstance(
                self.eta, numbers.Real) or not math.isfinite(self.eta):
            raise ValueError(f"eta: {self.eta!r} is not a finite number")
        object.__setattr__(self, "eta", float(self.eta))
        object.__setattr__(self, "omega", as_int(self.omega, "omega"))
        object.__setattr__(self, "nu", as_int(self.nu, "nu"))
        if self.omega <= 0:
            raise ValueError(f"omega must be a positive integer, got {self.omega}")
        if self.nu < 0:
            raise ValueError(f"nu must be a non-negative integer, got {self.nu}")
        if 2 * self.nu > self.omega:
            raise ValueError(f"nu={self.nu} exceeds omega/2={self.omega / 2}")

    @property
    def d(self) -> float:
        """Effective degeneracy d = nu/2 - omega/4."""
        return self.nu / 2.0 - self.omega / 4.0

    @property
    def pair_capacity(self) -> int:
        """Pairs the level can hold: floor(-2 d) = omega // 2 - nu."""
        return self.omega // 2 - self.nu


def merge_levels(levels, warn=True):
    """Sort levels by energy and merge duplicates (omega summed, nu summed).

    Returns a tuple of Level with strictly increasing eta.
    """
    ordered = sorted(levels, key=lambda lv: lv.eta)
    merged: list[Level] = []
    duplicates = 0
    for lv in ordered:
        if merged and abs(lv.eta - merged[-1].eta) < ENERGY_GROUP_TOL:
            prev = merged[-1]
            merged[-1] = Level(prev.eta, prev.omega + lv.omega, prev.nu + lv.nu)
            duplicates += 1
        else:
            merged.append(lv)
    if duplicates and warn:
        warnings.warn(
            f"merged {duplicates} duplicate level(s) with equal eta "
            "(degeneracies summed)",
            stacklevel=2,
        )
    return tuple(merged)


@dataclass(frozen=True)
class PairingProblem:
    """Levels and pair count M; the coupling g is an argument, not a field."""

    levels: tuple[Level, ...]
    m_pairs: int
    label: str = ""

    def __post_init__(self):
        if not self.levels:
            raise ValueError("level list must be non-empty")
        object.__setattr__(self, "levels", tuple(self.levels))
        etas = [lv.eta for lv in self.levels]
        if any(b - a <= 0 for a, b in zip(etas, etas[1:])):
            raise ValueError("level energies must be strictly increasing; "
                             "use merge_levels() to normalize input")
        if self.m_pairs < 0:
            raise ValueError("m_pairs must be non-negative")
        if self.m_pairs > self.total_pair_capacity:
            raise CapacityError(
                f"M={self.m_pairs} pairs exceed total capacity "
                f"{self.total_pair_capacity}")

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def total_pair_capacity(self) -> int:
        return sum(lv.pair_capacity for lv in self.levels)

    def eta2_array(self) -> np.ndarray:
        """2 * eta_j for every level, float64."""
        return np.array([2.0 * lv.eta for lv in self.levels])

    def d_array(self) -> np.ndarray:
        """Effective degeneracies d_j, float64."""
        return np.array([lv.d for lv in self.levels])

    def capacities(self) -> tuple[int, ...]:
        return tuple(lv.pair_capacity for lv in self.levels)

    def mean_level_spacing(self) -> float:
        if self.n_levels < 2:
            return 1.0
        etas = [lv.eta for lv in self.levels]
        return (etas[-1] - etas[0]) / (len(etas) - 1)


@dataclass(frozen=True)
class OccupationMap:
    """Weak-coupling configuration: pairs per level, one entry per level."""

    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(
            as_int(c, "occupation count") for c in self.counts))
        if any(c < 0 for c in self.counts):
            raise ValueError("occupation counts must be non-negative")

    @property
    def total(self) -> int:
        return sum(self.counts)

    def validate_for(self, problem: PairingProblem):
        if len(self.counts) != problem.n_levels:
            raise ValueError(
                f"occupation has {len(self.counts)} entries for "
                f"{problem.n_levels} levels")
        for j, (c, lv) in enumerate(zip(self.counts, problem.levels)):
            if c > lv.pair_capacity:
                raise CapacityError(
                    f"counts[{j}]={c} exceeds level capacity {lv.pair_capacity}")
        if self.total != problem.m_pairs:
            raise ValueError(f"occupation sums to {self.total}, "
                             f"expected {problem.m_pairs}")
        return self


def as_occupation(counts) -> OccupationMap:
    if isinstance(counts, OccupationMap):
        return counts
    return OccupationMap(tuple(counts))


# ---------------------------------------------------------------------------
# 2-D square lattice model
# ---------------------------------------------------------------------------

def lattice_energies(n: int) -> list[float]:
    """eps_k = -2(cos kx + cos ky) over the n x n momentum grid."""
    angles = [2.0 * math.pi * a / n for a in range(n)]
    cosines = [math.cos(t) for t in angles]
    # snap trig fuzz (energies are exact integers for even n); +0.0 kills -0.0
    return [round(-2.0 * (ca + cb), 12) + 0.0
            for ca, cb in itertools.product(cosines, cosines)]


def build_lattice_model(n: int, filling: int) -> PairingProblem:
    """Pairing model on an n x n periodic square lattice with M=filling pairs.

    Each momentum contributes one time-reversed pair state; level
    degeneracies are Omega_j = 2 x (number of momenta with energy eps_j),
    seniority zero everywhere.  Reproduces the 9-level table for n=6.
    """
    if n < 2:
        raise ValueError("lattice size n must be >= 2")
    levels = merge_levels([Level(eta=e, omega=2) for e in lattice_energies(n)],
                          warn=False)
    # the label names the sweep CSVs
    return PairingProblem(levels, m_pairs=filling,
                          label=f"lattice{n}x{n}_M{filling}")


# ---------------------------------------------------------------------------
# occupations
# ---------------------------------------------------------------------------

def ground_occupation(problem: PairingProblem) -> OccupationMap:
    """Fill levels bottom-up with the problem's M pairs."""
    remaining = problem.m_pairs
    counts = []
    for lv in problem.levels:
        take = min(remaining, lv.pair_capacity)
        counts.append(take)
        remaining -= take
    return OccupationMap(tuple(counts))


def excited_occupations(problem: PairingProblem,
                        n_excitations: int) -> list[OccupationMap]:
    """All occupations reachable by moving up to n_excitations pairs.

    Displacement of an occupation o relative to the ground occupation grd is
    sum_j max(0, grd_j - o_j), the number of pairs that moved away.  Results
    are deterministic: lexicographic on counts, ground included.
    """
    if n_excitations < 0:
        raise ValueError("n_excitations must be >= 0")
    grd = ground_occupation(problem).counts
    caps = problem.capacities()
    nl = problem.n_levels
    m = problem.m_pairs
    results = []

    def walk(j, placed, displaced, prefix):
        if displaced > n_excitations:
            return
        if j == nl:
            if placed == m:
                results.append(tuple(prefix))
            return
        # remaining capacity must be able to absorb the rest
        rest_cap = sum(caps[j + 1:])
        for c in range(0, min(caps[j], m - placed) + 1):
            if m - placed - c > rest_cap:
                continue
            walk(j + 1, placed + c, displaced + max(0, grd[j] - c),
                 prefix + [c])

    walk(0, 0, 0, [])
    results.sort()
    return [OccupationMap(c) for c in results]


# ---------------------------------------------------------------------------
# problem file format
# ---------------------------------------------------------------------------

def save_problem(problem: PairingProblem) -> str:
    """Serialize a problem to the JSON problem-file format (it holds no g)."""
    doc = {
        "levels": [
            {"eta": lv.eta, "omega": lv.omega, "nu": lv.nu}
            for lv in problem.levels
        ],
        "pairs": problem.m_pairs,
    }
    if problem.label:
        doc["label"] = problem.label
    return json.dumps(doc, indent=2) + "\n"


def _require(doc, key, path):
    if key not in doc:
        raise ProblemFormatError(f"{path}: missing required key '{key}'")
    return doc[key]


def load_problem(text: str) -> PairingProblem:
    """Parse the problem-file format; duplicate levels are merged with a warning."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ProblemFormatError(f"not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ProblemFormatError("top level: expected an object")
    raw_levels = _require(doc, "levels", "top level")
    if not isinstance(raw_levels, list) or not raw_levels:
        raise ProblemFormatError("levels: expected a non-empty list")
    levels = []
    for i, entry in enumerate(raw_levels):
        path = f"levels[{i}]"
        if not isinstance(entry, dict):
            raise ProblemFormatError(f"{path}: expected an object")
        eta = _require(entry, "eta", path)
        omega = _require(entry, "omega", path)
        nu = entry.get("nu", 0)
        try:
            levels.append(Level(eta, omega, nu))
        except (TypeError, ValueError) as err:
            raise ProblemFormatError(f"{path}: {err}") from err
    pairs = _require(doc, "pairs", "top level")
    if isinstance(pairs, bool) or not isinstance(pairs, int) or pairs < 1:
        raise ProblemFormatError("pairs: expected a positive integer")
    label = doc.get("label", "")
    # the label names the sweep's files inside its --out directory
    if not isinstance(label, str) or "/" in label or "\\" in label:
        raise ProblemFormatError(f"label: {label!r} must be a string "
                                 f"without a path separator")
    merged = merge_levels(levels)
    try:
        return PairingProblem(merged, m_pairs=pairs, label=label)
    except (ValueError, CapacityError) as err:
        raise ProblemFormatError(str(err)) from err
