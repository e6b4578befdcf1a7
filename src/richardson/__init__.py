"""Solver for the Richardson pairing equations with a-priori critical points.

Locates every critical coupling g_c where a cluster of pair energies
collapses onto twice a single-particle energy, computes the exact solution
at g_c, and continues solutions smoothly through the critical regions.
"""

from ._kernels import backend_name
from .cluster import (chi_ratios, cluster_matrix, default_cluster_size,
                      detect_cluster, invert_power_sums, pn_coefficients,
                      power_sums)
from .continuation import (SweepOptions, SweepPath, SweepSample,
                           restart_solve, sample_figure_data, sweep)
from .critical import (CriticalPoint, critical_residuals, deflated_occupation,
                       deflated_residuals, scan_critical)
from .model import (Level, OccupationMap, PairingProblem, build_lattice_model,
                    excited_occupations, ground_occupation, load_problem,
                    merge_levels, save_problem)
from .oracle import exact_spectrum, ground_energy, pair_basis
from .solver import PairEnergies
from .tangent import TangentData, linear_guess, solve_tangent

__all__ = [
    "Level", "OccupationMap", "PairingProblem", "build_lattice_model",
    "excited_occupations", "ground_occupation", "load_problem",
    "merge_levels", "save_problem",
    "PairEnergies",
    "chi_ratios", "cluster_matrix", "default_cluster_size", "detect_cluster",
    "invert_power_sums", "pn_coefficients", "power_sums",
    "CriticalPoint", "critical_residuals", "deflated_occupation",
    "deflated_residuals", "scan_critical",
    "TangentData", "linear_guess", "solve_tangent",
    "SweepOptions", "SweepPath", "SweepSample", "restart_solve",
    "sample_figure_data", "sweep",
    "exact_spectrum", "ground_energy", "pair_basis",
    "backend_name",
]
