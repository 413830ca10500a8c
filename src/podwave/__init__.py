"""podwave: POD model order reduction for the 1-D damped wave equation.

Builds linear-FE trajectories of the damped wave equation, extracts POD
bases from snapshots or their first/second difference quotients, runs the
Galerkin reduced-order model, and verifies the exact data-error formulas,
pointwise bounds, and energy identities that certify the reduction.
"""

from .fem import FemSpace, assemble, l2_project
from .pod import PodBasis, PodDataSet, BoundConstants, build_dataset, compute_basis, pod_basis
from .rom import RomSystem, RomErrorReport, build_rom, solve_rom, error_report
from .wave import (
    AnalyticSeriesSolution,
    TimeGrid,
    Trajectory,
    WaveParams,
    analytic_eval,
    analytic_series,
    default_u0,
    default_u00,
    energy_series,
    initial_states,
    solve,
)

__all__ = [
    "AnalyticSeriesSolution",
    "BoundConstants",
    "FemSpace",
    "PodBasis",
    "PodDataSet",
    "RomErrorReport",
    "RomSystem",
    "TimeGrid",
    "Trajectory",
    "WaveParams",
    "analytic_eval",
    "analytic_series",
    "assemble",
    "build_dataset",
    "build_rom",
    "compute_basis",
    "default_u0",
    "default_u00",
    "energy_series",
    "error_report",
    "initial_states",
    "l2_project",
    "pod_basis",
    "solve",
    "solve_rom",
]

__version__ = "0.1.0"
