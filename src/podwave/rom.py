"""Galerkin reduced-order model of the damped wave equation on a POD basis,
plus error metrics against the full finite element trajectory.

Because the modes are M-orthonormal the reduced mass matrix is the identity
and the reduced system mirrors the full scheme with S_r = Phi^T A Phi in
place of the stiffness matrix.  Every step matrix is then a polynomial in
S_r, so the scheme decouples in the eigenbasis of S_r.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fem import FemSpace, l2_norms_sq, h10_norms_sq
from .pod import PodBasis, check_rank, project_ritz
from .wave import TimeGrid, Trajectory, WaveParams, energy_series, step_weights

_REDUCED_MASS_TOL = 1e-10
_RATIO_FLOOR = 1e-14


@dataclass
class RomSystem:
    """Reduced operators and initial coefficients for one (basis, r) run."""

    r: int
    modes: np.ndarray             # (r, n_dof)
    reduced_stiffness: np.ndarray  # (r, r), SPD
    params: WaveParams
    grid: TimeGrid
    space: FemSpace
    a1: np.ndarray
    a2: np.ndarray


def build_rom(basis: PodBasis, r: int, traj: Trajectory, params: WaveParams) -> RomSystem:
    """Assemble the reduced system on the space and grid of traj; initial
    coefficients are the L2 projections of its first two states."""
    check_rank(basis, r)
    space = traj.space
    phi = basis.modes[:r]
    m_phi = space.mass.matvec(phi)
    reduced_mass = np.inner(m_phi, phi)
    if np.max(np.abs(reduced_mass - np.eye(r))) > _REDUCED_MASS_TOL:
        raise ValueError("modes are not orthonormal in the L2 inner product")
    s_r = np.inner(space.stiffness.matvec(phi), phi)
    s_r = 0.5 * (s_r + s_r.T)
    return RomSystem(
        r=r, modes=phi, reduced_stiffness=s_r, params=params, grid=traj.grid,
        space=space, a1=m_phi @ traj.states[0], a2=m_phi @ traj.states[1],
    )


def solve_rom(romsys: RomSystem) -> Trajectory:
    """Integrate the reduced system and reconstruct full-order states.

    With S_r = Q diag(lam) Q^T the coordinates z = Q^T a decouple: each FE
    step matrix w_m M + w_a A becomes w_m + w_a lam, and mode k follows
    z^n = b_cur[k] z^{n-1} + b_prev[k] z^{n-2}, with no linear solve.
    """
    lam, q = np.linalg.eigh(romsys.reduced_stiffness)
    weights = step_weights(romsys.params, romsys.grid.dt)
    lhs, b_cur, b_prev = (wm + wa * lam for wm, wa in weights)
    b_cur, b_prev = b_cur / lhs, b_prev / lhs
    z = np.empty((romsys.grid.N, romsys.r))
    z[0], z[1] = romsys.a1 @ q, romsys.a2 @ q
    for n in range(2, romsys.grid.N):
        z[n] = b_cur * z[n - 1] + b_prev * z[n - 2]
    states = z @ (q.T @ romsys.modes)
    return Trajectory(space=romsys.space, grid=romsys.grid, states=states)


@dataclass
class RomErrorReport:
    """Error metrics for a ROM run; squared quantities follow the bound
    statements (max_l2_sq = max_n ||e^n||^2), final_l2 is the plain norm."""

    max_l2_sq: float
    max_energy: float
    final_l2: float
    ratio_energy: Optional[float]
    ratio_pointwise: Optional[float]


def error_report(fe_traj: Trajectory, rom_traj: Trajectory, basis: PodBasis,
                 r: int, params: WaveParams) -> RomErrorReport:
    """Compare ROM against FE and evaluate the error-bound quotients.

    The error splits as e^n = eta^n - phi^n with eta^n = u_h^n - R_r u_h^n
    (data projection error) and phi^n = u_r^n - R_r u_h^n (discretization
    error); the bound denominators use phi^1, phi^2 and the Ritz defects of
    the discarded modes.  Ratios are reported as None when the denominator
    falls below round-off scale.
    """
    if fe_traj.grid.N != rom_traj.grid.N:
        raise ValueError("trajectories live on different grids")
    space, dt = fe_traj.space, fe_traj.grid.dt
    err = fe_traj.states - rom_traj.states  # (N, m)
    # phi at the first two levels only: that is all the denominators use
    phi = rom_traj.states[:2] - project_ritz(basis, r, fe_traj.states[:2])

    l2_sq = l2_norms_sq(space, err)
    e_energy = energy_series(space, err, dt, params.c)
    final_l2 = float(np.sqrt(max(l2_sq[-1], 0.0)))

    # discretization-error energy at the second time level
    e_phi2 = float(energy_series(space, phi, dt, params.c)[0])
    phi1_l2_sq = float(l2_norms_sq(space, phi[0]))

    # the Ritz defects of the discarded modes (none at full rank)
    tail, tail_modes = basis.eigenvalues[r:], basis.modes[r:]
    defect = tail_modes - project_ritz(basis, r, tail_modes)
    d_l2 = l2_norms_sq(space, defect)
    tail_l2 = float(np.dot(tail, d_l2))
    tail_both = float(np.dot(tail, d_l2 + h10_norms_sq(space, defect)))

    energy_denom = e_phi2 + tail_both
    pointwise_denom = phi1_l2_sq + e_phi2 + tail_l2
    max_energy = float(np.max(e_energy))
    max_l2_sq = float(np.max(l2_sq))
    scale = max(basis.eigenvalues[0], 1.0)
    ratio_energy = max_energy / energy_denom if energy_denom > _RATIO_FLOOR * scale else None
    ratio_pointwise = max_l2_sq / pointwise_denom if pointwise_denom > _RATIO_FLOOR * scale else None

    return RomErrorReport(
        max_l2_sq=max_l2_sq, max_energy=max_energy, final_l2=final_l2,
        ratio_energy=ratio_energy, ratio_pointwise=ratio_pointwise,
    )
