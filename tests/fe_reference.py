"""Reference helpers for the tests: scalar inner products, dense matrices,
time averages, one time step, a whole stepping loop, the energy at one
level, the energy series and balance over whole arrays, `solve`'s two CSVs
from whole arrays, the thin SVD on a copy and the ROM error report over
full-space states, each written out on its own so that the vectorised,
blocked and streamed program paths can be checked against it."""

import os

import numpy as np
import scipy.linalg

from podwave import diffops
from podwave.cli import write_csv
from podwave.experiments import setup
from podwave.fem import h10_norms_sq, l2_norms_sq
from podwave.pod import project_ritz
from podwave.rom import _RATIO_FLOOR, RomErrorReport
from podwave.wave import initial_states, solve, step_matrices


def to_dense(a) -> np.ndarray:
    """Dense copy of a SymTridiagonal."""
    return np.diag(a.diag) + np.diag(a.off, 1) + np.diag(a.off, -1)


def l2_inner(space, u, v) -> float:
    """(u, v) in L2, i.e. u^T M v."""
    return float(np.dot(u, space.mass.matvec(v)))


def h10_inner(space, u, v) -> float:
    """(u', v') in L2, i.e. u^T A v."""
    return float(np.dot(u, space.stiffness.matvec(v)))


def interpolate(f, space) -> np.ndarray:
    """Nodal interpolant coefficients (values of f at interior nodes)."""
    return np.asarray(f(space.nodes), dtype=float)


def backward_avg(z: np.ndarray) -> np.ndarray:
    """(z[j] + z[j-1]) / 2 for j = 2..N."""
    return 0.5 * (z[1:] + z[:-1])


def centered_avg(z: np.ndarray) -> np.ndarray:
    """(z[j+1] + 2 z[j] + z[j-1]) / 4 for j = 2..N-1."""
    return 0.25 * (z[2:] + 2.0 * z[1:-1] + z[:-2])


def step(space, params, grid, u_prev, u_cur) -> np.ndarray:
    """One time step by a dense solve of the step system."""
    lhs, b_cur, b_prev = step_matrices(space, params, grid.dt)
    rhs = b_cur.matvec(u_cur) + b_prev.matvec(u_prev)
    return np.linalg.solve(to_dense(lhs), rhs)


def banded_upper(a) -> np.ndarray:
    """Upper band storage (2, n) of a SymTridiagonal, as scipy's banded
    Cholesky routines take it."""
    ab = np.zeros((2, a.n))
    ab[0, 1:] = a.off
    ab[1, :] = a.diag
    return ab


def solve_states(space, grid, params, u0, u00) -> np.ndarray:
    """All levels (N, n_dof) of the three-level scheme, each step solved by
    scipy.linalg.cho_solve_banded on a factor from cholesky_banded."""
    lhs, b_cur, b_prev = step_matrices(space, params, grid.dt)
    cb = scipy.linalg.cholesky_banded(banded_upper(lhs), lower=False)
    states = np.empty((grid.N, space.n_dof))
    states[0], states[1] = initial_states(space, grid, params, u0, u00)
    for n in range(2, grid.N):
        rhs = b_cur.matvec(states[n - 1]) + b_prev.matvec(states[n - 2])
        states[n] = scipy.linalg.cho_solve_banded((cb, False), rhs)
    return states


def energy(traj, n: int, c: float) -> float:
    """Discrete energy at time level n (1-based, 2 <= n <= N)."""
    u, u_prev = traj.states[n - 1], traj.states[n - 2]
    bd = (u - u_prev) / traj.grid.dt
    avg = 0.5 * (u + u_prev)
    return 0.5 * l2_inner(traj.space, bd, bd) + 0.5 * c * c * h10_inner(traj.space, avg, avg)


def energy_series(space, states, dt: float, c: float) -> np.ndarray:
    """wave.energy_series over whole arrays: the (N-1, n_dof) forward
    differences and level averages of the stack, then their norms."""
    bd = diffops.forward_diff(states, dt)
    avg = 0.5 * (states[1:] + states[:-1])
    return 0.5 * l2_norms_sq(space, bd) + 0.5 * c * c * h10_norms_sq(space, avg)


def energy_balance(traj, params):
    """wave.energy_balance over whole arrays: the energy series above and
    the (N-2, n_dof) centred differences of the trajectory."""
    e = energy_series(traj.space, traj.states, traj.grid.dt, params.c)
    rate = (e[1:] - e[:-1]) / traj.grid.dt
    cd = diffops.centered_diff(traj.states, traj.grid.dt)
    dissipation = params.D * l2_norms_sq(traj.space, cd) + params.G * h10_norms_sq(traj.space, cd)
    return e, rate, dissipation


def solve_csvs(config, out_dir):
    """`podwave solve`'s trajectory.csv and energy.csv for a validated config,
    written into out_dir from whole arrays: every level of wave.solve, the
    whole-array energy balance above and one float block per table."""
    space, grid, params, u0, u00 = setup(config)
    traj = solve(space, grid, params, u0, u00)
    header = ["t"] + [f"u_{i}" for i in range(1, space.n_dof + 1)]
    write_csv(os.path.join(out_dir, "trajectory.csv"), config, "solve", header,
              np.column_stack((grid.times, traj.states))[::config.stride])
    e, rate, dissipation = energy_balance(traj, params)
    write_csv(os.path.join(out_dir, "energy.csv"), config, "solve",
              ["t", "energy", "energy_rate", "neg_dissipation"],
              np.column_stack((grid.times[1:-1], e[:-1], rate, -dissipation)))


def thin_svd_of_a_copy(b: np.ndarray):
    """(U^T, s) of the (n, k) matrix b^T for a stack b (k, n), left intact:
    the SVD of R^T, R the leading min(k, n) rows of the triangle of scipy's
    QR factorisation of b, since b^T = R^T Q^T."""
    k, n = b.shape
    r = scipy.linalg.qr(b, mode="r")[0][:min(k, n)]
    u, s, _ = scipy.linalg.svd(r.T, full_matrices=False)
    return u.T, s


def error_report(fe_traj, rom_states, basis, r, params) -> RomErrorReport:
    """rom.error_report computed in the full space: the norms and energies
    of the N x n_dof difference between the FE states and the ROM states
    (N, n_dof), and the Ritz projections of pod.project_ritz."""
    space, dt = fe_traj.space, fe_traj.grid.dt
    err = fe_traj.states - rom_states
    # phi at the first two levels only: that is all the denominators use
    phi = rom_states[:2] - project_ritz(basis, r, fe_traj.states[:2])

    l2_sq = l2_norms_sq(space, err)
    e_energy = energy_series(space, err, dt, params.c)

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
    ratio_energy = max_energy / energy_denom if energy_denom > _RATIO_FLOOR * scale else np.nan
    ratio_pointwise = max_l2_sq / pointwise_denom if pointwise_denom > _RATIO_FLOOR * scale else np.nan

    return RomErrorReport(
        max_l2_sq=max_l2_sq, max_energy=max_energy,
        ratio_energy=ratio_energy, ratio_pointwise=ratio_pointwise,
    )
