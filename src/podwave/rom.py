"""Galerkin reduced-order model of the damped wave equation on a POD basis,
plus its errors against the full finite element trajectory.

Because the modes are M-orthonormal the reduced mass matrix is the identity
and the reduced system mirrors the full scheme with S_r = Phi A Phi^T in
place of the stiffness matrix.  Every step matrix is then a polynomial in
S_r, so the scheme decouples in the eigenbasis of S_r.  A ROM run is its
coefficients a (N, r): the ROM state at level n is a^n Phi_r.

The errors are taken in POD coordinates: one ErrorFrame per trajectory U and
basis Phi of s modes.  With Phi A Phi^T = L L^T the rows of psi = L^{-1} Phi
are A-orthonormal and nested, so the Ritz projection onto r modes keeps the
first r psi-coefficients, as the L2 one keeps the first r of c = U M Phi^T.
With d = avg(U) A psi^T and off the part outside span Phi (0 if s = n_dof),
    ||e^n||_M^2     = off + sum_{k>r} (c_k^n)^2 + |c_{<=r}^n - a^n|^2,
    ||avg e^n||_A^2 = off + sum_{k>r} (d_k^n)^2 + |d_{<=r}^n - (avg a^n) L_rr|^2,
||bd e^n||_M^2 likewise with bd c, and phi_k - R_r phi_k = sum_{r<=j<=k} L_kj psi_j.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .diffops import forward_diff
from .fem import l2_norms_sq, h10_norms_sq
from .pod import PodBasis, check_rank, stiffness_factor
from .wave import TimeGrid, Trajectory, WaveParams, step_weights

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
        a1=m_phi @ traj.states[0], a2=m_phi @ traj.states[1],
    )


def solve_rom(romsys: RomSystem) -> np.ndarray:
    """Integrate the reduced system; returns its coefficients a (N, r), the
    ROM state at level n being a^n romsys.modes.

    With S_r = Q diag(lam) Q^T the coordinates z = a Q decouple: each FE
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
    return z @ q.T


def _energy(bd_l2_sq, avg_h10_sq, c: float):
    """The discrete energy from its two squared norms, as wave.energy_series."""
    return 0.5 * bd_l2_sq + 0.5 * c * c * avg_h10_sq


class ErrorFrame:
    """An FE trajectory in the coordinates of all modes of a POD basis: the
    products of the states with the vectors M phi_k and A psi_k."""

    def __init__(self, traj: Trajectory, basis: PodBasis, params: WaveParams):
        space, dt, u, phi = traj.space, traj.grid.dt, traj.states, basis.modes
        self.basis, self.params, self.dt = basis, params, dt
        self.lower, a_phi = stiffness_factor(basis, basis.rank)  # (s, s) L
        a_psi = scipy.linalg.solve_triangular(self.lower, a_phi, lower=True)
        # two products: c as a view of one (N, 2s) product would keep du alive
        c, du = u @ space.mass.matvec(phi).T, u @ a_psi.T
        self.c, self.d = c, 0.5 * (du[1:] + du[:-1])  # (N, s), (N-1, s)
        # psi-coefficients of u^1 and bd u^2, the difference taken first
        self.start = np.stack((u[0], (u[1] - u[0]) / dt)) @ a_psi.T
        self.off_l2 = self.off_energy = 0.0
        if basis.rank < space.n_dof:
            psi = scipy.linalg.solve_triangular(self.lower, phi, lower=True)
            out_m, out_a = u - c @ phi, u - du @ psi
            self.off_l2 = l2_norms_sq(space, out_m)
            self.off_energy = _energy(l2_norms_sq(space, forward_diff(out_m, dt)),
                                      h10_norms_sq(space, 0.5 * (out_a[1:] + out_a[:-1])),
                                      params.c)


def _error_sq(coords: np.ndarray, approx: np.ndarray) -> np.ndarray:
    """Per row, |coords - (approx, 0)|^2: the discarded modes' sum of squares
    plus the distance on the kept ones."""
    r = approx.shape[1]
    tail, head = coords[:, r:], coords[:, :r] - approx
    return np.einsum("ij,ij->i", tail, tail) + np.einsum("ij,ij->i", head, head)


@dataclass
class RomErrorReport:
    """Error metrics for a ROM run; squared quantities follow the bound
    statements (max_l2_sq = max_n ||e^n||^2), final_l2 is the plain norm."""

    max_l2_sq: float
    max_energy: float
    final_l2: float
    ratio_energy: Optional[float]
    ratio_pointwise: Optional[float]


def error_report(frame: ErrorFrame, coeffs: np.ndarray) -> RomErrorReport:
    """Compare a ROM run coeffs (N, r) on the first r modes of the frame's
    basis against the frame's trajectory, and evaluate the error-bound
    quotients.

    The error splits as e^n = eta^n - phi^n with eta^n = u_h^n - R_r u_h^n
    (data projection error) and phi^n = u_r^n - R_r u_h^n (discretization
    error); the bound denominators use phi^1, phi^2 and the Ritz defects of
    the discarded modes.  Ratios are reported as None when the denominator
    falls below round-off scale.
    """
    basis, dt, c = frame.basis, frame.dt, frame.params.c
    if coeffs.shape[0] != frame.c.shape[0]:
        raise ValueError("the ROM run and the frame live on different grids")
    r = coeffs.shape[1]
    check_rank(basis, r)
    l_rr = frame.lower[:r, :r]
    l2_sq = frame.off_l2 + _error_sq(frame.c, coeffs)
    avg_psi = 0.5 * (coeffs[1:] + coeffs[:-1]) @ l_rr
    # bd c is formed here, not kept: the frame holds two (N, s) arrays, not three
    e_energy = frame.off_energy + _energy(
        _error_sq(forward_diff(frame.c, dt), forward_diff(coeffs, dt)), _error_sq(frame.d, avg_psi), c)
    final_l2 = float(np.sqrt(max(l2_sq[-1], 0.0)))

    # R_r v = x Phi_r with x L_rr = the first r psi-coefficients of v: of u^1,
    # bd u^2 and the discarded modes, whose psi-coefficients are rows of L
    tail, l_tail = basis.eigenvalues[r:], frame.lower[r:]
    x = scipy.linalg.solve_triangular(
        l_rr, np.hstack((frame.start[:, :r].T, l_tail[:, :r].T)), lower=True, trans="T")
    phi1, bd_phi = coeffs[0] - x[:, 0], (coeffs[1] - coeffs[0]) / dt - x[:, 1]
    phi1_l2_sq = float(phi1 @ phi1)
    avg_phi = (phi1 + 0.5 * dt * bd_phi) @ l_rr
    e_phi2 = float(_energy(bd_phi @ bd_phi, avg_phi @ avg_phi, c))

    # the Ritz defects phi_k - x_k Phi_r of the discarded modes (none at full
    # rank): squared M-norm 1 + |x_k|^2, squared A-norm sum_{j>=r} L_kj^2
    d_l2 = 1.0 + np.einsum("ij,ij->j", x[:, 2:], x[:, 2:])
    d_h10 = np.einsum("ij,ij->i", l_tail[:, r:], l_tail[:, r:])
    tail_l2 = float(np.dot(tail, d_l2))
    tail_both = float(np.dot(tail, d_l2 + d_h10))

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
