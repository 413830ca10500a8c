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

A study reports many sizes r of one basis, so the ROMs are stepped and the
frame is sized for all of them at once.  stack_roms makes one RomSystem of
runs that share a grid and WaveParams; solve_rom advances the eigen-
coordinates of every member as the columns of one (N, sum r) array, and the
recurrence is elementwise, so each member's coefficients are bitwise those
of its own run.  ErrorFrame(traj, basis, params, sizes) sums the discarded
modes' squares of c, bd c and d per level once for every size, over the
column ranges between the sizes from the last column down, and keeps the
columns of c and d below the largest size only.  The ranges are views and
bd c overwrites c, so the sums form no (N, s) temporary, and a report costs
O(N r).
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
    """Reduced operators and initial coefficients for one (basis, r) run, from
    build_rom; or, from stack_roms, a stack of such runs (members) on one grid
    and WaveParams, whose r is their total size and whose own modes,
    reduced_stiffness, a1 and a2 are None."""

    r: int
    modes: Optional[np.ndarray]              # (r, n_dof)
    reduced_stiffness: Optional[np.ndarray]  # (r, r), SPD
    params: WaveParams
    grid: TimeGrid
    a1: Optional[np.ndarray]
    a2: Optional[np.ndarray]
    members: tuple = ()


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


def stack_roms(members) -> RomSystem:
    """The runs of build_rom in members as one system for solve_rom; they
    must share the time grid and the wave parameters."""
    first = members[0]
    if any(m.grid != first.grid or m.params != first.params for m in members):
        raise ValueError("stacked ROMs must share the time grid and the wave parameters")
    return RomSystem(r=sum(m.r for m in members), modes=None, reduced_stiffness=None,
                     params=first.params, grid=first.grid, a1=None, a2=None,
                     members=tuple(members))


def solve_rom(romsys: RomSystem) -> np.ndarray:
    """Integrate the reduced system; returns its coefficients a (N, r), the
    ROM state at level n being a^n romsys.modes.  A stack's coefficients are
    its members' side by side, in member order.

    With S_r = Q diag(lam) Q^T the coordinates z = a Q decouple: each FE
    step matrix w_m M + w_a A becomes w_m + w_a lam, and mode k follows
    z^n = b_cur[k] z^{n-1} + b_prev[k] z^{n-2}, with no linear solve.  One
    loop advances the z of every member.
    """
    members = romsys.members or (romsys,)
    eigs = [np.linalg.eigh(m.reduced_stiffness) for m in members]
    lam = np.concatenate([lam for lam, _ in eigs])
    weights = step_weights(romsys.params, romsys.grid.dt)
    lhs, b_cur, b_prev = (wm + wa * lam for wm, wa in weights)
    b_cur, b_prev = b_cur / lhs, b_prev / lhs
    z = np.empty((romsys.grid.N, romsys.r))
    z[0] = np.concatenate([m.a1 @ q for m, (_, q) in zip(members, eigs)])
    z[1] = np.concatenate([m.a2 @ q for m, (_, q) in zip(members, eigs)])
    for n in range(2, romsys.grid.N):
        z[n] = b_cur * z[n - 1] + b_prev * z[n - 2]
    start = 0
    for m, (_, q) in zip(members, eigs):
        block = z[:, start:start + m.r]
        block[...] = block @ q.T
        start += m.r
    return z


def _energy(bd_l2_sq, avg_h10_sq, c: float):
    """The discrete energy from its two squared norms, as wave.energy_series."""
    return 0.5 * bd_l2_sq + 0.5 * c * c * avg_h10_sq


class ErrorFrame:
    """An FE trajectory in the coordinates of all modes of a POD basis, the
    products of the states with the vectors M phi_k and A psi_k, for the
    reports of ROMs of the given sizes on that basis: per size, the tail
    sums of squares; below the largest size, the coordinates themselves."""

    def __init__(self, traj: Trajectory, basis: PodBasis, params: WaveParams, sizes):
        space, dt, u, phi, s = traj.space, traj.grid.dt, traj.states, basis.modes, basis.rank
        sizes = sorted({int(r) for r in sizes})
        if not sizes:
            raise ValueError("an error frame needs at least one basis size")
        for r in sizes:
            check_rank(basis, r)
        self.basis, self.params, self.dt = basis, params, dt
        self.lower, a_phi = stiffness_factor(basis, s)  # (s, s) L
        a_psi = scipy.linalg.solve_triangular(self.lower, a_phi, lower=True)
        # two products: c as a view of one (N, 2s) product would keep du alive
        c, du = u @ space.mass.matvec(phi).T, u @ a_psi.T
        # psi-coefficients of u^1 and bd u^2, the difference taken first
        self.start = np.stack((u[0], (u[1] - u[0]) / dt)) @ a_psi.T
        self.off_l2 = self.off_energy = 0.0
        if s < space.n_dof:
            psi = scipy.linalg.solve_triangular(self.lower, phi, lower=True)
            out_m, out_a = u - c @ phi, u - du @ psi
            self.off_l2 = l2_norms_sq(space, out_m)
            self.off_energy = _energy(l2_norms_sq(space, forward_diff(out_m, dt)),
                                      h10_norms_sq(space, 0.5 * (out_a[1:] + out_a[:-1])),
                                      params.c)
        du[:-1] += du[1:]  # the level averages d, formed in place
        du[:-1] *= 0.5
        tails_d = _tail_sums(du[:-1], sizes)
        self.d = np.ascontiguousarray(du[:-1, :sizes[-1]])
        del du  # before c's kept columns are copied
        self.c = c[:, :sizes[-1]].copy()
        tails_c = _tail_sums(c, sizes)
        c[:-1] -= c[1:]  # -bd c, formed in place: the same squares
        c[:-1] /= dt
        tails_bd = _tail_sums(c[:-1], sizes)
        self.tails = {r: (tails_c[r], tails_bd[r], tails_d[r]) for r in sizes}


def _tail_sums(x: np.ndarray, sizes) -> dict:
    """{r: per row, the sum of x[:, k]^2 over k >= r} for the ascending sizes,
    summed over the column ranges between them from the last column down."""
    tails, total, hi = {}, 0.0, x.shape[1]
    for r in reversed(sizes):
        total = total + np.einsum("ij,ij->i", x[:, r:hi], x[:, r:hi])
        tails[r], hi = total, r
    return tails


def _dist_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row, |a - b|^2."""
    diff = a - b
    return np.einsum("ij,ij->i", diff, diff)


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
    if r not in frame.tails:
        raise ValueError(f"the error frame is sized for r in {sorted(frame.tails)}, got {r}")
    tail_c, tail_bd, tail_d = frame.tails[r]
    c_head, l_rr = frame.c[:, :r], frame.lower[:r, :r]
    l2_sq = frame.off_l2 + (tail_c + _dist_sq(c_head, coeffs))
    avg_psi = 0.5 * (coeffs[1:] + coeffs[:-1]) @ l_rr
    e_energy = frame.off_energy + _energy(
        tail_bd + _dist_sq(forward_diff(c_head, dt), forward_diff(coeffs, dt)),
        tail_d + _dist_sq(frame.d[:, :r], avg_psi), c)
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
