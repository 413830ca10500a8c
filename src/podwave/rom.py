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

A study reports many ROMs on one trajectory: every size r of a basis, or
every training window x method.  build_rom makes one RomSystem of such runs,
in the eigenbasis of each run's S_r; solve_rom advances the eigen-coordinates
of every run as the columns of one (N, sum r) array, and the recurrence is
elementwise, so each run's coefficients are bitwise those of a system of its
own.  ErrorFrame(traj, basis, params, sizes) sums the discarded modes' squares
of c, bd c and d per level once for every size, over the column ranges
between the sizes from the last column down, and keeps the columns of c and d
below the largest size only.  The ranges are views and bd c overwrites c, so
the sums form no (N, s) temporary, and a report costs O(N r).
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .diffops import forward_diff
from .fem import l2_norms_sq, h10_norms_sq
from .pod import PodBasis, check_rank, stiffness_factor
from .wave import TimeGrid, Trajectory, WaveParams, energy, step_weights

_REDUCED_MASS_TOL = 1e-10
_RATIO_FLOOR = 1e-14


@dataclass
class RomSystem:
    """ROM runs on the grid of one trajectory and one WaveParams, from
    build_rom, in the eigenbasis S_r = Q diag(lam) Q^T of each run's reduced
    stiffness: r is their total size, lam and the starting eigen-coordinates
    (a^1 Q, a^2 Q) are the runs' side by side, and q holds each run's Q."""

    r: int
    params: WaveParams
    grid: TimeGrid
    lam: np.ndarray    # (r,)
    start: np.ndarray  # (2, r)
    q: tuple           # per run, (r_i, r_i)


def build_rom(runs, traj: Trajectory, params: WaveParams) -> RomSystem:
    """The reduced systems of the (basis, r) pairs in runs, on the space and
    grid of traj; the initial coefficients of each are the L2 projections of
    its first two states."""
    space = traj.space
    lam, start, q = [], [], []
    for basis, r in runs:
        check_rank(basis, r)
        phi = basis.modes[:r]
        m_phi = space.mass.matvec(phi)
        if np.max(np.abs(np.inner(m_phi, phi) - np.eye(r))) > _REDUCED_MASS_TOL:
            raise ValueError("modes are not orthonormal in the L2 inner product")
        s_r = np.inner(space.stiffness.matvec(phi), phi)
        lam_r, q_r = np.linalg.eigh(0.5 * (s_r + s_r.T))
        lam.append(lam_r)
        start.append(np.stack(((m_phi @ traj.states[0]) @ q_r, (m_phi @ traj.states[1]) @ q_r)))
        q.append(q_r)
    lam = np.concatenate(lam)
    return RomSystem(r=lam.size, params=params, grid=traj.grid, lam=lam,
                     start=np.hstack(start), q=tuple(q))


def solve_rom(romsys: RomSystem) -> list:
    """Integrate the reduced systems; returns the coefficients a (N, r_i) of
    each run, in run order, the ROM state at level n being a^n Phi_{r_i}.

    The coordinates z = a Q decouple: each FE step matrix w_m M + w_a A
    becomes w_m + w_a lam, and mode k follows
    z^n = b_cur[k] z^{n-1} + b_prev[k] z^{n-2}, with no linear solve.  One
    loop advances the z of every run.
    """
    weights = step_weights(romsys.params, romsys.grid.dt)
    lhs, b_cur, b_prev = (wm + wa * romsys.lam for wm, wa in weights)
    b_cur, b_prev = b_cur / lhs, b_prev / lhs
    z = np.empty((romsys.grid.N, romsys.r))
    z[:2] = romsys.start
    for n in range(2, romsys.grid.N):
        z[n] = b_cur * z[n - 1] + b_prev * z[n - 2]
    blocks = np.split(z, np.cumsum([len(q) for q in romsys.q])[:-1], axis=1)
    for block, q in zip(blocks, romsys.q):
        block[...] = block @ q.T
    return blocks


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
            self.off_energy = energy(l2_norms_sq(space, forward_diff(out_m, dt)),
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
    statements (max_l2_sq = max_n ||e^n||^2).  A ratio is nan when its
    denominator falls below round-off scale."""

    max_l2_sq: float
    max_energy: float
    ratio_energy: float
    ratio_pointwise: float


def error_report(frame: ErrorFrame, coeffs: np.ndarray) -> RomErrorReport:
    """Compare a ROM run coeffs (N, r) on the first r modes of the frame's
    basis against the frame's trajectory, and evaluate the error-bound
    quotients.

    The error splits as e^n = eta^n - phi^n with eta^n = u_h^n - R_r u_h^n
    (data projection error) and phi^n = u_r^n - R_r u_h^n (discretization
    error); the bound denominators use phi^1, phi^2 and the Ritz defects of
    the discarded modes.  Ratios are reported as nan when the denominator
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
    e_energy = frame.off_energy + energy(
        tail_bd + _dist_sq(forward_diff(c_head, dt), forward_diff(coeffs, dt)),
        tail_d + _dist_sq(frame.d[:, :r], avg_psi), c)

    # R_r v = x Phi_r with x L_rr = the first r psi-coefficients of v: of u^1,
    # bd u^2 and the discarded modes, whose psi-coefficients are rows of L
    tail, l_tail = basis.eigenvalues[r:], frame.lower[r:]
    x = scipy.linalg.solve_triangular(
        l_rr, np.hstack((frame.start[:, :r].T, l_tail[:, :r].T)), lower=True, trans="T")
    phi1, bd_phi = coeffs[0] - x[:, 0], (coeffs[1] - coeffs[0]) / dt - x[:, 1]
    phi1_l2_sq = float(phi1 @ phi1)
    avg_phi = (phi1 + 0.5 * dt * bd_phi) @ l_rr
    e_phi2 = float(energy(bd_phi @ bd_phi, avg_phi @ avg_phi, c))

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
    ratio_energy = max_energy / energy_denom if energy_denom > _RATIO_FLOOR * scale else np.nan
    ratio_pointwise = max_l2_sq / pointwise_denom if pointwise_denom > _RATIO_FLOOR * scale else np.nan

    return RomErrorReport(
        max_l2_sq=max_l2_sq, max_energy=max_energy,
        ratio_energy=ratio_energy, ratio_pointwise=ratio_pointwise,
    )
