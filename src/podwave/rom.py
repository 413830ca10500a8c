"""Galerkin reduced-order model of the damped wave equation on a POD basis,
plus its errors against the full finite element trajectory.

Because the modes are M-orthonormal the reduced mass matrix is the identity
and the reduced system mirrors the full scheme with S_r = Phi A Phi^T in
place of the stiffness matrix.  Every step matrix is then a polynomial in
S_r, so the scheme decouples in the eigenbasis of S_r.  A ROM run is its
coefficients a^n, r per level n: the ROM state at level n is a^n Phi_r.

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
of every run side by side in one buffer of a block of levels and yields each
block's coefficients, run by run.  The recurrence is elementwise, so each
run's eigen-coordinates are bitwise those of a system of its own; its
coefficients, a block of them times Q^T, are too where the blocks are the
same (one block of every level), and agree to round-off where the block
size of the stack, set by sum r + n_dof, splits the levels elsewhere.

Each report is a maximum over levels, so error_reports reduces the blocks as
they come, the one pass over the levels of a report.  For each block it
projects the same FE levels onto all modes, c and d and the off-span terms,
sums the discarded modes' squares of c, bd c and d once for every size, over
the column ranges between the sizes from the last column down, and folds
each run's ||e^n||_M^2 and error energy into its running maxima.  No (N, s)
or (N, sum r) array is ever formed: ErrorFrame(traj, basis, params) holds
only the per-basis constants, and solve_rom sizes a block by r + n_dof, so
that the coordinates and the FE levels read beside them stay near one block
of cells.
"""

from dataclasses import dataclass

import numpy as np

from .diffops import forward_diff
from .fem import l2_norms_sq, h10_norms_sq
from .linalg import solve_triangular
from .pod import PodBasis, check_rank, stiffness_factor
from .wave import (TimeGrid, Trajectory, WaveParams, _block_rows, energy, step_blocks,
                   step_weights)

_REDUCED_MASS_TOL = 1e-10
_RATIO_FLOOR = 1e-14


@dataclass
class RomSystem:
    """ROM runs on the grid of one trajectory and one WaveParams, from
    build_rom, in the eigenbasis S_r = Q diag(lam) Q^T of each run's reduced
    stiffness: r is their total size, n_dof that of the trajectory's FE
    space, lam and the starting eigen-coordinates (a^1 Q, a^2 Q) are the
    runs' side by side, and q holds each run's Q."""

    r: int
    n_dof: int
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
    return RomSystem(r=lam.size, n_dof=space.n_dof, params=params, grid=traj.grid, lam=lam,
                     start=np.hstack(start), q=tuple(q))


def solve_rom(romsys: RomSystem):
    """Integrate the reduced systems and yield their coefficients in blocks
    (n, coeffs) of levels: coeffs lists each run's (levels, r_i) block, in
    run order, whose first row is level n (0-based), the ROM state at level
    n + i being coeffs[j][i] Phi_{r_j}.  The blocks are those of
    wave.step_blocks, two levels shared with the next block, of as many
    levels as fill about 1 MiB with r + n_dof columns: the coordinates and
    the FE states compared with them; a grid of fewer levels is one block.

    The coordinates z = a Q decouple: each FE step matrix w_m M + w_a A
    becomes w_m + w_a lam, and mode k follows
    z^n = b_cur[k] z^{n-1} + b_prev[k] z^{n-2}, with no linear solve.  One
    loop advances the z of every run.
    """
    weights = step_weights(romsys.params, romsys.grid.dt)
    lhs, b_cur, b_prev = (wm + wa * romsys.lam for wm, wa in weights)
    b_cur, b_prev = b_cur / lhs, b_prev / lhs
    ends = np.cumsum([len(q) for q in romsys.q])
    for n, z in step_blocks(romsys.start, romsys.grid.N,
                            lambda prev, prev2: b_cur * prev + b_prev * prev2,
                            _block_rows(romsys.r + romsys.n_dof)):
        yield n, [z[:, end - len(q):end] @ q.T for end, q in zip(ends, romsys.q)]


class ErrorFrame:
    """The constants of the error reports of ROMs on a POD basis against an
    FE trajectory: L, M phi and A psi over all s modes, psi itself when the
    basis has fewer modes than unknowns (s < n_dof), and the
    psi-coefficients of u^1 and bd u^2.
    The levels are projected in error_reports, block by block."""

    def __init__(self, traj: Trajectory, basis: PodBasis, params: WaveParams):
        space, dt, u, phi, s = traj.space, traj.grid.dt, traj.states, basis.modes, basis.rank
        self.traj, self.basis, self.params, self.dt = traj, basis, params, dt
        self.lower, a_psi = stiffness_factor(basis, s)  # (s, s) L and A phi
        self.a_psi = solve_triangular(self.lower, a_psi, lower=True)
        self.m_phi = space.mass.matvec(phi)
        self.psi = (solve_triangular(self.lower, phi, lower=True)
                    if s < space.n_dof else None)
        # psi-coefficients of u^1 and bd u^2, the difference taken first
        self.start = np.stack((u[0], (u[1] - u[0]) / dt)) @ self.a_psi.T


def _block_maxima(frame: ErrorFrame, levels: np.ndarray, coeffs) -> np.ndarray:
    """Per ROM run (runs, 2), the maxima of ||e^j||_M^2 over the FE levels
    of a block and of the error energy over its level pairs, from the runs'
    coefficients coeffs of those levels."""
    space, dt, sizes = frame.traj.space, frame.dt, sorted({a.shape[1] for a in coeffs})
    c, d = levels @ frame.m_phi.T, levels @ frame.a_psi.T
    off_l2 = off_energy = 0.0
    if frame.psi is not None:  # the parts of the levels outside span Phi
        out_m, out_a = levels - c @ frame.basis.modes, levels - d @ frame.psi
        off_l2 = l2_norms_sq(space, out_m)
        off_energy = energy(l2_norms_sq(space, forward_diff(out_m, dt)),
                            h10_norms_sq(space, 0.5 * (out_a[1:] + out_a[:-1])), frame.params.c)
    maxima, tails = np.empty((len(coeffs), 2)), _tail_sums(c, sizes)
    for m, a in zip(maxima, coeffs):
        m[0] = np.max(off_l2 + (tails[a.shape[1]] + _dist_sq(c[:, :a.shape[1]], a)))
    c[:-1] -= c[1:]  # -bd c, formed in place: the same squares, against -bd a
    c[:-1] /= dt
    d[:-1] += d[1:]  # the level averages d, formed in place
    d[:-1] *= 0.5
    tails_bd, tails_d = _tail_sums(c[:-1], sizes), _tail_sums(d[:-1], sizes)
    for m, a in zip(maxima, coeffs):
        r = a.shape[1]
        avg_psi = 0.5 * (a[1:] + a[:-1]) @ frame.lower[:r, :r]
        m[1] = np.max(off_energy + energy(
            tails_bd[r] + _dist_sq(c[:-1, :r], (a[:-1] - a[1:]) / dt),
            tails_d[r] + _dist_sq(d[:-1, :r], avg_psi), frame.params.c))
    return maxima


def _tail_sums(x: np.ndarray, sizes) -> dict:
    """Per size r of the ascending sizes, the row sums of x[:, k]^2 over
    k >= r, summed over the column ranges between the sizes from the last
    column down."""
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


def error_reports(frame: ErrorFrame, blocks) -> list:
    """The error_report of each ROM run on the frame's basis and trajectory,
    from the runs' level blocks (n, coeffs) as solve_rom yields them.

    This is the one pass over the levels: each block's FE levels are
    projected onto the modes as it comes and reduced with it, per run, into
    the running maxima of ||e^n||_M^2 and of the error energy; a^1, a^2 come
    from the first block.  A block's every level and level pair counts; the
    two levels it shares with the next block count twice, which a maximum
    ignores.
    """
    states, maxima, end = frame.traj.states, None, 0
    for n, coeffs in blocks:
        end = n + len(coeffs[0])
        if end > len(states):
            break
        if maxima is None:
            maxima, starts = np.full((len(coeffs), 2), -np.inf), [a[:2].copy() for a in coeffs]
        maxima = np.maximum(maxima, _block_maxima(frame, states[n:end], coeffs))
    if end != len(states):
        raise ValueError("the ROM run and the frame live on different grids")
    return [error_report(frame, start, *m) for start, m in zip(starts, maxima)]


def error_report(frame: ErrorFrame, start: np.ndarray, max_l2_sq: float,
                 max_energy: float) -> RomErrorReport:
    """The report of a ROM run on the first r modes of the frame's basis,
    from its coefficients a^1, a^2 (start, (2, r)) and the maxima over
    levels of its ||e^n||_M^2 and error energy, with the error-bound
    quotients.

    The error splits as e^n = eta^n - phi^n with eta^n = u_h^n - R_r u_h^n
    (data projection error) and phi^n = u_r^n - R_r u_h^n (discretization
    error); the bound denominators use phi^1, phi^2 and the Ritz defects of
    the discarded modes.  Ratios are reported as nan when the denominator
    falls below round-off scale.
    """
    basis, dt, c, r = frame.basis, frame.dt, frame.params.c, start.shape[1]
    l_rr = frame.lower[:r, :r]

    # R_r v = x Phi_r with x L_rr = the first r psi-coefficients of v: of u^1,
    # bd u^2 and the discarded modes, whose psi-coefficients are rows of L
    tail, l_tail = basis.eigenvalues[r:], frame.lower[r:]
    x = solve_triangular(l_rr, np.hstack((frame.start[:, :r].T, l_tail[:, :r].T)),
                         lower=True, trans=True)
    phi1, bd_phi = start[0] - x[:, 0], (start[1] - start[0]) / dt - x[:, 1]
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
    max_energy, max_l2_sq = float(max_energy), float(max_l2_sq)
    scale = max(basis.eigenvalues[0], 1.0)
    ratio_energy = max_energy / energy_denom if energy_denom > _RATIO_FLOOR * scale else np.nan
    ratio_pointwise = max_l2_sq / pointwise_denom if pointwise_denom > _RATIO_FLOOR * scale else np.nan

    return RomErrorReport(
        max_l2_sq=max_l2_sq, max_energy=max_energy,
        ratio_energy=ratio_energy, ratio_pointwise=ratio_pointwise,
    )
