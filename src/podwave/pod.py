"""POD bases from snapshot trajectories, exact data-error formulas, and
pointwise bound checks.

Three data-set conventions are supported for a trajectory u^1..u^N:

    standard   w^j = u^j                weights  dt, ..., dt
    dq1        u^1 and all forward
               difference quotients     weights  1, dt, ..., dt
    ddq        u^1, du^1 and all second
               difference quotients     weights  1, 1, dt, ..., dt

Each data vector is linear in at most three consecutive snapshots, so a
data set is a view of its trajectory and PodDataSet.rows forms any row
block of its vectors; the basis, the data errors and the bound checks read
the vectors in the row blocks of wave._row_blocks and never hold them all.

The POD space is L2: modes are M-orthonormal and solve the weighted
eigenproblem of the data Gram operator.  With M = R^T R this is the SVD of
B = R W sqrt(Gamma): eigenvalues are squared singular values and modes are
R^{-1} times the left singular vectors.  thin_svd folds the row blocks of
B^T into one n_dof x n_dof triangle, an exact blocked QR factorisation, and
takes the SVD of the triangle's rows that the data fills; every mode with
sigma > 0 is kept.  The SVD is of B, not of B B^T: a
backward-stable SVD moves each sigma_k by about eps * sigma_1, so
lambda_k = sigma_k^2 is accurate to about eps * sigma_1 * sigma_k, where
B B^T would give eps * sigma_1^2; the deep H1_0 tails of the error formulas
need the smaller error.

The paper states each data-error identity and snapshot bound in L2 and in
H1_0; every one here returns the pair, in the order of NORMS, from one
residual v - P_r v per (basis, r).
"""

from dataclasses import dataclass, field

import numpy as np

from . import diffops
from .fem import FemSpace, l2_norms_sq, h10_norms_sq
from .linalg import LinAlgFailure, cholesky, solve_triangular, thin_svd
from .wave import TimeGrid, Trajectory, _row_blocks

METHODS = ("standard", "dq1", "ddq")

NORMS = ("l2", "h10")  # the order of every (L2, H1_0) pair returned here
PROJECTOR_L2 = "l2"
PROJECTOR_RITZ = "ritz"


@dataclass
class PodDataSet:
    """The weighted data vectors feeding the POD eigenproblem, as a view of
    the snapshots: each data vector is linear in at most three consecutive
    snapshots, so rows forms any row block of them and the data set is
    never held whole."""

    states: np.ndarray   # (N, n_dof) the snapshots u^1..u^N
    weights: np.ndarray  # (N,) one per data vector
    method: str
    space: FemSpace
    grid: TimeGrid
    # the snapshot matrix (n_dof, N): a view of states
    columns: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.columns = self.states.T

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """The data vectors lo..hi-1 (0-based), a stack (hi - lo, n_dof)
        read from the snapshots max(lo - 2, 0)..hi-1, each bitwise the
        same for any lo and hi; for standard data a view of the states."""
        u, dt = self.states, self.grid.dt
        order = _DIFFERENCE_ORDER[self.method]
        first = min(max(lo, order), hi)  # the first row that is a quotient of that order
        body = _QUOTIENTS[order](u[first - order:hi], dt) if first < hi else u[:0]
        if lo == first:
            return body
        # the leading rows: u^1, then for ddq its first difference quotient
        lead = np.concatenate((u[:1], diffops.forward_diff(u[:2], dt)))
        return np.concatenate((lead[lo:first], body))


# per method, the order of the difference quotient of every non-leading data vector
_DIFFERENCE_ORDER = {"standard": 0, "dq1": 1, "ddq": 2}
_QUOTIENTS = (lambda u, dt: u, diffops.forward_diff, diffops.second_diff)


@dataclass
class PodBasis:
    """M-orthonormal POD modes with their eigenvalues, sorted descending."""

    modes: np.ndarray        # (s, n_dof); modes[k] is mode k
    eigenvalues: np.ndarray  # (s,)
    method: str
    space: FemSpace
    grid: TimeGrid

    @property
    def rank(self) -> int:
        return self.eigenvalues.shape[0]


def build_dataset(traj: Trajectory, method: str) -> PodDataSet:
    """The POD data set of traj for the given convention: its weights and a
    view of its snapshots, from which PodDataSet.rows forms the vectors."""
    if method not in METHODS:
        raise ValueError(f"unknown POD method {method!r}; expected one of {METHODS}")
    weights = np.full(traj.grid.N, traj.grid.dt)
    weights[:_DIFFERENCE_ORDER[method]] = 1.0
    return PodDataSet(states=traj.states, weights=weights, method=method,
                      space=traj.space, grid=traj.grid)


def compute_basis(data: PodDataSet) -> PodBasis:
    """Solve the weighted POD eigenproblem in the L2 geometry.

    Keeps every mode whose singular value is positive, the whole positive
    spectrum: the exact data-error formulas and the ROM bound denominators
    sum the whole eigenvalue tail.  The rows of
    B^T = W^(1/2) (data) R^T reach the SVD one row block at a time,
    column-major, as thin_svd folds them.
    """
    space = data.space
    chol = space.mass.cholesky()
    scale = np.sqrt(data.weights)[:, None]
    blocks = (chol.r_matvec(np.multiply(data.rows(lo, hi), scale[lo:hi], order="F"))
              for lo, hi in _row_blocks(len(scale), space.n_dof))
    u, sing = thin_svd(data.states, blocks)
    if sing[0] <= 0.0:
        raise ValueError("POD data is identically zero")
    s = int(np.sum(sing > 0.0))
    modes = chol.r_solve(u[:s])
    _fix_mode_signs(modes)
    return PodBasis(modes=modes, eigenvalues=sing[:s] ** 2,
                    method=data.method, space=space, grid=data.grid)


def _fix_mode_signs(modes: np.ndarray):
    """Make the first nonzero coefficient of each mode positive, in place;
    a coefficient is nonzero above 1e-12 times the largest of its mode."""
    mags = np.abs(modes)
    first = np.argmax(mags > 1e-12 * mags.max(axis=1, keepdims=True), axis=1)
    modes[modes[np.arange(len(modes)), first] < 0] *= -1.0


def pod_basis(traj: Trajectory, method: str) -> PodBasis:
    """Convenience: build_dataset followed by compute_basis."""
    return compute_basis(build_dataset(traj, method))


def project_l2(basis: PodBasis, r: int, v: np.ndarray) -> np.ndarray:
    """L2-orthogonal projection onto the span of the first r modes, of a
    vector (n_dof,) or of each vector of a stack (k, n_dof)."""
    check_rank(basis, r)
    phi = basis.modes[:r]
    return np.inner(v, basis.space.mass.matvec(phi)) @ phi


def stiffness_factor(basis: PodBasis, r: int):
    """(L, A Phi_r) for the first r modes Phi_r, with Phi_r A Phi_r^T = L L^T.
    The rows of L^{-1} Phi_r are an H1_0-orthonormal basis of span Phi_r, and
    L over r modes is the leading block of L over more."""
    check_rank(basis, r)
    phi = basis.modes[:r]
    a_phi = basis.space.stiffness.matvec(phi)
    try:
        return cholesky(np.inner(a_phi, phi)), a_phi
    except LinAlgFailure as exc:
        raise LinAlgFailure(f"reduced stiffness is not SPD: {exc}") from exc


def project_ritz(basis: PodBasis, r: int, v: np.ndarray) -> np.ndarray:
    """Ritz (H1_0-orthogonal) projection onto the span of the first r modes,
    of a vector (n_dof,) or of each vector of a stack (k, n_dof)."""
    lower, _ = stiffness_factor(basis, r)
    # the rows of psi are an H1_0-orthonormal basis of the same span
    psi = solve_triangular(lower, basis.modes[:r], lower=True)
    return np.inner(v, basis.space.stiffness.matvec(psi)) @ psi


_PROJECTORS = {PROJECTOR_L2: project_l2, PROJECTOR_RITZ: project_ritz}


def check_rank(basis: PodBasis, r: int):
    """ValueError unless 1 <= r <= basis.rank."""
    if not 1 <= r <= basis.rank:
        raise ValueError(f"r must be in [1, {basis.rank}], got {r}")


def _residual_norms_sq(basis: PodBasis, r: int, v: np.ndarray, projector: str):
    """The squared L2 and H1_0 norms of the residuals v - P_r v of a stack v."""
    residual = v - _PROJECTORS[projector](basis, r, v)
    return l2_norms_sq(basis.space, residual), h10_norms_sq(basis.space, residual)


def _blocked_residual_norms_sq(basis: PodBasis, r: int, n_rows: int, rows, projector: str):
    """_residual_norms_sq (2, n_rows) of the stack whose rows lo..hi-1 are
    rows(lo, hi), evaluated over its _row_blocks: no residual of the whole
    stack is formed, and each row's norms are bitwise those of one call."""
    norms = np.empty((len(NORMS), n_rows))
    for lo, hi in _row_blocks(n_rows, basis.space.n_dof):
        norms[:, lo:hi] = _residual_norms_sq(basis, r, rows(lo, hi), projector)
    return norms


def data_error_actual(data: PodDataSet, basis: PodBasis, r: int,
                      projector: str = PROJECTOR_L2):
    """The weighted sums of squared projection errors over a data set, in
    the norms of NORMS; over the basis's own data set they equal
    data_error_formula."""
    norms = _blocked_residual_norms_sq(basis, r, len(data.weights), data.rows, projector)
    return tuple(float(np.dot(data.weights, errs)) for errs in norms)


def data_error_formula(basis: PodBasis, r: int, projector: str = PROJECTOR_L2):
    """The eigenvalue tails equal to data_error_actual, in the norms of NORMS:
    sum_{k>r} lambda_k ||phi_k - P phi_k||^2, where the L2-orthogonal
    projector leaves each tail mode whole, of L2 norm 1."""
    check_rank(basis, r)
    tail, tail_modes = basis.eigenvalues[r:], basis.modes[r:]
    if projector == PROJECTOR_L2:
        return float(np.sum(tail)), float(np.dot(tail, h10_norms_sq(basis.space, tail_modes)))
    return tuple(float(np.dot(tail, m))
                 for m in _residual_norms_sq(basis, r, tail_modes, projector))


# the constant of each snapshot bound, by (POD method, statistic), of the final time T
_BOUND_CONSTANTS = {
    ("dq1", "max"): lambda T: 2.0 * max(T, 1.0),
    ("ddq", "max"): lambda T: 3.0 * max(T**3, 1.0),
    ("dq1", "sum"): lambda T: 4.0 * max(T**2, T),
    ("ddq", "sum"): lambda T: 6.0 * max(T**4, T),
}


@dataclass(frozen=True)
class BoundCheck:
    lhs: float
    rhs: float


def pointwise_bound_check(traj: Trajectory, basis: PodBasis, r: int,
                          projector: str = PROJECTOR_L2, statistic: str = "max"):
    """Both sides of a snapshot error bound, in each norm of NORMS.

    lhs is max_n (statistic="max") or sum_n dt (statistic="sum") of the
    squared projection errors of the snapshots u^n; rhs is the matching
    constant times the eigenvalue-tail formula for the basis's data set.
    Holds with ratio <= 1 for dq1 and ddq bases.
    """
    if (basis.method, statistic) not in _BOUND_CONSTANTS:
        raise ValueError(f"no snapshot bound for {basis.method} data and statistic "
                         f"{statistic!r}: dq1/ddq data, max or sum")
    c = _BOUND_CONSTANTS[basis.method, statistic](basis.grid.T)
    norms = _blocked_residual_norms_sq(basis, r, traj.grid.N,
                                       lambda lo, hi: traj.states[lo:hi], projector)
    lhs = [float(np.max(e)) if statistic == "max" else float(traj.grid.dt * np.sum(e))
           for e in norms]
    return tuple(BoundCheck(lhs=side, rhs=c * formula)
                 for side, formula in zip(lhs, data_error_formula(basis, r, projector)))
