"""Reference helpers for the tests: scalar inner products, dense matrices,
time averages, one time step, a whole stepping loop, the energy at one
level and the thin SVD on a copy, each written out on its own so that the
vectorised program paths can be checked against it."""

import numpy as np
import scipy.linalg

from podwave.wave import initial_states, step_matrices


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


def thin_svd_of_a_copy(b: np.ndarray):
    """(U^T, s) of the (n, k) matrix b^T for a stack b (k, n), left intact:
    for k >= 2n the SVD of the triangle of scipy's RQ factorisation of b^T,
    otherwise the SVD of b^T itself."""
    k, n = b.shape
    a = scipy.linalg.rq(b.T, mode="r")[:, k - n:] if k >= 2 * n else b.T
    u, s, _ = scipy.linalg.svd(a, full_matrices=False)
    return u.T, s
