"""Damped wave equation solver:  u_tt - c^2 u_xx + D u_t - G u_txx = 0
on (0, 1) with zero Dirichlet boundary, discretized by linear finite elements
in space and an implicit three-level scheme in time.

The scheme advances

    M dd(u^n) + c^2 A hat(u^n) + D M cd(u^n) + G A cd(u^n) = 0

where dd is the second difference quotient, hat the centered average
(u^{n+1} + 2u^n + u^{n-1})/4 and cd the centered difference
(u^{n+1} - u^{n-1})/(2 dt).  All three contributions to the left-hand-side
matrix are SPD/PSD, so the step system is SPD for every dt.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import diffops
from .fem import FemSpace, gauss_rule, l2_norms_sq, h10_norms_sq, l2_project

_TIME_GRID_TOL = 1e-12
_BLOCK_CELLS = 1 << 17  # cells per row block of a reduction: 1 MiB of float64
_BLOCK_ROWS_ALIGN = 16  # block row counts are multiples of this: see _row_blocks


@dataclass(frozen=True)
class WaveParams:
    """Wave speed and damping coefficients.

    D is viscous damping (uniform modal decay), G is Kelvin-Voigt damping
    (decay growing with squared mode frequency).
    """

    c: float = 1.0
    D: float = 0.0
    G: float = 0.0

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("wave speed c must be positive")
        if self.D < 0 or self.G < 0:
            raise ValueError("damping coefficients must be nonnegative")


def whole_steps(steps: float) -> bool:
    """Whether a finite step count steps = t / dt is a whole number up to round-off."""
    return abs(steps - round(steps)) <= 1e-9 * max(steps, 1.0)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_n = (n-1) dt for n = 1..N with (N-1) dt = T."""

    T: float
    dt: float
    N: int

    def __post_init__(self):
        if self.N < 3:
            raise ValueError("need at least 3 time levels")
        if abs((self.N - 1) * self.dt - self.T) > _TIME_GRID_TOL * max(self.T, 1.0):
            raise ValueError("(N-1)*dt must equal T")

    @classmethod
    def from_dt(cls, T: float, dt: float) -> "TimeGrid":
        if T <= 0 or dt <= 0:
            raise ValueError("T and dt must be positive")
        steps = T / dt
        n_steps = round(steps)
        if not whole_steps(steps):
            raise ValueError(f"dt={dt} does not divide T={T} into an integer number of steps")
        if n_steps < 2:
            raise ValueError(f"dt={dt} leaves fewer than two time steps in T={T}")
        return cls(T=T, dt=T / n_steps, N=n_steps + 1)

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.N)


@dataclass
class Trajectory:
    """Time-indexed FE coefficient vectors; states has shape (N, n_dof)."""

    space: FemSpace
    grid: TimeGrid
    states: np.ndarray

    def __post_init__(self):
        if self.states.shape != (self.grid.N, self.space.n_dof):
            raise ValueError("states shape must be (N, n_dof)")


def step_weights(params: WaveParams, dt: float):
    """The (mass, stiffness) weight pairs of lhs, b_cur and b_prev: each step
    matrix is w_m M + w_a A, for the FE scheme and its Galerkin ROM alike."""
    c2 = params.c * params.c
    lhs = (1.0 / dt**2 + params.D / (2.0 * dt), c2 / 4.0 + params.G / (2.0 * dt))
    b_cur = (2.0 / dt**2, -c2 / 2.0)
    b_prev = (-1.0 / dt**2 + params.D / (2.0 * dt), -c2 / 4.0 + params.G / (2.0 * dt))
    return lhs, b_cur, b_prev


def step_matrices(space: FemSpace, params: WaveParams, dt: float):
    """(lhs, b_cur, b_prev) with lhs u^{n+1} = b_cur u^n + b_prev u^{n-1}."""
    m, a = space.mass, space.stiffness
    return tuple(m.scaled_add(wm, a, wa) for wm, wa in step_weights(params, dt))


def initial_states(space: FemSpace, grid: TimeGrid, params: WaveParams,
                   u0: Callable, u00: Callable):
    """Second-order accurate pair (u^1, u^2).

    u^1 is the L2 projection of u0.  u^2 comes from a Taylor expansion in
    time with u_tt eliminated through the equation itself:

        M u^2 = M u^1 + dt M v - (dt^2/2) (c^2 A u^1 + G A v + D M v)

    with v the L2 projection of u00.
    """
    dt = grid.dt
    u1 = l2_project(u0, space)
    v = l2_project(u00, space)
    m, a = space.mass, space.stiffness
    rhs = (
        m.matvec(u1)
        + dt * m.matvec(v)
        - 0.5 * dt * dt * (params.c**2 * a.matvec(u1) + params.G * a.matvec(v) + params.D * m.matvec(v))
    )
    u2 = m.cholesky().solve(rhs)
    return u1, u2


def step_blocks(start: np.ndarray, n_levels: int, step: Callable, rows: int = 0):
    """Step the three-level recurrence x^n = step(x^{n-1}, x^{n-2}) from its
    first two levels start (2, n_cols) to level n_levels - 1 (0-based), and
    yield the levels in blocks (n, levels): levels is a stack of consecutive
    levels whose first is level n.

    The levels are stepped into one buffer of rows + 2 rows (by default,
    rows fills _BLOCK_CELLS cells).  Once it is full it is yielded, and its
    last two levels, all a step reads, move to its front: consecutive blocks
    share two levels, and each starts at a multiple of rows.  A block is
    overwritten once the next one is asked for.  rows >= n_levels - 2 makes
    one block of every level.  A step reads only the two levels before it,
    so every level is bitwise the same for any rows.
    """
    rows = min(rows or _block_rows(start.shape[1]), n_levels - 2)
    buf = np.empty((rows + 2, start.shape[1]))
    buf[:2] = start
    n, k = 0, 2  # the level of buf[0] and the rows filled
    for level in range(2, n_levels):
        if k == len(buf):
            yield n, buf
            buf[:2] = buf[-2:]
            n, k = level - 2, 2
        buf[k] = step(buf[k - 1], buf[k - 2])
        k += 1
    yield n, buf[:k]


def level_blocks(space: FemSpace, grid: TimeGrid, params: WaveParams,
                 u0: Callable, u00: Callable, rows: int = 0):
    """Step u^1..u^N and yield them in blocks (n, levels) of rows + 2
    consecutive states, as step_blocks does."""
    lhs, b_cur, b_prev = step_matrices(space, params, grid.dt)
    solver = lhs.cholesky()
    start = np.stack(initial_states(space, grid, params, u0, u00))
    yield from step_blocks(start, grid.N, lambda prev, prev2: solver.solve(
        b_cur.matvec(prev) + b_prev.matvec(prev2)), rows)


def solve(space: FemSpace, grid: TimeGrid, params: WaveParams,
          u0: Callable, u00: Callable) -> Trajectory:
    """Integrate the full trajectory u^1..u^N, as one block of levels."""
    (_, states), = level_blocks(space, grid, params, u0, u00, grid.N - 2)
    return Trajectory(space=space, grid=grid, states=states)


def final_state(space: FemSpace, grid: TimeGrid, params: WaveParams,
                u0: Callable, u00: Callable) -> np.ndarray:
    """The final state u^N alone, bitwise that of solve(...).states[-1],
    with one bounded block of levels in memory instead of N."""
    for _, levels in level_blocks(space, grid, params, u0, u00):
        pass
    return levels[-1].copy()


def _block_rows(n_cols: int) -> int:
    """The row count of a block of about _BLOCK_CELLS cells, a multiple of
    _BLOCK_ROWS_ALIGN."""
    return _BLOCK_ROWS_ALIGN * max(_BLOCK_CELLS // (_BLOCK_ROWS_ALIGN * n_cols), 1)


def _row_blocks(n_rows: int, n_cols: int):
    """The (lo, hi) row ranges that split a row-wise evaluation of an
    (n_rows, n_cols) array into blocks of about _BLOCK_CELLS cells, so that
    no temporary of the whole array is formed.

    Each row comes out bitwise as in one whole-array call.  Elementwise
    arithmetic and the einsum norms reduce each row on its own.  OpenBLAS's
    real gemv forms the rows of a product four at a time and sums the rows
    left over in another order, so every block starts at a multiple of its
    row count, itself a multiple of _BLOCK_ROWS_ALIGN: each row keeps its
    place in its group of four, also when up to four BLAS threads split a
    block's rows evenly.  A one-row product goes to BLAS dot, which sums in
    yet another order, so a last lone row joins the block before it.
    """
    starts = range(0, max(n_rows - 1, 1), _block_rows(n_cols))
    return zip(starts, [*starts[1:], n_rows])


def energy(bd_l2_sq, avg_h10_sq, c: float):
    """The discrete energy 0.5 ||bd u||^2_L2 + 0.5 c^2 ||avg u||^2_H10 from its
    two squared norms, of one level or of many."""
    return 0.5 * bd_l2_sq + 0.5 * c * c * avg_h10_sq


def energy_series(space: FemSpace, states: np.ndarray, dt: float, c: float) -> np.ndarray:
    """The discrete energy of a stack of two or more states (N, n_dof):

        E(u^n) = 0.5 ||(u^n - u^{n-1}) / dt||^2_L2 + 0.5 c^2 ||(u^n + u^{n-1}) / 2||^2_H10

    for n = 2..N.  Returns an array of length N-1; entry i corresponds to
    n = i + 2.  The stack is evaluated whole: EnergyBalance.add passes it
    one bounded block of levels.
    """
    bd_sq = l2_norms_sq(space, diffops.forward_diff(states, dt))
    return energy(bd_sq, h10_norms_sq(space, 0.5 * (states[1:] + states[:-1])), c)


class EnergyBalance:
    """The energy and its per-step balance of a trajectory on grid, reduced
    from consecutive blocks of its levels as they come, so that the
    trajectory need not be held.

    result() is (energy, rate, dissipation): energy is the energy_series
    of the trajectory (length N-1, n = 2..N); rate and dissipation have
    length N-2 with rate[i] = (E(u^{n+1}) - E(u^n)) / dt and
    dissipation[i] = D ||cd(u^n)||^2_L2 + G ||cd(u^n)||^2_H10 at n = i + 2.
    The scheme satisfies rate + dissipation = 0 exactly (up to round-off).
    Every entry is a reduction of its own levels, so it is bitwise the same
    for any blocks, a whole trajectory included.
    """

    def __init__(self, space: FemSpace, grid: TimeGrid, params: WaveParams):
        self.space, self.dt, self.params = space, grid.dt, params
        self.energy = np.empty(grid.N - 1)
        self.dissipation = np.empty(grid.N - 2)
        self.levels = 0  # the levels reduced so far

    def add(self, n: int, levels: np.ndarray):
        """Reduce a stack of three or more consecutive levels, the first of
        them level n (0-based); a block that overlaps the one before it
        evaluates the energy of their last two levels again, bitwise alike."""
        params, m = self.params, len(levels)
        self.energy[n:n + m - 1] = energy_series(self.space, levels, self.dt, params.c)
        cd = diffops.centered_diff(levels, self.dt)
        self.dissipation[n:n + m - 2] = (params.D * l2_norms_sq(self.space, cd)
                                         + params.G * h10_norms_sq(self.space, cd))
        self.levels = n + m

    def result(self):
        if self.levels != len(self.energy) + 1:
            raise RuntimeError(f"energy balance read after {self.levels} of "
                               f"{len(self.energy) + 1} levels")
        e = self.energy
        return e, (e[1:] - e[:-1]) / self.dt, self.dissipation


def energy_balance(traj: Trajectory, params: WaveParams):
    """The EnergyBalance result of a held trajectory, reduced over the
    _row_blocks of its levels, each block reading two states past its end."""
    balance = EnergyBalance(traj.space, traj.grid, params)
    for lo, hi in _row_blocks(traj.grid.N - 2, traj.space.n_dof):
        balance.add(lo, traj.states[lo:hi + 2])
    return balance.result()


# ---------------------------------------------------------------------------
# Analytic separation-of-variables series, for solver validation.
# ---------------------------------------------------------------------------

_SERIES_PANELS = 2000  # composite Gauss panels for sine coefficients
_DEGENERATE_TOL = 1e-12


@dataclass
class AnalyticSeriesSolution:
    """Truncated modal series for the damped wave equation.

    Mode k evolves as a_k exp(mu_plus t) + b_k exp(mu_minus t) times
    sin(pi k x), with mu_pm the two characteristic roots.  Both roots have
    nonpositive real part, so evaluation never overflows.  Critically damped
    modes (coincident roots) switch to the (a + b t) exp(mu t) limit form.
    """

    k_max: int
    mu_plus: np.ndarray = field(repr=False)
    mu_minus: np.ndarray = field(repr=False)
    coef_a: np.ndarray = field(repr=False)
    coef_b: np.ndarray = field(repr=False)
    degenerate: np.ndarray = field(repr=False)


def _sine_coefficients(fs, k_max: int) -> np.ndarray:
    """f_k = 2 * integral_0^1 f(x) sin(pi k x) dx for k = 1..k_max, one row
    per function f of fs, by the Gauss rule on _SERIES_PANELS cells.  Each
    block of the sine matrix is evaluated once and multiplied by each
    function's weights on its own, so each row is bitwise that of fs holding
    its function alone."""
    rules = [gauss_rule(f, _SERIES_PANELS) for f in fs]
    xq = rules[0][0].ravel()
    weighted = [(wq * fq).ravel() for _, wq, fq in rules]
    coef = np.empty((len(fs), k_max))
    for lo, hi in _row_blocks(k_max, len(xq)):
        sines = 2.0 * np.sin(np.pi * np.outer(np.arange(lo + 1, hi + 1), xq))
        for row, w in zip(coef, weighted):
            row[lo:hi] = sines @ w
    return coef


def analytic_series(params: WaveParams, u0: Callable, u00: Callable,
                    k_max: int = 200) -> AnalyticSeriesSolution:
    """Build the modal series solution for the given initial data.

    Only one damping mechanism may be active (D = 0 or G = 0); with both
    zero the series degenerates to the undamped oscillatory solution.
    """
    if params.D > 0 and params.G > 0:
        raise ValueError("series solution requires D = 0 or G = 0")
    k = np.arange(1, k_max + 1)
    lam = np.pi * k
    if params.G > 0:
        sigma = 0.5 * params.G * lam**2
    else:
        sigma = np.full(k_max, 0.5 * params.D)
    disc = sigma**2 - (params.c * lam) ** 2
    root = np.sqrt(disc.astype(complex))
    mu_plus = -sigma + root
    mu_minus = -sigma - root

    f0, f00 = _sine_coefficients((u0, u00), k_max)

    degenerate = np.abs(root) < _DEGENERATE_TOL
    coef_a = np.zeros(k_max, dtype=complex)
    coef_b = np.zeros(k_max, dtype=complex)
    reg = ~degenerate
    # a + b = f0,  mu+ a + mu- b = f00
    denom = mu_plus[reg] - mu_minus[reg]
    coef_a[reg] = (f00[reg] - mu_minus[reg] * f0[reg]) / denom
    coef_b[reg] = (mu_plus[reg] * f0[reg] - f00[reg]) / denom
    # limit form (a + b t) exp(-sigma t): a = f0, b = f00 + sigma f0
    coef_a[degenerate] = f0[degenerate]
    coef_b[degenerate] = f00[degenerate] + sigma[degenerate] * f0[degenerate]

    return AnalyticSeriesSolution(
        k_max=k_max, mu_plus=mu_plus, mu_minus=mu_minus,
        coef_a=coef_a, coef_b=coef_b, degenerate=degenerate,
    )


def analytic_eval(sol: AnalyticSeriesSolution, x: np.ndarray, t: float) -> np.ndarray:
    """Evaluate the truncated series at positions x (flattened) and time t,
    over the _row_blocks of the (nodes, k_max) sine matrix."""
    x = np.ravel(np.asarray(x, dtype=float))
    amp = sol.coef_a * np.exp(sol.mu_plus * t) + sol.coef_b * np.exp(sol.mu_minus * t)
    if np.any(sol.degenerate):
        d = sol.degenerate
        sigma = -sol.mu_plus[d].real
        amp[d] = (sol.coef_a[d] + sol.coef_b[d] * t) * np.exp(-sigma * t)
    lam = np.pi * np.arange(1, sol.k_max + 1)
    values = np.empty(len(x), dtype=complex)
    for lo, hi in _row_blocks(len(x), sol.k_max):
        values[lo:hi] = np.sin(np.outer(x[lo:hi], lam)) @ amp
    imag_scale = float(np.max(np.abs(values.imag), initial=0.0))
    real_scale = float(np.max(np.abs(values.real), initial=0.0))
    if imag_scale > 1e-12 * max(real_scale, 1.0):
        raise ArithmeticError("series evaluation produced a non-real result")
    return values.real


def default_u0(x: np.ndarray) -> np.ndarray:
    """Standard initial displacement: two sine carriers with rough envelopes,
    rich enough in high frequencies to make low-rank approximation hard."""
    return (np.exp(x) + x**2 - np.cos(np.pi * x)) * np.sin(np.pi * x) + (
        np.exp(x**2) + x**2 - x
    ) * np.sin(5 * np.pi * x)


def default_u00(x: np.ndarray) -> np.ndarray:
    """Standard initial velocity: zero."""
    return np.zeros_like(np.asarray(x, dtype=float))


def sine_mode(x: np.ndarray) -> np.ndarray:
    """The first eigenmode sin(pi x), for clean convergence orders."""
    return np.sin(np.pi * np.asarray(x, dtype=float))


# initial-condition names accepted for RunConfig.u0 and RunConfig.u00
INITIAL_CONDITIONS = {"default": default_u0, "sine": sine_mode, "zero": default_u00}
