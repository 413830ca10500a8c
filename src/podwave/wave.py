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
from .fem import FemSpace, l2_norms_sq, h10_norms_sq, l2_project

_TIME_GRID_TOL = 1e-12


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


def _integrate(space: FemSpace, grid: TimeGrid, params: WaveParams,
               u0: Callable, u00: Callable, buf: np.ndarray) -> np.ndarray:
    """Step u^1..u^N, writing level n (0-based) into row n % len(buf).

    A buffer of N rows keeps every level; one of two rows keeps the last
    two, which is all the three-level scheme reads.  Returns buf.
    """
    lhs, b_cur, b_prev = step_matrices(space, params, grid.dt)
    solver = lhs.cholesky()
    k = len(buf)
    buf[0], buf[1] = initial_states(space, grid, params, u0, u00)
    for n in range(2, grid.N):
        rhs = b_cur.matvec(buf[(n - 1) % k]) + b_prev.matvec(buf[(n - 2) % k])
        buf[n % k] = solver.solve(rhs)
    return buf


def solve(space: FemSpace, grid: TimeGrid, params: WaveParams,
          u0: Callable, u00: Callable) -> Trajectory:
    """Integrate the full trajectory u^1..u^N."""
    states = _integrate(space, grid, params, u0, u00, np.empty((grid.N, space.n_dof)))
    return Trajectory(space=space, grid=grid, states=states)


def final_state(space: FemSpace, grid: TimeGrid, params: WaveParams,
                u0: Callable, u00: Callable) -> np.ndarray:
    """The final state u^N alone, bitwise that of solve(...).states[-1],
    with two time levels in memory instead of N."""
    buf = _integrate(space, grid, params, u0, u00, np.empty((2, space.n_dof)))
    return buf[(grid.N - 1) % 2]


def energy(bd_l2_sq, avg_h10_sq, c: float):
    """The discrete energy 0.5 ||bd u||^2_L2 + 0.5 c^2 ||avg u||^2_H10 from its
    two squared norms, of one level or of many."""
    return 0.5 * bd_l2_sq + 0.5 * c * c * avg_h10_sq


def energy_series(space: FemSpace, states: np.ndarray, dt: float, c: float) -> np.ndarray:
    """The discrete energy of a stack of two or more states (N, n_dof):

        E(u^n) = 0.5 ||(u^n - u^{n-1}) / dt||^2_L2 + 0.5 c^2 ||(u^n + u^{n-1}) / 2||^2_H10

    for n = 2..N.  Returns an array of length N-1; entry i corresponds to
    n = i + 2.
    """
    bd = diffops.forward_diff(states, dt)
    avg = 0.5 * (states[1:] + states[:-1])
    return energy(l2_norms_sq(space, bd), h10_norms_sq(space, avg), c)


def energy_balance(traj: Trajectory, params: WaveParams):
    """The energy and its per-step balance.

    Returns (energy, rate, dissipation): energy is energy_series of the
    trajectory (length N-1, n = 2..N); rate and dissipation have length N-2
    with rate[i] = (E(u^{n+1}) - E(u^n)) / dt and
    dissipation[i] = D ||cd(u^n)||^2_L2 + G ||cd(u^n)||^2_H10 at n = i + 2.
    The scheme satisfies rate + dissipation = 0 exactly (up to round-off).
    """
    e = energy_series(traj.space, traj.states, traj.grid.dt, params.c)
    rate = (e[1:] - e[:-1]) / traj.grid.dt
    cd = diffops.centered_diff(traj.states, traj.grid.dt)
    dissipation = params.D * l2_norms_sq(traj.space, cd) + params.G * h10_norms_sq(traj.space, cd)
    return e, rate, dissipation


# ---------------------------------------------------------------------------
# Analytic separation-of-variables series, for solver validation.
# ---------------------------------------------------------------------------

_SERIES_PANELS = 2000  # composite Gauss panels for sine coefficients
_SINE_BLOCK = 16  # modes per block of sine values: 1.3 MB at 2000 panels
_GAUSS_X5, _GAUSS_W5 = np.polynomial.legendre.leggauss(5)
_DEGENERATE_TOL = 1e-12


@dataclass
class AnalyticSeriesSolution:
    """Truncated modal series for the damped wave equation.

    Mode k evolves as a_k exp(mu_plus t) + b_k exp(mu_minus t) times
    sin(pi k x), with mu_pm the two characteristic roots.  Both roots have
    nonpositive real part, so evaluation never overflows.  Critically damped
    modes (coincident roots) switch to the (a + b t) exp(mu t) limit form.
    """

    params: WaveParams
    k_max: int
    mu_plus: np.ndarray = field(repr=False)
    mu_minus: np.ndarray = field(repr=False)
    coef_a: np.ndarray = field(repr=False)
    coef_b: np.ndarray = field(repr=False)
    degenerate: np.ndarray = field(repr=False)


def _sine_coefficients(f: Callable, k_max: int, panels: int = _SERIES_PANELS) -> np.ndarray:
    """f_k = 2 * integral_0^1 f(x) sin(pi k x) dx for k = 1..k_max."""
    width = 1.0 / panels
    lefts = width * np.arange(panels)
    xq = (lefts[:, None] + 0.5 * width * (_GAUSS_X5[None, :] + 1.0)).ravel()
    wq = np.tile(0.5 * width * _GAUSS_W5, panels)
    fvals = np.asarray(f(xq), dtype=float)
    if fvals.shape != xq.shape:
        fvals = np.broadcast_to(fvals, xq.shape)
    weighted = wq * fvals
    coef = np.empty(k_max)
    # Blocks start at multiples of _SINE_BLOCK, so BLAS sums each row as in
    # one product of all k_max rows; a last lone row joins the block before
    # it, since BLAS sums a single-row product in another order.
    starts = range(0, max(k_max - 1, 1), _SINE_BLOCK)
    for lo, hi in zip(starts, [*starts[1:], k_max]):
        k = np.arange(lo + 1, hi + 1)
        coef[lo:hi] = 2.0 * np.sin(np.pi * np.outer(k, xq)) @ weighted
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

    f0 = _sine_coefficients(u0, k_max)
    f00 = _sine_coefficients(u00, k_max)

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
        params=params, k_max=k_max, mu_plus=mu_plus, mu_minus=mu_minus,
        coef_a=coef_a, coef_b=coef_b, degenerate=degenerate,
    )


def analytic_eval(sol: AnalyticSeriesSolution, x: np.ndarray, t: float) -> np.ndarray:
    """Evaluate the truncated series at positions x and time t."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    amp = sol.coef_a * np.exp(sol.mu_plus * t) + sol.coef_b * np.exp(sol.mu_minus * t)
    if np.any(sol.degenerate):
        d = sol.degenerate
        sigma = -sol.mu_plus[d].real
        amp[d] = (sol.coef_a[d] + sol.coef_b[d] * t) * np.exp(-sigma * t)
    lam = np.pi * np.arange(1, sol.k_max + 1)
    values = np.sin(np.outer(x, lam)) @ amp
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
