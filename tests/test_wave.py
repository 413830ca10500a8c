import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import fe_reference
from fe_reference import energy, h10_inner, solve_states, step, to_dense
from podwave import experiments, fem, wave
from podwave.config import RunConfig
from podwave.fem import assemble, l2_norms_sq, l2_project
from podwave.wave import (
    TimeGrid,
    WaveParams,
    analytic_eval,
    analytic_series,
    default_u0,
    default_u00,
    energy_balance,
    energy_series,
    final_state,
    initial_states,
    solve,
    step_matrices,
)


def l2_norm(space, v):
    return float(np.sqrt(l2_norms_sq(space, v)))


def test_time_grid_validation():
    g = TimeGrid.from_dt(10.0, 1.0 / 800.0)
    assert g.N == 8001
    assert g.times[1] == pytest.approx(1.0 / 800.0)
    with pytest.raises(ValueError):
        TimeGrid.from_dt(1.0, 0.3)
    with pytest.raises(ValueError):
        TimeGrid(T=1.0, dt=0.5, N=4)


def test_wave_params_validation():
    with pytest.raises(ValueError):
        WaveParams(c=0.0)
    with pytest.raises(ValueError):
        WaveParams(c=1.0, D=-0.1)


def test_zero_initial_data():
    space = assemble(16)
    grid = TimeGrid.from_dt(1.0, 0.125)
    params = WaveParams(c=1.0, D=0.2)
    zero = lambda x: np.zeros_like(x)
    u1, u2 = initial_states(space, grid, params, zero, zero)
    np.testing.assert_allclose(u1, 0.0)
    np.testing.assert_allclose(u2, 0.0)
    traj = solve(space, grid, params, zero, zero)
    np.testing.assert_allclose(traj.states, 0.0)


def test_second_state_single_mode():
    # u = cos(c pi t) sin(pi x): u^2 should be close to P_h of the shifted mode
    space = assemble(200)
    grid = TimeGrid.from_dt(1.0, 0.01)
    params = WaveParams(c=1.0)
    _, u2 = initial_states(space, grid, params, lambda x: np.sin(np.pi * x), default_u00)
    target = l2_project(lambda x: np.cos(np.pi * grid.dt) * np.sin(np.pi * x), space)
    # frozen reference 3.6e-8 (dt^4 and h^2 dt^2 contributions only)
    assert l2_norm(space, u2 - target) <= 1e-7


def test_second_state_third_order_in_dt():
    """Against the exact semidiscrete evolution (matrix exponential), the
    start-up state is third-order accurate in dt."""
    space = assemble(40)
    params = WaveParams(c=1.0, D=0.05, G=0.002)
    m = to_dense(space.mass)
    a = to_dense(space.stiffness)
    minv = np.linalg.inv(m)
    n = space.n_dof
    gen = np.zeros((2 * n, 2 * n))
    gen[:n, n:] = np.eye(n)
    gen[n:, :n] = -params.c**2 * (minv @ a)
    gen[n:, n:] = -params.D * np.eye(n) - params.G * (minv @ a)

    errs = []
    for dt in (1.0 / 20.0, 1.0 / 40.0, 1.0 / 80.0, 1.0 / 160.0):
        grid = TimeGrid.from_dt(1.0, dt)
        u1, u2 = initial_states(space, grid, params, default_u0, default_u00)
        z0 = np.concatenate([u1, l2_project(default_u00, space)])
        exact = (scipy.linalg.expm(dt * gen) @ z0)[:n]
        errs.append(l2_norm(space, u2 - exact))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 2.7)


def test_second_state_vs_series_under_dt_halving():
    """Against the modal series at t = dt, the start-up error decays at
    third order until the spatial floor takes over (frozen reference run:
    3.3e-1, 3.7e-2, 5.5e-3 at dt = 1/10, 1/20, 1/40)."""
    space = assemble(400)
    params = WaveParams(c=1.0, G=0.001)
    sol = analytic_series(params, default_u0, default_u00, k_max=400)
    errs = []
    for dt in (1.0 / 10.0, 1.0 / 20.0, 1.0 / 40.0):
        grid = TimeGrid.from_dt(1.0, dt)
        _, u2 = initial_states(space, grid, params, default_u0, default_u00)
        errs.append(l2_norm(space, u2 - analytic_eval(sol, space.nodes, dt)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 2.5) and np.all(orders <= 3.6)


def test_step_matches_solver_and_zero_case():
    space = assemble(24)
    grid = TimeGrid.from_dt(1.0, 0.05)
    params = WaveParams(c=0.8, D=0.1, G=0.001)
    traj = solve(space, grid, params, default_u0, default_u00)
    u3 = step(space, params, grid, traj.states[0], traj.states[1])
    np.testing.assert_allclose(u3, traj.states[2], rtol=1e-12, atol=1e-15)
    zero = np.zeros(space.n_dof)
    np.testing.assert_allclose(step(space, params, grid, zero, zero), 0.0)


DAMPINGS = pytest.mark.parametrize("D, G", [(0.0, 0.0), (0.1, 0.0), (0.0, 0.001)],
                                    ids=["undamped", "viscous", "kelvin-voigt"])


@DAMPINGS
def test_solve_is_bitwise_the_cho_solve_banded_loop(D, G):
    """The stepping calls LAPACK dpbtrs itself; its states are bit for bit
    those of the same loop through scipy's cho_solve_banded."""
    space = assemble(40)
    grid = TimeGrid.from_dt(2.0, 1.0 / 80.0)
    params = WaveParams(c=1.0, D=D, G=G)
    traj = solve(space, grid, params, default_u0, default_u00)
    assert np.array_equal(traj.states, solve_states(space, grid, params, default_u0, default_u00))


def written_out_step_matrices(space, params, dt):
    """The three step matrices with their weights written out, c^2 as c * c."""
    m, a = space.mass, space.stiffness
    c2 = params.c * params.c
    lhs = m.scaled_add(1.0 / dt**2 + params.D / (2.0 * dt), a, c2 / 4.0 + params.G / (2.0 * dt))
    b_cur = m.scaled_add(2.0 / dt**2, a, -c2 / 2.0)
    b_prev = m.scaled_add(-1.0 / dt**2 + params.D / (2.0 * dt), a, -c2 / 4.0 + params.G / (2.0 * dt))
    return lhs, b_cur, b_prev


def assert_step_matrices_bitwise(c, D, G):
    space, params = assemble(24), WaveParams(c=c, D=D, G=G)
    for dt in (1.0 / 80.0, 2.0 / 159.0, 0.3):
        pairs = zip(step_matrices(space, params, dt), written_out_step_matrices(space, params, dt))
        for got, ref in pairs:
            assert np.array_equal(got.diag, ref.diag) and np.array_equal(got.off, ref.off)


@DAMPINGS
@pytest.mark.parametrize("c", [1.0, 2.0 / np.pi], ids=["c-1", "c-2/pi"])
def test_step_matrices_are_bitwise_the_written_out_weights(D, G, c):
    assert_step_matrices_bitwise(c, D, G)


@DAMPINGS
@settings(max_examples=20, deadline=None)
@given(c=st.floats(0.01, 100.0))
def test_step_matrices_are_bitwise_the_written_out_weights_at_any_c(D, G, c):
    assert_step_matrices_bitwise(c, D, G)


@DAMPINGS
@pytest.mark.parametrize("dt", [1.0 / 80.0, 2.0 / 159.0], ids=["N-odd", "N-even"])
def test_final_state_is_bitwise_the_last_level(D, G, dt):
    space = assemble(40)
    grid = TimeGrid.from_dt(2.0, dt)
    params = WaveParams(c=1.0, D=D, G=G)
    last = solve(space, grid, params, default_u0, default_u00).states[-1]
    assert np.array_equal(final_state(space, grid, params, default_u0, default_u00), last)


def test_convergence_never_stores_a_trajectory(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(wave, "solve", counted)
    config = RunConfig(n_elements=40, dt=0.01, T=1.25, u0="sine", k_max=20,
                       dt_list=(0.01, 0.005)).validated()
    _, rows = experiments.convergence_rows(config)
    assert len(rows) == 2 and calls == []


def test_convergence_memory_is_one_block_of_levels():
    """At 2000 elements and dt = 1/3200, all N x n_dof states would take
    4001 * 1999 * 8 bytes = 64 MB; the run holds one bounded block of
    levels: 66 levels of 1999 unknowns, 1.05 MB."""
    config = RunConfig(n_elements=2000, dt=1.0 / 3200.0, T=1.25, u0="sine",
                       k_max=20, dt_list=(1.0 / 3200.0,)).validated()
    tracemalloc.start()
    try:
        _, rows = experiments.convergence_rows(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.0 < rows[0][2] < 1e-6
    assert peak < 8e6


def test_scheme_second_order_vs_single_mode():
    space = assemble(400)
    params = WaveParams(c=1.0)
    errs = []
    for dt in (1.0 / 40.0, 1.0 / 80.0, 1.0 / 160.0):
        grid = TimeGrid.from_dt(1.25, dt)
        traj = solve(space, grid, params, lambda x: np.sin(np.pi * x), default_u00)
        exact = np.cos(np.pi * 1.25) * np.sin(np.pi * space.nodes)
        errs.append(l2_norm(space, traj.states[-1] - exact))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all((orders > 1.7) & (orders < 2.3))


def test_energy_constant_state():
    space = assemble(10)
    grid = TimeGrid.from_dt(1.0, 0.25)
    params = WaveParams(c=2.0)
    u = np.sin(np.pi * space.nodes)
    traj = solve(space, grid, WaveParams(c=1.0), default_u00, default_u00)
    traj.states[:] = u  # constant in time: kinetic term vanishes

    e = energy(traj, 2, params.c)
    assert e == pytest.approx(0.5 * params.c**2 * h10_inner(space, u, u), rel=1e-13)


def test_undamped_energy_conserved():
    space = assemble(60)
    grid = TimeGrid.from_dt(4.0, 1.0 / 60.0)
    params = WaveParams(c=1.0)
    traj = solve(space, grid, params, default_u0, default_u00)
    e = energy_series(space, traj.states, grid.dt, params.c)
    assert np.max(np.abs(e - e[0])) <= 1e-9 * e[0]


@pytest.mark.parametrize("damping", [dict(D=0.3, G=0.0), dict(D=0.0, G=0.004), dict(D=0.1, G=0.002)])
def test_energy_dissipation_identity(damping):
    space = assemble(50)
    grid = TimeGrid.from_dt(2.0, 1.0 / 50.0)
    params = WaveParams(c=1.0, **damping)
    traj = solve(space, grid, params, default_u0, default_u00)
    e, rate, dissipation = energy_balance(traj, params)
    assert np.max(np.abs(rate + dissipation)) <= 1e-10 * e[0]
    assert np.all(dissipation >= 0.0)


def test_energy_rows_evaluate_the_energy_once(monkeypatch):
    space = assemble(10)
    grid = TimeGrid.from_dt(1.0, 0.1)
    params = WaveParams(c=1.0, D=0.1)
    traj = solve(space, grid, params, default_u0, default_u00)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return energy_series(*args, **kwargs)

    monkeypatch.setattr(wave, "energy_series", counted)
    _, rows = experiments.energy_rows(grid, energy_balance(traj, params))
    assert len(rows) == grid.N - 2
    assert len(calls) == 1


def test_energy_series_matches_pointwise():
    space = assemble(30)
    grid = TimeGrid.from_dt(1.0, 0.1)
    params = WaveParams(c=1.3, D=0.05)
    traj = solve(space, grid, params, default_u0, default_u00)
    series = energy_series(space, traj.states, grid.dt, params.c)
    for n in (2, 5, grid.N):
        assert series[n - 2] == pytest.approx(energy(traj, n, params.c), rel=1e-13)


def block_rows(n_cols):
    """The row count of a full block of wave._row_blocks at n_cols columns."""
    return next(iter(wave._row_blocks(1 << 30, n_cols)))[1]


def traced_peak(fn, *args):
    """The tracemalloc peak, in bytes, of one call fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_B = block_rows(39)


@pytest.mark.parametrize("damping", [dict(D=0.3), dict(G=0.004), dict(D=0.1, G=0.002)])
@pytest.mark.parametrize("n_levels", [3, _B - 1, _B, _B + 1, _B + 2, _B + 3, 2 * _B + 1, 2 * _B + 2])
def test_blocked_energy_balance_is_bitwise_whole_arrays(n_levels, damping):
    """Around one and two blocks of levels, in energy_series (N - 1 rows)
    and in the centred differences (N - 2 rows), lone last rows included,
    every entry is bitwise that of the whole-array evaluation."""
    space = assemble(40)
    grid = TimeGrid(T=(n_levels - 1) * 0.01, dt=0.01, N=n_levels)
    states = np.random.default_rng(n_levels).standard_normal((n_levels, space.n_dof))
    traj = wave.Trajectory(space=space, grid=grid, states=states)
    params = WaveParams(c=1.3, **damping)
    for got, want in zip(energy_balance(traj, params), fe_reference.energy_balance(traj, params)):
        assert np.array_equal(got, want)


def test_energy_rows_hold_no_whole_difference_stack():
    """At 400 elements, dt = 1/800 and T = 2.5 the trajectory is 6.4 MB, and
    one whole (N, n_dof) difference or average stack as large; the energy
    table itself is 64 KB."""
    config = RunConfig(n_elements=400, dt=1.0 / 800.0, T=2.5, D=0.1).validated()
    traj = experiments.fe_trajectory(config)
    peak = traced_peak(lambda: experiments.energy_rows(
        traj.grid, energy_balance(traj, config.wave_params())))
    assert peak < 4 << 20, peak


# --- analytic series ---------------------------------------------------------


def test_series_single_mode_undamped():
    params = WaveParams(c=1.0)
    sol = analytic_series(params, lambda x: np.sin(np.pi * x), default_u00, k_max=20)
    x = np.linspace(0.0, 1.0, 11)
    for t in (0.0, 0.3, 1.7):
        np.testing.assert_allclose(analytic_eval(sol, x, t),
                                   np.cos(np.pi * t) * np.sin(np.pi * x), atol=1e-12)


def test_series_viscous_mode_conditions():
    params = WaveParams(c=1.0, D=0.1)
    sol = analytic_series(params, lambda x: np.sin(np.pi * x), default_u00, k_max=5)
    # displacement condition: a_1 + b_1 equals the first sine coefficient
    assert (sol.coef_a[0] + sol.coef_b[0]).real == pytest.approx(1.0, rel=1e-9)
    assert abs((sol.coef_a[0] + sol.coef_b[0]).imag) <= 1e-12
    # sqrt(D^2/4 - c^2 pi^2) is imaginary: both roots have real part -D/2
    assert sol.mu_plus[0].real == pytest.approx(-0.05, rel=1e-12)
    assert sol.mu_plus[0].imag == pytest.approx(np.sqrt(np.pi**2 - 0.0025), rel=1e-12)
    # velocity condition: mu+ a + mu- b = 0 for zero initial velocity
    resid = sol.mu_plus[0] * sol.coef_a[0] + sol.mu_minus[0] * sol.coef_b[0]
    assert abs(resid) <= 1e-12


def test_series_kelvin_voigt_oscillatory_cutoff():
    # mode k oscillates iff k < 2c / (pi G)
    params = WaveParams(c=1.0, G=0.1)
    cutoff = 2.0 * params.c / (np.pi * params.G)  # ~6.37
    sol = analytic_series(params, default_u0, default_u00, k_max=12)
    for k in range(1, 13):
        oscillatory = abs(sol.mu_plus[k - 1].imag) > 1e-12
        assert oscillatory == (k < cutoff)


def test_series_critically_damped_mode():
    # G = 2c/lambda_3 makes mode 3 critically damped; the limit branch kicks in
    g = 2.0 / (3.0 * np.pi)
    params = WaveParams(c=1.0, G=g)
    sol = analytic_series(params, default_u0, default_u00, k_max=6)
    assert sol.degenerate[2]
    vals = analytic_eval(sol, np.linspace(0, 1, 9), 0.5)
    assert np.all(np.isfinite(vals))


def test_series_rejects_double_damping():
    with pytest.raises(ValueError):
        analytic_series(WaveParams(c=1.0, D=0.1, G=0.1), default_u0, default_u00)


def test_series_reproduces_initial_condition():
    params = WaveParams(c=1.0, G=0.001)
    sol = analytic_series(params, default_u0, default_u00, k_max=400)
    x = np.linspace(0.05, 0.95, 19)
    np.testing.assert_allclose(analytic_eval(sol, x, 0.0), default_u0(x), atol=2e-5)
    assert abs(sol.coef_a[-1]) + abs(sol.coef_b[-1]) < 1e-5


def test_solver_tracks_series_with_damping():
    space = assemble(400)
    grid = TimeGrid.from_dt(2.0, 1.0 / 400.0)
    params = WaveParams(c=1.0, G=0.001)
    traj = solve(space, grid, params, default_u0, default_u00)
    sol = analytic_series(params, default_u0, default_u00, k_max=300)
    for t in (0.5, 2.0):
        n = round(t / grid.dt)
        exact = analytic_eval(sol, space.nodes, t)
        assert l2_norm(space, traj.states[n] - exact) <= 5e-4


def one_product_sine_coefficients(f, k_max, panels=wave._SERIES_PANELS):
    """The coefficients as one (k_max, 5 panels) product, as computed before
    the rows were blocked."""
    width = 1.0 / panels
    lefts = width * np.arange(panels)
    xq = (lefts[:, None] + 0.5 * width * (fem._GAUSS_X[None, :] + 1.0)).ravel()
    wq = np.tile(0.5 * width * fem._GAUSS_W, panels)
    fvals = np.broadcast_to(np.asarray(f(xq), dtype=float), xq.shape)
    k = np.arange(1, k_max + 1)
    return 2.0 * np.sin(np.pi * np.outer(k, xq)) @ (wq * fvals)


def one_product_eval(sol, x, t):
    """analytic_eval as one (nodes, k_max) product, as computed before the
    nodes were blocked."""
    amp = sol.coef_a * np.exp(sol.mu_plus * t) + sol.coef_b * np.exp(sol.mu_minus * t)
    d = sol.degenerate
    amp[d] = (sol.coef_a[d] + sol.coef_b[d] * t) * np.exp(sol.mu_plus[d].real * t)
    return (np.sin(np.outer(x, np.pi * np.arange(1, sol.k_max + 1))) @ amp).real


@pytest.mark.parametrize("extra", [0, 1, 2])
@pytest.mark.parametrize("k_max", [1, 5, 200])
@pytest.mark.parametrize("G", [0.001, 2.0 / (3.0 * np.pi)])
def test_blocked_analytic_eval_is_bitwise_one_product(G, k_max, extra):
    """Node counts of two blocks plus 0, 1 and 2 rows; G = 2 / (3 pi) makes
    mode 3 critically damped."""
    sol = analytic_series(WaveParams(c=1.0, G=G), default_u0, default_u00, k_max=k_max)
    assert np.any(sol.degenerate) == (G > 0.01 and k_max >= 3)
    x = np.random.default_rng(k_max + extra).random(2 * block_rows(k_max) + extra)
    for t in (0.0, 0.7):
        assert np.array_equal(analytic_eval(sol, x, t), one_product_eval(sol, x, t))


def test_analytic_eval_holds_one_block_of_the_sine_matrix():
    """On the 7999 nodes of 8000 elements with k_max = 200 the whole sine
    matrix is 12.8 MB, and its complex copy 25.6 MB."""
    sol = analytic_series(WaveParams(c=1.0), wave.sine_mode, default_u00, k_max=200)
    peak = traced_peak(analytic_eval, sol, assemble(8000).nodes, 1.25)
    assert peak < 8 << 20, peak


@pytest.mark.parametrize("k_max", [1, 2, 16, 17, 20, 33, 200])
@pytest.mark.parametrize("name", sorted(wave.INITIAL_CONDITIONS))
def test_blocked_sine_coefficients_are_bitwise_one_product(name, k_max):
    """Each function's row, also beside another function's, whose sine
    blocks it shares."""
    fs = (wave.INITIAL_CONDITIONS[name], default_u0)
    for got, f in zip(wave._sine_coefficients(fs, k_max), fs):
        assert np.array_equal(got, one_product_sine_coefficients(f, k_max))
