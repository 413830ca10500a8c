import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import fe_reference
from podwave import pod
from podwave.config import RunConfig
from podwave.experiments import train_interval_rows, training_slice
from podwave.fem import assemble, l2_norms_sq
from podwave.rom import (
    ErrorFrame,
    RomErrorReport,
    build_rom,
    error_report,
    solve_rom,
    stack_roms,
)
from podwave.wave import (
    TimeGrid,
    Trajectory,
    WaveParams,
    default_u0,
    default_u00,
    energy_balance,
    energy_series,
    solve,
)


def stepping_rom_states(romsys):
    """Reference integrator: the three-level scheme in mode coordinates,
    one dense Cholesky solve per step."""
    r, dt = romsys.r, romsys.grid.dt
    c2, d, g = romsys.params.c**2, romsys.params.D, romsys.params.G
    eye, s_r = np.eye(r), romsys.reduced_stiffness
    lhs = (1.0 / dt**2 + d / (2.0 * dt)) * eye + (c2 / 4.0 + g / (2.0 * dt)) * s_r
    b_cur = (2.0 / dt**2) * eye - (c2 / 2.0) * s_r
    b_prev = (-1.0 / dt**2 + d / (2.0 * dt)) * eye + (-c2 / 4.0 + g / (2.0 * dt)) * s_r
    factor = scipy.linalg.cho_factor(lhs)
    coeffs = np.empty((romsys.grid.N, r))
    coeffs[0], coeffs[1] = romsys.a1, romsys.a2
    for n in range(2, romsys.grid.N):
        coeffs[n] = scipy.linalg.cho_solve(factor, b_cur @ coeffs[n - 1] + b_prev @ coeffs[n - 2])
    return coeffs @ romsys.modes


@pytest.fixture(scope="module")
def small_run():
    space = assemble(20)
    grid = TimeGrid.from_dt(1.45, 0.05)  # 30 time levels
    params = WaveParams(c=1.0, D=0.1)
    traj = solve(space, grid, params, default_u0, default_u00)
    return space, grid, params, traj


def test_reduced_system_shape_and_symmetry(small_run):
    space, grid, params, traj = small_run
    basis = pod.pod_basis(traj, "standard")
    romsys = build_rom(basis, 6, traj, params)
    s = romsys.reduced_stiffness
    assert s.shape == (6, 6)
    assert np.max(np.abs(s - s.T)) <= 1e-12 * np.max(np.abs(s))
    assert np.all(np.linalg.eigvalsh(s) > 0)
    # reduced initial coefficients reproduce the projected initial states
    recon = romsys.a1 @ romsys.modes
    np.testing.assert_allclose(recon, pod.project_l2(basis, 6, traj.states[0]),
                               rtol=1e-12, atol=1e-14)


def test_non_orthonormal_modes_rejected(small_run):
    space, grid, params, traj = small_run
    basis = pod.pod_basis(traj, "standard")
    skewed = pod.PodBasis(modes=2.0 * basis.modes, eigenvalues=basis.eigenvalues,
                          method=basis.method, space=space, grid=basis.grid)
    with pytest.raises(ValueError):
        build_rom(skewed, 4, traj, params)


def test_zero_initial_coefficients_stay_zero(small_run):
    space, grid, params, traj = small_run
    basis = pod.pod_basis(traj, "standard")
    zero = Trajectory(space=space, grid=grid, states=np.zeros((grid.N, space.n_dof)))
    romsys = build_rom(basis, 5, zero, params)
    np.testing.assert_allclose(solve_rom(romsys), 0.0)


def test_full_rank_rom_reproduces_fe(small_run):
    space, grid, params, traj = small_run
    basis = pod.pod_basis(traj, "standard")
    romsys = build_rom(basis, basis.rank, traj, params)
    rom_states = solve_rom(romsys) @ romsys.modes
    scale = np.max(np.sqrt(l2_norms_sq(space, traj.states)))
    err = np.max(np.sqrt(l2_norms_sq(space, traj.states - rom_states)))
    assert err <= 1e-8 * scale


def test_rom_energy_identity(small_run):
    space, grid, params, traj = small_run
    basis = pod.pod_basis(traj, "ddq")
    romsys = build_rom(basis, 8, traj, params)
    rom_traj = Trajectory(space=space, grid=grid, states=solve_rom(romsys) @ romsys.modes)
    e, rate, dissipation = energy_balance(rom_traj, params)
    assert np.max(np.abs(rate + dissipation)) <= 1e-10 * e[0]


def test_rom_energy_conserved_undamped():
    space = assemble(20)
    grid = TimeGrid.from_dt(2.0, 0.05)
    params = WaveParams(c=1.0)
    traj = solve(space, grid, params, default_u0, default_u00)
    basis = pod.pod_basis(traj, "standard")
    romsys = build_rom(basis, 7, traj, params)
    e = energy_series(space, solve_rom(romsys) @ romsys.modes, grid.dt, params.c)
    assert np.max(np.abs(e - e[0])) <= 1e-10 * e[0]


def test_error_report_fields(small_run):
    space, grid, params, traj = small_run
    basis = pod.pod_basis(traj, "ddq")
    r = 8
    romsys = build_rom(basis, r, traj, params)
    coeffs = solve_rom(romsys)
    rep = error_report(ErrorFrame(traj, basis, params, [r]), coeffs)

    err = traj.states - coeffs @ romsys.modes
    err_sq = l2_norms_sq(space, err)
    assert rep.max_l2_sq == pytest.approx(float(np.max(err_sq)), rel=1e-12)
    assert rep.final_l2 == pytest.approx(float(np.sqrt(err_sq[-1])), rel=1e-12)
    err_traj_energy = energy_series(space, err, grid.dt, params.c)
    assert rep.max_energy == pytest.approx(float(np.max(err_traj_energy)), rel=1e-12)
    # bound quotients are finite, positive, and below one on a damped run
    assert 0 < rep.ratio_energy <= 1
    assert 0 < rep.ratio_pointwise <= 1


def test_error_report_full_rank_ratios_flagged(small_run):
    space, grid, params, traj = small_run
    basis = pod.pod_basis(traj, "standard")
    r = basis.rank
    romsys = build_rom(basis, r, traj, params)
    rep = error_report(ErrorFrame(traj, basis, params, [r]), solve_rom(romsys))
    # denominators collapse to round-off; quotients are reported as missing
    assert rep.ratio_energy is None
    assert rep.ratio_pointwise is None


def test_rom_on_invariant_subspace_matches_fe():
    """A single-mode start stays in a low-dimensional invariant subspace;
    the reduced model on that subspace reproduces the FE solution."""
    space = assemble(32)
    grid = TimeGrid.from_dt(1.0, 0.025)
    params = WaveParams(c=1.0, G=0.002)
    traj = solve(space, grid, params, lambda x: np.sin(np.pi * x), default_u00)
    basis = pod.pod_basis(traj, "standard", rank_tol=1e-24)
    r = min(basis.rank, 4)
    romsys = build_rom(basis, r, traj, params)
    rom_states = solve_rom(romsys) @ romsys.modes
    scale = np.max(np.sqrt(l2_norms_sq(space, traj.states)))
    err = np.max(np.sqrt(l2_norms_sq(space, traj.states - rom_states)))
    assert err <= 1e-7 * scale


ROM_DAMPINGS = pytest.mark.parametrize("damping", [
    {}, {"D": 0.1}, {"G": 0.001}, {"D": 50.0, "G": 0.05},
], ids=["undamped", "viscous", "kelvin-voigt", "heavy"])


@ROM_DAMPINGS
def test_modal_rom_matches_stepping(damping):
    space = assemble(24)
    grid = TimeGrid.from_dt(4.0, 0.02)  # 201 time levels
    params = WaveParams(c=1.0, **damping)
    traj = solve(space, grid, params, default_u0, default_u00)
    basis = pod.pod_basis(traj, "standard")
    for r in (1, basis.rank // 2, basis.rank):
        romsys = build_rom(basis, r, traj, params)
        ref = stepping_rom_states(romsys)
        gap = np.max(np.abs(solve_rom(romsys) @ romsys.modes - ref)) / np.max(np.abs(ref))
        assert gap <= 1e-9, f"r={r}: relative gap {gap:.2e}"


def written_out_modal_coeffs(romsys):
    """The modal scheme with its weights written out, c^2 as c * c like the
    FE scheme, back in mode coordinates: a bitwise reference for solve_rom."""
    dt = romsys.grid.dt
    c2, d, g = romsys.params.c * romsys.params.c, romsys.params.D, romsys.params.G
    lam, q = np.linalg.eigh(romsys.reduced_stiffness)
    lhs = (1.0 / dt**2 + d / (2.0 * dt)) + (c2 / 4.0 + g / (2.0 * dt)) * lam
    b_cur = ((2.0 / dt**2) - (c2 / 2.0) * lam) / lhs
    b_prev = ((-1.0 / dt**2 + d / (2.0 * dt)) + (-c2 / 4.0 + g / (2.0 * dt)) * lam) / lhs
    z = np.empty((romsys.grid.N, romsys.r))
    z[0], z[1] = romsys.a1 @ q, romsys.a2 @ q
    for n in range(2, romsys.grid.N):
        z[n] = b_cur * z[n - 1] + b_prev * z[n - 2]
    return z @ q.T


def assert_rom_bitwise(c, damping):
    """solve_rom, alone and stacked, is bitwise the written-out scheme: on the
    sizes 1, s/2 and s of one basis, as rom-sweep and check stack them, and
    on the standard and ddq bases of two training windows, as train-interval
    stacks them."""
    space = assemble(16)
    grid = TimeGrid.from_dt(1.0, 0.02)  # 51 time levels
    params = WaveParams(c=c, **damping)
    traj = solve(space, grid, params, default_u0, default_u00)
    basis = pod.pod_basis(traj, "standard")
    stacks = [
        [build_rom(basis, r, traj, params) for r in (1, basis.rank // 2, basis.rank)],
        [build_rom(pod.pod_basis(training_slice(traj, t), method), 6, traj, params)
         for t in (1.0, 0.5) for method in ("standard", "ddq")],
    ]
    for members in stacks:
        stack = stack_roms(members)
        assert stack.r == sum(m.r for m in members)
        runs = np.split(solve_rom(stack), np.cumsum([m.r for m in members])[:-1], axis=1)
        for romsys, run in zip(members, runs):
            want = written_out_modal_coeffs(romsys)
            assert np.array_equal(solve_rom(romsys), want), romsys.r
            assert np.array_equal(run, want), romsys.r


@ROM_DAMPINGS
@pytest.mark.parametrize("c", [1.0, 2.0 / np.pi], ids=["c-1", "c-2/pi"])
def test_modal_rom_is_bitwise_the_written_out_scheme(damping, c):
    assert_rom_bitwise(c, damping)


def test_stack_and_frame_reject_mismatched_runs(small_run):
    space, grid, params, traj = small_run
    basis = pod.pod_basis(traj, "standard")
    other = replace(params, D=0.2)
    with pytest.raises(ValueError, match="share"):
        stack_roms([build_rom(basis, 2, traj, params), build_rom(basis, 3, traj, other)])
    frame = ErrorFrame(traj, basis, params, [2, 4])
    with pytest.raises(ValueError, match="sized"):
        error_report(frame, solve_rom(build_rom(basis, 3, traj, params)))
    with pytest.raises(ValueError):
        ErrorFrame(traj, basis, params, [basis.rank + 1])


def test_sweep_reports_allocate_less_than_one_frame_array():
    """The reports of a 12-size sweep read the frame's tail sums and kept
    columns only: beyond the frame and the stack they allocate less than one
    (N-1, s) array, which differencing every column of c per report forms."""
    space = assemble(200)
    grid = TimeGrid.from_dt(2.0, 1.0 / 200.0)  # 401 time levels, s = 199
    params = WaveParams(c=1.0, D=0.1)
    traj = solve(space, grid, params, default_u0, default_u00)
    basis = pod.pod_basis(traj, "standard")
    sizes = list(range(2, 26, 2))
    frame = ErrorFrame(traj, basis, params, sizes)
    coeffs = solve_rom(stack_roms([build_rom(basis, r, traj, params) for r in sizes]))
    runs = np.split(coeffs, np.cumsum(sizes)[:-1], axis=1)
    tracemalloc.start()
    try:
        for run in runs:
            error_report(frame, run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (grid.N - 1) * basis.rank * coeffs.itemsize


@ROM_DAMPINGS
@settings(max_examples=10, deadline=None)
@given(c=st.floats(0.01, 100.0))
def test_modal_rom_is_bitwise_the_written_out_scheme_at_any_c(damping, c):
    assert_rom_bitwise(c, damping)


@ROM_DAMPINGS
@pytest.mark.parametrize("n_elements,T,dt,rank_tol", [
    (24, 4.0, 0.02, 0.0),   # 201 levels: every basis spans the FE space
    (40, 0.5, 0.02, 0.0),   # 26 levels, 39 unknowns: s < n_dof
    (24, 4.0, 0.02, 1e-4),  # a cut spectrum: the states leave span Phi
], ids=["s-is-n_dof", "n-below-n_dof", "rank-tol"])
@pytest.mark.parametrize("method", pod.METHODS)
def test_modal_error_report_matches_the_full_space_report(method, n_elements, T, dt,
                                                          rank_tol, damping):
    """The report in POD coordinates agrees with the one computed from the
    N x n_dof difference of FE and ROM states.

    Reports at round-off level (max_l2_sq at most 1e-20 max_n ||u^n||^2)
    only agree in which ratios are None.  Otherwise each field agrees within
    1e-9 relative, or four times its round-off where that is larger: a field
    made of differences of coefficients of size ||u|| carries a relative
    round-off of about eps ||u|| / ||e||, with ||e|| its own square root
    (or itself for final_l2), energies in the energy's units, and a ratio's
    denominator holding ||bd phi^2||^2, whose differences are divided by dt.
    """
    space = assemble(n_elements)
    params = WaveParams(c=1.0, **damping)
    traj = solve(space, TimeGrid.from_dt(T, dt), params, default_u0, default_u00)
    basis = pod.pod_basis(traj, method, rank_tol=rank_tol)
    assert (basis.rank == space.n_dof) == (rank_tol == 0 and traj.grid.N > space.n_dof)
    sizes = sorted({1, max(basis.rank // 2, 1), basis.rank})
    frame = ErrorFrame(traj, basis, params, sizes)
    u_sq = float(np.max(l2_norms_sq(space, traj.states)))
    u_energy = float(np.max(energy_series(space, traj.states, dt, params.c)))
    for r in sizes:
        romsys = build_rom(basis, r, traj, params)
        coeffs = solve_rom(romsys)
        got = error_report(frame, coeffs)
        want = fe_reference.error_report(traj, coeffs @ romsys.modes, basis, r, params)
        for name in (f.name for f in fields(RomErrorReport)):
            assert (getattr(got, name) is None) == (getattr(want, name) is None), (r, name)
        if want.max_l2_sq <= 1e-20 * u_sq:
            continue
        roundoff = {"max_l2_sq": np.sqrt(u_sq / want.max_l2_sq),
                    "final_l2": np.sqrt(u_sq) / want.final_l2,
                    "max_energy": np.sqrt(u_energy / want.max_energy)}
        for name, size in (("ratio_pointwise", want.max_l2_sq), ("ratio_energy", want.max_energy)):
            if getattr(want, name) is not None:  # size / ratio is the denominator
                roundoff[name] = np.sqrt(u_sq * getattr(want, name) / size) / dt
        for name, scale in roundoff.items():
            rel = max(1e-9, 4 * np.finfo(float).eps * scale)
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=rel, abs=0), (r, name)


def test_train_interval_final_error_matches_the_full_space_report():
    config = RunConfig(n_elements=24, dt=1.0 / 48.0, T=2.0, c=1.0, D=0.1).validated()
    t_train, r = (2.0, 1.0, 0.5), 6
    _, rows = train_interval_rows(config, list(t_train), r)
    space, params = assemble(24), config.wave_params()
    traj = solve(space, config.time_grid(), params, default_u0, default_u00)
    assert [row[:2] for row in rows] == [[t, m] for t in t_train for m in ("standard", "ddq")]
    for t, method, final_l2 in rows:
        basis = pod.pod_basis(training_slice(traj, t), method)
        romsys = build_rom(basis, r, traj, params)
        want = fe_reference.error_report(traj, solve_rom(romsys) @ romsys.modes,
                                         basis, r, params)
        assert final_l2 == pytest.approx(want.final_l2, rel=1e-9, abs=0), (t, method)
