import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import fe_reference
from podwave import pod, wave
from podwave.cli import main
from podwave.config import RunConfig
from podwave.experiments import (
    _basis,
    fe_trajectory,
    profile_rows,
    rom_sweep_rows,
    train_interval_rows,
    training_slice,
)
from podwave.fem import assemble, l2_norms_sq
from podwave.rom import (
    ErrorFrame,
    RomErrorReport,
    build_rom,
    error_reports,
    solve_rom,
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


def reduced_system(basis, r, traj):
    """(Phi_r, S_r, a^1, a^2) of the first r modes, formed as build_rom forms
    them: S_r symmetrised, a^1 and a^2 the L2 projections of u^1 and u^2."""
    space, phi = traj.space, basis.modes[:r]
    m_phi = space.mass.matvec(phi)
    s_r = np.inner(space.stiffness.matvec(phi), phi)
    return phi, 0.5 * (s_r + s_r.T), m_phi @ traj.states[0], m_phi @ traj.states[1]


def stepping_rom_states(basis, r, traj, params):
    """Reference integrator: the three-level scheme in mode coordinates,
    one dense Cholesky solve per step."""
    dt, n_levels = traj.grid.dt, traj.grid.N
    c2, d, g = params.c**2, params.D, params.G
    phi, s_r, a1, a2 = reduced_system(basis, r, traj)
    eye = np.eye(r)
    lhs = (1.0 / dt**2 + d / (2.0 * dt)) * eye + (c2 / 4.0 + g / (2.0 * dt)) * s_r
    b_cur = (2.0 / dt**2) * eye - (c2 / 2.0) * s_r
    b_prev = (-1.0 / dt**2 + d / (2.0 * dt)) * eye + (-c2 / 4.0 + g / (2.0 * dt)) * s_r
    factor = scipy.linalg.cho_factor(lhs)
    coeffs = np.empty((n_levels, r))
    coeffs[0], coeffs[1] = a1, a2
    for n in range(2, n_levels):
        coeffs[n] = scipy.linalg.cho_solve(factor, b_cur @ coeffs[n - 1] + b_prev @ coeffs[n - 2])
    return coeffs @ phi


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
    sizes = (3, 6)
    romsys = build_rom([(basis, r) for r in sizes], traj, params)
    assert romsys.r == sum(sizes) and romsys.grid == grid
    assert romsys.lam.shape == (sum(sizes),) and romsys.start.shape == (2, sum(sizes))
    assert np.all(romsys.lam > 0)
    start = 0
    for r, q in zip(sizes, romsys.q):
        assert q.shape == (r, r)
        np.testing.assert_allclose(q.T @ q, np.eye(r), rtol=0, atol=1e-14)
        lam, z1 = romsys.lam[start:start + r], romsys.start[0, start:start + r]
        # Q diag(lam) Q^T is the symmetric reduced stiffness
        s_r = np.inner(space.stiffness.matvec(basis.modes[:r]), basis.modes[:r])
        np.testing.assert_allclose((q * lam) @ q.T, s_r, rtol=0,
                                   atol=1e-12 * np.max(np.abs(s_r)))
        # the starting coordinates rebuild the projected initial state
        np.testing.assert_allclose(z1 @ q.T @ basis.modes[:r],
                                   pod.project_l2(basis, r, traj.states[0]),
                                   rtol=1e-12, atol=1e-14)
        start += r


def test_non_orthonormal_modes_rejected(small_run):
    space, grid, params, traj = small_run
    basis = pod.pod_basis(traj, "standard")
    skewed = pod.PodBasis(modes=2.0 * basis.modes, eigenvalues=basis.eigenvalues,
                          method=basis.method, space=space, grid=basis.grid)
    with pytest.raises(ValueError):
        build_rom([(skewed, 4)], traj, params)


def test_zero_initial_coefficients_stay_zero(small_run):
    space, grid, params, traj = small_run
    basis = pod.pod_basis(traj, "standard")
    zero = Trajectory(space=space, grid=grid, states=np.zeros((grid.N, space.n_dof)))
    (_, (coeffs,)), = solve_rom(build_rom([(basis, 5)], zero, params))
    np.testing.assert_allclose(coeffs, 0.0)


def test_full_rank_rom_reproduces_fe(small_run):
    space, grid, params, traj = small_run
    basis = pod.pod_basis(traj, "standard")
    (_, (coeffs,)), = solve_rom(build_rom([(basis, basis.rank)], traj, params))
    rom_states = coeffs @ basis.modes
    scale = np.max(np.sqrt(l2_norms_sq(space, traj.states)))
    err = np.max(np.sqrt(l2_norms_sq(space, traj.states - rom_states)))
    assert err <= 1e-8 * scale


def test_rom_energy_identity(small_run):
    space, grid, params, traj = small_run
    basis = pod.pod_basis(traj, "ddq")
    (_, (coeffs,)), = solve_rom(build_rom([(basis, 8)], traj, params))
    rom_traj = Trajectory(space=space, grid=grid, states=coeffs @ basis.modes[:8])
    e, rate, dissipation = energy_balance(rom_traj, params)
    assert np.max(np.abs(rate + dissipation)) <= 1e-10 * e[0]


def test_rom_energy_conserved_undamped():
    space = assemble(20)
    grid = TimeGrid.from_dt(2.0, 0.05)
    params = WaveParams(c=1.0)
    traj = solve(space, grid, params, default_u0, default_u00)
    basis = pod.pod_basis(traj, "standard")
    (_, (coeffs,)), = solve_rom(build_rom([(basis, 7)], traj, params))
    e = energy_series(space, coeffs @ basis.modes[:7], grid.dt, params.c)
    assert np.max(np.abs(e - e[0])) <= 1e-10 * e[0]


def test_error_report_fields(small_run):
    space, grid, params, traj = small_run
    basis = pod.pod_basis(traj, "ddq")
    r = 8
    (_, (coeffs,)), = solve_rom(build_rom([(basis, r)], traj, params))
    rep, = error_reports(ErrorFrame(traj, basis, params), [(0, [coeffs])])

    err = traj.states - coeffs @ basis.modes[:r]
    err_sq = l2_norms_sq(space, err)
    assert rep.max_l2_sq == pytest.approx(float(np.max(err_sq)), rel=1e-12)
    err_traj_energy = energy_series(space, err, grid.dt, params.c)
    assert rep.max_energy == pytest.approx(float(np.max(err_traj_energy)), rel=1e-12)
    # bound quotients are finite, positive, and below one on a damped run
    assert 0 < rep.ratio_energy <= 1
    assert 0 < rep.ratio_pointwise <= 1


def test_error_report_full_rank_ratios_flagged(small_run):
    space, grid, params, traj = small_run
    basis = pod.pod_basis(traj, "standard")
    r = basis.rank
    (_, (coeffs,)), = solve_rom(build_rom([(basis, r)], traj, params))
    rep, = error_reports(ErrorFrame(traj, basis, params), [(0, [coeffs])])
    # denominators collapse to round-off; quotients are reported as missing
    assert np.isnan(rep.ratio_energy)
    assert np.isnan(rep.ratio_pointwise)


def test_rom_on_invariant_subspace_matches_fe():
    """A single-mode start stays in a low-dimensional invariant subspace;
    the reduced model on a basis of the first four snapshots, which holds
    that subspace, reproduces the FE solution at every level."""
    space = assemble(32)
    grid = TimeGrid.from_dt(1.0, 0.025)
    params = WaveParams(c=1.0, G=0.002)
    traj = solve(space, grid, params, lambda x: np.sin(np.pi * x), default_u00)
    basis = pod.pod_basis(training_slice(traj, 0.075), "standard")  # 4 of 31 unknowns
    r = basis.rank
    (_, (coeffs,)), = solve_rom(build_rom([(basis, r)], traj, params))
    rom_states = coeffs @ basis.modes[:r]
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
        ref = stepping_rom_states(basis, r, traj, params)
        (_, (coeffs,)), = solve_rom(build_rom([(basis, r)], traj, params))
        gap = np.max(np.abs(coeffs @ basis.modes[:r] - ref)) / np.max(np.abs(ref))
        assert gap <= 1e-9, f"r={r}: relative gap {gap:.2e}"


def written_out_modal_coeffs(basis, r, traj, params):
    """The modal scheme with its weights written out, c^2 as c * c like the
    FE scheme, back in mode coordinates: a bitwise reference for solve_rom."""
    dt, n_levels = traj.grid.dt, traj.grid.N
    c2, d, g = params.c * params.c, params.D, params.G
    _, s_r, a1, a2 = reduced_system(basis, r, traj)
    lam, q = np.linalg.eigh(s_r)
    lhs = (1.0 / dt**2 + d / (2.0 * dt)) + (c2 / 4.0 + g / (2.0 * dt)) * lam
    b_cur = ((2.0 / dt**2) - (c2 / 2.0) * lam) / lhs
    b_prev = ((-1.0 / dt**2 + d / (2.0 * dt)) + (-c2 / 4.0 + g / (2.0 * dt)) * lam) / lhs
    z = np.empty((n_levels, r))
    z[0], z[1] = a1 @ q, a2 @ q
    for n in range(2, n_levels):
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
        [(basis, r) for r in (1, basis.rank // 2, basis.rank)],
        [(pod.pod_basis(training_slice(traj, t), method), 6)
         for t in (1.0, 0.5) for method in ("standard", "ddq")],
    ]
    for runs in stacks:
        romsys = build_rom(runs, traj, params)
        assert romsys.r == sum(r for _, r in runs)
        (_, stacked), = solve_rom(romsys)
        for (run_basis, r), coeffs in zip(runs, stacked, strict=True):
            want = written_out_modal_coeffs(run_basis, r, traj, params)
            (_, (alone,)), = solve_rom(build_rom([(run_basis, r)], traj, params))
            assert np.array_equal(alone, want), r
            assert np.array_equal(coeffs, want), r


@ROM_DAMPINGS
@pytest.mark.parametrize("c", [1.0, 2.0 / np.pi], ids=["c-1", "c-2/pi"])
def test_modal_rom_is_bitwise_the_written_out_scheme(damping, c):
    assert_rom_bitwise(c, damping)


BLOCK = 16  # levels per block of the ROM where wave._BLOCK_CELLS is 1


def test_frame_rejects_sizes_it_was_not_made_for(small_run, monkeypatch):
    """Reports of a ROM on a grid of another level count fail, in one block
    or in many; a ROM larger than its basis fails in build_rom."""
    space, grid, params, traj = small_run
    basis = pod.pod_basis(traj, "standard")
    frame = ErrorFrame(traj, basis, params)
    longer = solve(space, TimeGrid.from_dt(2.0, grid.dt), params, default_u0, default_u00)
    for cells in (wave._BLOCK_CELLS, 1):
        monkeypatch.setattr(wave, "_BLOCK_CELLS", cells)
        for other in (training_slice(traj, 1.0), longer):  # 21 and 41 levels, not 30
            with pytest.raises(ValueError, match="grids"):
                error_reports(frame, solve_rom(build_rom([(basis, 2)], other, params)))
    with pytest.raises(ValueError):
        build_rom([(basis, basis.rank + 1)], traj, params)


def test_sweep_reports_allocate_less_than_one_frame_array():
    """The reports of a 12-size sweep project the FE levels onto the modes
    one level block at a time: beyond the frame and the stack they allocate
    less than one (N-1, s) array, which projecting every level at once
    forms.  At 200 elements, dt = 1/200 and T = 10 (2001 levels, s = 199)
    the blocks are of 370 levels (sum r + n_dof = 355 columns fill 1 MiB)
    and the reports peak at about 1.5 MiB, the same at any N; one (N-1, s)
    array is 3.0 MiB."""
    space = assemble(200)
    grid = TimeGrid.from_dt(10.0, 1.0 / 200.0)
    params = WaveParams(c=1.0, D=0.1)
    traj = solve(space, grid, params, default_u0, default_u00)
    basis = pod.pod_basis(traj, "standard")
    sizes = list(range(2, 26, 2))
    frame = ErrorFrame(traj, basis, params)
    blocks = list(solve_rom(build_rom([(basis, r) for r in sizes], traj, params)))
    assert len(blocks) > 1
    tracemalloc.start()
    try:
        reports = error_reports(frame, blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(reports) == len(sizes)
    assert peak < (grid.N - 1) * basis.rank * blocks[0][1][0].itemsize, peak


@pytest.mark.parametrize("t_train,bound_mib", [(2.5, 8), (0.48, 11)],
                         ids=["full-rank", "cut"])
def test_error_frame_holds_no_whole_product(t_train, bound_mib):
    """At 400 elements, dt = 1/800 and T = 2.5 (2001 levels, 6.1 MiB of
    states), the frame and the reports of a ddq basis's 12-size stack
    r = 5, 10, ..., 60 hold no (N, s) or (N, sum r) array, 6.1 or 6.0 MiB.
    The frame holds L, M Phi and A psi (s = 399: 1.2 MiB each), and making
    it briefly holds two or three more such arrays: about 6.2 MiB.  The
    reports step blocks of 160 levels (sum r + n_dof = 789 columns fill
    1 MiB), whose z, coefficients, c and d take 0.5 MiB each beside the
    frame.  A basis of the first 385 levels (s = 385 < n_dof) adds psi and,
    per block, the off-span residuals and their differences, 0.5 MiB each:
    about 8.8 MiB.  A frame that held c and d and the tail sums per level
    peaked at 10.0 and 13.9 MiB."""
    space = assemble(400)
    params = WaveParams(c=1.0, D=0.1)
    traj = solve(space, TimeGrid.from_dt(2.5, 1.0 / 800.0), params, default_u0, default_u00)
    basis = pod.pod_basis(training_slice(traj, t_train), "ddq")
    assert (basis.rank < space.n_dof) == (t_train < 2.5)
    sizes = list(range(5, 61, 5))
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        frame = ErrorFrame(traj, basis, params)
        reports = error_reports(frame, solve_rom(build_rom([(basis, r) for r in sizes],
                                                           traj, params)))
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert len(reports) == len(sizes)
    assert peak < bound_mib << 20, peak


@pytest.mark.parametrize("n_elements,n_levels,n_train,tol", [
    *(pytest.param(24, n, n, 0.0, id=str(n)) for n in (3, BLOCK + 1, BLOCK + 2, BLOCK + 3,
                                                      2 * BLOCK + 2)),
    pytest.param(24, 201, 201, 1e-13, id="s-is-n_dof"),   # the basis spans the FE space
    pytest.param(40, 26, 26, 1e-13, id="n-below-n_dof"),  # 39 unknowns: s < n_dof
    # a basis of the first 11 of 201 levels, 23 unknowns: the later levels leave span Phi
    pytest.param(24, 201, 11, 1e-13, id="leading-window"),
])
@pytest.mark.parametrize("method", ["standard", "ddq"])
def test_reports_are_the_same_in_any_level_blocks(method, n_elements, n_levels, n_train, tol,
                                                  monkeypatch):
    """The reports of a stack of sizes, reduced from 16-level blocks as
    solve_rom yields them, are those of one block of every level.

    Bitwise for one block (N = 3, B + 1, B + 2), a last block of three
    levels (B + 3) and two full blocks (2B + 2): the stepping is elementwise,
    the norms reduce each level on its own, a maximum is exact, and at these
    sizes OpenBLAS forms each row of the products z Q^T, avg(a) L_rr and the
    projections of the levels alike for any row count.  Over the 13 blocks
    of a basis that spans the FE space and of one made from the first 11
    levels, whose later levels leave its span, and the 2 of one with fewer
    snapshots than unknowns, each maximum agrees within 1e-13 of the
    largest squared L2 norm or twice the largest energy of the states
    (c = 1), which bound it, and each ratio as its maximum: the frame fixes
    the denominator.  A few-row product of the levels with A psi^T, which
    the triangular solve leaves in Fortran order, may sum a row in another
    order than a product of every level.
    """
    space = assemble(n_elements)
    params = WaveParams(c=1.0, D=0.1)
    traj = solve(space, TimeGrid.from_dt((n_levels - 1) * 0.02, 0.02), params,
                 default_u0, default_u00)
    assert traj.grid.N == n_levels
    basis = pod.pod_basis(training_slice(traj, (n_train - 1) * 0.02), method)
    assert (basis.rank < space.n_dof) == (n_train <= space.n_dof)
    sizes = sorted({1, max(basis.rank // 2, 1), basis.rank})
    frame = ErrorFrame(traj, basis, params)
    romsys = build_rom([(basis, r) for r in sizes], traj, params)
    whole = list(solve_rom(romsys))
    assert len(whole) == 1
    monkeypatch.setattr(wave, "_BLOCK_CELLS", 1)
    blocks = list(solve_rom(romsys))
    assert len(blocks) == max(-(-(n_levels - 2) // BLOCK), 1)
    bound = {"max_l2_sq": tol * float(np.max(l2_norms_sq(space, traj.states))),
             "max_energy": tol * 2.0 * float(np.max(energy_series(
                 space, traj.states, traj.grid.dt, params.c)))}
    for got, want in zip(error_reports(frame, blocks), error_reports(frame, whole),
                         strict=True):
        for name, ratio in (("max_l2_sq", "ratio_pointwise"), ("max_energy", "ratio_energy")):
            want_max = getattr(want, name)
            assert abs(getattr(got, name) - want_max) <= bound[name], name
            np.testing.assert_allclose(getattr(got, ratio), getattr(want, ratio), atol=0,
                                       rtol=bound[name] / want_max if want_max else 0.0)


def test_stacked_coefficients_agree_with_their_own_in_other_level_blocks(monkeypatch):
    """Where a stack's level blocks split the levels elsewhere than a run's
    own (sum r + n_dof sets the block size), each run's coefficients agree
    with those of the run on its own within 1e-13 of their largest, not
    bitwise: its eigen-coordinates are bitwise the same, but at r >= 32
    OpenBLAS forms a row of z Q^T in a few-row product (here a last block of
    three levels: N - 2 = 3B + 1) in another order than in a product of
    every level."""
    space = assemble(48)
    params = WaveParams(c=1.0, D=0.1)
    traj = solve(space, TimeGrid.from_dt(1.0, 0.02), params, default_u0, default_u00)
    assert traj.grid.N == 3 * BLOCK + 3
    basis = pod.pod_basis(traj, "ddq")
    runs = [(basis, 32), (basis, 40)]
    alone = []
    for run in runs:
        (_, (coeffs,)), = solve_rom(build_rom([run], traj, params))
        alone.append(coeffs)
    monkeypatch.setattr(wave, "_BLOCK_CELLS", 1)
    blocks = list(solve_rom(build_rom(runs, traj, params)))
    for j, want in enumerate(alone):
        stacked = np.concatenate([coeffs[j][2 * (n > 0):] for n, coeffs in blocks])
        np.testing.assert_allclose(stacked, want, rtol=0.0, atol=1e-13 * np.max(np.abs(want)))


def test_reports_hold_no_whole_coefficient_array():
    """At 400 elements, dt = 1/800 and T = 2.5 (2001 levels), the reports of
    a ddq basis's 12-size stack r = 5, 10, ..., 60 (sum r = 390), streamed
    from solve_rom, take the coordinates in blocks of 160 levels: a block of
    z, its coefficients and the block's projections of the levels, about
    2.3 MiB in all.  One (N, sum r) array is 6.0 MiB."""
    space = assemble(400)
    params = WaveParams(c=1.0, D=0.1)
    traj = solve(space, TimeGrid.from_dt(2.5, 1.0 / 800.0), params, default_u0, default_u00)
    basis = pod.pod_basis(traj, "ddq")
    sizes = list(range(5, 61, 5))
    frame = ErrorFrame(traj, basis, params)
    romsys = build_rom([(basis, r) for r in sizes], traj, params)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        reports = error_reports(frame, solve_rom(romsys))
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert len(reports) == len(sizes)
    assert peak < traj.grid.N * romsys.r * 8, peak


@pytest.mark.parametrize("argv", [
    ["profiles", "--r", "4", "--times", "0", "0.4", "1", "2"],
    ["train-interval", "--t-train", "2", "1", "--r", "4"],
], ids=["profiles", "train-interval"])
def test_rom_tables_are_the_same_in_any_level_blocks(argv, tmp_path, monkeypatch, capsys):
    """profiles.csv (levels 0, 16, 40 and 80: the first, a shared, an inner
    and the last level) and train_interval.csv, from 16-level blocks of the
    ROM, are byte for byte those from one block of every level.  The second
    run takes its trajectory and bases from the study cache, so only the
    ROM's blocks differ."""
    written = []
    for cells in (wave._BLOCK_CELLS, 1):
        monkeypatch.setattr(wave, "_BLOCK_CELLS", cells)
        assert main(["--output-dir", str(tmp_path), "--n-elements", "24", "--dt", "1/40",
                     "--T", "2", "--D", "0.05", *argv]) == 0
        written.append({path.name: path.read_bytes() for path in tmp_path.iterdir()})
    assert written[0] == written[1] and len(written[0]) == 1


def test_profile_rom_columns_are_the_rom_states_of_their_levels(monkeypatch):
    """From 16-level blocks, each ROM column of profile_rows is bitwise the
    state of its level, rebuilt from one block of every level."""
    config = RunConfig(n_elements=24, dt=1.0 / 40.0, T=2.0, D=0.05, r_list=(4,),
                       times=(0.0, 0.4, 1.0, 2.0))
    traj = fe_trajectory(config)
    basis = _basis(config, traj, config.pod_method)
    (_, (coeffs,)), = solve_rom(build_rom([(basis, 4)], traj, config.wave_params()))
    monkeypatch.setattr(wave, "_BLOCK_CELLS", 1)
    _, table = profile_rows(config)  # the same trajectory and basis, from the study cache
    want = coeffs[[0, 16, 40, 80]] @ basis.modes[:4]
    assert np.array_equal(table[1:-1, 2::2].T, want)


@ROM_DAMPINGS
@settings(max_examples=10, deadline=None)
@given(c=st.floats(0.01, 100.0))
def test_modal_rom_is_bitwise_the_written_out_scheme_at_any_c(damping, c):
    assert_rom_bitwise(c, damping)


@ROM_DAMPINGS
@pytest.mark.parametrize("n_elements,T,dt,t_train", [
    (24, 4.0, 0.02, 4.0),  # 201 levels: every basis spans the FE space
    (40, 0.5, 0.02, 0.5),  # 26 levels, 39 unknowns: s < n_dof
    (24, 4.0, 0.02, 0.2),  # a basis of the first 11 levels: the later states leave span Phi
], ids=["s-is-n_dof", "n-below-n_dof", "leading-window"])
@pytest.mark.parametrize("method", pod.METHODS)
def test_modal_error_report_matches_the_full_space_report(method, n_elements, T, dt,
                                                          t_train, damping):
    """The report in POD coordinates agrees with the one computed from the
    N x n_dof difference of FE and ROM states.

    Reports at round-off level (max_l2_sq at most 1e-20 max_n ||u^n||^2)
    only agree in which ratios are nan.  Otherwise each maximum and each
    ratio's denominator, max / ratio, agrees within 1e-9 relative, or four
    times its round-off where that is larger: a quantity made of differences
    of coefficients of size ||u|| carries a relative round-off of about
    eps ||u|| / ||e||, with ||e|| its own square root, energies in the
    energy's units, and a denominator holding ||bd phi^2||^2, whose
    differences are divided by dt.  A ratio is checked as its denominator
    because its numerator is a maximum, checked on its own, whose round-off
    the ratio carries.

    Measured over the 36 cases, with one and two OpenBLAS threads: the modal
    max_energy reaches 9 times, and max_l2_sq 6 times, eps ||u|| / ||e||
    (the ddq basis of 201 levels with heavy damping, at r = 1), but those
    differences are below 3e-15 relative and pass on the 1e-9 relative
    floor.  Where four times the round-off is above the floor, the largest
    factor is 2.9: on the dq1 basis of 26 levels with heavy damping, at
    r = 13 and with two threads, max_energy is 1.04e-9 relative off.
    """
    space = assemble(n_elements)
    params = WaveParams(c=1.0, **damping)
    traj = solve(space, TimeGrid.from_dt(T, dt), params, default_u0, default_u00)
    basis = pod.pod_basis(training_slice(traj, t_train), method)
    assert (basis.rank == space.n_dof) == (basis.grid.N > space.n_dof)
    sizes = sorted({1, max(basis.rank // 2, 1), basis.rank})
    frame = ErrorFrame(traj, basis, params)
    u_sq = float(np.max(l2_norms_sq(space, traj.states)))
    u_energy = float(np.max(energy_series(space, traj.states, dt, params.c)))
    for r in sizes:
        (_, (coeffs,)), = solve_rom(build_rom([(basis, r)], traj, params))
        got, = error_reports(frame, [(0, [coeffs])])
        want = fe_reference.error_report(traj, coeffs @ basis.modes[:r], basis, r, params)
        for name in (f.name for f in fields(RomErrorReport)):
            assert np.isnan(getattr(got, name)) == np.isnan(getattr(want, name)), (r, name)
        if want.max_l2_sq <= 1e-20 * u_sq:
            continue
        got_q, want_q = _maxima_and_denominators(got), _maxima_and_denominators(want)
        roundoff = {"max_l2_sq": np.sqrt(u_sq / want.max_l2_sq),
                    "max_energy": np.sqrt(u_energy / want.max_energy)}
        for name in ("ratio_pointwise", "ratio_energy"):
            if not np.isnan(want_q[name]):
                roundoff[name] = np.sqrt(u_sq / want_q[name]) / dt
        for name, scale in roundoff.items():
            rel = max(1e-9, 4 * np.finfo(float).eps * scale)
            assert got_q[name] == pytest.approx(want_q[name], rel=rel, abs=0), (r, name)


def _maxima_and_denominators(report: RomErrorReport) -> dict:
    """The report's maxima, and under each ratio's name its denominator
    max / ratio (nan where the ratio is)."""
    return {"max_l2_sq": report.max_l2_sq, "max_energy": report.max_energy,
            "ratio_pointwise": report.max_l2_sq / report.ratio_pointwise,
            "ratio_energy": report.max_energy / report.ratio_energy}


def test_ddq_bound_ratios_hold_at_every_size_of_the_basis():
    """On 24 elements, dt = 0.02, T = 4 and D = 0.1 (201 levels, 23
    unknowns), every ddq run r = 1..s of a rom-sweep has both bound ratios
    at most 1, or nan where the denominator is round-off, as at r = s: the
    denominators sum the basis's whole eigenvalue tail, and the worst ratio
    here is 1.2e-3.  The standard rows reach 1.57; their bound is not
    proven, so they are not checked."""
    s = 23
    config = RunConfig(n_elements=24, dt=0.02, T=4.0, D=0.1,
                       r_list=tuple(range(1, s + 1)))
    _, rows = rom_sweep_rows(config)
    ddq = [row for row in rows if row[2] == "ddq"]
    assert [row[1] for row in ddq] == list(range(1, s + 1))
    for row in ddq:
        assert all(np.isnan(ratio) or ratio <= 1.0 for ratio in row[5:]), row
    assert np.isnan(ddq[-1][5:]).all()


def test_train_interval_final_error_matches_the_full_space_report():
    t_train, r = (2.0, 1.0, 0.5), 6
    config = RunConfig(n_elements=24, dt=1.0 / 48.0, T=2.0, c=1.0, D=0.1,
                       r_list=(r,), t_train=t_train)
    _, rows = train_interval_rows(config)
    space, params = assemble(24), config.wave_params()
    traj = solve(space, config.time_grid(), params, default_u0, default_u00)
    assert [row[:2] for row in rows] == [[t, m] for t in t_train for m in ("standard", "ddq")]
    for t, method, final_l2 in rows:
        basis = pod.pod_basis(training_slice(traj, t), method)
        (_, (coeffs,)), = solve_rom(build_rom([(basis, r)], traj, params))
        want = np.sqrt(l2_norms_sq(space, traj.states[-1] - coeffs[-1] @ basis.modes[:r]))
        assert final_l2 == pytest.approx(want, rel=1e-9, abs=0), (t, method)
