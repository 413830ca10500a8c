import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fe_reference import (SVD_TOL_EPS, backward_avg, h10_inner, l2_inner, separated_modes,
                          thin_svd_of_a_copy)
from podwave import diffops, pod, wave
from podwave.fem import assemble, h10_norms_sq, l2_norms_sq
from podwave.wave import TimeGrid, Trajectory, WaveParams, default_u0, default_u00, solve


def make_traj(space, states, dt=0.125):
    n = states.shape[0]
    grid = TimeGrid(T=(n - 1) * dt, dt=dt, N=n)
    return Trajectory(space=space, grid=grid, states=states)


def random_traj(seed, n_elements=12, n_steps=14, dt=0.125):
    rng = np.random.default_rng(seed)
    space = assemble(n_elements)
    states = rng.standard_normal((n_steps, space.n_dof))
    return make_traj(space, states, dt)


def solved_traj(n_elements=48, dt=1.0 / 48.0, T=2.0, c=1.0, D=0.05, G=0.001):
    space = assemble(n_elements)
    grid = TimeGrid.from_dt(T, dt)
    params = WaveParams(c=c, D=D, G=G)
    return solve(space, grid, params, default_u0, default_u00), params


# --- data sets ---------------------------------------------------------------


def test_dataset_weights_and_shapes():
    traj = random_traj(0)
    n, dt = traj.grid.N, traj.grid.dt
    std = pod.build_dataset(traj, "standard")
    np.testing.assert_allclose(std.weights, dt)
    np.testing.assert_allclose(std.rows(0, n), traj.states)

    dq1 = pod.build_dataset(traj, "dq1")
    assert dq1.rows(0, n).shape == (n, traj.space.n_dof)
    np.testing.assert_allclose(dq1.weights, [1.0] + [dt] * (n - 1))
    np.testing.assert_allclose(dq1.rows(0, 1)[0], traj.states[0])
    np.testing.assert_allclose(dq1.rows(3, 4)[0], (traj.states[3] - traj.states[2]) / dt)

    ddq = pod.build_dataset(traj, "ddq")
    np.testing.assert_allclose(ddq.weights, [1.0, 1.0] + [dt] * (n - 2))
    np.testing.assert_allclose(ddq.rows(1, 2)[0], (traj.states[1] - traj.states[0]) / dt)
    np.testing.assert_allclose(
        ddq.rows(4, 5)[0],
        (traj.states[4] - 2 * traj.states[3] + traj.states[2]) / dt**2)

    with pytest.raises(ValueError):
        pod.build_dataset(traj, "qdq")


def test_dataset_polynomial_time_profiles():
    space = assemble(8)
    v = np.arange(1.0, space.n_dof + 1.0)
    dt = 0.25
    t = dt * np.arange(6)

    const = make_traj(space, np.tile(v, (6, 1)), dt)
    d = pod.build_dataset(const, "ddq").rows(0, 6)
    np.testing.assert_allclose(d[0], v)
    np.testing.assert_allclose(d[1:], 0.0, atol=1e-12)

    linear = make_traj(space, np.outer(t, v), dt)
    d = pod.build_dataset(linear, "ddq").rows(0, 6)
    np.testing.assert_allclose(d[1], v, rtol=1e-12)
    np.testing.assert_allclose(d[2:], 0.0, atol=1e-11)

    quad = make_traj(space, np.outer(t**2, v), dt)
    d = pod.build_dataset(quad, "ddq").rows(0, 6)
    np.testing.assert_allclose(d[2:], np.tile(2.0 * v, (4, 1)), rtol=1e-10)


# --- basis -------------------------------------------------------------------


def test_single_column_basis():
    space = assemble(10)
    rng = np.random.default_rng(1)
    w = rng.standard_normal(space.n_dof)
    data = pod.PodDataSet(states=w[None], weights=np.array([1.0]),
                          method="standard", space=space,
                          grid=TimeGrid(T=1.0, dt=0.5, N=3))
    basis = pod.compute_basis(data)
    norm_sq = l2_inner(space, w, w)
    assert basis.rank == 1
    assert basis.eigenvalues[0] == pytest.approx(norm_sq, rel=1e-12)
    got = basis.modes[0]
    want = w / np.sqrt(norm_sq)
    np.testing.assert_allclose(got, np.sign(np.dot(got, want)) * want, rtol=1e-10)


def test_two_orthonormal_columns():
    space = assemble(10)
    rng = np.random.default_rng(2)
    vecs = rng.standard_normal((space.n_dof, 2)).T.copy()
    # Gram-Schmidt in the mass inner product
    vecs[0] /= np.sqrt(l2_inner(space, vecs[0], vecs[0]))
    vecs[1] -= l2_inner(space, vecs[1], vecs[0]) * vecs[0]
    vecs[1] /= np.sqrt(l2_inner(space, vecs[1], vecs[1]))
    data = pod.PodDataSet(states=vecs, weights=np.ones(2), method="standard",
                          space=space, grid=TimeGrid(T=1.0, dt=0.5, N=3))
    basis = pod.compute_basis(data)
    np.testing.assert_allclose(basis.eigenvalues, [1.0, 1.0], rtol=1e-10)
    # same plane: projecting the data onto the modes loses nothing
    proj = pod.project_l2(basis, 2, vecs)
    np.testing.assert_allclose(proj, vecs, rtol=1e-9, atol=1e-12)


def test_orthogonal_columns_spectrum_by_hand():
    """For mutually orthogonal data vectors the eigenvalues are just the
    weighted squared norms, sorted; an independent check of the SVD route."""
    space = assemble(64)
    x = space.nodes
    sines = np.stack([np.sin(k * np.pi * x) for k in (1, 2, 3)])
    # normalize in the mass inner product; the vectors stay mutually orthogonal
    for j in range(3):
        sines[j] /= np.sqrt(l2_inner(space, sines[j], sines[j]))
    amps = np.array([0.7, 2.0, 0.4])
    weights = np.array([0.5, 0.25, 2.0])
    data = pod.PodDataSet(states=amps[:, None] * sines, weights=weights, method="standard",
                          space=space, grid=TimeGrid(T=1.0, dt=0.5, N=3))
    basis = pod.compute_basis(data)
    expected = np.sort(weights * amps**2)[::-1]
    np.testing.assert_allclose(basis.eigenvalues, expected, rtol=1e-11)


def test_basis_orthonormal_and_trace():
    traj, _ = solved_traj()
    for method in pod.METHODS:
        data = pod.build_dataset(traj, method)
        basis = pod.compute_basis(data)
        phi = basis.modes
        gram = phi @ traj.space.mass.matvec(phi).T
        assert np.max(np.abs(gram - np.eye(basis.rank))) <= 1e-10
        vectors = data.rows(0, traj.grid.N)
        total = float(np.dot(data.weights,
                             np.einsum("ij,ij->i", vectors, traj.space.mass.matvec(vectors))))
        assert np.sum(basis.eigenvalues) == pytest.approx(total, rel=1e-10)
        assert np.all(np.diff(basis.eigenvalues) <= 1e-12 * basis.eigenvalues[0])


def test_zero_data_rejected():
    space = assemble(6)
    traj = make_traj(space, np.zeros((5, space.n_dof)))
    with pytest.raises(ValueError):
        pod.pod_basis(traj, "standard")


def test_mode_sign_convention():
    traj, _ = solved_traj(n_elements=24, T=1.0, dt=1.0 / 24.0)
    basis = pod.pod_basis(traj, "standard")
    for k in range(basis.rank):
        mode = basis.modes[k]
        nonzero = np.nonzero(np.abs(mode) > 1e-12 * np.max(np.abs(mode)))[0]
        assert mode[nonzero[0]] > 0


def test_ddq_data_linearly_independent():
    """Linearly independent snapshots give a DDQ data set of full rank N."""
    rng = np.random.default_rng(9)
    space = assemble(30)  # 29 dofs >= N
    for n in (6, 12, 20):
        states = rng.standard_normal((n, space.n_dof))
        traj = make_traj(space, states)
        basis = pod.pod_basis(traj, "ddq")
        strong = np.sum(basis.eigenvalues > 1e-10 * basis.eigenvalues[0])
        assert strong == n


# --- projections -------------------------------------------------------------


def test_l2_projection_properties():
    traj, _ = solved_traj()
    basis = pod.pod_basis(traj, "standard")
    rng = np.random.default_rng(3)
    v = rng.standard_normal(traj.space.n_dof)
    r = 6
    np.testing.assert_allclose(pod.project_l2(basis, r, basis.modes[0]),
                               basis.modes[0], rtol=1e-10, atol=1e-12)
    pv = pod.project_l2(basis, r, v)
    np.testing.assert_allclose(pod.project_l2(basis, r, pv), pv, rtol=1e-12, atol=1e-14)
    # r = s recovers anything in the data span
    full = pod.project_l2(basis, basis.rank, traj.states[4])
    np.testing.assert_allclose(full, traj.states[4], rtol=1e-9, atol=1e-12)
    with pytest.raises(ValueError):
        pod.project_l2(basis, 0, v)
    with pytest.raises(ValueError):
        pod.project_l2(basis, basis.rank + 1, v)


def test_ritz_projection_properties():
    traj, _ = solved_traj()
    space = traj.space
    basis = pod.pod_basis(traj, "standard")
    rng = np.random.default_rng(4)
    v = rng.standard_normal(space.n_dof)
    r = 7
    # fixes the subspace
    w = rng.standard_normal(r) @ basis.modes[:r]
    np.testing.assert_allclose(pod.project_ritz(basis, r, w), w, rtol=1e-10, atol=1e-12)
    # defining orthogonality in the gradient inner product
    res = v - pod.project_ritz(basis, r, v)
    scale = np.sqrt(h10_inner(space, v, v))
    for k in range(r):
        phk = basis.modes[k]
        gap = h10_inner(space, res, phk) / (scale * np.sqrt(h10_inner(space, phk, phk)))
        assert abs(gap) <= 1e-10
    # optimal in the gradient norm over the subspace
    res_l2 = v - pod.project_l2(basis, r, v)
    assert h10_inner(space, res, res) <= h10_inner(space, res_l2, res_l2) * (1 + 1e-12)


# --- error formulas ----------------------------------------------------------


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_error_formula_identity_random_data(seed):
    traj = random_traj(seed)
    for method in pod.METHODS:
        basis = pod.pod_basis(traj, method)
        data = pod.build_dataset(traj, method)
        lam1 = basis.eigenvalues[0]
        for r in (1, 4, basis.rank // 2, basis.rank):
            r = max(1, r)
            for projector in (pod.PROJECTOR_L2, pod.PROJECTOR_RITZ):
                for actual, formula in zip(pod.data_error_actual(data, basis, r, projector),
                                           pod.data_error_formula(basis, r, projector)):
                    assert abs(actual - formula) <= 1e-8 * max(formula, lam1)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_error_pairs_are_the_two_norms_of_one_residual(seed):
    """Each (L2, H1_0) pair is the two norms of one explicitly formed
    residual v - P_r v, bit for bit, for both projectors."""
    traj = random_traj(seed)
    space, dt = traj.space, traj.grid.dt
    assert pod.NORMS == ("l2", "h10")
    for method in ("dq1", "ddq"):
        basis = pod.pod_basis(traj, method)
        data = pod.build_dataset(traj, method)
        tail = basis.eigenvalues[3:]
        for projector in (pod.PROJECTOR_L2, pod.PROJECTOR_RITZ):
            project = pod._PROJECTORS[projector]
            vectors = data.rows(0, traj.grid.N)
            res = vectors - project(basis, 3, vectors)
            assert pod.data_error_actual(data, basis, 3, projector) == (
                float(np.dot(data.weights, l2_norms_sq(space, res))),
                float(np.dot(data.weights, h10_norms_sq(space, res))))
            res = traj.states - project(basis, 3, traj.states)
            l2_check, h10_check = pod.pointwise_bound_check(traj, basis, 3, projector, "sum")
            assert l2_check.lhs == float(dt * np.sum(l2_norms_sq(space, res)))
            assert h10_check.lhs == float(dt * np.sum(h10_norms_sq(space, res)))
            # the formula's residuals are those of the tail modes; the L2
            # projector leaves a tail mode whole, of L2 norm 1
            modes = basis.modes[3:]
            if projector == pod.PROJECTOR_RITZ:
                modes = modes - project(basis, 3, modes)
            l2_tail, h10_tail = pod.data_error_formula(basis, 3, projector)
            assert h10_tail == float(np.dot(tail, h10_norms_sq(space, modes)))
            l2_of_modes = float(np.dot(tail, l2_norms_sq(space, modes)))
            if projector == pod.PROJECTOR_RITZ:
                assert l2_tail == l2_of_modes
            else:
                assert l2_tail == float(np.sum(tail))
                assert abs(l2_tail - l2_of_modes) <= 1e-12 * l2_tail


def test_error_formula_zero_at_full_rank():
    traj, _ = solved_traj(n_elements=16, T=1.0, dt=0.125)
    basis = pod.pod_basis(traj, "ddq")
    for projector in (pod.PROJECTOR_L2, pod.PROJECTOR_RITZ):
        assert pod.data_error_formula(basis, basis.rank, projector) == (0.0, 0.0)


# --- bound checks ------------------------------------------------------------


def test_bound_constants_scaling():
    const = pod._BOUND_CONSTANTS
    assert const["dq1", "max"](10.0) == 20.0
    assert const["ddq", "max"](10.0) == 3000.0
    assert const["dq1", "sum"](10.0) == 400.0
    assert const["ddq", "sum"](10.0) == 60000.0
    assert const["dq1", "max"](0.5) == 2.0
    assert const["ddq", "max"](0.5) == 3.0
    assert const["dq1", "sum"](0.5) == 2.0
    assert const["ddq", "sum"](0.5) == 3.0


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_pointwise_bounds_random_data(seed):
    traj = random_traj(seed)
    for method in ("dq1", "ddq"):
        basis = pod.pod_basis(traj, method)
        for r in (1, 3, 6):
            for statistic in ("max", "sum"):
                for chk in pod.pointwise_bound_check(traj, basis, r, statistic=statistic):
                    assert chk.lhs <= chk.rhs * (1 + 1e-10)


def test_pointwise_bounds_on_solved_trajectory():
    traj, _ = solved_traj()
    for method in ("dq1", "ddq"):
        basis = pod.pod_basis(traj, method)
        for projector in (pod.PROJECTOR_L2, pod.PROJECTOR_RITZ):
            chk, _ = pod.pointwise_bound_check(traj, basis, 8, projector=projector)
            assert chk.rhs > 0 and 0 <= chk.lhs <= chk.rhs


def test_pointwise_bound_full_rank_degenerates():
    traj, _ = solved_traj(n_elements=16, T=1.0, dt=0.125)
    basis = pod.pod_basis(traj, "ddq")
    chk, _ = pod.pointwise_bound_check(traj, basis, basis.rank)
    scale = basis.eigenvalues[0]
    assert chk.rhs == 0.0
    assert chk.lhs <= 1e-9 * scale


def test_pointwise_bound_rejects_standard():
    traj, _ = solved_traj(n_elements=16, T=1.0, dt=0.125)
    basis = pod.pod_basis(traj, "standard")
    with pytest.raises(ValueError):
        pod.pointwise_bound_check(traj, basis, 2)


# --- sequence-level bound inequalities ----------------------------------------


def _sequence_bound_gaps(space, z, dt):
    """Evaluate every max-norm sequence bound; returns lhs/rhs ratios."""
    from podwave import diffops

    n = z.shape[0]
    T = (n - 1) * dt
    snapshot_max = pod._BOUND_CONSTANTS["dq1", "max"](T)
    snapshot_max_ddq = pod._BOUND_CONSTANTS["ddq", "max"](T)
    diff_max = 2.0 * max(T, 1.0)  # the constant of the difference-quotient bounds

    def norms_sq(seq):
        return np.einsum("ij,ij->i", seq, space.mass.matvec(seq))

    z_sq = norms_sq(z)
    dz = diffops.forward_diff(z, dt)
    dz_sq = norms_sq(dz)
    dd_sq = norms_sq(diffops.second_diff(z, dt))
    avg_sq = norms_sq(backward_avg(z))
    cd_sq = norms_sq(diffops.centered_diff(z, dt))

    ddq_base = z_sq[0] + dz_sq[0] + dt * np.sum(dd_sq)
    diff_base = dz_sq[0] + dt * np.sum(dd_sq)
    dq_base = z_sq[0] + dt * np.sum(dz_sq)

    return [
        (np.max(z_sq), snapshot_max_ddq * ddq_base),
        (np.max(avg_sq), snapshot_max_ddq * ddq_base),
        (np.max(dz_sq), diff_max * diff_base),      # forward and backward
        (np.max(cd_sq), diff_max * diff_base),      # centered difference
        (np.max(z_sq), snapshot_max * dq_base),
    ]


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 60), st.integers(2, 10), st.integers(0, 2**32 - 1))
def test_sequence_bounds_random(n, n_elements, seed):
    rng = np.random.default_rng(seed)
    space = assemble(n_elements)
    z = rng.standard_normal((n, space.n_dof))
    dt = float(rng.uniform(0.01, 0.8))
    for lhs, rhs in _sequence_bound_gaps(space, z, dt):
        assert lhs <= rhs * (1 + 1e-12)


def test_sequence_bounds_on_pod_error_sequences():
    """The same inequalities hold for the actual projection-error sequences
    z^j = u^j - P u^j of a solved trajectory."""
    traj, _ = solved_traj()
    space = traj.space
    for method in ("dq1", "ddq"):
        basis = pod.pod_basis(traj, method)
        for r in (3, 8):
            for projector in (pod.PROJECTOR_L2, pod.PROJECTOR_RITZ):
                proj = pod._PROJECTORS[projector](basis, r, traj.states)
                err_seq = traj.states - proj
                for lhs, rhs in _sequence_bound_gaps(space, err_seq, traj.grid.dt):
                    assert lhs <= rhs * (1 + 1e-12)


@pytest.mark.parametrize("method", pod.METHODS)
def test_basis_agrees_with_an_svd_on_a_copy(method, monkeypatch):
    """compute_basis, fed R W^(1/2) data in row blocks of 16 vectors, agrees
    with the QR and SVD of a copy of the whole stack: each sigma within
    SVD_TOL_EPS * eps * sigma_1, so each
    eigenvalue within that times 2 sigma_k plus its square, and each mode j
    separated from its neighbours by gap_j >= 1e-2 sigma_1 within twice that
    over gap_j in the L2 norm, as R maps modes to singular vectors."""
    monkeypatch.setattr(wave, "_BLOCK_CELLS", 1)  # 16-row blocks: 81 levels in 5
    traj, _ = solved_traj(n_elements=24, dt=1.0 / 40.0)
    data = pod.build_dataset(traj, method)
    chol = traj.space.mass.cholesky()
    b = chol.r_matvec(data.rows(0, traj.grid.N) * np.sqrt(data.weights)[:, None])
    u, sing = thin_svd_of_a_copy(b)
    modes = chol.r_solve(u)
    basis = pod.compute_basis(data)
    assert basis.rank == sing.size
    tol = SVD_TOL_EPS * np.finfo(float).eps * sing[0]
    assert np.all(np.abs(basis.eigenvalues - sing ** 2) <= tol * (2.0 * sing + tol))
    separated, gaps = separated_modes(sing)
    assert separated.size > 1
    for j in separated:
        sign = np.sign(l2_inner(traj.space, basis.modes[j], modes[j]))
        diff = basis.modes[j] - sign * modes[j]
        assert np.sqrt(l2_inner(traj.space, diff, diff)) <= 2.0 * tol / gaps[j]


def traced_peak(fn):
    """The tracemalloc peak of one call fn(), in bytes above what was held."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def reference_traj():
    """400 elements, dt = 1/800, T = 2.5: 2001 levels, 6.1 MiB of states."""
    return solved_traj(n_elements=400, dt=1.0 / 800.0, T=2.5)[0]


def test_compute_basis_holds_no_whole_data_stack(reference_traj):
    """The ddq data stack of the reference trajectory is 6.1 MiB.
    compute_basis holds two or three 1 MiB row blocks of it, the 399 x 399
    triangle and gesdd's workspace, five triangles more: about 7.3 MiB
    whatever the level count (12.2 MiB when it held the scaled stack)."""
    data = pod.build_dataset(reference_traj, "ddq")
    peak = traced_peak(lambda: pod.compute_basis(data))
    assert peak < 8 << 20, peak


@pytest.mark.parametrize("projector", (pod.PROJECTOR_L2, pod.PROJECTOR_RITZ))
def test_data_error_actual_holds_no_whole_residual(reference_traj, projector):
    """Over the 2001 ddq data vectors of the reference trajectory and 60
    modes, data_error_actual holds a few 1 MiB row blocks of data and
    residual: about 3.1 MiB (12.3 MiB with the whole residual stack)."""
    basis = pod.pod_basis(reference_traj, "ddq")
    data = pod.build_dataset(reference_traj, "ddq")
    peak = traced_peak(lambda: pod.data_error_actual(data, basis, 60, projector))
    assert peak < 4 << 20, peak


@pytest.mark.parametrize("method", pod.METHODS)
def test_data_rows_are_bitwise_the_same_in_any_row_blocks(method):
    """Every row block of a data set, the leading rows included, is bitwise
    the matching rows of the data vectors written out whole."""
    traj = random_traj(3, n_steps=23)
    u, dt, n = traj.states, traj.grid.dt, traj.grid.N
    whole = {"standard": u,
             "dq1": np.concatenate((u[:1], diffops.forward_diff(u, dt))),
             "ddq": np.concatenate((u[:1], diffops.forward_diff(u[:2], dt),
                                    diffops.second_diff(u, dt)))}[method]
    data = pod.build_dataset(traj, method)
    for rows in (1, 2, 3, 5, n):
        blocks = [data.rows(lo, min(lo + rows, n)) for lo in range(0, n, rows)]
        assert np.array_equal(np.concatenate(blocks), whole)
    for lo, hi in ((0, 0), (1, 1), (0, 1), (1, 2), (1, 3), (2, 2), (n - 1, n)):
        assert np.array_equal(data.rows(lo, hi), whole[lo:hi])


def test_data_error_actual_is_the_same_in_any_row_blocks(monkeypatch):
    """The data errors and the snapshot-bound sides summed over row blocks of
    16 vectors agree with one block to round-off (1e-13 relative)."""
    traj, _ = solved_traj(n_elements=24, dt=1.0 / 40.0)
    basis = pod.pod_basis(traj, "ddq")
    data = pod.build_dataset(traj, "ddq")

    def sides():
        out = []
        for projector in (pod.PROJECTOR_L2, pod.PROJECTOR_RITZ):
            out += pod.data_error_actual(data, basis, 5, projector)
            for check in pod.pointwise_bound_check(traj, basis, 5, projector):
                out += [check.lhs, check.rhs]
        return out

    whole = sides()
    monkeypatch.setattr(wave, "_BLOCK_CELLS", 1)
    np.testing.assert_allclose(sides(), whole, rtol=1e-13)


def test_mode_signs_follow_the_first_nonzero_coefficient():
    """The sign rule, mode by mode: rows with a negative leading coefficient
    flip, a leading coefficient below 1e-12 of the row's largest does not
    count, and an all-zero row is left alone."""
    modes = np.random.default_rng(8).standard_normal((6, 9))
    modes[1, :3] = [-1e-14, 0.0, 2.0]   # the first coefficient is round-off
    modes[2, :3] = [0.0, -1e-14, -2.0]
    modes[3] = 0.0
    expected = modes.copy()
    for mode in expected:
        nonzero = np.flatnonzero(np.abs(mode) > 1e-12 * np.max(np.abs(mode)))
        if nonzero.size and mode[nonzero[0]] < 0:
            mode *= -1.0
    pod._fix_mode_signs(modes)
    assert np.array_equal(modes, expected)
    assert modes[1, 0] == -1e-14 and modes[2, 2] == 2.0
