import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fe_reference import h10_inner, interpolate, l2_inner, to_dense
from podwave.fem import assemble, h10_norms_sq, l2_norms_sq, l2_project
from podwave.wave import TimeGrid, WaveParams, default_u0, default_u00, sine_mode, solve


def test_assemble_two_elements():
    space = assemble(2)
    np.testing.assert_allclose(space.mass.diag, [1.0 / 3.0])
    np.testing.assert_allclose(space.stiffness.diag, [4.0])
    assert space.n_dof == 1 and space.h == 0.5


def test_assemble_four_elements():
    space = assemble(4)
    np.testing.assert_allclose(space.mass.diag, np.full(3, 1.0 / 6.0))
    np.testing.assert_allclose(space.mass.off, np.full(2, 1.0 / 24.0))
    np.testing.assert_allclose(space.stiffness.diag, np.full(3, 8.0))
    np.testing.assert_allclose(space.stiffness.off, np.full(2, -4.0))


def test_assemble_rejects_tiny_mesh():
    with pytest.raises(ValueError):
        assemble(1)


def test_stiffness_interior_row_sums_vanish():
    # constant functions have zero gradient, so interior rows sum to zero
    space = assemble(12)
    dense = to_dense(space.stiffness)
    sums = dense.sum(axis=1)
    np.testing.assert_allclose(sums[1:-1], 0.0, atol=1e-12)


def test_single_hat_norms():
    space = assemble(2)
    u = np.array([1.0])
    assert l2_inner(space, u, u) == pytest.approx(1.0 / 3.0)
    assert h10_inner(space, u, u) == pytest.approx(4.0)


def test_sine_interpolant_gradient_energy():
    # integral of (pi cos(pi x))^2 equals pi^2 / 2
    space = assemble(2000)
    u = interpolate(lambda x: np.sin(np.pi * x), space)
    assert h10_inner(space, u, u) == pytest.approx(np.pi**2 / 2.0, rel=1e-5)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 60), st.integers(0, 2**32 - 1))
@example(n=5, seed=150)  # h10_inner(u, v) cancels to 0.0172 from terms summing to 35
def test_inner_products_symmetric_positive(n, seed):
    """(u, v) and (v, u) each lie within (n_dof + 3) eps / 2 times
    |u|^T |A| |v| of the exact value (a 3-term product A v, then an n_dof-term
    dot product), so they differ by at most twice that; a bound relative to
    the result fails where the sum cancels."""
    rng = np.random.default_rng(seed)
    space = assemble(n)
    u = rng.standard_normal(space.n_dof)
    v = rng.standard_normal(space.n_dof)
    for inner, a in ((l2_inner, space.mass), (h10_inner, space.stiffness)):
        magnitude = np.abs(u) @ np.abs(to_dense(a)) @ np.abs(v)
        gap = abs(inner(space, u, v) - inner(space, v, u))
        assert gap <= (space.n_dof + 3) * np.finfo(float).eps * magnitude
    if np.any(u):
        assert l2_inner(space, u, u) > 0
        assert h10_inner(space, u, u) > 0


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 80), st.integers(0, 2**32 - 1))
def test_discrete_poincare(n, seed):
    # smallest eigenvalue of the discrete Laplacian exceeds pi^2
    rng = np.random.default_rng(seed)
    space = assemble(n)
    u = rng.standard_normal(space.n_dof)
    assert np.pi**2 * l2_inner(space, u, u) <= h10_inner(space, u, u) * (1 + 1e-10)


def test_project_zero():
    space = assemble(8)
    np.testing.assert_allclose(l2_project(lambda x: np.zeros_like(x), space), 0.0)


def test_projection_fixes_fe_functions():
    # a hat function is already in the space, so projection returns e_j
    space = assemble(10)
    j = 4  # interior node index (1-based node j+1)
    nodes = space.full_nodes

    def hat(x):
        return np.interp(x, nodes, np.eye(space.n_elements + 1)[j + 1])

    coeffs = l2_project(hat, space)
    expected = np.zeros(space.n_dof)
    expected[j] = 1.0
    np.testing.assert_allclose(coeffs, expected, atol=1e-12)


def test_projection_second_order():
    # frozen from a quadrature-based sweep: errors 9.70e-4, 2.41e-4, 6.03e-5
    errs = []
    for n in (100, 200, 400):
        space = assemble(n)
        coeffs = l2_project(default_u0, space)
        xs = np.linspace(0.0, 1.0, 20001)
        vals = np.interp(xs, space.full_nodes, np.concatenate(([0.0], coeffs, [0.0])))
        errs.append(np.sqrt(np.trapezoid((vals - default_u0(xs)) ** 2, xs)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 1.8) and np.all(orders < 2.2)
    assert errs[-1] < 1e-4


def test_columnwise_norms_match_scalar_inner():
    rng = np.random.default_rng(2)
    space = assemble(16)
    x = rng.standard_normal((space.n_dof, 5)).T  # a stack of 5 vectors
    l2 = l2_norms_sq(space, x)
    h10 = h10_norms_sq(space, x)
    for j in range(5):
        assert l2[j] == pytest.approx(l2_inner(space, x[j], x[j]), rel=1e-13)
        assert h10[j] == pytest.approx(h10_inner(space, x[j], x[j]), rel=1e-13)


@pytest.mark.parametrize("u0", [default_u0, sine_mode], ids=["default", "sine"])
def test_h10_norms_full_relative_accuracy(u0):
    """The H1_0 norms of smooth reference-scale states (400 elements,
    dt = 1/800, T = 2.5) agree with an extended-precision evaluation to
    1e-13 relative; the expanded form sum d x^2 + 2 sum o x x' loses about
    four digits to cancellation on these states."""
    space = assemble(400)
    grid = TimeGrid.from_dt(2.5, 1.0 / 800.0)
    states = solve(space, grid, WaveParams(c=1.0, D=0.1), u0, default_u00).states
    x = states.astype(np.longdouble)
    a = space.stiffness
    exact = (np.sum(x * x * a.diag.astype(np.longdouble), axis=1)
             + 2 * np.sum(x[:, 1:] * x[:, :-1] * a.off.astype(np.longdouble), axis=1))
    rel = np.abs(h10_norms_sq(space, states) - exact) / exact
    assert float(np.max(rel)) <= 1e-13


def test_one_vector_is_a_row_of_the_stack():
    """Every operator acts on the last axis: a single vector gives the
    matching row of the result for the stack."""
    rng = np.random.default_rng(3)
    space = assemble(12)
    x = rng.standard_normal((4, space.n_dof))
    chol = space.mass.cholesky()
    ops = [lambda v: l2_norms_sq(space, v), lambda v: h10_norms_sq(space, v),
           space.stiffness.matvec, lambda v: chol.r_matvec(v.copy()), chol.solve, chol.r_solve]
    for op in ops:
        stacked = op(x)
        for j in range(4):
            np.testing.assert_array_equal(op(x[j]), stacked[j])
