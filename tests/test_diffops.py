"""Difference-operator algebra: telescoping reconstructions and the discrete
product-rule identities used by the energy analysis."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fe_reference import backward_avg, centered_avg, l2_inner
from podwave import diffops
from podwave.fem import assemble


def rel_gap(a, b):
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300)
    return np.max(np.abs(a - b)) / scale


@settings(max_examples=50, deadline=None)
@given(st.integers(3, 100), st.integers(1, 20), st.integers(0, 2**32 - 1))
def test_rebuild_forward_diffs(n, dim, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, dim))
    dt = float(rng.uniform(0.01, 1.0))
    dz = diffops.forward_diff(z, dt)
    rebuilt = diffops.rebuild_forward_diffs(dz[0], diffops.second_diff(z, dt), dt)
    assert rel_gap(rebuilt, dz) <= 1e-11


@settings(max_examples=50, deadline=None)
@given(st.integers(3, 100), st.integers(1, 20), st.integers(0, 2**32 - 1))
def test_rebuild_sequence(n, dim, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, dim))
    dt = float(rng.uniform(0.01, 1.0))
    dz1 = (z[1] - z[0]) / dt
    rebuilt = diffops.rebuild_sequence(z[0], dz1, diffops.second_diff(z, dt), dt)
    assert rel_gap(rebuilt, z) <= 1e-11


def test_polynomial_sequences():
    # second differences kill linears exactly and give 2 on t^2
    t = 0.25 * np.arange(8)
    lin = np.outer(t, np.array([1.0, -2.0]))
    np.testing.assert_allclose(diffops.second_diff(lin, 0.25), 0.0, atol=1e-13)
    quad = np.outer(t**2, np.array([1.0, -2.0]))
    np.testing.assert_allclose(diffops.second_diff(quad, 0.25),
                               2.0 * np.array([1.0, -2.0]) * np.ones((6, 1)), rtol=1e-12)


def test_operator_stencils():
    z = np.array([[1.0], [4.0], [9.0], [16.0]])
    dt = 0.5
    np.testing.assert_allclose(diffops.forward_diff(z, dt)[:, 0], [6.0, 10.0, 14.0])
    np.testing.assert_allclose(diffops.second_diff(z, dt)[:, 0], [8.0, 8.0])
    np.testing.assert_allclose(backward_avg(z)[:, 0], [2.5, 6.5, 12.5])
    np.testing.assert_allclose(centered_avg(z)[:, 0], [4.5, 9.5])
    np.testing.assert_allclose(diffops.centered_diff(z, dt)[:, 0], [8.0, 12.0])


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 40), st.integers(2, 12), st.integers(0, 2**32 - 1))
def test_discrete_product_rules(n, n_elements, seed):
    """With any inner product, (dd z, cd z) telescopes the squared backward
    difference and (hat z, cd z) telescopes the squared backward average."""
    rng = np.random.default_rng(seed)
    space = assemble(n_elements)
    z = rng.standard_normal((n, space.n_dof))
    dt = float(rng.uniform(0.05, 0.5))

    dd = diffops.second_diff(z, dt)
    cd = diffops.centered_diff(z, dt)
    hat = centered_avg(z)
    bd = diffops.forward_diff(z, dt)  # the backward difference at j = 2..N
    avg = backward_avg(z)

    bd_sq = np.array([l2_inner(space, b, b) for b in bd])
    avg_sq = np.array([l2_inner(space, a, a) for a in avg])
    scale = max(np.max(bd_sq), np.max(avg_sq), 1.0) / dt

    for i in range(n - 2):
        lhs1 = l2_inner(space, dd[i], cd[i])
        rhs1 = 0.5 * (bd_sq[i + 1] - bd_sq[i]) / dt
        assert abs(lhs1 - rhs1) <= 1e-12 * scale

        lhs2 = l2_inner(space, hat[i], cd[i])
        rhs2 = 0.5 * (avg_sq[i + 1] - avg_sq[i]) / dt
        assert abs(lhs2 - rhs2) <= 1e-12 * scale
