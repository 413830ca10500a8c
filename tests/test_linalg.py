import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from fe_reference import SVD_TOL_EPS, banded_upper, separated_modes, thin_svd_of_a_copy, to_dense
import podwave
from podwave import linalg
from podwave.linalg import LinAlgFailure, SymTridiagonal, cholesky, solve_triangular, thin_svd


def random_spd_tridiag(rng, n):
    """Diagonally dominant symmetric tridiagonal, hence SPD."""
    off = rng.uniform(-1.0, 1.0, size=max(n - 1, 0))
    diag = 2.0 + np.abs(rng.uniform(0.0, 1.0, size=n))
    if n > 1:
        diag[:-1] += np.abs(off)
        diag[1:] += np.abs(off)
    return SymTridiagonal(diag=diag, off=off)


def dense_r(factor, n):
    """The upper bidiagonal factor R as a dense matrix: row i of
    r_matvec(I) is R e_i, the column i of R."""
    return factor.r_matvec(np.eye(n)).T


def test_solve_identity():
    a = SymTridiagonal(diag=np.ones(3), off=np.zeros(2))
    np.testing.assert_allclose(a.cholesky().solve(np.array([3.0, 4.0, 5.0])), [3, 4, 5])


def test_solve_second_difference_matrix():
    # forward elimination by hand gives (0.75, 0.5, 0.25)
    a = SymTridiagonal(diag=np.array([2.0, 2.0, 2.0]), off=np.array([-1.0, -1.0]))
    x = a.cholesky().solve(np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(x, [0.75, 0.5, 0.25], rtol=1e-14)


def test_solve_dimension_mismatch():
    a = SymTridiagonal(diag=np.ones(2), off=np.zeros(1))
    with pytest.raises(ValueError):
        a.cholesky().solve(np.ones(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_rejects_non_finite_rhs(bad):
    a = SymTridiagonal(diag=np.full(3, 2.0), off=np.full(2, -1.0))
    b = np.array([1.0, bad, 0.0])
    with pytest.raises(ValueError, match="finite"):
        a.cholesky().solve(b)
    with pytest.raises(ValueError, match="finite"):
        a.cholesky().solve(np.stack([np.ones(3), b]))
    with pytest.raises(ValueError, match="finite"):
        a.cholesky().r_solve(b)


def test_solve_one_unknown():
    a = SymTridiagonal(diag=np.array([4.0]), off=np.zeros(0))
    assert a.cholesky().solve(np.array([2.0])).tolist() == [0.5]
    assert a.cholesky().solve(np.array([[2.0], [-8.0]])).tolist() == [[0.5], [-2.0]]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 50), st.integers(0, 5), st.integers(0, 2**32 - 1))
def test_solve_is_bitwise_cho_solve_banded(n, k, seed):
    """A stack of k right-hand sides gives bit for bit the columns of
    scipy's cho_solve_banded on the same factor."""
    rng = np.random.default_rng(seed)
    a = random_spd_tridiag(rng, n)
    b = rng.standard_normal((k, n))
    cb = scipy.linalg.cholesky_banded(banded_upper(a), lower=False)
    expected = scipy.linalg.cho_solve_banded((cb, False), b.T).T
    assert np.array_equal(a.cholesky().solve(b), expected)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 50), st.integers(0, 5), st.integers(0, 2**32 - 1))
def test_r_solve_is_bitwise_solve_banded(n, k, seed):
    """A stack of k right-hand sides gives bit for bit the columns of
    scipy's solve_banded on the same upper bidiagonal factor R."""
    rng = np.random.default_rng(seed)
    a = random_spd_tridiag(rng, n)
    b = rng.standard_normal((k, n))
    cb = scipy.linalg.cholesky_banded(banded_upper(a), lower=False)
    expected = scipy.linalg.solve_banded((0, 1), cb, b.T).T
    assert np.array_equal(a.cholesky().r_solve(b), expected)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 50), st.integers(0, 2**32 - 1))
def test_solve_round_trip(n, seed):
    rng = np.random.default_rng(seed)
    a = random_spd_tridiag(rng, n)
    x = rng.standard_normal(n)
    got = a.cholesky().solve(a.matvec(x))
    np.testing.assert_allclose(got, x, rtol=1e-10, atol=1e-12)


def test_cholesky_diagonal():
    a = SymTridiagonal(diag=np.array([4.0, 9.0]), off=np.zeros(1))
    np.testing.assert_allclose(dense_r(a.cholesky(), 2), np.diag([2.0, 3.0]))


def test_cholesky_hand_factorization():
    a = SymTridiagonal(diag=np.array([2.0, 2.0]), off=np.array([-1.0]))
    r = dense_r(a.cholesky(), 2)
    np.testing.assert_allclose(np.diag(r), [np.sqrt(2.0), np.sqrt(1.5)], rtol=1e-15)
    np.testing.assert_allclose(r[0, 1], -1.0 / np.sqrt(2.0), rtol=1e-15)
    assert r[1, 0] == 0.0


def test_cholesky_rejects_indefinite():
    a = SymTridiagonal(diag=np.array([1.0, 1.0]), off=np.array([3.0]))
    with pytest.raises(LinAlgFailure):
        a.cholesky()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 50), st.integers(0, 2**32 - 1))
def test_cholesky_reconstruction(n, seed):
    rng = np.random.default_rng(seed)
    a = random_spd_tridiag(rng, n)
    r = dense_r(a.cholesky(), n)
    residual = np.max(np.abs(r.T @ r - to_dense(a)))
    assert residual <= 1e-12 * np.max(np.abs(to_dense(a)))


def test_transpose_solve_matches_dense():
    rng = np.random.default_rng(7)
    a = random_spd_tridiag(rng, 9)
    factor = a.cholesky()
    b = rng.standard_normal((9, 3))
    r = np.linalg.cholesky(to_dense(a)).T  # the unique upper factor with positive diagonal
    np.testing.assert_allclose(factor.r_solve(b.T), np.linalg.solve(r, b).T,
                               rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(factor.r_matvec(b.T.copy()), (r @ b).T, rtol=1e-13)


def test_reusable_solvers_match_one_shot():
    rng = np.random.default_rng(11)
    a = random_spd_tridiag(rng, 20)
    factor = a.cholesky()
    b = rng.standard_normal((20, 4))
    stacked = factor.solve(b.T)
    for j in range(4):
        np.testing.assert_allclose(stacked[j], a.cholesky().solve(b[:, j]), rtol=1e-12)
    np.testing.assert_allclose(stacked, np.linalg.solve(to_dense(a), b).T, rtol=1e-12)


def test_thin_svd_orthonormal_and_exact():
    rng = np.random.default_rng(5)
    b = rng.standard_normal((12, 40))
    stack = b.T  # the stack of the 40 columns of b
    u, s = thin_svd(stack, row_blocks_of(stack, 40))
    assert np.max(np.abs(u @ u.T - np.eye(12))) <= 1e-13
    assert np.all(np.diff(s) <= 1e-12)
    np.testing.assert_allclose(np.sum(s**2), np.sum(b * b), rtol=1e-12)


@pytest.mark.parametrize("shape", [(30,), (7, 30), (3, 5, 30)])
def test_r_matvec_in_place_is_bitwise_the_product(shape):
    """r_matvec overwrites its argument with the bits of the product formed
    in a new array."""
    rng = np.random.default_rng(6)
    factor = random_spd_tridiag(rng, 30).cholesky()
    x = rng.standard_normal(shape)
    diag, upper = factor._cb[1], factor._cb[0, 1:]
    expected = diag * x
    expected[..., :-1] += upper * x[..., 1:]
    assert factor.r_matvec(x) is x
    assert np.array_equal(x, expected)


def test_r_matvec_allocates_one_array_the_size_of_its_argument():
    """r_matvec's one temporary is R's superdiagonal term: a stack of 400
    vectors of 400 entries takes its own size more, with room for numpy's
    small ufunc buffers, not twice its size."""
    factor = random_spd_tridiag(np.random.default_rng(6), 400).cholesky()
    x = np.random.default_rng(7).standard_normal((400, 400))
    tracemalloc.start()
    try:
        factor.r_matvec(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * x.nbytes, peak


def row_blocks_of(b, rows, order="F"):
    """b in consecutive blocks of the given row count, copies laid out in
    the given order."""
    return (np.array(b[lo:lo + rows], order=order) for lo in range(0, b.shape[0], rows))


@pytest.mark.parametrize("shape", [(12, 40), (40, 12), (24, 12), (23, 12), (12, 12)])
def test_thin_svd_agrees_with_an_svd_of_a_copy(shape):
    """thin_svd, of b in row blocks of any size, one block included, laid
    out row- or column-major, agrees with the QR and SVD of a copy:
    |delta sigma_k| <= SVD_TOL_EPS * eps * sigma_1 for k < n, k > n and
    k = n stacks, and each mode j whose sigma_j is separated from its
    neighbours by gap_j >= 1e-2 sigma_1 within twice that over gap_j (Wedin's
    bound for the difference of the two backward errors)."""
    b = np.random.default_rng(7).standard_normal(shape)
    u_ref, s_ref = thin_svd_of_a_copy(b)
    tol = SVD_TOL_EPS * np.finfo(float).eps * s_ref[0]
    separated, gaps = separated_modes(s_ref)
    assert separated.size > 0
    for order in ("C", "F"):
        for rows in (1, 5, shape[0]):
            u, s = thin_svd(b, row_blocks_of(b, rows, order))
            assert u.shape == u_ref.shape and s.shape == s_ref.shape
            assert np.max(np.abs(s - s_ref)) <= tol
            for j in separated:
                sign = np.sign(u[j] @ u_ref[j])
                assert np.linalg.norm(u[j] - sign * u_ref[j]) <= 2.0 * tol / gaps[j]


def test_thin_svd_holds_one_row_block_and_the_triangle():
    """Fed in row blocks, thin_svd holds a block, the n x n triangle and the
    SVD's workspace: for 4000 vectors of 100 entries, in blocks of 400,
    under a quarter of the stack's size."""
    b = np.random.default_rng(8).standard_normal((4000, 100))
    tracemalloc.start()
    try:
        thin_svd(b, row_blocks_of(b, 400))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < b.nbytes / 4, peak


def test_thin_svd_rejects_blocks_that_miss_rows():
    b = np.random.default_rng(9).standard_normal((30, 8))
    with pytest.raises(ValueError):
        thin_svd(b, row_blocks_of(b[:20], 10))


@pytest.mark.parametrize("shape", [(400, 60), (120, 60), (90, 60)])
def test_thin_svd_is_as_accurate_as_the_direct_svd(shape):
    """On a graded matrix, sigma from 1 down to 1e-14, sigma agrees with the
    exact values and with LAPACK's direct gesdd to a few eps * sigma_1, and
    the span of the leading j singular vectors with gesdd's to a few
    eps * sigma_1 / (sigma_j - sigma_j+1), the bound of a backward-stable
    SVD."""
    k, n = shape
    rng = np.random.default_rng(9)
    sigma = np.logspace(0.0, -14.0, n)
    v, _ = np.linalg.qr(rng.standard_normal((k, n)))
    w, _ = np.linalg.qr(rng.standard_normal((n, n)))
    b = (v * sigma) @ w.T  # the stack of the k columns of w diag(sigma) v^T
    u_direct, s_direct, _ = scipy.linalg.svd(b.T, full_matrices=False, lapack_driver="gesdd")
    u, s = thin_svd(b, row_blocks_of(b, k))
    tol = 16.0 * np.finfo(float).eps * s_direct[0]
    assert np.max(np.abs(s - s_direct)) <= tol
    assert np.max(np.abs(s - sigma)) <= tol
    for j in (1, 5, 20, 40):
        span, span_direct = u[:j].T @ u[:j], u_direct[:, :j] @ u_direct[:, :j].T
        assert np.linalg.norm(span - span_direct, 2) <= tol / (s_direct[j - 1] - s_direct[j])


# Each LAPACK call of podwave.linalg stands in for the scipy.linalg function
# named in the test, with the same arguments: the results are bitwise equal.
# The dense Cholesky factor is numpy's, whose OpenBLAS podwave calls.

def random_spd(rng, m):
    """A dense SPD matrix (m, m), row-major as np.inner makes the reduced
    stiffness."""
    g = rng.standard_normal((m, m))
    return np.inner(g, g) + m * np.eye(m)


@pytest.mark.parametrize("layout", ["F", "C", "sliced"])
@pytest.mark.parametrize("lower", [True, False])
@pytest.mark.parametrize("trans", [False, True])
@pytest.mark.parametrize("columns", [None, 5])
def test_solve_triangular_is_bitwise_scipy(layout, lower, trans, columns):
    """Column-major, row-major and sliced (lower[:r, :r] of a column-major
    factor) triangles, as the error frame and the error reports pass them,
    for a vector and for a stack of right-hand sides.  A triangle that is
    not column-major is solved as its column-major copy, where scipy would
    solve its transpose: the two calls round differently."""
    rng = np.random.default_rng(31)
    m, r = 40, 23
    factor = np.asfortranarray(scipy.linalg.cholesky(random_spd(rng, m), lower=lower))
    a = {"F": factor, "C": np.ascontiguousarray(factor), "sliced": factor[:r, :r]}[layout]
    b = rng.standard_normal(a.shape[:1] + ((columns,) if columns else ()))
    expected = scipy.linalg.solve_triangular(np.asfortranarray(a), b, lower=lower,
                                             trans="T" if trans else "N")
    assert np.array_equal(solve_triangular(a, b, lower=lower, trans=trans), expected)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 50), st.integers(0, 2**32 - 1))
def test_banded_factor_is_bitwise_cholesky_banded(n, seed):
    a = random_spd_tridiag(np.random.default_rng(seed), n)
    cb = scipy.linalg.cholesky_banded(banded_upper(a), lower=False)
    assert np.array_equal(dense_r(a.cholesky(), n), np.diag(cb[1]) + np.diag(cb[0, 1:], 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 60), st.integers(0, 2**32 - 1))
def test_cholesky_is_bitwise_numpy(m, seed):
    """The reduced-stiffness factor, of a row-major matrix as np.inner
    makes it and of a column-major one: numpy's dpotrf, on the same
    OpenBLAS as podwave's."""
    a = random_spd(np.random.default_rng(seed), m)
    expected = np.linalg.cholesky(a)
    assert np.array_equal(cholesky(a), expected)
    assert np.array_equal(cholesky(np.asfortranarray(a)), expected)


@pytest.mark.parametrize("shape", [(12, 40), (40, 12), (12, 12), (300, 60)])
def test_thin_svd_is_bitwise_the_svd_of_its_triangle(shape):
    """thin_svd's SVD is scipy.linalg.svd's of a copy of the folded triangle."""
    k, n = shape
    b = np.random.default_rng(8).standard_normal(shape)
    triangle = np.zeros((n, n), order="F")
    for block in row_blocks_of(b, 7):
        linalg._fold(triangle, block)
    _, s_ref, ut_ref = scipy.linalg.svd(triangle[:min(k, n)].copy(), full_matrices=False)
    ut, s = thin_svd(b, row_blocks_of(b, 7))
    assert np.array_equal(s, s_ref) and np.array_equal(ut, ut_ref)


def test_lapack_failures_match_scipy():
    """A non-SPD matrix is a LinAlgFailure with scipy's message, and a
    non-finite input a ValueError, as in scipy."""
    indefinite = np.array([[1.0, 3.0], [3.0, 1.0]])
    with pytest.raises(scipy.linalg.LinAlgError) as expected:
        scipy.linalg.cholesky(indefinite, lower=True)
    with pytest.raises(LinAlgFailure) as got:
        cholesky(indefinite)
    assert str(got.value) == str(expected.value)
    with pytest.raises(LinAlgFailure, match="^matrix is not SPD: 2-th leading minor not positive"):
        SymTridiagonal(diag=np.array([1.0, 1.0]), off=np.array([3.0])).cholesky()
    with pytest.raises(LinAlgFailure, match="singular matrix: resolution failed at diagonal 1"):
        solve_triangular(np.array([[1.0, 0.0], [1.0, 0.0]], order="F"), np.ones(2), lower=True)

    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="infs or NaNs"):
            cholesky(np.array([[1.0, bad], [bad, 1.0]]))
        with pytest.raises(ValueError, match="infs or NaNs"):
            SymTridiagonal(diag=np.array([1.0, bad]), off=np.array([0.0])).cholesky()
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_triangular(np.eye(2), np.array([1.0, bad]), lower=True)
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_triangular(np.array([[1.0, 0.0], [bad, 1.0]]), np.ones(2), lower=True)


def test_openblas_lookup_fails_in_one_line(tmp_path):
    """Where numpy's OpenBLAS is missing, `import podwave` ends in one
    ImportError that names the library and where it was looked for."""
    with pytest.raises(ImportError) as error:
        linalg._load_openblas(str(tmp_path))
    message = str(error.value)
    assert "\n" not in message and "libscipy_openblas64_-*.so" in message and str(tmp_path) in message


LAPACK_FAILURES = """
import sys
sys.modules["scipy"] = None  # import scipy fails, as where it is not installed
import numpy as np
from podwave import linalg
for fail in (lambda: linalg.SymTridiagonal(np.ones(2), np.array([3.0])).cholesky(),
             lambda: linalg.cholesky(np.array([[1.0, 3.0], [3.0, 1.0]])),
             lambda: linalg.solve_triangular(np.array([[1.0, 0.0], [1.0, 0.0]]), np.ones(2), lower=True)):
    try:
        fail()
    except linalg.LinAlgFailure as exc:
        print(exc)
print(linalg.SymTridiagonal(np.full(3, 2.0), np.full(2, -1.0)).cholesky().r_solve(np.empty((0, 3))).shape)
"""


def test_lapack_failures_keep_their_messages_without_scipy():
    """The LAPACK failure paths through ctypes, where scipy cannot be
    imported: a non-SPD banded and dense matrix and a singular triangle
    end in their messages, and a dtbtrs solve of no columns returns none."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(podwave.__file__)))
    run = subprocess.run([sys.executable, "-c", LAPACK_FAILURES], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["matrix is not SPD: 2-th leading minor not positive definite",
                                       "2-th leading minor of the array is not positive definite",
                                       "singular matrix: resolution failed at diagonal 1",
                                       "(0, 3)"]
