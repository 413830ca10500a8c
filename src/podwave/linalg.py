"""Small deterministic linear-algebra kernels used by every other module.

Every matrix the program builds is symmetric: the FE mass and stiffness
matrices and the time-step systems are symmetric tridiagonal, and the one
SPD tridiagonal factorisation serves the time stepping, the L2 projection
and the POD geometry.  The heavy lifting is delegated to LAPACK; this module
pins down the storage conventions and the error behavior the rest of the
package relies on.  The thin SVD of the POD data is a blocked QR: it takes
the data only as row blocks, folds them one at a time into one triangle and
takes the SVD of the triangle's rows that the data fills, so the data is
never held whole.

This is the one module that imports scipy, and only its compiled LAPACK
extension: the scipy.linalg package's __init__ imports numpy.f2py and
numpy.testing, 0.3-0.45 s and 24 MiB of every process (2-vCPU VM).  Where
scipy.linalg was called, the same LAPACK routines are called, with scipy's
arguments for column-major input, so that those results are bitwise scipy's.

Stacks of vectors are arrays (k, n) with the vector index first; every
operator acts on the last axis, and a single vector (n,) is the k-less case
of the same code.  LAPACK's column layout stays inside this module, except
that thin_svd factors a column-major row block without copying it.
"""

import contextlib
import ctypes
import functools
import glob
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np


def _load_flapack():
    """scipy's compiled LAPACK module, loaded from its file without running
    scipy/__init__ or scipy/linalg/__init__: the extension needs only numpy.
    A copy that scipy.linalg has already loaded is reused."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("podwave needs scipy, which is not installed")
    folder = os.path.join(spec.submodule_search_locations[0], "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_flapack" + suffix)
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader(name, path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(name, path, loader=loader))
            loader.exec_module(module)
            return module
    raise ImportError(f"scipy's LAPACK extension _flapack is not in {folder}")


_lapack = _load_flapack()
_TPQRT_NB = 32  # dtpqrt's block size: the columns of each compact-WY reflector block


@functools.cache
def _openblas_thread_calls():
    """(get, set) of the thread count of numpy's OpenBLAS (matmul) and of
    scipy's (this module's LAPACK calls), found once by file in their wheels'
    .libs folders; none where a build links another BLAS."""
    calls = []
    for package, pattern, suffix in (
            (os.path.dirname(np.__file__), "libscipy_openblas64_-*.so", "64_"),
            (os.path.dirname(os.path.dirname(_lapack.__file__)), "libscipy_openblas-*.so", "")):
        for path in glob.glob(os.path.join(package + ".libs", pattern)):
            try:
                lib = ctypes.CDLL(path)
                calls.append((getattr(lib, f"scipy_openblas_get_num_threads{suffix}"),
                              getattr(lib, f"scipy_openblas_set_num_threads{suffix}")))
            except (OSError, AttributeError):
                pass
    return calls


@contextlib.contextmanager
def one_blas_thread():
    """Run the body on one thread of each OpenBLAS, then restore their thread
    counts, whether or not it raised.  A threaded GEMM or LAPACK call sums in
    an order that depends on its thread count, so unpinned, the last digits
    of a result depend on OPENBLAS_NUM_THREADS."""
    calls = _openblas_thread_calls()
    saved = [get() for get, _ in calls]
    for _, put in calls:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(calls, saved):
            put(count)


class LinAlgFailure(RuntimeError):
    """A factorization or solve failed (non-SPD pivot, singular system)."""


@dataclass(frozen=True)
class SymTridiagonal:
    """Symmetric tridiagonal matrix: diag has length n, off length n-1."""

    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "diag", np.asarray(self.diag, dtype=float))
        object.__setattr__(self, "off", np.asarray(self.off, dtype=float))
        n = self.diag.shape[0]
        if n < 1:
            raise ValueError("tridiagonal matrix needs at least one row")
        if self.off.shape[0] != n - 1:
            raise ValueError("off-diagonal length must be n-1")

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x on the last axis of x, a vector (n,) or a stack (..., n)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.n:
            raise ValueError(f"dimension mismatch: matrix is {self.n}, vector is {x.shape[-1]}")
        y = self.diag * x
        y[..., :-1] += self.off * x[..., 1:]
        y[..., 1:] += self.off * x[..., :-1]
        return y

    def scaled_add(self, alpha: float, other: "SymTridiagonal", beta: float) -> "SymTridiagonal":
        """alpha * self + beta * other."""
        return SymTridiagonal(alpha * self.diag + beta * other.diag,
                              alpha * self.off + beta * other.off)

    def cholesky(self) -> "BandedCholesky":
        """The Cholesky factor; LinAlgFailure unless the matrix is SPD."""
        return BandedCholesky(self)


class BandedCholesky:
    """Cholesky factorisation A = R^T R of a SPD tridiagonal matrix, with R
    upper bidiagonal.  Raises LinAlgFailure on a non-positive pivot.

    Factor once and solve many times: time stepping solves the same system
    thousands of times, each solve a pair of banded triangular sweeps.
    """

    def __init__(self, a: SymTridiagonal):
        ab = np.zeros((2, a.n))
        ab[0, 1:] = a.off
        ab[1, :] = a.diag
        _check_finite(ab)
        # upper band storage: row 0 holds R's superdiagonal, row 1 its diagonal
        self._cb, info = _lapack.dpbtrf(ab, lower=0)
        _check_info(_lapack.dpbtrf, info,
                    f"matrix is not SPD: {info}-th leading minor not positive definite")

    def _lapack_solve(self, routine, b: np.ndarray) -> np.ndarray:
        """A LAPACK banded solve on the factor, in the upper band storage that
        is its default, of b (..., n) on its last axis; ValueError unless b
        has length n and is finite."""
        b = np.asarray(b, dtype=float)
        if b.shape[-1] != self._cb.shape[1]:
            raise ValueError(f"dimension mismatch: matrix is {self._cb.shape[1]}, "
                             f"right-hand side is {b.shape[-1]}")
        if not np.isfinite(b).all():
            raise ValueError("right-hand side must be finite")
        if b.size == 0:  # scipy's dtbtrs wrapper corrupts the heap on no columns
            return np.empty(b.shape)
        x, info = routine(self._cb, b.reshape(-1, b.shape[-1]).T)
        _check_info(routine, info)
        return x.T.reshape(b.shape)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve A x = b on the last axis of b (..., n).

        Calls LAPACK dpbtrs on the factor directly: time stepping solves
        once per step, and the scipy wrapper's per-call dispatch costs more
        than the two banded sweeps of a small system.
        """
        return self._lapack_solve(_lapack.dpbtrs, b)

    def r_matvec(self, x: np.ndarray) -> np.ndarray:
        """R @ x on the last axis of x (..., n), in place: x, a float array,
        is overwritten with the product and returned.  The one temporary is
        R's superdiagonal term, an array the size of x, so the POD data
        matrix is formed one row block at a time."""
        upper = self._cb[0, 1:] * x[..., 1:]
        x *= self._cb[1]
        x[..., :-1] += upper
        return x

    def r_solve(self, b: np.ndarray) -> np.ndarray:
        """Solve R x = b on the last axis of b (..., n) by back substitution."""
        return self._lapack_solve(_lapack.dtbtrs, b)


def thin_svd(b: np.ndarray, rows):
    """Thin SVD of a stack b (k, n) of vectors, read as the (n, k) matrix
    b^T = U diag(s) V^T with singular values descending.

    Returns (U^T, s): the left singular vectors as a stack (m, n) and the
    spectrum (m,), m = min(k, n); the right factor is not returned.  rows
    yields the stack in consecutive row blocks, float arrays (k_i, n) that
    may be overwritten; b gives only its shape.

    Each block is folded into an n x n triangle R by LAPACK dtpqrt, the QR
    factorisation of R stacked on the block (the flat-tree blocked
    tall-skinny QR of Demmel, Grigori, Hoemmen and Langou, 2012), so that
    b = Q R and b is never held whole.  As b^T = R^T Q^T, the
    SVD of R^T has the U and s of b^T and never forms the k-long right
    factor (Chan's R-SVD).  Only the leading m rows of R hold the data
    (for k < n the rest is round-off), so the SVD is of those m x n rows.
    """
    k, n = b.shape
    r = np.zeros((n, n), order="F")
    # the generator's scope drops the last block before the SVD's workspace is taken
    folded = sum(_fold(r, block) for block in rows)
    if folded != k:
        raise ValueError(f"the row blocks hold {folded} rows, the stack {k}")
    m = min(k, n)
    work, _ = _lapack.dgesdd_lwork(m, n, compute_uv=1, full_matrices=0)  # dgesdd checks m, n
    # R = W S Z^T, so R^T = Z S W^T: U^T is the right factor Z^T of R
    _, s, ut, info = _lapack.dgesdd(r[:m], compute_uv=1, lwork=int(work.real),
                                    full_matrices=0, overwrite_a=1)
    _check_info(_lapack.dgesdd, info, f"SVD did not converge: dgesdd info={info}")
    return ut, s


def _fold(r: np.ndarray, block: np.ndarray) -> int:
    """Fold a row block (m, n) into the column-major triangle r (n, n) in
    place by dtpqrt: r becomes the triangle of the QR factorisation of r
    stacked on the block, which it may overwrite.  Returns m."""
    _, _, _, info = _lapack.dtpqrt(0, min(_TPQRT_NB, r.shape[0]), r, block,
                                   overwrite_a=True, overwrite_b=True)
    _check_info(_lapack.dtpqrt, info)
    return block.shape[0]


def cholesky(a: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor L, column-major, of a finite SPD matrix
    a = L L^T (m, m); LinAlgFailure unless a is SPD."""
    _check_finite(a)
    lower, info = _lapack.dpotrf(a, lower=1, overwrite_a=0, clean=1)
    _check_info(_lapack.dpotrf, info,
                f"{info}-th leading minor of the array is not positive definite")
    return lower


def solve_triangular(a: np.ndarray, b: np.ndarray, lower: bool, trans: bool = False):
    """Solve a x = b, or a^T x = b with trans, for the lower (else upper)
    triangle of a finite a (m, m) and b (m,) or (m, k), by one LAPACK dtrtrs
    call; an a that is not column-major is copied to column-major first."""
    _check_finite(a, b)
    if b.size == 0:  # as in scipy: LAPACK is not called without columns
        return np.empty(b.shape)
    x, info = _lapack.dtrtrs(a, b, lower=lower, trans=trans)
    _check_info(_lapack.dtrtrs, info, f"singular matrix: resolution failed at diagonal {info - 1}")
    return x


def _check_finite(*arrays):
    """ValueError unless every array is finite, as scipy checks its inputs."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("array must not contain infs or NaNs")


def _check_info(routine, info: int, failure: str = ""):
    """LinAlgFailure unless LAPACK's info is 0: failure, if given, for the
    routine's own failure (info > 0), else the routine's name and info."""
    if info > 0 and failure:
        raise LinAlgFailure(failure)
    if info:
        raise LinAlgFailure(f"{routine.__name__} failed with info={info}")
