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

LAPACK is called through ctypes on numpy's own OpenBLAS, the one BLAS of
a run: numpy's Linux wheel (numpy >= 2.0) ships it as
numpy.libs/libscipy_openblas64_-*.so, with the ILP64 ABI (every INTEGER is
64 bits) and LAPACK routine x as the symbol scipy_x_64_.  Arguments go as
Fortran takes them: by reference, arrays column-major, and each CHARACTER
with gfortran's hidden size_t length after the last argument.  As scipy's
wrappers of these routines did, the factorisations and the solves work on
copies of their inputs, and the SVD and the QR fold on the column-major
arrays that thin_svd owns.

Stacks of vectors are arrays (k, n) with the vector index first; every
operator acts on the last axis, and a single vector (n,) is the k-less case
of the same code.  LAPACK's column layout stays inside this module, except
that thin_svd factors a column-major row block without copying it.
"""

import contextlib
import ctypes
import glob
import os
from dataclasses import dataclass

import numpy as np

_ROUTINES = ("dpbtrf", "dpbtrs", "dtbtrs", "dtpqrt", "dgesdd", "dpotrf", "dtrtrs")


def _load_openblas(folder: str) -> dict:
    """The LAPACK routines of this module and the thread-count calls of
    numpy's OpenBLAS, by name, from the library in folder."""
    try:
        lib = ctypes.CDLL(glob.glob(os.path.join(folder, "libscipy_openblas64_-*.so"))[0])
        calls = {name: getattr(lib, f"scipy_{name}_64_") for name in _ROUTINES}
        for call in calls.values():
            call.restype = None
        for name in ("get_num_threads", "set_num_threads"):
            calls[name] = getattr(lib, f"scipy_openblas_{name}64_")
        return calls
    except (IndexError, OSError, AttributeError):
        raise ImportError("podwave needs numpy's OpenBLAS with LAPACK, libscipy_openblas64_-*.so "
                          f"of numpy's Linux wheel (numpy>=2.0), and found none in {folder}") from None


_openblas = _load_openblas(os.path.dirname(np.__file__) + ".libs")
_TPQRT_NB = 32  # dtpqrt's block size: the columns of each compact-WY reflector block


def _arguments(*values):
    """The ctypes arguments of a LAPACK call of values, and its INFO: a
    bytes value is a CHARACTER, an array goes by its address, as does a
    c_void_p, an int by reference as an INTEGER; INFO follows them, then the
    hidden length of each CHARACTER.  The caller keeps the arrays alive."""
    info = ctypes.c_int64()
    args = [v if isinstance(v, (bytes, ctypes.c_void_p)) else ctypes.c_void_p(v.ctypes.data)
            if isinstance(v, np.ndarray) else ctypes.byref(ctypes.c_int64(v)) for v in values]
    lengths = [ctypes.c_size_t(1) for v in values if isinstance(v, bytes)]
    return (*args, ctypes.byref(info), *lengths), info


def _lapack(name: str, *values) -> int:
    """Call LAPACK routine name on values, as _arguments passes them;
    returns INFO."""
    args, info = _arguments(*values)
    _openblas[name](*args)
    return info.value


@contextlib.contextmanager
def one_blas_thread():
    """Run the body on one thread of numpy's OpenBLAS, the one BLAS of a
    run, then restore its thread count, whether or not the body raised.  A
    threaded GEMM or LAPACK call sums in an order that depends on its thread
    count, so unpinned, the last digits of a result depend on
    OPENBLAS_NUM_THREADS."""
    saved = _openblas["get_num_threads"]()
    _openblas["set_num_threads"](1)
    try:
        yield
    finally:
        _openblas["set_num_threads"](saved)


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


# the CHARACTERs of a banded solve on R's upper band: dpbtrs solves R^T R x = b,
# dtbtrs R x = b (not transposed, R's own diagonal)
_BANDED_SOLVES = {"dpbtrs": (b"U",), "dtbtrs": (b"U", b"N", b"N")}


class BandedCholesky:
    """Cholesky factorisation A = R^T R of a SPD tridiagonal matrix, with R
    upper bidiagonal.  Raises LinAlgFailure on a non-positive pivot.

    Factor once and solve many times: time stepping solves the same system
    thousands of times, each solve a pair of banded triangular sweeps.  A
    vector's solve sets the factor's own copy of its address, so a factor is
    not to be shared between threads.
    """

    def __init__(self, a: SymTridiagonal):
        # upper band storage: row 0 holds R's superdiagonal, row 1 its diagonal
        self._cb = np.zeros((2, a.n), order="F")
        self._cb[0, 1:] = a.off
        self._cb[1, :] = a.diag
        _check_finite(self._cb)
        info = _lapack("dpbtrf", b"U", a.n, 1, self._cb, 2)
        _check_info("dpbtrf", info, f"matrix is not SPD: {info}-th leading minor not positive definite")
        # a vector's solve takes arguments built once, but for the address
        # _x of its copy of b: reading it by ndarray.ctypes, 1.2 us, would be
        # a fifth of a solve at 199 unknowns, and by ctypes.c_char takes 0.4
        self._x = ctypes.c_void_p()
        self._vector = {name: (_openblas[name], *_arguments(*chars, a.n, 1, 1, self._cb, 2, self._x, a.n))
                        for name, chars in _BANDED_SOLVES.items()}

    def _lapack_solve(self, name: str, b: np.ndarray) -> np.ndarray:
        """LAPACK's banded solve name on the factor, of b (..., n) on its
        last axis; ValueError unless b has length n and is finite."""
        b = np.asarray(b, dtype=float)
        n = self._cb.shape[1]
        if b.shape[-1] != n:
            raise ValueError(f"dimension mismatch: matrix is {n}, right-hand side is {b.shape[-1]}")
        if np.count_nonzero(np.isfinite(b)) != b.size:  # .all() takes longer on a step's vector
            raise ValueError("right-hand side must be finite")
        if b.size == 0:  # nothing to solve, and dtbtrs would still scan R's diagonal
            return np.empty(b.shape)
        x = np.array(b, order="C")  # LAPACK solves in a copy of b; a stack (k, n) is (n, k) to it
        if b.ndim == 1:
            routine, args, info = self._vector[name]
            self._x.value = ctypes.addressof(ctypes.c_char.from_buffer(x))
            routine(*args)
            _check_info(name, info.value)
        else:
            _check_info(name, _lapack(name, *_BANDED_SOLVES[name], n, 1, b.size // n, self._cb, 2, x, n))
        return x

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve A x = b on the last axis of b (..., n) by LAPACK dpbtrs."""
        return self._lapack_solve("dpbtrs", b)

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
        return self._lapack_solve("dtbtrs", b)


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
    # R = W S Z^T, so R^T = Z S W^T: U^T is the right factor Z^T of R; dgesdd
    # overwrites its column-major copy of R's leading rows, for k < n a copy
    s, u, ut = np.empty(m), np.empty((m, m), order="F"), np.empty((m, n), order="F")
    svd = (b"S", m, n, np.asfortranarray(r[:m]), m, s, u, m, ut, m)
    work, iwork = np.empty(1), np.empty(8 * m, dtype=np.int64)
    _check_info("dgesdd", _lapack("dgesdd", *svd, work, -1, iwork))  # the workspace size; checks m, n
    work = np.empty(int(work[0]))
    info = _lapack("dgesdd", *svd, work, work.size, iwork)
    _check_info("dgesdd", info, f"SVD did not converge: dgesdd info={info}")
    return ut, s


def _fold(r: np.ndarray, block: np.ndarray) -> int:
    """Fold a row block (m, n) into the column-major triangle r (n, n) in
    place by dtpqrt: r becomes the triangle of the QR factorisation of r
    stacked on the block.  dtpqrt overwrites the block, or its column-major
    copy where it is not column-major.  Returns m."""
    n = r.shape[0]
    if block.ndim != 2 or block.shape[1] != n:
        raise ValueError(f"dimension mismatch: triangle is {n}, row block is {block.shape}")
    block = np.asfortranarray(block, dtype=float)
    m, nb = block.shape[0], min(_TPQRT_NB, n)
    t = np.empty((nb, n), order="F")  # the reflector blocks, which the fold drops
    _check_info("dtpqrt", _lapack("dtpqrt", m, n, 0, nb, r, n, block, max(1, m), t, nb, np.empty(nb * n)))
    return m


def cholesky(a: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor L, column-major, of a finite SPD matrix
    a = L L^T (m, m); LinAlgFailure unless a is SPD."""
    _check_finite(a)
    lower = np.array(a, dtype=float, order="F")  # dpotrf factors a copy
    m = len(lower)
    if lower.shape != (m, m):
        raise ValueError(f"matrix must be square, not {lower.shape}")
    info = _lapack("dpotrf", b"L", m, lower, max(1, m))
    _check_info("dpotrf", info, f"{info}-th leading minor of the array is not positive definite")
    lower[np.triu_indices(m, 1)] = 0.0  # dpotrf leaves the upper triangle of a
    return lower


def solve_triangular(a: np.ndarray, b: np.ndarray, lower: bool, trans: bool = False):
    """Solve a x = b, or a^T x = b with trans, for the lower (else upper)
    triangle of a finite a (m, m) and b (m,) or (m, k), by one LAPACK dtrtrs
    call; an a that is not column-major is copied to column-major first."""
    _check_finite(a, b)
    if b.size == 0:  # as in scipy: LAPACK is not called without columns
        return np.empty(b.shape)
    a = np.asfortranarray(a, dtype=float)
    x = np.array(b, dtype=float, order="F")  # dtrtrs solves in a copy of b
    m = len(x)
    if a.shape != (m, m) or x.ndim > 2:
        raise ValueError(f"dimension mismatch: matrix is {a.shape}, right-hand side is {x.shape}")
    info = _lapack("dtrtrs", b"L" if lower else b"U", b"T" if trans else b"N", b"N",
                   m, x.size // m, a, m, x, m)
    _check_info("dtrtrs", info, f"singular matrix: resolution failed at diagonal {info - 1}")
    return x


def _check_finite(*arrays):
    """ValueError unless every array is finite, as scipy checks its inputs."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("array must not contain infs or NaNs")


def _check_info(name: str, info: int, failure: str = ""):
    """LinAlgFailure unless LAPACK's info is 0: failure, if given, for the
    routine's own failure (info > 0), else the routine's name and info."""
    if info > 0 and failure:
        raise LinAlgFailure(failure)
    if info:
        raise LinAlgFailure(f"function {name} failed with info={info}")
