"""Small deterministic linear-algebra kernels used by every other module.

Every matrix the program builds is symmetric: the FE mass and stiffness
matrices and the time-step systems are symmetric tridiagonal, and the one
SPD tridiagonal factorisation serves the time stepping, the L2 projection
and the POD geometry.  The heavy lifting is delegated to LAPACK via scipy;
this module pins down the storage conventions and the error behavior the
rest of the package relies on.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg


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
        """A @ x for a vector (n,) or stacked columns (n, k)."""
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.n:
            raise ValueError(f"dimension mismatch: matrix is {self.n}, vector is {x.shape[0]}")
        d = self.diag if x.ndim == 1 else self.diag[:, None]
        y = d * x
        if self.n > 1:
            e = self.off if x.ndim == 1 else self.off[:, None]
            y[:-1] += e * x[1:]
            y[1:] += e * x[:-1]
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
        try:
            # upper band storage: row 0 holds R's superdiagonal, row 1 its diagonal
            self._cb = scipy.linalg.cholesky_banded(ab, lower=False)
        except scipy.linalg.LinAlgError as exc:
            raise LinAlgFailure(f"matrix is not SPD: {exc}") from exc

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve A x = b (b may be (n,) or (n, k))."""
        return scipy.linalg.cho_solve_banded((self._cb, False), b)

    def r_matvec(self, x: np.ndarray) -> np.ndarray:
        """R @ x (x may be (n,) or (n, k))."""
        d = self._cb[1] if x.ndim == 1 else self._cb[1][:, None]
        y = d * x
        if x.shape[0] > 1:
            s = self._cb[0, 1:] if x.ndim == 1 else self._cb[0, 1:, None]
            y[:-1] += s * x[1:]
        return y

    def r_solve(self, b: np.ndarray) -> np.ndarray:
        """Solve R x = b (back substitution; b may be (n,) or (n, k))."""
        return scipy.linalg.solve_banded((0, 1), self._cb, b)


def thin_svd(b: np.ndarray):
    """Thin SVD b = U diag(s) Vt with singular values descending.

    Returns (U, s); the right factor is discarded (callers only need the
    left subspace and the spectrum).
    """
    try:
        u, s, _ = scipy.linalg.svd(b, full_matrices=False, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise LinAlgFailure(f"SVD did not converge: {exc}") from exc
    return u, s
