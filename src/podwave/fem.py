"""Uniform linear finite elements on (0, 1) with zero Dirichlet boundary.

Only the interior degrees of freedom are carried; boundary values are
eliminated from every system.  Coefficient vectors are plain numpy arrays of
length n_dof = n_elements - 1; stacks of them are (k, n_dof).
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import SymTridiagonal

# 5-point Gauss-Legendre on [-1, 1]; exact for polynomials of degree 9, so
# load-vector quadrature error is negligible next to the projection error.
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(5)


@dataclass(frozen=True)
class FemSpace:
    """Mesh plus the Gram matrices of the L2 and H1_0 inner products."""

    n_elements: int
    h: float
    n_dof: int
    mass: SymTridiagonal
    stiffness: SymTridiagonal

    @property
    def nodes(self) -> np.ndarray:
        """Interior node coordinates (the DOF locations)."""
        return self.h * np.arange(1, self.n_dof + 1)

    @property
    def full_nodes(self) -> np.ndarray:
        """All node coordinates including the boundary."""
        return self.h * np.arange(self.n_elements + 1)

    def pad_boundary(self, u: np.ndarray) -> np.ndarray:
        """Append the zero boundary values on the last axis, for output."""
        u = np.asarray(u, dtype=float)
        padded = np.zeros(u.shape[:-1] + (u.shape[-1] + 2,))
        padded[..., 1:-1] = u
        return padded


def assemble(n_elements: int) -> FemSpace:
    """Build the FE space on a uniform mesh of n_elements cells."""
    if n_elements < 2:
        raise ValueError("need at least 2 elements for one interior DOF")
    h = 1.0 / n_elements
    n_dof = n_elements - 1
    mass = SymTridiagonal(diag=np.full(n_dof, 2.0 * h / 3.0), off=np.full(n_dof - 1, h / 6.0))
    stiffness = SymTridiagonal(diag=np.full(n_dof, 2.0 / h), off=np.full(n_dof - 1, -1.0 / h))
    return FemSpace(n_elements=n_elements, h=h, n_dof=n_dof, mass=mass, stiffness=stiffness)


def l2_norms_sq(space: FemSpace, x: np.ndarray) -> np.ndarray:
    """Squared L2 norms of the vectors of a stack (..., n_dof)."""
    return _quadratic_form(space.mass, x)


def h10_norms_sq(space: FemSpace, x: np.ndarray) -> np.ndarray:
    """Squared H1_0 norms of the vectors of a stack (..., n_dof)."""
    return _quadratic_form(space.stiffness, x)


def _quadratic_form(a: SymTridiagonal, x: np.ndarray) -> np.ndarray:
    """x^T A x on the last axis as sum s_i x_i^2 - sum o_i (x_{i+1} - x_i)^2,
    with s = A 1 the row sums and o the off-diagonal.  For the stiffness
    matrix no term cancels, so H1_0 norms of smooth states keep full
    relative accuracy (sum d_i x_i^2 + 2 sum o_i x_i x_{i+1} does not)."""
    s = a.matvec(np.ones(a.n))
    dx = x[..., 1:] - x[..., :-1]
    return np.einsum("...i,...i,i->...", x, x, s) - np.einsum("...i,...i,i->...", dx, dx, a.off)


def gauss_rule(f: Callable[[np.ndarray], np.ndarray], cells: int):
    """The composite 5-point Gauss rule on `cells` equal cells of (0, 1):
    the points xq (cells, 5), the weights wq (5,) of every cell, and f(xq)
    broadcast to xq.shape, so that (wq * f(xq)).sum() integrates f."""
    h = 1.0 / cells
    xq = (h * np.arange(cells))[:, None] + 0.5 * h * (_GAUSS_X[None, :] + 1.0)
    return xq, 0.5 * h * _GAUSS_W, np.broadcast_to(np.asarray(f(xq), dtype=float), xq.shape)


def load_vector(f: Callable[[np.ndarray], np.ndarray], space: FemSpace) -> np.ndarray:
    """b_i = integral of f * phi_i, by per-element Gauss quadrature."""
    _, wq, fvals = gauss_rule(f, space.n_elements)
    # local hat values: right node of the element rises, left node falls
    t = 0.5 * (_GAUSS_X + 1.0)
    contrib_right = fvals * (wq * t)        # toward node e+1
    contrib_left = fvals * (wq * (1.0 - t))  # toward node e
    b = np.zeros(space.n_elements + 1)
    np.add.at(b, np.arange(space.n_elements) + 1, contrib_right.sum(axis=1))
    np.add.at(b, np.arange(space.n_elements), contrib_left.sum(axis=1))
    return b[1:-1]


def l2_project(f: Callable[[np.ndarray], np.ndarray], space: FemSpace) -> np.ndarray:
    """Coefficients of the L2 projection of f onto the FE space."""
    return space.mass.cholesky().solve(load_vector(f, space))
