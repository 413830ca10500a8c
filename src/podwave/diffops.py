"""Difference-quotient operators on snapshot sequences.

A sequence is an array z of shape (N, ...) whose leading axis is time with
spacing dt.  Each operator returns the stack of values over its valid index
range, so lengths shrink by one or two:

    forward_diff    (z[j+1] - z[j]) / dt                 j = 1..N-1   -> N-1
    second_diff     (z[j+1] - 2 z[j] + z[j-1]) / dt^2    j = 2..N-1   -> N-2
    centered_diff   (z[j+1] - z[j-1]) / (2 dt)           j = 2..N-1   -> N-2

(indices above are 1-based as in the time grid convention t_j = (j-1) dt).
"""

import numpy as np


def forward_diff(z: np.ndarray, dt: float) -> np.ndarray:
    return (z[1:] - z[:-1]) / dt


def second_diff(z: np.ndarray, dt: float) -> np.ndarray:
    return (z[2:] - 2.0 * z[1:-1] + z[:-2]) / (dt * dt)


def centered_diff(z: np.ndarray, dt: float) -> np.ndarray:
    return (z[2:] - z[:-2]) / (2.0 * dt)


def rebuild_forward_diffs(dz1: np.ndarray, ddqs: np.ndarray, dt: float) -> np.ndarray:
    """Recover all forward differences from the first one plus the second
    difference quotients:

        dz^n = dz^1 + dt * sum_{i=2..n} ddz^i,   n = 1..N-1.

    dz1 is the first forward difference, ddqs the stack of N-2 second
    difference quotients.  Returns an array of shape (N-1, ...).
    """
    partial = dt * np.cumsum(ddqs, axis=0)
    return np.concatenate((dz1[None], dz1[None] + partial), axis=0)


def rebuild_sequence(z1: np.ndarray, dz1: np.ndarray, ddqs: np.ndarray, dt: float) -> np.ndarray:
    """Recover the whole sequence from z^1, its first forward difference and
    the second difference quotients:

        z^n = z^1 + (n-1) dt dz^1 + dt^2 sum_{i=2..n-1} (n-i) ddz^i,

    evaluated as z^n = z^1 + dt sum_{k<n} dz^k over the rebuilt forward
    differences.  Returns the full (N, ...) stack.
    """
    partial = dt * np.cumsum(rebuild_forward_diffs(dz1, ddqs, dt), axis=0)
    return np.concatenate((z1[None], z1[None] + partial), axis=0)
