"""The tiled pair sum with broadcast separations and numpy axis sums.

:func:`dropsed.micro_sim._interaction_sum` forms each tile's separation
planes as a batched rank-2 matrix product and takes the tile's row and column
sums as matrix-vector products with a vector of ones.  This module keeps the
form it replaced: the same tiles, clamping and Oseen kernel, with the planes
from a broadcast ``np.subtract`` and the sums from ``np.sum`` along an axis.
Tests compare the two.
"""

from __future__ import annotations

import numpy as np

from dropsed.kernels import oseen_terms


def interaction_sum(positions: np.ndarray, delta: float) -> tuple[np.ndarray, int]:
    """The (N, 3) responses to e3 at mu = 1 and the count of clamped ordered pairs."""
    n = positions.shape[0]
    x = np.ascontiguousarray(positions.T)
    b = min(200, n)  # the replaced sum's tile
    acc = np.zeros((4, n))
    work_buf = np.empty(4 * b * b)
    r2_buf = np.empty(b * b)
    coef_buf = np.empty(b * b)
    clamped_pairs = 0
    for i0 in range(0, n, b):
        i1 = min(i0 + b, n)
        for j0 in range(i0, n, b):
            j1 = min(j0 + b, n)
            shape = (i1 - i0, j1 - j0)
            cells = shape[0] * shape[1]
            work = work_buf[:4 * cells].reshape(4, *shape)
            d = work[:3]
            r2 = r2_buf[:cells].reshape(shape)
            coef = coef_buf[:cells].reshape(shape)
            np.subtract(x[:, i0:i1, None], x[:, None, j0:j1], out=d)
            np.einsum("kij,kij->ij", d, d, out=r2)
            if i0 == j0:
                np.fill_diagonal(r2, np.inf)
            close = int(np.count_nonzero(np.sqrt(r2) < delta))  # the clamp's own test
            clamped_pairs += close if i0 == j0 else 2 * close
            oseen_terms(d, r2, delta, work[3], coef)
            np.multiply(d, coef, out=d)
            acc[:, i0:i1] += work.sum(axis=2)
            if i0 != j0:
                acc[:, j0:j1] += work.sum(axis=1)
    vel = acc[:3]
    vel[2] += acc[3]
    return vel.T, clamped_pairs
