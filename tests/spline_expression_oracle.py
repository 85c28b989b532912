"""The not-a-knot spline of given samples, each node array formed by one numpy expression.

:func:`dropsed.quadrature.spline_slopes` and :func:`dropsed.quadrature.hermite`
return the matrices of the spline's linear maps, built from the few nonzero
terms of the unit samples.  Run here on the identity, y = I, with a
temporary per operation, the spline gives those matrices in the same
arithmetic and summation order, so tests require equal bits.
"""

from __future__ import annotations

import numpy as np


def spline_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Node slopes of the not-a-knot cubic spline; ``x`` is assumed valid."""
    n = x.size
    dx = np.diff(x)
    col = dx.reshape((-1,) + (1,) * (y.ndim - 1))
    slope = np.diff(y, axis=0) / col
    rhs = np.empty_like(y)
    rhs[1:-1] = 3.0 * (col[1:] * slope[:-1] + col[:-1] * slope[1:])
    d = x[2] - x[0]
    rhs[0] = ((dx[0] + 2.0 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    upper = [d, *dx[:-1].tolist()]
    d = x[-1] - x[-3]
    rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2.0 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    lower = [*dx[1:].tolist(), d]
    diag = [dx[1], *(2.0 * (dx[:-1] + dx[1:])).tolist(), dx[-2]]
    pivot = [diag[0]]
    factor = []
    for i in range(1, n):
        factor.append(lower[i - 1] / pivot[-1])
        pivot.append(diag[i] - factor[-1] * upper[i - 1])
    for i in range(1, n):
        rhs[i] -= factor[i - 1] * rhs[i - 1]
    rhs[-1] /= pivot[-1]
    for i in range(n - 2, -1, -1):
        rhs[i] -= upper[i] * rhs[i + 1]
        rhs[i] /= pivot[i]
    return rhs


def hermite(x: np.ndarray, y: np.ndarray, s: np.ndarray, at) -> np.ndarray:
    """Cubic-Hermite interpolant of node values ``y`` and slopes ``s`` at ``at``."""
    at = np.asarray(at, dtype=float)
    pts = at.reshape(-1)
    k = np.clip(np.searchsorted(x, pts, side="right") - 1, 0, x.size - 2)
    h = x[k + 1] - x[k]
    t = (pts - x[k]) / h
    w = ((1.0 + 2.0 * t) * (1.0 - t) ** 2, h * t * (1.0 - t) ** 2,
         t * t * (3.0 - 2.0 * t), h * t * t * (t - 1.0))
    w = [wi.reshape((-1,) + (1,) * (y.ndim - 1)) for wi in w]
    out = w[0] * y[k] + w[1] * s[k] + w[2] * y[k + 1] + w[3] * s[k + 1]
    return out.reshape(at.shape + y.shape[1:])
