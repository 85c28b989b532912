"""Angular grids, Simpson weights, time-step counts, the Legendre basis and the spline.

Everything here is deterministic and stateless: grids are frozen dataclasses,
the rest are pure functions of their inputs.  Composite Simpson is the
package's one quadrature rule; its weights are built here and contracted by
the callers with samples taken once on the whole node array.  The step
count of a uniform time grid lives here too, shared by every time loop in
the package.  The polynomial basis is the shifted Legendre family in the
eigenvalue table's normalization.  The package's one interpolant is the
not-a-knot cubic spline, split into its node slopes
(:func:`spline_slopes`) and the cubic-Hermite evaluation between nodes
(:func:`hermite`), so a linear map of the samples can be built from the
identity matrix in one call each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "ThetaGrid",
    "PhiGrid",
    "simpson_weights",
    "step_count",
    "snapshot_stride",
    "basis_matrix",
    "MAX_BASIS_DEGREE",
    "spline_slopes",
    "hermite",
]

# Highest polynomial degree the three-term recurrence is contracted for.
# The recurrence itself is stable far beyond this; the cap just keeps
# requests honest.
MAX_BASIS_DEGREE = 256


def simpson_weights(n_nodes: int, spacing: float) -> np.ndarray:
    """Composite Simpson weights for ``n_nodes`` uniformly spaced samples.

    For an even panel count (odd ``n_nodes``) this is the classic
    1,4,2,...,4,1 rule.  For an odd panel count the last interval is handled
    by fitting a parabola through the final three samples, which keeps the
    rule fourth-order for any ``n_nodes >= 3``.
    """
    if n_nodes < 3:
        raise ValueError(f"Simpson needs at least 3 samples, got {n_nodes}")
    w = np.zeros(n_nodes)
    if n_nodes % 2 == 1:
        w[0] = w[-1] = 1.0
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w *= spacing / 3.0
    else:
        w[: n_nodes - 1] = simpson_weights(n_nodes - 1, spacing)
        w[-1] += 5.0 * spacing / 12.0
        w[-2] += 8.0 * spacing / 12.0
        w[-3] -= spacing / 12.0
    return w


@dataclass(frozen=True)
class ThetaGrid:
    """Uniform polar-angle grid on [0, pi] including both endpoints, a value of its node count."""

    n_theta: int

    @classmethod
    def uniform(cls, n_theta: int) -> "ThetaGrid":
        return cls(n_theta)

    def __post_init__(self):
        if self.n_theta < 3:
            raise ValueError(f"n_theta must be >= 3, got {self.n_theta}")

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, math.pi, self.n_theta)

    @property
    def spacing(self) -> float:
        return math.pi / (self.n_theta - 1)

    def weights(self) -> np.ndarray:
        return simpson_weights(self.n_theta, self.spacing)


@dataclass(frozen=True)
class PhiGrid:
    """Azimuthal grid size; it changes no value, as every azimuthal integral is closed-form."""

    n_phi: int

    @classmethod
    def uniform(cls, n_phi: int) -> "PhiGrid":
        if n_phi < 3:
            raise ValueError(f"n_phi must be >= 3, got {n_phi}")
        return cls(n_phi=n_phi)


def step_count(T: float, dt: float, name: str = "T") -> int:
    """Number of steps dt that end exactly at time T: the one check of a time grid.

    Raises unless T and dt are finite, T >= 0, dt > 0 and T is a whole
    number of steps, up to a relative rounding tolerance of 1e-9, so a time
    loop never silently stops short of or past T.  ``name`` is the quantity
    the error message names.
    """
    if not (math.isfinite(T) and math.isfinite(dt)):
        raise ValueError(f"{name}={T!r} and dt={dt!r} must both be finite")
    if not (T >= 0 and dt > 0):
        raise ValueError(f"need {name} >= 0 and dt > 0, got {name}={T!r} and dt={dt!r}")
    ratio = T / dt
    n = round(ratio)
    if abs(ratio - n) > 1e-9 * max(1.0, abs(ratio)):
        raise ValueError(f"{name}={T!r} is not a whole number of steps dt={dt!r}")
    return int(n)


def snapshot_stride(snapshot_every: float | None, dt: float, n_steps: int) -> int:
    """Steps between stored snapshots of a time loop of ``n_steps`` steps dt.

    ``snapshot_every`` must be a whole number (at least one) of steps dt, so
    snapshots land exactly where asked; None or 0 means only the final state.
    """
    if not snapshot_every:
        return max(1, n_steps)
    every = step_count(snapshot_every, dt, "snapshot_every")
    if every < 1:
        raise ValueError(f"snapshot_every={snapshot_every!r} must span at least one step dt={dt!r}")
    return every


def _legendre_pair(k_max: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Legendre P_k(x) and P_k'(x) for k = 0..k_max via the three-term recurrence."""
    x = np.asarray(x, dtype=float)
    P = np.zeros((k_max + 1,) + x.shape)
    dP = np.zeros_like(P)
    P[0] = 1.0
    if k_max >= 1:
        P[1] = x
        dP[1] = 1.0
    for k in range(1, k_max):
        P[k + 1] = ((2 * k + 1) * x * P[k] - k * P[k - 1]) / (k + 1)
        dP[k + 1] = ((2 * k + 1) * (P[k] + x * dP[k]) - k * dP[k - 1]) / (k + 1)
    return P, dP


def _polar_angles(theta) -> np.ndarray:
    """``theta`` as a float array, rejected unless it lies in [0, pi] to within 1e-12."""
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < -1e-12) or np.any(theta > math.pi + 1e-12):
        raise ValueError("theta outside [0, pi]")
    return theta


def basis_matrix(n_funcs: int, theta: np.ndarray):
    """Stacked values and derivatives of e_0..e_{n_funcs-1}, shape (n_funcs, len(theta)).

    e_k is the Legendre polynomial P_k shifted from [-1, 1] to [0, pi] by the
    affine map x = 2*theta/pi - 1 and scaled to unit norm in x, the
    convention the eigenvalue table is quoted in: each e_k has squared
    L2(0, pi) norm pi/2.  Values and derivatives both come from the
    recurrence; nothing is finite-differenced.
    """
    if n_funcs < 1 or n_funcs - 1 > MAX_BASIS_DEGREE:
        raise ValueError(f"need 1 <= n_funcs <= {MAX_BASIS_DEGREE + 1}, got {n_funcs}")
    x = 2.0 * _polar_angles(theta) / math.pi - 1.0
    P, dP = _legendre_pair(n_funcs - 1, x)
    c = np.sqrt((2 * np.arange(n_funcs) + 1) / 2.0)[:, None]
    return c * P[:n_funcs], c * dP[:n_funcs] * (2.0 / math.pi)


def spline_slopes(nodes, values) -> np.ndarray:
    """Node slopes of the not-a-knot cubic spline through (nodes, values).

    ``values`` has shape (n, ...), one spline per trailing index, and the
    result has the same shape.  The slopes solve one tridiagonal system: a
    continuous second derivative at each interior node, and a continuous
    third derivative at the second and the second-to-last node (the
    not-a-knot ends).  With fewer than 4 nodes those two end conditions are
    one and the same, so such a spline is rejected.

    The system is solved by one forward and one back sweep over the rows,
    each row update vectorized over the trailing axes.  No pivoting is
    needed: the pivots are dx1, then dx0 + dx1, then each interior one
    exceeds 2 dx(i-1) + dx(i), which leaves the last one positive too.  A
    pivot that still comes out nonpositive (overflow or underflow in the
    spacings) raises.
    """
    x = np.asarray(nodes, dtype=float)
    y = np.asarray(values, dtype=float)
    n = x.size
    if x.ndim != 1 or n < 4:
        raise ValueError(f"a not-a-knot spline needs a 1-d array of at least 4 nodes, "
                         f"got shape {x.shape}")
    if y.shape[:1] != (n,):
        raise ValueError(f"values of shape {y.shape} do not match {n} nodes")
    dx = np.diff(x)
    if not np.all(dx > 0):
        raise ValueError("spline nodes must increase strictly")
    col = dx.reshape((-1,) + (1,) * (y.ndim - 1))
    slope = np.diff(y, axis=0) / col
    rhs = np.empty_like(y)
    rhs[1:-1] = 3.0 * (col[1:] * slope[:-1] + col[:-1] * slope[1:])
    d = x[2] - x[0]
    rhs[0] = ((dx[0] + 2.0 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    upper = [d, *dx[:-1].tolist()]  # upper[i] couples row i to slope i + 1
    d = x[-1] - x[-3]
    rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2.0 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    lower = [*dx[1:].tolist(), d]  # lower[i - 1] couples row i to slope i - 1
    diag = [dx[1], *(2.0 * (dx[:-1] + dx[1:])).tolist(), dx[-2]]
    pivot = [diag[0]]
    factor = []
    for i in range(1, n):
        factor.append(lower[i - 1] / pivot[-1])
        pivot.append(diag[i] - factor[-1] * upper[i - 1])
        if not pivot[-1] > 0:
            raise ArithmeticError(f"spline system pivot {i} is {pivot[-1]!r}, not positive")
    for i in range(1, n):
        rhs[i] -= factor[i - 1] * rhs[i - 1]
    rhs[-1] /= pivot[-1]
    for i in range(n - 2, -1, -1):
        rhs[i] -= upper[i] * rhs[i + 1]
        rhs[i] /= pivot[i]
    return rhs


def hermite(nodes, values, slopes, at) -> np.ndarray:
    """Cubic-Hermite interpolant of node values and slopes, evaluated at ``at``.

    ``values`` and ``slopes`` have shape (n, ...); the result has shape
    ``at.shape + values.shape[1:]``.  With the slopes of :func:`spline_slopes`
    this is the not-a-knot spline.  A point outside the nodes' range
    continues the end interval's cubic, and a node returns its own value
    exactly.
    """
    x = np.asarray(nodes, dtype=float)
    at = np.asarray(at, dtype=float)
    y = np.asarray(values, dtype=float)
    s = np.asarray(slopes, dtype=float)
    pts = at.reshape(-1)
    k = np.clip(np.searchsorted(x, pts, side="right") - 1, 0, x.size - 2)
    h = x[k + 1] - x[k]
    t = (pts - x[k]) / h
    w = ((1.0 + 2.0 * t) * (1.0 - t) ** 2, h * t * (1.0 - t) ** 2,
         t * t * (3.0 - 2.0 * t), h * t * t * (t - 1.0))
    w = [wi.reshape((-1,) + (1,) * (y.ndim - 1)) for wi in w]
    out = w[0] * y[k] + w[1] * s[k] + w[2] * y[k + 1] + w[3] * s[k + 1]
    return out.reshape(at.shape + y.shape[1:])
