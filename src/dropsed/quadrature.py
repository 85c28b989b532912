"""Angular grids, Simpson weights, time-step counts, the Legendre basis and the spline.

Everything here is deterministic and stateless: grids are frozen dataclasses,
the rest are pure functions of their inputs.  Composite Simpson is the
package's one quadrature rule; its weights are built here and contracted by
the callers with samples taken once on the whole node array.  The step count
of a uniform time grid, its stored steps and :func:`march`, which drives every
time loop in the package (each loop supplies only its step), live here too.
The polynomial basis is the shifted Legendre family in the eigenvalue table's
normalization.  The package's one interpolant is the not-a-knot cubic spline,
split into its node slopes (:func:`spline_slopes`) and the cubic-Hermite
evaluation between nodes (:func:`hermite`).  Each returns only the matrix of
its linear map, built from the unit samples' few nonzero terms, and a caller
applies it to its samples.
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
    "snapshot_steps",
    "march",
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
        """The n_theta nodes, cached and read-only."""
        return _read_only(np.linspace(0.0, math.pi, self.n_theta))

    @property
    def spacing(self) -> float:
        return math.pi / (self.n_theta - 1)

    @cached_property
    def weights(self) -> np.ndarray:
        """Simpson weights on the nodes, cached and read-only."""
        return _read_only(simpson_weights(self.n_theta, self.spacing))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


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
    loop never silently stops short of or past T.  Past 2**53 steps the step
    times k*dt are no longer distinct doubles, so no loop could end at T;
    such a count is rejected too.  ``name`` is the quantity the error
    message names.
    """
    if not (math.isfinite(T) and math.isfinite(dt)):
        raise ValueError(f"{name}={T!r} and dt={dt!r} must both be finite")
    if not (T >= 0 and dt > 0):
        raise ValueError(f"need {name} >= 0 and dt > 0, got {name}={T!r} and dt={dt!r}")
    ratio = T / dt
    if not ratio <= 2**53:
        raise ValueError(f"{name}={T!r} spans more than 2**53 steps dt={dt!r}")
    n = round(ratio)
    if abs(ratio - n) > 1e-9 * max(1.0, abs(ratio)):
        raise ValueError(f"{name}={T!r} is not a whole number of steps dt={dt!r}")
    return int(n)


def snapshot_steps(T: float, dt: float, snapshot_every: float | None = None,
                   name: str = "T") -> list[int]:
    """Indices [0, m, 2m, ..., n] of the steps after which a time loop stores its state.

    n = :func:`step_count` (T, dt), the list is [0] for n = 0, and the stored
    times are k*dt.  ``snapshot_every`` must be a whole number m >= 1 of steps
    dt, so snapshots land exactly where asked; None or 0 means only the initial
    and final states.  ``name`` is what error messages call T.
    """
    n_steps = step_count(T, dt, name)
    every = step_count(snapshot_every, dt, "snapshot_every") if snapshot_every else max(1, n_steps)
    if every < 1:
        raise ValueError(f"snapshot_every={snapshot_every!r} must span at least one step dt={dt!r}")
    return [*range(0, n_steps, every), n_steps]


def march(state, step, stored: list[int]):
    """Yield the state after each step index in ``stored``, a list of :func:`snapshot_steps`.

    ``state = step(state, k)`` runs for k = 1 .. stored[-1]; each step returns
    a new state and leaves its input as it was.  The initial state is yielded
    at once when ``stored`` is [0], else only once step 1 has returned.
    """
    if stored == [0]:
        yield state
    first = state
    for k0, k1 in zip(stored, stored[1:]):
        for k in range(k0 + 1, k1 + 1):
            state = step(state, k)
            if k == 1:
                yield first
        yield state


def _polar_angles(theta) -> np.ndarray:
    """``theta`` as a float array, rejected unless it lies in [0, pi] to within 1e-12."""
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < -1e-12) or np.any(theta > math.pi + 1e-12):
        raise ValueError("theta outside [0, pi]")
    return theta


def basis_matrix(n_funcs: int, theta: np.ndarray, derivatives: bool = True):
    """Stacked values and derivatives of e_0..e_{n_funcs-1}, each of shape (n_funcs,) + theta.shape.

    e_k is the Legendre polynomial P_k shifted from [-1, 1] to [0, pi] by the
    affine map x = 2*theta/pi - 1 and scaled to unit norm in x, the
    convention the eigenvalue table is quoted in: each e_k has squared
    L2(0, pi) norm pi/2.  Values and derivatives come from recurrences, the
    derivatives' reading the values, which alone run when ``derivatives`` is
    False (None then stands for them); nothing is finite-differenced.
    """
    if n_funcs < 1 or n_funcs - 1 > MAX_BASIS_DEGREE:
        raise ValueError(f"need 1 <= n_funcs <= {MAX_BASIS_DEGREE + 1}, got {n_funcs}")
    x = 2.0 * _polar_angles(theta) / math.pi - 1.0
    P = np.zeros((n_funcs,) + x.shape)
    P[0], P[1:2] = 1.0, x
    for k in range(1, n_funcs - 1):
        P[k + 1] = ((2 * k + 1) * x * P[k] - k * P[k - 1]) / (k + 1)
    c = np.sqrt((2 * np.arange(n_funcs) + 1) / 2.0).reshape((-1,) + (1,) * x.ndim)
    if not derivatives:
        return c * P, None
    dP = np.zeros_like(P)
    dP[1:2] = 1.0
    for k in range(1, n_funcs - 1):
        dP[k + 1] = ((2 * k + 1) * (P[k] + x * dP[k]) - k * dP[k - 1]) / (k + 1)
    return c * P, c * dP * (2.0 / math.pi)


def spline_slopes(nodes) -> np.ndarray:
    """The n x n map from samples at ``nodes`` to the node slopes of their not-a-knot cubic spline.

    D @ y is the slopes of the spline through (nodes, y), for y of shape
    (n,) or (n, m).  The slopes solve one tridiagonal system: a continuous
    second derivative at each interior node and a continuous third
    derivative at the second and the second-to-last node (the not-a-knot
    ends).  With fewer than 4 nodes those are one condition, so such a
    spline is rejected.

    The right-hand side is that of the unit samples.  Row i is (alpha[i]
    slope[j] + beta[i] slope[j+1]) / d at the ends and 3 times that inside
    (alpha = dx[i], beta = dx[i-1]), j = i - 1 clipped to [0, n - 3], and the
    unit samples' secant slope[j] is -1/dx[j] at column j and 1/dx[j] at
    j + 1, so only three terms a row are not exact zeros.  One forward and
    one back sweep solve the system in place, without pivoting: the pivots
    are dx1, then dx0 + dx1, then each interior one exceeds 2 dx(i-1) +
    dx(i), which leaves the last one positive too.  A pivot that still comes
    out nonpositive (overflow or underflow) raises.
    """
    x = np.asarray(nodes, dtype=float)
    n = x.size
    if x.ndim != 1 or n < 4:
        raise ValueError(f"a not-a-knot spline needs a 1-d array of at least 4 nodes, "
                         f"got shape {x.shape}")
    dx = np.diff(x)
    if not np.all(dx > 0):
        raise ValueError("spline nodes must increase strictly")
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    alpha = np.concatenate([[(dx[0] + 2.0 * d0) * dx[1]], dx[1:], [dx[-1] ** 2]])
    beta = np.concatenate([[dx[0] ** 2], dx[:-1], [(2.0 * d1 + dx[-1]) * dx[-2]]])
    inv, j = 1.0 / dx, np.clip(np.arange(-1, n - 1), 0, n - 3)
    band = np.stack([alpha * -inv[j], alpha * inv[j] + beta * -inv[j + 1], beta * inv[j + 1]], 1)
    band[[0, -1]] /= [[d0], [d1]]
    band[1:-1] *= 3.0
    rhs = np.zeros((n, n))
    rhs[np.arange(n)[:, None], j[:, None] + np.arange(3)] = band
    upper = [d0, *dx[:-1].tolist()]  # upper[i] couples row i to slope i + 1
    lower = [*dx[1:].tolist(), d1]  # lower[i - 1] couples row i to slope i - 1
    diag = [dx[1], *(2.0 * (dx[:-1] + dx[1:])).tolist(), dx[-2]]
    pivot = [diag[0]]
    for i in range(1, n):
        factor = lower[i - 1] / pivot[-1]
        pivot.append(diag[i] - factor * upper[i - 1])
        if not pivot[-1] > 0:
            raise ArithmeticError(f"spline system pivot {i} is {pivot[-1]!r}, not positive")
        rhs[i] -= factor * rhs[i - 1]
    rhs[-1] /= pivot[-1]
    for i in range(n - 2, -1, -1):
        rhs[i] -= upper[i] * rhs[i + 1]
        rhs[i] /= pivot[i]
    return rhs


def hermite(nodes, slopes, at) -> np.ndarray:
    """The map from samples at ``nodes`` to their cubic-Hermite interpolant at ``at``.

    ``slopes`` is the n x n map from samples to node slopes, and the result,
    of shape ``at.shape + (n,)``, maps samples y to the interpolant of
    (y, slopes @ y); with :func:`spline_slopes` that is the not-a-knot
    spline.  A point outside the nodes' range continues the end interval's
    cubic, and a node's row is exactly its unit sample, so a node returns
    its own value exactly.  Each row is w0 e[k] + w1 s[k] + w2 e[k+1] +
    w3 s[k+1] for the unit samples e: w1 s[k] with w0 and w2 added at
    columns k and k + 1, then w3 s[k+1] added through one scratch array of
    the output's size.
    """
    x = np.asarray(nodes, dtype=float)
    at = np.asarray(at, dtype=float)
    pts = at.reshape(-1)
    k = np.clip(np.searchsorted(x, pts, side="right") - 1, 0, x.size - 2)
    h = x[k + 1] - x[k]
    t = (pts - x[k]) / h
    w0, w1 = (1.0 + 2.0 * t) * (1.0 - t) ** 2, h * t * (1.0 - t) ** 2
    w2, w3 = t * t * (3.0 - 2.0 * t), h * t * t * (t - 1.0)
    rows = np.arange(pts.size)
    out = slopes[k]
    out *= w1[:, None]
    out[rows, k] += w0
    out[rows, k + 1] += w2
    term = slopes[k + 1]
    term *= w3[:, None]
    out += term
    return out.reshape(at.shape + slopes.shape[1:])
