"""Closed-form hydrodynamic kernels.

The Oseen pair kernel and the single-sphere drag speed are the microscopic
building blocks.  The surface integrals are built from the closed-form
azimuthal moments of the inverse chord.  All functions broadcast over numpy
arrays where that is useful, and all are pure except :func:`oseen_terms`,
which writes the Oseen factors into buffers its caller owns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FluidParams",
    "oseen_terms",
    "stokes_drag_velocity",
    "azimuthal_moments",
]

# Entries per chunk of the AGM loop in :func:`azimuthal_moments`: large enough
# that numpy's per-call overhead is small against a chunk, small enough that
# the loop's few chunk-sized buffers (32 kB each) stay in a core's L2 cache
# and are recycled by the allocator rather than page-faulted in anew.
# :func:`dropsed.surface_evolution.advection_and_source` sizes its blocks of
# node rows by it too, so each block is one chunk.
_MOMENT_CHUNK = 4096

# The AGM loop stops one step after c_n <= _AGM_TOL x_n.  Each step squares
# the relative gap, so that final step takes it to ~_AGM_TOL^4 / 32 = 2^-57,
# below rounding, and leaves M and S exact to rounding.  Even y/x = 1e-300
# gets there in 12 steps after the first; _AGM_MAX_STEPS only stops a
# non-finite input from looping forever.
_AGM_TOL = 2.0 ** -13
_AGM_MAX_STEPS = 64


@dataclass(frozen=True)
class FluidParams:
    """Viscosity, per-particle body force, and particle/blob radius."""

    mu: float
    force: np.ndarray = field(repr=False)
    radius: float

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        f = np.asarray(self.force, dtype=float)
        if f.shape != (3,) or not np.all(np.isfinite(f)):
            raise ValueError("force must be a finite 3-vector")
        object.__setattr__(self, "force", f)


def oseen_terms(d: np.ndarray, r2: np.ndarray, force: np.ndarray, mu: float, delta: float,
                inv_r: np.ndarray, coef: np.ndarray) -> None:
    """Fill the two scalar factors of the Oseen response U(d) @ force in place.

    Separations are stored components-first: ``d`` has shape (3, ...) and
    ``r2``, ``inv_r`` and ``coef`` hold one value per separation, shape
    (...); ``coef`` must be C-contiguous.  With r_eff = max(r, delta) this
    writes inv_r = 1 / (8 pi mu r_eff) and coef = (force . d) inv_r / r^2, so
    that U(d) @ force = force inv_r + d coef.  A separation shorter than
    ``delta`` thus acts as if it were exactly ``delta`` long in the same
    direction.  An entry with d = 0 and r2 = +inf gets inv_r = coef = 0,
    which is how a caller drops a self pair.  Zero separations are the
    caller's to reject: they produce non-finite values here.  Writing into
    caller-owned buffers lets a tiled pair sum reuse a few small arrays for
    every tile instead of allocating each temporary anew.
    """
    np.sqrt(r2, out=inv_r)
    np.maximum(inv_r, delta, out=inv_r)
    np.divide(1.0 / (8.0 * math.pi * mu), inv_r, out=inv_r)
    np.matmul(force, d.reshape(3, -1), out=coef.reshape(-1))
    coef *= inv_r
    coef /= r2


def stokes_drag_velocity(params: FluidParams) -> np.ndarray:
    """Settling velocity of a single sphere, F / (6 pi mu R)."""
    return params.force / (6.0 * math.pi * params.mu * params.radius)


def _agm_steps(ratio: float) -> int | None:
    """AGM steps after the first that bring AGM(1, ratio) to c_n <= _AGM_TOL x_n.

    The relative gap of the AGM depends on y/x alone and closes slowest for
    the smallest y/x, so this count covers every entry of a chunk whose
    smallest y/x is ``ratio``.  None if the loop does not converge (a
    non-finite input, say).
    """
    x, y, c = 0.5 * (1.0 + ratio), math.sqrt(ratio), 0.5 * (1.0 - ratio)
    steps = 0
    while not c <= _AGM_TOL * x:
        if steps == _AGM_MAX_STEPS:
            return None
        x, y, c = 0.5 * (x + y), math.sqrt(x * y), c * c / (2.0 * (x + y))
        steps += 1
    return steps


def azimuthal_moments(a, b, a_minus_b, *, first_row: int = 0):
    """Closed-form azimuthal integrals of the inverse chord, for A > B >= 0.

    Returns ``(I0, I1)`` with I0 = integral over [0, 2 pi] of
    dphi / sqrt(A - B cos phi) and I1 = integral of cos(phi) dphi / sqrt(A - B cos phi)
    (the axisymmetric ring reduction of a surface integral).  Both come from
    one arithmetic-geometric mean M = AGM(x0, y0) with x0 = sqrt(A + B) and
    y0 = sqrt(A - B): I0 = 2 pi / M, and I1 = 2 pi S / (B M) with Gauss's
    series S = sum over n >= 1 of 2^(n-1) c_n^2, where c_1 = B / (x0 + y0) and
    c_(n+1) = c_n^2 / (4 x_(n+1)).  The terms of S / B are positive and finite
    down to B = 0, so nothing cancels and no B needs a separate branch.
    ``a_minus_b`` carries A - B in a cancellation-free form, so nearly
    coincident rings keep full precision.  The loop runs over flat chunks of
    ``_MOMENT_CHUNK`` entries, in place in the arrays of x0, y0 and the
    results plus two chunk-sized buffers; each chunk takes the step count of
    its smallest y0 / x0, plus one final step.  Coincident points
    (A - B <= 0) have a divergent I0 and are rejected.  A caller that passes
    rows ``first_row`` onwards of a larger array gives that offset, so an
    entry that fails to converge is named by its index in the larger array.
    """
    a, b, a_minus_b = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, a_minus_b)))
    if not ((a_minus_b > 0).all() and (b >= 0).all()):
        raise ValueError("azimuthal moments need A > B >= 0; coincident points diverge")
    shape = a.shape
    x0 = np.sqrt(a + b).reshape(-1)
    y0 = np.sqrt(a_minus_b).reshape(-1)
    b = b.reshape(-1)
    i0 = np.empty(x0.size)
    i1 = np.empty(x0.size)
    size = min(x0.size, _MOMENT_CHUNK)
    c_buf, tmp_buf = np.empty(size), np.empty(size)
    for lo in range(0, x0.size, _MOMENT_CHUNK):
        hi = min(lo + _MOMENT_CHUNK, x0.size)
        # x and y overwrite x0 and y0, term and total the two results
        x, y, term, total = x0[lo:hi], y0[lo:hi], i0[lo:hi], i1[lo:hi]
        c, tmp = c_buf[:hi - lo], tmp_buf[:hi - lo]
        np.divide(y, x, out=tmp)
        j = int(np.argmin(tmp))
        steps = _agm_steps(float(tmp[j]))
        if steps is None:
            where = [int(v) for v in np.unravel_index(lo + j, shape)]
            if where:
                where[0] += first_row
            raise ArithmeticError(f"AGM of the azimuthal moments did not converge at entry "
                                  f"{tuple(where)} (y/x = {float(tmp[j])!r})")
        np.add(x, y, out=tmp)  # s = x0 + y0
        np.divide(b[lo:hi], tmp, out=c)  # c_1
        np.divide(c, tmp, out=term)  # 2^(n-1) c_n^2 / B at n = 1
        np.copyto(total, term)
        c *= 0.25  # c_n / 4 from here on, which makes rho one division
        y *= x
        np.sqrt(y, out=y)
        np.multiply(tmp, 0.5, out=x)
        for step in range(steps + 1):
            np.add(x, y, out=tmp)
            tmp *= 0.5  # the next x
            if step < steps:  # the last y is never used
                y *= x
                np.sqrt(y, out=y)
            x, tmp = tmp, x
            np.divide(c, x, out=tmp)  # rho = c_n / (4 x_(n+1))
            c *= tmp
            tmp *= tmp
            tmp *= 2.0
            term *= tmp
            total += term
        np.divide(2.0 * math.pi, x, out=i0[lo:hi])
        total *= i0[lo:hi]
    return i0.reshape(shape), i1.reshape(shape)
