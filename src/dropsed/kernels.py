"""Closed-form hydrodynamic kernels.

The Oseen pair kernel and the single-sphere drag speed are the microscopic
building blocks.  They use the units of the continuum models (see
:mod:`dropsed.patch_waves`): every particle carries a unit force along -e3
in a fluid of unit viscosity, so the pair kernel :func:`oseen_terms`
computes the one response U(d) e3 that every pair needs.  Another force or
viscosity would only change the unit of time.  The surface integrals are
built from the closed-form azimuthal moments of the inverse chord,
:func:`azimuthal_moments`.  Two functions write into buffers their caller
owns, so a caller looping over tiles or blocks reuses one workspace for all
of them: :func:`oseen_terms`, the Oseen factors of a pair-sum tile, and
``_moments_into``, the in-place AGM core of :func:`azimuthal_moments` on one
block.  The rest are pure.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "oseen_terms",
    "stokes_drag_velocity",
    "azimuthal_moments",
]

# Entries per block of the AGM loop.  Each block is one pass of
# :func:`_moments_into`, whose few dozen numpy calls cost ~0.1 ms whatever the
# block size, so blocks are large: the n = 100 upwind step is one block.
# :func:`dropsed.surface_evolution.advection_and_source` keeps all its
# blocks' buffers in one workspace allocated once per call, which the
# allocator keeps from call to call; many separate block-sized temporaries of
# this size would be returned to the OS after each call and faulted back in.
# Blocks of 8192-12288 entries time alike at n = 201-801.
_MOMENT_CHUNK = 10240

# The AGM loop stops one step after c_n <= _AGM_TOL x_n.  Each step squares
# the relative gap, so that final step takes it to ~_AGM_TOL^4 / 32 = 2^-57,
# below rounding, and leaves M and S exact to rounding.  Even y/x = 1e-300
# gets there in 12 steps after the first; _AGM_MAX_STEPS only stops a
# non-finite input from looping forever.
_AGM_TOL = 2.0 ** -13
_AGM_MAX_STEPS = 64


def oseen_terms(d: np.ndarray, r2: np.ndarray, delta: float, inv_r: np.ndarray,
                coef: np.ndarray) -> None:
    """Fill the two scalar factors of the Oseen response U(d) e3 in place.

    Separations are stored components-first: ``d`` has shape (3, ...) and
    ``r2``, ``inv_r`` and ``coef`` hold one value per separation, shape
    (...).  With r_eff = max(r, delta) this writes inv_r = 1 / (8 pi r_eff)
    and coef = d_3 inv_r / r^2, so that U(d) e3 = e3 inv_r + d coef; the
    response to the unit force -e3 is minus that.  A separation shorter
    than ``delta`` thus acts as if it were exactly ``delta`` long in the
    same direction.  A ``delta`` of 0 clamps nothing, so the maximum pass is
    skipped; a caller that knows every r >= delta passes 0 to skip it.  An
    entry with d = 0 and r2 = +inf gets inv_r = coef = 0, which is how a
    caller drops a self pair.  Zero separations are the caller's to reject:
    they produce non-finite values here.  Writing into caller-owned buffers
    lets a tiled pair sum reuse a few small arrays for every tile instead of
    allocating each temporary anew.
    """
    np.sqrt(r2, out=inv_r)
    if delta > 0:
        np.maximum(inv_r, delta, out=inv_r)
    np.divide(1.0 / (8.0 * math.pi), inv_r, out=inv_r)
    np.multiply(d[2], inv_r, out=coef)
    coef /= r2


def stokes_drag_velocity(radius: float) -> np.ndarray:
    """Settling velocity -e3 / (6 pi a) of a sphere of radius a under the unit force."""
    return np.array([0.0, 0.0, -1.0]) / (6.0 * math.pi * radius)


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


def _entry(flat: int, shape: tuple[int, ...], first_row: int) -> tuple[int, ...]:
    """Index of entry ``flat`` of an array of ``shape`` whose rows start at ``first_row``."""
    index = np.unravel_index(flat, shape)
    return tuple(int(v) + (first_row if axis == 0 else 0) for axis, v in enumerate(index))


def _row_blocks(n_rows: int, row_size: int, chunk: int) -> list[tuple[int, int]]:
    """``(lo, hi)`` row ranges that cut ``n_rows`` rows of ``row_size`` entries into blocks.

    The blocks are as few as keep each within ``chunk`` entries (one row at
    least), and their row counts differ by at most one, so no block is a runt.
    """
    blocks = -(-n_rows // max(1, chunk // max(1, row_size)))
    edges = [k * n_rows // blocks for k in range(blocks + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _moments_into(x, y, b, i0, i1, c, tmp, *, shape: tuple[int, ...], first_row: int) -> None:
    """The AGM of :func:`azimuthal_moments` on one block, in buffers the caller owns.

    All seven are flat float arrays of one nonzero size.  On entry ``x``
    holds A + B, ``y`` holds A - B and ``b`` holds B; on return ``i0`` and
    ``i1`` hold the moments, and ``x``, ``y``, ``c`` and ``tmp`` hold scratch.
    ``b`` is read only until c_1 is formed, so ``i0`` may be the same buffer
    as ``b``.  Nothing is allocated, so a caller that steps many blocks
    reuses one workspace for all of them.  The whole block takes the step
    count of its smallest y0 / x0, plus one final step.  A failing entry is
    named by its index in an array of ``shape`` whose rows start at row
    ``first_row`` of the caller's.
    """
    if not (y.min() > 0 and b.min() >= 0):
        finite = np.isfinite(x) & np.isfinite(b) & np.isfinite(y)
        if not finite.all():
            raise ArithmeticError(f"azimuthal moments got a non-finite input at entry "
                                  f"{_entry(int(np.argmax(~finite)), shape, first_row)}")
        j = int(np.argmax((y <= 0) | (b < 0)))
        raise ValueError(f"azimuthal moments need A > B >= 0, got A - B = {float(y[j])!r} and "
                         f"B = {float(b[j])!r} at entry {_entry(j, shape, first_row)}; "
                         "coincident points diverge")
    np.sqrt(x, out=x)  # x0
    np.sqrt(y, out=y)  # y0
    np.divide(y, x, out=tmp)
    j = int(np.argmin(tmp))
    steps = _agm_steps(float(tmp[j]))
    if steps is None:
        raise ArithmeticError(f"AGM of the azimuthal moments did not converge at entry "
                              f"{_entry(j, shape, first_row)} (y/x = {float(tmp[j])!r})")
    # i0 holds the running term until I0 is formed, i1 the running total
    np.add(x, y, out=tmp)  # s = x0 + y0
    np.divide(b, tmp, out=c)  # c_1
    np.divide(c, tmp, out=i0)  # 2^(n-1) c_n^2 / B at n = 1
    np.copyto(i1, i0)
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
        i0 *= tmp
        i1 += i0
    np.divide(2.0 * math.pi, x, out=i0)
    i1 *= i0


def azimuthal_moments(b, a_minus_b):
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
    coincident rings keep full precision; A itself is never needed, and
    A + B is formed as ((A - B) + B) + B.  Coincident points (A - B <= 0)
    have a divergent I0 and are rejected.  This wrapper allocates the
    buffers and runs :func:`_moments_into` over even blocks of whole rows,
    each within ``_MOMENT_CHUNK`` entries unless one row is longer.
    """
    b, a_minus_b = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (b, a_minus_b)))
    shape = b.shape
    x = (a_minus_b + b + b).reshape(-1)
    y = a_minus_b.flatten()
    b = b.reshape(-1)
    i0, i1 = np.empty(x.size), np.empty(x.size)
    if x.size:
        n_rows = shape[0] if shape else 1
        row_size = x.size // n_rows
        blocks = _row_blocks(n_rows, row_size, _MOMENT_CHUNK)
        c_buf, tmp_buf = np.empty((2, max(hi - lo for lo, hi in blocks) * row_size))
        for lo, hi in blocks:
            block = slice(lo * row_size, hi * row_size)
            size = (hi - lo) * row_size
            block_shape = (hi - lo,) + shape[1:] if shape else ()
            _moments_into(x[block], y[block], b[block], i0[block], i1[block],
                          c_buf[:size], tmp_buf[:size], shape=block_shape, first_row=lo)
    return i0.reshape(shape), i1.reshape(shape)
