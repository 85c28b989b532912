"""Nonlocal hyperbolic evolution of an axisymmetric droplet surface r(t, theta).

The surface radius measured from a reference center on the symmetry axis is
advected by the angular flow speed and forced by the radial one; both are
double integrals over the surface itself.  The time stepper is the classical
explicit upwind scheme.  Per-node quadratures inside a step run over blocks
of node rows, each block vectorized over its (node, inner angle) pairs (the
nodes are independent, so this is the parallel evaluation the scheme
admits).  The grid geometry they need is cached per grid, so a step
computes only what depends on the profile, in one workspace of six
block-sized planes that every block, and its AGM, reuses.
The steps are marched in sequence by :func:`~dropsed.quadrature.march`, and
profiles are immutable snapshots.

Every azimuthal integrand has the form (alpha + beta cos phi) / sqrt(A - B cos phi),
so the integral over phi is taken in closed form by one arithmetic-geometric
mean per pair (:func:`~dropsed.kernels.azimuthal_moments`).  Quadrature in the
inner polar angle runs on nodes offset by half a grid spacing, so the
integrable diagonal of the chord distance never lands on a sample; the two
half-spacing end strips are closed with a trapezoid correction (the integrand
vanishes at both poles).

The ``phi_grid`` that :func:`evolve` hands down changes no value; it stays only
because the benchmark binds it (``evolve --nphi`` and a trace hook read it).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .kernels import _MOMENT_CHUNK, _moments_into, _row_blocks
from .quadrature import PhiGrid, ThetaGrid, march, simpson_weights, snapshot_steps

__all__ = [
    "RadialProfile",
    "SurfaceCollapseError",
    "CflError",
    "center_speed",
    "theta_derivative",
    "advection_and_source",
    "step_upwind",
    "evolve",
    "enclosed_volume",
]


class SurfaceCollapseError(RuntimeError):
    """A step would drive the surface radius to zero or below; carries the last valid profile."""

    def __init__(self, message: str, profile: RadialProfile):
        super().__init__(message)
        self.profile = profile


class CflError(ValueError):
    """Raised when dt * max|advection speed| exceeds the grid spacing."""


@dataclass(frozen=True)
class RadialProfile:
    """Surface radius sampled on a theta grid, plus the reference-center height."""

    grid: ThetaGrid
    r: np.ndarray = field(repr=False)
    c3: float = 0.0
    time: float = 0.0

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        if r.shape != (self.grid.n_theta,):
            raise ValueError("r must match the grid node count")
        if not np.all(np.isfinite(r)):
            raise ValueError("r must be finite at every node")
        if not np.min(r) > 0:
            raise ValueError("surface radius must stay strictly positive")
        object.__setattr__(self, "r", r)

    @classmethod
    def sphere(cls, grid: ThetaGrid, radius: float = 1.0) -> "RadialProfile":
        return cls(grid=grid, r=np.full(grid.n_theta, float(radius)))


def center_speed(p: RadialProfile) -> float:
    """Vertical speed of the flow-transported reference center.

    -(1/4) * integral of r(tb)^2 sin(tb) (1 - sin(tb)^2 / 2) over [0, pi],
    evaluated by Simpson on the profile's own grid.  Equals -1/3 on the unit
    sphere, matching the uniformly forced interior field at the origin.
    """
    tb = p.grid.nodes
    integrand = p.r**2 * np.sin(tb) * (1.0 - 0.5 * np.sin(tb) ** 2)
    return -0.25 * float(p.grid.weights @ integrand)


def theta_derivative(r: np.ndarray, spacing: float) -> np.ndarray:
    """Second-order derivative on the grid: centered inside, one-sided at the poles."""
    dr = np.empty_like(r)
    dr[1:-1] = (r[2:] - r[:-2]) / (2.0 * spacing)
    dr[0] = (-3.0 * r[0] + 4.0 * r[1] - r[2]) / (2.0 * spacing)
    dr[-1] = (3.0 * r[-1] - 4.0 * r[-2] + r[-3]) / (2.0 * spacing)
    return dr


@lru_cache(maxsize=4)
def _advection_geometry(grid: ThetaGrid) -> tuple[np.ndarray, ...]:
    """Profile-independent factors of :func:`advection_and_source`, cached and read-only.

    Returns ``(st, ct, stb, ctb, s4, st2_stb, w_mid)`` for the grid and its
    mids: the sines and cosines of the nodes and of the mids;
    4 sin^2((theta - mid) / 2) and 2 sin(theta) sin(mid), one row per node
    and one column per mid; and the Simpson weights on the mids with the
    trapezoid closure of the two half-spacing end strips added to the first
    and last, where the integrand decays linearly to zero at the poles.
    """
    if grid.n_theta < 4:
        raise ValueError(f"the upwind scheme needs n_theta >= 4, got {grid.n_theta}")
    theta, h = grid.nodes, grid.spacing
    mids = (np.arange(grid.n_theta - 1) + 0.5) * h
    st, ct = np.sin(theta), np.cos(theta)
    stb, ctb = np.sin(mids), np.cos(mids)
    s4 = 4.0 * np.sin(0.5 * (theta[:, None] - mids)) ** 2
    st2_stb = (2.0 * st)[:, None] * stb
    w_mid = simpson_weights(mids.size, h)
    w_mid[[0, -1]] += 0.25 * h
    geometry = (st, ct, stb, ctb, s4, st2_stb, w_mid)
    for arr in geometry:
        arr.setflags(write=False)
    return geometry


def advection_and_source(p: RadialProfile, cdot3: float, phi_grid: PhiGrid):
    """Angular advection speed and radial source on every node of the profile grid.

    Returns ``(a1, a2)`` arrays.  The angular speed at the poles is pinned to
    zero (axisymmetry forces a sin(theta) factor there); the source at the
    poles is regular and comes straight from the quadrature.  ``phi_grid`` is
    accepted and ignored: the azimuthal integrals are exact.

    The squared chord between the node (r, theta, 0) and the ring through
    the mid (rm, mid) is A - B cos(phi).  Both brackets of the integrands are
    linear in the moments I0 and I1 with coefficients that factor into a
    node part and a mid part, so each quadrature is a sum of a few matrix
    products of the moments with weighted mid vectors.  Rows of nodes are
    taken in even blocks of at most ``_MOMENT_CHUNK`` (node, mid) pairs, and
    one workspace allocated per call holds every block's A + B, A - B and B
    and the AGM's scratch, so the working set is six block-sized planes
    whatever the grid size.
    """
    n = p.grid.n_theta
    h = p.grid.spacing
    st, ct, stb, ctb, s4, st2_stb, w_mid = _advection_geometry(p.grid)
    r = p.r
    dr = theta_derivative(r, h)
    rm = 0.5 * (r[:-1] + r[1:])
    drm = 0.5 * (dr[:-1] + dr[1:])
    # The radial bracket is ct*stb*I0 - st*ctb*I1 and the angular one
    # r*I1 - rm*ct*ctb*I1 - rm*st*stb*I0.  With the quadrature weight times
    # the mid factor of each integrand, w1 (angular) and w2 = rm*w1 (radial),
    # q2 = ct*S0 - st*S1 and q1 = r*S2 - ct*S1 - st*S0 for the row sums
    # S0 = I0 @ (w2*stb) and (S1, S2) = I1 @ (w2*ctb, w1).
    w1 = w_mid * (rm * stb - drm * ctb) * rm * stb
    w2 = w1 * rm
    by_i0 = w2 * stb
    by_i1 = np.stack([w2 * ctb, w1], axis=1)
    s0 = np.empty(n)
    s12 = np.empty((n, 2))

    m = n - 1
    blocks = _row_blocks(n, m, _MOMENT_CHUNK)
    work = np.empty((6, max(hi - lo for lo, hi in blocks) * m))
    for lo, hi in blocks:
        # b's plane holds B, then the running term, then I0
        x, y, b, i1, c, tmp = work[:, :(hi - lo) * m]
        xb, yb, bb = (v.reshape(hi - lo, m) for v in (x, y, b))
        rc = r[lo:hi, None]
        rr = np.multiply(rc, rm, out=xb)  # x holds r * rm until A + B is formed
        np.subtract(rc, rm, out=yb)
        y *= y
        np.multiply(rr, s4[lo:hi], out=bb)
        y += b  # A - B = (r - rm)^2 + 4 r rm sin^2((theta - mid) / 2)
        np.multiply(rr, st2_stb[lo:hi], out=bb)
        np.add(y, b, out=x)  # A
        x += b
        _moments_into(x, y, b, b, i1, c, tmp, shape=(hi - lo, m), first_row=lo)
        np.matmul(bb, by_i0, out=s0[lo:hi])
        np.matmul(i1.reshape(hi - lo, m), by_i1, out=s12[lo:hi])

    s1, s2 = s12.T
    q2 = ct * s0 - st * s1
    a2 = -q2 / (8.0 * math.pi) - cdot3 * ct
    q1 = r * s2 - ct * s1 - st * s0
    a1 = -q1 / (8.0 * math.pi * r) + cdot3 * st / r
    a1[0] = 0.0
    a1[-1] = 0.0

    for name, arr in (("a1", a1), ("a2", a2)):
        if not np.all(np.isfinite(arr)):
            i = int(np.argmax(~np.isfinite(arr)))
            raise ArithmeticError(
                f"{name} quadrature non-finite at theta={float(p.grid.nodes[i])!r} (node {i})"
            )
    return a1, a2


def step_upwind(p: RadialProfile, dt: float, cdot3: float | None, phi_grid: PhiGrid, *,
                time: float | None = None, c3: float | None = None) -> RadialProfile:
    """One explicit upwind step of the surface equation.

    ``cdot3`` is the vertical speed of the reference center over the step;
    None moves the center with the flow, at :func:`center_speed` of ``p``.
    The new profile is stamped at ``time`` and height ``c3``, by default
    p.time + dt and p.c3 + dt * cdot3; a driver that knows them exactly
    passes them, so each step validates one profile.
    The upwind side follows the sign of the advection speed node by node.
    Violating the CFL bound dt * max|a1| <= spacing raises before any state
    changes; a step that would make min(r) nonpositive raises
    :class:`SurfaceCollapseError` with the offending node reported and the
    input profile attached.  ``phi_grid`` changes no value.
    """
    if not dt >= 0:
        raise ValueError(f"dt must be nonnegative, got {dt}")
    if cdot3 is None:
        cdot3 = center_speed(p)
    elif not math.isfinite(cdot3):
        raise ValueError(f"cdot3 must be finite, got {cdot3!r}")
    a1, a2 = advection_and_source(p, cdot3, phi_grid)
    h = p.grid.spacing
    travel = dt * float(np.max(np.abs(a1)))
    if travel > h:
        raise CflError(f"CFL violated: dt*max|a1| = {travel:.3e} > spacing {h:.3e}")
    # one-sided differences: the backward and forward ones are the two
    # length-n views of one padded array, where each end node repeats its
    # neighbour's
    d = np.empty(p.r.size + 1)
    np.subtract(p.r[1:], p.r[:-1], out=d[1:-1])
    d[1:-1] /= h
    d[0], d[-1] = d[1], d[-2]
    slope = np.where(a1 > 0, d[:-1], d[1:])
    r_new = p.r - dt * a1 * slope + dt * a2
    if not np.all(np.isfinite(r_new)):
        raise SurfaceCollapseError(f"non-finite radius at t={p.time + dt}", p)
    if np.min(r_new) <= 0:
        i = int(np.argmin(r_new))
        raise SurfaceCollapseError(
            f"surface collapsed at t={p.time + dt:.4f}: r({p.grid.nodes[i]:.4f}) = {r_new[i]:.3e}",
            p,
        )
    return replace(p, r=r_new, c3=p.c3 + dt * cdot3 if c3 is None else c3,
                   time=p.time + dt if time is None else time)


def evolve(p0: RadialProfile, T: float, dt: float, cdot3: float | None,
           phi_grid: PhiGrid, snapshot_every: float | None = None,
           on_snapshot: Callable[[RadialProfile], None] | None = None) -> list[RadialProfile]:
    """Advance the profile to time T, collecting snapshots.

    The reference center moves at the constant vertical speed ``cdot3``, or
    with the flow when it is None (see :func:`step_upwind`).
    T must be a whole number of steps dt, and so must ``snapshot_every``, the
    time between snapshots (default: only at T).  The steps are run by
    :func:`~dropsed.quadrature.march`, each stamped at the time p0.time + k*dt
    exactly (and, under a constant ``cdot3``, at the height p0.c3 + k*dt*cdot3),
    and the snapshots are those of :func:`~dropsed.quadrature.snapshot_steps`:
    the initial and final profiles always, the initial one alone for T = 0.
    Each is handed to ``on_snapshot`` as soon as it is taken, the initial one
    only after step 1 has passed the CFL check in :func:`step_upwind`, so a dt
    rejected at t=0 emits nothing.  Errors from the stepper propagate unchanged;
    a collapse's last valid profile is stamped too.  ``phi_grid`` changes no value.
    """
    stored = snapshot_steps(T, dt, snapshot_every)

    def step(p: RadialProfile, k: int) -> RadialProfile:
        return step_upwind(p, dt, cdot3, phi_grid, time=p0.time + k * dt,
                           c3=None if cdot3 is None else p0.c3 + k * dt * cdot3)

    snaps = []
    for p in march(p0, step, stored):
        snaps.append(p)
        if on_snapshot is not None:
            on_snapshot(p)
    return snaps


def enclosed_volume(p: RadialProfile) -> float:
    """Volume of the axisymmetric body, (2 pi / 3) * integral of r^3 sin(theta)."""
    integrand = p.r**3 * np.sin(p.grid.nodes)
    return (2.0 * math.pi / 3.0) * float(p.grid.weights @ integrand)
