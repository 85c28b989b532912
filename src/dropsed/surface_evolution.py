"""Nonlocal hyperbolic evolution of an axisymmetric droplet surface r(t, theta).

The surface radius measured from a reference center on the symmetry axis is
advected by the angular flow speed and forced by the radial one; both are
double integrals over the surface itself.  The time stepper is the classical
explicit upwind scheme.  Per-node quadratures inside a step run over blocks
of node rows, each block vectorized over its (node, inner angle) pairs (the
nodes are independent, so this is the parallel evaluation the scheme
admits).  The grid geometry they need is cached per grid, so a step
computes only what depends on the profile, in a few block-sized buffers.
The time loop itself is sequential and profiles are immutable snapshots.

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

from .kernels import _MOMENT_CHUNK, azimuthal_moments
from .patch_waves import WAVE_VELOCITY_UNIT
from .quadrature import PhiGrid, ThetaGrid, simpson_weights, snapshot_stride, step_count

__all__ = [
    "RadialProfile",
    "CenterPolicy",
    "SurfaceCollapseError",
    "CflError",
    "WAVE_CENTER_SPEED",
    "center_speed",
    "theta_derivative",
    "advection_and_source",
    "step_upwind",
    "evolve",
    "enclosed_volume",
]

# Vertical speed of the exact unit-patch traveling wave.
WAVE_CENTER_SPEED = float(WAVE_VELOCITY_UNIT[2])


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


@dataclass(frozen=True)
class CenterPolicy:
    """How the reference center moves: with the flow, at the wave speed, or prescribed."""

    mode: str
    prescribed_speed: float = 0.0

    _MODES = ("transported", "fixed_wave_speed", "prescribed")

    def __post_init__(self):
        if self.mode not in self._MODES:
            raise ValueError(f"mode must be one of {self._MODES}, got {self.mode!r}")
        if not math.isfinite(self.prescribed_speed):
            raise ValueError(f"prescribed_speed must be finite, got {self.prescribed_speed!r}")

    @classmethod
    def fixed_wave_speed(cls) -> "CenterPolicy":
        return cls(mode="fixed_wave_speed")

    def speed(self, profile: "RadialProfile") -> float:
        if self.mode == "transported":
            return center_speed(profile)
        if self.mode == "fixed_wave_speed":
            return WAVE_CENTER_SPEED
        return self.prescribed_speed


def center_speed(p: RadialProfile) -> float:
    """Vertical speed of the flow-transported reference center.

    -(1/4) * integral of r(tb)^2 sin(tb) (1 - sin(tb)^2 / 2) over [0, pi],
    evaluated by Simpson on the profile's own grid.  Equals -1/3 on the unit
    sphere, matching the uniformly forced interior field at the origin.
    """
    tb = p.grid.nodes
    integrand = p.r**2 * np.sin(tb) * (1.0 - 0.5 * np.sin(tb) ** 2)
    return -0.25 * float(p.grid.weights() @ integrand)


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
    taken in blocks of about ``_MOMENT_CHUNK`` (node, mid) pairs, so the
    per-call working set is a few block-sized buffers whatever the grid size.
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
    rows = max(1, _MOMENT_CHUNK // m)
    a_buf, b_buf, amb_buf = (np.empty((rows, m)) for _ in range(3))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        a, b, amb = a_buf[:hi - lo], b_buf[:hi - lo], amb_buf[:hi - lo]
        rc = r[lo:hi, None]
        rr = np.multiply(rc, rm, out=a)  # a holds r * rm until A is formed
        np.subtract(rc, rm, out=amb)
        amb *= amb
        np.multiply(rr, s4[lo:hi], out=b)
        amb += b  # A - B = (r - rm)^2 + 4 r rm sin^2((theta - mid) / 2)
        np.multiply(rr, st2_stb[lo:hi], out=b)
        np.add(amb, b, out=a)
        i0, i1 = azimuthal_moments(a, b, amb, first_row=lo)
        np.matmul(i0, by_i0, out=s0[lo:hi])
        np.matmul(i1, by_i1, out=s12[lo:hi])

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


def step_upwind(p: RadialProfile, dt: float, policy: CenterPolicy, phi_grid: PhiGrid) -> RadialProfile:
    """One explicit upwind step of the surface equation.

    The upwind side follows the sign of the advection speed node by node.
    Violating the CFL bound dt * max|a1| <= spacing raises before any state
    changes; a step that would make min(r) nonpositive raises
    :class:`SurfaceCollapseError` with the offending node reported and the
    input profile attached.  ``phi_grid`` changes no value.
    """
    if not dt >= 0:
        raise ValueError(f"dt must be nonnegative, got {dt}")
    cdot3 = policy.speed(p)
    a1, a2 = advection_and_source(p, cdot3, phi_grid)
    h = p.grid.spacing
    if dt * float(np.max(np.abs(a1))) > h:
        raise CflError(
            f"CFL violated: dt*max|a1| = {dt * float(np.max(np.abs(a1))):.3e} > spacing {h:.3e}"
        )
    # one-sided differences; each end node repeats its neighbour's
    d = np.diff(p.r) / h
    slope = np.where(a1 > 0, np.append(d[0], d), np.append(d, d[-1]))
    r_new = p.r - dt * a1 * slope + dt * a2
    if not np.all(np.isfinite(r_new)):
        raise SurfaceCollapseError(f"non-finite radius at t={p.time + dt}", p)
    if np.min(r_new) <= 0:
        i = int(np.argmin(r_new))
        raise SurfaceCollapseError(
            f"surface collapsed at t={p.time + dt:.4f}: r({p.grid.nodes[i]:.4f}) = {r_new[i]:.3e}",
            p,
        )
    return replace(p, r=r_new, c3=p.c3 + dt * cdot3, time=p.time + dt)


def evolve(p0: RadialProfile, T: float, dt: float, policy: CenterPolicy,
           phi_grid: PhiGrid, snapshot_every: float | None = None,
           on_snapshot: Callable[[RadialProfile], None] | None = None) -> list[RadialProfile]:
    """Advance the profile to time T, collecting snapshots.

    T must be a whole number of steps dt (:func:`~dropsed.quadrature.step_count`),
    and so must ``snapshot_every``, the time between snapshots (default: only
    at T).  Snapshots always include the initial and final profiles, and each
    one is handed to ``on_snapshot`` as soon as it is taken.  The initial profile is
    emitted only after step 1 has passed the CFL check in :func:`step_upwind`,
    so a dt rejected at t=0 emits nothing.  Errors from the stepper propagate
    unchanged; a :class:`SurfaceCollapseError` carries the last valid profile.
    ``phi_grid`` changes no value.
    """
    n_steps = step_count(T, dt)
    if n_steps < 1:
        raise ValueError(f"T={T!r} must span at least one step dt={dt!r}")
    every = snapshot_stride(snapshot_every, dt, n_steps)
    snaps = []

    def take(p: RadialProfile) -> None:
        snaps.append(p)
        if on_snapshot is not None:
            on_snapshot(p)

    p = p0
    for k in range(1, n_steps + 1):
        p = step_upwind(p, dt, policy, phi_grid)
        if k == 1:
            take(p0)
        if k % every == 0 or k == n_steps:
            take(p)
    return snaps


def enclosed_volume(p: RadialProfile) -> float:
    """Volume of the axisymmetric body, (2 pi / 3) * integral of r^3 sin(theta)."""
    integrand = p.r**3 * np.sin(p.grid.nodes)
    return (2.0 * math.pi / 3.0) * float(p.grid.weights() @ integrand)
