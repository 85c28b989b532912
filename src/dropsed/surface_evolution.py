"""Nonlocal hyperbolic evolution of an axisymmetric droplet surface r(t, theta).

The surface radius measured from a reference center on the symmetry axis is
advected by the angular flow speed and forced by the radial one; both are
double integrals over the surface itself.  The time stepper is the classical
explicit upwind scheme.  Per-node quadratures inside a step are evaluated as
one vectorized contraction over (node, inner angle) pairs (the nodes are
independent, so this is the parallel evaluation the scheme admits); the time
loop itself is sequential and profiles are immutable snapshots.

Every azimuthal integrand has the form (alpha + beta cos phi) / sqrt(A - B cos phi),
so the integral over phi is taken in closed form by one arithmetic-geometric
mean per pair (:func:`~dropsed.kernels.azimuthal_moments`).  Quadrature in the
inner polar angle runs on nodes offset by half a grid spacing, so the
integrable diagonal of the chord distance never lands on a sample; the two
half-spacing end strips are closed with a trapezoid correction (the integrand
vanishes at both poles).

The ``phi_grid`` arguments are still accepted, and the CLI still records
``--nphi`` in its outputs, but they no longer change any value.  They stay
because the tests, the CLI and the benchmark's trace hooks bind them by name.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .kernels import azimuthal_moments
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
    "a1_of",
    "a2_of",
    "step_upwind",
    "evolve",
    "enclosed_volume",
]

# Vertical speed of the exact unit-patch traveling wave.
WAVE_CENTER_SPEED = -4.0 / 15.0


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

    @classmethod
    def transported(cls) -> "CenterPolicy":
        return cls(mode="transported")

    @classmethod
    def fixed_wave_speed(cls) -> "CenterPolicy":
        return cls(mode="fixed_wave_speed")

    @classmethod
    def prescribed(cls, speed: float) -> "CenterPolicy":
        return cls(mode="prescribed", prescribed_speed=float(speed))

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


def advection_and_source(p: RadialProfile, cdot3: float, phi_grid: PhiGrid):
    """Angular advection speed and radial source on every node of the profile grid.

    Returns ``(a1, a2)`` arrays.  The angular speed at the poles is pinned to
    zero (axisymmetry forces a sin(theta) factor there); the source at the
    poles is regular and comes straight from the quadrature.  ``phi_grid`` is
    accepted and ignored: the azimuthal integrals are exact.
    """
    theta = p.grid.nodes
    h = p.grid.spacing
    mids = (np.arange(theta.size - 1) + 0.5) * h
    st, ct = np.sin(theta)[:, None], np.cos(theta)[:, None]
    stb, ctb = np.sin(mids), np.cos(mids)
    r = p.r
    dr = theta_derivative(r, h)
    rm = 0.5 * (r[:-1] + r[1:])
    drm = 0.5 * (dr[:-1] + dr[1:])

    # squared chord A - B cos(phi) between (r, theta, 0) and (rm, mid, phi), shape (n, m)
    rr = r[:, None] * rm
    a_minus_b = (r[:, None] - rm) ** 2 + 4.0 * rr * np.sin(0.5 * (theta[:, None] - mids)) ** 2
    b = 2.0 * rr * st * stb
    i0, i1 = azimuthal_moments(a_minus_b + b, b, a_minus_b)
    base = rm * stb - drm * ctb
    w_mid = simpson_weights(mids.size, h)

    def quad_with_end_strips(per_mid):
        # trapezoid closure of the two half-spacing end strips, where the
        # integrand decays linearly to zero at the poles
        return per_mid @ w_mid + 0.25 * h * (per_mid[:, 0] + per_mid[:, -1])

    # radial bracket ct*stb - st*ctb*cos(phi)
    q2 = quad_with_end_strips(base * rm**2 * stb * (ct * stb * i0 - st * ctb * i1))
    a2 = -q2 / (8.0 * math.pi) - cdot3 * ct[:, 0]
    # angular bracket (r - rm*ct*ctb)*cos(phi) - rm*st*stb
    br1 = (r[:, None] - rm * ct * ctb) * i1 - rm * st * stb * i0
    q1 = quad_with_end_strips(base * rm * stb * br1)
    a1 = -q1 / (8.0 * math.pi * r) + cdot3 * st[:, 0] / r
    a1[0] = 0.0
    a1[-1] = 0.0

    for name, arr in (("a1", a1), ("a2", a2)):
        if not np.all(np.isfinite(arr)):
            i = int(np.argmax(~np.isfinite(arr)))
            raise ArithmeticError(
                f"{name} quadrature non-finite at theta={p.grid.nodes[i]!r} (node {i})"
            )
    return a1, a2


def a1_of(p: RadialProfile, theta_index: int, cdot3: float, phi_grid: PhiGrid) -> float:
    """Angular advection speed at one grid node."""
    a1, _ = advection_and_source(p, cdot3, phi_grid)
    return float(a1[theta_index])


def a2_of(p: RadialProfile, theta_index: int, cdot3: float, phi_grid: PhiGrid) -> float:
    """Radial source term at one grid node."""
    _, a2 = advection_and_source(p, cdot3, phi_grid)
    return float(a2[theta_index])


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
    r = p.r
    backward = np.empty_like(r)
    backward[1:] = (r[1:] - r[:-1]) / h
    backward[0] = (r[1] - r[0]) / h
    forward = np.empty_like(r)
    forward[:-1] = (r[1:] - r[:-1]) / h
    forward[-1] = (r[-1] - r[-2]) / h
    slope = np.where(a1 > 0, backward, forward)
    r_new = r - dt * a1 * slope + dt * a2
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
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
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
