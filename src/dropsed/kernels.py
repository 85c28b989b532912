"""Closed-form hydrodynamic kernels.

The Oseen tensor and the drag/interior/exterior velocity fields are the
microscopic building blocks; the chord-distance function, its bounded
rewritten quotient and the closed-form azimuthal moments of the inverse chord
are the surface-integral building blocks.  All functions are pure and
broadcast over numpy arrays where that is useful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ellipe, ellipkm1

__all__ = [
    "FluidParams",
    "sphere_point",
    "oseen_tensor",
    "oseen_point_force",
    "stokes_drag_velocity",
    "hadamard_rybczynski_velocity",
    "gamma",
    "desingularized_ratio",
    "azimuthal_moments",
    "GAMMA_CLAMP",
    "MOMENT_SERIES_MAX",
]

# Negative chord-distance values beyond this magnitude indicate a genuine
# bug rather than rounding; smaller ones are clamped to zero.
GAMMA_CLAMP = 1e-12

# Below this B/A the elliptic form of the first moment loses digits to the
# cancellation in A K - (A + B) E (relative error ~ 1e-16 / (B/A)^2), and the
# seven-term series, whose truncation error is ~ (B/A)^14, takes over.  Both
# branches agree to ~1e-13 at the switch.
MOMENT_SERIES_MAX = 0.1

# I1 = (pi B / (2 A^1.5)) * sum_j c_j x^(2j) with x = B/A: the binomial series
# of (1 - x cos phi)^(-1/2) against the mean of cos^(2j+2) phi.
_I1_SERIES = np.array([
    math.comb(4 * j + 2, 2 * j + 1) * math.comb(2 * j + 2, j + 1) / 4.0 ** (3 * j + 1)
    for j in range(7)
])


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


def sphere_point(theta, phi) -> np.ndarray:
    """Unit vector e(theta, phi) = (sin t cos p, sin t sin p, cos t).

    Broadcasts; the Cartesian components land on the last axis.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    st = np.sin(theta)
    return np.stack(
        np.broadcast_arrays(st * np.cos(phi), st * np.sin(phi), np.cos(theta) + 0.0 * phi),
        axis=-1,
    )


def oseen_tensor(x, mu: float) -> np.ndarray:
    """Stokeslet matrix U(x) = (1/(8 pi mu)) (I/|x| + x (x^T) / |x|^3).

    Symmetric, even in x, and homogeneous of degree -1.  Contraction with a
    force vector gives the induced fluid velocity at x.  The origin is a
    genuine singularity and is rejected.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (3,):
        raise ValueError("x must be a 3-vector")
    r = float(np.linalg.norm(x))
    if r == 0.0:
        raise ValueError("Oseen tensor is singular at x = 0")
    return (np.eye(3) / r + np.outer(x, x) / r**3) / (8.0 * math.pi * mu)


def oseen_point_force(dx: np.ndarray, force: np.ndarray, mu: float) -> np.ndarray:
    """Velocities U(dx_i) @ force for a batch of separation vectors, shape (n, 3).

    Row-wise identical to ``oseen_tensor(dx[i], mu) @ force``; kept separate
    so the N-body sum never materializes n 3x3 matrices.
    """
    dx = np.atleast_2d(np.asarray(dx, dtype=float))
    r = np.linalg.norm(dx, axis=1)
    if np.any(r == 0.0):
        raise ValueError("Oseen tensor is singular at zero separation")
    proj = dx @ np.asarray(force, dtype=float)
    return (np.asarray(force)[None, :] / r[:, None] + dx * (proj / r**3)[:, None]) / (8.0 * math.pi * mu)


def stokes_drag_velocity(params: FluidParams) -> np.ndarray:
    """Settling velocity of a single sphere, F / (6 pi mu R)."""
    return params.force / (6.0 * math.pi * params.mu * params.radius)


def hadamard_rybczynski_velocity(x, params: FluidParams) -> np.ndarray:
    """Velocity of the flow forced uniformly inside the ball of radius R.

    Interior and exterior branches agree on the interface; the interior
    branch is used at |x| = R for determinism.  The interior expression is
    arranged so x = 0 needs no special case.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (3,):
        raise ValueError("x must be a 3-vector")
    r0 = params.radius
    mu = params.mu
    F = params.force
    r2 = float(x @ x)
    if r2 <= r0 * r0:
        m = np.eye(3) - (2.0 / (5.0 * r0**2)) * (r2 * np.eye(3) - 0.5 * np.outer(x, x))
        return (r0**2 / (3.0 * mu)) * (m @ F)
    r = math.sqrt(r2)
    xx = np.outer(x, x) / r2
    m = (r0 / r) * (np.eye(3) + xx) + 0.2 * (r0 / r) ** 3 * (np.eye(3) - 3.0 * xx)
    return (r0**2 / (6.0 * mu)) * (m @ F)


def gamma(r_at_theta, r_at_thetabar, theta, thetabar, phi):
    """Squared chord distance between the surface points at (theta, 0) and (thetabar, phi).

    gamma = r(t)^2 + r(tb)^2 - 2 r(t) r(tb) (sin t sin tb cos p + cos t cos tb).
    Cancellation near coincident points can produce tiny negatives; values in
    (-GAMMA_CLAMP, 0) are clamped to zero, anything more negative is an error.
    """
    r1 = np.asarray(r_at_theta, dtype=float)
    r2 = np.asarray(r_at_thetabar, dtype=float)
    if np.any(r1 <= 0) or np.any(r2 <= 0):
        raise ValueError("radii must be positive")
    cosang = (
        np.sin(theta) * np.sin(thetabar) * np.cos(phi)
        + np.cos(theta) * np.cos(thetabar)
    )
    g = r1**2 + r2**2 - 2.0 * r1 * r2 * cosang
    if np.any(g < -GAMMA_CLAMP):
        raise ArithmeticError(f"chord-distance identity violated: min gamma = {np.min(g)}")
    return np.maximum(g, 0.0)


def desingularized_ratio(theta, thetabar, phi, return_pole_mask: bool = False):
    """Bounded form of (-sin t cos tb cos p + cos t sin tb) / sqrt(gamma) on the unit sphere.

    Rewritten as a quotient whose numerator is a linear combination of two of
    the three components whose squares make up the denominator, so the value
    is bounded by sqrt(2) everywhere.  At coincidence (tb, p) = (t, 0) both
    vanish and the quotient has no limit; samples within 1e-12 of coincidence
    (where the quotient is pure rounding noise) return 0 under the pole-node
    policy and are reported through ``return_pole_mask``.
    """
    theta = np.asarray(theta, dtype=float)
    thetabar = np.asarray(thetabar, dtype=float)
    phi = np.asarray(phi, dtype=float)
    st, ct = np.sin(theta), np.cos(theta)
    stb, ctb = np.sin(thetabar), np.cos(thetabar)
    a = st * np.cos(phi) - stb
    b = ct - ctb
    num = -a * ctb + b * stb
    den2 = a * a + (np.sin(phi) * st) ** 2 + b * b
    pole = den2 < 1e-24
    den = np.sqrt(np.where(pole, 1.0, den2))
    out = np.where(pole, 0.0, num / den)
    if out.ndim == 0:
        out = float(out)
        pole = bool(pole)
    if return_pole_mask:
        return out, pole
    return out


def azimuthal_moments(a, b, a_minus_b):
    """Closed-form azimuthal integrals of the inverse chord, for A > B >= 0.

    Returns ``(I0, I1)`` with I0 = integral over [0, 2 pi] of
    dphi / sqrt(A - B cos phi) = 4 K(m) / sqrt(A + B) and I1 = integral of
    cos(phi) dphi / sqrt(A - B cos phi) = 4 [A K(m) - (A + B) E(m)] / (B sqrt(A + B)),
    where m = 2B / (A + B) and K, E are complete elliptic integrals (the
    axisymmetric ring reduction of a surface integral).  K comes from the
    complementary parameter (A - B) / (A + B), which callers pass through
    ``a_minus_b`` in a cancellation-free form, so nearly coincident rings
    keep full precision.  I1 switches to its power series in B/A below
    MOMENT_SERIES_MAX.  Coincident points (A - B <= 0) have a divergent I0
    and are rejected.
    """
    a, b, a_minus_b = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, a_minus_b)))
    if not (np.all(a_minus_b > 0) and np.all(b >= 0)):
        raise ValueError("azimuthal moments need A > B >= 0; coincident points diverge")
    a_plus_b = a + b
    k = ellipkm1(a_minus_b / a_plus_b)
    root = np.sqrt(a_plus_b)
    i0 = 4.0 * k / root
    i1 = np.empty_like(i0)
    small = b < MOMENT_SERIES_MAX * a
    x = b[small] / a[small]
    series = np.polynomial.polynomial.polyval(x * x, _I1_SERIES)
    i1[small] = (0.5 * math.pi) * x / np.sqrt(a[small]) * series
    big = ~small
    e = ellipe(2.0 * b[big] / a_plus_b[big])
    i1[big] = 4.0 * (a[big] * k[big] - a_plus_b[big] * e) / (b[big] * root[big])
    return i0, i1
