"""Exact traveling-wave patch solutions and their instability certificates.

One law sets every fall speed of the package (:func:`wave_speed`, after
Hadamard and Rybczynski): a uniform ball of radius R and density rho, under a
unit downward force per unit volume at unit viscosity, falls rigidly at
-(4/15) rho R^2.  Its densities are 1 for the surface model's sphere,
1/(|B_1| R^3) for a patch of mass one (which thus falls at a speed
proportional to 1/R) and (N - 1)/(|B_1| R0^3) for a cloud of N particles.
The cloud (:mod:`dropsed.micro_sim`) uses the same units: each of its
particles carries a unit force along -e3 in a fluid of unit viscosity.
Two patches with different radii separate linearly in time.  That separation is
quantified here in L^1 (the overlap volume of the two supports: nested at
t = 0, a spherical lens, then disjoint) and by the vertical-coordinate lower
bound for the Wasserstein-1 distance.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # the closed forms run on Python floats; only the samplers import numpy
    import numpy as np

__all__ = [
    "UNIT_BALL_VOLUME",
    "wave_speed",
    "overlap_volume",
    "l1_distance",
    "separation_time",
    "wasserstein_bounds",
    "sample_unit_ball",
    "monte_carlo_l1",
]

UNIT_BALL_VOLUME = 4.0 * math.pi / 3.0


def wave_speed(R: float, density: float = 1.0) -> float:
    """Vertical velocity -(4/15) density R^2 of a uniform ball under unit force density and viscosity."""
    return -(4.0 / 15.0) * density * R * R


def _gap_speed(R: float) -> float:
    """Speed |c| |1/R - 1| at which the centers part, c = wave_speed(1, 1/|B_1|); c/R - c would cancel."""
    if not R > 0:
        raise ValueError(f"radius must be positive, got {R}")
    return abs(wave_speed(1.0, 1.0 / UNIT_BALL_VOLUME)) * abs(1.0 / R - 1.0)


def overlap_volume(r1: float, r2: float, d: float) -> float:
    """Volume of the intersection of balls of radii r1, r2 at center distance d.

    In between the two limits (disjoint, one ball inside the other) the
    intersection is a spherical lens of volume
    pi (r1 + r2 - d)^2 (d^2 + 2 d (r1 + r2) - 3 (r1 - r2)^2) / (12 d).
    """
    if d >= r1 + r2:
        return 0.0
    if d <= abs(r1 - r2):
        return UNIT_BALL_VOLUME * min(r1, r2) ** 3
    return (math.pi * (r1 + r2 - d) ** 2
            * (d * d + 2.0 * d * (r1 + r2) - 3.0 * (r1 - r2) ** 2) / (12.0 * d))


def l1_distance(R: float, t: float) -> float:
    """L^1 distance between the radius-R and radius-1 patch solutions at time t.

    Equals 2 - 2 V_overlap / max(|B_R|, |B_1|): at t = 0 this is 2(1 - R^3)
    for R < 1 and 2(1 - 1/R^3) for R > 1, and exactly 2 once the supports
    disjoin.
    """
    v = overlap_volume(R, 1.0, _gap_speed(R) * t)
    return 2.0 - 2.0 * v / (UNIT_BALL_VOLUME * max(R, 1.0) ** 3)


def separation_time(R: float) -> float:
    """First time the two supports are disjoint, (R + 1) over the gap speed."""
    if R == 1.0:
        raise ValueError("R = 1 never separates from itself")
    return (R + 1.0) / _gap_speed(R)


def wasserstein_bounds(R: float, t: float) -> tuple[float, float]:
    """Initial W1 upper bound and the time-t lower bound from f(x) = x_3.

    initial_upper = |1 - R| * (3/4) uses the mean radius of the uniform unit
    ball; lower_at_t is the center distance, which grows linearly in t.
    """
    return abs(1.0 - R) * 0.75, _gap_speed(R) * t


def sample_unit_ball(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points in the unit ball: cube-root radii on isotropic directions."""
    import numpy as np

    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v * rng.uniform(size=(n, 1)) ** (1.0 / 3.0)


def monte_carlo_l1(R: float, t: float, n_samples: int, rng: np.random.Generator) -> float:
    """Monte Carlo estimate of the patch L^1 distance.

    Uses |a - b| integrated = 2 - 2 * integral of min(a, b), which is
    min(R^-3, 1), the radius-R patch's density relative to the unit one, times
    the share of unit-patch samples inside the radius-R patch.  The samples are
    shifted by the center distance along e3; the ball is symmetric, so the sign is free.
    """
    import numpy as np

    x = sample_unit_ball(n_samples, rng)
    x[:, 2] += _gap_speed(R) * t
    inside = float(np.mean(np.linalg.norm(x, axis=1) <= R))
    return 2.0 - 2.0 * min(R**-3.0, 1.0) * inside
