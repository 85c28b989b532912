"""Exact traveling-wave patch solutions and their instability certificates.

A uniform spherical blob of total mass one falls rigidly: radius R fixes the
fall speed, so two patches with different radii separate linearly in time.
That separation is quantified here in L^1 (closed forms at t = 0, after the
supports disjoin, and the spherical-lens overlap volume in between) and by
the vertical-coordinate lower bound for the Wasserstein-1 distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "UNIT_BALL_VOLUME",
    "WAVE_VELOCITY_UNIT",
    "PatchWave",
    "ScalingParams",
    "scale_solution",
    "patch_density",
    "overlap_volume",
    "l1_distance",
    "separation_time",
    "wasserstein_bounds",
    "sample_unit_ball",
    "monte_carlo_l1",
    "monte_carlo_mass",
]

UNIT_BALL_VOLUME = 4.0 * math.pi / 3.0

# Translation velocity of the unit patch (radius 1, density normalized to
# total mass one is irrelevant here: the indicator patch moves at c).
WAVE_VELOCITY_UNIT = np.array([0.0, 0.0, -4.0 / 15.0])


@dataclass(frozen=True)
class PatchWave:
    """Uniform spherical probability patch of radius R falling rigidly."""

    R: float

    def __post_init__(self):
        if not self.R > 0:
            raise ValueError(f"radius must be positive, got {self.R}")

    @property
    def density_value(self) -> float:
        """Uniform density inside the support, 1/|B(0, R)|."""
        return 1.0 / (UNIT_BALL_VOLUME * self.R**3)

    @property
    def wave_velocity(self) -> np.ndarray:
        """Drift rate c/(w1 R^2) of the rescaled argument x/R."""
        return WAVE_VELOCITY_UNIT / (UNIT_BALL_VOLUME * self.R**2)

    @property
    def center_velocity(self) -> np.ndarray:
        """Physical center velocity c/(w1 R); R times the rescaled drift."""
        return WAVE_VELOCITY_UNIT / (UNIT_BALL_VOLUME * self.R)

    def center(self, t: float) -> np.ndarray:
        """Support center at time t: the support is B(center(t), R)."""
        return t * self.center_velocity


@dataclass(frozen=True)
class ScalingParams:
    """Exponents of the two-parameter scaling symmetry."""

    alpha: float
    beta: float
    lam: float

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam}")


def scale_solution(rho, s: ScalingParams):
    """Symbolic scaling transform of a space-time density.

    Returns the function (t, x) -> lam^-(alpha+beta) rho(t/lam^beta, x/lam^alpha).
    Whether the input actually solves the transport system is the caller's
    responsibility; the transform itself is exact.
    """
    amp = s.lam ** (-(s.alpha + s.beta))

    def scaled(t, x):
        return amp * rho(t / s.lam**s.beta, np.asarray(x, dtype=float) / s.lam**s.alpha)

    return scaled


def patch_density(w: PatchWave, t: float, x):
    """Density of the radius-R patch at time t; broadcasts over points on the last axis."""
    x = np.asarray(x, dtype=float)
    dist = np.linalg.norm(x - w.center(t), axis=-1)
    out = np.where(dist <= w.R, w.density_value, 0.0)
    return float(out) if out.ndim == 0 else out


def _center_distance(R: float, t: float) -> float:
    # |alpha_R(t) - alpha_1(t)| = |1/R - 1| t |c| / w1
    speed_gap = abs(1.0 / R - 1.0) * (4.0 / 15.0) / UNIT_BALL_VOLUME
    return speed_gap * t


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
    if not R > 0:
        raise ValueError(f"radius must be positive, got {R}")
    if R == 1.0:
        return 0.0
    d = _center_distance(R, t)
    if d >= R + 1.0:
        return 2.0
    if d <= abs(R - 1.0):
        # smaller ball fully inside the bigger one
        small, big = min(R, 1.0), max(R, 1.0)
        return 2.0 * (1.0 - (small / big) ** 3)
    v = overlap_volume(R, 1.0, d)
    return 2.0 - 2.0 * v / (UNIT_BALL_VOLUME * max(R, 1.0) ** 3)


def separation_time(R: float) -> float:
    """First time the two supports are disjoint, (R+1) w1 / (|c| |1/R - 1|)."""
    if R <= 0:
        raise ValueError(f"radius must be positive, got {R}")
    if R == 1.0:
        raise ValueError("R = 1 never separates from itself")
    return (R + 1.0) * UNIT_BALL_VOLUME / ((4.0 / 15.0) * abs(1.0 / R - 1.0))


def wasserstein_bounds(R: float, t: float) -> tuple[float, float]:
    """Initial W1 upper bound and the time-t lower bound from f(x) = x_3.

    initial_upper = |1 - R| * (3/4) uses the mean radius of the uniform unit
    ball; lower_at_t = |c_3| (t/w1) |1/R - 1| grows linearly in t.
    """
    if not R > 0:
        raise ValueError(f"radius must be positive, got {R}")
    initial_upper = abs(1.0 - R) * 0.75
    lower_at_t = (4.0 / 15.0) * (t / UNIT_BALL_VOLUME) * abs(1.0 / R - 1.0)
    return initial_upper, lower_at_t


def sample_unit_ball(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points in the unit ball: cube-root radii on isotropic directions."""
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v * rng.uniform(size=(n, 1)) ** (1.0 / 3.0)


def monte_carlo_l1(R: float, t: float, n_samples: int, rng: np.random.Generator) -> float:
    """Monte Carlo estimate of the patch L^1 distance.

    Uses |a - b| integrated = 2 - 2 * integral of min(a, b) with the minimum
    estimated under sampling from the unit patch, an estimator bounded in
    [0, 1] regardless of how far the supports have drifted apart.
    """
    w_r = PatchWave(R)
    w_1 = PatchWave(1.0)
    x = sample_unit_ball(n_samples, rng) + w_1.center(t)
    inside_r = np.linalg.norm(x - w_r.center(t), axis=1) <= w_r.R
    ratio = np.where(inside_r, w_r.density_value / w_1.density_value, 0.0)
    return 2.0 - 2.0 * float(np.mean(np.minimum(ratio, 1.0)))


def monte_carlo_mass(w: PatchWave, t: float, n_samples: int, rng: np.random.Generator) -> float:
    """Monte Carlo total mass of the patch by box sampling around its support."""
    lo = w.center(t) - w.R
    x = lo + rng.uniform(size=(n_samples, 3)) * (2.0 * w.R)
    inside = np.linalg.norm(x - w.center(t), axis=1) <= w.R
    box_volume = (2.0 * w.R) ** 3
    return box_volume * w.density_value * float(np.mean(inside))
