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
    "SplitMix64",
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


class SplitMix64:
    """The SplitMix64 stream of a 64-bit seed, drawn as whole arrays.

    Output k = 1, 2, ... is mix64(seed + k * 0x9E3779B97F4A7C15 mod 2^64),
    the finalizer of Steele, Lea & Flood (OOPSLA 2014), so the stream is
    the reference ``splitmix64.c``'s and any stretch of it is one vectorized
    pass over its counters.  It offers the two draws :func:`sample_unit_ball`
    takes from a numpy ``Generator``: ``uniform`` maps an output's top 53
    bits to [0, 1) exactly, and ``normal`` pairs uniforms by Box-Muller.
    Only those draws import numpy, and nothing loads ``numpy.random``.
    """

    GAMMA = 0x9E3779B97F4A7C15

    def __init__(self, seed: int):
        if not 0 <= seed < 2**64:
            raise ValueError(f"a SplitMix64 seed must be in [0, 2**64), got {seed!r}")
        self.seed = seed
        self.drawn = 0  # outputs consumed so far

    def outputs(self, count: int) -> np.ndarray:
        """The next ``count`` outputs as a uint64 array."""
        import numpy as np

        z = np.arange(self.drawn + 1, self.drawn + count + 1, dtype=np.uint64)
        self.drawn += count
        z *= np.uint64(self.GAMMA)  # arrays wrap mod 2^64 without a warning
        z += np.uint64(self.seed)
        for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
            z ^= z >> np.uint64(shift)
            z *= np.uint64(factor)
        z ^= z >> np.uint64(31)
        return z

    def uniform(self, size) -> np.ndarray:
        """Floats k / 2^53 in [0, 1), k the top 53 bits of each output."""
        import numpy as np

        top = self.outputs(int(np.prod(size))) >> np.uint64(11)
        return np.ldexp(top.astype(float), -53).reshape(size)

    def normal(self, size) -> np.ndarray:
        """Standard normals by Box-Muller from m = ceil(count / 2) pairs of uniforms.

        The next 2m uniforms are u_1..u_m, then v_1..v_m.  With
        r = sqrt(-2 log(1 - u)), finite because 1 - u > 0, the normals are the
        m values r cos(2 pi v), then the m values r sin(2 pi v); an odd count
        drops the last sine.
        """
        import numpy as np

        count = int(np.prod(size))
        u, v = self.uniform((2, (count + 1) // 2))
        r = np.sqrt(-2.0 * np.log1p(-u))
        v *= 2.0 * math.pi
        return np.concatenate([r * np.cos(v), r * np.sin(v)])[:count].reshape(size)


def sample_unit_ball(n: int, rng: np.random.Generator | SplitMix64) -> np.ndarray:
    """Uniform points in the unit ball: cube-root radii on isotropic directions.

    ``rng`` is any generator with numpy's ``normal(size=)`` and
    ``uniform(size=)`` draws: a ``numpy.random.Generator`` or a :class:`SplitMix64`.
    """
    import numpy as np

    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v * rng.uniform(size=(n, 1)) ** (1.0 / 3.0)


def monte_carlo_l1(R: float, t: float, n_samples: int,
                   rng: np.random.Generator | SplitMix64) -> float:
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
