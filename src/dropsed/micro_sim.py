"""Point-particle sedimentation cloud interacting through the Oseen tensor.

Each particle falls at the single-sphere drag speed plus the fluid velocity
induced by every other particle's point force.  The cloud-scale rescaling
(positions by the cloud radius, velocities by the collective fall speed)
produces a dimensionless dynamics whose mean fall speed is one; that is the
form integrated by the trajectory driver.

Force evaluation is an O(N^2) pairwise sum over a read-only position
snapshot.  Every particle carries the unit force along -e3 in a fluid of
unit viscosity, the units of the continuum models, so the sum needs only the
response U(d) e3, which its callers negate; another force or viscosity would
only change the unit of time.  The particle radius a stays a parameter: it
sets the drag speed 1 / (6 pi a) against the collective speed.  The Oseen
tensor is even, U(d) = U(-d), so each unordered pair is evaluated once: the
sum runs over square tiles of particle blocks (I, J) with J >= I, at most
``_PAIR_TILE`` particles a side, and an off-diagonal tile adds its row sums
to block I and its column sums to block J.  Each tile works in a few buffers
allocated once per sum and filled in place by the one Oseen kernel,
:func:`~dropsed.kernels.oseen_terms`.  The two whole-tile passes that
numpy's broadcasting and axis sums run slowly go to BLAS instead.  A tile's
separation planes are one batched rank-2 product [x_i, 1] . [1, -x_j], which
is exact: both of its products are exact, so each entry is x_i - x_j rounded
once, as a subtraction rounds it.  Its row and column sums are matrix-vector
products with a vector of ones; they add in another order than ``np.sum``
(velocities move by about 1e-16 relative), and a run writes the same bytes
under one and two BLAS threads.  A diagonal tile holds both ordered cells of
each of its pairs and adds row sums only; its self cells need no mask,
because a squared distance of +inf makes their contribution exactly zero.
Each integrator stage commits positions in a single assignment.  Pairs
closer than the regularization distance interact as if separated by exactly
that distance along the same direction (r_eff = max(r, delta)), and every
such clamp is counted, as ordered pairs, and logged.  A tile whose closest
pair is at least delta apart skips the clamp pass, which would change none
of its values.

A cloud is sampled (:func:`uniform_ball_cloud`) from the caller's
generator: the CLI seeds a :class:`~dropsed.patch_waves.SplitMix64` stream,
so no module of the package loads ``numpy.random``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import oseen_terms, stokes_drag_velocity
from .patch_waves import UNIT_BALL_VOLUME, SplitMix64, sample_unit_ball, wave_speed
from .quadrature import march, snapshot_steps

log = logging.getLogger(__name__)

__all__ = [
    "ParticleCloud",
    "default_regularization",
    "uniform_ball_cloud",
    "cloud_velocities",
    "mean_settling_velocity",
    "mean_velocity_formula",
    "rescale_cloud",
    "rescaled_velocities",
    "CloudTrajectory",
    "evolve_cloud",
]

# Particles per side of one tile of the pair sum: large enough that the
# per-call overhead of numpy and BLAS is small against the tile's cells, small
# enough that the tile's six (b, b) float64 planes (four in the work buffer,
# r2 and coef) stay in a core's L2 cache: 6 b^2 8 B = 1.08 MB at b = 150, half
# of a 2 MiB L2, where b = 200 fills 1.92 MB of it.  On such a core (Xeon,
# one BLAS thread, N = 1000-4000) b = 150 was within 5% of the fastest of
# b = 100, 128, 150, 200 and 256 at each N, and b = 200 was 6-11% slower.
_PAIR_TILE = 150


def default_regularization(cloud_radius: float, n: int) -> float:
    """A small fraction of the mean interparticle distance, 1e-3 R0 N^{-1/3}."""
    return 1e-3 * cloud_radius * n ** (-1.0 / 3.0)


@dataclass(frozen=True)
class ParticleCloud:
    """Positions of N point particles, their radius, the cloud radius and the regularization."""

    positions: np.ndarray = field(repr=False)
    particle_radius: float
    cloud_radius: float
    delta: float = 0.0

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 1:
            raise ValueError("positions must have shape (N, 3) with N >= 1")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        if not 0 < self.particle_radius < math.inf:
            raise ValueError(f"particle_radius must be positive and finite, "
                             f"got {self.particle_radius!r}")
        if not 0 < self.cloud_radius < math.inf:
            raise ValueError(f"cloud_radius must be positive and finite, got {self.cloud_radius!r}")
        if not 0.0 <= self.delta < math.inf:
            raise ValueError(f"delta must be finite and >= 0, got {self.delta!r}")
        object.__setattr__(self, "positions", pos)

    @property
    def n(self) -> int:
        return self.positions.shape[0]


def uniform_ball_cloud(n: int, cloud_radius: float, rng: np.random.Generator | SplitMix64, *,
                       particle_radius: float, delta: float | None = None) -> ParticleCloud:
    """Seeded uniform sample of the ball B(0, R0), scaled from :func:`sample_unit_ball`.

    ``rng`` is any generator with numpy's ``normal(size=)`` and ``uniform(size=)``
    draws: a ``numpy.random.Generator`` or a :class:`~dropsed.patch_waves.SplitMix64`.
    """
    if delta is None:
        delta = default_regularization(cloud_radius, n)
    return ParticleCloud(positions=cloud_radius * sample_unit_ball(n, rng),
                         particle_radius=particle_radius, cloud_radius=cloud_radius, delta=delta)


def _separation_factors(positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factors whose batched product holds the separation planes of a tile.

    ``left`` (3, N, 2) has rows [x_ik, 1] and ``right`` (3, 2, N) has columns
    [1, -x_jk], so (left[:, I] @ right[:, :, J])[k, i, j] = x_ik - x_jk.  Of
    the two products one is exactly x_ik and the other exactly -x_jk, so
    whatever order a BLAS adds them in, the entry is x_ik - x_jk rounded
    once: the value ``np.subtract`` gives, except that an exact zero may
    come out as +0.0 where the subtraction gives -0.0.
    """
    x = positions.T
    return np.stack([x, np.ones_like(x)], axis=-1), np.stack([np.ones_like(x), -x], axis=1)


def _interaction_sum(positions: np.ndarray, delta: float) -> tuple[np.ndarray, int]:
    """Sum over j != i of the Oseen response U(x_i - x_j) e3, with clamping.

    Returns the (N, 3) interaction velocities and the number of clamped pairs
    (ordered pairs, so each close pair counts twice).

    The sum runs over tiles of particle blocks (I, J), J >= I, of at most
    ``_PAIR_TILE`` particles a side.  A tile's separations, squared
    distances and Oseen factors live in buffers allocated once per call and
    filled in place.  The separations are one batched product of the
    factors of :func:`_separation_factors`, formed once per call, and hold
    the values a subtraction gives.  The row sums are one matrix-vector
    product of the work buffer, viewed as (4 rows, cols), with ones, and the
    column sums are ones times the buffer.  BLAS adds these in another order
    than ``np.sum``, which moves velocities by about 1e-16 relative.
    Because U(d) e3 = U(-d) e3, an off-diagonal tile serves both particles
    of each pair: its row sums go to block I and its column sums to block J,
    and each of its clamped cells counts twice.  A diagonal tile already
    holds both ordered cells of its pairs, so it adds row sums only and
    counts every clamped cell once.  A clamped cell is one with
    sqrt(r2) < delta, the test of the clamp itself.  A tile with
    sqrt(min r2) >= delta has none: it passes delta = 0 to
    :func:`~dropsed.kernels.oseen_terms`, which then skips its maximum pass,
    since sqrt is monotone and correctly rounded, so every r of the tile
    already equals max(r, delta).  Coincident particles are an error naming
    both global indices.
    """
    n = positions.shape[0]
    left, right = _separation_factors(positions)
    b = min(_PAIR_TILE, n)
    ones = np.ones(b)
    # rows 0-2: sums of d * coef, row 3: sums of inv_r (see oseen_terms)
    acc = np.zeros((4, n))
    work_buf = np.empty(4 * b * b)  # a tile's d planes, then its inv_r plane
    r2_buf = np.empty(b * b)
    coef_buf = np.empty(b * b)
    clamped_pairs = 0
    for i0 in range(0, n, b):
        i1 = min(i0 + b, n)
        for j0 in range(i0, n, b):
            j1 = min(j0 + b, n)
            rows, cols = i1 - i0, j1 - j0
            cells = rows * cols
            work = work_buf[:4 * cells].reshape(4, rows, cols)
            d = work[:3]
            r2 = r2_buf[:cells].reshape(rows, cols)
            coef = coef_buf[:cells].reshape(rows, cols)
            np.matmul(left[:, i0:i1], right[:, :, j0:j1], out=d)
            np.einsum("kij,kij->ij", d, d, out=r2)
            if i0 == j0:
                np.fill_diagonal(r2, np.inf)
            closest = r2.min()
            if closest == 0.0:
                i, j = np.argwhere(r2 == 0.0)[0]
                raise ValueError(f"coincident particles {i0 + i} and {j0 + j}: "
                                 "no interaction direction")
            # the clamp's own test, sqrt(r2) < delta: a test of r2 against
            # delta * delta would differ from it by that product's rounding
            clamp = delta if math.sqrt(closest) < delta else 0.0
            if clamp:
                close = int(np.count_nonzero(np.sqrt(r2, out=coef) < delta))
                clamped_pairs += close if i0 == j0 else 2 * close
            oseen_terms(d, r2, clamp, work[3], coef)
            np.multiply(d, coef, out=d)
            acc[:, i0:i1] += (work.reshape(4 * rows, cols) @ ones[:cols]).reshape(4, rows)
            if i0 != j0:
                acc[:, j0:j1] += ones[:rows] @ work
    if clamped_pairs:
        log.info("clamped %d ordered pairs below delta=%.3e", clamped_pairs, delta)
    vel = acc[:3]
    vel[2] += acc[3]
    return vel.T, clamped_pairs


def cloud_velocities(cloud: ParticleCloud) -> tuple[np.ndarray, int]:
    """All particle velocities (drag + interactions) and the clamp-event count."""
    vel, clamps = _interaction_sum(cloud.positions, cloud.delta)
    return stokes_drag_velocity(cloud.particle_radius) - vel, clamps


def mean_settling_velocity(cloud: ParticleCloud) -> np.ndarray:
    """Average particle velocity of the cloud."""
    vel, _ = cloud_velocities(cloud)
    return vel.mean(axis=0)


def _collective_speed(cloud: ParticleCloud) -> float:
    """The cloud's vertical fall speed as a uniform ball of density (N - 1) / (|B_1| R0^3)."""
    density = (cloud.n - 1) / (UNIT_BALL_VOLUME * cloud.cloud_radius**3)
    return wave_speed(cloud.cloud_radius, density)


def mean_velocity_formula(cloud: ParticleCloud) -> np.ndarray:
    """Collective fall-speed prediction: U_S plus the wave speed of the cloud as a uniform ball."""
    collective = np.array([0.0, 0.0, _collective_speed(cloud)])
    return stokes_drag_velocity(cloud.particle_radius) + collective


def rescale_cloud(cloud: ParticleCloud) -> tuple[ParticleCloud, float]:
    """Nondimensionalize: positions by R0, velocities by the collective fall speed.

    Returns the rescaled cloud (unit cloud radius, regularization scaled
    alike) and the velocity scale (N - 1) / (5 pi R0) that divides
    physical velocities.  The rescaled dynamics is supplied by
    :func:`rescaled_velocities`; its mean fall speed is one by construction.
    """
    rescaled = ParticleCloud(
        positions=cloud.positions / cloud.cloud_radius,
        particle_radius=cloud.particle_radius,
        cloud_radius=1.0,
        delta=cloud.delta / cloud.cloud_radius,
    )
    return rescaled, -_collective_speed(cloud)


def rescaled_velocities(positions: np.ndarray, delta: float) -> tuple[np.ndarray, int]:
    """Dimensionless cloud dynamics: the Oseen sum on e3 over its unit ball's speed -(N - 1)/(5 pi).

    For a single particle the interaction sum is empty and the velocity is
    zero (stationary in the co-moving frame).
    """
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    if n == 1:
        return np.zeros((1, 3)), 0
    vel, clamps = _interaction_sum(positions, delta)
    return vel / wave_speed(1.0, (n - 1) / UNIT_BALL_VOLUME), clamps


@dataclass(frozen=True)
class CloudTrajectory:
    """Snapshots of an integrated cloud run, its t = 0 velocity and its clamp count."""

    times: np.ndarray = field(repr=False)
    positions: list = field(repr=False)  # list of (N, 3) arrays
    initial_velocity: np.ndarray = field(repr=False)  # (N, 3), the rescaled velocity at t = 0
    clamp_events: int = 0


def evolve_cloud(cloud: ParticleCloud, T: float, dt: float,
                 snapshot_every: float | None = None) -> CloudTrajectory:
    """Integrate the rescaled dynamics with the explicit midpoint rule.

    ``cloud`` is given in rescaled coordinates (see :func:`rescale_cloud`).
    As every force is the unit force along -e3, the lab-frame run of the
    physical cloud is x(t) = U_S t + R0 y(s t / R0), y being this run and s
    the velocity scale, and the drift-subtracted run drops U_S t; the
    midpoint rule respects that map.  ``T`` and ``snapshot_every`` (default:
    only at T) must be whole numbers of steps ``dt``; :func:`~dropsed.quadrature.march`
    stores the times k*dt of :func:`~dropsed.quadrature.snapshot_steps`.  The velocity at
    t = 0 is computed once, even for T = 0, returned as ``initial_velocity`` and reused
    as step 1's first stage, so a run of n steps evaluates max(1, 2n) pair sums
    (none for a lone particle); ``clamp_events`` counts the integrator's clamps.
    """
    stored = snapshot_steps(T, dt, snapshot_every)
    delta = cloud.delta
    x0 = cloud.positions.copy()
    initial_velocity, initial_clamps = rescaled_velocities(x0, delta)
    clamp_total = 0

    def step(x: np.ndarray, k: int) -> np.ndarray:
        nonlocal clamp_total
        v1, c1 = (initial_velocity, initial_clamps) if k == 1 else rescaled_velocities(x, delta)
        v2, c2 = rescaled_velocities(x + 0.5 * dt * v1, delta)
        x = x + dt * v2
        clamp_total += c1 + c2
        if not np.all(np.isfinite(x)):
            bad = int(np.argmax(~np.isfinite(x).all(axis=1)))
            raise ArithmeticError(f"non-finite position for particle {bad} at t={k * dt:.4f}")
        return x

    snaps = list(march(x0, step, stored))
    return CloudTrajectory(times=np.array(stored) * dt, positions=snaps,
                           initial_velocity=initial_velocity, clamp_events=clamp_total)
