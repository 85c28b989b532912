"""Point-particle sedimentation cloud interacting through the Oseen tensor.

Each particle falls at the single-sphere drag speed plus the fluid velocity
induced by every other particle's point force.  The cloud-scale rescaling
(positions by the cloud radius, velocities by the collective fall speed)
produces a dimensionless dynamics whose mean fall speed is one; that is the
form integrated by the trajectory driver.

Force evaluation is an O(N^2) pairwise sum over a read-only position
snapshot.  Every particle carries the same force and U(d) f = U(-d) f, so
each unordered pair is evaluated once: the sum runs over square tiles of
particle blocks (I, J) with J >= I, at most ``_PAIR_TILE`` particles a side,
and an off-diagonal tile adds its row sums to block I and its column sums
to block J.  Each tile works in a few buffers allocated once per sum and
filled in place by the one Oseen kernel, :func:`~dropsed.kernels.oseen_terms`.
A diagonal tile holds both ordered cells of each of its pairs and adds row
sums only; its self cells need no mask, because a squared distance of +inf
makes their contribution exactly zero.  Each integrator stage commits
positions in a single assignment.  Pairs closer than the regularization
distance interact as if separated by exactly that distance along the same
direction (r_eff = max(r, delta)), and every such clamp is counted, as
ordered pairs, and logged.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator

from .kernels import FluidParams, oseen_terms, stokes_drag_velocity
from .patch_waves import sample_unit_ball
from .quadrature import snapshot_stride, step_count

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

_E3 = np.array([0.0, 0.0, 1.0])

# Particles per side of one tile of the pair sum: large enough that numpy's
# per-call overhead is small against the tile's cells, small enough that the
# tile's six (b, b) planes (1.9 MB at b = 200) stay in a core's L2 cache.
_PAIR_TILE = 200


def default_regularization(cloud_radius: float, n: int) -> float:
    """A small fraction of the mean interparticle distance, 1e-3 R0 N^{-1/3}."""
    return 1e-3 * cloud_radius * n ** (-1.0 / 3.0)


@dataclass(frozen=True)
class ParticleCloud:
    """Positions of N point particles plus fluid and regularization parameters."""

    positions: np.ndarray = field(repr=False)
    params: FluidParams
    cloud_radius: float
    delta: float = 0.0

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 1:
            raise ValueError("positions must have shape (N, 3) with N >= 1")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        if not self.cloud_radius > 0:
            raise ValueError("cloud radius must be positive")
        if not 0.0 <= self.delta < math.inf:
            raise ValueError(f"delta must be finite and >= 0, got {self.delta!r}")
        object.__setattr__(self, "positions", pos)

    @property
    def n(self) -> int:
        return self.positions.shape[0]


def uniform_ball_cloud(n: int, params: FluidParams, cloud_radius: float,
                       rng: Generator, delta: float | None = None) -> ParticleCloud:
    """Seeded uniform sample of the ball B(0, R0), scaled from :func:`sample_unit_ball`."""
    if delta is None:
        delta = default_regularization(cloud_radius, n)
    return ParticleCloud(positions=cloud_radius * sample_unit_ball(n, rng), params=params,
                         cloud_radius=cloud_radius, delta=delta)


def _interaction_sum(positions: np.ndarray, force: np.ndarray, mu: float,
                     delta: float) -> tuple[np.ndarray, int]:
    """Sum over j != i of the Oseen response U(x_i - x_j) force, with clamping.

    Returns the (N, 3) interaction velocities and the number of clamped pairs
    (ordered pairs, so each close pair counts twice).

    The sum runs over tiles of particle blocks (I, J), J >= I, of at most
    ``_PAIR_TILE`` particles a side.  A tile's separations, squared
    distances and Oseen factors live in buffers allocated once per call and
    filled in place.  Because U(d) f = U(-d) f for the one shared force, an
    off-diagonal tile serves both particles of each pair: its row sums go to
    block I and its column sums to block J, and each of its clamped cells
    counts twice.  A diagonal tile already holds both ordered cells of its
    pairs, so it adds row sums only and counts every clamped cell once.
    Coincident particles are an error naming both global indices.
    """
    n = positions.shape[0]
    x = np.ascontiguousarray(positions.T)
    b = min(_PAIR_TILE, n)
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
            shape = (i1 - i0, j1 - j0)
            cells = shape[0] * shape[1]
            work = work_buf[:4 * cells].reshape(4, *shape)
            d = work[:3]
            r2 = r2_buf[:cells].reshape(shape)
            coef = coef_buf[:cells].reshape(shape)
            np.subtract(x[:, i0:i1, None], x[:, None, j0:j1], out=d)
            np.einsum("kij,kij->ij", d, d, out=r2)
            if i0 == j0:
                np.fill_diagonal(r2, np.inf)
            closest = r2.min()
            if closest == 0.0:
                i, j = np.argwhere(r2 == 0.0)[0]
                raise ValueError(f"coincident particles {i0 + i} and {j0 + j}: "
                                 "no interaction direction")
            if closest < delta * delta:
                close = int(np.count_nonzero(r2 < delta * delta))
                clamped_pairs += close if i0 == j0 else 2 * close
            oseen_terms(d, r2, force, mu, delta, work[3], coef)
            np.multiply(d, coef, out=d)
            acc[:, i0:i1] += work.sum(axis=2)
            if i0 != j0:
                acc[:, j0:j1] += work.sum(axis=1)
    if clamped_pairs:
        log.info("clamped %d ordered pairs below delta=%.3e", clamped_pairs, delta)
    vel = acc[:3]
    vel += np.multiply.outer(force, acc[3])
    return vel.T, clamped_pairs


def cloud_velocities(cloud: ParticleCloud) -> tuple[np.ndarray, int]:
    """All particle velocities (drag + interactions) and the clamp-event count."""
    vel, clamps = _interaction_sum(cloud.positions, cloud.params.force, cloud.params.mu, cloud.delta)
    return stokes_drag_velocity(cloud.params) + vel, clamps


def mean_settling_velocity(cloud: ParticleCloud) -> np.ndarray:
    """Average particle velocity of the cloud."""
    vel, _ = cloud_velocities(cloud)
    return vel.mean(axis=0)


def mean_velocity_formula(cloud: ParticleCloud) -> np.ndarray:
    """Collective fall-speed prediction U_S + (N - 1) F / (5 pi mu R0)."""
    p = cloud.params
    return stokes_drag_velocity(p) + (cloud.n - 1) * p.force / (5.0 * math.pi * p.mu * cloud.cloud_radius)


def _require_downward_force(force: np.ndarray) -> None:
    """The rescaled dynamics drives along -e3, so it describes only a force along -e3."""
    if not (force[0] == 0.0 and force[1] == 0.0 and force[2] < 0.0):
        raise ValueError(f"the rescaled frame needs a force along -e3, got {force.tolist()}")


def rescale_cloud(cloud: ParticleCloud) -> tuple[ParticleCloud, float]:
    """Nondimensionalize: positions by R0, velocities by the collective fall speed.

    Returns the rescaled cloud (unit cloud radius, regularization scaled
    alike) and the velocity scale |(N - 1) F| / (5 pi mu R0) that divides
    physical velocities.  The rescaled dynamics is supplied by
    :func:`rescaled_velocities`; its mean fall speed is one by construction.
    It drives along -e3, so any other force direction is rejected.
    """
    p = cloud.params
    _require_downward_force(p.force)
    scale = (cloud.n - 1) * float(np.linalg.norm(p.force)) / (5.0 * math.pi * p.mu * cloud.cloud_radius)
    rescaled = ParticleCloud(
        positions=cloud.positions / cloud.cloud_radius,
        params=p,
        cloud_radius=1.0,
        delta=cloud.delta / cloud.cloud_radius,
    )
    return rescaled, scale


def rescaled_velocities(positions: np.ndarray, delta: float) -> tuple[np.ndarray, int]:
    """Dimensionless cloud dynamics: -(5/(8(N-1))) sum of the bare Oseen kernel on e3.

    For a single particle the interaction sum is empty and the velocity is
    zero (stationary in the co-moving frame).
    """
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    if n == 1:
        return np.zeros((1, 3)), 0
    # bare kernel = 8 pi * Oseen with unit viscosity; direction e3, force magnitude 1
    vel, clamps = _interaction_sum(positions, _E3, 1.0, delta)
    return -(5.0 / (8.0 * (n - 1))) * (8.0 * math.pi) * vel, clamps


@dataclass(frozen=True)
class CloudTrajectory:
    """Snapshots of an integrated cloud run, its t = 0 velocity and its clamp count."""

    times: np.ndarray = field(repr=False)
    positions: list = field(repr=False)  # list of (N, 3) arrays
    initial_velocity: np.ndarray = field(repr=False)  # (N, 3), the frame's velocity law at t = 0
    clamp_events: int = 0


_FRAMES = ("rescaled", "lab", "drift_subtracted")


def evolve_cloud(cloud: ParticleCloud, T: float, dt: float, frame: str = "rescaled",
                 snapshot_every: float | None = None) -> CloudTrajectory:
    """Integrate the cloud with the explicit midpoint rule.

    ``frame`` chooses the velocity law: the dimensionless rescaled dynamics
    (cloud given in rescaled coordinates), the lab frame (drag plus
    interactions), or the drift-subtracted frame (interactions only, i.e.
    the lab frame co-moving at the single-particle drag velocity); the
    rescaled frame needs the cloud's force along -e3.  ``T``
    and ``snapshot_every`` (default: only at T) must be whole numbers of
    steps ``dt``.  The velocity at t = 0 is computed once, even for T = 0,
    returned as ``initial_velocity`` and reused as step 1's first stage, so
    a run evaluates max(1, 2 n_steps) pair sums; ``clamp_events`` counts the
    clamps of the integrator's stages.
    """
    if frame not in _FRAMES:
        raise ValueError(f"frame must be one of {_FRAMES}, got {frame!r}")
    n_steps = step_count(T, dt)
    every = snapshot_stride(snapshot_every, dt, n_steps)

    p = cloud.params
    if frame == "rescaled":
        _require_downward_force(p.force)

    def velocity(x: np.ndarray) -> tuple[np.ndarray, int]:
        if frame == "rescaled":
            return rescaled_velocities(x, cloud.delta)
        vel, clamps = _interaction_sum(x, p.force, p.mu, cloud.delta)
        if frame == "lab":
            vel = vel + stokes_drag_velocity(p)
        return vel, clamps

    x = cloud.positions.copy()
    initial_velocity, initial_clamps = velocity(x)
    times = [0.0]
    snaps = [x.copy()]
    clamp_total = 0
    for k in range(1, n_steps + 1):
        v1, c1 = (initial_velocity, initial_clamps) if k == 1 else velocity(x)
        v2, c2 = velocity(x + 0.5 * dt * v1)
        x = x + dt * v2
        clamp_total += c1 + c2
        if not np.all(np.isfinite(x)):
            bad = int(np.argmax(~np.isfinite(x).all(axis=1)))
            raise ArithmeticError(f"non-finite position for particle {bad} at t={k * dt:.4f}")
        if k % every == 0 or k == n_steps:
            times.append(k * dt)
            snaps.append(x.copy())
    return CloudTrajectory(times=np.array(times), positions=snaps,
                           initial_velocity=initial_velocity, clamp_events=clamp_total)
