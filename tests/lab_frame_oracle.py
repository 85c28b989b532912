"""Direct physical-frame integration of a cloud, the law the rescaled run replaced.

The rescaled run y maps to the lab frame (drag plus interactions) as
x(t) = R0 y(s t / R0) + U_S t, and to the drift-subtracted frame
(interactions only) without the U_S t.  This module integrates those two
laws directly with the same midpoint rule, so tests compare the two routes.
"""

from __future__ import annotations

import numpy as np

from dropsed.kernels import stokes_drag_velocity
from dropsed.micro_sim import ParticleCloud, _interaction_sum


def evolve_physical(cloud: ParticleCloud, n_steps: int, dt: float, lab: bool):
    """Positions after each of ``n_steps`` midpoint steps dt, and the stages' clamp count."""
    drift = stokes_drag_velocity(cloud.particle_radius) if lab else np.zeros(3)

    def velocity(x):
        vel, clamps = _interaction_sum(x, cloud.delta)
        return -vel + drift, clamps

    x, snaps, clamp_total = cloud.positions.copy(), [], 0
    for _ in range(n_steps):
        v1, c1 = velocity(x)
        v2, c2 = velocity(x + 0.5 * dt * v1)
        x = x + dt * v2
        clamp_total += c1 + c2
        snaps.append(x)
    return snaps, clamp_total
