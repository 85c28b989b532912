"""One-shot vectorized reference for the surface equation's quadratures.

:func:`dropsed.surface_evolution.advection_and_source` takes the node rows in
blocks, with the grid geometry cached and the quadrature row sums done as
matrix products of the moments.  This module keeps the form it replaced:
every (node, mid) pair of the grid as one array, each bracket of the
integrands built entry by entry, and the offset-grid Simpson sum plus the
two end strips applied to the products.  Tests compare the two.
"""

from __future__ import annotations

import math

import numpy as np

from dropsed.kernels import azimuthal_moments
from dropsed.quadrature import simpson_weights
from dropsed.surface_evolution import RadialProfile, theta_derivative


def advection_and_source(p: RadialProfile, cdot3: float):
    """(a1, a2) on every node, from one (n, n - 1) array per factor."""
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
    i0, i1 = azimuthal_moments(b, a_minus_b)
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
    return a1, a2
