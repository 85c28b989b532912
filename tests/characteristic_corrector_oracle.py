"""Iterated-corrector reference for the precomputed linearized propagator.

Production :func:`dropsed.linear_stability.linearized_evolve` applies one
precomputed step matrix per step.  This module keeps the stepper it replaced:
each step rebuilds cubic splines of the field and of its source, transports
both along the exact characteristics and iterates the trapezoidal corrector
to a fixed point.  Tests compare the two trajectories.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import CubicSpline

from dropsed import linear_stability as ls
from dropsed.quadrature import PhiGrid, ThetaGrid, snapshot_steps


def _l_operator_matrices(theta_grid: ThetaGrid):
    """Grid-sampled linearized source: value matrix, derivative matrix, diagonal."""
    R = ls._grid_kernel(theta_grid)
    tb = theta_grid.nodes
    w = theta_grid.weights
    on_h = -(1.0 / (8.0 * math.pi)) * R * (w * 2.5 * np.sin(tb) ** 2)[None, :]
    on_hp = +(1.0 / (8.0 * math.pi)) * R * (w * np.sin(tb) * np.cos(tb))[None, :]
    return on_h, on_hp, ls.k_coefficient(tb)


def linearized_evolve(h0: ls.Perturbation, t: float, theta_grid: ThetaGrid, phi_grid: PhiGrid,
                      dt: float = 0.01, snapshot_every: float | None = None) -> ls.LinearEvolution:
    """Integrate the linearized dynamics by stepping along the exact characteristics.

    Each step transports the field along the closed-form characteristics and
    adds the source contribution with a trapezoidal corrector iterated to a
    fixed point; a corrector that stops contracting (dt too large) raises.
    Values off the grid are cubic-spline interpolated, and the derivative
    consumed by the nonlocal term is the spline derivative.  ``t`` must be a
    whole number of steps ``dt``, and so must ``snapshot_every`` (default:
    only the initial and final states); states are stored at the times k*dt
    of :func:`dropsed.quadrature.snapshot_steps`.  ``phi_grid`` changes no value.
    """
    stored = snapshot_steps(t, dt, snapshot_every, "t")
    theta = theta_grid.nodes
    on_h, on_hp, k_diag = _l_operator_matrices(theta_grid)

    def l_of(values: np.ndarray, spline: CubicSpline) -> np.ndarray:
        return on_h @ values + on_hp @ spline(theta, 1) + k_diag * values

    feet = ls.characteristic_flow(0.0, dt, theta)  # backtraced nodes, one step
    h = np.asarray(h0(theta), dtype=float)
    values = [h.copy()]
    scale0 = float(np.max(np.abs(h))) or 1.0
    for k0, k1 in zip(stored, stored[1:]):
        for k in range(k0 + 1, k1 + 1):
            spline = CubicSpline(theta, h)
            h_foot = spline(feet)
            lh = l_of(h, spline)
            lh_foot = CubicSpline(theta, lh)(feet)
            h_next = h_foot + dt * lh_foot
            for it in range(30):
                spline_next = CubicSpline(theta, h_next)
                h_new = h_foot + 0.5 * dt * (lh_foot + l_of(h_next, spline_next))
                delta = float(np.max(np.abs(h_new - h_next)))
                h_next = h_new
                if delta <= 1e-12 * max(1.0, float(np.max(np.abs(h_next)))):
                    break
            else:
                raise ValueError(f"corrector not contracting at step {k}; reduce dt={dt}")
            h = h_next
            if not np.all(np.isfinite(h)) or np.max(np.abs(h)) > 1e12 * scale0:
                raise ValueError(f"linearized evolution diverged at step {k}; reduce dt={dt}")
        values.append(h.copy())
    return ls.LinearEvolution(times=np.array(stored) * dt, values=np.array(values))
