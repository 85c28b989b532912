"""Azimuthal Simpson reference for the closed-form azimuthal integrals.

The production surface-equation quadrature and the Galerkin kernel integrate
over phi exactly (complete elliptic integrals).  This module keeps the
brute-force path they replaced: the same integrands sampled on an explicit
(n, m, n_phi) mesh and contracted with Simpson weights in phi, with the
bounded chord ratio :func:`desingularized_ratio` as the pointwise integrand
of the Galerkin kernel.  Tests compare the two, and the pinned regression
constants computed with this rule are reproduced here.
"""

from __future__ import annotations

import math

import numpy as np

from dropsed import linear_stability as ls
from dropsed.quadrature import PhiGrid, ThetaGrid, simpson_weights
from dropsed.surface_evolution import RadialProfile, theta_derivative


def desingularized_ratio(theta, thetabar, phi):
    """Bounded form of (-sin t cos tb cos p + cos t sin tb) / |e(t, 0) - e(tb, p)| on the unit sphere.

    e(t, p) is the unit vector at polar angle t and azimuth p.  Rewritten as
    a quotient whose numerator is a linear combination of two of the three
    components whose squares make up the denominator, so the value is
    bounded by sqrt(2) everywhere.  At coincidence (tb, p) = (t, 0) both
    vanish and the quotient has no limit; samples within 1e-12 of
    coincidence (where the quotient is pure rounding noise) return 0 under
    the pole-node policy.
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
    return float(out) if out.ndim == 0 else out


def _operators(theta: np.ndarray, n_theta: int, n_phi: int):
    """Static quadrature tensors for evaluation angles ``theta`` on an (n_theta, n_phi) grid pair."""
    h = math.pi / (n_theta - 1)
    mids = (np.arange(n_theta - 1) + 0.5) * h
    w_mid = simpson_weights(mids.size, h)
    w_phi = PhiGrid.uniform(n_phi).weights()
    phi = PhiGrid.uniform(n_phi).nodes
    st, ct = np.sin(theta), np.cos(theta)
    stb, ctb = np.sin(mids), np.cos(mids)
    cp = np.cos(phi)
    # angle cosine between e(theta, 0) and e(mid, phi), shape (n, m, p)
    psi = st[:, None, None] * stb[None, :, None] * cp[None, None, :] + (ct[:, None] * ctb[None, :])[:, :, None]
    # radial-velocity bracket of the source integrand
    br2 = -st[:, None, None] * ctb[None, :, None] * cp[None, None, :] + (ct[:, None] * stb[None, :])[:, :, None]
    # static pieces of the angular-velocity bracket
    ct3 = ct[:, None, None] * ctb[None, :, None] * cp[None, None, :]
    st2 = st[:, None] * stb[None, :]
    return dict(theta=theta, h=h, mids=mids, w_mid=w_mid, w_phi=w_phi,
                st=st, ct=ct, stb=stb, ctb=ctb, cp=cp, psi=psi, br2=br2, ct3=ct3, st2=st2)


def _quad_with_end_strips(integrand: np.ndarray, ops) -> np.ndarray:
    """Contract an (n, m, p) integrand with the offset-grid and phi weights.

    Adds the trapezoid closure of the two half-spacing end strips, where the
    integrand decays linearly to zero at the poles.
    """
    per_mid = integrand @ ops["w_phi"]          # (n, m)
    ends = 0.25 * ops["h"] * (per_mid[:, 0] + per_mid[:, -1])
    return per_mid @ ops["w_mid"] + ends


def _advection_rows(p: RadialProfile, cdot3: float, phi_grid: PhiGrid, rows: slice):
    """(a1, a2) at the grid nodes ``rows``; the source integral runs over the whole profile."""
    ops = _operators(p.grid.nodes[rows], p.grid.n_theta, phi_grid.n_phi)
    dr = theta_derivative(p.r, p.grid.spacing)
    rm = 0.5 * (p.r[:-1] + p.r[1:])
    drm = 0.5 * (dr[:-1] + dr[1:])
    r = p.r[rows]

    gam = r[:, None, None] ** 2 + (rm**2)[None, :, None] \
        - 2.0 * (r[:, None] * rm[None, :])[:, :, None] * ops["psi"]
    inv_sqrt = 1.0 / np.sqrt(np.maximum(gam, 1e-300))
    base = (rm * ops["stb"] - drm * ops["ctb"])

    common2 = (base * rm**2 * ops["stb"])[None, :, None] * ops["br2"] * inv_sqrt
    q2 = _quad_with_end_strips(common2, ops)
    a2 = -q2 / (8.0 * math.pi) - cdot3 * ops["ct"]

    br1 = r[:, None, None] * ops["cp"][None, None, :] \
        - rm[None, :, None] * (ops["ct3"] + ops["st2"][:, :, None])
    common1 = (base * rm * ops["stb"])[None, :, None] * br1 * inv_sqrt
    q1 = _quad_with_end_strips(common1, ops)
    a1 = -q1 / (8.0 * math.pi * r) + cdot3 * ops["st"] / r
    return a1, a2


def advection_and_source(p: RadialProfile, cdot3: float, phi_grid: PhiGrid):
    """(a1, a2) of the surface equation with Simpson quadrature in phi.

    Evaluated in blocks of theta rows to bound the size of the
    (rows, n_theta - 1, n_phi) intermediates.
    """
    n = p.grid.n_theta
    block = max(1, 1_000_000 // ((n - 1) * phi_grid.n_phi))
    a1, a2 = np.empty(n), np.empty(n)
    for i0 in range(0, n, block):
        rows = slice(i0, min(i0 + block, n))
        a1[rows], a2[rows] = _advection_rows(p, cdot3, phi_grid, rows)
    a1[0] = 0.0
    a1[-1] = 0.0
    return a1, a2


def phi_reduced_kernel(theta_eval: np.ndarray, theta_grid: ThetaGrid, phi_grid: PhiGrid) -> np.ndarray:
    """Azimuthal Simpson contraction of the bounded chord-ratio kernel.

    Returns the matrix R[m, l] = integral over phi of
    ratio(theta_eval[m], tbar_l, phi), evaluated in row chunks to bound the
    size of the (m, l, phi) intermediate.
    """
    tb = theta_grid.nodes
    phi = phi_grid.nodes
    w_phi = phi_grid.weights()
    out = np.empty((theta_eval.size, tb.size))
    chunk = max(1, int(8_000_000 // max(tb.size * phi.size, 1)))
    for i0 in range(0, theta_eval.size, chunk):
        i1 = min(i0 + chunk, theta_eval.size)
        vals = desingularized_ratio(
            theta_eval[i0:i1, None, None], tb[None, :, None], phi[None, None, :]
        )
        out[i0:i1] = vals @ w_phi
    return out


def use_phi_simpson_kernels(monkeypatch, phi_grid: PhiGrid) -> None:
    """Route linear_stability's kernels through the Simpson rule on ``phi_grid``.

    Both the per-call kernel and the cached grid kernel are replaced, so no
    Simpson kernel ever lands in the production cache.
    """
    def sphere_kernel(theta_eval, thetabar):
        return phi_reduced_kernel(np.atleast_1d(theta_eval), ThetaGrid.uniform(len(thetabar)), phi_grid)

    def grid_kernel(n_theta):
        return sphere_kernel(ThetaGrid.uniform(n_theta).nodes, ThetaGrid.uniform(n_theta).nodes)

    monkeypatch.setattr(ls, "_sphere_kernel", sphere_kernel)
    monkeypatch.setattr(ls, "_grid_kernel", grid_kernel)
