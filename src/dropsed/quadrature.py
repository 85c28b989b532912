"""Composite Simpson quadrature on angular grids and the orthonormal polynomial basis.

Everything here is deterministic and stateless: grids are frozen dataclasses,
rules are pure functions of their inputs.  Simpson is the production rule
throughout the package (the grid-refinement helper exists for diagnostics
only, never as the main integration path).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)

__all__ = [
    "ThetaGrid",
    "PhiGrid",
    "simpson_weights",
    "simpson_1d",
    "simpson_2d",
    "refine_simpson_2d",
    "basis_eval",
    "basis_matrix",
    "MAX_BASIS_DEGREE",
]

# Highest polynomial degree the three-term recurrence is contracted for.
# The recurrence itself is stable far beyond this; the cap just keeps
# requests honest.
MAX_BASIS_DEGREE = 256


def simpson_weights(n_nodes: int, spacing: float) -> np.ndarray:
    """Composite Simpson weights for ``n_nodes`` uniformly spaced samples.

    For an even panel count (odd ``n_nodes``) this is the classic
    1,4,2,...,4,1 rule.  For an odd panel count the last interval is handled
    by fitting a parabola through the final three samples, which keeps the
    rule fourth-order for any ``n_nodes >= 3``.
    """
    if n_nodes < 3:
        raise ValueError(f"Simpson needs at least 3 samples, got {n_nodes}")
    w = np.zeros(n_nodes)
    if n_nodes % 2 == 1:
        w[0] = w[-1] = 1.0
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w *= spacing / 3.0
    else:
        w[: n_nodes - 1] = simpson_weights(n_nodes - 1, spacing)
        w[-1] += 5.0 * spacing / 12.0
        w[-2] += 8.0 * spacing / 12.0
        w[-3] -= spacing / 12.0
    return w


@dataclass(frozen=True)
class ThetaGrid:
    """Uniform polar-angle grid on [0, pi] including both endpoints."""

    n_theta: int
    nodes: np.ndarray = field(repr=False)
    spacing: float

    @classmethod
    def uniform(cls, n_theta: int) -> "ThetaGrid":
        if n_theta < 3:
            raise ValueError(f"n_theta must be >= 3, got {n_theta}")
        nodes = np.linspace(0.0, math.pi, n_theta)
        return cls(n_theta=n_theta, nodes=nodes, spacing=math.pi / (n_theta - 1))

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size != self.n_theta:
            raise ValueError("nodes must be a 1-d array of length n_theta")
        if not (np.all(np.diff(nodes) > 0) and nodes[0] == 0.0 and nodes[-1] == math.pi):
            raise ValueError("nodes must increase strictly from 0 to pi")
        if not np.allclose(np.diff(nodes), self.spacing, rtol=1e-12, atol=0.0):
            raise ValueError("nodes must be uniformly spaced")
        if abs(self.spacing * (self.n_theta - 1) - math.pi) > 1e-12 * math.pi:
            raise ValueError("spacing inconsistent with node count")
        object.__setattr__(self, "nodes", nodes)

    def weights(self) -> np.ndarray:
        return simpson_weights(self.n_theta, self.spacing)


@dataclass(frozen=True)
class PhiGrid:
    """Uniform azimuthal grid spanning [0, 2*pi]."""

    n_phi: int
    nodes: np.ndarray = field(repr=False)

    @classmethod
    def uniform(cls, n_phi: int) -> "PhiGrid":
        if n_phi < 3:
            raise ValueError(f"n_phi must be >= 3, got {n_phi}")
        return cls(n_phi=n_phi, nodes=np.linspace(0.0, 2.0 * math.pi, n_phi))

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size != self.n_phi:
            raise ValueError("nodes must be a 1-d array of length n_phi")
        if nodes[0] != 0.0 or nodes[-1] != 2.0 * math.pi:
            raise ValueError("nodes must span [0, 2*pi]")
        d = np.diff(nodes)
        if not np.allclose(d, d[0], rtol=1e-12, atol=0.0):
            raise ValueError("nodes must be uniformly spaced")
        object.__setattr__(self, "nodes", nodes)

    @property
    def spacing(self) -> float:
        return 2.0 * math.pi / (self.n_phi - 1)

    def weights(self) -> np.ndarray:
        return simpson_weights(self.n_phi, self.spacing)


def _sample(f, x: np.ndarray) -> np.ndarray:
    """Evaluate f on an array, falling back to a scalar loop."""
    try:
        vals = np.asarray(f(x), dtype=float)
        if vals.shape == x.shape:
            return vals
    except (TypeError, ValueError):
        pass
    return np.array([float(f(xi)) for xi in x])


def simpson_1d(f, a: float, b: float, n: int) -> float:
    """Composite Simpson approximation of the integral of ``f`` over [a, b].

    Parameters
    ----------
    f : callable
        Integrand; may accept arrays.
    a, b : float
        Integration bounds, a < b.
    n : int
        Number of panels.  Must be even; an odd request is rounded up by one
        with a logged notice.

    The rule is exact for cubic polynomials.  Non-finite samples are
    rejected with the offending node reported.
    """
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    if n < 2:
        raise ValueError(f"need at least 2 panels, got {n}")
    if n % 2 == 1:
        log.info("simpson_1d: odd panel count %d rounded up to %d", n, n + 1)
        n += 1
    x = np.linspace(a, b, n + 1)
    y = _sample(f, x)
    bad = ~np.isfinite(y)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"non-finite sample {float(y[i])!r} at node x={float(x[i])!r}")
    w = simpson_weights(n + 1, (b - a) / n)
    return float(w @ y)


def simpson_2d(f, theta_grid: ThetaGrid, phi_grid: PhiGrid, exclude_poles: bool = False) -> float:
    """Tensor-product Simpson value of the double integral over [0,pi] x [0,2pi].

    ``f`` is evaluated on the full node mesh (broadcastable signature
    ``f(theta[:, None], phi[None, :])``).  A non-finite sample normally
    rejects the integral, naming the node; with ``exclude_poles`` each
    offending sample is patched from the nearest finite samples along the
    polar axis instead (zero if a whole column is bad).  For an integrable
    pole this perturbs the value at the order of one quadrature weight;
    plain zeroing would instead lose the O(spacing) mass of a whole
    azimuthal row whenever the pole sits on the axis.
    """
    th = theta_grid.nodes[:, None]
    ph = phi_grid.nodes[None, :]
    try:
        vals = np.asarray(f(th, ph), dtype=float)
        vals = np.broadcast_to(vals, (theta_grid.n_theta, phi_grid.n_phi)).copy()
    except (TypeError, ValueError):
        vals = np.array([[float(f(t, p)) for p in phi_grid.nodes] for t in theta_grid.nodes])
    bad = ~np.isfinite(vals)
    if bad.any():
        if not exclude_poles:
            i, j = np.unravel_index(int(np.argmax(bad)), vals.shape)
            raise ValueError(
                f"non-finite sample at theta={float(theta_grid.nodes[i])!r}, "
                f"phi={float(phi_grid.nodes[j])!r}"
            )
        idx = np.arange(theta_grid.n_theta)
        for j in np.unique(np.argwhere(bad)[:, 1]):
            col = vals[:, j]
            good = np.isfinite(col)
            if not good.any():
                col[:] = 0.0
            else:
                col[~good] = np.interp(idx[~good], idx[good], col[good])
    wt = theta_grid.weights()
    wp = phi_grid.weights()
    return float(wt @ vals @ wp)


def refine_simpson_2d(f, n0: int = 51, levels: int = 3, exclude_poles: bool = False) -> list[float]:
    """Values of :func:`simpson_2d` on a sequence of doubling (theta, phi) grids."""
    out = []
    n = n0
    for _ in range(levels):
        tg = ThetaGrid.uniform(n)
        pg = PhiGrid.uniform(2 * n - 1)
        out.append(simpson_2d(f, tg, pg, exclude_poles=exclude_poles))
        n = 2 * n - 1
    return out


def _legendre_pair(k_max: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Legendre P_k(x) and P_k'(x) for k = 0..k_max via the three-term recurrence."""
    x = np.asarray(x, dtype=float)
    P = np.zeros((k_max + 1,) + x.shape)
    dP = np.zeros_like(P)
    P[0] = 1.0
    if k_max >= 1:
        P[1] = x
        dP[1] = 1.0
    for k in range(1, k_max):
        P[k + 1] = ((2 * k + 1) * x * P[k] - k * P[k - 1]) / (k + 1)
        dP[k + 1] = ((2 * k + 1) * (P[k] + x * dP[k]) - k * dP[k - 1]) / (k + 1)
    return P, dP


def _norm_factor(k: np.ndarray, normalization: str) -> np.ndarray:
    # "interval": unit L^2(0, pi) norm, so the Gram matrix under arc-length
    # quadrature is the identity.  "legendre": unit norm in the mapped
    # variable on [-1, 1]; every function is sqrt(pi/2) times its interval
    # twin, which is the convention the eigenvalue table is quoted in (see
    # linear_stability for the resulting pi/2 spectral scaling).
    if normalization == "interval":
        return np.sqrt((2 * k + 1) / math.pi)
    if normalization == "legendre":
        return np.sqrt((2 * k + 1) / 2.0)
    raise ValueError(f"unknown normalization {normalization!r}")


def basis_eval(k: int, theta, normalization: str = "interval"):
    """Value and derivative of the degree-k orthonormal basis function on [0, pi].

    The basis is the Legendre family shifted from [-1, 1] to [0, pi] by the
    affine map x = 2*theta/pi - 1 and normalized per ``normalization``.
    Both outputs are evaluated analytically from the recurrence; nothing is
    finite-differenced.

    Returns ``(value, derivative)``, scalars for scalar input.
    """
    if k < 0 or k > MAX_BASIS_DEGREE:
        raise ValueError(f"basis degree {k} outside [0, {MAX_BASIS_DEGREE}]")
    theta_arr = np.asarray(theta, dtype=float)
    if np.any(theta_arr < -1e-12) or np.any(theta_arr > math.pi + 1e-12):
        raise ValueError("theta outside [0, pi]")
    x = 2.0 * theta_arr / math.pi - 1.0
    P, dP = _legendre_pair(k, x)
    c = _norm_factor(np.asarray(k), normalization)
    value = c * P[k]
    deriv = c * dP[k] * (2.0 / math.pi)
    if np.isscalar(theta) or theta_arr.ndim == 0:
        return float(value), float(deriv)
    return value, deriv


def basis_matrix(n_funcs: int, theta: np.ndarray, normalization: str = "interval"):
    """Stacked values and derivatives of e_0..e_{n_funcs-1}, shape (n_funcs, len(theta))."""
    if n_funcs < 1 or n_funcs - 1 > MAX_BASIS_DEGREE:
        raise ValueError(f"need 1 <= n_funcs <= {MAX_BASIS_DEGREE + 1}, got {n_funcs}")
    theta = np.asarray(theta, dtype=float)
    x = 2.0 * theta / math.pi - 1.0
    P, dP = _legendre_pair(n_funcs - 1, x)
    c = _norm_factor(np.arange(n_funcs), normalization)[:, None]
    return c * P[:n_funcs], c * dP[:n_funcs] * (2.0 / math.pi)
