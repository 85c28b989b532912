"""Linearized surface dynamics around the unit sphere and its spectrum.

The linearization of the radial source around the sphere splits into a
nonlocal integral operator acting on (h, h') plus multiplication by
(2/15) cos(theta); the linearized advection speed is -(1/15) sin(theta),
whose characteristics are known in closed form.  The spectrum is
approximated by projecting onto the shifted-Legendre basis and solving the
resulting dense real nonsymmetric eigenproblem.

The nonlocal kernel is the azimuthal integral of the bounded chord ratio on
the unit sphere, taken in closed form with complete elliptic integrals, so
it depends on the polar grid alone and is cached per node count.  The
``phi_grid`` and ``n_phi`` arguments are still accepted, and ``n_phi`` is
still recorded on :class:`GalerkinMatrix` and in CLI outputs, but they no
longer change any value.  They stay because the tests, the CLI and the
benchmark's trace hooks bind them by name.

Normalization convention: the eigenvalue table this package reproduces was
computed with basis functions of unit norm in the mapped Legendre variable
on [-1, 1] ("legendre" normalization).  Those functions carry squared
L2(0, pi) norm pi/2, so treating the projected matrix as an ordinary
eigenproblem scales every eigenvalue by pi/2 relative to the arc-length
orthonormal basis ("interval" normalization).  Reported table-convention
values multiply by TABLE_TO_OPERATOR to recover the intrinsic operator
rates, which is what time-domain growth actually follows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg
from scipy.interpolate import CubicSpline

from .kernels import azimuthal_moments
from .quadrature import PhiGrid, ThetaGrid, basis_matrix, simpson_weights

__all__ = [
    "TABLE_TO_OPERATOR",
    "INSTABILITY_THRESHOLD",
    "Perturbation",
    "k_coefficient",
    "k_by_quadrature",
    "sphere_vertical_chord_integral",
    "j_apply",
    "l_apply",
    "characteristic_flow",
    "GalerkinMatrix",
    "assemble_galerkin",
    "SpectrumReport",
    "EigensolverError",
    "solve_spectrum",
    "Certificate",
    "instability_certificate",
    "LinearEvolution",
    "linearized_evolve",
    "measured_growth_rate",
]

# Multiply a table-convention eigenvalue by this to get the intrinsic
# operator rate (see module docstring).
TABLE_TO_OPERATOR = 2.0 / math.pi

# Every tabulated maximal eigenvalue is checked against this growth margin.
INSTABILITY_THRESHOLD = 1.0 / 15.0


class Perturbation:
    """A perturbation h(theta) with an attached derivative rule.

    Built either from coefficients in the polynomial basis, from an explicit
    (h, h') pair of callables, or from grid samples (cubic-spline derivative
    rule).  The nonlocal operator consumes both h and h', so the derivative
    is part of the representation, never re-derived by finite differences.
    """

    def __init__(self, func, deriv, coefficients: np.ndarray | None = None):
        self._func = func
        self._deriv = deriv
        self.coefficients = None if coefficients is None else np.asarray(coefficients)

    @classmethod
    def from_coefficients(cls, coeffs, normalization: str = "interval") -> "Perturbation":
        coeffs = np.asarray(coeffs, dtype=complex)
        if np.allclose(coeffs.imag, 0.0):
            coeffs = coeffs.real.copy()
        n = coeffs.size

        def func(theta):
            vals, _ = basis_matrix(n, np.atleast_1d(theta), normalization)
            out = coeffs @ vals
            return out if np.ndim(theta) else out[0]

        def deriv(theta):
            _, der = basis_matrix(n, np.atleast_1d(theta), normalization)
            out = coeffs @ der
            return out if np.ndim(theta) else out[0]

        return cls(func, deriv, coefficients=coeffs)

    @classmethod
    def from_callable(cls, func, deriv) -> "Perturbation":
        return cls(func, deriv)

    @classmethod
    def from_samples(cls, grid: ThetaGrid, values) -> "Perturbation":
        spline = CubicSpline(grid.nodes, np.asarray(values, dtype=float))
        return cls(spline, spline.derivative())

    def __call__(self, theta):
        return self._func(theta)

    def derivative(self, theta):
        return self._deriv(theta)

    def sup_norm(self, n_samples: int = 2001) -> float:
        theta = np.linspace(0.0, math.pi, n_samples)
        return float(np.max(np.abs(self(theta))))

    def lp_norm(self, p: float, n_samples: int = 2001) -> float:
        theta = np.linspace(0.0, math.pi, n_samples)
        w = simpson_weights(n_samples, theta[1] - theta[0])
        return float((w @ np.abs(self(theta)) ** p) ** (1.0 / p))


def k_coefficient(theta):
    """Multiplicative part of the linearized source: (2/15) cos(theta)."""
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < -1e-12) or np.any(theta > math.pi + 1e-12):
        raise ValueError("theta outside [0, pi]")
    out = (2.0 / 15.0) * np.cos(theta)
    return float(out) if out.ndim == 0 else out


def _sphere_kernel(theta_eval, thetabar) -> np.ndarray:
    """Azimuthal integral of the bounded chord-ratio kernel on the unit sphere.

    R[m, l] = integral over phi of desingularized_ratio(theta_eval[m],
    thetabar[l], phi) = cos t sin tb I0 - sin t cos tb I1, with the moments of
    1/sqrt(A - B cos phi) for A = 2 - 2 cos t cos tb and B = 2 sin t sin tb
    taken in closed form.  At coincident points the ratio reduces to
    cos t |sin(phi/2)|, whose integral is 4 cos t; on a pole the ratio is
    undefined for every phi and the pole-node policy gives 0.
    """
    t = np.asarray(theta_eval, dtype=float)[:, None]
    tb = np.asarray(thetabar, dtype=float)[None, :]
    st, ct, stb, ctb = np.broadcast_arrays(np.sin(t), np.cos(t), np.sin(tb), np.cos(tb))
    a_minus_b = 4.0 * np.sin(0.5 * (t - tb)) ** 2
    b = 2.0 * st * stb
    apart = a_minus_b > 0
    i0, i1 = azimuthal_moments(a_minus_b[apart] + b[apart], b[apart], a_minus_b[apart])
    R = np.where(4.0 * np.sin(0.5 * (t + tb)) ** 2 < 1e-24, 0.0, 4.0 * ct)
    R[apart] = ct[apart] * stb[apart] * i0 - st[apart] * ctb[apart] * i1
    return R


@lru_cache(maxsize=4)
def _grid_kernel(n_theta: int) -> np.ndarray:
    """Square kernel on the uniform grid's own nodes, cached and read-only."""
    nodes = ThetaGrid.uniform(n_theta).nodes
    R = _sphere_kernel(nodes, nodes)
    R.setflags(write=False)
    return R


def k_by_quadrature(theta, theta_grid: ThetaGrid, phi_grid: PhiGrid):
    """Double-integral form of the multiplicative coefficient.

    (1/(16 pi)) times the integral of sin(tbar)^2 against the chord-ratio
    kernel; must match :func:`k_coefficient` up to quadrature error.
    ``phi_grid`` changes no value.
    """
    tb = theta_grid.nodes
    R = _sphere_kernel(np.atleast_1d(theta), tb)
    out = (R @ (theta_grid.weights() * np.sin(tb) ** 2)) / (16.0 * math.pi)
    return float(out[0]) if np.ndim(theta) == 0 else out


def sphere_vertical_chord_integral(theta_grid: ThetaGrid, phi_grid: PhiGrid) -> float:
    """Surface integral of w3 |e3 - w| over the unit sphere (equals -16 pi / 15).

    The integrand does not depend on phi, so ``phi_grid`` changes no value.
    """
    tb = theta_grid.nodes
    chord = np.sqrt(np.maximum(2.0 - 2.0 * np.cos(tb), 0.0))
    per_theta = np.cos(tb) * chord * np.sin(tb)
    return float((theta_grid.weights() @ per_theta) * 2.0 * math.pi)


def j_apply(h: Perturbation, theta, theta_grid: ThetaGrid, phi_grid: PhiGrid):
    """Nonlocal part of the linearized source at angle(s) theta.

    -(1/(8 pi)) times the double integral of the chord-ratio kernel against
    sin(tbar) [ (5/2) h(tbar) sin(tbar) - h'(tbar) cos(tbar) ].  ``phi_grid``
    changes no value.
    """
    tb = theta_grid.nodes
    R = _sphere_kernel(np.atleast_1d(theta), tb)
    load = np.sin(tb) * (2.5 * np.asarray(h(tb)) * np.sin(tb)
                         - np.asarray(h.derivative(tb)) * np.cos(tb))
    out = -(R @ (theta_grid.weights() * load)) / (8.0 * math.pi)
    return out[0] if np.ndim(theta) == 0 else out


def l_apply(h: Perturbation, theta, theta_grid: ThetaGrid, phi_grid: PhiGrid):
    """Full linearized source: j_apply plus the multiplicative coefficient."""
    return j_apply(h, theta, theta_grid, phi_grid) + k_coefficient(theta) * np.asarray(h(theta))


def characteristic_flow(t, s, theta):
    """Exact characteristics of the linearized advection speed.

    Position at time t of the characteristic through theta at time s:
    2 arctan( tan(theta/2) exp(-(t - s)/15) ).  Both poles are fixed points
    and are returned exactly.
    """
    theta_arr = np.asarray(theta, dtype=float)
    if np.any(theta_arr < -1e-12) or np.any(theta_arr > math.pi + 1e-12):
        raise ValueError("theta outside [0, pi]")
    factor = np.exp(-(np.asarray(t, dtype=float) - np.asarray(s, dtype=float)) / 15.0)
    out = 2.0 * np.arctan(np.tan(theta_arr / 2.0) * factor)
    out = np.where(theta_arr >= math.pi, math.pi, out)
    out = np.where(theta_arr <= 0.0, 0.0, out)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class GalerkinMatrix:
    """Dense projection of the linearized source operator onto the basis."""

    size: int
    entries: np.ndarray = field(repr=False)
    n_theta: int
    n_phi: int
    normalization: str

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.shape != (self.size, self.size) or not np.all(np.isfinite(e)):
            raise ValueError("entries must be a finite square matrix of the declared size")
        object.__setattr__(self, "entries", e)


def assemble_galerkin(size: int, n_theta: int, n_phi: int | None = None,
                      normalization: str = "legendre") -> GalerkinMatrix:
    """Project the linearized source operator onto the first ``size`` basis functions.

    entries[i, j] is the Simpson projection of (L e_j) onto e_i over the
    n_theta-node grid; the inner double integral runs on the same polar grid
    with the azimuthal integral in closed form.  ``n_phi`` (default
    2 * n_theta) is only recorded on the result.  Assembly is deterministic.
    The default "legendre" normalization reproduces the published eigenvalue
    table; "interval" yields the intrinsic operator spectrum, a global factor
    2/pi smaller.
    """
    if size < 1:
        raise ValueError(f"basis size must be >= 1, got {size}")
    if n_phi is None:
        n_phi = 2 * n_theta
    tg = ThetaGrid.uniform(n_theta)
    theta = tg.nodes
    w = tg.weights()
    R = _grid_kernel(n_theta)
    E, dE = basis_matrix(size, theta, normalization)
    st, ct = np.sin(theta), np.cos(theta)
    load = 2.5 * E * st[None, :] - dE * ct[None, :]
    j_of_basis = -(1.0 / (8.0 * math.pi)) * np.einsum("l,jl,ml->jm", w * st, load, R)
    if not np.all(np.isfinite(j_of_basis)):
        j_bad, m_bad = np.unravel_index(int(np.argmax(~np.isfinite(j_of_basis))), j_of_basis.shape)
        raise ArithmeticError(f"quadrature failure assembling entry column j={j_bad} at node {m_bad}")
    l_of_basis = j_of_basis + (k_coefficient(theta))[None, :] * E
    entries = np.einsum("m,im,jm->ij", w, E, l_of_basis)
    return GalerkinMatrix(size=size, entries=entries, n_theta=n_theta, n_phi=n_phi,
                          normalization=normalization)


class EigensolverError(RuntimeError):
    """Eigen-decomposition failed; carries the offending matrix."""

    def __init__(self, message: str, matrix: GalerkinMatrix):
        super().__init__(message)
        self.matrix = matrix


@dataclass(frozen=True)
class SpectrumReport:
    """Eigen-decomposition of a Galerkin matrix, sorted by descending real part."""

    matrix: GalerkinMatrix
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)  # columns, coefficient space
    max_real: float
    threshold: float
    symmetric_residual: float

    @property
    def operator_max_real(self) -> float:
        """Largest real part in the intrinsic-operator normalization."""
        scale = TABLE_TO_OPERATOR if self.matrix.normalization == "legendre" else 1.0
        return self.max_real * scale

    def eigenvector_perturbation(self, index: int = 0) -> Perturbation:
        """Eigenvector as a function, unit L2(0, pi) norm, positive at theta = pi.

        Complex eigenvectors are rotated so the value at pi (or at 0 when
        the pi endpoint vanishes) is real and positive.
        """
        c = self.eigenvectors[:, index].copy()
        h = Perturbation.from_coefficients(c, self.matrix.normalization)
        ref = complex(h(math.pi))
        if abs(ref) < 1e-12 * float(np.max(np.abs(c))):
            ref = complex(h(0.0))
        if abs(ref) > 0:
            c = c * (abs(ref) / ref)
        norm = math.sqrt(math.pi / 2.0) if self.matrix.normalization == "legendre" else 1.0
        c = c / (norm * np.linalg.norm(c))
        if np.allclose(np.asarray(c).imag, 0.0, atol=1e-12):
            c = np.asarray(c).real
        return Perturbation.from_coefficients(c, self.matrix.normalization)


def _hausdorff_to_negation(lam: np.ndarray) -> float:
    d = np.abs(lam[:, None] + lam[None, :])
    return float(np.max(np.min(d, axis=1)))


def solve_spectrum(A: GalerkinMatrix) -> SpectrumReport:
    """Full dense eigen-decomposition of the projected operator.

    Conjugate pairs end up adjacent in the descending-real-part ordering.
    LAPACK failure raises :class:`EigensolverError` carrying the matrix so
    the caller can dump it.
    """
    try:
        lam, vec = scipy.linalg.eig(A.entries)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise EigensolverError(f"eigen-decomposition failed: {exc}", A) from exc
    order = np.lexsort((-lam.imag, np.abs(lam.imag), -lam.real))
    lam = lam[order]
    vec = vec[:, order]
    return SpectrumReport(
        matrix=A,
        eigenvalues=lam,
        eigenvectors=vec,
        max_real=float(lam.real.max()),
        threshold=INSTABILITY_THRESHOLD,
        symmetric_residual=_hausdorff_to_negation(lam),
    )


@dataclass(frozen=True)
class Certificate:
    """Evidence record for the spectral instability check."""

    unstable: bool
    max_real: float
    threshold: float
    p: float
    sup_norm_variant: bool
    endpoint_at_0: float
    endpoint_at_pi: float

    def __bool__(self) -> bool:
        return self.unstable


def instability_certificate(report: SpectrumReport, p: float) -> Certificate:
    """Check the dominant eigenvalue against the W^{1,p} growth margin 1/(15 p).

    Also records the sup-norm variant (positive growth with a nonvanishing
    eigenvector endpoint) and the dominant eigenvector's endpoint magnitudes.
    """
    if not p > 2:
        raise ValueError(f"the margin is stated for p > 2, got p={p}")
    h = report.eigenvector_perturbation(0)
    at0 = float(abs(h(0.0)))
    at_pi = float(abs(h(math.pi)))
    threshold = 1.0 / (15.0 * p)
    return Certificate(
        unstable=report.max_real > threshold,
        max_real=report.max_real,
        threshold=threshold,
        p=p,
        sup_norm_variant=(report.max_real > 0.0 and max(at0, at_pi) > 0.0),
        endpoint_at_0=at0,
        endpoint_at_pi=at_pi,
    )


@dataclass(frozen=True)
class LinearEvolution:
    """Trajectory of the linearized dynamics sampled on a theta grid."""

    grid: ThetaGrid
    times: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)  # shape (n_times, n_theta)

    def sup_norms(self) -> np.ndarray:
        return np.max(np.abs(self.values), axis=1)

    def l2_norms(self) -> np.ndarray:
        w = self.grid.weights()
        return np.sqrt(np.abs(self.values) ** 2 @ w)

    def final(self) -> np.ndarray:
        return self.values[-1]


def _l_operator_matrices(theta_grid: ThetaGrid):
    """Grid-sampled linearized source: value matrix, derivative matrix, diagonal."""
    R = _grid_kernel(theta_grid.n_theta)
    tb = theta_grid.nodes
    w = theta_grid.weights()
    on_h = -(1.0 / (8.0 * math.pi)) * R * (w * 2.5 * np.sin(tb) ** 2)[None, :]
    on_hp = +(1.0 / (8.0 * math.pi)) * R * (w * np.sin(tb) * np.cos(tb))[None, :]
    return on_h, on_hp, k_coefficient(tb)


def linearized_evolve(h0: Perturbation, t: float, theta_grid: ThetaGrid, phi_grid: PhiGrid,
                      dt: float = 0.01, store_every: int | None = None) -> LinearEvolution:
    """Integrate the linearized dynamics by stepping along the exact characteristics.

    Each step transports the field along the closed-form characteristics and
    adds the source contribution with a trapezoidal corrector iterated to a
    fixed point; a corrector that stops contracting (dt too large) raises.
    Values off the grid are cubic-spline interpolated, and the derivative
    consumed by the nonlocal term is the spline derivative.  ``phi_grid``
    changes no value.
    """
    if not t >= 0 or not dt > 0:
        raise ValueError("need t >= 0 and dt > 0")
    theta = theta_grid.nodes
    on_h, on_hp, k_diag = _l_operator_matrices(theta_grid)

    def l_of(values: np.ndarray, spline: CubicSpline) -> np.ndarray:
        return on_h @ values + on_hp @ spline(theta, 1) + k_diag * values

    n_steps = int(round(t / dt))
    every = store_every or max(1, n_steps // 64)
    feet = characteristic_flow(0.0, dt, theta)  # backtraced nodes, one step
    h = np.asarray(h0(theta), dtype=float)
    times = [0.0]
    values = [h.copy()]
    scale0 = float(np.max(np.abs(h))) or 1.0
    for k in range(1, n_steps + 1):
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
        if k % every == 0 or k == n_steps:
            times.append(k * dt)
            values.append(h.copy())
    return LinearEvolution(grid=theta_grid, times=np.array(times), values=np.array(values))


def measured_growth_rate(evolution: LinearEvolution, t1: float, t2: float,
                         norm: str = "sup") -> float:
    """log(||h(t2)|| / ||h(t1)||) / (t2 - t1) in the requested norm."""
    if norm == "sup":
        norms = evolution.sup_norms()
    elif norm == "l2":
        norms = evolution.l2_norms()
    else:
        raise ValueError(f"unknown norm {norm!r}")
    i1 = int(np.argmin(np.abs(evolution.times - t1)))
    i2 = int(np.argmin(np.abs(evolution.times - t2)))
    if i1 == i2:
        raise ValueError("t1 and t2 resolve to the same stored snapshot")
    return float(np.log(norms[i2] / norms[i1]) / (evolution.times[i2] - evolution.times[i1]))
