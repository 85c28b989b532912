"""Linearized surface dynamics around the unit sphere and its spectrum.

The linearization of the radial source around the sphere splits into a
nonlocal integral operator acting on (h, h') plus multiplication by
(2/15) cos(theta); the linearized advection speed is -(1/15) sin(theta),
whose characteristics are known in closed form.  The spectrum is
approximated by projecting onto the shifted-Legendre basis and solving the
resulting dense real nonsymmetric eigenproblem.

In time, the linearized dynamics are integrated on the polar grid nodes by
semi-Lagrangian Crank-Nicolson: transport along the exact characteristics,
cubic-spline interpolation at their feet, and the source by the trapezoidal
rule.  The step map is linear, so it is built once as a dense matrix
(:func:`linearized_propagator`) and each step is one matrix-vector product.
The propagator's eigenvalues mu give a second, time-stepping-free growth
rate, max log|mu| / dt.

The nonlocal kernel is the azimuthal integral of the bounded chord ratio on
the unit sphere, taken in closed form by one arithmetic-geometric mean per
entry (:func:`~dropsed.kernels.azimuthal_moments`), so it depends on the
polar grid alone and is cached per grid.  The ``n_phi`` of
:func:`assemble_galerkin` and the ``phi_grid`` of :func:`linearized_evolve`
change no value; they stay only because the benchmark binds them by name.

On the grid the source is L(h, h') = R (a h + b h') + k h, with the kernel
R, the coefficient k and the weights (a, b) of :func:`_source_weights`, the
one place they are written.

Normalization convention: the basis functions have unit norm in the mapped
Legendre variable on [-1, 1], the convention the reproduced eigenvalue table
was computed in.  They carry squared L2(0, pi) norm pi/2, so treating the
projected matrix as an ordinary eigenproblem scales every eigenvalue by pi/2
relative to the intrinsic operator.  Multiplying a table-convention value by
TABLE_TO_OPERATOR = 2/pi recovers the operator rate, which is what
time-domain growth actually follows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .kernels import _MOMENT_CHUNK, _row_blocks, azimuthal_moments
from .quadrature import (ThetaGrid, _polar_angles, basis_matrix, hermite, march, snapshot_steps,
                         spline_slopes)

__all__ = [
    "TABLE_TO_OPERATOR",
    "INSTABILITY_THRESHOLD",
    "Perturbation",
    "k_coefficient",
    "k_by_quadrature",
    "sphere_vertical_chord_integral",
    "characteristic_flow",
    "assemble_galerkin",
    "SpectrumReport",
    "EigensolverError",
    "solve_spectrum",
    "LinearEvolution",
    "linearized_propagator",
    "linearized_evolve",
    "measured_growth_rate",
]

# Multiply a table-convention eigenvalue by this to get the intrinsic
# operator rate (see module docstring).
TABLE_TO_OPERATOR = 2.0 / math.pi

# Every tabulated maximal eigenvalue is checked against this growth margin.
INSTABILITY_THRESHOLD = 1.0 / 15.0

# Spline-map entries below this magnitude are set to 0.  They decay like
# (2 - sqrt(3))^|i - j| off the diagonal and leave the normal range (2.2e-308)
# past |i - j| ~ 538, where every product with them runs as slow subnormal
# arithmetic.  A product of two kept entries is at least 1e-300, still
# normal, and a dropped entry lies far below the rounding of the O(1) sums it
# would enter.
_FLUSH_BELOW = 1e-150

# The grid kernel's row tiles may hold this many rows where fewer fit in one
# AGM block, and then run as several.  One block a tile gives 6-row tiles at
# n = 1601, whose per-tile numpy overhead took ~20% of the build.
_TILE_ROWS = 32


class Perturbation:
    """A perturbation h(theta) given by its coefficients in the polynomial basis.

    Coefficients whose imaginary parts all vanish are stored as real ones.
    """

    def __init__(self, coeffs):
        coeffs = np.asarray(coeffs, dtype=complex)
        self._coeffs = coeffs.real.copy() if np.allclose(coeffs.imag, 0.0) else coeffs

    def __call__(self, theta):
        return self._coeffs @ basis_matrix(self._coeffs.size, theta, derivatives=False)[0]


def k_coefficient(theta):
    """Multiplicative part of the linearized source: (2/15) cos(theta)."""
    out = (2.0 / 15.0) * np.cos(_polar_angles(theta))
    return float(out) if out.ndim == 0 else out


def _sphere_kernel(theta_eval, thetabar) -> np.ndarray:
    """Azimuthal integral of the bounded chord-ratio kernel on the unit sphere.

    R[m, l] = integral over phi of the bounded chord ratio
    (-sin t cos tb cos phi + cos t sin tb) / |e(t, 0) - e(tb, phi)| at
    t = theta_eval[m], tb = thetabar[l], which is
    cos t sin tb I0 - sin t cos tb I1, with the moments of
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
    i0, i1 = azimuthal_moments(b[apart], a_minus_b[apart])
    R = np.where(4.0 * np.sin(0.5 * (t + tb)) ** 2 < 1e-24, 0.0, 4.0 * ct)
    R[apart] = ct[apart] * stb[apart] * i0 - st[apart] * ctb[apart] * i1
    return R


@lru_cache(maxsize=4)
def _grid_kernel(grid: ThetaGrid) -> np.ndarray:
    """Square kernel on the grid's own nodes, cached and read-only.

    Equal entry for entry to ``_sphere_kernel(nodes, nodes)``.  The moments
    depend on the node pair only through A and B, which are symmetric in it,
    so the upper triangle is walked in row tiles [lo, hi) of
    :func:`~dropsed.kernels._row_blocks` of at most ``_MOMENT_CHUNK`` entries
    (one AGM block) or ``_TILE_ROWS`` rows, whichever is more; from n = 321
    on that is 29-32 rows.  The moments of rows lo..hi-1 against columns
    lo..n-1, taken once, give both R[lo:hi, lo:] and R[lo:, lo:hi].  A
    tile's coincident pairs get the placeholder A - B = 1, B = 0, and the
    diagonal written last replaces them.  Nothing but R is as large as n^2.
    """
    n_theta, nodes = grid.n_theta, grid.nodes
    s, c = np.sin(nodes), np.cos(nodes)
    R = np.empty((n_theta, n_theta))
    tile = max(_MOMENT_CHUNK, _TILE_ROWS * n_theta)
    for lo, hi in _row_blocks(n_theta, n_theta, tile):
        a_minus_b = 4.0 * np.sin(0.5 * (nodes[lo:hi, None] - nodes[lo:])) ** 2
        b = 2.0 * s[lo:hi, None] * s[lo:]
        np.fill_diagonal(a_minus_b, 1.0)  # the tile's coincident pairs
        np.fill_diagonal(b, 0.0)
        i0, i1 = azimuthal_moments(b, a_minus_b)
        # R[i, j] = c_i s_j I0 - s_i c_j I1, and R[j, i] swaps the two products
        cs, sc = c[lo:hi, None] * s[lo:], s[lo:hi, None] * c[lo:]
        R[lo:hi, lo:] = cs * i0 - sc * i1
        R[lo:, lo:hi] = (sc * i0 - cs * i1).T
    # coincident points: the ratio integrates to 4 cos t, and to 0 on a pole
    R[np.diag_indices(n_theta)] = 4.0 * c
    R[0, 0] = R[-1, -1] = 0.0
    R.setflags(write=False)
    return R


def _source_weights(grid: ThetaGrid) -> tuple[np.ndarray, np.ndarray]:
    """Node weights (a, b) of the nonlocal source, J(h) = R @ (a h + b h').

    J is -(1/(8 pi)) times the double integral of the chord-ratio kernel
    against sin(tbar) [(5/2) h(tbar) sin(tbar) - h'(tbar) cos(tbar)], so with
    the grid's Simpson weights w, a = -w (5/2) sin^2(theta) / (8 pi) and
    b = w sin(theta) cos(theta) / (8 pi).
    """
    st, ct = np.sin(grid.nodes), np.cos(grid.nodes)
    ws = grid.weights * st / (8.0 * math.pi)
    return -2.5 * ws * st, ws * ct


def k_by_quadrature(theta, theta_grid: ThetaGrid):
    """Double-integral form of the multiplicative coefficient.

    (1/(16 pi)) times the integral of sin(tbar)^2 against the chord-ratio
    kernel; must match :func:`k_coefficient` up to quadrature error.
    """
    tb = theta_grid.nodes
    R = _sphere_kernel(np.atleast_1d(theta), tb)
    out = (R @ (theta_grid.weights * np.sin(tb) ** 2)) / (16.0 * math.pi)
    return float(out[0]) if np.ndim(theta) == 0 else out


def sphere_vertical_chord_integral(theta_grid: ThetaGrid) -> float:
    """Surface integral of w3 |e3 - w| over the unit sphere (equals -16 pi / 15).

    The integrand does not depend on phi, so its azimuthal integral is 2 pi.
    """
    tb = theta_grid.nodes
    chord = np.sqrt(np.maximum(2.0 - 2.0 * np.cos(tb), 0.0))
    per_theta = np.cos(tb) * chord * np.sin(tb)
    return float((theta_grid.weights @ per_theta) * 2.0 * math.pi)


def characteristic_flow(t, s, theta):
    """Exact characteristics of the linearized advection speed.

    Position at time t of the characteristic through theta at time s:
    2 arctan( tan(theta/2) exp(-(t - s)/15) ).  Both poles are fixed points
    and are returned exactly.
    """
    theta_arr = _polar_angles(theta)
    factor = np.exp(-(np.asarray(t, dtype=float) - np.asarray(s, dtype=float)) / 15.0)
    out = 2.0 * np.arctan(np.tan(theta_arr / 2.0) * factor)
    out = np.where(theta_arr >= math.pi, math.pi, out)
    out = np.where(theta_arr <= 0.0, 0.0, out)
    return float(out) if out.ndim == 0 else out


def assemble_galerkin(size: int, n_theta: int, n_phi: int | None = None) -> np.ndarray:
    """Project the linearized source operator onto the first ``size`` basis functions.

    Returns the (size, size) array whose entry [i, j] is the Simpson
    projection of (L e_j) onto e_i over the n_theta-node grid; the inner
    double integral runs on the same polar grid with the azimuthal integral
    in closed form, so ``n_phi`` changes no value; it stays only because the
    benchmark's trace hook binds it by name.  Assembly is deterministic.  The
    basis normalization reproduces the published eigenvalue table; the
    intrinsic operator spectrum is a global factor TABLE_TO_OPERATOR smaller.
    """
    tg = ThetaGrid.uniform(n_theta)
    a, b = _source_weights(tg)
    E, dE = basis_matrix(size, tg.nodes)
    l_of_basis = (a * E + b * dE) @ _grid_kernel(tg).T + k_coefficient(tg.nodes) * E
    if not np.all(np.isfinite(l_of_basis)):
        j_bad, m_bad = np.unravel_index(int(np.argmax(~np.isfinite(l_of_basis))), l_of_basis.shape)
        raise ArithmeticError(f"quadrature failure assembling entry column j={j_bad} at node {m_bad}")
    return (E * tg.weights) @ l_of_basis.T


class EigensolverError(RuntimeError):
    """Eigen-decomposition failed; carries the offending matrix."""

    def __init__(self, message: str, matrix: np.ndarray):
        super().__init__(message)
        self.matrix = matrix


@dataclass(frozen=True)
class SpectrumReport:
    """Eigen-decomposition of a Galerkin matrix, sorted by descending real part."""

    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)  # columns, coefficient space
    max_real: float
    symmetric_residual: float

    @property
    def operator_max_real(self) -> float:
        """Largest real part in the intrinsic-operator normalization."""
        return self.max_real * TABLE_TO_OPERATOR

    def eigenvector_perturbation(self, index: int = 0) -> Perturbation:
        """Eigenvector as a function, unit L2(0, pi) norm, positive at theta = pi.

        Complex eigenvectors are rotated so the value at pi (or at 0 when
        the pi endpoint vanishes) is real and positive.
        """
        c = self.eigenvectors[:, index].copy()
        h = Perturbation(c)
        ref = complex(h(math.pi))
        if abs(ref) < 1e-12 * float(np.max(np.abs(c))):
            ref = complex(h(0.0))
        if abs(ref) > 0:
            c = c * (abs(ref) / ref)
        c = c / (math.sqrt(math.pi / 2.0) * np.linalg.norm(c))
        return Perturbation(c)


def _hausdorff_to_negation(lam: np.ndarray) -> float:
    d = np.abs(lam[:, None] + lam[None, :])
    return float(np.max(np.min(d, axis=1)))


def solve_spectrum(A: np.ndarray) -> SpectrumReport:
    """Full dense eigen-decomposition of the projected operator matrix ``A``.

    Conjugate pairs end up adjacent in the descending-real-part ordering.
    LAPACK failure, and a non-square or non-finite ``A``, raise
    :class:`EigensolverError` carrying the matrix so the caller can dump it.
    """
    try:
        lam, vec = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigen-decomposition failed: {exc}", A) from exc
    # numpy returns real arrays when every eigenvalue is real
    lam, vec = lam.astype(complex), vec.astype(complex)
    order = np.lexsort((-lam.imag, np.abs(lam.imag), -lam.real))
    lam = lam[order]
    vec = vec[:, order]
    return SpectrumReport(
        eigenvalues=lam,
        eigenvectors=vec,
        max_real=float(lam.real.max()),
        symmetric_residual=_hausdorff_to_negation(lam),
    )


@dataclass(frozen=True)
class LinearEvolution:
    """Trajectory of the linearized dynamics sampled on the theta grid nodes."""

    times: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)  # shape (n_times, n_theta)

    def sup_norms(self) -> np.ndarray:
        return np.max(np.abs(self.values), axis=1)


def _spline_matrices(theta: np.ndarray, feet: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Derivative-at-nodes and value-at-feet matrices of the not-a-knot cubic spline.

    D @ h is the spline derivative of the samples h at the nodes and S @ h the
    spline's values at ``feet``: the maps of :func:`spline_slopes` and
    :func:`hermite`.  Entries below _FLUSH_BELOW = 1e-150 in
    magnitude are set to 0, in D before S is formed from it and then in S, so
    neither holds a subnormal entry; the propagator built from them keeps its
    bits and is spared subnormal arithmetic, which took over half its time at
    n = 801.  The flush compares, where |D| would be a third n^2 array.
    """
    D = spline_slopes(theta)
    D[(D > -_FLUSH_BELOW) & (D < _FLUSH_BELOW)] = 0.0
    S = hermite(theta, D, feet)
    S[(S > -_FLUSH_BELOW) & (S < _FLUSH_BELOW)] = 0.0
    return D, S


def linearized_propagator(theta_grid: ThetaGrid, dt: float) -> np.ndarray:
    """One semi-Lagrangian Crank-Nicolson step of the linearized dynamics as a matrix.

    Returns P = (I - dt/2 L)^-1 S (I + dt/2 L), so that h(t + dt) = P @ h(t)
    on the grid nodes.  L = R (diag(a) + diag(b) D) + diag(k) is the
    grid-sampled linearized source: R the cached chord-ratio kernel, (a, b)
    the source weights of :func:`_source_weights` and k the multiplicative
    coefficient.  D and S, the spline's derivative at the nodes and its
    values at the feet of the one-step characteristics, come from
    :func:`_spline_matrices`.  This is the trapezoidal corrector of the
    characteristic scheme solved exactly (Staniforth & Cote 1991).  dt is
    rejected when dt/2 ||L||_inf >= 1, where that corrector's fixed-point
    iteration is no longer guaranteed to contract.
    """
    if not dt > 0:
        raise ValueError(f"need dt > 0, got {dt}")
    theta = theta_grid.nodes
    a, b = _source_weights(theta_grid)
    D, S = _spline_matrices(theta, characteristic_flow(0.0, dt, theta))
    diag = np.diag_indices(theta.size)
    D *= b[:, None]
    D[diag] += a
    L = _grid_kernel(theta_grid) @ D
    del D
    L[diag] += k_coefficient(theta)
    norm = float(np.max(np.sum(np.abs(L), axis=1)))
    if 0.5 * dt * norm >= 1.0:
        raise ValueError(f"dt={dt!r} is too large for the trapezoidal corrector: "
                         f"need dt < 2/||L||_inf = {2.0 / norm:.4g}")
    rhs = S @ L
    rhs *= 0.5 * dt
    rhs += S
    del S
    L *= -0.5 * dt
    L[diag] += 1.0
    return np.linalg.solve(L, rhs)


def linearized_evolve(h0: Perturbation, t: float, theta_grid: ThetaGrid, phi_grid=None,
                      dt: float = 0.01, snapshot_every: float | None = None) -> LinearEvolution:
    """Integrate the linearized dynamics on the grid nodes, one propagator matvec per step.

    The step matrix is :func:`linearized_propagator`: transport along the
    closed-form characteristics with cubic-spline interpolation at their feet,
    and the source added by the trapezoidal rule, solved exactly.  A dt too
    large for that corrector is rejected before the first step, and a
    trajectory that leaves the finite range raises.  Only the stored states
    are checked for that; when one fails, the steps since the last stored
    state are replayed, each checked, so the error names the first step past
    1e12 times the initial size (or not finite).  ``t`` and
    ``snapshot_every``, the time between stored states (default: only the
    initial and final ones), must be whole numbers of steps ``dt``, checked
    before the propagator is built; :func:`~dropsed.quadrature.march` stores
    the states at the times k*dt of :func:`~dropsed.quadrature.snapshot_steps`.
    ``phi_grid`` changes no value; it stays only because the benchmark passes it.
    """
    stored = snapshot_steps(t, dt, snapshot_every, "t")
    P = linearized_propagator(theta_grid, dt)
    start = np.asarray(h0(theta_grid.nodes), dtype=float)
    scale0 = float(np.max(np.abs(start))) or 1.0

    checked = set(stored)
    last_good = (0, start)  # the last stored state that passed the check

    def diverged(h: np.ndarray) -> bool:
        # one reduction: NaN fails the comparison, and so do +-inf and blow-up
        return not np.max(np.abs(h)) <= 1e12 * scale0

    def step(h: np.ndarray, k: int) -> np.ndarray:
        nonlocal last_good
        h = P @ h
        if k in checked:
            if diverged(h):
                k0, h = last_good
                for j in range(k0 + 1, k + 1):
                    h = P @ h
                    if diverged(h):
                        break
                raise ValueError(f"linearized evolution diverged at step {j}; reduce dt={dt}")
            last_good = (k, h)
        return h

    values = np.array(list(march(start, step, stored)))
    return LinearEvolution(times=np.array(stored) * dt, values=values)


def measured_growth_rate(evolution: LinearEvolution, t1: float, t2: float,
                         norm: str = "sup") -> float:
    """log(||h(t2)|| / ||h(t1)||) / (t2 - t1) in the sup norm over the grid nodes.

    ``norm`` accepts only "sup"; it stays because the benchmark passes it by
    name.  t1 and t2 must be stored snapshot times, up to a relative rounding
    tolerance of 1e-9 (as in :func:`quadrature.step_count`); any other time
    raises instead of being replaced by the nearest stored one.
    """
    if norm != "sup":
        raise ValueError(f"unknown norm {norm!r}; only 'sup' is measured")
    norms = evolution.sup_norms()
    times = evolution.times

    def stored_index(t: float, name: str) -> int:
        i = int(np.argmin(np.abs(times - t)))
        if abs(times[i] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"{name}={t!r} is not a stored snapshot time")
        return i

    i1 = stored_index(t1, "t1")
    i2 = stored_index(t2, "t2")
    if i1 == i2:
        raise ValueError("t1 and t2 resolve to the same stored snapshot")
    return float(np.log(norms[i2] / norms[i1]) / (times[i2] - times[i1]))
