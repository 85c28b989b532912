import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from dropsed import linear_stability as ls
from dropsed import micro_sim as ms
from dropsed import surface_evolution as se
from dropsed.kernels import FluidParams
from dropsed.quadrature import (
    PhiGrid,
    ThetaGrid,
    basis_matrix,
    hermite,
    simpson_weights,
    snapshot_stride,
    spline_slopes,
    step_count,
)


def simpson(f, a: float, b: float, n_panels: int) -> float:
    """Composite Simpson value of the integral of f over [a, b] with n_panels panels."""
    x = np.linspace(a, b, n_panels + 1)
    return float(simpson_weights(n_panels + 1, (b - a) / n_panels) @ f(x))


def dense_spline_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Not-a-knot slopes from a dense LU solve of the full n x n tridiagonal system."""
    n = x.size
    dx = np.diff(x)
    slope = np.diff(y, axis=0) / dx[:, None]
    A = np.zeros((n, n))
    rhs = np.empty_like(y)
    for i in range(1, n - 1):
        A[i, i - 1:i + 2] = dx[i], 2.0 * (dx[i - 1] + dx[i]), dx[i - 1]
        rhs[i] = 3.0 * (dx[i] * slope[i - 1] + dx[i - 1] * slope[i])
    d = x[2] - x[0]
    A[0, :2] = dx[1], d
    rhs[0] = ((dx[0] + 2.0 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    A[-1, -2:] = d, dx[-2]
    rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2.0 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    return np.linalg.solve(A, rhs)


class TestSimpson1d:
    """Accuracy of the composite Simpson weights, the package's one quadrature rule."""

    def test_exact_for_cubic(self):
        assert simpson(lambda x: x**3, 0.0, 1.0, 2) == pytest.approx(0.25, abs=0)

    def test_sine_closed_form(self):
        # antiderivative -cos gives exactly 2 over [0, pi]
        assert simpson(np.sin, 0.0, math.pi, 200) == pytest.approx(2.0, abs=1e-8)

    def test_constant(self):
        assert simpson(np.ones_like, 0.0, math.pi, 4) == pytest.approx(math.pi, rel=1e-15)

    def test_fourth_order_convergence(self):
        exact = math.e - 1.0
        errs = [abs(simpson(np.exp, 0.0, 1.0, n) - exact) for n in (8, 16, 32)]
        ratios = [errs[i] / errs[i + 1] for i in range(2)]
        for r in ratios:
            assert 12.0 < r < 20.0

    @given(coeffs=st.lists(st.floats(-5, 5), min_size=4, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_exact_on_random_cubics(self, coeffs):
        poly = np.polynomial.Polynomial(coeffs)
        exact = poly.integ()(2.0) - poly.integ()(0.5)
        assert simpson(poly, 0.5, 2.0, 2) == pytest.approx(exact, rel=1e-12, abs=1e-12)


class TestGrids:
    def test_theta_grid_invariants(self):
        g = ThetaGrid.uniform(100)
        assert g.nodes[0] == 0.0 and g.nodes[-1] == math.pi
        assert np.all(np.diff(g.nodes) > 0)
        assert g.spacing * (g.n_theta - 1) == pytest.approx(math.pi, rel=1e-15)

    def test_theta_grid_is_its_node_count(self):
        # two grids of one size are one value, so the grid caches share their entry
        assert [f.name for f in dataclasses.fields(ThetaGrid)] == ["n_theta"]
        a, b = ThetaGrid.uniform(50), ThetaGrid(50)
        assert a is not b and a == b and hash(a) == hash(b)
        assert ls._grid_kernel(a) is ls._grid_kernel(b)
        assert se._advection_geometry(a) is se._advection_geometry(b)

    def test_phi_grid_invariants(self):
        # the azimuthal integrals are closed-form, so a phi grid is only a checked size
        assert [f.name for f in dataclasses.fields(PhiGrid)] == ["n_phi"]
        assert PhiGrid.uniform(64).n_phi == 64
        with pytest.raises(ValueError, match="n_phi must be >= 3"):
            PhiGrid.uniform(2)

    def test_weights_sum_to_interval_length(self):
        for n in (11, 100, 101):
            assert simpson_weights(n, math.pi / (n - 1)).sum() == pytest.approx(math.pi, rel=1e-13)

    def test_bad_grids_rejected(self):
        with pytest.raises(ValueError):
            ThetaGrid.uniform(2)
        with pytest.raises(ValueError, match="n_theta must be >= 3, got 2"):
            ThetaGrid(2)


class TestBasis:
    def test_constant_mode(self):
        val, der = basis_matrix(1, [0.7])
        assert val[0, 0] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
        assert der[0, 0] == 0.0

    def test_linear_mode_vanishes_at_midpoint(self):
        val, _ = basis_matrix(2, [math.pi / 2])
        assert val[1, 0] == pytest.approx(0.0, abs=1e-15)

    def test_orthogonality_2_3(self):
        theta = np.linspace(0.0, math.pi, 401)
        vals, _ = basis_matrix(4, theta)
        w = simpson_weights(401, math.pi / 400)
        assert w @ (vals[2] * vals[3]) == pytest.approx(0.0, abs=1e-10)

    def test_gram_matrix_is_identity(self):
        # unit norm in the mapped variable on [-1, 1] is squared norm pi/2 on
        # [0, pi]: the Gram matrix is (pi/2) I.  Fourth-order convergence of
        # the Gram residual; 1e-8 needs a few hundred nodes per basis degree,
        # far beyond 4 nodes per function
        K = 12
        residual = {}
        for n in (1601, 6401):
            theta = np.linspace(0.0, math.pi, n)
            vals, _ = basis_matrix(K, theta)
            w = simpson_weights(n, theta[1] - theta[0])
            gram = np.einsum("m,im,jm->ij", w, vals, vals)
            residual[n] = np.max(np.abs(gram - (math.pi / 2.0) * np.eye(K)))
        assert residual[6401] < 1e-8
        assert residual[1601] / residual[6401] > 100.0  # ~4th order over 2 doublings

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"theta outside \[0, pi\]"):
            basis_matrix(4, [-0.1])
        with pytest.raises(ValueError, match=r"theta outside \[0, pi\]"):
            basis_matrix(4, [0.5, math.pi + 0.1])
        # endpoints within the rounding allowance are accepted
        basis_matrix(4, [-1e-13, math.pi + 1e-13])

    @given(k=st.integers(1, 20), x=st.floats(0.05, math.pi - 0.05))
    @settings(max_examples=40, deadline=None)
    def test_derivative_matches_finite_difference(self, k, x):
        eps = 1e-6
        vals, ders = basis_matrix(k + 1, [x + eps, x - eps, x])
        val_p, val_m, der = vals[k, 0], vals[k, 1], ders[k, 2]
        assert der == pytest.approx((val_p - val_m) / (2 * eps), rel=1e-4, abs=1e-5)


class TestStepCount:
    @pytest.mark.parametrize("T, dt, n", [(2.5, 0.01, 250), (0.05, 0.01, 5), (10.0, 0.01, 1000),
                                          (0.0, 0.1, 0)])
    def test_whole_multiples(self, T, dt, n):
        assert step_count(T, dt) == n

    @pytest.mark.parametrize("T, dt", [(1.0, math.inf), (math.inf, 0.01), (math.nan, 0.01)])
    def test_non_finite_rejected(self, T, dt):
        with pytest.raises(ValueError, match=f"snapshot_every={T!r} and dt={dt!r} must both be finite"):
            step_count(T, dt, "snapshot_every")

    @pytest.mark.parametrize("T, dt", [(-1.0, 0.01), (1.0, 0.0), (1.0, -0.01)])
    def test_negative_time_or_nonpositive_step_rejected(self, T, dt):
        message = f"need T >= 0 and dt > 0, got T={T!r} and dt={dt!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            step_count(T, dt)

    @pytest.mark.parametrize("every, dt, n_steps, stride", [(None, 0.01, 5, 5), (0.0, 0.1, 0, 1),
                                                             (0.02, 0.01, 6, 2), (0.5, 0.01, 5, 50)])
    def test_snapshot_stride(self, every, dt, n_steps, stride):
        assert snapshot_stride(every, dt, n_steps) == stride

    @pytest.mark.parametrize("every", [0.015, -0.02, 1e-12])
    def test_snapshot_stride_rejects(self, every):
        with pytest.raises(ValueError, match=f"snapshot_every={every!r} .*dt=0.01"):
            snapshot_stride(every, 0.01, 6)

    @pytest.mark.parametrize("loop", ["surface", "cloud", "linearized"])
    def test_time_loops_reject_partial_last_step(self, loop):
        T, dt = 0.105, 0.01
        grid, pg = ThetaGrid.uniform(21), PhiGrid.uniform(42)
        runs = {
            "surface": lambda: se.evolve(se.RadialProfile.sphere(grid), T, dt,
                                         se.CenterPolicy.fixed_wave_speed(), pg),
            "cloud": lambda: ms.evolve_cloud(
                ms.ParticleCloud(positions=np.eye(3), cloud_radius=1.0,
                                 params=FluidParams(mu=1.0, force=np.array([0.0, 0.0, -1.0]),
                                                    radius=1e-2)), T, dt),
            "linearized": lambda: ls.linearized_evolve(np.zeros_like, T, grid, pg, dt=dt),
        }
        with pytest.raises(ValueError, match="whole number of steps"):
            runs[loop]()


class TestSpline:
    @pytest.mark.parametrize("nodes", ["uniform", "nonuniform"])
    @pytest.mark.parametrize("n", [4, 5, 40])
    def test_matches_cubic_spline(self, nodes, n):
        x = np.linspace(0.0, math.pi, n)
        if nodes == "nonuniform":
            x = math.pi * np.linspace(0.0, 1.0, n) ** 1.5
        y = np.column_stack([np.sin(3.0 * x) + x**2, np.exp(-x)])
        ref = CubicSpline(x, y)
        s = spline_slopes(x, y)
        at = np.linspace(-0.02, math.pi + 0.02, 301)  # both ends extrapolate a little
        assert np.max(np.abs(s - ref(x, 1))) <= 1e-13 * np.max(np.abs(s))
        got, want = hermite(x, y, s, at), ref(at)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_reproduces_a_cubic_and_its_nodes(self):
        x = np.array([0.0, 0.3, 0.4, 1.1, 2.0, 2.2])
        y = 1.0 - 2.0 * x + 0.5 * x**2 - 0.25 * x**3
        s = spline_slopes(x, y)
        np.testing.assert_allclose(s, -2.0 + x - 0.75 * x**2, rtol=0, atol=1e-13)
        at = np.linspace(-1.0, 3.0, 41)
        np.testing.assert_allclose(hermite(x, y, s, at), 1.0 - 2.0 * at + 0.5 * at**2 - 0.25 * at**3,
                                   rtol=0, atol=1e-12)
        assert np.array_equal(hermite(x, y, s, x), y)
        assert hermite(x, y, s, 0.35).shape == ()

    def test_sweep_matches_dense_solve_and_cubic_spline(self, rng):
        # the row sweeps against a dense LU of the same tridiagonal system,
        # and against scipy, on random non-uniform grids
        for _ in range(200):
            n = int(rng.integers(4, 60))
            x = np.concatenate(([0.0], np.cumsum(rng.uniform(0.01, 1.0, n - 1))))
            y = rng.standard_normal((n, 3))
            s = spline_slopes(x, y)
            scale = np.max(np.abs(s))
            assert np.max(np.abs(s - dense_spline_slopes(x, y))) <= 1e-13 * scale
            assert np.max(np.abs(s - CubicSpline(x, y)(x, 1))) <= 1e-13 * scale

    @pytest.mark.parametrize("x", [[0.0, 1.0, 2.0], [0.0, 1.0], [0.0, 1.0, 1.0, 2.0],
                                   [0.0, 2.0, 1.0, 3.0]])
    def test_bad_nodes_rejected(self, x):
        # with 3 nodes both not-a-knot ends are one condition (CubicSpline
        # falls back to the parabola there); the helper refuses instead
        with pytest.raises(ValueError, match="at least 4 nodes|increase strictly"):
            spline_slopes(x, np.zeros(len(x)))
