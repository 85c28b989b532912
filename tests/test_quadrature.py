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
from dropsed import patch_waves as pw
from dropsed import surface_evolution as se
from dropsed.quadrature import (
    PhiGrid,
    ThetaGrid,
    basis_matrix,
    hermite,
    march,
    simpson_weights,
    snapshot_steps,
    spline_slopes,
    step_count,
)

import spline_expression_oracle as one_expression
from convergence import assert_order_in_band


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

    def test_theta_grid_caches_read_only_arrays(self):
        g = ThetaGrid.uniform(30)
        assert g.nodes is g.nodes and g.weights is g.weights
        assert np.array_equal(g.weights, simpson_weights(30, g.spacing))
        for arr in (g.nodes, g.weights):
            with pytest.raises(ValueError):
                arr[1] = 1.0

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

    @pytest.mark.parametrize("n", [1, 2, 4, 17])
    @pytest.mark.parametrize("theta", [0.0, 0.3, math.pi])
    def test_scalar_theta_gives_one_column(self, n, theta):
        # the shape is (n_funcs,) + theta.shape, with the 1-element array's bits
        val, der = basis_matrix(n, theta)
        col_val, col_der = basis_matrix(n, np.array([theta]))
        assert val.shape == der.shape == (n,)
        assert np.array_equal(val, col_val[:, 0]) and np.array_equal(der, col_der[:, 0])
        assert np.array_equal(basis_matrix(n, theta, derivatives=False)[0], val)

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

    @pytest.mark.parametrize("T, dt", [(0.01, 1e-300), (1e300, 1e-300)])
    def test_more_than_2_53_steps_rejected(self, T, dt):
        # beyond 2**53 steps the step times k*dt are not distinct doubles
        message = f"T={T!r} spans more than 2**53 steps dt={dt!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            step_count(T, dt)

    @pytest.mark.parametrize("T, every, dt, stored", [
        (0.06, 0.02, 0.01, [0, 2, 4, 6]), (0.05, 0.02, 0.01, [0, 2, 4, 5]),
        (0.05, None, 0.01, [0, 5]), (0.05, 0.5, 0.01, [0, 5]),
        (0.0, 0.0, 0.1, [0]), (0.0, 0.02, 0.01, [0]),
    ], ids=["6-steps-every-2", "5-steps-every-2", "5-steps-default", "5-steps-every-50",
            "0-steps-default", "0-steps-every-2"])
    def test_snapshot_steps(self, T, every, dt, stored):
        assert snapshot_steps(T, dt, every) == stored

    @pytest.mark.parametrize("every", [0.015, -0.02, 1e-12])
    def test_snapshot_steps_rejects(self, every):
        with pytest.raises(ValueError, match=f"snapshot_every={every!r} .*dt=0.01"):
            snapshot_steps(0.06, 0.01, every)

    @staticmethod
    def loop_runs(T: float, dt: float) -> dict:
        """Each time loop as a call that runs it from 0 to T in steps dt on a small problem."""
        grid, pg = ThetaGrid.uniform(21), PhiGrid.uniform(42)
        return {
            "surface": lambda: se.evolve(se.RadialProfile.sphere(grid), T, dt,
                                         pw.wave_speed(1.0), pg),
            "cloud": lambda: ms.evolve_cloud(
                ms.ParticleCloud(positions=np.eye(3), particle_radius=1e-2, cloud_radius=1.0),
                T, dt),
            "linearized": lambda: ls.linearized_evolve(np.zeros_like, T, grid, pg, dt=dt),
        }

    @pytest.mark.parametrize("loop", ["surface", "cloud", "linearized"])
    def test_time_loops_reject_partial_last_step(self, loop):
        with pytest.raises(ValueError, match="whole number of steps"):
            self.loop_runs(0.105, 0.01)[loop]()

    @pytest.mark.parametrize("loop", ["surface", "cloud", "linearized"])
    def test_time_loops_run_zero_steps(self, loop):
        run = self.loop_runs(0.0, 0.01)[loop]()
        times = [p.time for p in run] if loop == "surface" else list(run.times)
        assert times == [0.0]
        if loop == "cloud":
            assert len(run.positions) == 1 and np.array_equal(run.positions[0], np.eye(3))
        elif loop == "linearized":
            assert run.values.shape == (1, 21)

    @staticmethod
    def counting_march(stored, fail_at=None):
        """The states ``march`` yields for a step that adds 1 and records k, and the ks seen."""
        seen = []

        def step(state, k):
            seen.append(k)
            if k == fail_at:
                raise RuntimeError(f"step {k}")
            return state + 1

        got = []
        try:
            for state in march(0, step, stored):
                got.append(state)
        except RuntimeError:
            pass
        return got, seen

    @pytest.mark.parametrize("stored", [[0, 1], [0, 5], [0, 2, 4, 6], [0, 2, 4, 5]])
    def test_march_yields_at_stored_indices(self, stored):
        # the state counts the steps taken, so each yielded state is its index
        got, seen = self.counting_march(stored)
        assert got == stored
        assert seen == list(range(1, stored[-1] + 1))

    @pytest.mark.parametrize("stored, fail_at, yielded", [
        ([0, 5], 1, []), ([0, 5], 3, [0]), ([0, 2, 4, 6], 3, [0, 2]), ([0, 2, 4, 6], 6, [0, 2, 4]),
    ])
    def test_march_yields_nothing_past_a_failed_step(self, stored, fail_at, yielded):
        # the initial state comes only once step 1 has returned
        got, seen = self.counting_march(stored, fail_at)
        assert got == yielded and seen == list(range(1, fail_at + 1))

    def test_march_zero_steps_yields_the_initial_state(self):
        assert self.counting_march([0]) == ([0], [])

    @pytest.mark.parametrize("loop", ["surface", "cloud", "linearized"])
    def test_time_loops_end_exactly_at_T(self, loop):
        # 1000 steps of 0.01: a time summed step by step ends at 9.999999999999831
        run = self.loop_runs(10.0, 0.01)[loop]()
        end = run[-1].time if loop == "surface" else run.times[-1]
        assert end == 10.0
        if loop == "surface":  # and the center height summed so ends at -2.6666666666666834
            assert run[-1].c3 == 10.0 * pw.wave_speed(1.0) == -2.6666666666666665


class TestSpline:
    @pytest.mark.parametrize("nodes", ["uniform", "nonuniform"])
    @pytest.mark.parametrize("n", [4, 5, 40])
    def test_matches_cubic_spline(self, nodes, n):
        x = np.linspace(0.0, math.pi, n)
        if nodes == "nonuniform":
            x = math.pi * np.linspace(0.0, 1.0, n) ** 1.5
        y = np.column_stack([np.sin(3.0 * x) + x**2, np.exp(-x)])
        ref = CubicSpline(x, y)
        D = spline_slopes(x)
        s = D @ y
        at = np.linspace(-0.02, math.pi + 0.02, 301)  # both ends extrapolate a little
        assert np.max(np.abs(s - ref(x, 1))) <= 1e-13 * np.max(np.abs(s))
        got, want = hermite(x, D, at) @ y, ref(at)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_reproduces_a_cubic_and_its_nodes(self):
        x = np.array([0.0, 0.3, 0.4, 1.1, 2.0, 2.2])
        y = 1.0 - 2.0 * x + 0.5 * x**2 - 0.25 * x**3
        D = spline_slopes(x)
        np.testing.assert_allclose(D @ y, -2.0 + x - 0.75 * x**2, rtol=0, atol=1e-13)
        at = np.linspace(-1.0, 3.0, 41)
        np.testing.assert_allclose(hermite(x, D, at) @ y, 1.0 - 2.0 * at + 0.5 * at**2 - 0.25 * at**3,
                                   rtol=0, atol=1e-12)
        # a node's row is its unit sample, so the node values come back exactly
        assert np.array_equal(hermite(x, D, x), np.eye(x.size))
        assert np.array_equal(hermite(x, D, x) @ y, y)
        assert hermite(x, D, 0.35).shape == (x.size,)

    def test_sweep_matches_dense_solve_and_cubic_spline(self, rng):
        # the row sweeps against a dense LU of the same tridiagonal system,
        # and against scipy, on random non-uniform grids
        for _ in range(200):
            n = int(rng.integers(4, 60))
            x = np.concatenate(([0.0], np.cumsum(rng.uniform(0.01, 1.0, n - 1))))
            y = rng.standard_normal((n, 3))
            s = spline_slopes(x) @ y
            scale = np.max(np.abs(s))
            assert np.max(np.abs(s - dense_spline_slopes(x, y))) <= 1e-13 * scale
            assert np.max(np.abs(s - CubicSpline(x, y)(x, 1))) <= 1e-13 * scale

    def test_maps_equal_one_expression_forms_on_the_identity(self, rng):
        # the unit samples' terms in the same arithmetic and order as the
        # spline of I, so the same bits, extrapolated points, nodes and 0-d,
        # 1-d and 2-d ``at`` included
        for n in (4, 5, 9, 60):
            x = np.concatenate(([0.0], np.cumsum(rng.uniform(0.01, 1.0, n - 1))))
            s = spline_slopes(x)
            assert np.array_equal(s, one_expression.spline_slopes(x, np.eye(n)))
            points = np.concatenate([rng.uniform(x[0] - 0.5, x[-1] + 0.5, 38), x[[0, -1]]])
            for at in (points, points.reshape(5, 8), x, float(points[3])):
                assert np.array_equal(hermite(x, s, at), one_expression.hermite(x, np.eye(n), s, at))

    def test_slopes_converge_at_fourth_order(self):
        # observed 3.90 / 3.84 / 3.72 from n = 51 to 401; the band leaves 0.22 below
        ns = [51, 101, 201, 401]
        errors = []
        for n in ns:
            x = ThetaGrid.uniform(n).nodes
            s = spline_slopes(x) @ (np.sin(3.0 * x) + np.cos(x))
            errors.append(np.max(np.abs(s - (3.0 * np.cos(3.0 * x) - np.sin(x)))))
        assert_order_in_band([math.pi / (n - 1) for n in ns], errors, 3.5, 4.2)

    @pytest.mark.parametrize("x", [[0.0, 1.0, 2.0], [0.0, 1.0], [0.0, 1.0, 1.0, 2.0],
                                   [0.0, 2.0, 1.0, 3.0]])
    def test_bad_nodes_rejected(self, x):
        # with 3 nodes both not-a-knot ends are one condition (CubicSpline
        # falls back to the parabola there); the helper refuses instead
        with pytest.raises(ValueError, match="at least 4 nodes|increase strictly"):
            spline_slopes(x)
