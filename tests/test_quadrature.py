import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dropsed import linear_stability as ls
from dropsed import micro_sim as ms
from dropsed import surface_evolution as se
from dropsed.kernels import FluidParams
from dropsed.quadrature import (
    PhiGrid,
    ThetaGrid,
    basis_eval,
    basis_matrix,
    refine_simpson_2d,
    simpson_1d,
    simpson_2d,
    simpson_weights,
    snapshot_stride,
    step_count,
)


class TestSimpson1d:
    def test_exact_for_cubic(self):
        assert simpson_1d(lambda x: x**3, 0.0, 1.0, 2) == pytest.approx(0.25, abs=0)

    def test_sine_closed_form(self):
        # antiderivative -cos gives exactly 2 over [0, pi]
        assert simpson_1d(np.sin, 0.0, math.pi, 200) == pytest.approx(2.0, abs=1e-8)

    def test_constant(self):
        assert simpson_1d(lambda x: np.ones_like(x), 0.0, math.pi, 4) == pytest.approx(math.pi, rel=1e-15)

    def test_odd_panels_rounded_up(self, caplog):
        with caplog.at_level(logging.INFO):
            val = simpson_1d(np.exp, 0.0, 1.0, 7)
        assert val == pytest.approx(simpson_1d(np.exp, 0.0, 1.0, 8), abs=0)
        assert any("rounded up" in rec.message for rec in caplog.records)

    def test_nonfinite_sample_rejected(self):
        with pytest.raises(ValueError, match="node"):
            simpson_1d(lambda x: 1.0 / x, 0.0, 1.0, 4)

    def test_scalar_only_integrand_raises(self):
        with pytest.raises(TypeError):
            simpson_1d(lambda x: math.exp(x), 0.0, 1.0, 4)

    def test_wrong_shape_names_shapes(self):
        with pytest.raises(ValueError, match=r"shape \(\), expected \(5,\)"):
            simpson_1d(lambda x: 1.0, 0.0, 1.0, 4)

    def test_fourth_order_convergence(self):
        exact = math.e - 1.0
        errs = [abs(simpson_1d(np.exp, 0.0, 1.0, n) - exact) for n in (8, 16, 32)]
        ratios = [errs[i] / errs[i + 1] for i in range(2)]
        for r in ratios:
            assert 12.0 < r < 20.0

    @given(coeffs=st.lists(st.floats(-5, 5), min_size=4, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_exact_on_random_cubics(self, coeffs):
        poly = np.polynomial.Polynomial(coeffs)
        exact = poly.integ()(2.0) - poly.integ()(0.5)
        assert simpson_1d(poly, 0.5, 2.0, 2) == pytest.approx(exact, rel=1e-12, abs=1e-12)


class TestSimpson2d:
    def test_area(self):
        tg, pg = ThetaGrid.uniform(11), PhiGrid.uniform(11)
        val = simpson_2d(lambda t, p: np.ones(np.broadcast(t, p).shape), tg, pg)
        assert val == pytest.approx(2.0 * math.pi**2, rel=1e-13)

    def test_scalar_constant_broadcasts(self):
        tg, pg = ThetaGrid.uniform(11), PhiGrid.uniform(11)
        assert simpson_2d(lambda t, p: 1.0, tg, pg) == pytest.approx(2.0 * math.pi**2, rel=1e-13)

    def test_scalar_only_integrand_raises(self):
        tg, pg = ThetaGrid.uniform(11), PhiGrid.uniform(11)
        with pytest.raises(TypeError):
            simpson_2d(lambda t, p: math.sin(t), tg, pg)

    def test_separable_sine(self):
        tg, pg = ThetaGrid.uniform(201), PhiGrid.uniform(201)
        val = simpson_2d(lambda t, p: np.sin(t) + 0.0 * p, tg, pg)
        assert val == pytest.approx(4.0 * math.pi, abs=1e-8)

    def test_integrable_pole_with_exclusion(self):
        # sin(tb) / |e(tb, p) - e(0, 0)| integrates to 4 pi (substitute u = 1 - cos)
        def f(t, p):
            chord = np.sqrt(np.maximum(2.0 - 2.0 * np.cos(t), 0.0)) + 0.0 * p
            return np.sin(t) / chord

        tg, pg = ThetaGrid.uniform(401), PhiGrid.uniform(401)
        val = simpson_2d(f, tg, pg, exclude_poles=True)
        assert val == pytest.approx(4.0 * math.pi, abs=1e-3)

    def test_pole_without_exclusion_names_node(self):
        def f(t, p):
            return np.where(t == 0.0, np.inf, 1.0) + 0.0 * p

        tg, pg = ThetaGrid.uniform(11), PhiGrid.uniform(11)
        with pytest.raises(ValueError, match="theta=0.0"):
            simpson_2d(f, tg, pg)


class TestGrids:
    def test_theta_grid_invariants(self):
        g = ThetaGrid.uniform(100)
        assert g.nodes[0] == 0.0 and g.nodes[-1] == math.pi
        assert np.all(np.diff(g.nodes) > 0)
        assert g.spacing * (g.n_theta - 1) == pytest.approx(math.pi, rel=1e-15)

    def test_phi_grid_invariants(self):
        g = PhiGrid.uniform(64)
        assert g.nodes[0] == 0.0 and g.nodes[-1] == 2.0 * math.pi
        assert np.allclose(np.diff(g.nodes), g.spacing)

    def test_weights_sum_to_interval_length(self):
        for n in (11, 100, 101):
            assert simpson_weights(n, math.pi / (n - 1)).sum() == pytest.approx(math.pi, rel=1e-13)

    def test_bad_grids_rejected(self):
        with pytest.raises(ValueError):
            ThetaGrid.uniform(2)
        with pytest.raises(ValueError):
            ThetaGrid(n_theta=3, nodes=np.array([0.0, 1.0, 2.0]), spacing=1.0)


class TestBasis:
    def test_constant_mode(self):
        val, der = basis_eval(0, 0.7)
        assert val == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-15)
        assert der == 0.0

    def test_linear_mode_vanishes_at_midpoint(self):
        val, _ = basis_eval(1, math.pi / 2)
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_orthogonality_2_3(self):
        f = lambda th: basis_eval(2, th)[0] * basis_eval(3, th)[0]
        assert simpson_1d(f, 0.0, math.pi, 400) == pytest.approx(0.0, abs=1e-10)

    def test_gram_matrix_is_identity(self):
        # fourth-order convergence of the Gram residual; 1e-8 needs a few
        # hundred nodes per basis degree, far beyond 4 nodes per function
        K = 12
        residual = {}
        for n in (1601, 6401):
            theta = np.linspace(0.0, math.pi, n)
            vals, _ = basis_matrix(K, theta)
            w = simpson_weights(n, theta[1] - theta[0])
            gram = np.einsum("m,im,jm->ij", w, vals, vals)
            residual[n] = np.max(np.abs(gram - np.eye(K)))
        assert residual[6401] < 1e-8
        assert residual[1601] / residual[6401] > 100.0  # ~4th order over 2 doublings

    def test_legendre_normalization_scales_by_interval_jacobian(self):
        theta = np.linspace(0.0, math.pi, 7)
        a, da = basis_matrix(5, theta, "interval")
        b, db = basis_matrix(5, theta, "legendre")
        assert np.allclose(b, math.sqrt(math.pi / 2.0) * a, rtol=1e-14)
        assert np.allclose(db, math.sqrt(math.pi / 2.0) * da, rtol=1e-14)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            basis_eval(3, -0.1)
        with pytest.raises(ValueError):
            basis_eval(3, math.pi + 0.1)

    @given(k=st.integers(1, 20), x=st.floats(0.05, math.pi - 0.05))
    @settings(max_examples=40, deadline=None)
    def test_derivative_matches_finite_difference(self, k, x):
        eps = 1e-6
        val_p, _ = basis_eval(k, x + eps)
        val_m, _ = basis_eval(k, x - eps)
        _, der = basis_eval(k, x)
        assert der == pytest.approx((val_p - val_m) / (2 * eps), rel=1e-4, abs=1e-5)


class TestIntegrabilityDiagnostic:
    """Grid-doubling behavior of the sphere-chord integrals near their pole."""

    @staticmethod
    def _integrand(alpha, theta0):
        def f(t, p):
            d0 = np.sin(t) * np.cos(p) - math.sin(theta0)
            d1 = np.sin(t) * np.sin(p)
            d2 = np.cos(t) - math.cos(theta0) + 0.0 * p
            chord = np.sqrt(d0**2 + d1**2 + d2**2)
            # coincident samples (to rounding) are poles for the exclusion rule
            safe = np.where(chord < 1e-12, 1.0, chord)
            return np.where(chord < 1e-12, np.inf, np.sin(t) / safe**alpha)

        return f

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_integrable_exponents_stabilize(self, alpha):
        sups = []
        for level in range(3):
            n = 400 * 2**level + 1
            sups.append(
                max(
                    refine_simpson_2d(self._integrand(alpha, th), n0=n, levels=1,
                                      exclude_poles=True)[0]
                    for th in (0.0, math.pi / 7, math.pi / 2, math.pi)
                )
            )
        assert np.isfinite(sups).all()
        assert abs(sups[-1] - sups[-2]) / abs(sups[-1]) < 1e-2

    def test_critical_exponent_diverges(self):
        vals = refine_simpson_2d(self._integrand(2.0, 0.0), n0=101, levels=4,
                                 exclude_poles=True)
        assert vals[1] > vals[0] and vals[2] > vals[1] and vals[3] > vals[2]
        # logarithmic growth: about 2 pi log 2 per doubling, never stabilizing
        rel = abs(vals[-1] - vals[-2]) / abs(vals[-1])
        assert rel > 1e-2


class TestStepCount:
    @pytest.mark.parametrize("T, dt, n", [(2.5, 0.01, 250), (0.05, 0.01, 5), (10.0, 0.01, 1000),
                                          (0.0, 0.1, 0)])
    def test_whole_multiples(self, T, dt, n):
        assert step_count(T, dt) == n

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
