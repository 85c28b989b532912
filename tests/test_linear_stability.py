import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dropsed import linear_stability as ls
from dropsed.quadrature import PhiGrid, ThetaGrid

import phi_simpson_oracle as oracle

# frozen high-resolution references (1601 x 3202 Simpson); the pi/4 value
# agrees with the closed form -sqrt(2)/3 to 5e-11
J1_PI4_REFERENCE = -0.47140452081156947
A11_200_400_REFERENCE = -6.091375723705356e-09
# the same quantities with the exact azimuthal integral; J1 now sits 1.1e-10
# from -sqrt(2)/3, the polar Simpson error of the log-singular near-diagonal
J1_PI4_EXACT = -0.4714045208988688
A11_200_EXACT = -6.091375445932759e-09


@pytest.fixture(scope="module")
def grids():
    return ThetaGrid.uniform(401), PhiGrid.uniform(802)


def constant_one():
    return ls.Perturbation.from_callable(
        lambda th: np.ones_like(np.asarray(th, dtype=float)),
        lambda th: np.zeros_like(np.asarray(th, dtype=float)),
    )


class TestKCoefficient:
    def test_value_at_zero(self):
        assert ls.k_coefficient(0.0) == pytest.approx(2.0 / 15.0, rel=1e-15)

    def test_zero_at_equator(self):
        assert ls.k_coefficient(math.pi / 2) == pytest.approx(0.0, abs=1e-16)

    def test_antisymmetry(self):
        th = math.pi / 5
        assert ls.k_coefficient(th) == pytest.approx(-ls.k_coefficient(math.pi - th), rel=1e-14)

    def test_quadrature_form_matches(self, grids):
        tg, pg = grids
        assert ls.k_by_quadrature(math.pi / 3, tg, pg) == pytest.approx(1.0 / 15.0, abs=1e-4)

    def test_quadrature_equator(self):
        tg, pg = ThetaGrid.uniform(801), PhiGrid.uniform(1602)
        assert ls.k_by_quadrature(math.pi / 2, tg, pg) == pytest.approx(0.0, abs=1e-6)

    def test_quadrature_angle_sweep(self, grids):
        tg, pg = grids
        angles = np.linspace(0.0, math.pi, 10)
        vals = ls.k_by_quadrature(angles, tg, pg)
        assert np.max(np.abs(vals - (2.0 / 15.0) * np.cos(angles))) <= 1e-4

    def test_sphere_integral(self, grids):
        tg, pg = grids
        assert ls.sphere_vertical_chord_integral(tg, pg) == pytest.approx(
            -16.0 * math.pi / 15.0, abs=1e-6
        )


class TestJApply:
    def test_zero_input(self, grids):
        tg, pg = grids
        zero = ls.Perturbation.from_callable(
            lambda th: np.zeros_like(np.asarray(th, dtype=float)),
            lambda th: np.zeros_like(np.asarray(th, dtype=float)),
        )
        assert ls.j_apply(zero, 1.0, tg, pg) == 0.0

    def test_constant_input_regression(self, monkeypatch):
        tg, pg = ThetaGrid.uniform(1601), PhiGrid.uniform(3202)
        oracle.use_phi_simpson_kernels(monkeypatch, pg)
        val = ls.j_apply(constant_one(), math.pi / 4, tg, pg)
        assert val == pytest.approx(J1_PI4_REFERENCE, abs=1e-12)
        # equator value vanishes by the reflection symmetry
        assert abs(ls.j_apply(constant_one(), math.pi / 2, tg, pg)) <= 1e-12

    def test_constant_input_exact_regression(self):
        tg, pg = ThetaGrid.uniform(1601), PhiGrid.uniform(3202)
        val = ls.j_apply(constant_one(), math.pi / 4, tg, pg)
        assert val == pytest.approx(J1_PI4_EXACT, abs=1e-12)
        assert abs(ls.j_apply(constant_one(), math.pi / 2, tg, pg)) <= 1e-12

    def test_constant_input_closed_form(self):
        # J on constants is -5 times the multiplicative coefficient
        tg, pg = ThetaGrid.uniform(801), PhiGrid.uniform(1602)
        for th in (0.3, 1.0, 2.2):
            val = ls.j_apply(constant_one(), th, tg, pg)
            assert val == pytest.approx(-5.0 * ls.k_coefficient(th), abs=2e-6)

    def test_reflection_identity(self, grids):
        tg, pg = grids
        h = ls.Perturbation.from_callable(np.cos, lambda th: -np.sin(th))
        h_ref = ls.Perturbation.from_callable(
            lambda th: np.cos(math.pi - th), lambda th: np.sin(math.pi - th)
        )
        t0 = math.pi / 4
        assert ls.j_apply(h, math.pi - t0, tg, pg) == pytest.approx(
            -ls.j_apply(h_ref, t0, tg, pg), abs=1e-6
        )

    def test_boundedness_constant(self):
        # empirical continuity bound, stable under refinement
        family = [
            constant_one(),
            ls.Perturbation.from_callable(np.cos, lambda th: -np.sin(th)),
            ls.Perturbation.from_callable(np.sin, np.cos),
            ls.Perturbation.from_coefficients(np.eye(6)[5]),
        ]
        theta = np.linspace(0.0, math.pi, 41)
        consts = []
        for n in (201, 401):
            tg, pg = ThetaGrid.uniform(n), PhiGrid.uniform(2 * n)
            c = 0.0
            for h in family:
                num = np.max(np.abs(ls.j_apply(h, theta, tg, pg)))
                den = h.sup_norm() + np.max(np.abs(h.derivative(theta)))
                c = max(c, num / den)
            consts.append(c)
        assert consts[1] < 2.0
        assert abs(consts[1] - consts[0]) / consts[1] < 0.05


class TestLApply:
    def test_reflection_identity(self, grids):
        tg, pg = grids
        h = ls.Perturbation.from_callable(
            lambda th: np.sin(th) + np.cos(th), lambda th: np.cos(th) - np.sin(th)
        )
        h_ref = ls.Perturbation.from_callable(
            lambda th: np.sin(math.pi - th) + np.cos(math.pi - th),
            lambda th: -np.cos(math.pi - th) + np.sin(math.pi - th),
        )
        t0 = math.pi / 3
        assert ls.l_apply(h, math.pi - t0, tg, pg) == pytest.approx(
            -ls.l_apply(h_ref, t0, tg, pg), abs=1e-6
        )

    @given(a=st.floats(-3, 3), b=st.floats(-3, 3))
    @settings(max_examples=10, deadline=None)
    def test_linearity(self, a, b):
        tg, pg = ThetaGrid.uniform(101), PhiGrid.uniform(202)
        h1 = ls.Perturbation.from_callable(np.cos, lambda th: -np.sin(th))
        h2 = ls.Perturbation.from_callable(np.sin, np.cos)
        combo = ls.Perturbation.from_callable(
            lambda th: a * np.cos(th) + b * np.sin(th),
            lambda th: -a * np.sin(th) + b * np.cos(th),
        )
        th = 1.1
        lhs = ls.l_apply(combo, th, tg, pg)
        rhs = a * ls.l_apply(h1, th, tg, pg) + b * ls.l_apply(h2, th, tg, pg)
        assert lhs == pytest.approx(rhs, abs=1e-10)


class TestCharacteristicFlow:
    def test_identity_at_equal_times(self):
        assert ls.characteristic_flow(2.0, 2.0, 1.234) == 1.234

    def test_poles_are_fixed(self):
        assert ls.characteristic_flow(5.0, 0.0, 0.0) == 0.0
        assert ls.characteristic_flow(5.0, 0.0, math.pi) == math.pi

    def test_backward_limit_is_pi(self):
        val = ls.characteristic_flow(0.0, 200.0, math.pi / 2)
        assert abs(val - math.pi) < 1e-4

    def test_ode_oracle(self):
        # fourth-order integration of theta' = -sin(theta)/15
        th = 1.0
        dt = 1e-3
        f = lambda x: -math.sin(x) / 15.0
        for _ in range(5000):
            k1 = f(th)
            k2 = f(th + dt / 2 * k1)
            k3 = f(th + dt / 2 * k2)
            k4 = f(th + dt * k3)
            th += dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert ls.characteristic_flow(5.0, 0.0, 1.0) == pytest.approx(th, abs=1e-8)

    @given(
        t=st.floats(-20, 20),
        s=st.floats(-20, 20),
        u=st.floats(-20, 20),
        theta=st.floats(0.01, math.pi - 0.01),
    )
    @settings(max_examples=100, deadline=None)
    def test_semigroup_identity(self, t, s, u, theta):
        inner = ls.characteristic_flow(s, u, theta)
        assert ls.characteristic_flow(t, s, inner) == pytest.approx(
            ls.characteristic_flow(t, u, theta), abs=1e-12
        )


class TestPerturbation:
    def test_coefficient_and_sample_representations_agree(self):
        grid = ThetaGrid.uniform(201)
        h = ls.Perturbation.from_coefficients([0.3, -0.2, 0.5, 0.1])
        h_samples = ls.Perturbation.from_samples(grid, h(grid.nodes))
        theta = np.linspace(0.0, math.pi, 57)
        assert np.max(np.abs(h(theta) - h_samples(theta))) < 1e-8
        assert np.max(np.abs(h.derivative(theta) - h_samples.derivative(theta))) < 1e-4

    def test_norms(self):
        h = ls.Perturbation.from_callable(np.sin, np.cos)
        assert h.sup_norm() == pytest.approx(1.0, abs=1e-6)
        assert h.lp_norm(2) == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-6)


class TestGalerkin:
    def test_deterministic_assembly(self):
        a = ls.assemble_galerkin(3, 100, 200)
        b = ls.assemble_galerkin(3, 100, 200)
        assert np.array_equal(a.entries, b.entries)

    def test_one_by_one_regression(self, monkeypatch):
        oracle.use_phi_simpson_kernels(monkeypatch, PhiGrid.uniform(400))
        val = ls.assemble_galerkin(1, 200, 400).entries[0, 0]
        assert val == pytest.approx(A11_200_400_REFERENCE, abs=1e-12)
        # the exact projection vanishes: L of a constant is odd about the equator
        assert abs(val) < 1e-6

    def test_one_by_one_exact_regression(self):
        val = ls.assemble_galerkin(1, 200).entries[0, 0]
        assert val == pytest.approx(A11_200_EXACT, abs=1e-12)

    def test_normalization_scales_spectrum_by_half_pi(self):
        a = ls.assemble_galerkin(4, 100, 200, normalization="legendre")
        b = ls.assemble_galerkin(4, 100, 200, normalization="interval")
        assert np.allclose(a.entries, (math.pi / 2.0) * b.entries, rtol=1e-12)
        assert ls.TABLE_TO_OPERATOR == pytest.approx(2.0 / math.pi, rel=1e-15)

    def test_smallest_table_cells(self):
        rep4 = ls.solve_spectrum(ls.assemble_galerkin(4, 100))
        assert rep4.max_real == pytest.approx(0.073, abs=2e-3)
        rep8 = ls.solve_spectrum(ls.assemble_galerkin(8, 100))
        assert rep8.max_real == pytest.approx(0.1701, abs=2e-3)

    def test_spectrum_sorted_with_conjugate_pairs_adjacent(self):
        rep = ls.solve_spectrum(ls.assemble_galerkin(4, 100))
        real_parts = rep.eigenvalues.real
        assert np.all(np.diff(real_parts) <= 1e-12)
        pair = rep.eigenvalues[1:3]
        assert pair[0].imag == pytest.approx(-pair[1].imag, rel=1e-9)

    def test_eigenvector_normalization(self):
        rep = ls.solve_spectrum(ls.assemble_galerkin(8, 100))
        h = rep.eigenvector_perturbation(0)
        assert h.lp_norm(2) == pytest.approx(1.0, rel=1e-6)
        assert np.real(h(math.pi)) > 0.0

    def test_certificate_above_threshold(self):
        rep = ls.solve_spectrum(ls.assemble_galerkin(4, 100))
        cert = ls.instability_certificate(rep, p=3.0)
        assert cert.unstable and bool(cert)
        assert cert.threshold == pytest.approx(1.0 / 45.0, rel=1e-15)
        assert cert.max_real > cert.threshold
        assert max(cert.endpoint_at_0, cert.endpoint_at_pi) > 0.0

    def test_certificate_below_threshold(self):
        quiet = ls.GalerkinMatrix(size=2, entries=np.diag([0.01, -0.01]),
                                  n_theta=8, n_phi=16, normalization="legendre")
        cert = ls.instability_certificate(ls.solve_spectrum(quiet), p=3.0)
        assert not cert.unstable

    def test_invalid_requests(self):
        with pytest.raises(ValueError):
            ls.assemble_galerkin(0, 100)
        rep = ls.solve_spectrum(ls.assemble_galerkin(4, 100))
        with pytest.raises(ValueError):
            ls.instability_certificate(rep, p=2.0)


class TestLinearizedEvolve:
    def test_zero_stays_zero(self):
        tg, pg = ThetaGrid.uniform(101), PhiGrid.uniform(202)
        zero = ls.Perturbation.from_coefficients([0.0, 0.0])
        evo = ls.linearized_evolve(zero, 0.5, tg, pg, dt=0.01)
        assert np.max(np.abs(evo.values)) == 0.0

    def test_generic_perturbation_grows_after_transient(self):
        tg, pg = ThetaGrid.uniform(201), PhiGrid.uniform(402)
        h0 = ls.Perturbation.from_coefficients([0.0, 1.0, 0.5, -0.2])
        evo = ls.linearized_evolve(h0, 10.0, tg, pg, dt=0.01, store_every=100)
        late_rate = ls.measured_growth_rate(evo, 5.0, 10.0, norm="sup")
        assert late_rate > 0.05

    def test_excessive_dt_rejected(self):
        tg, pg = ThetaGrid.uniform(101), PhiGrid.uniform(202)
        h0 = ls.Perturbation.from_coefficients([1.0, 0.5])
        with pytest.raises(ValueError, match="corrector|diverged"):
            ls.linearized_evolve(h0, 400.0, tg, pg, dt=40.0)

    def test_growth_rate_helper(self):
        tg = ThetaGrid.uniform(11)
        times = np.array([0.0, 1.0, 2.0])
        values = np.exp(0.25 * times)[:, None] * np.ones((3, 11))
        evo = ls.LinearEvolution(grid=tg, times=times, values=values)
        assert ls.measured_growth_rate(evo, 0.0, 2.0) == pytest.approx(0.25, rel=1e-12)
        with pytest.raises(ValueError):
            ls.measured_growth_rate(evo, 0.0, 0.0)
