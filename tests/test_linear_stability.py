import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from dropsed import linear_stability as ls
from dropsed.quadrature import PhiGrid, ThetaGrid, basis_matrix, simpson_weights

import characteristic_corrector_oracle as corrector
import phi_simpson_oracle as oracle

# frozen high-resolution references (1601 x 3202 Simpson); the pi/4 value
# agrees with the closed form -sqrt(2)/3 to 5e-11
J1_PI4_REFERENCE = -0.47140452081156947
A11_200_400_REFERENCE = -6.091375723705356e-09
# the same quantities with the exact azimuthal integral; J1 now sits 1.1e-10
# from -sqrt(2)/3, the polar Simpson error of the log-singular near-diagonal
J1_PI4_EXACT = -0.4714045208988688
A11_200_EXACT = -6.091375445932759e-09

# each basis function has squared L2(0, pi) norm pi/2, so this coefficient
# scale gives modes of unit L2(0, pi) norm
UNIT_MODE = math.sqrt(2.0 / math.pi)


def j_apply(h, dh, theta, grid):
    """Oracle: the nonlocal source at angle(s) theta for h and its derivative dh.

    The kernel at (theta, nodes) applied to a h + b h'.  The kernel and the
    weights are looked up at call time, so a monkeypatched kernel reaches it.
    """
    tb = grid.nodes
    a, b = ls._source_weights(grid)
    out = ls._sphere_kernel(np.atleast_1d(theta), tb) @ (a * h(tb) + b * dh(tb))
    return out[0] if np.ndim(theta) == 0 else out


def l_apply(h, dh, theta, grid):
    """Oracle: the full linearized source, j_apply plus the multiplicative coefficient."""
    return j_apply(h, dh, theta, grid) + ls.k_coefficient(theta) * h(theta)


def one(theta):
    return np.ones_like(np.asarray(theta, dtype=float))


def zero(theta):
    return np.zeros_like(np.asarray(theta, dtype=float))


def basis_pair(coeffs):
    """(h, h') of the basis expansion with these coefficients."""
    n = len(coeffs)
    return (lambda th: coeffs @ basis_matrix(n, np.atleast_1d(th))[0],
            lambda th: coeffs @ basis_matrix(n, np.atleast_1d(th))[1])


@pytest.fixture(scope="module")
def tg():
    return ThetaGrid.uniform(401)


class TestKCoefficient:
    def test_value_at_zero(self):
        assert ls.k_coefficient(0.0) == pytest.approx(2.0 / 15.0, rel=1e-15)

    def test_zero_at_equator(self):
        assert ls.k_coefficient(math.pi / 2) == pytest.approx(0.0, abs=1e-16)

    def test_antisymmetry(self):
        th = math.pi / 5
        assert ls.k_coefficient(th) == pytest.approx(-ls.k_coefficient(math.pi - th), rel=1e-14)

    def test_quadrature_form_matches(self, tg):
        assert ls.k_by_quadrature(math.pi / 3, tg) == pytest.approx(1.0 / 15.0, abs=1e-4)

    def test_quadrature_equator(self):
        tg = ThetaGrid.uniform(801)
        assert ls.k_by_quadrature(math.pi / 2, tg) == pytest.approx(0.0, abs=1e-6)

    def test_quadrature_angle_sweep(self, tg):
        angles = np.linspace(0.0, math.pi, 10)
        vals = ls.k_by_quadrature(angles, tg)
        assert np.max(np.abs(vals - (2.0 / 15.0) * np.cos(angles))) <= 1e-4

    def test_sphere_integral(self, tg):
        assert ls.sphere_vertical_chord_integral(tg) == pytest.approx(
            -16.0 * math.pi / 15.0, abs=1e-6
        )


class TestJApply:
    def test_zero_input(self, tg):
        assert j_apply(zero, zero, 1.0, tg) == 0.0

    def test_constant_input_regression(self, monkeypatch):
        tg = ThetaGrid.uniform(1601)
        oracle.use_phi_simpson_kernels(monkeypatch, PhiGrid.uniform(3202))
        val = j_apply(one, zero, math.pi / 4, tg)
        assert val == pytest.approx(J1_PI4_REFERENCE, abs=1e-12)
        # equator value vanishes by the reflection symmetry
        assert abs(j_apply(one, zero, math.pi / 2, tg)) <= 1e-12

    def test_constant_input_exact_regression(self):
        tg = ThetaGrid.uniform(1601)
        val = j_apply(one, zero, math.pi / 4, tg)
        assert val == pytest.approx(J1_PI4_EXACT, abs=1e-12)
        assert abs(j_apply(one, zero, math.pi / 2, tg)) <= 1e-12

    def test_constant_input_closed_form(self):
        # J on constants is -5 times the multiplicative coefficient
        tg = ThetaGrid.uniform(801)
        for th in (0.3, 1.0, 2.2):
            val = j_apply(one, zero, th, tg)
            assert val == pytest.approx(-5.0 * ls.k_coefficient(th), abs=2e-6)

    def test_reflection_identity(self, tg):
        t0 = math.pi / 4
        reflected = j_apply(lambda th: np.cos(math.pi - th), lambda th: np.sin(math.pi - th), t0, tg)
        assert j_apply(np.cos, lambda th: -np.sin(th), math.pi - t0, tg) == pytest.approx(
            -reflected, abs=1e-6
        )

    def test_boundedness_constant(self):
        # empirical continuity bound, stable under refinement
        family = [
            (one, zero),
            (np.cos, lambda th: -np.sin(th)),
            (np.sin, np.cos),
            basis_pair(UNIT_MODE * np.eye(6)[5]),
        ]
        theta = np.linspace(0.0, math.pi, 41)
        samples = np.linspace(0.0, math.pi, 2001)
        consts = []
        for n in (201, 401):
            tg = ThetaGrid.uniform(n)
            c = 0.0
            for h, dh in family:
                num = np.max(np.abs(j_apply(h, dh, theta, tg)))
                den = np.max(np.abs(h(samples))) + np.max(np.abs(dh(theta)))
                c = max(c, num / den)
            consts.append(c)
        assert consts[1] < 2.0
        assert abs(consts[1] - consts[0]) / consts[1] < 0.05


class TestLApply:
    def test_reflection_identity(self, tg):
        t0 = math.pi / 3
        reflected = l_apply(lambda th: np.sin(math.pi - th) + np.cos(math.pi - th),
                            lambda th: -np.cos(math.pi - th) + np.sin(math.pi - th), t0, tg)
        value = l_apply(lambda th: np.sin(th) + np.cos(th), lambda th: np.cos(th) - np.sin(th),
                        math.pi - t0, tg)
        assert value == pytest.approx(-reflected, abs=1e-6)

    @given(a=st.floats(-3, 3), b=st.floats(-3, 3))
    @settings(max_examples=10, deadline=None)
    def test_linearity(self, a, b):
        tg = ThetaGrid.uniform(101)
        th = 1.1
        lhs = l_apply(lambda th: a * np.cos(th) + b * np.sin(th),
                      lambda th: -a * np.sin(th) + b * np.cos(th), th, tg)
        rhs = (a * l_apply(np.cos, lambda th: -np.sin(th), th, tg)
               + b * l_apply(np.sin, np.cos, th, tg))
        assert lhs == pytest.approx(rhs, abs=1e-10)


class TestCharacteristicFlow:
    def test_identity_at_equal_times(self):
        assert ls.characteristic_flow(2.0, 2.0, 1.234) == 1.234

    def test_poles_are_fixed(self):
        assert ls.characteristic_flow(5.0, 0.0, 0.0) == 0.0
        assert ls.characteristic_flow(5.0, 0.0, math.pi) == math.pi

    @pytest.mark.parametrize("theta", [-0.1, [0.5, math.pi + 0.1]])
    def test_out_of_range_rejected_like_the_basis(self, theta):
        for f in (ls.k_coefficient, lambda th: ls.characteristic_flow(1.0, 0.0, th)):
            with pytest.raises(ValueError, match=r"theta outside \[0, pi\]"):
                f(theta)
        assert ls.characteristic_flow(1.0, 0.0, math.pi + 1e-13) == math.pi

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
    def test_evaluates_the_basis_expansion(self):
        c = UNIT_MODE * np.array([0.3, -1.0, 0.5])
        theta = np.linspace(0.0, math.pi, 7)
        h = ls.Perturbation(c + 0j)  # a zero imaginary part is dropped
        assert h(theta).dtype == np.float64
        np.testing.assert_allclose(h(theta), c @ basis_matrix(3, theta)[0], rtol=1e-15, atol=0)
        assert np.ndim(h(theta[2])) == 0 and h(theta[2]) == pytest.approx(h(theta)[2], rel=1e-15)


class TestGalerkin:
    def test_deterministic_assembly(self):
        a = ls.assemble_galerkin(3, 100, 200)
        b = ls.assemble_galerkin(3, 100, 200)
        assert np.array_equal(a, b)

    def test_one_by_one_regression(self, monkeypatch):
        oracle.use_phi_simpson_kernels(monkeypatch, PhiGrid.uniform(400))
        val = ls.assemble_galerkin(1, 200, 400)[0, 0]
        assert val == pytest.approx(A11_200_400_REFERENCE, abs=1e-12)
        # the exact projection vanishes: L of a constant is odd about the equator
        assert abs(val) < 1e-6

    @pytest.mark.parametrize("size, n", [(4, 100), (16, 251)])
    def test_matches_projection_of_l_apply(self, size, n):
        # the assembly against the Simpson projection of l_apply on each basis function
        grid = ThetaGrid.uniform(n)
        E, _ = basis_matrix(size, grid.nodes)
        columns = [l_apply(*basis_pair(np.eye(size)[j]), grid.nodes, grid) for j in range(size)]
        projected = (E * grid.weights()) @ np.array(columns).T
        entries = ls.assemble_galerkin(size, n)
        assert entries.shape == (size, size)
        assert np.max(np.abs(entries - projected)) <= 1e-13 * np.max(np.abs(entries))

    def test_one_by_one_exact_regression(self):
        val = ls.assemble_galerkin(1, 200)[0, 0]
        assert val == pytest.approx(A11_200_EXACT, abs=1e-12)

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
        theta = np.linspace(0.0, math.pi, 2001)
        l2 = math.sqrt(simpson_weights(theta.size, theta[1] - theta[0]) @ np.abs(h(theta)) ** 2)
        assert l2 == pytest.approx(1.0, rel=1e-6)
        assert np.real(h(math.pi)) > 0.0

    def test_real_spectrum_is_complex_typed(self):
        rep = ls.solve_spectrum(np.diag([0.01, -0.01]))
        assert rep.eigenvalues.dtype == rep.eigenvectors.dtype == np.complex128
        assert rep.eigenvalues.tolist() == [0.01, -0.01]

    def test_lapack_failure_carries_matrix(self, monkeypatch):
        def failing_eig(entries):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        A = ls.assemble_galerkin(2, 20)
        monkeypatch.setattr(ls.np.linalg, "eig", failing_eig)
        with pytest.raises(ls.EigensolverError, match="did not converge") as exc:
            ls.solve_spectrum(A)
        assert exc.value.matrix is A

    @pytest.mark.parametrize("A", [np.full((2, 2), np.nan), np.ones((2, 3))], ids=["nan", "2x3"])
    def test_non_finite_or_non_square_matrix_rejected(self, A):
        with pytest.raises(ls.EigensolverError) as exc:
            ls.solve_spectrum(A)
        assert exc.value.matrix is A

    def test_invalid_requests(self):
        with pytest.raises(ValueError):
            ls.assemble_galerkin(0, 100)


class TestLinearizedEvolve:
    def test_zero_stays_zero(self):
        tg, pg = ThetaGrid.uniform(101), PhiGrid.uniform(202)
        zero = ls.Perturbation([0.0, 0.0])
        evo = ls.linearized_evolve(zero, 0.5, tg, pg, dt=0.01)
        assert np.max(np.abs(evo.values)) == 0.0

    def test_generic_perturbation_grows_after_transient(self):
        tg, pg = ThetaGrid.uniform(201), PhiGrid.uniform(402)
        h0 = ls.Perturbation(UNIT_MODE * np.array([0.0, 1.0, 0.5, -0.2]))
        evo = ls.linearized_evolve(h0, 10.0, tg, pg, dt=0.01, snapshot_every=1.0)
        late_rate = ls.measured_growth_rate(evo, 5.0, 10.0, norm="sup")
        assert late_rate > 0.05

    def test_excessive_dt_rejected(self):
        tg, pg = ThetaGrid.uniform(101), PhiGrid.uniform(202)
        h0 = ls.Perturbation(UNIT_MODE * np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match="corrector|diverged"):
            ls.linearized_evolve(h0, 400.0, tg, pg, dt=40.0)

    @pytest.mark.parametrize("gain, step", [(np.nan, 1), (10.0, 13)])
    def test_divergence_names_its_step(self, monkeypatch, gain, step):
        # a NaN and growth past 1e12 times the initial size both stop the run
        tg, pg = ThetaGrid.uniform(21), PhiGrid.uniform(42)
        monkeypatch.setattr(ls, "linearized_propagator", lambda grid, dt: gain * np.eye(grid.n_theta))
        with np.errstate(invalid="ignore"), \
                pytest.raises(ValueError, match=rf"diverged at step {step}; reduce dt=0\.01"):
            ls.linearized_evolve(np.cos, 1.0, tg, pg, dt=0.01)

    @pytest.mark.parametrize("n, t", [(101, 1.0), (251, 2.5)])
    def test_matches_iterated_corrector(self, n, t):
        tg, pg = ThetaGrid.uniform(n), PhiGrid.uniform(2 * n)
        h0 = ls.Perturbation(UNIT_MODE * np.array([0.0, 1.0, 0.5, -0.2]))
        evo = ls.linearized_evolve(h0, t, tg, pg, dt=0.01, snapshot_every=0.01)
        ref = corrector.linearized_evolve(h0, t, tg, pg, dt=0.01, snapshot_every=0.01)
        np.testing.assert_array_equal(evo.times, ref.times)
        assert np.max(np.abs(evo.values - ref.values)) <= 1e-10 * np.max(np.abs(ref.values))

    def test_dt_guard_rejects_before_first_step(self):
        # dt/2 ||L||_inf is about 1.04 at dt=2.5 and 0.83 at dt=2.0 on 101 nodes
        tg, pg = ThetaGrid.uniform(101), PhiGrid.uniform(202)
        sampled = []

        def h0(theta):
            sampled.append(theta)
            return np.cos(theta)

        with pytest.raises(ValueError, match=r"dt=2\.5 .*corrector.*2/\|\|L\|\|_inf = 2\.4"):
            ls.linearized_evolve(h0, 5.0, tg, pg, dt=2.5)
        assert sampled == []
        evo = ls.linearized_evolve(h0, 4.0, tg, pg, dt=2.0, snapshot_every=2.0)
        assert evo.times.tolist() == [0.0, 2.0, 4.0] and np.all(np.isfinite(evo.values))

    @pytest.mark.parametrize("n", [11, 101])
    def test_spline_matrices_match_cubic_spline(self, n):
        theta = ThetaGrid.uniform(n).nodes
        feet = ls.characteristic_flow(0.0, 0.05, theta)
        D, S = ls._spline_matrices(theta, feet)
        ref = CubicSpline(theta, np.eye(n))
        assert np.max(np.abs(D - ref(theta, 1))) <= 1e-13 * np.max(np.abs(D))
        assert np.max(np.abs(S - ref(feet))) <= 1e-14

    def test_propagator_is_one_step(self):
        tg, pg = ThetaGrid.uniform(51), PhiGrid.uniform(102)
        h0 = ls.Perturbation(UNIT_MODE * np.array([1.0, 0.5, 0.25]))
        P = ls.linearized_propagator(tg, 0.05)
        evo = ls.linearized_evolve(h0, 0.1, tg, pg, dt=0.05, snapshot_every=0.05)
        np.testing.assert_allclose(evo.values[2], P @ (P @ h0(tg.nodes)), rtol=0, atol=1e-15)

    def test_growth_rate_helper(self):
        times = np.array([0.0, 1.0, 2.0])
        values = np.exp(0.25 * times)[:, None] * np.ones((3, 11))
        evo = ls.LinearEvolution(times=times, values=values)
        assert ls.measured_growth_rate(evo, 0.0, 2.0) == pytest.approx(0.25, rel=1e-12)
        with pytest.raises(ValueError):
            ls.measured_growth_rate(evo, 0.0, 0.0)
        with pytest.raises(ValueError, match="unknown norm 'l2'"):
            ls.measured_growth_rate(evo, 0.0, 2.0, norm="l2")

    def test_growth_rate_rejects_unstored_time(self):
        times = np.arange(6.0)
        values = np.exp(0.25 * times)[:, None] * np.ones((6, 11))
        evo = ls.LinearEvolution(times=times, values=values)
        with pytest.raises(ValueError, match=r"t2=4\.5 is not a stored snapshot time"):
            ls.measured_growth_rate(evo, 0.0, 4.5)
        with pytest.raises(ValueError, match=r"t1=0\.5 is not a stored snapshot time"):
            ls.measured_growth_rate(evo, 0.5, 5.0)
        # a time off a stored one by rounding only still resolves to it
        assert ls.measured_growth_rate(evo, 0.0, 5.0 * (1 + 1e-12)) == pytest.approx(0.25, rel=1e-12)
