"""Closed-form azimuthal integrals against quadrature and the phi-Simpson oracle."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from dropsed import linear_stability as ls
from dropsed import surface_evolution as se
from dropsed.kernels import MOMENT_SERIES_MAX, azimuthal_moments
from dropsed.quadrature import PhiGrid, ThetaGrid

import phi_simpson_oracle as oracle


def quad_moments(a, b, a_minus_b):
    """I0 and I1 by adaptive quadrature, in the half-angle form A - B + 2 B sin^2(phi/2).

    I1 integrates cos(phi) (1/sqrt(u) - 1/sqrt(A)), the subtracted part having
    zero mean, with the difference written out as B cos(phi) / (...), so a
    small B loses no digits to cancellation.
    """
    def u(p):
        return a_minus_b + 2.0 * b * math.sin(0.5 * p) ** 2

    def f0(p):
        return 1.0 / math.sqrt(u(p))

    def f1(p):
        return b * math.cos(p) ** 2 / (math.sqrt(u(p) * a) * (math.sqrt(u(p)) + math.sqrt(a)))

    # symmetric about pi, and sharply peaked at phi = 0 as B/A -> 1
    breaks = [0.0, 1e-6, 1e-3, 0.1, math.pi]
    return [2.0 * sum(quad(f, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]
                      for lo, hi in zip(breaks[:-1], breaks[1:]))
            for f in (f0, f1)]


class TestAzimuthalMoments:
    @pytest.mark.parametrize("ratio", [0.0, 1e-8, 1e-4, MOMENT_SERIES_MAX * (1 - 1e-9),
                                       MOMENT_SERIES_MAX * (1 + 1e-9), 0.5, 1 - 1e-12])
    def test_matches_quadrature(self, ratio):
        a = 1.7
        b = ratio * a
        i0, i1 = azimuthal_moments(a, b, a - b)
        r0, r1 = quad_moments(a, b, a - b)
        assert abs(i0 / r0 - 1.0) <= 1e-10
        if ratio == 0.0:
            assert i1 == 0.0
        else:
            assert abs(i1 / r1 - 1.0) <= 1e-10

    def test_series_and_elliptic_branches_agree_at_switch(self):
        # one ulp apart in B: the first uses the series, the second the elliptic form
        a = np.ones(2)
        b = np.array([np.nextafter(MOMENT_SERIES_MAX, 0.0), MOMENT_SERIES_MAX])
        i0, i1 = azimuthal_moments(a, b, a - b)
        assert abs(i1[1] / i1[0] - 1.0) <= 1e-12
        assert abs(i0[1] / i0[0] - 1.0) <= 1e-12

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError, match="coincident"):
            azimuthal_moments([2.0, 2.0], [1.0, 2.0], [1.0, 0.0])


def dominant_profile(grid: ThetaGrid, eps: float = 0.05) -> se.RadialProfile:
    """Unit sphere plus eps times the K=16 dominant eigenvector at unit sup norm."""
    report = ls.solve_spectrum(ls.assemble_galerkin(16, grid.n_theta))
    h = np.real(report.eigenvector_perturbation(0)(grid.nodes))
    return se.RadialProfile(grid=grid, r=1.0 + eps * h / np.max(np.abs(h)))


class TestSurfaceQuadratureAgainstOracle:
    @pytest.mark.parametrize("profile", ["sphere", "dominant"])
    def test_matches_phi_simpson(self, profile):
        grid = ThetaGrid.uniform(100)
        p = se.RadialProfile.sphere(grid) if profile == "sphere" else dominant_profile(grid)
        c = se.center_speed(p)
        a1, a2 = se.advection_and_source(p, c, PhiGrid.uniform(200))
        for n_phi, tol in ((200, 2e-6), (1600, 1e-7)):
            o1, o2 = oracle.advection_and_source(p, c, PhiGrid.uniform(n_phi))
            assert np.max(np.abs(a1 - o1)) <= tol, n_phi
            assert np.max(np.abs(a2 - o2)) <= tol, n_phi

    def test_phi_grid_changes_nothing(self):
        grid = ThetaGrid.uniform(60)
        p = dominant_profile(grid)
        coarse = se.advection_and_source(p, se.WAVE_CENTER_SPEED, PhiGrid.uniform(7))
        fine = se.advection_and_source(p, se.WAVE_CENTER_SPEED, PhiGrid.uniform(900))
        assert all(np.array_equal(x, y) for x, y in zip(coarse, fine))

    def test_sphere_advection_identity_fine_grid(self):
        grid = ThetaGrid.uniform(401)
        p = se.RadialProfile.sphere(grid)
        a1, _ = se.advection_and_source(p, se.WAVE_CENTER_SPEED, PhiGrid.uniform(802))
        assert np.max(np.abs(a1 + np.sin(grid.nodes) / 15.0)) <= 1e-8


class TestSphereKernelAgainstOracle:
    def test_off_diagonal_matches_phi_simpson(self):
        tg = ThetaGrid.uniform(100)
        R = ls._grid_kernel(100)
        i, j = np.indices(R.shape)
        off = np.abs(i - j) > 5
        for n_phi, tol_off, tol_all in ((200, 1e-5, 2e-3), (1600, 1e-9, 1e-6)):
            simpson = oracle.phi_reduced_kernel(tg.nodes, tg, PhiGrid.uniform(n_phi))
            assert np.max(np.abs(R - simpson)[off]) <= tol_off, n_phi
            assert np.max(np.abs(R - simpson)) <= tol_all, n_phi

    def test_diagonal_is_four_cos_theta(self):
        tg = ThetaGrid.uniform(100)
        R = ls._grid_kernel(100)
        interior = slice(1, -1)
        exact = 4.0 * np.cos(tg.nodes[interior])
        assert np.array_equal(np.diag(R)[interior], exact)
        simpson = oracle.phi_reduced_kernel(tg.nodes, tg, PhiGrid.uniform(200))
        assert np.max(np.abs(np.diag(simpson)[interior] - exact)) <= 1e-8
        # the pole-node policy: both kernels vanish on the two pole diagonals
        assert R[0, 0] == R[-1, -1] == simpson[0, 0] == simpson[-1, -1] == 0.0

    def test_grid_kernel_cache_is_read_only(self):
        R = ls._grid_kernel(50)
        assert ls._grid_kernel(50) is R
        with pytest.raises(ValueError):
            R[3, 4] = 1.0
