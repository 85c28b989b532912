import math

import numpy as np
import pytest

from dropsed.quadrature import PhiGrid, ThetaGrid
from dropsed.surface_evolution import (
    CenterPolicy,
    CflError,
    RadialProfile,
    SurfaceCollapseError,
    advection_and_source,
    center_speed,
    enclosed_volume,
    evolve,
    step_upwind,
    theta_derivative,
)

WAVE = -4.0 / 15.0


@pytest.fixture
def grid101():
    return ThetaGrid.uniform(101)


@pytest.fixture
def phi202():
    return PhiGrid.uniform(202)


class TestCenterSpeed:
    def test_unit_sphere(self, grid101):
        p = RadialProfile.sphere(grid101)
        assert center_speed(p) == pytest.approx(-1.0 / 3.0, abs=1e-6)

    def test_quadratic_scaling_in_radius(self, grid101):
        p1 = RadialProfile.sphere(grid101, 1.0)
        p2 = RadialProfile.sphere(grid101, 2.0)
        assert center_speed(p2) == pytest.approx(4.0 * center_speed(p1), rel=1e-12)
        assert center_speed(p2) == pytest.approx(-4.0 / 3.0, abs=1e-5)


class TestSourceOperators:
    def test_unit_sphere_advection_speed(self, grid101, phi202):
        a1, _ = advection_and_source(RadialProfile.sphere(grid101), WAVE, phi202)
        for frac in (0.25, 0.5, 0.75):
            idx = int(frac * (grid101.n_theta - 1))
            theta = grid101.nodes[idx]
            assert a1[idx] == pytest.approx(-math.sin(theta) / 15.0, abs=2e-3)

    def test_advection_vanishes_at_poles(self, grid101, phi202):
        a1, _ = advection_and_source(RadialProfile.sphere(grid101), WAVE, phi202)
        assert a1[0] == 0.0
        assert a1[grid101.n_theta - 1] == 0.0

    def test_azimuthal_refinement_converged(self, grid101):
        p = RadialProfile.sphere(grid101)
        mid = grid101.n_theta // 2
        coarse = advection_and_source(p, WAVE, PhiGrid.uniform(200))[0][mid]
        fine = advection_and_source(p, WAVE, PhiGrid.uniform(400))[0][mid]
        assert abs(fine - coarse) < 1e-4

    def test_stationary_source_residual(self, phi202):
        grid = ThetaGrid.uniform(100)
        p = RadialProfile.sphere(grid)
        _, a2 = advection_and_source(p, WAVE, PhiGrid.uniform(200))
        assert np.max(np.abs(a2)) <= 2e-3

    def test_stationary_residual_shrinks_under_refinement(self):
        res = []
        for n in (100, 200):
            p = RadialProfile.sphere(ThetaGrid.uniform(n))
            _, a2 = advection_and_source(p, WAVE, PhiGrid.uniform(2 * n))
            res.append(np.max(np.abs(a2)))
        assert res[1] <= res[0] / 2.0

    def test_center_term_enters_affinely(self, grid101, phi202):
        p = RadialProfile.sphere(grid101)
        _, a2_wave = advection_and_source(p, WAVE, phi202)
        _, a2_zero = advection_and_source(p, 0.0, phi202)
        shift = a2_zero - a2_wave
        assert np.allclose(shift, WAVE * np.cos(grid101.nodes), atol=1e-14)
        # with a frozen center the sphere is no longer stationary
        assert np.max(np.abs(a2_zero + (4.0 / 15.0) * np.cos(grid101.nodes))) <= 2e-3

    def test_equator_source_vanishes(self, grid101, phi202):
        _, a2 = advection_and_source(RadialProfile.sphere(grid101), WAVE, phi202)
        assert a2[grid101.n_theta // 2] == pytest.approx(0.0, abs=2e-3)

    def test_reflection_parity(self):
        # reflecting the profile flips the source sign and preserves the
        # advection speed (gravity breaks plain up-down symmetry)
        grid = ThetaGrid.uniform(80)
        pg = PhiGrid.uniform(160)
        th = grid.nodes
        r = 1.0 + 0.1 * np.sin(2 * th) + 0.05 * np.cos(th)
        p = RadialProfile(grid=grid, r=r)
        p_ref = RadialProfile(grid=grid, r=r[::-1].copy())
        c = center_speed(p)
        assert center_speed(p_ref) == pytest.approx(c, abs=1e-7)
        a1, a2 = advection_and_source(p, c, pg)
        b1, b2 = advection_and_source(p_ref, c, pg)
        assert np.max(np.abs(b1[::-1] - a1)) < 1e-10
        assert np.max(np.abs(b2[::-1] + a2)) < 1e-10


class TestStepUpwind:
    def test_zero_dt_is_identity(self, grid101, phi202):
        p = RadialProfile.sphere(grid101)
        q = step_upwind(p, 0.0, CenterPolicy.fixed_wave_speed(), phi202)
        assert np.array_equal(q.r, p.r)
        assert q.time == 0.0

    def test_sphere_stays_spherical_one_step(self, grid101, phi202):
        p = RadialProfile.sphere(grid101)
        q = step_upwind(p, 0.01, CenterPolicy.fixed_wave_speed(), phi202)
        assert np.max(np.abs(q.r - 1.0)) <= 5e-3

    def test_cfl_guard(self, grid101, phi202):
        p = RadialProfile.sphere(grid101)
        with pytest.raises(CflError):
            step_upwind(p, 10.0, CenterPolicy.fixed_wave_speed(), phi202)

    def test_collapse_detected(self):
        # nearly pinched at the north pole; a rising center drives it under
        grid = ThetaGrid.uniform(51)
        pg = PhiGrid.uniform(102)
        th = grid.nodes
        r = 0.005 + 0.995 * np.sin(th / 2.0) ** 2 + 0.5 * np.sin(th) ** 2
        p = RadialProfile(grid=grid, r=r)
        with pytest.raises(SurfaceCollapseError, match="collapsed"):
            step_upwind(p, 5e-3, CenterPolicy("prescribed", 1.0), pg)

    def test_upwind_direction_follows_speed_sign(self):
        # pure check of the finite-difference stencil via a linear profile
        r = np.linspace(1.0, 2.0, 7)
        dr = theta_derivative(r, 0.5)
        assert np.allclose(dr, (2.0 - 1.0) / 3.0, rtol=1e-12)


class TestEvolve:
    def test_stationary_short_run(self):
        grid = ThetaGrid.uniform(100)
        pg = PhiGrid.uniform(200)
        p0 = RadialProfile.sphere(grid)
        snaps = evolve(p0, T=1.0, dt=0.01, policy=CenterPolicy.fixed_wave_speed(),
                       phi_grid=pg, snapshot_every=0.5)
        final = snaps[-1]
        assert final.time == pytest.approx(1.0, rel=1e-12)
        assert np.max(np.abs(final.r - 1.0)) <= 1e-3
        assert final.c3 == pytest.approx(-4.0 / 15.0, abs=1e-12)

    def test_transported_center_diagnostic(self):
        # documented diagnostic: from the sphere the transported center moves
        # at -1/3 while the surface slowly deforms
        grid = ThetaGrid.uniform(100)
        pg = PhiGrid.uniform(200)
        p0 = RadialProfile.sphere(grid)
        snaps = evolve(p0, T=0.5, dt=0.01, policy=CenterPolicy("transported"), phi_grid=pg)
        assert snaps[-1].c3 == pytest.approx(-0.5 / 3.0, abs=2e-3)
        assert np.max(np.abs(snaps[-1].r - 1.0)) <= 0.05

    def test_volume_drift_short(self):
        grid = ThetaGrid.uniform(100)
        pg = PhiGrid.uniform(200)
        p0 = RadialProfile.sphere(grid)
        v0 = enclosed_volume(p0)
        snaps = evolve(p0, T=2.0, dt=0.01, policy=CenterPolicy.fixed_wave_speed(), phi_grid=pg)
        assert abs(enclosed_volume(snaps[-1]) - v0) / v0 <= 1e-2

    def test_snapshot_callback_sees_every_snapshot(self):
        seen = []
        snaps = evolve(RadialProfile.sphere(ThetaGrid.uniform(21)), T=0.05, dt=0.01,
                       policy=CenterPolicy.fixed_wave_speed(), phi_grid=PhiGrid.uniform(42),
                       snapshot_every=0.02, on_snapshot=seen.append)
        assert len(seen) == len(snaps) and all(a is b for a, b in zip(seen, snaps))
        assert [p.time for p in snaps] == pytest.approx([0.0, 0.02, 0.04, 0.05], abs=1e-12)

    def test_snapshot_every_must_be_whole_steps(self):
        seen = []
        with pytest.raises(ValueError, match=r"snapshot_every=0\.015 .*dt=0\.01"):
            evolve(RadialProfile.sphere(ThetaGrid.uniform(21)), T=0.06, dt=0.01,
                   policy=CenterPolicy.fixed_wave_speed(), phi_grid=PhiGrid.uniform(42),
                   snapshot_every=0.015, on_snapshot=seen.append)
        assert seen == []

    def test_no_snapshot_when_first_step_fails_cfl(self, grid101, phi202):
        seen = []
        with pytest.raises(CflError):
            evolve(RadialProfile.sphere(grid101), T=20.0, dt=10.0,
                   policy=CenterPolicy.fixed_wave_speed(), phi_grid=phi202,
                   on_snapshot=seen.append)
        assert seen == []

    def test_cfl_runs_stay_finite(self, rng):
        grid = ThetaGrid.uniform(60)
        pg = PhiGrid.uniform(120)
        for _ in range(3):
            amp = rng.uniform(0.02, 0.1, size=3)
            r = 1.0 + amp[0] * np.cos(grid.nodes) + amp[1] * np.cos(2 * grid.nodes) \
                + amp[2] * np.sin(grid.nodes)
            p = RadialProfile(grid=grid, r=r)
            for _ in range(10):
                p = step_upwind(p, 0.01, CenterPolicy.fixed_wave_speed(), pg)
            assert np.all(np.isfinite(p.r))

    def test_unit_sphere_volume(self, grid101):
        assert enclosed_volume(RadialProfile.sphere(grid101)) == pytest.approx(
            4.0 * math.pi / 3.0, rel=1e-8
        )


class TestProfileValidation:
    def test_nonpositive_radius_rejected(self, grid101):
        r = np.ones(grid101.n_theta)
        r[3] = 0.0
        with pytest.raises(ValueError):
            RadialProfile(grid=grid101, r=r)

    def test_nonfinite_rejected(self, grid101):
        r = np.ones(grid101.n_theta)
        r[3] = np.nan
        with pytest.raises(ValueError):
            RadialProfile(grid=grid101, r=r)

    def test_policy_modes(self):
        assert CenterPolicy.fixed_wave_speed().speed(None) == WAVE
        assert CenterPolicy("prescribed", -0.25).speed(None) == -0.25
        with pytest.raises(ValueError):
            CenterPolicy(mode="bogus")

    @pytest.mark.parametrize("speed", [math.nan, math.inf, -math.inf])
    def test_non_finite_prescribed_speed_rejected(self, speed):
        with pytest.raises(ValueError, match=f"prescribed_speed must be finite, got {speed}"):
            CenterPolicy("prescribed", speed)
