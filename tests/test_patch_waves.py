import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from dropsed.patch_waves import (
    UNIT_BALL_VOLUME,
    SplitMix64,
    l1_distance,
    monte_carlo_l1,
    overlap_volume,
    sample_unit_ball,
    separation_time,
    wasserstein_bounds,
    wave_speed,
)


class TestWaveSpeed:
    def test_unit_sphere_keeps_its_bits(self):
        assert wave_speed(1.0) == -4.0 / 15.0
        assert wave_speed(2.0) == 4.0 * wave_speed(1.0)

    def test_patch_and_cloud_densities(self):
        # a mass-one patch falls at a speed proportional to 1/R; a cloud of N at -(N - 1)/(5 pi)
        patch = [wave_speed(R, 1.0 / (UNIT_BALL_VOLUME * R**3)) for R in (0.5, 1.0)]
        assert patch[0] == pytest.approx(2.0 * patch[1], rel=1e-15)
        assert wave_speed(1.0, 1999 / UNIT_BALL_VOLUME) == pytest.approx(-1999 / (5 * math.pi),
                                                                         rel=1e-15)


class TestL1Distance:
    def test_initial_value_half_radius(self):
        assert l1_distance(0.5, 0.0) == 1.75

    def test_same_radius_is_zero(self):
        for t in (0.0, 3.0, 100.0):
            assert l1_distance(1.0, t) == 0.0

    def test_saturates_at_two_after_separation(self):
        T2 = separation_time(2.0)
        for t in (T2, T2 * 1.5, T2 * 10):
            assert l1_distance(2.0, t) == 2.0

    def test_initial_values_approach_zero(self):
        assert l1_distance(0.99, 0.0) < 0.07
        assert l1_distance(0.999, 0.0) < 0.007

    @pytest.mark.parametrize("R", [0.5, 0.9, 2.0])
    def test_monotone_in_time(self, R):
        TR = separation_time(R)
        ts = np.linspace(0.0, 1.2 * TR, 80)
        vals = [l1_distance(R, t) for t in ts]
        assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))
        # strictly increasing while the supports partially overlap
        overlap_ts = [t for t in ts if abs(R - 1) < _center_gap(R, t) < R + 1]
        ov = [l1_distance(R, t) for t in overlap_ts]
        assert all(b > a for a, b in zip(ov, ov[1:]))
        assert vals[-1] == 2.0

    @given(R=st.floats(0.1, 5.0), t=st.floats(0.0, 500.0))
    @settings(max_examples=80, deadline=None)
    def test_range(self, R, t):
        assert 0.0 <= l1_distance(R, t) <= 2.0

    @pytest.mark.parametrize("R", [0.5, 2.0])
    def test_monte_carlo_oracle(self, R, rng):
        TR = separation_time(R)
        for t in (0.0, TR / 2.0, 2.0 * TR):
            mc = monte_carlo_l1(R, t, 1_000_000, rng)
            assert mc == pytest.approx(l1_distance(R, t), abs=2e-2)

    def test_overlap_volume_matches_lens_formula(self, rng):
        # closed-form spherical-lens volume as the independent check
        for _ in range(25):
            r1, r2 = rng.uniform(0.3, 2.0, size=2)
            d = rng.uniform(abs(r1 - r2) + 1e-3, r1 + r2 - 1e-3)
            lens = (
                math.pi
                * (r1 + r2 - d) ** 2
                * (d**2 + 2 * d * (r1 + r2) - 3 * (r1 - r2) ** 2)
                / (12 * d)
            )
            assert overlap_volume(r1, r2, d) == pytest.approx(lens, rel=1e-12)

    def test_overlap_volume_matches_cross_section_quadrature(self, rng):
        # centers at z = 0 and z = d: the smaller of the two disk areas,
        # integrated with adaptive quadrature on each side of the plane z*
        # where the spheres meet
        for _ in range(25):
            r1, r2 = rng.uniform(0.3, 2.0, size=2)
            d = rng.uniform(abs(r1 - r2) + 1e-3, r1 + r2 - 1e-3)
            z_star = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
            below, _ = quad(lambda z: math.pi * (r2 * r2 - (z - d) ** 2), d - r2, z_star)
            above, _ = quad(lambda z: math.pi * (r1 * r1 - z * z), z_star, r1)
            assert overlap_volume(r1, r2, d) == pytest.approx(below + above, rel=1e-12)

    @pytest.mark.parametrize("r1, r2", [(1.0, 0.4), (0.7, 1.9), (1.3, 1.3)])
    def test_overlap_volume_continuous_at_both_ends(self, r1, r2):
        inner, outer = abs(r1 - r2), r1 + r2
        small_ball = UNIT_BALL_VOLUME * min(r1, r2) ** 3
        assert overlap_volume(r1, r2, inner) == small_ball
        assert overlap_volume(r1, r2, inner + 1e-9) == pytest.approx(small_ball, rel=1e-7)
        assert overlap_volume(r1, r2, outer) == 0.0
        assert overlap_volume(r1, r2, outer - 1e-9) == pytest.approx(0.0, abs=1e-15)

    def test_rejects_nonpositive_radius(self, rng):
        # one check guards every quantity built on the gap speed
        for R in (0.0, -1.0, math.nan):
            for f in (lambda: l1_distance(R, 1.0), lambda: separation_time(R),
                      lambda: wasserstein_bounds(R, 1.0), lambda: monte_carlo_l1(R, 1.0, 10, rng)):
                with pytest.raises(ValueError, match="radius must be positive"):
                    f()


def _center_gap(R, t):
    return abs(1.0 / R - 1.0) * t * (4.0 / 15.0) / UNIT_BALL_VOLUME


class TestSeparationTime:
    def test_radius_two(self):
        assert separation_time(2.0) == pytest.approx(30.0 * math.pi, rel=1e-14)

    def test_radius_half(self):
        assert separation_time(0.5) == pytest.approx(7.5 * math.pi, rel=1e-14)

    def test_blows_up_approaching_one(self):
        vals = [separation_time(R) for R in (1.1, 1.01, 1.001)]
        assert vals[0] < vals[1] < vals[2]
        assert vals[2] > 1e3

    def test_unit_radius_rejected(self):
        with pytest.raises(ValueError):
            separation_time(1.0)

    @pytest.mark.parametrize("R", [0.5, 2.0, 3.7])
    def test_numeric_root_oracle(self, R):
        # solve |center gap|(t) = R + 1 directly
        f = lambda t: _center_gap(R, t) - (R + 1.0)
        root = brentq(f, 1e-9, 1e6)
        assert separation_time(R) == pytest.approx(root, rel=1e-10)


class TestWassersteinBounds:
    def test_unit_radius(self):
        assert wasserstein_bounds(1.0, 5.0) == (0.0, 0.0)

    def test_lower_bound_value(self):
        # independent arithmetic path for the same quantity
        _, lower = wasserstein_bounds(2.0, 10.0 * math.pi)
        second_path = (4.0 * 10.0 * math.pi * abs(1.0 - 2.0)) / (15.0 * 2.0 * UNIT_BALL_VOLUME)
        assert lower == pytest.approx(1.0, rel=1e-12)
        assert lower == pytest.approx(second_path, rel=1e-12)

    def test_initial_upper_mean_radius(self):
        # mean radius of the uniform unit ball: int_0^1 r * 3 r^2 dr = 3/4
        from dropsed.quadrature import simpson_weights

        r = np.linspace(0.0, 1.0, 65)
        mean_radius = simpson_weights(65, 1.0 / 64) @ (3.0 * r**3)
        upper, _ = wasserstein_bounds(0.9, 0.0)
        assert upper == pytest.approx(abs(1.0 - 0.9) * mean_radius, rel=1e-12)
        assert upper == pytest.approx(0.075, rel=1e-12)

    def test_linear_slope_in_time(self):
        R = 0.7
        slope = (4.0 / 15.0) * abs(1.0 / R - 1.0) / UNIT_BALL_VOLUME
        for t in (1.0, 13.0, 211.0):
            _, lower = wasserstein_bounds(R, t)
            assert lower == pytest.approx(slope * t, rel=1e-12)


class TestMonteCarloHelpers:
    def test_unit_ball_sampler_is_uniform(self, rng):
        pts = sample_unit_ball(200_000, rng)
        r = np.linalg.norm(pts, axis=1)
        assert r.max() <= 1.0
        # radial cdf r^3: mean of r^3 should be 1/2
        assert np.mean(r**3) == pytest.approx(0.5, abs=5e-3)


class TestSplitMix64:
    def test_seed_0_gives_the_reference_outputs(self):
        # the first three outputs of the reference splitmix64.c seeded with 0
        outputs = SplitMix64(0).outputs(3)
        assert outputs.dtype == np.uint64
        assert [int(v) for v in outputs] == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                                             0x06C45D188009454F]

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_draws_continue_one_stream(self, seed):
        stream = SplitMix64(seed)
        split = np.concatenate([stream.uniform(size=3), stream.uniform(size=2)])
        assert np.array_equal(split, SplitMix64(seed).uniform(size=5))
        assert stream.drawn == 5

    def test_uniforms_lie_in_the_unit_interval(self):
        u = SplitMix64(1).uniform(size=(100_000, 1))
        assert u.shape == (100_000, 1) and u.min() >= 0.0 and u.max() < 1.0
        assert np.mean(u) == pytest.approx(0.5, abs=5e-3)

        class Extremes(SplitMix64):
            def outputs(self, count):
                return np.array([0, 2**11 - 1, 2**64 - 1], dtype=np.uint64)[:count]

        # the top 53 bits, so the largest output maps to the float just below 1
        assert Extremes(0).uniform(size=3).tolist() == [0.0, 0.0, 1.0 - 2.0**-53]

    def test_normals_pair_cosines_then_sines(self):
        z = SplitMix64(3).normal(size=4)
        assert np.array_equal(SplitMix64(3).normal(size=3), z[:3])
        stream = SplitMix64(3)
        u, v = stream.uniform(size=2), stream.uniform(size=2)
        r = np.sqrt(-2.0 * np.log1p(-u))
        assert np.array_equal(z, np.concatenate([r * np.cos(2.0 * math.pi * v),
                                                 r * np.sin(2.0 * math.pi * v)]))
        big = SplitMix64(4).normal(size=(50_000, 2))
        assert np.mean(big) == pytest.approx(0.0, abs=0.01)
        assert np.var(big) == pytest.approx(1.0, abs=0.02)

    def test_unit_ball_sample_is_uniform(self):
        r = np.linalg.norm(sample_unit_ball(200_000, SplitMix64(2)), axis=1)
        assert r.max() <= 1.0
        assert np.mean(r**3) == pytest.approx(0.5, abs=5e-3)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValueError, match=rf"in \[0, 2\*\*64\), got {seed}"):
            SplitMix64(seed)
