import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dropsed import micro_sim
from dropsed.kernels import oseen_terms, stokes_drag_velocity
from dropsed.micro_sim import (
    CloudTrajectory,
    ParticleCloud,
    cloud_velocities,
    default_regularization,
    evolve_cloud,
    mean_settling_velocity,
    mean_velocity_formula,
    rescale_cloud,
    rescaled_velocities,
    uniform_ball_cloud,
)
from dropsed.patch_waves import SplitMix64, sample_unit_ball

import lab_frame_oracle
import tiled_sum_oracle
from continuum_field_oracle import continuum_velocity
from convergence import assert_order_in_band, successive_differences

E3 = np.array([0.0, 0.0, 1.0])
A = 1e-2  # particle radius


def two_particle_cloud(separation=E3):
    pos = np.stack([np.zeros(3), separation])
    return ParticleCloud(positions=pos, particle_radius=A, cloud_radius=1.0, delta=0.0)


class TestPairwiseVelocity:
    def test_single_particle_is_pure_drag(self):
        cloud = ParticleCloud(positions=np.zeros((1, 3)), particle_radius=A, cloud_radius=1.0)
        vel, clamps = cloud_velocities(cloud)
        assert np.array_equal(vel, [stokes_drag_velocity(A)]) and clamps == 0

    def test_two_particles_axial(self):
        cloud = two_particle_cloud()
        expected = stokes_drag_velocity(A) - E3 / (4.0 * math.pi)
        assert np.allclose(cloud_velocities(cloud)[0][0], expected, atol=1e-15)

    def test_matches_oseen_matrix_route(self, rng):
        pos = rng.normal(size=(6, 3))
        cloud = ParticleCloud(positions=pos, particle_radius=A, cloud_radius=2.0, delta=0.0)
        manual, _ = tensor_double_loop(pos, -E3, 1.0, 0.0)
        vel, _ = cloud_velocities(cloud)
        assert np.allclose(vel, stokes_drag_velocity(A) + manual, rtol=1e-12)

    def test_seven_particle_tiles_match_double_loop(self, rng, monkeypatch):
        # the pair sum is the response to e3; the unit force -e3 negates it
        monkeypatch.setattr(micro_sim, "_PAIR_TILE", 7)
        pos = rng.uniform(-1.0, 1.0, size=(40, 3))
        cloud = ParticleCloud(positions=pos, particle_radius=A, cloud_radius=1.0, delta=0.0)
        vel, _ = cloud_velocities(cloud)
        expected, _ = tensor_double_loop(pos, -E3, 1.0, 0.0)
        err = np.linalg.norm(vel - stokes_drag_velocity(A) - expected, axis=1)
        assert np.all(err <= 1e-12 * np.linalg.norm(expected, axis=1))

    def test_relabeling_invariance_sorted_reduction(self, rng):
        pos = rng.normal(size=(12, 3))
        perm = rng.permutation(12)
        a = ParticleCloud(positions=pos, particle_radius=A, cloud_radius=1.0, delta=0.0)
        b = ParticleCloud(positions=pos[perm], particle_radius=A, cloud_radius=1.0, delta=0.0)
        va, _ = cloud_velocities(a)
        vb, _ = cloud_velocities(b)
        drift = stokes_drag_velocity(A)
        ra = np.array(sorted(map(tuple, np.round(va - drift, 13))))
        rb = np.array(sorted(map(tuple, np.round(vb - drift, 13))))
        assert np.array_equal(ra, rb)

    def test_coincident_particles_rejected(self):
        bad = ParticleCloud(positions=np.zeros((2, 3)), particle_radius=A, cloud_radius=1.0, delta=0.0)
        with pytest.raises(ValueError, match="coincident"):
            cloud_velocities(bad)
        pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [1.0, 0.0, 0.0]])
        bad = ParticleCloud(positions=pos, particle_radius=A, cloud_radius=1.0, delta=0.0)
        with pytest.raises(ValueError, match="coincident particles 1 and 3"):
            cloud_velocities(bad)

    @pytest.mark.parametrize("delta", [-1e-3, np.nan, np.inf])
    def test_negative_or_non_finite_delta_rejected(self, delta):
        with pytest.raises(ValueError, match=f"delta must be finite and >= 0, got {delta}"):
            ParticleCloud(positions=np.zeros((1, 3)), particle_radius=A, cloud_radius=1.0, delta=delta)

    @pytest.mark.parametrize("radius", [math.inf, math.nan, 0.0, -1.0])
    def test_non_positive_or_non_finite_cloud_radius_rejected(self, radius):
        # an infinite radius would rescale every position to 0 and fail later
        # as coincident particles, far from its cause
        message = f"cloud_radius must be positive and finite, got {radius!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            ParticleCloud(positions=np.eye(3), particle_radius=A, cloud_radius=radius)

    @pytest.mark.parametrize("radius", [math.inf, math.nan, 0.0, -1.0])
    def test_bad_particle_radius_named(self, radius):
        # the radius sets the drag speed 1 / (6 pi a), which 0 or inf would make inf or 0
        message = f"particle_radius must be positive and finite, got {radius!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            ParticleCloud(positions=np.eye(3), particle_radius=radius, cloud_radius=1.0)

    @pytest.mark.parametrize("delta", [0.0, 0.05])
    def test_matches_cloud_velocities_row(self, rng, delta):
        # more particles than one pair-sum tile of the production size, and at
        # delta = 0.05 some pairs are clamped, so the sum must use the cloud's delta
        cloud = uniform_ball_cloud(450, 1.0, rng, particle_radius=A, delta=delta)
        rows, clamps = cloud_velocities(cloud)
        gaps = np.linalg.norm(cloud.positions[:, None] - cloud.positions[None], axis=2)
        np.fill_diagonal(gaps, np.inf)
        clamped = np.flatnonzero(gaps.min(axis=1) < delta)
        assert (clamps > 0) == (clamped.size > 0) == (delta > 0)
        drag = stokes_drag_velocity(A)
        for i in (0, 199, 200, 449, *clamped[:3]):
            expected = drag + oseen_row(cloud.positions, i, -E3, 1.0, delta)[0]
            assert np.max(np.abs(expected - rows[i])) <= 1e-12

    def test_clamp_counter_and_log(self, caplog):
        pos = np.stack([np.zeros(3), 1e-6 * E3])
        cloud = ParticleCloud(positions=pos, particle_radius=A, cloud_radius=1.0, delta=1e-3)
        with caplog.at_level(logging.INFO):
            _, clamps = cloud_velocities(cloud)
        assert clamps == 2  # both ordered pairs
        assert any("clamped" in rec.message for rec in caplog.records)
        # clamped interaction equals the interaction at distance delta
        far = ParticleCloud(positions=np.stack([np.zeros(3), 1e-3 * E3]),
                            particle_radius=A, cloud_radius=1.0, delta=1e-3)
        v_clamped, _ = cloud_velocities(cloud)
        v_far, _ = cloud_velocities(far)
        assert np.allclose(v_clamped, v_far, rtol=1e-12)


def oseen_row(pos, i, force, mu, delta):
    """Oracle: particle i's clamped Oseen sum and clamp count, one Oseen matrix per pair."""
    total, clamps = np.zeros(3), 0
    for j in range(len(pos)):
        if j == i:
            continue
        d = pos[i] - pos[j]
        if np.linalg.norm(d) < delta:
            d = d * (delta / np.linalg.norm(d))
            clamps += 1
        r = np.linalg.norm(d)
        # the Oseen tensor U(d) = (I / r + d d^T / r^3) / (8 pi mu)
        total += (np.eye(3) / r + np.outer(d, d) / r**3) @ force / (8.0 * math.pi * mu)
    return total, clamps


def tensor_double_loop(pos, force, mu, delta):
    """Oracle: the clamped Oseen sum over ordered pairs, row by row."""
    rows = [oseen_row(pos, i, force, mu, delta) for i in range(len(pos))]
    return np.array([v for v, _ in rows]), sum(c for _, c in rows)


class TestTiledPairSum:
    """The pair sum run over several tiles (a shrunken tile keeps N small)."""

    def test_matches_tensor_double_loop(self, rng, monkeypatch):
        n, tile, delta = 40, 7, 1e-3
        monkeypatch.setattr(micro_sim, "_PAIR_TILE", tile)
        pos = rng.uniform(-1.0, 1.0, size=(n, 3))
        # a clamped pair straddling the boundary between tiles 0 and 1
        pos[tile] = pos[tile - 1] + 0.3 * delta * np.array([0.6, 0.0, 0.8])
        vel, clamps = micro_sim._interaction_sum(pos, delta)
        expected, expected_clamps = tensor_double_loop(pos, E3, 1.0, delta)
        assert clamps == expected_clamps == 2
        err = np.linalg.norm(vel - expected, axis=1)
        assert np.all(err <= 1e-12 * np.linalg.norm(expected, axis=1))

    @pytest.mark.parametrize("n, tile", [(40, 7), (35, 7), (5, 9), (9, 9), (1, 9)],
                             ids=["ragged", "whole-tiles", "n-below-tile", "one-tile", "n-1"])
    def test_tile_layouts_match_double_loop(self, rng, monkeypatch, n, tile):
        monkeypatch.setattr(micro_sim, "_PAIR_TILE", tile)
        pos = rng.uniform(-1.0, 1.0, size=(n, 3))
        vel, clamps = micro_sim._interaction_sum(pos, 0.0)
        expected, _ = tensor_double_loop(pos, E3, 1.0, 0.0)
        assert vel.shape == (n, 3) and clamps == 0
        err = np.linalg.norm(vel - expected, axis=1)
        assert np.all(err <= 1e-12 * np.linalg.norm(expected, axis=1))

    def test_clamped_pair_across_tiles_counts_both_ordered_pairs(self, rng, monkeypatch):
        n, tile, delta = 40, 7, 1e-3
        monkeypatch.setattr(micro_sim, "_PAIR_TILE", tile)
        pos = rng.uniform(-1.0, 1.0, size=(n, 3))
        pos[30] = pos[2] + 0.5 * delta * np.array([0.0, 0.6, -0.8])  # tiles 0 and 4
        vel, clamps = micro_sim._interaction_sum(pos, delta)
        expected, expected_clamps = tensor_double_loop(pos, E3, 1.0, delta)
        assert clamps == expected_clamps == 2
        err = np.linalg.norm(vel - expected, axis=1)
        assert np.all(err <= 1e-12 * np.linalg.norm(expected, axis=1))

    def test_coincident_pair_in_later_tile_reports_global_indices(self, rng, monkeypatch):
        n, tile = 20, 5
        monkeypatch.setattr(micro_sim, "_PAIR_TILE", tile)
        pos = rng.uniform(-1.0, 1.0, size=(n, 3))
        pos[8] = pos[6]  # both particles fall in the diagonal tile of block 1 (5..9)
        with pytest.raises(ValueError, match="coincident particles 6 and 8"):
            micro_sim._interaction_sum(pos, 0.0)

    def test_coincident_pair_in_off_diagonal_tile_reports_global_indices(self, rng, monkeypatch):
        monkeypatch.setattr(micro_sim, "_PAIR_TILE", 7)
        pos = rng.uniform(-1.0, 1.0, size=(40, 3))
        pos[30] = pos[2]  # tiles 0 and 4
        with pytest.raises(ValueError, match="coincident particles 2 and 30"):
            micro_sim._interaction_sum(pos, 1e-3)

    @given(n=st.integers(1, 40), tile=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
           delta=st.floats(0.0, 0.5))
    @settings(max_examples=40, deadline=None)
    def test_random_tilings_match_double_loop(self, n, tile, seed, delta):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(-1.0, 1.0, size=(n, 3))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(micro_sim, "_PAIR_TILE", tile)
            vel, clamps = micro_sim._interaction_sum(pos, delta)
        expected, expected_clamps = tensor_double_loop(pos, E3, 1.0, delta)
        assert clamps == expected_clamps
        assert np.linalg.norm(vel - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_unit_cloud_is_the_unit_ball_sample(self):
        cloud = uniform_ball_cloud(300, 1.0, np.random.default_rng(11), particle_radius=A)
        assert np.array_equal(cloud.positions, sample_unit_ball(300, np.random.default_rng(11)))


class TestAgainstSubtractTiles:
    """The product planes and BLAS sums against the subtract-and-np.sum tiles they replaced."""

    @pytest.mark.parametrize("cloud, delta, clamp_count", [
        ((1200, 0), default_regularization(1.0, 1200), 0),
        ((30, 3), 0.3, 16),
        # r2 is the float below fl(0.09) but sqrt(r2) = 0.3: the clamp's test counts none
        ([[0.0, 0.0, 0.0], [5e-9, 0.0, math.nextafter(0.3, 0.0)]], 0.3, 0),
        # delta^2 is subnormal and rounds down: a pair delta apart has sqrt(r2) < delta
        ([[0.0, 0.0, 0.0], [0.0, 0.0, 1.2000000000000018e-154]], 1.2000000000000018e-154, 2),
    ], ids=["N-1200", "N-30-clamped", "r2-below-fl-delta-squared", "subnormal-delta-squared"])
    def test_matches_subtract_oracle(self, cloud, delta, clamp_count):
        pos = (sample_unit_ball(cloud[0], np.random.default_rng(cloud[1]))
               if isinstance(cloud, tuple) else np.array(cloud))
        vel, clamps = micro_sim._interaction_sum(pos, delta)
        expected, expected_clamps = tiled_sum_oracle.interaction_sum(pos, delta)
        assert clamps == expected_clamps == clamp_count
        err = np.linalg.norm(vel - expected, axis=1)
        assert np.all(err <= 1e-14 * np.linalg.norm(expected, axis=1))

    def test_product_planes_equal_subtraction(self):
        rng = np.random.default_rng(5)
        n = 47
        pos = rng.choice([-1.0, 1.0], size=(n, 3)) * 10.0 ** rng.uniform(-150.0, 150.0, (n, 3))
        pos[rng.random((n, 3)) < 0.2] = 0.0
        pos[rng.random((n, 3)) < 0.2] = -0.0
        pos[:4] = [[0.0, -0.0, 1e-150], [-0.0, 0.0, -1e150], [1e150, -1e-150, 0.0],
                   [-1e-150, 1e150, -0.0]]
        left, right = micro_sim._separation_factors(pos)
        x = pos.T
        for i0, i1, j0, j1 in [(0, 47, 0, 47), (0, 13, 13, 26), (39, 47, 13, 47), (5, 6, 0, 47),
                               (20, 33, 40, 47), (0, 4, 0, 4)]:
            d = np.empty((3, i1 - i0, j1 - j0))
            np.matmul(left[:, i0:i1], right[:, :, j0:j1], out=d)
            sub = np.subtract(x[:, i0:i1, None], x[:, None, j0:j1])
            assert np.array_equal(d, sub)
            # bit for bit once -0.0 is folded into +0.0, the sign a BLAS may drop
            assert np.array_equal((d + 0.0).view(np.int64), (sub + 0.0).view(np.int64))


class TestClampSkip:
    """Tiles with no pair inside delta skip the clamp pass without changing a bit."""

    def test_seed_0_cloud_sum_equals_the_unclamped_sum(self):
        pos = sample_unit_ball(1200, np.random.default_rng(0))
        vel, clamps = micro_sim._interaction_sum(pos, default_regularization(1.0, 1200))
        free, _ = micro_sim._interaction_sum(pos, 0.0)
        assert clamps == 0
        assert np.array_equal(vel.view(np.int64), free.view(np.int64))

    def test_only_the_tile_with_a_close_pair_clamps(self, rng, monkeypatch):
        n, tile, delta = 40, 7, 1e-3
        monkeypatch.setattr(micro_sim, "_PAIR_TILE", tile)
        pos = rng.uniform(-1.0, 1.0, size=(n, 3))
        pos[30] = pos[2] + 0.5 * delta * np.array([0.0, 0.6, -0.8])  # tiles 0 and 4
        passed = []

        def recording(d, r2, delta, inv_r, coef):
            passed.append(delta)
            oseen_terms(d, r2, delta, inv_r, coef)

        monkeypatch.setattr(micro_sim, "oseen_terms", recording)
        _, clamps = micro_sim._interaction_sum(pos, delta)
        # 6 blocks give 21 tiles, (0, 0) .. (0, 5) first, so tile (0, 4) is the fifth
        assert clamps == 2
        assert passed == [delta if k == 4 else 0.0 for k in range(21)]

    def test_skip_tests_r_not_r2(self):
        # delta^2 is subnormal and rounds down, so a pair exactly delta apart has
        # r2 = fl(delta^2) and sqrt(r2) < delta, which the clamp raises to delta
        # and the count counts; a test of r2 against delta * delta would skip
        # that clamp and not count it
        delta = 1.2000000000000018e-154
        assert math.sqrt(delta * delta) < delta
        pos = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, delta]])
        vel, clamps = micro_sim._interaction_sum(pos, delta)
        d = np.array([[0.0, 0.0], [0.0, 0.0], [-delta, delta]])
        inv_r, coef = np.empty(2), np.empty(2)
        oseen_terms(d, d[2] * d[2], delta, inv_r, coef)
        expected = (d * coef).T
        expected[:, 2] += inv_r
        assert clamps == 2
        assert np.array_equal(vel, expected)
        assert not np.array_equal(vel, micro_sim._interaction_sum(pos, 0.0)[0])

    def test_count_takes_the_clamps_test_below_fl_delta_squared(self):
        # r2 is the float below fl(0.09) but sqrt(r2) rounds to 0.3, so the
        # clamp changes nothing and nothing is counted, though r2 < 0.3 * 0.3
        delta = 0.3
        pos = np.array([[0.0, 0.0, 0.0], [5e-9, 0.0, math.nextafter(delta, 0.0)]])
        r2 = pos[1] @ pos[1]
        assert r2 == math.nextafter(delta * delta, 0.0) and math.sqrt(r2) == delta
        vel, clamps = micro_sim._interaction_sum(pos, delta)
        assert clamps == 0
        assert np.array_equal(vel, micro_sim._interaction_sum(pos, 0.0)[0])


class TestMeanVelocity:
    def test_single_particle(self):
        cloud = ParticleCloud(positions=np.zeros((1, 3)), particle_radius=A, cloud_radius=1.0)
        assert np.allclose(mean_settling_velocity(cloud), stokes_drag_velocity(A))

    def test_formula_confirmed_at_large_n(self, rng):
        cloud = uniform_ball_cloud(2000, 1.0, rng, particle_radius=A)
        measured = mean_settling_velocity(cloud)
        predicted = mean_velocity_formula(cloud)
        assert abs(measured[2] - predicted[2]) / abs(predicted[2]) < 0.05

    def test_formula_confirmed_for_a_radius_two_cloud(self):
        # criterion 9's 5% at R0 = 2; seeds 0-9 are within 0.05-0.79%
        cloud = uniform_ball_cloud(2000, 2.0, np.random.default_rng(0), particle_radius=A)
        measured = mean_settling_velocity(cloud)
        predicted = mean_velocity_formula(cloud)
        assert abs(measured[2] - predicted[2]) / abs(predicted[2]) < 0.05

    def test_formula_error_decreases_with_n(self):
        rel_errors = []
        for n in (250, 1000, 4000):
            errs = []
            for seed in range(5):
                cloud = uniform_ball_cloud(n, 1.0, np.random.default_rng(seed), particle_radius=A)
                m = mean_settling_velocity(cloud)
                f = mean_velocity_formula(cloud)
                errs.append(abs(m[2] - f[2]) / abs(f[2]))
            rel_errors.append(np.mean(errs))
        assert rel_errors[2] < rel_errors[0]

    def test_double_integral_constant_monte_carlo(self, rng):
        # mean of the Oseen response over independent uniform ball pairs
        n = 1_000_000
        def ball(k):
            v = rng.normal(size=(k, 3))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            return v * rng.uniform(size=(k, 1)) ** (1 / 3)
        dx = ball(n) - ball(n)
        r = np.linalg.norm(dx, axis=1)
        f = -E3
        vals = (f[None, :] / r[:, None] + dx * ((dx @ f) / r**3)[:, None]) / (8 * math.pi)
        estimate = vals.mean(axis=0)
        assert abs(estimate[2] - (-1.0 / (5.0 * math.pi))) / (1.0 / (5.0 * math.pi)) < 0.02


class TestRescaling:
    def test_rescaled_cloud_fits_unit_ball(self, rng):
        cloud = uniform_ball_cloud(200, 3.5, rng, particle_radius=A)
        rescaled, scale = rescale_cloud(cloud)
        assert np.all(np.linalg.norm(rescaled.positions, axis=1) <= 1.0 + 1e-12)
        assert scale == pytest.approx(199 * 1.0 / (5 * math.pi * 1.0 * 3.5), rel=1e-12)

    def test_two_particle_prefactor(self):
        pos = np.stack([np.zeros(3), 0.5 * E3])
        v, _ = rescaled_velocities(pos, delta=0.0)
        # N = 2: velocity of particle 0 is -(5/8) K(x0 - x1) e3
        d = -0.5 * E3
        k = (np.eye(3) / 0.5 + np.outer(d, d) / 0.5**3)
        assert np.allclose(v[0], -(5.0 / 8.0) * k @ E3, rtol=1e-12)

    def test_rescaled_mean_fall_speed_near_unity(self, rng):
        cloud = uniform_ball_cloud(2000, 1.0, rng, particle_radius=A)
        rescaled, _ = rescale_cloud(cloud)
        v, _ = rescaled_velocities(rescaled.positions, rescaled.delta)
        mean = v.mean(axis=0)
        assert abs(np.linalg.norm(mean) - 1.0) < 0.05
        assert mean[2] < 0.0

    def test_single_particle_is_stationary(self):
        v, clamps = rescaled_velocities(np.zeros((1, 3)), delta=0.0)
        assert np.all(v == 0.0) and clamps == 0

    def test_similarity_of_a_scaled_cloud_is_exact(self):
        # the cloud doubled, with its radius and delta, rescales to the same
        # unit cloud bit for bit, at half the velocity scale (N - 1) / (5 pi R0)
        cloud = uniform_ball_cloud(300, 1.0, np.random.default_rng(0), particle_radius=A)
        doubled = ParticleCloud(positions=2.0 * cloud.positions, particle_radius=A,
                                cloud_radius=2.0, delta=2.0 * cloud.delta)
        (unit, scale), (unit2, scale2) = rescale_cloud(cloud), rescale_cloud(doubled)
        assert np.array_equal(unit2.positions, unit.positions) and unit2.delta == unit.delta
        assert scale2 == scale / 2.0


class TestContinuumField:
    def test_mean_over_the_ball_is_the_rescaled_wave_speed(self):
        # Gauss rules in r (weight r^2) and cos(theta), even angles in phi: exact for u
        t, w = np.polynomial.legendre.leggauss(4)
        r, wr = 0.5 * (t + 1.0), 0.5 * w * (0.5 * (t + 1.0)) ** 2
        phi = np.arange(8) * (np.pi / 4.0)
        rr, mu, ph = (a.ravel() for a in np.meshgrid(r, t, phi, indexing="ij"))
        weight = np.einsum("i,j,k->ijk", wr, w, np.full(8, np.pi / 4.0)).ravel()
        s = np.sqrt(1.0 - mu * mu)
        x = rr[:, None] * np.stack([s * np.cos(ph), s * np.sin(ph), mu], axis=1)
        assert weight.sum() == pytest.approx(4.0 * np.pi / 3.0, rel=1e-15)
        mean = weight @ continuum_velocity(x) / weight.sum()
        assert np.max(np.abs(mean + E3)) <= 1e-15

    def test_boundary_moves_with_the_wave(self, rng):
        x = rng.normal(size=(100, 3))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        normal = np.sum(continuum_velocity(x) * x, axis=1)
        assert np.max(np.abs(normal + x[:, 2])) <= 1e-15

    def test_rescaled_cloud_matches_the_field(self):
        # the gap to the field is sampling noise: RMS * sqrt(N) was 0.70-1.13 on seeds 0-9
        n = 2000
        cloud = uniform_ball_cloud(n, 1.0, np.random.default_rng(0), particle_radius=A)
        rescaled, _ = rescale_cloud(cloud)
        v, _ = rescaled_velocities(rescaled.positions, rescaled.delta)
        gap = v - continuum_velocity(rescaled.positions)
        assert np.sqrt(np.mean(np.sum(gap * gap, axis=1)) * n) <= 1.5


    def test_cli_clouds_match_the_field(self):
        # the SplitMix64 clouds of the CLI are uniform balls too: RMS * sqrt(N)
        # was 0.67-1.16 on seeds 0-9
        n = 2000
        for seed in range(10):
            cloud = uniform_ball_cloud(n, 1.0, SplitMix64(seed), particle_radius=A)
            v, _ = rescaled_velocities(cloud.positions, cloud.delta)
            gap = v - continuum_velocity(cloud.positions)
            assert np.sqrt(np.mean(np.sum(gap * gap, axis=1)) * n) <= 1.5, seed


class TestEvolveCloud:
    def test_snapshot_every_must_be_whole_steps(self):
        cloud = ParticleCloud(positions=np.array([[0.2, -0.1, 0.4]]), particle_radius=A,
                              cloud_radius=1.0)
        with pytest.raises(ValueError, match=r"snapshot_every=0\.015 .*dt=0\.01"):
            evolve_cloud(cloud, 0.06, 0.01, snapshot_every=0.015)
        traj = evolve_cloud(cloud, 0.06, 0.01, snapshot_every=0.02)
        assert traj.times == pytest.approx([0.0, 0.02, 0.04, 0.06], abs=1e-12)

    def test_antipodal_pair_mirror_symmetry(self):
        pos = np.array([[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]])
        cloud = ParticleCloud(positions=pos, particle_radius=A, cloud_radius=1.0,
                              delta=default_regularization(1.0, 2))
        traj = evolve_cloud(cloud, T=2.0, dt=0.01, snapshot_every=0.5)
        for snap in traj.positions:
            assert abs(snap[0, 2] - snap[1, 2]) < 1e-12
            assert abs(snap[0, 0] + snap[1, 0]) < 1e-12

    def test_translation_equivariance(self, rng):
        pos = rng.normal(size=(8, 3)) * 0.3
        shift = np.array([1.0, -2.0, 0.5])
        c1 = ParticleCloud(positions=pos, particle_radius=A, cloud_radius=1.0, delta=1e-4)
        c2 = ParticleCloud(positions=pos + shift, particle_radius=A, cloud_radius=1.0, delta=1e-4)
        t1 = evolve_cloud(c1, T=0.5, dt=0.05)
        t2 = evolve_cloud(c2, T=0.5, dt=0.05)
        assert np.allclose(t2.positions[-1], t1.positions[-1] + shift, atol=1e-10)

    def test_center_of_mass_falls_at_mean_speed(self, rng):
        cloud = uniform_ball_cloud(500, 1.0, rng, particle_radius=A)
        rescaled, _ = rescale_cloud(cloud)
        v0, _ = rescaled_velocities(rescaled.positions, rescaled.delta)
        traj = evolve_cloud(rescaled, T=0.5, dt=0.025)
        drop = traj.positions[-1][:, 2].mean() - traj.positions[0][:, 2].mean()
        assert drop == pytest.approx(v0.mean(axis=0)[2] * 0.5, rel=0.1)

    @pytest.mark.parametrize("frame", ["lab", "drift_subtracted"])
    def test_frames_match_physical_oracle(self, frame):
        # the rescaled run y mapped by x(t) = R0 y(s t / R0) + U_S t, with U_S
        # in the lab frame only, against a direct integration of drag plus
        # interactions (lab) or of interactions alone (drift subtracted)
        cloud = uniform_ball_cloud(300, 1.0, SplitMix64(3), particle_radius=A)
        rescaled, s = rescale_cloud(cloud)
        clock = s / cloud.cloud_radius
        traj = evolve_cloud(rescaled, clock * 0.2, clock * 0.01, snapshot_every=clock * 0.05)
        snaps, clamps = lab_frame_oracle.evolve_physical(cloud, 20, 0.01, lab=frame == "lab")
        drift = stokes_drag_velocity(A) if frame == "lab" else np.zeros(3)
        assert traj.clamp_events == clamps
        expected = [cloud.positions, *snaps[4::5]]
        for k, (y, x) in enumerate(zip(traj.positions, expected, strict=True)):
            mapped = cloud.cloud_radius * y + (k * 0.05) * drift
            assert np.max(np.abs(mapped - x)) <= 1e-13

    def test_midpoint_rule_is_second_order(self):
        # observed 1.998 / 1.999 on this ladder; the band leaves about 0.1 each side
        cloud, _ = rescale_cloud(uniform_ball_cloud(300, 1.0, np.random.default_rng(0),
                                                   particle_radius=A))
        dts = [0.04, 0.02, 0.01, 0.005]
        finals = [evolve_cloud(cloud, 0.4, dt).positions[-1] for dt in dts]
        assert_order_in_band(dts[:-1], successive_differences(finals), 1.9, 2.1)

    def test_trajectory_moments(self, rng):
        cloud = uniform_ball_cloud(50, 1.0, rng, particle_radius=A)
        traj = evolve_cloud(cloud, T=0.2, dt=0.1)
        assert isinstance(traj, CloudTrajectory)
        centers = np.array([p.mean(axis=0) for p in traj.positions])
        assert centers.shape == (len(traj.times), 3) and np.all(np.isfinite(centers))
        assert all(p[:, 2].max() > p[:, 2].min() for p in traj.positions)
