import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dropsed import micro_sim
from dropsed.kernels import FluidParams, stokes_drag_velocity
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
from dropsed.patch_waves import sample_unit_ball

E3 = np.array([0.0, 0.0, 1.0])
PARAMS = FluidParams(mu=1.0, force=-E3, radius=1e-2)


def two_particle_cloud(separation=E3):
    pos = np.stack([np.zeros(3), separation])
    return ParticleCloud(positions=pos, params=PARAMS, cloud_radius=1.0, delta=0.0)


class TestPairwiseVelocity:
    def test_single_particle_is_pure_drag(self):
        cloud = ParticleCloud(positions=np.zeros((1, 3)), params=PARAMS, cloud_radius=1.0)
        vel, clamps = cloud_velocities(cloud)
        assert np.array_equal(vel, [stokes_drag_velocity(PARAMS)]) and clamps == 0

    def test_two_particles_axial(self):
        cloud = two_particle_cloud()
        expected = stokes_drag_velocity(PARAMS) - E3 / (4.0 * math.pi)
        assert np.allclose(cloud_velocities(cloud)[0][0], expected, atol=1e-15)

    def test_matches_oseen_matrix_route(self, rng):
        pos = rng.normal(size=(6, 3))
        cloud = ParticleCloud(positions=pos, params=PARAMS, cloud_radius=2.0, delta=0.0)
        manual, _ = tensor_double_loop(pos, PARAMS.force, PARAMS.mu, 0.0)
        vel, _ = cloud_velocities(cloud)
        assert np.allclose(vel, stokes_drag_velocity(PARAMS) + manual, rtol=1e-12)

    def test_relabeling_invariance_sorted_reduction(self, rng):
        pos = rng.normal(size=(12, 3))
        perm = rng.permutation(12)
        a = ParticleCloud(positions=pos, params=PARAMS, cloud_radius=1.0, delta=0.0)
        b = ParticleCloud(positions=pos[perm], params=PARAMS, cloud_radius=1.0, delta=0.0)
        va, _ = cloud_velocities(a)
        vb, _ = cloud_velocities(b)
        drift = stokes_drag_velocity(PARAMS)
        ra = np.array(sorted(map(tuple, np.round(va - drift, 13))))
        rb = np.array(sorted(map(tuple, np.round(vb - drift, 13))))
        assert np.array_equal(ra, rb)

    def test_coincident_particles_rejected(self):
        bad = ParticleCloud(positions=np.zeros((2, 3)), params=PARAMS, cloud_radius=1.0, delta=0.0)
        with pytest.raises(ValueError, match="coincident"):
            cloud_velocities(bad)
        pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [1.0, 0.0, 0.0]])
        bad = ParticleCloud(positions=pos, params=PARAMS, cloud_radius=1.0, delta=0.0)
        with pytest.raises(ValueError, match="coincident particles 1 and 3"):
            cloud_velocities(bad)

    @pytest.mark.parametrize("delta", [-1e-3, np.nan, np.inf])
    def test_negative_or_non_finite_delta_rejected(self, delta):
        with pytest.raises(ValueError, match=f"delta must be finite and >= 0, got {delta}"):
            ParticleCloud(positions=np.zeros((1, 3)), params=PARAMS, cloud_radius=1.0, delta=delta)

    @pytest.mark.parametrize("delta", [0.0, 0.05])
    def test_matches_cloud_velocities_row(self, rng, delta):
        # more particles than one pair-sum tile of the production size, and at
        # delta = 0.05 some pairs are clamped, so the sum must use the cloud's delta
        cloud = uniform_ball_cloud(450, PARAMS, 1.0, rng, delta=delta)
        rows, clamps = cloud_velocities(cloud)
        gaps = np.linalg.norm(cloud.positions[:, None] - cloud.positions[None], axis=2)
        np.fill_diagonal(gaps, np.inf)
        clamped = np.flatnonzero(gaps.min(axis=1) < delta)
        assert (clamps > 0) == (clamped.size > 0) == (delta > 0)
        drag = stokes_drag_velocity(PARAMS)
        for i in (0, 199, 200, 449, *clamped[:3]):
            expected = drag + oseen_row(cloud.positions, i, PARAMS.force, PARAMS.mu, delta)[0]
            assert np.max(np.abs(expected - rows[i])) <= 1e-12

    def test_clamp_counter_and_log(self, caplog):
        pos = np.stack([np.zeros(3), 1e-6 * E3])
        cloud = ParticleCloud(positions=pos, params=PARAMS, cloud_radius=1.0, delta=1e-3)
        with caplog.at_level(logging.INFO):
            _, clamps = cloud_velocities(cloud)
        assert clamps == 2  # both ordered pairs
        assert any("clamped" in rec.message for rec in caplog.records)
        # clamped interaction equals the interaction at distance delta
        far = ParticleCloud(positions=np.stack([np.zeros(3), 1e-3 * E3]),
                            params=PARAMS, cloud_radius=1.0, delta=1e-3)
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
        n, tile, delta, mu = 40, 7, 1e-3, 0.7
        monkeypatch.setattr(micro_sim, "_PAIR_TILE", tile)
        pos = rng.uniform(-1.0, 1.0, size=(n, 3))
        # a clamped pair straddling the boundary between tiles 0 and 1
        pos[tile] = pos[tile - 1] + 0.3 * delta * np.array([0.6, 0.0, 0.8])
        force = np.array([0.3, -1.2, 0.7])
        vel, clamps = micro_sim._interaction_sum(pos, force, mu, delta)
        expected, expected_clamps = tensor_double_loop(pos, force, mu, delta)
        assert clamps == expected_clamps == 2
        err = np.linalg.norm(vel - expected, axis=1)
        assert np.all(err <= 1e-12 * np.linalg.norm(expected, axis=1))

    @pytest.mark.parametrize("n, tile", [(40, 7), (35, 7), (5, 9), (9, 9), (1, 9)],
                             ids=["ragged", "whole-tiles", "n-below-tile", "one-tile", "n-1"])
    def test_tile_layouts_match_double_loop(self, rng, monkeypatch, n, tile):
        monkeypatch.setattr(micro_sim, "_PAIR_TILE", tile)
        pos = rng.uniform(-1.0, 1.0, size=(n, 3))
        force = np.array([0.3, -1.2, 0.7])
        vel, clamps = micro_sim._interaction_sum(pos, force, 0.7, 0.0)
        expected, _ = tensor_double_loop(pos, force, 0.7, 0.0)
        assert vel.shape == (n, 3) and clamps == 0
        err = np.linalg.norm(vel - expected, axis=1)
        assert np.all(err <= 1e-12 * np.linalg.norm(expected, axis=1))

    def test_clamped_pair_across_tiles_counts_both_ordered_pairs(self, rng, monkeypatch):
        n, tile, delta = 40, 7, 1e-3
        monkeypatch.setattr(micro_sim, "_PAIR_TILE", tile)
        pos = rng.uniform(-1.0, 1.0, size=(n, 3))
        pos[30] = pos[2] + 0.5 * delta * np.array([0.0, 0.6, -0.8])  # tiles 0 and 4
        vel, clamps = micro_sim._interaction_sum(pos, -E3, 1.0, delta)
        expected, expected_clamps = tensor_double_loop(pos, -E3, 1.0, delta)
        assert clamps == expected_clamps == 2
        err = np.linalg.norm(vel - expected, axis=1)
        assert np.all(err <= 1e-12 * np.linalg.norm(expected, axis=1))

    def test_coincident_pair_in_later_tile_reports_global_indices(self, rng, monkeypatch):
        n, tile = 20, 5
        monkeypatch.setattr(micro_sim, "_PAIR_TILE", tile)
        pos = rng.uniform(-1.0, 1.0, size=(n, 3))
        pos[8] = pos[6]  # both particles fall in the diagonal tile of block 1 (5..9)
        with pytest.raises(ValueError, match="coincident particles 6 and 8"):
            micro_sim._interaction_sum(pos, -E3, 1.0, 0.0)

    def test_coincident_pair_in_off_diagonal_tile_reports_global_indices(self, rng, monkeypatch):
        monkeypatch.setattr(micro_sim, "_PAIR_TILE", 7)
        pos = rng.uniform(-1.0, 1.0, size=(40, 3))
        pos[30] = pos[2]  # tiles 0 and 4
        with pytest.raises(ValueError, match="coincident particles 2 and 30"):
            micro_sim._interaction_sum(pos, -E3, 1.0, 1e-3)

    @given(n=st.integers(1, 40), tile=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
           delta=st.floats(0.0, 0.5))
    @settings(max_examples=40, deadline=None)
    def test_random_tilings_match_double_loop(self, n, tile, seed, delta):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(-1.0, 1.0, size=(n, 3))
        force = rng.normal(size=3)
        mu = rng.uniform(0.5, 2.0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(micro_sim, "_PAIR_TILE", tile)
            vel, clamps = micro_sim._interaction_sum(pos, force, mu, delta)
        expected, expected_clamps = tensor_double_loop(pos, force, mu, delta)
        assert clamps == expected_clamps
        assert np.linalg.norm(vel - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_unit_cloud_is_the_unit_ball_sample(self):
        cloud = uniform_ball_cloud(300, PARAMS, 1.0, np.random.default_rng(11))
        assert np.array_equal(cloud.positions, sample_unit_ball(300, np.random.default_rng(11)))


class TestMeanVelocity:
    def test_single_particle(self):
        cloud = ParticleCloud(positions=np.zeros((1, 3)), params=PARAMS, cloud_radius=1.0)
        assert np.allclose(mean_settling_velocity(cloud), stokes_drag_velocity(PARAMS))

    def test_formula_confirmed_at_large_n(self, rng):
        cloud = uniform_ball_cloud(2000, PARAMS, 1.0, rng)
        measured = mean_settling_velocity(cloud)
        predicted = mean_velocity_formula(cloud)
        assert abs(measured[2] - predicted[2]) / abs(predicted[2]) < 0.05

    def test_formula_error_decreases_with_n(self):
        rel_errors = []
        for n in (250, 1000, 4000):
            errs = []
            for seed in range(5):
                cloud = uniform_ball_cloud(n, PARAMS, 1.0, np.random.default_rng(seed))
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
        cloud = uniform_ball_cloud(200, PARAMS, 3.5, rng)
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
        cloud = uniform_ball_cloud(2000, PARAMS, 1.0, rng)
        rescaled, _ = rescale_cloud(cloud)
        v, _ = rescaled_velocities(rescaled.positions, rescaled.delta)
        mean = v.mean(axis=0)
        assert abs(np.linalg.norm(mean) - 1.0) < 0.05
        assert mean[2] < 0.0

    def test_single_particle_is_stationary(self):
        v, clamps = rescaled_velocities(np.zeros((1, 3)), delta=0.0)
        assert np.all(v == 0.0) and clamps == 0

    @pytest.mark.parametrize("force", [E3, np.array([1.0, 0.0, 0.0]), np.array([0.0, 1e-9, -1.0])])
    def test_force_off_minus_e3_rejected(self, rng, force):
        # the rescaled dynamics always drives along -e3, whatever the force
        params = FluidParams(mu=1.0, force=force, radius=1e-2)
        cloud = uniform_ball_cloud(20, params, 1.0, rng)
        named = re.escape(str(force.tolist()))
        with pytest.raises(ValueError, match=named):
            rescale_cloud(cloud)
        with pytest.raises(ValueError, match=named):
            evolve_cloud(cloud, T=0.1, dt=0.05, frame="rescaled")
        evolve_cloud(cloud, T=0.1, dt=0.05, frame="drift_subtracted")
        strong = uniform_ball_cloud(20, FluidParams(mu=1.0, force=-2.0 * E3, radius=1e-2), 1.0, rng)
        assert rescale_cloud(strong)[1] == pytest.approx(19 * 2.0 / (5 * math.pi), rel=1e-12)


class TestEvolveCloud:
    def test_single_particle_straight_fall_lab_frame(self):
        cloud = ParticleCloud(positions=np.array([[0.2, -0.1, 0.4]]), params=PARAMS,
                              cloud_radius=1.0)
        traj = evolve_cloud(cloud, T=1.0, dt=0.1, frame="lab", snapshot_every=0.5)
        drift = stokes_drag_velocity(PARAMS)
        for t, pos in zip(traj.times, traj.positions):
            assert np.allclose(pos[0], cloud.positions[0] + t * drift, atol=1e-14)

    def test_snapshot_every_must_be_whole_steps(self):
        cloud = ParticleCloud(positions=np.array([[0.2, -0.1, 0.4]]), params=PARAMS,
                              cloud_radius=1.0)
        with pytest.raises(ValueError, match=r"snapshot_every=0\.015 .*dt=0\.01"):
            evolve_cloud(cloud, 0.06, 0.01, frame="lab", snapshot_every=0.015)
        traj = evolve_cloud(cloud, 0.06, 0.01, frame="lab", snapshot_every=0.02)
        assert traj.times == pytest.approx([0.0, 0.02, 0.04, 0.06], abs=1e-12)

    def test_antipodal_pair_mirror_symmetry(self):
        pos = np.array([[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]])
        cloud = ParticleCloud(positions=pos, params=PARAMS, cloud_radius=1.0,
                              delta=default_regularization(1.0, 2))
        traj = evolve_cloud(cloud, T=2.0, dt=0.01, frame="rescaled", snapshot_every=0.5)
        for snap in traj.positions:
            assert abs(snap[0, 2] - snap[1, 2]) < 1e-12
            assert abs(snap[0, 0] + snap[1, 0]) < 1e-12

    def test_translation_equivariance(self, rng):
        pos = rng.normal(size=(8, 3)) * 0.3
        shift = np.array([1.0, -2.0, 0.5])
        c1 = ParticleCloud(positions=pos, params=PARAMS, cloud_radius=1.0, delta=1e-4)
        c2 = ParticleCloud(positions=pos + shift, params=PARAMS, cloud_radius=1.0, delta=1e-4)
        t1 = evolve_cloud(c1, T=0.5, dt=0.05, frame="rescaled")
        t2 = evolve_cloud(c2, T=0.5, dt=0.05, frame="rescaled")
        assert np.allclose(t2.positions[-1], t1.positions[-1] + shift, atol=1e-10)

    def test_center_of_mass_falls_at_mean_speed(self, rng):
        cloud = uniform_ball_cloud(500, PARAMS, 1.0, rng)
        rescaled, _ = rescale_cloud(cloud)
        v0, _ = rescaled_velocities(rescaled.positions, rescaled.delta)
        traj = evolve_cloud(rescaled, T=0.5, dt=0.025, frame="rescaled")
        drop = traj.positions[-1][:, 2].mean() - traj.positions[0][:, 2].mean()
        assert drop == pytest.approx(v0.mean(axis=0)[2] * 0.5, rel=0.1)

    def test_drift_subtracted_frame(self):
        cloud = two_particle_cloud()
        traj_lab = evolve_cloud(cloud, T=0.2, dt=0.1, frame="lab")
        traj_rel = evolve_cloud(cloud, T=0.2, dt=0.1, frame="drift_subtracted")
        drift = stokes_drag_velocity(PARAMS)
        assert np.allclose(traj_lab.positions[-1], traj_rel.positions[-1] + 0.2 * drift,
                           atol=1e-12)

    def test_trajectory_moments(self, rng):
        cloud = uniform_ball_cloud(50, PARAMS, 1.0, rng)
        traj = evolve_cloud(cloud, T=0.2, dt=0.1, frame="rescaled")
        assert isinstance(traj, CloudTrajectory)
        centers = np.array([p.mean(axis=0) for p in traj.positions])
        assert centers.shape == (len(traj.times), 3) and np.all(np.isfinite(centers))
        assert all(p[:, 2].max() > p[:, 2].min() for p in traj.positions)

    def test_bad_frame_rejected(self):
        cloud = two_particle_cloud()
        with pytest.raises(ValueError, match="frame"):
            evolve_cloud(cloud, T=1.0, dt=0.1, frame="warp")
