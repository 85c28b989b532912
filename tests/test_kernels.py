import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dropsed.kernels import (
    FluidParams,
    hadamard_rybczynski_velocity,
    oseen_tensor,
    stokes_drag_velocity,
)
from phi_simpson_oracle import desingularized_ratio

E3 = np.array([0.0, 0.0, 1.0])

finite3 = st.lists(st.floats(-10, 10), min_size=3, max_size=3).map(np.array).filter(
    lambda v: np.linalg.norm(v) > 1e-3
)


class TestOseen:
    def test_axial_point_force(self):
        v = oseen_tensor(E3, 1.0) @ (-E3)
        assert np.allclose(v, -E3 / (4.0 * math.pi), atol=1e-15)

    def test_transverse_point_force(self):
        v = oseen_tensor(np.array([1.0, 0.0, 0.0]), 1.0) @ (-E3)
        assert np.allclose(v, -E3 / (8.0 * math.pi), atol=1e-15)

    def test_homogeneity_degree_minus_one(self):
        u1 = oseen_tensor(E3, 1.0)
        u2 = oseen_tensor(2.0 * E3, 1.0)
        assert np.max(np.abs(u2 - u1 / 2.0)) < 1e-14

    @given(x=finite3, lam=st.floats(0.1, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_homogeneity_and_symmetry_properties(self, x, lam):
        u = oseen_tensor(x, 1.3)
        assert np.allclose(oseen_tensor(lam * x, 1.3), u / lam, rtol=1e-12)
        assert np.allclose(oseen_tensor(-x, 1.3), u, rtol=0, atol=0)
        assert np.allclose(u, u.T, rtol=0, atol=0)

    def test_singular_origin_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            oseen_tensor(np.zeros(3), 1.0)


class TestStokesDrag:
    def test_unit_parameters(self):
        p = FluidParams(mu=1.0, force=-E3, radius=1.0)
        assert np.allclose(stokes_drag_velocity(p), -E3 / (6.0 * math.pi), atol=1e-17)

    def test_zero_force(self):
        p = FluidParams(mu=1.0, force=np.zeros(3), radius=1.0)
        assert np.all(stokes_drag_velocity(p) == 0.0)

    def test_doubling_radius_halves_speed(self):
        p1 = FluidParams(mu=2.0, force=-3.0 * E3, radius=1.0)
        p2 = FluidParams(mu=2.0, force=-3.0 * E3, radius=2.0)
        s1 = np.linalg.norm(stokes_drag_velocity(p1))
        s2 = np.linalg.norm(stokes_drag_velocity(p2))
        assert s2 == pytest.approx(s1 / 2.0, rel=1e-15)


class TestHadamardRybczynski:
    params = FluidParams(mu=1.0, force=-E3, radius=1.0)

    def test_center_velocity(self):
        v = hadamard_rybczynski_velocity(np.zeros(3), self.params)
        assert np.allclose(v, -E3 / 3.0, atol=1e-16)

    def test_interface_branches_agree(self):
        x = np.array([math.sin(1.0), 0.0, math.cos(1.0)])
        interior = hadamard_rybczynski_velocity(x, self.params)
        # nudge outward so the exterior branch is taken at the same direction
        exterior = hadamard_rybczynski_velocity(x * (1.0 + 1e-14), self.params)
        assert np.max(np.abs(interior - exterior)) < 1e-12

    def test_interface_continuity_random_points(self, rng):
        for _ in range(100):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            inner = hadamard_rybczynski_velocity(d * (1.0 - 1e-13), self.params)
            outer = hadamard_rybczynski_velocity(d * (1.0 + 1e-13), self.params)
            assert np.max(np.abs(inner - outer)) < 1e-12

    def test_far_field_decay(self):
        v10 = hadamard_rybczynski_velocity(10.0 * E3, self.params)
        v20 = hadamard_rybczynski_velocity(20.0 * E3, self.params)
        assert np.linalg.norm(v20) < np.linalg.norm(v10) < 0.1
        # leading decay is 1/|x|
        assert np.linalg.norm(v10) / np.linalg.norm(v20) == pytest.approx(2.0, rel=0.02)


class TestDesingularizedRatio:
    def test_equator_opposite_azimuth(self):
        assert desingularized_ratio(math.pi / 2, math.pi / 2, math.pi) == pytest.approx(0.0, abs=1e-15)

    def test_pole_to_equator(self):
        for p in (0.0, 1.0, 4.0):
            assert desingularized_ratio(0.0, math.pi / 2, p) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)

    def test_bounded_by_two_on_large_sample(self, rng):
        t = rng.uniform(0, math.pi, 100_000)
        tb = rng.uniform(0, math.pi, 100_000)
        p = rng.uniform(0, 2 * math.pi, 100_000)
        vals = desingularized_ratio(t, tb, p)
        assert np.max(np.abs(vals)) <= 2.0

    def test_agrees_with_naive_quotient(self, rng):
        t = rng.uniform(0, math.pi, 50_000)
        tb = rng.uniform(0, math.pi, 50_000)
        p = rng.uniform(0, 2 * math.pi, 50_000)
        # squared chord between the unit vectors, by the law of cosines
        g = 2.0 - 2.0 * (np.sin(t) * np.sin(tb) * np.cos(p) + np.cos(t) * np.cos(tb))
        keep = g >= 1e-6
        naive = (-np.sin(t) * np.cos(tb) * np.cos(p) + np.cos(t) * np.sin(tb))[keep] / np.sqrt(g[keep])
        vals = desingularized_ratio(t, tb, p)[keep]
        denom = np.maximum(np.abs(naive), 1e-30)
        assert np.max(np.abs(vals - naive) / denom) < 1e-9

    def test_exact_coincidence_flagged_zero(self):
        assert desingularized_ratio(0.4, 0.4, 0.0) == 0.0
        assert desingularized_ratio(0.4, 0.5, 0.0) != 0.0
