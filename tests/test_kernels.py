import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dropsed.kernels import FluidParams, oseen_terms, stokes_drag_velocity
from phi_simpson_oracle import desingularized_ratio

E3 = np.array([0.0, 0.0, 1.0])

finite3 = st.lists(st.floats(-10, 10), min_size=3, max_size=3).map(np.array).filter(
    lambda v: np.linalg.norm(v) > 1e-3
)


def oseen_matrix(x, mu):
    """U(x) as a matrix: column k is the response oseen_terms gives to the unit force e_k."""
    d = np.asarray(x, dtype=float).reshape(3, 1)
    r2 = np.einsum("ki,ki->i", d, d)
    inv_r, coef = np.empty(1), np.empty(1)
    columns = []
    for force in np.eye(3):
        oseen_terms(d, r2, force, mu, 0.0, inv_r, coef)
        columns.append(force * inv_r[0] + d[:, 0] * coef[0])
    return np.column_stack(columns)


class TestOseen:
    def test_axial_point_force(self):
        v = oseen_matrix(E3, 1.0) @ (-E3)
        assert np.allclose(v, -E3 / (4.0 * math.pi), atol=1e-15)

    def test_transverse_point_force(self):
        v = oseen_matrix(np.array([1.0, 0.0, 0.0]), 1.0) @ (-E3)
        assert np.allclose(v, -E3 / (8.0 * math.pi), atol=1e-15)

    def test_homogeneity_degree_minus_one(self):
        u1 = oseen_matrix(E3, 1.0)
        u2 = oseen_matrix(2.0 * E3, 1.0)
        assert np.max(np.abs(u2 - u1 / 2.0)) < 1e-14

    @given(x=finite3, lam=st.floats(0.1, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_homogeneity_and_symmetry_properties(self, x, lam):
        u = oseen_matrix(x, 1.3)
        assert np.allclose(oseen_matrix(lam * x, 1.3), u / lam, rtol=1e-12)
        assert np.allclose(oseen_matrix(-x, 1.3), u, rtol=0, atol=0)
        # entries [j, k] and [k, j] round the same product in a different order
        assert np.max(np.abs(u - u.T)) <= 1e-15 * np.max(np.abs(u))

    def test_zero_separation_left_to_the_caller(self):
        # a zero separation gives non-finite factors; r2 = +inf drops a self pair
        inv_r, coef = np.empty(2), np.empty(2)
        with np.errstate(divide="ignore", invalid="ignore"):
            oseen_terms(np.zeros((3, 2)), np.array([0.0, np.inf]), -E3, 1.0, 0.0, inv_r, coef)
        assert not np.isfinite(coef[0]) and inv_r[1] == coef[1] == 0.0


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
