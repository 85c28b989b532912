import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dropsed.kernels import oseen_terms, stokes_drag_velocity
from phi_simpson_oracle import desingularized_ratio

E3 = np.array([0.0, 0.0, 1.0])

finite3 = st.lists(st.floats(-10, 10), min_size=3, max_size=3).map(np.array).filter(
    lambda v: np.linalg.norm(v) > 1e-3
)


def oseen_column(x):
    """U(x) e3 at mu = 1, the one response oseen_terms gives."""
    d = np.asarray(x, dtype=float).reshape(3, 1)
    r2 = np.einsum("ki,ki->i", d, d)
    inv_r, coef = np.empty(1), np.empty(1)
    oseen_terms(d, r2, 0.0, inv_r, coef)
    return E3 * inv_r[0] + d[:, 0] * coef[0]


class TestOseen:
    def test_axial_point_force(self):
        v = -oseen_column(E3)
        assert np.allclose(v, -E3 / (4.0 * math.pi), atol=1e-15)

    def test_transverse_point_force(self):
        v = -oseen_column(np.array([1.0, 0.0, 0.0]))
        assert np.allclose(v, -E3 / (8.0 * math.pi), atol=1e-15)

    def test_homogeneity_degree_minus_one(self):
        u1 = oseen_column(E3)
        u2 = oseen_column(2.0 * E3)
        assert np.max(np.abs(u2 - u1 / 2.0)) < 1e-14

    @given(x=finite3, lam=st.floats(0.1, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_homogeneity_and_symmetry_properties(self, x, lam):
        u = oseen_column(x)
        assert np.allclose(oseen_column(lam * x), u / lam, rtol=1e-12)
        assert np.allclose(oseen_column(-x), u, rtol=0, atol=0)

    def test_zero_separation_left_to_the_caller(self):
        # a zero separation gives non-finite factors; r2 = +inf drops a self pair
        inv_r, coef = np.empty(2), np.empty(2)
        with np.errstate(divide="ignore", invalid="ignore"):
            oseen_terms(np.zeros((3, 2)), np.array([0.0, np.inf]), 0.0, inv_r, coef)
        assert not np.isfinite(coef[0]) and inv_r[1] == coef[1] == 0.0

    @pytest.mark.parametrize("delta", [1e-3, 1.0 / 3.0, 0.3, 7.0, 1e-150])
    def test_clamp_at_or_below_every_r_changes_no_bit(self, delta):
        # for a normal delta^2, sqrt(fl(delta^2)) == delta, so every r2 >= fl(delta^2)
        # has r >= delta and delta = 0, which skips the maximum pass, gives the same bits
        rng = np.random.default_rng(4)
        floor = delta * delta
        assert math.sqrt(floor) == delta
        r2 = floor * np.concatenate([[1.0, 1.0], rng.uniform(1.0, 4.0, 61), [np.inf]])
        r2[1] = np.nextafter(floor, np.inf)
        d = rng.uniform(-1.0, 1.0, (3, r2.size)) * math.sqrt(floor)
        d[:, -1] = 0.0  # the self-pair entry
        clamped, skipped = np.empty((2, r2.size)), np.empty((2, r2.size))
        oseen_terms(d, r2, delta, *clamped)
        oseen_terms(d, r2, 0.0, *skipped)
        assert np.array_equal(clamped.view(np.int64), skipped.view(np.int64))


class TestStokesDrag:
    def test_unit_parameters(self):
        assert np.allclose(stokes_drag_velocity(1.0), -E3 / (6.0 * math.pi), atol=1e-17)

    def test_doubling_radius_halves_speed(self):
        s1 = np.linalg.norm(stokes_drag_velocity(1.0))
        s2 = np.linalg.norm(stokes_drag_velocity(2.0))
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
