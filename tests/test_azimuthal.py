"""Closed-form azimuthal integrals against quadrature and the phi-Simpson oracle."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ellipe, ellipkm1

from dropsed import kernels
from dropsed import linear_stability as ls
from dropsed import patch_waves as pw
from dropsed import surface_evolution as se
from dropsed.kernels import azimuthal_moments
from dropsed.quadrature import PhiGrid, ThetaGrid

import phi_simpson_oracle as oracle
import vectorized_advection_oracle as one_shot

# B/A values spanning the whole range, on both sides of 0.1, where the
# elliptic-integral form of the moments used to hand I1 over to its series
RATIOS = [0.0, 1e-8, 1e-4, 0.1 * (1 - 1e-9), 0.1 * (1 + 1e-9), 0.5, 1 - 1e-12]


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


def elliptic_moments(a, b, a_minus_b):
    """I0 and I1 from the complete elliptic integrals K and E, as the AGM form replaced them.

    I0 = 4 K(m) / sqrt(A + B) and I1 = 4 [A K(m) - (A + B) E(m)] / (B sqrt(A + B))
    with m = 2B / (A + B).  Below B/A = 0.1, I1 loses digits to cancellation
    (relative error ~1e-16 / (B/A)^2), so there it comes from the seven-term
    binomial series of (1 - x cos phi)^(-1/2) in x = B/A instead.
    """
    k = ellipkm1(a_minus_b / (a + b))
    root = math.sqrt(a + b)
    x = b / a
    if x >= 0.1:
        return 4.0 * k / root, 4.0 * (a * k - (a + b) * ellipe(2.0 * b / (a + b))) / (b * root)
    series = sum(math.comb(4 * j + 2, 2 * j + 1) * math.comb(2 * j + 2, j + 1) / 4.0 ** (3 * j + 1)
                 * x ** (2 * j) for j in range(7))
    return 4.0 * k / root, 0.5 * math.pi * x / math.sqrt(a) * series


class TestAzimuthalMoments:
    @pytest.mark.parametrize("ratio", RATIOS)
    def test_matches_quadrature(self, ratio):
        a = 1.7
        b = ratio * a
        i0, i1 = azimuthal_moments(b, a - b)
        r0, r1 = quad_moments(a, b, a - b)
        assert abs(i0 / r0 - 1.0) <= 1e-13
        if ratio == 0.0:
            assert i1 == 0.0
        else:
            assert abs(i1 / r1 - 1.0) <= 1e-13

    @pytest.mark.parametrize("ratio", RATIOS[1:])
    def test_matches_elliptic_integrals(self, ratio):
        a = 1.7
        b = ratio * a
        moments = azimuthal_moments(b, a - b)
        for got, want in zip(moments, elliptic_moments(a, b, a - b)):
            assert abs(got / want - 1.0) <= 1e-13

    def test_vector_chunks_match_scalar_calls(self):
        # more entries than one chunk, with the slowest-converging entry in
        # the last chunk only: each chunk's step count must serve all of it
        ratio = np.linspace(0.0, 1.0 - 1e-3, 20000)
        ratio[-1] = 1.0 - 1e-14
        a = np.full(ratio.size, 1.3)
        i0, i1 = azimuthal_moments(ratio * a, a - ratio * a)
        for k in (0, 1, 9000, 19998, 19999):
            s0, s1 = azimuthal_moments(ratio[k] * a[k], a[k] - ratio[k] * a[k])
            assert s0.shape == s1.shape == ()
            assert abs(i0[k] / s0 - 1.0) <= 1e-15
            assert abs(i1[k] - s1) <= 1e-15 * abs(s1)

    def test_smooth_across_old_series_switch(self):
        # one formula for every B/A: fourth differences on a fine grid around
        # the old switch at 0.1 stay at rounding noise (~5e-15 relative).  The
        # elliptic/series pair this formula replaced showed 2.8e-13 here.
        a = np.ones(9)
        b = 0.1 + 1e-4 * np.arange(-4, 5)
        for moment in azimuthal_moments(b, a - b):
            assert np.max(np.abs(np.diff(moment, 4))) <= 5e-14 * abs(moment[4])

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError, match="coincident"):
            azimuthal_moments([1.0, 2.0], [1.0, 0.0])

    def test_coincident_entry_named_with_its_cause(self):
        # the first failing entry, with the caller's row offset, as the non-finite branch names it
        x = np.array([3.0, 3.0, 2.0, 2.0])
        b = np.array([1.0, 1.0, 1.0, 1.0])
        y = np.array([1.0, 1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match=r"^azimuthal moments need A > B >= 0, got A - B = 0\.0 "
                                             r"and B = 1\.0 at entry \(5, 0\); coincident points "
                                             r"diverge$"):
            kernels._moments_into(x, y, b, *np.empty((4, 4)), shape=(2, 2), first_row=4)

    def test_non_finite_input_named_by_entry_not_as_coincident(self):
        # an overflowing r * r' gives A = inf and B = nan, which fails the
        # A > B >= 0 check; the entry is named with the caller's row offset
        x = np.array([3.0, 3.0, 3.0, np.inf])
        b = np.array([1.0, 1.0, 1.0, np.nan])
        y = np.array([1.0, 1.0, 1.0, np.inf])
        with pytest.raises(ArithmeticError, match=r"non-finite input at entry \(5, 1\)$"):
            kernels._moments_into(x, y, b, *np.empty((4, 4)), shape=(2, 2), first_row=4)

    def test_non_finite_input_raises(self):
        with np.errstate(invalid="ignore"), pytest.raises(ArithmeticError,
                                                         match=r"did not converge at entry \(1,\)"):
            azimuthal_moments([0.5, 0.5], [0.5, np.inf])

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0)])
    def test_empty_input_gives_empty_moments(self, shape):
        # the AGM core's A > B >= 0 reductions would fail on a zero-size block
        empty = np.empty(shape)
        for moment in azimuthal_moments(empty, empty):
            assert moment.shape == shape


def _fill(n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """A - B and B for n random pairs, B / A spread over [0, 1) with both ends."""
    a = rng.uniform(0.1, 10.0, n)
    ratio = rng.uniform(0.0, 1.0, n)
    ratio[:: 7] = 0.0
    ratio[3:: 11] = 1.0 - 1e-12
    b = ratio * a
    return a - b, b


class TestMomentsCore:
    @pytest.mark.parametrize("n", [1, 37, 4099, kernels._MOMENT_CHUNK, 2 * kernels._MOMENT_CHUNK + 5])
    def test_equals_wrapper_bit_for_bit(self, n, rng):
        # the wrapper's blocks, each run by the core in one workspace with I0
        # written over B, as the upwind step runs it
        a_minus_b, b = _fill(n, rng)
        want = azimuthal_moments(b, a_minus_b)
        blocks = kernels._row_blocks(n, 1, kernels._MOMENT_CHUNK)
        work = np.empty((6, max(hi - lo for lo, hi in blocks)))
        got = np.empty((2, n))
        for lo, hi in blocks:
            x, y, bw, i1, c, tmp = work[:, :hi - lo]
            np.add(a_minus_b[lo:hi], b[lo:hi], out=x)
            x += b[lo:hi]
            np.copyto(y, a_minus_b[lo:hi])
            np.copyto(bw, b[lo:hi])
            kernels._moments_into(x, y, bw, bw, i1, c, tmp, shape=(hi - lo,), first_row=lo)
            got[:, lo:hi] = bw, i1
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_warm_call_allocates_no_block(self, rng):
        a_minus_b, b = _fill(10_000, rng)
        work = np.empty((6, b.size))

        def call():
            np.add(a_minus_b, b, out=work[0])
            work[0] += b
            np.copyto(work[1], a_minus_b)
            np.copyto(work[2], b)
            kernels._moments_into(*work[:3], work[2], *work[3:], shape=(b.size,),
                                  first_row=0)

        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**10

    @pytest.mark.parametrize("n_rows, row_size, chunk, sizes", [
        (100, 99, 10240, {100}), (201, 200, 10240, {50, 51}), (401, 400, 10240, {23, 24}),
        (21, 20, 1, {1}), (7, 1, 3, {2, 3}), (1, 5000, 10, {1}),
    ])
    def test_blocks_have_no_runt(self, n_rows, row_size, chunk, sizes):
        blocks = kernels._row_blocks(n_rows, row_size, chunk)
        assert blocks[0][0] == 0 and blocks[-1][1] == n_rows
        assert all(prev[1] == nxt[0] for prev, nxt in zip(blocks, blocks[1:]))
        assert {hi - lo for lo, hi in blocks} == sizes
        assert all((hi - lo) * row_size <= chunk for lo, hi in blocks if hi - lo > 1)


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
        coarse = se.advection_and_source(p, pw.wave_speed(1.0), PhiGrid.uniform(7))
        fine = se.advection_and_source(p, pw.wave_speed(1.0), PhiGrid.uniform(900))
        assert all(np.array_equal(x, y) for x, y in zip(coarse, fine))

    def test_sphere_advection_identity_fine_grid(self):
        grid = ThetaGrid.uniform(401)
        p = se.RadialProfile.sphere(grid)
        a1, _ = se.advection_and_source(p, pw.wave_speed(1.0), PhiGrid.uniform(802))
        assert np.max(np.abs(a1 + np.sin(grid.nodes) / 15.0)) <= 1e-8


class TestBlockedAdvection:
    @pytest.mark.parametrize("n", [21, 100, 201])
    @pytest.mark.parametrize("profile", ["sphere", "dominant"])
    def test_matches_one_shot_form(self, n, profile):
        # 100 and 201 rows are not whole multiples of their blocks (41 and 20 rows)
        grid = ThetaGrid.uniform(n)
        p = se.RadialProfile.sphere(grid) if profile == "sphere" else dominant_profile(grid)
        c = se.center_speed(p)
        got = se.advection_and_source(p, c, PhiGrid.uniform(2 * n))
        for a, want in zip(got, one_shot.advection_and_source(p, c)):
            assert np.max(np.abs(a - want)) <= 1e-14 * np.max(np.abs(want))

    def test_one_call_peaks_below_one_mib(self):
        # the one-shot form peaked at about 10 MiB here; blocks keep the working
        # set to a few block-sized buffers
        grid = ThetaGrid.uniform(401)
        p = dominant_profile(grid)
        se.advection_and_source(p, pw.wave_speed(1.0), None)
        tracemalloc.start()
        try:
            se.advection_and_source(p, pw.wave_speed(1.0), None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_geometry_cache_is_read_only(self):
        geometry = se._advection_geometry(ThetaGrid.uniform(50))
        assert se._advection_geometry(ThetaGrid.uniform(50)) is geometry
        for arr in geometry:
            with pytest.raises(ValueError):
                arr[1] = 1.0

    def test_agm_failure_names_global_node(self, monkeypatch):
        # one node row per block; the pole row needs no AGM step and passes,
        # so the failure is in the second block, at node 1 (not at row 0 of it)
        p = se.RadialProfile.sphere(ThetaGrid.uniform(21))
        monkeypatch.setattr(se, "_MOMENT_CHUNK", 1)
        monkeypatch.setattr(kernels, "_AGM_MAX_STEPS", 0)
        with pytest.raises(ArithmeticError, match=r"did not converge at entry \(1, \d+\)"):
            se.advection_and_source(p, pw.wave_speed(1.0), None)


class TestSphereKernelAgainstOracle:
    # up to n = 101 the upper triangle is one row tile; 251 is cut into 7
    # tiles of 35-36 rows, each one AGM block, and 401 and 801 into 13 and 26
    # tiles of 30-31 rows, each several AGM blocks
    @pytest.mark.parametrize("n", [4, 5, 33, 64, 100, 251, 401, 801])
    def test_symmetric_grid_kernel_equals_full_kernel(self, n):
        grid = ThetaGrid.uniform(n)
        assert np.array_equal(ls._grid_kernel(grid), ls._sphere_kernel(grid.nodes, grid.nodes))

    def test_grid_kernel_tiles_span_several_agm_blocks(self, monkeypatch):
        # at n = 801 one AGM block holds 12 rows; the tiles hold 30-31
        tiles = []

        def counted(b, a_minus_b):
            tiles.append(b.shape[0])
            return kernels.azimuthal_moments(b, a_minus_b)

        monkeypatch.setattr(ls, "azimuthal_moments", counted)
        ls._grid_kernel.__wrapped__(ThetaGrid.uniform(801))
        assert kernels._MOMENT_CHUNK // 801 == 12
        assert len(tiles) == 26 and set(tiles) == {30, 31}

    @pytest.mark.parametrize("n, rows", [(4, 1), (5, 2), (33, 1), (33, 4), (64, 3)])
    def test_grid_kernel_in_small_row_tiles_equals_full_kernel(self, monkeypatch, n, rows):
        # tiles of at most ``rows`` rows; the cache is bypassed, as it holds
        # kernels built in the default tiles
        monkeypatch.setattr(ls, "_MOMENT_CHUNK", rows * n)
        monkeypatch.setattr(ls, "_TILE_ROWS", 1)
        grid = ThetaGrid.uniform(n)
        R = ls._grid_kernel.__wrapped__(grid)
        assert np.array_equal(R, ls._sphere_kernel(grid.nodes, grid.nodes))

    def test_grid_kernel_builds_without_square_scratch(self):
        # the row tiles keep nothing but R as large as n^2: a cold n = 801
        # build peaks at 7.2 MB traced, R alone being 5.1 MB
        grid = ThetaGrid.uniform(801)
        grid.nodes  # cached before tracing
        tracemalloc.start()
        try:
            R = ls._grid_kernel.__wrapped__(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * R.nbytes

    def test_off_diagonal_matches_phi_simpson(self):
        tg = ThetaGrid.uniform(100)
        R = ls._grid_kernel(tg)
        i, j = np.indices(R.shape)
        off = np.abs(i - j) > 5
        for n_phi, tol_off, tol_all in ((200, 1e-5, 2e-3), (1600, 1e-9, 1e-6)):
            simpson = oracle.phi_reduced_kernel(tg.nodes, tg, PhiGrid.uniform(n_phi))
            assert np.max(np.abs(R - simpson)[off]) <= tol_off, n_phi
            assert np.max(np.abs(R - simpson)) <= tol_all, n_phi

    def test_diagonal_is_four_cos_theta(self):
        tg = ThetaGrid.uniform(100)
        R = ls._grid_kernel(tg)
        interior = slice(1, -1)
        exact = 4.0 * np.cos(tg.nodes[interior])
        assert np.array_equal(np.diag(R)[interior], exact)
        simpson = oracle.phi_reduced_kernel(tg.nodes, tg, PhiGrid.uniform(200))
        assert np.max(np.abs(np.diag(simpson)[interior] - exact)) <= 1e-8
        # the pole-node policy: both kernels vanish on the two pole diagonals
        assert R[0, 0] == R[-1, -1] == simpson[0, 0] == simpson[-1, -1] == 0.0

    def test_grid_kernel_cache_is_read_only(self):
        R = ls._grid_kernel(ThetaGrid.uniform(50))
        assert ls._grid_kernel(ThetaGrid.uniform(50)) is R
        with pytest.raises(ValueError):
            R[3, 4] = 1.0
