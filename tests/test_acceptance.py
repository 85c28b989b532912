"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines as they are produced.  The spectral cells reuse one cached kernel per
grid pair, so the full gate finishes well inside the per-cell time budget.
"""

import math
import time

import numpy as np
import pytest

from dropsed import linear_stability as ls
from dropsed import micro_sim as ms
from dropsed import patch_waves as pw
from dropsed import surface_evolution as se
from dropsed.quadrature import PhiGrid, ThetaGrid

pytestmark = pytest.mark.acceptance

E3 = np.array([0.0, 0.0, 1.0])
PER_CELL_BUDGET_SECONDS = 600.0


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def spectra():
    cells = {}
    for K, n_theta in [
        (4, 100), (4, 200), (4, 400), (4, 800),
        (8, 200), (8, 400), (8, 800),
        (16, 200), (16, 400),
        (25, 100), (32, 100),
    ]:
        t0 = time.time()
        rep = ls.solve_spectrum(ls.assemble_galerkin(K, n_theta))
        cells[(K, n_theta)] = (rep, time.time() - t0)
    return cells


def test_criterion_1_eigenvalue_table(spectra):
    expected = {
        (4, 100): 0.073, (4, 200): 0.073, (4, 400): 0.073, (4, 800): 0.073,
        (8, 200): 0.170, (8, 400): 0.170, (8, 800): 0.170,
        (16, 400): 0.199,
    }
    worst = 0.0
    for cell, target in expected.items():
        rep, wall = spectra[cell]
        err = abs(rep.max_real - target)
        worst = max(worst, err)
        assert wall <= PER_CELL_BUDGET_SECONDS, f"cell {cell} took {wall:.0f}s"
        assert err <= 5e-3, f"cell {cell}: max_real {rep.max_real:.4f} vs {target}"
    divergent_ok = (spectra[(25, 100)][0].max_real > 0.4
                    and spectra[(32, 100)][0].max_real > 0.4)
    report(
        "1 eigenvalue table",
        worst <= 5e-3 and divergent_ok,
        f"worst pinned-cell error {worst:.1e}; divergent cells "
        f"{spectra[(25, 100)][0].max_real:.3f}, {spectra[(32, 100)][0].max_real:.3f}",
    )


def test_criterion_2_reference_spectrum(spectra):
    rep, _ = spectra[(4, 200)]
    expected = [-0.073, 0.073, 0.245j, -0.245j]
    worst = 0.0
    for target in expected:
        worst = max(worst, np.min(np.abs(rep.eigenvalues - target)))
    report("2 reference spectrum K=4 n=200", worst <= 5e-3,
           f"worst eigenvalue mismatch {worst:.1e}")


def test_criterion_3_threshold(spectra):
    maxima = {cell: rep.max_real for cell, (rep, _) in spectra.items()}
    ok = all(v > 1.0 / 15.0 for v in maxima.values())
    report("3 growth threshold 1/15", ok,
           f"min over cells {min(maxima.values()):.4f} > {1.0 / 15.0:.4f}")


def test_criterion_4_spectral_reflection_symmetry(spectra):
    residuals = {K: spectra[(K, 200)][0].symmetric_residual for K in (4, 8, 16)}
    ok = all(r <= 1e-2 for r in residuals.values())
    report("4 spectrum negation symmetry", ok,
           "Hausdorff residuals " + ", ".join(f"K={k}: {r:.1e}" for k, r in residuals.items()))


def test_criterion_5_closed_form_coefficient():
    tg = ThetaGrid.uniform(401)
    angles = np.linspace(0.0, math.pi, 50)
    err = np.max(np.abs(ls.k_by_quadrature(angles, tg) - (2.0 / 15.0) * np.cos(angles)))
    sphere = ls.sphere_vertical_chord_integral(tg)
    sphere_err = abs(sphere + 16.0 * math.pi / 15.0)
    report("5 multiplicative coefficient", err <= 1e-4 and sphere_err <= 1e-6,
           f"coefficient error {err:.1e}; sphere integral error {sphere_err:.1e}")


def test_criterion_6_stationary_traveling_wave():
    grid = ThetaGrid.uniform(100)
    pg = PhiGrid.uniform(200)
    p0 = se.RadialProfile.sphere(grid)
    a1, _ = se.advection_and_source(p0, pw.wave_speed(1.0), pg)
    a1_err = np.max(np.abs(a1 + np.sin(grid.nodes) / 15.0))
    snaps = se.evolve(p0, T=10.0, dt=0.01, cdot3=pw.wave_speed(1.0),
                      phi_grid=pg, snapshot_every=2.0)
    dev = np.max(np.abs(snaps[-1].r - 1.0))
    drift = abs(se.enclosed_volume(snaps[-1]) - se.enclosed_volume(p0)) / se.enclosed_volume(p0)
    c3_err = abs(snaps[-1].c3 + 8.0 / 3.0)
    report("6 stationary traveling wave",
           dev <= 1e-2 and a1_err <= 2e-3 and drift <= 1e-2 and c3_err <= 1e-6,
           f"sup|r-1| {dev:.1e}; advection error {a1_err:.1e}; "
           f"volume drift {drift:.1e}; center error {c3_err:.1e}")


@pytest.fixture(scope="module")
def dominant_evolution(spectra):
    rep, _ = spectra[(16, 400)]
    lam_op = rep.operator_max_real
    h0 = rep.eigenvector_perturbation(0)
    tg, pg = ThetaGrid.uniform(401), PhiGrid.uniform(802)
    evo = ls.linearized_evolve(h0, 5.0, tg, pg, dt=0.01, snapshot_every=0.2)
    return lam_op, evo


def test_criterion_7_linear_growth_consistency(dominant_evolution):
    lam_op, evo = dominant_evolution
    rate = ls.measured_growth_rate(evo, 0.0, 5.0, norm="sup")
    rel = abs(rate - lam_op) / lam_op
    report("7 linear growth consistency", rel <= 0.10,
           f"measured sup-norm rate {rate:.4f} vs operator eigenvalue {lam_op:.4f} "
           f"({100 * rel:.1f}%)")


def test_criterion_7b_sup_norm_certificate(dominant_evolution):
    lam_op, evo = dominant_evolution
    i3 = int(np.argmin(np.abs(evo.times - 3.0)))
    t3 = evo.times[i3]
    sup0 = evo.sup_norms()[0]
    bound = sup0 * math.exp(lam_op * t3) * (1.0 - 1e-2)
    ok = evo.sup_norms()[i3] >= bound
    report("7b sup-norm growth certificate", ok,
           f"sup at t={t3:.2f} is {evo.sup_norms()[i3]:.4f} >= bound {bound:.4f}")


def test_criterion_7_propagator_eigenvalue_rate(spectra):
    # time-stepping-free cross-check: the step matrix's spectral radius over one step
    rep, _ = spectra[(16, 400)]
    lam_op = rep.operator_max_real
    dt = 0.01
    mu = np.linalg.eigvals(ls.linearized_propagator(ThetaGrid.uniform(401), dt))
    rate = float(np.max(np.log(np.abs(mu)))) / dt
    rel = abs(rate - lam_op) / lam_op
    report("7 propagator eigenvalue rate", rel <= 0.10,
           f"max log|mu|/dt {rate:.5f} vs operator eigenvalue {lam_op:.5f} ({100 * rel:.2f}%)")


def test_criterion_8_patch_certificates():
    exact_half = pw.l1_distance(0.5, 0.0) == 1.75
    exact_sep = all(
        pw.l1_distance(R, t) == 2.0
        for R in (0.5, 2.0)
        for t in (pw.separation_time(R), 3.0 * pw.separation_time(R))
    )
    rng = np.random.default_rng(11)
    mc_worst = 0.0
    for R in (0.5, 2.0):
        TR = pw.separation_time(R)
        for t in (0.0, TR / 2.0, 2.0 * TR):
            mc = pw.monte_carlo_l1(R, t, 1_000_000, rng)
            mc_worst = max(mc_worst, abs(mc - pw.l1_distance(R, t)))
    slope_ok = True
    for R in (0.5, 0.9, 2.0):
        slope = (4.0 / 15.0) * abs(1.0 / R - 1.0) / pw.UNIT_BALL_VOLUME
        for t in (1.0, 17.0):
            _, lower = pw.wasserstein_bounds(R, t)
            slope_ok &= abs(lower - slope * t) <= 1e-12 * max(1.0, lower)
    report("8 patch instability certificates",
           exact_half and exact_sep and mc_worst <= 2e-2 and slope_ok,
           f"l1(0.5,0)=1.75 exact: {exact_half}; saturation exact: {exact_sep}; "
           f"worst MC gap {mc_worst:.1e}; W1 slope exact: {slope_ok}")


def test_criterion_9_micro_mean_field():
    rng = np.random.default_rng(7)
    cloud = ms.uniform_ball_cloud(2000, 1.0, rng, particle_radius=1e-2)
    measured = ms.mean_settling_velocity(cloud)
    predicted = ms.mean_velocity_formula(cloud)
    rel = abs(measured[2] - predicted[2]) / abs(predicted[2])

    n = 1_000_000
    dx = pw.sample_unit_ball(n, rng) - pw.sample_unit_ball(n, rng)
    r = np.linalg.norm(dx, axis=1)
    vals = ((-E3)[None, :] / r[:, None] + dx * ((dx @ -E3) / r**3)[:, None]) / (8.0 * math.pi)
    mc_const = -vals.mean(axis=0)[2]
    mc_rel = abs(mc_const - 1.0 / (5.0 * math.pi)) / (1.0 / (5.0 * math.pi))

    rescaled, _ = ms.rescale_cloud(cloud)
    v_resc, _ = ms.rescaled_velocities(rescaled.positions, rescaled.delta)
    speed = float(np.linalg.norm(v_resc.mean(axis=0)))
    report("9 micro mean field",
           rel <= 0.05 and mc_rel <= 0.02 and abs(speed - 1.0) <= 0.05,
           f"settling error {100 * rel:.2f}%; pair-integral error {100 * mc_rel:.2f}%; "
           f"rescaled speed {speed:.4f}")


def test_criterion_10_characteristic_flow():
    th = 1.0
    dt = 1e-3
    f = lambda x: -math.sin(x) / 15.0
    for _ in range(5000):
        k1 = f(th)
        k2 = f(th + dt / 2 * k1)
        k3 = f(th + dt / 2 * k2)
        k4 = f(th + dt * k3)
        th += dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    ode_err = abs(ls.characteristic_flow(5.0, 0.0, 1.0) - th)

    rng = np.random.default_rng(3)
    semi_err = 0.0
    for _ in range(200):
        t, s, u = rng.uniform(-20, 20, size=3)
        theta = rng.uniform(0.01, math.pi - 0.01)
        lhs = ls.characteristic_flow(t, s, ls.characteristic_flow(s, u, theta))
        semi_err = max(semi_err, abs(lhs - ls.characteristic_flow(t, u, theta)))
    report("10 characteristic flow", ode_err <= 1e-8 and semi_err <= 1e-12,
           f"ODE-oracle error {ode_err:.1e}; semigroup residual {semi_err:.1e}")
