import argparse
import dataclasses
import json
import logging
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

import dropsed
from dropsed import cli
from dropsed import micro_sim as ms
from dropsed import patch_waves as pw
from dropsed import surface_evolution as se
from dropsed.cli import main
from dropsed.quadrature import PhiGrid, ThetaGrid


# the particle radius of every micro run
MICRO_RADIUS = 1e-2
# the variables --threads sets
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, data


class TestPatchCommand:
    def test_half_radius_run(self, tmp_path):
        out = tmp_path / "run"
        assert main(["patch", "--R", "0.5", "--t-max", "100", "--steps", "50",
                     "--out", str(out)]) == 0
        header, data = read_csv(out / "patch.csv")
        assert header == ["t", "l1", "w1_lower"]
        assert data.shape == (51, 3)
        assert data[0, 1] == 1.75
        summary = json.loads((out / "summary.json").read_text())
        assert summary["separation_time"] == pytest.approx(7.5 * math.pi)

    def test_unit_radius_all_zero(self, tmp_path):
        out = tmp_path / "run"
        assert main(["patch", "--R", "1", "--out", str(out)]) == 0
        _, data = read_csv(out / "patch.csv")
        assert np.all(data[:, 1] == 0.0) and np.all(data[:, 2] == 0.0)

    def test_saturation_after_separation(self, tmp_path):
        out = tmp_path / "run"
        assert main(["patch", "--R", "2", "--t-max", "200", "--out", str(out)]) == 0
        _, data = read_csv(out / "patch.csv")
        late = data[data[:, 0] >= 30.0 * math.pi]
        assert late.size > 0 and np.all(late[:, 1] == 2.0)

    def test_invalid_radius_exits_nonzero(self, tmp_path, capsys):
        assert main(["patch", "--R", "-3", "--out", str(tmp_path / "x")]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, key", [(["--t-max", "nan", "--steps", "2"], "t_max"),
                                            (["--t-max", "inf"], "t_max"),
                                            (["--steps", "-1"], "steps"),
                                            (["--R", "inf"], "R"), (["--R", "nan"], "R")])
    def test_invalid_time_range_rejected(self, tmp_path, capsys, flags, key):
        out = tmp_path / "x"
        assert main(["patch", *flags, "--out", str(out)]) == 1
        assert f"error: {key} must be" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("flags, named", [
        (["--R", "1e103"], "R=1e+103, t=0.0"),  # R**3 overflows
        (["--R", "1e-310"], "R=1e-310, t=0.0"),  # the gap speed is inf, and inf * 0 nan
        (["--R", "1e-300", "--t-max", "1e10"], "R=1e-300, t=3000000000.0"),  # inf w1 bound
    ], ids=["R-cubed", "gap-speed", "w1-lower"])
    def test_overflow_exits_naming_r_and_t(self, tmp_path, capsys, flags, named):
        out = tmp_path / "x"
        assert main(["patch", *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"dropsed patch: error: the patch distances at {named} overflow a float\n")
        assert list(out.iterdir()) == []


class TestSpectrumCommand:
    def test_reference_cell(self, tmp_path):
        out = tmp_path / "run"
        assert main(["spectrum", "--K", "4", "--ntheta", "200", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["max_real"] == pytest.approx(0.073, abs=2e-3)
        assert summary["threshold_1_over_15"] == 0.0667
        assert summary["symmetric_residual"] < 1e-2
        header, eig = read_csv(out / "eigenvalues.csv")
        assert header == ["re", "im"] and eig.shape == (4, 2)
        assert np.all(np.diff(eig[:, 0]) <= 1e-12)
        header, vec = read_csv(out / "eigenvector.csv")
        assert header == ["theta", "h"] and vec.shape == (200, 2)

    def test_smallest_case_runs(self, tmp_path):
        out = tmp_path / "run"
        assert main(["spectrum", "--K", "1", "--ntheta", "100", "--out", str(out)]) == 0
        _, eig = read_csv(out / "eigenvalues.csv")
        assert eig.shape == (1, 2)

    @pytest.mark.parametrize("K, ntheta", [(0, 200), (300, 200), (25, 8), (4, 7)],
                             ids=["0", "300", "K-above-ntheta", "ntheta-7"])
    def test_invalid_k_rejected(self, tmp_path, capsys, K, ntheta):
        # K basis functions on fewer nodes would give a matrix of rank at most ntheta
        out = tmp_path / "run"
        assert main(["spectrum", "--K", str(K), "--ntheta", str(ntheta), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "dropsed spectrum: error: need 1 <= K <= 257, ntheta >= 8 and K <= ntheta, "
            f"got K={K} and ntheta={ntheta}\n")
        assert list(out.iterdir()) == []

    def test_eigensolver_failure_dumps_matrix(self, tmp_path, monkeypatch, capsys):
        from dropsed import linear_stability as ls

        def failing_eig(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eig", failing_eig)
        out = tmp_path / "run"
        assert main(["spectrum", "--K", "2", "--ntheta", "20", "--out", str(out)]) == 1
        assert "did not converge" in capsys.readouterr().err
        dumped = np.loadtxt(out / "galerkin_matrix.csv", delimiter=",")
        assert np.array_equal(dumped, ls.assemble_galerkin(2, 20))
        assert not (out / "eigenvalues.csv").exists()


class TestEvolveCommand:
    def test_stationary_run_emits_snapshots(self, tmp_path):
        out = tmp_path / "run"
        assert main(["evolve", "--r0", "1", "--T", "0.2", "--dt", "0.01",
                     "--ntheta", "50", "--nphi", "100", "--snapshot-every", "0.1",
                     "--svg", "--out", str(out)]) == 0
        snaps = sorted(out.glob("snapshot_*.csv"))
        assert len(snaps) >= 3
        header, data = read_csv(snaps[-1])
        assert header == ["theta", "r"]
        assert np.max(np.abs(data[:, 1] - 1.0)) < 1e-3
        sidecar = json.loads(snaps[-1].with_suffix(".json").read_text())
        assert sidecar["n_theta"] == 50 and sidecar["dt"] == 0.01
        assert sidecar["time"] == pytest.approx(0.2)
        assert (out / "snapshot_0000.svg").exists()

    def test_zero_time_writes_the_initial_snapshot(self, tmp_path):
        out = tmp_path / "run"
        assert main(["evolve", "--T", "0", "--out", str(out)]) == 0
        assert [p.name for p in sorted(out.glob("snapshot_*.csv"))] == ["snapshot_0000.csv"]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final_time"] == 0.0 and summary["snapshots"] == 1

    @pytest.mark.parametrize("flags, message", [
        (["--r0", "nan"], "r0 must be positive and finite, got nan"),
        (["--r0", "inf"], "r0 must be positive and finite, got inf"),
        (["--r0", "0"], "r0 must be positive and finite, got 0.0"),
        (["--r0", "1e200"],  # -(4/15) r0^2 overflows
         "policy fixed_wave_speed gives a non-finite center speed -inf at r0=1e+200"),
        (["--perturb", "dominant", "--eps", "nan"], "eps must be finite, got nan"),
        (["--perturb", "dominant", "--perturb-K", "0"],
         "need 1 <= perturb_K <= 257, ntheta >= 8 and perturb_K <= ntheta, "
         "got perturb_K=0 and ntheta=100"),
        (["--perturb", "dominant", "--perturb-K", "300"],
         "need 1 <= perturb_K <= 257, ntheta >= 8 and perturb_K <= ntheta, "
         "got perturb_K=300 and ntheta=100"),
        (["--perturb", "dominant", "--perturb-K", "25", "--ntheta", "5", "--T", "0.1"],
         "need 1 <= perturb_K <= 257, ntheta >= 8 and perturb_K <= ntheta, "
         "got perturb_K=25 and ntheta=5"),
        (["--ntheta", "3"], "the upwind scheme needs n_theta >= 4, got 3"),
        (["--ntheta", "20", "--T", "0.01", "--dt", "1e-300"],
         "T=0.01 spans more than 2**53 steps dt=1e-300"),
    ], ids=["r0-nan", "r0-inf", "r0-zero", "r0-overflows-wave-speed", "eps-nan", "perturb_K-0",
            "perturb_K-300", "perturb_K-above-ntheta",
            "ntheta-3", "too-many-steps"])
    def test_bad_initial_profile_names_key(self, tmp_path, capsys, flags, message):
        out = tmp_path / "run"
        assert main(["evolve", *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"dropsed evolve: error: {message}\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("r0", ["1e-200", "1e-160"])
    def test_radius_whose_square_underflows_names_r0(self, tmp_path, capsys, r0):
        # r * r' would underflow in the kernels, where 1e-200 made every pair look coincident
        out = tmp_path / "run"
        assert main(["evolve", "--r0", r0, "--T", "0.1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "dropsed evolve: error: r0 must have a square of at least 2.2250738585072014e-308, "
            f"got r0={float(r0)!r}\n")
        assert list(out.iterdir()) == []

    def test_overflowing_radius_reported_as_non_finite(self, tmp_path, capsys):
        # r * r' overflows, so the azimuthal moments see inf and nan, not coincident points;
        # numpy's overflow warnings do not reach the user ahead of the one-line error.  (The
        # default policy stops before the moments: its wave speed -(4/15) r0^2 is -inf.)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["evolve", "--r0", "1e200", "--ntheta", "20", "--policy", "transported",
                         "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == (
            "dropsed evolve: error: azimuthal moments got a non-finite input at entry (0, 0)\n")

    @pytest.mark.parametrize("speed", ["nan", "inf"])
    def test_non_finite_prescribed_speed_names_key(self, tmp_path, capsys, speed):
        out = tmp_path / "run"
        assert main(["evolve", "--policy", "prescribed", "--prescribed-speed", speed,
                     "--out", str(out)]) == 1
        assert f"error: prescribed_speed must be finite, got {speed}" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_wave_speed_policy_is_the_prescribed_wave_speed(self, tmp_path):
        common = ["--T", "1", "--ntheta", "60"]
        wave, presc = tmp_path / "wave", tmp_path / "prescribed"
        assert main(["evolve", "--policy", "fixed_wave_speed", *common, "--out", str(wave)]) == 0
        assert main(["evolve", "--policy", "prescribed", "--prescribed-speed=-0.26666666666666666",
                     *common, "--out", str(presc)]) == 0
        names = sorted(p.name for p in wave.glob("snapshot_*"))  # 11 .csv and 11 .json
        assert len(names) == 22
        for name in [*names, "summary.json"]:
            assert (wave / name).read_bytes() == (presc / name).read_bytes()

    def test_prescribed_speed_under_another_policy_rejected(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["evolve", "--prescribed-speed", "5", "--T", "0.1", "--ntheta", "20",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "dropsed evolve: error: prescribed_speed=5.0 is read only under policy prescribed, "
            "got policy fixed_wave_speed\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("r0", ["0.5", "2"])
    def test_wave_speed_policy_keeps_any_sphere_stationary(self, tmp_path, r0):
        # the sphere ends 1.4e-5 (r0 = 0.5) and 7.5e-5 (r0 = 2) from round, the bound is 2.7
        # times the larger; at the unit sphere's speed -4/15 it ended 0.49 and 1.96 from round
        out = tmp_path / "run"
        assert main(["evolve", "--r0", r0, "--T", "2", "--ntheta", "50", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final_sup_deviation_from_mean"] <= 2e-4
        assert summary["final_c3"] == 2.0 * pw.wave_speed(float(r0))

    def test_cfl_rejected_before_stepping(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["evolve", "--dt", "10", "--T", "20", "--ntheta", "50",
                     "--nphi", "100", "--out", str(out)]) == 1
        assert "CFL" in capsys.readouterr().err
        assert not list(out.glob("snapshot_*.csv"))

    def test_zero_amplitude_perturbation_matches_sphere_run(self, tmp_path):
        base = tmp_path / "base"
        pert = tmp_path / "pert"
        common = ["--T", "0.1", "--dt", "0.01", "--ntheta", "40", "--nphi", "80"]
        assert main(["evolve", "--r0", "1", *common, "--out", str(base)]) == 0
        assert main(["evolve", "--r0", "1", "--perturb", "dominant", "--eps", "0",
                     "--perturb-K", "6", *common, "--out", str(pert)]) == 0
        for name in ("snapshot_0000.csv", "snapshot_0001.csv"):
            assert (base / name).read_bytes() == (pert / name).read_bytes()

    def test_dominant_perturbation_amplitude(self, tmp_path):
        out = tmp_path / "run"
        assert main(["evolve", "--r0", "1", "--perturb", "dominant", "--eps", "0.2",
                     "--perturb-K", "6", "--T", "0.02", "--dt", "0.01",
                     "--ntheta", "40", "--nphi", "80", "--out", str(out)]) == 0
        _, data = read_csv(out / "snapshot_0000.csv")
        assert np.max(np.abs(data[:, 1] - 1.0)) == pytest.approx(0.2, rel=1e-9)

    def test_eigvec_file_matches_in_process_dominant_mode(self, tmp_path):
        spec = tmp_path / "spec"
        assert main(["spectrum", "--K", "6", "--ntheta", "40", "--out", str(spec)]) == 0
        common = ["--perturb", "dominant", "--eps", "0.2", "--perturb-K", "6", "--T", "0.02",
                  "--dt", "0.01", "--ntheta", "40", "--nphi", "80"]
        runs = []
        for name, extra in (("file", ["--eigvec", str(spec / "eigenvector.csv")]), ("direct", [])):
            assert main(["evolve", *common, *extra, "--out", str(tmp_path / name)]) == 0
            runs.append(read_csv(tmp_path / name / "snapshot_0000.csv")[1])
        assert np.max(np.abs(runs[0] - runs[1])) <= 1e-12
        assert np.max(np.abs(runs[0][:, 1] - 1.0)) == pytest.approx(0.2, rel=1e-12)

    def test_eigvec_file_on_the_runs_own_nodes_is_exact(self, tmp_path):
        # a node's spline row is its unit sample, so the file's h comes back bit for bit
        spec, out = tmp_path / "spec", tmp_path / "run"
        assert main(["spectrum", "--K", "6", "--ntheta", "40", "--out", str(spec)]) == 0
        assert main(["evolve", "--perturb", "dominant", "--eps", "0.2", "--ntheta", "40",
                     "--T", "0.02", "--eigvec", str(spec / "eigenvector.csv"),
                     "--out", str(out)]) == 0
        _, eigvec = read_csv(spec / "eigenvector.csv")
        _, snap = read_csv(out / "snapshot_0000.csv")
        h = eigvec[:, 1]
        assert np.array_equal(snap[:, 0], eigvec[:, 0])
        assert np.array_equal(snap[:, 1], 1.0 + 0.2 * (h / np.max(np.abs(h))))

    def test_eigvec_without_dominant_perturbation_rejected(self, tmp_path, capsys):
        out, eigvec = tmp_path / "run", str(tmp_path / "missing.csv")
        assert main(["evolve", "--eigvec", eigvec, "--T", "0.01", "--ntheta", "20",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"dropsed evolve: error: eigvec={eigvec!r} is read only under perturb dominant, "
            "got perturb none\n")
        assert list(out.iterdir()) == []

    def test_eigvec_file_on_other_nodes_is_splined(self, tmp_path):
        # the CSV's nodes are not the run's: the profile is the not-a-knot
        # spline of the file at the run's nodes, as scipy's CubicSpline gives it
        spec = tmp_path / "spec"
        assert main(["spectrum", "--K", "6", "--ntheta", "61", "--out", str(spec)]) == 0
        assert main(["evolve", "--perturb", "dominant", "--eps", "0.2", "--T", "0.01", "--dt", "0.01",
                     "--ntheta", "40", "--eigvec", str(spec / "eigenvector.csv"),
                     "--out", str(tmp_path / "run")]) == 0
        _, data = read_csv(tmp_path / "run" / "snapshot_0000.csv")
        _, eigvec = read_csv(spec / "eigenvector.csv")
        h = CubicSpline(eigvec[:, 0], eigvec[:, 1])(data[:, 0])
        assert np.max(np.abs(data[:, 1] - (1.0 + 0.2 * h / np.max(np.abs(h))))) <= 1e-14

    @pytest.mark.parametrize("cut", ["inner", "reversed", "no_rows", "non_numeric"])
    def test_eigvec_file_not_spanning_the_sphere_rejected(self, tmp_path, capsys, cut):
        spec = tmp_path / "spec"
        assert main(["spectrum", "--K", "6", "--ntheta", "40", "--out", str(spec)]) == 0
        header, *rows = (spec / "eigenvector.csv").read_text().splitlines()
        if cut == "inner":  # the spline would extrapolate its end cubics
            rows = [row for row in rows if 0.5 < float(row.split(",")[0]) < 2.5]
        elif cut == "reversed":
            rows = rows[::-1]
        elif cut == "no_rows":  # numpy warns of it before failing
            rows = []
        else:
            rows[0] = rows[0].split(",")[0] + ",abc"
        bad = tmp_path / "eigvec.csv"
        bad.write_text("\n".join([header, *rows]) + "\n")
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["evolve", "--perturb", "dominant", "--T", "0.01", "--ntheta", "40",
                         "--eigvec", str(bad), "--out", str(out)]) == 1
        unreadable = cut in ("no_rows", "non_numeric")
        reason = "is not a theta,h table" if unreadable else "must have >= 4 rows of theta,h"
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"error: eigvec {str(bad)!r} {reason}" in err
        assert list(out.iterdir()) == []

    def test_zero_eigvec_file_rejected(self, tmp_path, capsys):
        # scaling h = 0 to unit sup norm would divide 0 by 0
        zero = tmp_path / "eigvec.csv"
        zero.write_text("theta,h\n" + "".join(f"{k * math.pi / 10!r},0.0\n" for k in range(11)))
        out = tmp_path / "run"
        assert main(["evolve", "--perturb", "dominant", "--T", "0.01", "--ntheta", "40",
                     "--eigvec", str(zero), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"dropsed evolve: error: eigvec {str(zero)!r} gives a perturbation of sup norm 0.0; "
            "it must be positive and finite\n")
        assert list(out.iterdir()) == []

    def test_collapse_writes_last_valid_profile(self, tmp_path, monkeypatch, capsys):
        # the nearly pinched profile of test_collapse_detected: collapses on step 4
        grid = ThetaGrid.uniform(51)
        th = grid.nodes
        p0 = se.RadialProfile(grid=grid, r=0.005 + 0.995 * np.sin(th / 2.0) ** 2
                              + 0.5 * np.sin(th) ** 2)
        monkeypatch.setattr(cli, "_initial_profile", lambda cfg: p0)
        out = tmp_path / "run"
        assert main(["evolve", "--ntheta", "51", "--nphi", "102", "--T", "0.01", "--dt", "0.001",
                     "--snapshot-every", "0.002", "--policy", "prescribed",
                     "--prescribed-speed", "1", "--out", str(out)]) == 1
        assert "collapsed" in capsys.readouterr().err
        pg = PhiGrid.uniform(102)
        last = p0
        for _ in range(3):
            last = se.step_upwind(last, 0.001, 1.0, pg)
        with pytest.raises(se.SurfaceCollapseError) as exc:
            se.step_upwind(last, 0.001, 1.0, pg)
        assert exc.value.profile is last
        snaps = sorted(out.glob("snapshot_*.csv"))
        assert [p.name for p in snaps] == [f"snapshot_000{i}.csv" for i in range(3)]
        _, data = read_csv(snaps[-1])
        assert np.array_equal(data[:, 1], last.r)
        assert json.loads(snaps[-1].with_suffix(".json").read_text())["time"] == last.time
        assert (out / "manifest.json").exists() and not (out / "summary.json").exists()


class TestMicroCommand:
    def test_single_particle(self, tmp_path):
        out = tmp_path / "run"
        assert main(["micro", "--N", "1", "--T", "1", "--dt", "0.01", "--out", str(out)]) == 0
        report = json.loads((out / "mean_velocity.json").read_text())
        assert report["measured"][2] == pytest.approx(-1.0 / (6.0 * math.pi * 1e-2), rel=1e-12)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["N"] == 1 and manifest["frame_times"][-1] == pytest.approx(1.0)

    @pytest.mark.parametrize("flags, named", [
        (["--T", "0.06", "--dt", "0.01", "--snapshot-every", "0.015"],
         ["snapshot_every=0.015", "dt=0.01"]),
        (["--T", "nan", "--dt", "0.01"], ["T=nan", "dt=0.01"]),
    ], ids=["ragged-snapshots", "T-nan"])
    def test_time_grid_errors_name_the_given_values(self, tmp_path, capsys, flags, named):
        out = tmp_path / "run"
        assert main(["micro", "--N", "20", *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and all(value in err for value in named), err
        assert list(out.iterdir()) == []

    def test_infinite_dt_rejected(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["micro", "--N", "5", "--T", "1", "--dt", "inf", "--out", str(out)]) == 1
        assert "dt=inf must both be finite" in capsys.readouterr().err
        assert not list(out.glob("frame_*.csv"))

    @pytest.mark.parametrize("T, dt", [("1", "0"), ("1", "nan"), ("nan", "0.01"), ("inf", "0.01")])
    def test_evolve_time_grid_checked_before_its_default_cadence(self, tmp_path, capsys, T, dt):
        # the default snapshot cadence divides T by dt, so both are checked first
        out = tmp_path / "run"
        assert main(["evolve", "--T", T, "--dt", dt, "--ntheta", "20", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"T={float(T)!r}" in err and f"dt={float(dt)!r}" in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_non_finite_delta_rejected(self, tmp_path, capsys, delta):
        out = tmp_path / "run"
        assert main(["micro", "--N", "5", "--T", "0", "--delta", delta, "--out", str(out)]) == 1
        assert f"error: delta must be finite and >= 0, got {delta}" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_determinism_same_seed(self, tmp_path):
        runs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["micro", "--N", "40", "--T", "0.2", "--dt", "0.05",
                         "--seed", "7", "--out", str(out)]) == 0
            runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert runs[0] == runs[1]

    def test_mean_velocity_report_matches_formula(self, tmp_path):
        out = tmp_path / "run"
        assert main(["micro", "--N", "2000", "--seed", "7", "--T", "0.05",
                     "--dt", "0.05", "--out", str(out)]) == 0
        report = json.loads((out / "mean_velocity.json").read_text())
        assert report["relative_error_vertical"] < 0.05
        assert report["rescaled_mean_speed"] == pytest.approx(1.0, abs=0.05)


    @pytest.mark.parametrize("n", [60, 1])
    def test_initial_pair_sum_computed_once(self, tmp_path, monkeypatch, n):
        # five midpoint steps take ten pair sums; the t = 0 sum of step 1 also
        # gives both reported means, so no further sum is made.  A lone
        # particle's rescaled velocity is zero without a sum.
        calls = []
        original = ms._interaction_sum

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(ms, "_interaction_sum", counting)
        out = tmp_path / "run"
        assert main(["micro", "--N", str(n), "--T", "0.05", "--dt", "0.01", "--seed", "4",
                     "--out", str(out)]) == 0
        assert len(calls) == (10 if n > 1 else 0)
        report = json.loads((out / "mean_velocity.json").read_text())
        cloud = ms.uniform_ball_cloud(n, 1.0, pw.SplitMix64(4), particle_radius=MICRO_RADIUS)
        measured = ms.mean_settling_velocity(cloud)
        assert (np.linalg.norm(np.array(report["measured"]) - measured)
                <= 1e-12 * np.linalg.norm(measured))
        rescaled, _ = ms.rescale_cloud(cloud)
        v, _ = ms.rescaled_velocities(rescaled.positions, rescaled.delta)
        rescaled_mean = v.mean(axis=0)
        assert (np.linalg.norm(np.array(report["rescaled_mean_velocity"]) - rescaled_mean)
                <= 1e-12 * np.linalg.norm(rescaled_mean))

    def test_clamp_events_pinned(self, tmp_path):
        # the seed-3 SplitMix64 cloud integrated by the midpoint rule with
        # tests/tiled_sum_oracle.py's pair sum, which counts by the clamp's
        # own test sqrt(r2) < delta
        out = tmp_path / "run"
        assert main(["micro", "--N", "30", "--T", "0.05", "--dt", "0.01", "--delta", "0.3",
                     "--seed", "3", "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["clamp_events"] == 180


@pytest.mark.parametrize("rows", [[], np.empty((0, 4))], ids=["list", "array"])
def test_csv_of_no_rows_is_the_header_line(tmp_path, rows):
    cli._write_csv(tmp_path / "t.csv", "a,b,c,d", rows)
    assert (tmp_path / "t.csv").read_text() == "a,b,c,d\n"


def test_csv_bytes_match_per_value_float_repr(tmp_path):
    rows = [(0, 1.0 / 3.0, -0.0, 1e-300), (7, np.float64(2.5), -1, 1e300),
            (np.int64(3), 0.1, 5e-324, -2.0 / 3.0)]
    expected = "a,b,c,d\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in rows)
    cli._write_csv(tmp_path / "t.csv", "a,b,c,d", rows)
    assert (tmp_path / "t.csv").read_text() == expected


def test_csv_first_column_is_written_as_given(tmp_path):
    # the preformatted column of the micro ids and the evolve theta nodes:
    # the same bytes as the whole rows through the per-value writer
    rows = [(0, 1.0 / 3.0, -0.0), (1, np.float64(2.5), 1e300), (2, 5e-324, -2.0 / 3.0)]
    cli._write_csv(tmp_path / "whole.csv", "id,b,c", rows)
    cli._write_csv(tmp_path / "split.csv", "id,b,c", [row[1:] for row in rows],
                   first_column=[repr(float(row[0])) for row in rows])
    assert (tmp_path / "split.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    assert (tmp_path / "split.csv").read_text().splitlines()[1] == "0.0,0.3333333333333333,-0.0"
    with pytest.raises(ValueError):
        cli._write_csv(tmp_path / "short.csv", "id,b,c", [row[1:] for row in rows],
                       first_column=["0.0"])


class TestConfigHandling:
    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"R": 2.0, "steps": 10}))
        out = tmp_path / "run"
        assert main(["patch", "--config", str(cfg), "--R", "0.5", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["R"] == 0.5      # flag wins
        assert manifest["config"]["steps"] == 10   # file beats default
        _, data = read_csv(out / "patch.csv")
        assert data.shape[0] == 11

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert main(["patch", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1

    def test_micro_frame_key_of_a_0_2_manifest_rejected(self, tmp_path, capsys):
        # micro writes the rescaled run only, so a 0.2.0 manifest's frame is unknown
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"N": 20, "frame": "rescaled"}))
        out = tmp_path / "run"
        assert main(["micro", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "dropsed micro: error: unknown config keys for micro: ['frame']\n")
        assert not out.exists()

    @pytest.mark.parametrize("subcommand, key, value", [
        ("spectrum", "ntheta", 20.9), ("patch", "steps", 2.5), ("evolve", "svg", "false"),
        ("spectrum", "K", "4"), ("spectrum", "K", True), ("evolve", "perturb", "all"),
        ("patch", "R", True), ("evolve", "policy", 1), ("evolve", "r0", "const:1"),
    ])
    def test_config_value_checked_against_its_field(self, tmp_path, capsys, subcommand, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "run"
        assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 1
        assert f"config key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_config_int_for_float_field_recorded_as_float(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t_max": 100, "steps": 4}))
        out = tmp_path / "run"
        assert main(["patch", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["t_max"] == 100.0
        assert type(manifest["config"]["t_max"]) is float
        assert '"t_max": 100.0' in (out / "manifest.json").read_text()

    def test_manifest_round_trip(self, tmp_path):
        first = tmp_path / "first"
        assert main(["patch", "--R", "0.8", "--steps", "12", "--out", str(first)]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        assert manifest["version"] == dropsed.__version__ == "0.3.0"
        cfg = tmp_path / "replay.json"
        cfg.write_text(json.dumps(manifest["config"]))
        second = tmp_path / "second"
        assert main(["patch", "--config", str(cfg), "--seed", str(manifest["seed"]),
                     "--out", str(second)]) == 0
        assert (first / "patch.csv").read_bytes() == (second / "patch.csv").read_bytes()
        replay = json.loads((second / "manifest.json").read_text())
        assert replay["config"] == manifest["config"]


# (flag, type, choices) of every config option; each is also a config key
CONFIG_FLAGS = {
    "patch": [("--R", float), ("--t-max", float), ("--steps", int)],
    "spectrum": [("--K", int), ("--ntheta", int)],
    "evolve": [("--r0", float), ("--T", float), ("--dt", float), ("--ntheta", int), ("--nphi", int),
               ("--policy", str, ("fixed_wave_speed", "transported", "prescribed")),
               ("--prescribed-speed", float), ("--snapshot-every", float),
               ("--perturb", str, ("none", "dominant")), ("--eps", float), ("--perturb-K", int),
               ("--eigvec", str), ("--svg", None)],
    "micro": [("--N", int), ("--T", float), ("--dt", float), ("--delta", float),
              ("--snapshot-every", float)],
}
# (option strings, dest, type, default, choices, const) of the flags every subcommand has
COMMON_ACTIONS = {
    (("-h", "--help"), "help", None, argparse.SUPPRESS, None, None),
    (("--out",), "out", Path, None, None, None),
    (("--config",), "config", str, None, None, None),
    (("--seed",), "seed", int, None, None, None),
    (("--threads",), "threads", int, None, None, None),
    (("--log-level",), "log_level", None, "WARNING",
     ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"), None),
    (("--debug",), "debug", None, False, None, True),
}


def test_parser_pins_every_flag():
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert list(subparsers.choices) == list(CONFIG_FLAGS)
    total = 0
    for name, flags in CONFIG_FLAGS.items():
        expected = set(COMMON_ACTIONS)
        for flag, kind, *choices in flags:
            dest = flag[2:].replace("-", "_")
            const = True if kind is None else None  # --svg is store_const
            expected.add(((flag,), dest, kind, None, choices[0] if choices else None, const))
        actions = subparsers.choices[name]._actions
        got = {(tuple(a.option_strings), a.dest, a.type, a.default, a.choices, a.const)
               for a in actions}
        assert got == expected
        fields = {f.name for f in dataclasses.fields(cli._CONFIG_TYPES[name])}
        assert fields == {flag[2:].replace("-", "_") for flag, *_ in flags}
        total += len(actions)
    assert total == 51


def _printed(capsys, parse, argv) -> tuple:
    """(exit code, stdout, stderr) of a parse that exits, as --help and usage errors do."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return (exc.value.code, *capsys.readouterr())


@pytest.mark.parametrize("argv", [[sub, "--help"] for sub in CONFIG_FLAGS]
                         + [["--help"], ["bogus"], [], ["evolve", "--perturb", "side"],
                            ["micro", "--frame", "lab"]])
def test_main_prints_what_the_full_parser_prints(capsys, argv):
    # main adds options only to the subparser its argv names
    full = _printed(capsys, cli.build_parser().parse_args, argv)
    assert full[0] in (0, 2) and full[1] + full[2]
    assert _printed(capsys, main, argv) == full


@pytest.mark.parametrize("sub", ["patch", "spectrum"])
@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_rejected_before_the_cap_is_set(tmp_path, capsys, monkeypatch,
                                                          sub, threads):
    # OpenBLAS takes 0 or a negative count as no cap at all
    for var in THREAD_VARS:
        monkeypatch.setenv(var, "7")
    assert main([sub, "--threads", threads, "--out", str(tmp_path / "run")]) != 0
    assert f"--threads must be >= 1, got {threads}" in capsys.readouterr().err
    assert [os.environ[v] for v in THREAD_VARS] == ["7", "7", "7"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("sub", list(CONFIG_FLAGS))
def test_negative_seed_rejected_naming_the_option(tmp_path, capsys, monkeypatch, sub):
    for var in THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    environ = dict(os.environ)
    assert main([sub, "--seed", "-1", "--threads", "2", "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"dropsed {sub}: error: --seed must be >= 0, got -1\n"
    assert dict(os.environ) == environ
    assert not (tmp_path / "run").exists()


def test_seed_above_64_bits_rejected_naming_the_option(tmp_path, capsys):
    # micro's SplitMix64 stream takes a 64-bit seed
    assert main(["micro", "--seed", "18446744073709551616", "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == (
        "dropsed micro: error: --seed must be < 2**64, got 18446744073709551616\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv, module, builder", [
    (["spectrum", "--K", "4"], "linear_stability", "_grid_kernel"),
    (["evolve", "--T", "0.01"], "surface_evolution", "_advection_geometry"),
], ids=["spectrum-kernel", "evolve-geometry"])
def test_failed_grid_allocation_names_ntheta(tmp_path, capsys, monkeypatch, argv, module, builder):
    # numpy's message gives only the bytes of the n^2 array ntheta asked for
    def unallocatable(grid):
        raise MemoryError(f"Unable to allocate {grid.n_theta ** 2 * 8} B")

    monkeypatch.setattr(getattr(dropsed, module), builder, unallocatable)
    assert main([*argv, "--ntheta", "16", "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == (
        f"dropsed {argv[0]}: error: ntheta=16 gives n^2 arrays that cannot be allocated: "
        "Unable to allocate 2048 B\n")


def test_threads_refused_once_numpy_is_loaded(tmp_path, capsys, monkeypatch):
    # this process has numpy loaded, so its BLAS pools are sized already
    assert "numpy" in sys.modules
    for var in THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    environ = dict(os.environ)
    assert main(["spectrum", "--K", "1", "--ntheta", "8", "--threads", "1",
                 "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == (
        "dropsed spectrum: error: --threads cannot cap this process: numpy is already loaded\n")
    assert dict(os.environ) == environ
    assert not (tmp_path / "run").exists()


class TestLoggingAndDebug:
    MICRO = ["micro", "--N", "20", "--T", "0.02", "--dt", "0.01", "--delta", "0.5", "--seed", "3"]

    def test_log_level_shows_clamp_notice_and_changes_no_output(self, tmp_path, capsys):
        package_log = logging.getLogger("dropsed")
        handlers, level = list(package_log.handlers), package_log.level
        runs, errs = [], []
        for name, flags in (("quiet", []), ("info", ["--log-level", "INFO", "--debug"])):
            out = tmp_path / name
            assert main(self.MICRO + flags + ["--out", str(out)]) == 0
            runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
            errs.append(capsys.readouterr().err)
        assert runs[0] == runs[1]
        assert "clamped" not in errs[0]
        assert "dropsed.micro_sim: INFO: clamped" in errs[1]
        assert package_log.handlers == handlers and package_log.level == level

    def test_debug_reraises_with_traceback(self, tmp_path, capsys):
        with pytest.raises(ValueError, match="R must be positive") as exc:
            main(["patch", "--R", "-3", "--debug", "--out", str(tmp_path / "x")])
        assert exc.traceback[-1].name == "run_patch"
        assert "error" not in capsys.readouterr().err
        assert main(["patch", "--R", "-3", "--out", str(tmp_path / "y")]) == 1
        assert "dropsed patch: error: R must be positive" in capsys.readouterr().err


def _fresh_interpreter_env() -> dict:
    """Environment for a child interpreter that imports this dropsed, with no thread cap set."""
    src = Path(dropsed.__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join([str(src), env.get("PYTHONPATH", "")])
    return env


def test_threads_cap_is_set_before_numpy_loads(tmp_path):
    # a fresh interpreter: this test process has numpy loaded already.  The
    # spectrum runner loads numpy, so it is loaded after the run and not before.
    script = (
        "import os, sys\n"
        "import dropsed.cli\n"
        "print('numpy' in sys.modules)\n"
        "rc = dropsed.cli.main(['spectrum', '--K', '1', '--ntheta', '8', '--threads', '3',"
        " '--out', sys.argv[1]])\n"
        f"print(rc, 'numpy' in sys.modules, *(os.environ[v] for v in {THREAD_VARS!r}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "run")],
                          env=_fresh_interpreter_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "0", "True", "3", "3", "3"]


def test_micro_files_do_not_depend_on_blas_threads(tmp_path):
    # the pair sum reduces its tiles in BLAS; each cap needs its own interpreter
    written = {}
    for threads in (1, 2):
        out = tmp_path / f"threads-{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "dropsed.cli", "micro", "--N", "400", "--T", "0.02",
             "--dt", "0.01", "--seed", "5", "--threads", str(threads), "--out", str(out)],
            env=_fresh_interpreter_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        written[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(written[1]) == ["frame_0000.csv", "frame_0001.csv", "manifest.json",
                                  "mean_velocity.json"]
    assert written[1] == written[2]
