import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dropsed
from dropsed.cli import main


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

    def test_invalid_k_rejected(self, tmp_path):
        assert main(["spectrum", "--K", "0", "--out", str(tmp_path / "x")]) == 1


class TestEvolveCommand:
    def test_stationary_run_emits_snapshots(self, tmp_path):
        out = tmp_path / "run"
        assert main(["evolve", "--r0", "const:1", "--T", "0.2", "--dt", "0.01",
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
        assert main(["evolve", "--r0", "const:1", *common, "--out", str(base)]) == 0
        assert main(["evolve", "--r0", "const:1", "--perturb", "dominant", "--eps", "0",
                     "--perturb-K", "6", *common, "--out", str(pert)]) == 0
        for name in ("snapshot_0000.csv", "snapshot_0001.csv"):
            assert (base / name).read_bytes() == (pert / name).read_bytes()

    def test_dominant_perturbation_amplitude(self, tmp_path):
        out = tmp_path / "run"
        assert main(["evolve", "--r0", "const:1", "--perturb", "dominant", "--eps", "0.2",
                     "--perturb-K", "6", "--T", "0.02", "--dt", "0.01",
                     "--ntheta", "40", "--nphi", "80", "--out", str(out)]) == 0
        _, data = read_csv(out / "snapshot_0000.csv")
        assert np.max(np.abs(data[:, 1] - 1.0)) == pytest.approx(0.2, rel=1e-9)


class TestMicroCommand:
    def test_single_particle(self, tmp_path):
        out = tmp_path / "run"
        assert main(["micro", "--N", "1", "--T", "1", "--dt", "0.01", "--out", str(out)]) == 0
        report = json.loads((out / "mean_velocity.json").read_text())
        assert report["measured"][2] == pytest.approx(-1.0 / (6.0 * math.pi * 1e-2), rel=1e-12)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["N"] == 1 and manifest["frame_times"][-1] == pytest.approx(1.0)

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

    def test_manifest_round_trip(self, tmp_path):
        first = tmp_path / "first"
        assert main(["patch", "--R", "0.8", "--steps", "12", "--out", str(first)]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        cfg = tmp_path / "replay.json"
        cfg.write_text(json.dumps(manifest["config"]))
        second = tmp_path / "second"
        assert main(["patch", "--config", str(cfg), "--seed", str(manifest["seed"]),
                     "--out", str(second)]) == 0
        assert (first / "patch.csv").read_bytes() == (second / "patch.csv").read_bytes()
        replay = json.loads((second / "manifest.json").read_text())
        assert replay["config"] == manifest["config"]


def test_threads_cap_is_set_before_numpy_loads(tmp_path):
    # a fresh interpreter: this test process has numpy loaded already
    script = (
        "import os, sys\n"
        "import dropsed.cli\n"
        "print('numpy' in sys.modules)\n"
        "rc = dropsed.cli.main(['patch', '--threads', '3', '--steps', '2', '--out', sys.argv[1]])\n"
        "print(rc, *(os.environ[v] for v in ('OMP_NUM_THREADS', 'OPENBLAS_NUM_THREADS',"
        " 'MKL_NUM_THREADS')))\n"
    )
    src = Path(dropsed.__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([str(src), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "run")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "0", "3", "3", "3"]
