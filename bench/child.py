"""One benchmark iteration in a fresh process: import dropsed, run one workload, check it.

``bench/run.py`` starts this file once per iteration,

    python3 bench/child.py --workload linear --seed 0 --size full --trace 0 --out DIR

and reads the JSON object printed on its last stdout line.  BLAS and OpenMP
pools are pinned to one thread before numpy is imported; the CLI's
``--threads`` flag cannot do that, because numpy is already loaded when it
is applied.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

# setup_s: what a CLI user pays before the first layer call
_t0 = time.perf_counter()
import numpy as np  # noqa: E402
import scipy  # noqa: E402

import dropsed  # noqa: E402
from dropsed import cli  # noqa: E402
from dropsed import linear_stability as ls  # noqa: E402
from dropsed import micro_sim as ms  # noqa: E402
from dropsed import surface_evolution as se  # noqa: E402
from dropsed.quadrature import PhiGrid, ThetaGrid  # noqa: E402

SETUP_S = time.perf_counter() - _t0

from tracing import Tracer  # noqa: E402

# "full" is what the benchmark times.  It scales larger reference runs (linear
# n=401, t=5 as in acceptance criterion 7; evolve T=2; micro N=2000 as in
# criterion 9) down to a few seconds per iteration, keeping each layer's share:
# the cold kernel build is ~3/4 of `linear`, advection_and_source >95% of
# `evolve`, the pair sum nearly all of `micro`.
# "tiny" is for the smoke test; its checks run but are not expected to pass.
SIZES = {
    "full": {
        "linear": {"K": 16, "ntheta": 251, "t": 2.5, "dt": 0.01},
        "evolve": {"K": 16, "ntheta": 100, "nphi": 200, "T": 0.5, "dt": 0.01, "eps": 0.05},
        "micro": {"N": 1200, "T": 0.05, "dt": 0.01, "every": 0.01},
    },
    "tiny": {
        "linear": {"K": 4, "ntheta": 21, "t": 0.1, "dt": 0.01},
        "evolve": {"K": 4, "ntheta": 21, "nphi": 42, "T": 0.1, "dt": 0.01, "eps": 0.05},
        "micro": {"N": 50, "T": 0.05, "dt": 0.01, "every": 0.01},
    },
}


def _args(*pairs) -> list[str]:
    return [str(x) for x in pairs]


def _ratio(err: float, tol: float) -> float:
    """|err| / tol; a check passes when this is at most 1."""
    r = abs(err) / tol
    return r if math.isfinite(r) else math.inf


# ---------------------------------------------------------------------------
# workloads: body (timed) and checks (untimed, read from the written outputs)


def linear_body(size: dict, seed: int, out: Path):
    n, K = size["ntheta"], size["K"]
    rc = cli.main(_args("spectrum", "--K", K, "--ntheta", n, "--seed", seed, "--out", out))
    report = ls.solve_spectrum(ls.assemble_galerkin(K, n))  # reuses the cached kernel
    h0 = report.eigenvector_perturbation(0)
    evolution = ls.linearized_evolve(h0, size["t"], ThetaGrid.uniform(n),
                                     PhiGrid.uniform(2 * n), dt=size["dt"])
    return rc, (report, evolution)


def linear_checks(size: dict, out: Path, state) -> dict:
    report, evolution = state
    max_real = json.loads((out / "summary.json").read_text())["max_real"]
    rate = ls.measured_growth_rate(evolution, 0.0, size["t"], norm="sup")
    lam = report.operator_max_real
    return {
        "max_real_vs_table": _ratio(max_real - 0.199, 5e-3),
        "max_real_above_1_15": (1.0 / 15.0) / max_real if max_real > 0 else math.inf,
        "sup_rate_vs_operator": _ratio((rate - lam) / lam, 0.10),
    }


def evolve_body(size: dict, seed: int, out: Path):
    rc = cli.main(_args("evolve", "--perturb", "dominant", "--perturb-K", size["K"],
                        "--eps", size["eps"], "--ntheta", size["ntheta"], "--nphi", size["nphi"],
                        "--T", size["T"], "--dt", size["dt"], "--seed", seed, "--out", out))
    return rc, None


def evolve_checks(size: dict, out: Path, state) -> dict:
    summary = json.loads((out / "summary.json").read_text())
    snaps = sorted(out.glob("snapshot_*.csv"))
    radii = [np.loadtxt(p, delimiter=",", skiprows=1)[:, 1] for p in snaps]
    min_r = min(float(np.min(r)) for r in radii)
    grid = ThetaGrid.uniform(size["ntheta"])
    drift = math.inf
    if min_r > 0:
        v0, v1 = (se.enclosed_volume(se.RadialProfile(grid=grid, r=r)) for r in (radii[0], radii[-1]))
        drift = (v1 - v0) / v0
    T = size["T"]
    return {
        "final_time": _ratio(summary["final_time"] - T, 1e-9),
        "final_c3": _ratio(summary["final_c3"] + (4.0 / 15.0) * T, 1e-9),
        "volume_drift": _ratio(drift, 1e-2),
        "snapshot_count": _ratio(len(snaps) - 11, 0.5),
        "min_r_positive": 0.0 if min_r > 0 else math.inf,
    }


def micro_body(size: dict, seed: int, out: Path):
    rc = cli.main(_args("micro", "--N", size["N"], "--T", size["T"], "--dt", size["dt"],
                        "--snapshot-every", size["every"], "--seed", seed, "--out", out))
    return rc, None


def micro_checks(size: dict, out: Path, state) -> dict:
    mean = json.loads((out / "mean_velocity.json").read_text())
    times = json.loads((out / "manifest.json").read_text())["frame_times"]
    frames = sorted(out.glob("frame_*.csv"))
    n_frames = round(size["T"] / size["every"]) + 1
    expected = [k * size["every"] for k in range(n_frames)]
    time_err = (max(abs(a - b) for a, b in zip(times, expected))
                if len(times) == n_frames else math.inf)
    nonfinite = sum(int(np.count_nonzero(~np.isfinite(np.loadtxt(f, delimiter=",", skiprows=1))))
                    for f in frames)
    return {
        "mean_velocity_vs_formula": _ratio(mean["relative_error_vertical"], 0.05),
        "rescaled_mean_speed": _ratio(mean["rescaled_mean_speed"] - 1.0, 0.05),
        "frame_count": _ratio(len(frames) - n_frames, 0.5),
        "frame_times": _ratio(time_err, 1e-12),
        "positions_finite": _ratio(nonfinite, 0.5),
    }


WORKLOADS = {
    "linear": (linear_body, linear_checks),
    "evolve": (evolve_body, evolve_checks),
    "micro": (micro_body, micro_checks),
}


# ---------------------------------------------------------------------------
# traced run: where the wrappers go and what each span counts


def trace_targets() -> list:
    """(owner, name, span name, count hook) for every traced layer boundary."""
    cold = set()

    def assembly(a, result, seconds):
        key = (a["n_theta"], a["n_phi"] or 2 * a["n_theta"])
        if key in cold:
            return {}
        cold.add(key)
        return {"kernel_samples": key[0] ** 2 * key[1], "cold_s": seconds}

    def steps(a, result, seconds):
        return {"steps": round(a["t"] / a["dt"])}

    def quadrature(a, result, seconds):
        n, n_phi = a["p"].grid.n_theta, a["phi_grid"].n_phi
        cells = n * (n - 1) * n_phi  # one (n, n-1, n_phi) tensor
        return {"quad_samples": 2 * cells, "tensor_mib": 8 * cells / 2**20}

    def pairs(a, result, seconds):
        n = len(a["cloud"].positions if "cloud" in a else a["positions"])
        return {"pairs": n * (n - 1), "clamps": result[1]}

    return [
        (ls, "assemble_galerkin", "linear_stability.assemble_galerkin", assembly),
        (ls, "solve_spectrum", "linear_stability.solve_spectrum", None),
        (ls.SpectrumReport, "eigenvector_perturbation", "linear_stability.eigenvector_perturbation", None),
        (ls, "linearized_evolve", "linear_stability.linearized_evolve", steps),
        (ls, "desingularized_ratio", "kernels.desingularized_ratio", None),
        (ls, "basis_matrix", "quadrature.basis_matrix", None),
        (se, "advection_and_source", "surface_evolution.advection_and_source", quadrature),
        (se, "step_upwind", "surface_evolution.step_upwind", None),
        (ms, "cloud_velocities", "micro_sim.velocities", pairs),
        (ms, "rescaled_velocities", "micro_sim.velocities", pairs),
        (ms, "evolve_cloud", "micro_sim.evolve_cloud", None),
        *[(cli._RUNNERS, sub, "cli.runner", None) for sub in cli._RUNNERS],
    ]


def layer_metrics(layers: dict, root_s: float, wall_s: float, bytes_written: int) -> dict:
    """Per-layer metrics of one traced iteration, as {name: [value, unit]}."""
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}}

    def span(name):
        return layers.get(name, empty)

    def count(name, key):
        return span(name)["counts"].get(key, 0)

    def rate(n, seconds):
        return n / seconds if seconds > 0 else 0.0

    asm = span("linear_stability.assemble_galerkin")
    lev = span("linear_stability.linearized_evolve")
    adv = span("surface_evolution.advection_and_source")
    vel = span("micro_sim.velocities")
    samples = count("linear_stability.assemble_galerkin", "kernel_samples")
    steps = count("linear_stability.linearized_evolve", "steps")
    quad = count("surface_evolution.advection_and_source", "quad_samples")
    pairs = count("micro_sim.velocities", "pairs")
    return {
        "linear_stability.assemble_galerkin.self_s": [asm["self_s"], "s"],
        "linear_stability.assemble_galerkin.calls": [asm["calls"], "count"],
        "linear_stability.kernel.computed_samples": [samples, "count"],
        "linear_stability.kernel.samples_per_s": [rate(samples, asm["counts"].get("cold_s", 0.0)), "1/s"],
        "kernels.desingularized_ratio.self_s": [span("kernels.desingularized_ratio")["self_s"], "s"],
        "linear_stability.linearized_evolve.self_s": [lev["self_s"], "s"],
        "linear_stability.linearized_evolve.steps": [steps, "count"],
        "linear_stability.linearized_evolve.steps_per_s": [rate(steps, lev["total_s"]), "1/s"],
        "linear_stability.solve_spectrum.self_s": [span("linear_stability.solve_spectrum")["self_s"], "s"],
        "quadrature.basis_matrix.self_s": [span("quadrature.basis_matrix")["self_s"], "s"],
        "surface_evolution.advection_and_source.self_s": [adv["self_s"], "s"],
        "surface_evolution.advection_and_source.calls": [adv["calls"], "count"],
        "surface_evolution.advection_and_source.computed_quad_samples": [quad, "count"],
        "surface_evolution.advection_and_source.quad_samples_per_s": [rate(quad, adv["total_s"]), "1/s"],
        "surface_evolution.step_upwind.self_s": [span("surface_evolution.step_upwind")["self_s"], "s"],
        "surface_evolution.tensor_mb": [
            rate(count("surface_evolution.advection_and_source", "tensor_mib"), adv["calls"]), "MiB"],
        "micro_sim.velocities.self_s": [vel["self_s"], "s"],
        "micro_sim.computed_pairs": [pairs, "count"],
        "micro_sim.mpair_per_s": [rate(pairs, vel["total_s"]) / 1e6, "Mpair/s"],
        "micro_sim.evolve_cloud.self_s": [span("micro_sim.evolve_cloud")["self_s"], "s"],
        "micro_sim.clamp_events": [count("micro_sim.velocities", "clamps"), "count"],
        "cli.runner.self_s": [span("cli.runner")["self_s"], "s"],
        "cli.bytes_written": [bytes_written, "B"],
        "trace.span_coverage": [rate(root_s, wall_s), "frac"],
    }


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=sorted(SIZES))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    if not Path(dropsed.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"bench: imported dropsed from {dropsed.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    body, checks = WORKLOADS[args.workload]
    size = SIZES[args.size][args.workload]
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install(trace_targets())
    record = {"setup_s": SETUP_S, "error": None, "checks": {},
              "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                           "scipy": scipy.__version__, "dropsed": dropsed.__version__}}
    args.out.mkdir(parents=True, exist_ok=True)
    state = None
    t0 = time.perf_counter()
    try:
        rc, state = body(size, args.seed, args.out)
        if rc != 0:
            record["error"] = f"dropsed CLI exited with {rc}"
    except Exception:  # a failing run still reports its timing
        record["error"] = traceback.format_exc()
    record["wall_s"] = time.perf_counter() - t0
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    bytes_written = sum(p.stat().st_size for p in args.out.rglob("*") if p.is_file())
    if record["error"] is None:
        try:
            record["checks"] = checks(size, args.out, state)
        except Exception:
            record["error"] = traceback.format_exc()
    if tracer:
        layers, root_s = tracer.summary()
        record["layers"] = layer_metrics(layers, root_s, record["wall_s"], bytes_written)
        record["spans"] = [{**span, "start": span["start"] - t0, "end": span["end"] - t0}
                           for span in tracer.spans]
    record["ok"] = record["error"] is None and all(r <= 1.0 for r in record["checks"].values())
    if record["error"]:
        print(record["error"], file=sys.stderr)
    print(json.dumps(record))
    return 0 if record["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
