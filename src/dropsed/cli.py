"""Command-line entry point for the four experiment families.

Configuration precedence is flags over config file over defaults; every run
writes a manifest (resolved config + seed + version) sufficient to reproduce
its outputs bit for bit, so nothing time- or host-dependent is ever written.
Heavy numeric imports happen after the thread cap is applied.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

__all__ = ["main"]


def _package_version() -> str:
    try:
        from importlib.metadata import version

        return version("dropsed")
    except Exception:
        return "0.1.0"


# ---------------------------------------------------------------------------
# configs


@dataclass
class PatchConfig:
    R: float = 0.5
    t_max: float = 100.0
    steps: int = 50


@dataclass
class SpectrumConfig:
    K: int = 4
    ntheta: int = 200
    nphi: int = 0  # 0 means 2 * ntheta


@dataclass
class EvolveConfig:
    r0: str = "const:1"
    T: float = 10.0
    dt: float = 0.01
    ntheta: int = 100
    nphi: int = 200
    policy: str = "fixed_wave_speed"
    prescribed_speed: float = 0.0
    snapshot_every: float = 0.0  # 0 means T / 10
    perturb: str = "none"
    eps: float = 0.2
    perturb_K: int = 25
    eigvec: str = ""
    svg: bool = False


@dataclass
class MicroConfig:
    N: int = 1000
    T: float = 1.0
    dt: float = 0.01
    delta: float = -1.0  # negative means the default fraction of mean spacing
    frame: str = "rescaled"
    snapshot_every: float = 0.0  # 0 means T


_CONFIG_TYPES = {
    "patch": PatchConfig,
    "spectrum": SpectrumConfig,
    "evolve": EvolveConfig,
    "micro": MicroConfig,
}


def _resolve_config(subcommand: str, args: argparse.Namespace) -> dict:
    """defaults < config file < explicitly passed flags."""
    cfg = dataclasses.asdict(_CONFIG_TYPES[subcommand]())
    if args.config:
        loaded = json.loads(Path(args.config).read_text())
        unknown = set(loaded) - set(cfg)
        if unknown:
            raise ValueError(f"unknown config keys for {subcommand}: {sorted(unknown)}")
        cfg.update(loaded)
    for key in cfg:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: str, rows) -> None:
    with path.open("w") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(repr(float(v)) for v in row) + "\n")


def _write_manifest(out: Path, subcommand: str, cfg: dict, seed: int, extra: dict | None = None) -> None:
    manifest = {"subcommand": subcommand, "config": cfg, "seed": seed,
                "version": _package_version()}
    if extra:
        manifest.update(extra)
    _write_json(out / "manifest.json", manifest)


# ---------------------------------------------------------------------------
# runners


def run_patch(cfg: dict, out: Path, seed: int) -> int:
    import numpy as np

    from . import patch_waves as pw

    if cfg["R"] <= 0:
        raise ValueError(f"R must be positive, got {cfg['R']}")
    R = float(cfg["R"])
    ts = np.linspace(0.0, float(cfg["t_max"]), int(cfg["steps"]) + 1)
    rows = []
    for t in ts:
        l1 = pw.l1_distance(R, float(t))
        _, w1_lower = pw.wasserstein_bounds(R, float(t))
        rows.append((t, l1, w1_lower))
    _write_csv(out / "patch.csv", "t,l1,w1_lower", rows)
    initial_upper, _ = pw.wasserstein_bounds(R, 0.0)
    summary = {
        "R": R,
        "t_max": float(cfg["t_max"]),
        "steps": int(cfg["steps"]),
        "separation_time": None if R == 1.0 else pw.separation_time(R),
        "l1_initial": pw.l1_distance(R, 0.0),
        "w1_initial_upper": initial_upper,
    }
    _write_json(out / "summary.json", summary)
    _write_manifest(out, "patch", cfg, seed)
    return 0


def run_spectrum(cfg: dict, out: Path, seed: int) -> int:
    import numpy as np

    from . import linear_stability as ls

    if cfg["K"] < 1 or cfg["ntheta"] < 8:
        raise ValueError("need K >= 1 and ntheta >= 8")
    n_phi = int(cfg["nphi"]) or 2 * int(cfg["ntheta"])
    A = ls.assemble_galerkin(int(cfg["K"]), int(cfg["ntheta"]), n_phi)
    try:
        report = ls.solve_spectrum(A)
    except ls.EigensolverError as exc:
        np.savetxt(out / "galerkin_matrix.csv", exc.matrix.entries, delimiter=",")
        raise
    _write_csv(out / "eigenvalues.csv", "re,im",
               [(lam.real, lam.imag) for lam in report.eigenvalues])
    theta = np.linspace(0.0, np.pi, int(cfg["ntheta"]))
    h = report.eigenvector_perturbation(0)
    _write_csv(out / "eigenvector.csv", "theta,h",
               [(t, np.real(h(t))) for t in theta])
    summary = {
        "K": int(cfg["K"]),
        "n_theta": int(cfg["ntheta"]),
        "n_phi": n_phi,
        "max_real": report.max_real,
        "threshold_1_over_15": round(1.0 / 15.0, 4),
        "symmetric_residual": report.symmetric_residual,
    }
    _write_json(out / "summary.json", summary)
    _write_manifest(out, "spectrum", cfg, seed)
    return 0


def _initial_profile(cfg: dict, out: Path):
    import numpy as np

    from . import linear_stability as ls
    from . import surface_evolution as se
    from .quadrature import ThetaGrid

    grid = ThetaGrid.uniform(int(cfg["ntheta"]))
    kind, _, value = cfg["r0"].partition(":")
    if kind != "const":
        raise ValueError(f"unsupported r0 spec {cfg['r0']!r}; expected const:VALUE")
    r = np.full(grid.n_theta, float(value or 1.0))
    if cfg["perturb"] == "dominant":
        if cfg["eigvec"]:
            data = np.loadtxt(cfg["eigvec"], delimiter=",", skiprows=1)
            from scipy.interpolate import CubicSpline

            h = CubicSpline(data[:, 0], data[:, 1])(grid.nodes)
        else:
            A = ls.assemble_galerkin(int(cfg["perturb_K"]), grid.n_theta)
            report = ls.solve_spectrum(A)
            h = np.real(report.eigenvector_perturbation(0)(grid.nodes))
        # eps is the actual perturbation amplitude: scale to unit sup norm
        h = h / np.max(np.abs(h))
        r = r + float(cfg["eps"]) * h
    elif cfg["perturb"] != "none":
        raise ValueError(f"unknown perturb mode {cfg['perturb']!r}")
    return se.RadialProfile(grid=grid, r=r)


def _meridian_svg(profile) -> str:
    import numpy as np

    theta = profile.grid.nodes
    x = profile.r * np.sin(theta)
    z = profile.c3 + profile.r * np.cos(theta)
    xs = np.concatenate([x, -x[::-1]])
    zs = np.concatenate([z, z[::-1]])
    lo_x, hi_x = xs.min() - 0.1, xs.max() + 0.1
    lo_z, hi_z = zs.min() - 0.1, zs.max() + 0.1
    pts = " ".join(f"{px:.5f},{(hi_z - pz + lo_z):.5f}" for px, pz in zip(xs, zs))
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{lo_x:.3f} {lo_z:.3f} '
        f'{hi_x - lo_x:.3f} {hi_z - lo_z:.3f}">'
        f'<polygon points="{pts}" fill="none" stroke="black" stroke-width="0.01"/></svg>\n'
    )


def run_evolve(cfg: dict, out: Path, seed: int) -> int:
    import numpy as np

    from . import surface_evolution as se
    from .quadrature import PhiGrid

    if cfg["policy"] == "prescribed":
        policy = se.CenterPolicy.prescribed(float(cfg["prescribed_speed"]))
    elif cfg["policy"] in ("fixed_wave_speed", "transported"):
        policy = se.CenterPolicy(mode=cfg["policy"])
    else:
        raise ValueError(f"unknown center policy {cfg['policy']!r}")
    phi_grid = PhiGrid.uniform(int(cfg["nphi"]))
    p = _initial_profile(cfg, out)
    dt = float(cfg["dt"])
    T = float(cfg["T"])
    # reject a CFL-violating dt before any stepping or output
    a1, _ = se.advection_and_source(p, policy.speed(p), phi_grid)
    if dt * float(np.max(np.abs(a1))) > p.grid.spacing:
        raise se.CflError(
            f"CFL violated at t=0: dt*max|a1| = {dt * float(np.max(np.abs(a1))):.3e} "
            f"> spacing {p.grid.spacing:.3e}"
        )

    def dump(idx: int, profile) -> None:
        tag = f"{idx:04d}"
        _write_csv(out / f"snapshot_{tag}.csv", "theta,r",
                   zip(profile.grid.nodes, profile.r))
        _write_json(out / f"snapshot_{tag}.json",
                    {"time": profile.time, "c3": profile.c3,
                     "n_theta": profile.grid.n_theta, "n_phi": int(cfg["nphi"]),
                     "dt": dt})
        if cfg["svg"]:
            (out / f"snapshot_{tag}.svg").write_text(_meridian_svg(profile))

    n_steps = int(round(T / dt))
    every = max(1, int(round((float(cfg["snapshot_every"]) or T / 10.0) / dt)))
    dump(0, p)
    idx = 1
    try:
        for k in range(1, n_steps + 1):
            p = se.step_upwind(p, dt, policy, phi_grid)
            if k % every == 0 or k == n_steps:
                dump(idx, p)
                idx += 1
    except se.SurfaceCollapseError:
        dump(idx, p)  # last valid profile
        _write_manifest(out, "evolve", cfg, seed)
        raise
    final_dev = float(np.max(np.abs(p.r - p.r.mean())))
    _write_json(out / "summary.json",
                {"final_time": p.time, "final_c3": p.c3,
                 "final_sup_deviation_from_mean": final_dev,
                 "snapshots": idx})
    _write_manifest(out, "evolve", cfg, seed)
    return 0


def run_micro(cfg: dict, out: Path, seed: int) -> int:
    import numpy as np

    from . import micro_sim as ms
    from .kernels import FluidParams

    if cfg["N"] < 1:
        raise ValueError(f"N must be >= 1, got {cfg['N']}")
    rng = np.random.default_rng(seed)
    params = FluidParams(mu=1.0, force=np.array([0.0, 0.0, -1.0]), radius=1e-2)
    delta = None if float(cfg["delta"]) < 0 else float(cfg["delta"])
    cloud = ms.uniform_ball_cloud(int(cfg["N"]), params, 1.0, rng, delta=delta)

    measured = ms.mean_settling_velocity(cloud)
    predicted = ms.mean_velocity_formula(cloud)
    rescaled, velocity_scale = ms.rescale_cloud(cloud)
    if cloud.n > 1:
        v_resc, _ = ms.rescaled_velocities(rescaled.positions, rescaled.delta)
        rescaled_mean = v_resc.mean(axis=0)
    else:
        rescaled_mean = np.zeros(3)
    _write_json(out / "mean_velocity.json", {
        "measured": [float(v) for v in measured],
        "formula": [float(v) for v in predicted],
        "relative_error_vertical": (
            abs(measured[2] - predicted[2]) / abs(predicted[2]) if predicted[2] else 0.0
        ),
        "velocity_scale": velocity_scale,
        "rescaled_mean_velocity": [float(v) for v in rescaled_mean],
        "rescaled_mean_speed": float(np.linalg.norm(rescaled_mean)),
    })

    start = rescaled if cfg["frame"] == "rescaled" else cloud
    traj = ms.evolve_cloud(start, float(cfg["T"]), float(cfg["dt"]), frame=cfg["frame"],
                           snapshot_every=float(cfg["snapshot_every"]) or None)
    for idx, (t, pos) in enumerate(zip(traj.times, traj.positions)):
        _write_csv(out / f"frame_{idx:04d}.csv", "id,x,y,z",
                   [(i, *row) for i, row in enumerate(pos)])
    _write_manifest(out, "micro", cfg, seed, extra={
        "N": int(cfg["N"]),
        "dt": float(cfg["dt"]),
        "T": float(cfg["T"]),
        "delta": start.delta,
        "frame_times": [float(t) for t in traj.times],
        "clamp_events": traj.clamp_events,
    })
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--out", type=Path, default=None, help="output directory")
    sp.add_argument("--config", type=str, default=None, help="JSON config file")
    sp.add_argument("--seed", type=int, default=None, help="RNG seed")
    sp.add_argument("--threads", type=int, default=None, help="cap BLAS/OpenMP threads")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dropsed",
                                     description="Droplet sedimentation experiments")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("patch", help="traveling-wave separation certificates")
    p.add_argument("--R", type=float, default=None)
    p.add_argument("--t-max", dest="t_max", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    _add_common(p)

    s = sub.add_parser("spectrum", help="Galerkin eigenvalues of the linearized operator")
    s.add_argument("--K", type=int, default=None)
    s.add_argument("--ntheta", type=int, default=None)
    s.add_argument("--nphi", type=int, default=None,
                   help="azimuthal grid size; recorded in outputs, changes no value")
    _add_common(s)

    e = sub.add_parser("evolve", help="nonlinear surface evolution")
    e.add_argument("--r0", type=str, default=None)
    e.add_argument("--T", type=float, default=None)
    e.add_argument("--dt", type=float, default=None)
    e.add_argument("--ntheta", type=int, default=None)
    e.add_argument("--nphi", type=int, default=None,
                   help="azimuthal grid size; recorded in outputs, changes no value")
    e.add_argument("--policy", type=str, default=None,
                   choices=("fixed_wave_speed", "transported", "prescribed"))
    e.add_argument("--prescribed-speed", dest="prescribed_speed", type=float, default=None)
    e.add_argument("--snapshot-every", dest="snapshot_every", type=float, default=None)
    e.add_argument("--perturb", type=str, default=None, choices=("none", "dominant"))
    e.add_argument("--eps", type=float, default=None)
    e.add_argument("--perturb-K", dest="perturb_K", type=int, default=None)
    e.add_argument("--eigvec", type=str, default=None,
                   help="theta,h CSV from a prior spectrum run")
    e.add_argument("--svg", action="store_const", const=True, default=None)
    _add_common(e)

    m = sub.add_parser("micro", help="Oseen particle cloud")
    m.add_argument("--N", type=int, default=None)
    m.add_argument("--T", type=float, default=None)
    m.add_argument("--dt", type=float, default=None)
    m.add_argument("--delta", type=float, default=None)
    m.add_argument("--frame", type=str, default=None,
                   choices=("rescaled", "lab", "drift_subtracted"))
    m.add_argument("--snapshot-every", dest="snapshot_every", type=float, default=None)
    _add_common(m)
    return parser


_RUNNERS = {
    "patch": run_patch,
    "spectrum": run_spectrum,
    "evolve": run_evolve,
    "micro": run_micro,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)
    seed = args.seed if args.seed is not None else 0
    try:
        cfg = _resolve_config(args.subcommand, args)
        out = args.out or Path("runs") / args.subcommand
        out.mkdir(parents=True, exist_ok=True)
        return _RUNNERS[args.subcommand](cfg, out, seed)
    except Exception as exc:  # guard trips exit nonzero with a message
        print(f"dropsed {args.subcommand}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
