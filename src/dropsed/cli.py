"""Command-line entry point for the four experiment families.

Each option is declared once, as a field of its subcommand's ``*Config``
dataclass: the field's name gives the flag, its default the type, and its
metadata any choices and help text.  A config file's values are checked
against the same fields as the flags are, so a runner reads only typed,
valid values.  Configuration precedence is flags over config file over
defaults; every run writes a manifest (resolved config + seed + version)
sufficient to reproduce its outputs bit for bit, so nothing time- or
host-dependent is ever written.  Heavy numeric imports happen after the
thread cap is applied, and only in the runners that compute with them:
``patch`` evaluates its closed forms on Python floats and loads no numpy.
In a process that has loaded numpy already, ``--threads`` could not apply,
so it is refused there.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import logging
import math
import os
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__

__all__ = ["main"]


# ---------------------------------------------------------------------------
# configs: one field per option, and each class docstring is its subcommand's help


@dataclass
class PatchConfig:
    """traveling-wave separation certificates"""

    R: float = 0.5
    t_max: float = 100.0
    steps: int = 50


@dataclass
class SpectrumConfig:
    """Galerkin eigenvalues of the linearized operator"""

    K: int = 4
    ntheta: int = 200


@dataclass
class EvolveConfig:
    """nonlinear surface evolution"""

    r0: float = 1.0
    T: float = 10.0
    dt: float = 0.01
    ntheta: int = 100
    nphi: int = field(default=200, metadata={"help": "azimuthal grid size; changes no value"})
    policy: str = field(default="fixed_wave_speed", metadata={
        "choices": ("fixed_wave_speed", "transported", "prescribed"),
        "help": "fixed_wave_speed: the wave speed of the initial sphere of radius r0"})
    prescribed_speed: float = 0.0
    snapshot_every: float = 0.0  # 0 means T / 10, rounded to whole steps (at least one)
    perturb: str = field(default="none", metadata={"choices": ("none", "dominant")})
    eps: float = 0.2
    perturb_K: int = 25
    eigvec: str = field(default="", metadata={"help": "theta,h CSV from a prior spectrum run"})
    svg: bool = False


@dataclass
class MicroConfig:
    """Oseen particle cloud, in the rescaled frame"""

    N: int = 1000
    T: float = field(default=1.0, metadata={
        "help": "rescaled time, as are dt and snapshot_every: the lab-frame run is "
                "x(t) = R0 y(s t / R0) + U_S t of the written frames y, with s the "
                "velocity_scale of mean_velocity.json, R0 = 1 and U_S = -e3 / (6 pi 0.01)"})
    dt: float = 0.01
    delta: float = -1.0  # negative means the default fraction of mean spacing
    snapshot_every: float = 0.0  # 0 means T


_CONFIG_TYPES = {
    "patch": PatchConfig,
    "spectrum": SpectrumConfig,
    "evolve": EvolveConfig,
    "micro": MicroConfig,
}


def _checked(f: dataclasses.Field, value):
    """A config-file value as the type of its field's default, within the field's choices.

    An int is accepted for a float and converted; nothing else is converted,
    so a bool is never taken for a number.
    """
    kind = type(f.default)
    if kind is float and type(value) is int:
        value = float(value)
    choices = f.metadata.get("choices")
    if type(value) is not kind or (choices and value not in choices):
        expected = f"one of {choices}" if choices else f"of type {kind.__name__}"
        raise ValueError(f"config key {f.name!r} must be {expected}, got {value!r}")
    return value


def _resolve_config(subcommand: str, args: argparse.Namespace) -> dict:
    """defaults < config file < explicitly passed flags."""
    fields = {f.name: f for f in dataclasses.fields(_CONFIG_TYPES[subcommand])}
    cfg = {name: f.default for name, f in fields.items()}
    if args.config:
        loaded = json.loads(Path(args.config).read_text())
        unknown = set(loaded) - set(cfg)
        if unknown:
            raise ValueError(f"unknown config keys for {subcommand}: {sorted(unknown)}")
        cfg.update((key, _checked(fields[key], value)) for key, value in loaded.items())
    for key in cfg:
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    return cfg


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: str, rows, first_column: list[str] | None = None) -> None:
    """Write a table given as rows of numbers, every entry as the repr of its Python float.

    Nothing here needs numpy: a caller holding an array passes its
    ``.tolist()``, whose entries are already Python floats.  A column that
    every file of a run shares (the particle ids, the theta nodes) is
    formatted once by the caller and passed as ``first_column``, one string
    per row; each row then holds the remaining entries.
    """
    lines = (",".join(map(repr, map(float, row))) for row in rows)
    if first_column is not None:
        lines = (f"{key},{line}" for key, line in zip(first_column, lines, strict=True))
    path.write_text("\n".join([header, *lines]) + "\n")


def _write_manifest(out: Path, subcommand: str, cfg: dict, seed: int, extra: dict | None = None) -> None:
    manifest = {"subcommand": subcommand, "config": cfg, "seed": seed,
                "version": __version__}
    if extra:
        manifest.update(extra)
    _write_json(out / "manifest.json", manifest)


# ---------------------------------------------------------------------------
# runners


def _check_galerkin_size(K: int, ntheta: int, key: str) -> None:
    """Check basis size K (run key ``key``) and grid: K > ntheta gives a rank-deficient matrix."""
    from .quadrature import MAX_BASIS_DEGREE

    if not (1 <= K <= MAX_BASIS_DEGREE + 1 and 8 <= ntheta and K <= ntheta):
        raise ValueError(f"need 1 <= {key} <= {MAX_BASIS_DEGREE + 1}, ntheta >= 8 and "
                         f"{key} <= ntheta, got {key}={K} and ntheta={ntheta}")


def _numpy_runner(runner):
    """``runner`` with numpy's floating-point warnings off, naming ntheta if memory runs out.

    Its finiteness checks report an overflow; numpy's warnings would only
    precede them.  A run with an ``ntheta`` builds n^2 kernel or geometry
    arrays, so an allocation that fails names that option; numpy's message
    gives only the bytes.  Only the runners that compute with numpy are
    wrapped, so ``patch`` never loads it.
    """
    @functools.wraps(runner)
    def run(cfg: dict, out: Path, seed: int) -> int:
        import numpy as np

        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                return runner(cfg, out, seed)
        except MemoryError as exc:
            if "ntheta" not in cfg:
                raise
            raise MemoryError(f"ntheta={cfg['ntheta']} gives n^2 arrays that cannot be "
                              f"allocated: {exc}") from exc
    return run


def run_patch(cfg: dict, out: Path, seed: int) -> int:
    from . import patch_waves as pw

    R = cfg["R"]
    if not 0.0 < R < math.inf:
        raise ValueError(f"R must be positive and finite, got {R!r}")
    if not 0.0 <= cfg["t_max"] < math.inf:
        raise ValueError(f"t_max must be finite and >= 0, got {cfg['t_max']!r}")
    if cfg["steps"] < 1:
        raise ValueError(f"steps must be >= 1, got {cfg['steps']}")
    # the times np.linspace(0, t_max, steps + 1) gives, bit for bit
    step = cfg["t_max"] / cfg["steps"]
    ts = [k * step for k in range(cfg["steps"])] + [cfg["t_max"]]
    rows = []
    for t in ts:
        try:  # l1_distance's R**3 raises OverflowError for R above about 5.6e102
            row = (t, pw.l1_distance(R, t), pw.wasserstein_bounds(R, t)[1])
        except OverflowError:
            row = (t, math.inf, math.inf)
        if not all(map(math.isfinite, row)):
            raise ValueError(f"the patch distances at R={R!r}, t={t!r} overflow a float")
        rows.append(row)
    _write_csv(out / "patch.csv", "t,l1,w1_lower", rows)
    initial_upper, _ = pw.wasserstein_bounds(R, 0.0)
    summary = {
        "R": R,
        "t_max": cfg["t_max"],
        "steps": cfg["steps"],
        "separation_time": None if R == 1.0 else pw.separation_time(R),
        "l1_initial": pw.l1_distance(R, 0.0),
        "w1_initial_upper": initial_upper,
    }
    _write_json(out / "summary.json", summary)
    _write_manifest(out, "patch", cfg, seed)
    return 0


@_numpy_runner
def run_spectrum(cfg: dict, out: Path, seed: int) -> int:
    import numpy as np

    from . import linear_stability as ls
    from .quadrature import ThetaGrid

    _check_galerkin_size(cfg["K"], cfg["ntheta"], "K")
    A = ls.assemble_galerkin(cfg["K"], cfg["ntheta"])
    try:
        report = ls.solve_spectrum(A)
    except ls.EigensolverError as exc:
        np.savetxt(out / "galerkin_matrix.csv", exc.matrix, delimiter=",")
        raise
    _write_csv(out / "eigenvalues.csv", "re,im",
               [(lam.real, lam.imag) for lam in report.eigenvalues])
    theta = ThetaGrid.uniform(cfg["ntheta"]).nodes
    h = report.eigenvector_perturbation(0)
    _write_csv(out / "eigenvector.csv", "theta,h",
               np.column_stack([theta, np.real(h(theta))]).tolist())
    summary = {
        "K": cfg["K"],
        "n_theta": cfg["ntheta"],
        "max_real": report.max_real,
        "threshold_1_over_15": round(ls.INSTABILITY_THRESHOLD, 4),
        "symmetric_residual": report.symmetric_residual,
    }
    _write_json(out / "summary.json", summary)
    _write_manifest(out, "spectrum", cfg, seed)
    return 0


def _initial_profile(cfg: dict):
    import numpy as np

    from . import linear_stability as ls
    from . import surface_evolution as se
    from .quadrature import ThetaGrid, hermite, spline_slopes

    grid = ThetaGrid.uniform(cfg["ntheta"])
    r0 = cfg["r0"]
    if not 0.0 < r0 < math.inf:
        raise ValueError(f"r0 must be positive and finite, got {r0!r}")
    if r0 * r0 < sys.float_info.min:  # the kernels' r * r' would underflow
        raise ValueError(f"r0 must have a square of at least {sys.float_info.min!r}, "
                         f"got r0={r0!r}")
    if not math.isfinite(cfg["eps"]):
        raise ValueError(f"eps must be finite, got {cfg['eps']!r}")
    r = np.full(grid.n_theta, r0)
    if cfg["perturb"] == "dominant":
        if cfg["eigvec"]:
            try:  # numpy warns of a file without rows; that is an unreadable file too
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    table = np.loadtxt(cfg["eigvec"], delimiter=",", skiprows=1, ndmin=2)
            except (UserWarning, ValueError) as exc:
                raise ValueError(f"eigvec {cfg['eigvec']!r} is not a theta,h table: {exc}") from None
            theta, h = table[:, 0], table[:, -1]
            # the spline would silently extrapolate a file that does not span [0, pi]
            if not (table.shape[0] >= 4 and table.shape[1] == 2 and np.isfinite(h).all()
                    and theta[0] == 0.0 and theta[-1] == math.pi and (np.diff(theta) > 0).all()):
                raise ValueError(f"eigvec {cfg['eigvec']!r} must have >= 4 rows of theta,h, theta "
                                 "increasing strictly from 0 to pi and finite h")
            h = hermite(theta, spline_slopes(theta), grid.nodes) @ h
        else:
            _check_galerkin_size(cfg["perturb_K"], grid.n_theta, "perturb_K")
            A = ls.assemble_galerkin(cfg["perturb_K"], grid.n_theta)
            report = ls.solve_spectrum(A)
            h = np.real(report.eigenvector_perturbation(0)(grid.nodes))
        # eps is the actual perturbation amplitude: scale to unit sup norm
        sup = float(np.max(np.abs(h)))
        if not 0.0 < sup < math.inf:
            source = (f"eigvec {cfg['eigvec']!r}" if cfg["eigvec"]
                      else f"perturb_K={cfg['perturb_K']}")
            raise ValueError(f"{source} gives a perturbation of sup norm {sup!r}; "
                             "it must be positive and finite")
        h = h / sup
        r = r + cfg["eps"] * h
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


@_numpy_runner
def run_evolve(cfg: dict, out: Path, seed: int) -> int:
    import numpy as np

    from . import surface_evolution as se
    from .patch_waves import wave_speed
    from .quadrature import PhiGrid, step_count

    dt, T = cfg["dt"], cfg["T"]
    step_count(T, dt)  # before the default cadence below divides by dt
    if not math.isfinite(cfg["prescribed_speed"]):
        raise ValueError(f"prescribed_speed must be finite, got {cfg['prescribed_speed']!r}")
    for key, mode, value in (("prescribed_speed", "policy", "prescribed"),
                             ("eigvec", "perturb", "dominant")):
        if cfg[key] and cfg[mode] != value:
            raise ValueError(f"{key}={cfg[key]!r} is read only under {mode} {value}, "
                             f"got {mode} {cfg[mode]}")
    phi_grid = PhiGrid.uniform(cfg["nphi"])
    p = _initial_profile(cfg)  # rejects a bad r0 before its wave speed is read
    cdot3 = {"fixed_wave_speed": wave_speed(cfg["r0"]), "transported": None,
             "prescribed": cfg["prescribed_speed"]}[cfg["policy"]]
    if cdot3 is not None and not math.isfinite(cdot3):
        raise ValueError(f"policy {cfg['policy']} gives a non-finite center speed {cdot3!r} "
                         f"at r0={cfg['r0']!r}")
    tags = itertools.count()
    theta = [repr(x) for x in p.grid.nodes.tolist()]  # every snapshot shares the grid

    def dump(profile) -> None:
        tag = f"{next(tags):04d}"
        _write_csv(out / f"snapshot_{tag}.csv", "theta,r", profile.r[:, None].tolist(),
                   first_column=theta)
        _write_json(out / f"snapshot_{tag}.json",
                    {"time": profile.time, "c3": profile.c3,
                     "n_theta": profile.grid.n_theta, "dt": dt})
        if cfg["svg"]:
            (out / f"snapshot_{tag}.svg").write_text(_meridian_svg(profile))

    every = cfg["snapshot_every"] or max(1, round(T / 10.0 / dt)) * dt
    try:
        snaps = se.evolve(p, T, dt, cdot3, phi_grid, snapshot_every=every, on_snapshot=dump)
    except se.SurfaceCollapseError as exc:
        dump(exc.profile)
        _write_manifest(out, "evolve", cfg, seed)
        raise
    p = snaps[-1]
    final_dev = float(np.max(np.abs(p.r - p.r.mean())))
    _write_json(out / "summary.json",
                {"final_time": p.time, "final_c3": p.c3,
                 "final_sup_deviation_from_mean": final_dev,
                 "snapshots": len(snaps)})
    _write_manifest(out, "evolve", cfg, seed)
    return 0


@_numpy_runner
def run_micro(cfg: dict, out: Path, seed: int) -> int:
    import numpy as np

    from . import micro_sim as ms
    from .kernels import stokes_drag_velocity
    from .patch_waves import SplitMix64

    if cfg["N"] < 1:
        raise ValueError(f"N must be >= 1, got {cfg['N']}")
    delta = None if cfg["delta"] < 0 else cfg["delta"]
    cloud = ms.uniform_ball_cloud(cfg["N"], 1.0, SplitMix64(seed), particle_radius=1e-2,
                                  delta=delta)
    drag = stokes_drag_velocity(cloud.particle_radius)

    rescaled, velocity_scale = ms.rescale_cloud(cloud)
    traj = ms.evolve_cloud(rescaled, cfg["T"], cfg["dt"],
                           snapshot_every=cfg["snapshot_every"] or None)
    # The t = 0 pair sum gives both means: under the unit force along -e3 the
    # physical interaction velocity is velocity_scale times the rescaled one.
    rescaled_mean = traj.initial_velocity.mean(axis=0)
    measured = drag + velocity_scale * rescaled_mean
    predicted = ms.mean_velocity_formula(cloud)
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

    ids = [repr(float(i)) for i in range(cloud.n)]
    for idx, pos in enumerate(traj.positions):
        _write_csv(out / f"frame_{idx:04d}.csv", "id,x,y,z", pos.tolist(), first_column=ids)
    _write_manifest(out, "micro", cfg, seed, extra={
        "N": cfg["N"],
        "dt": cfg["dt"],
        "T": cfg["T"],
        "delta": cloud.delta,
        "frame_times": traj.times.tolist(),
        "clamp_events": traj.clamp_events,
    })
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--out", type=Path, default=None, help="output directory")
    sp.add_argument("--config", type=str, default=None, help="JSON config file")
    sp.add_argument("--seed", type=int, default=None,
                    help="seed of the SplitMix64 stream that samples micro's cloud, "
                         "0 <= seed < 2**64")
    sp.add_argument("--threads", type=int, default=None, help="cap BLAS/OpenMP threads")
    sp.add_argument("--log-level", dest="log_level", default="WARNING",
                    choices=("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"),
                    help="show dropsed log messages at this level and above on stderr")
    sp.add_argument("--debug", action="store_true",
                    help="re-raise errors with their traceback instead of a one-line message")


def build_parser(subcommand: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser; given a ``subcommand``, only it gets options (top-level help needs none)."""
    parser = argparse.ArgumentParser(prog="dropsed",
                                     description="Droplet sedimentation experiments")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, config_type in _CONFIG_TYPES.items():
        sp = sub.add_parser(name, help=config_type.__doc__)
        if subcommand not in (None, name):
            continue
        for f in dataclasses.fields(config_type):
            flag = "--" + f.name.replace("_", "-")
            # default None marks a flag as not passed, so it cannot override the config file
            if type(f.default) is bool:
                sp.add_argument(flag, dest=f.name, action="store_const", const=True, default=None)
            else:
                sp.add_argument(flag, dest=f.name, type=type(f.default), default=None, **f.metadata)
        _add_common(sp)
    return parser


_RUNNERS = {
    "patch": run_patch,
    "spectrum": run_spectrum,
    "evolve": run_evolve,
    "micro": run_micro,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv and argv[0] in _CONFIG_TYPES else None).parse_args(argv)
    problem = None
    if args.seed is not None and args.seed < 0:
        problem = f"--seed must be >= 0, got {args.seed}"
    elif args.seed is not None and args.seed >= 2**64:  # SplitMix64 takes a 64-bit seed
        problem = f"--seed must be < 2**64, got {args.seed}"
    elif args.threads is not None and args.threads < 1:  # OpenBLAS reads 0 or less as no cap
        problem = f"--threads must be >= 1, got {args.threads}"
    elif args.threads is not None and "numpy" in sys.modules:  # its pools are already sized
        problem = "--threads cannot cap this process: numpy is already loaded"
    if problem:
        print(f"dropsed {args.subcommand}: error: {problem}", file=sys.stderr)
        return 2
    if args.threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)
    seed = args.seed if args.seed is not None else 0
    # the package logger is configured for this call only, so repeated
    # in-process calls neither stack handlers nor leak the level
    package_log = logging.getLogger("dropsed")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(levelname)s: %(message)s"))
    previous_level = package_log.level
    package_log.addHandler(handler)
    package_log.setLevel(args.log_level)
    try:
        cfg = _resolve_config(args.subcommand, args)
        out = args.out or Path("runs") / args.subcommand
        out.mkdir(parents=True, exist_ok=True)
        return _RUNNERS[args.subcommand](cfg, out, seed)
    except Exception as exc:  # guard trips exit nonzero with a message
        if args.debug:
            raise
        print(f"dropsed {args.subcommand}: error: {exc}", file=sys.stderr)
        return 1
    finally:
        package_log.removeHandler(handler)
        package_log.setLevel(previous_level)


if __name__ == "__main__":
    sys.exit(main())
