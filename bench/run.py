"""Benchmark for dropsed: three CLI workloads timed end to end, and a traced run for layers.

Run from the repository root:

    python3 bench/run.py --workload linear|evolve|micro|all --seed N --seconds S --trace 0|1

Every iteration runs in a fresh child process (``bench/child.py``), one at a
time: a closed loop with a single client, BLAS/OpenMP pinned to one thread.
Iterations repeat while the next one is expected to end within ``--seconds``
(at least ``MIN_RUNS`` of them).  With ``--trace 0`` the result holds the
end-to-end metrics, medians over the iterations; with ``--trace 1`` untraced
and traced iterations alternate, and the result holds per-layer metrics from
the traced ones plus the tracing overhead.  Lines before the last one are for
people; the last line is the JSON result (with ``all``, one result per
workload, keyed by name).  The seed reaches the program only through
``micro``'s cloud; ``linear`` and ``evolve`` are deterministic and just record
it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORKLOADS = ("linear", "evolve", "micro")
MIN_RUNS = 3
DEADLINE_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_child(workload: str, seed: int, size: str, traced: bool, out: Path, timeout: float) -> dict:
    """One iteration; a child that crashes or times out is a failed run, never dropped."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed),
           "--size", size, "--trace", str(int(traced)), "--out", str(out)]
    shutil.rmtree(out, ignore_errors=True)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "traced": traced, "error": f"timed out after {timeout:.0f} s"}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record = {"ok": False, "error": f"child exited with {proc.returncode}, no result"}
    if proc.returncode != 0:
        record["ok"] = False
        sys.stderr.write(proc.stderr[-2000:])
    record["traced"] = traced
    return record


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def source_fingerprint() -> dict:
    """Git sha when the tree is a git checkout, and a hash of the package sources."""
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dropsed").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def bench_workload(workload: str, args: argparse.Namespace) -> dict | None:
    """Run one workload for ``args.seconds``, print its metrics, return its result."""
    out_root = ROOT / ".bench_out"
    start = time.perf_counter()
    runs: list[dict] = []
    while True:
        elapsed = time.perf_counter() - start
        per_run = elapsed / len(runs) if runs else 0.0
        if elapsed >= DEADLINE_S or (len(runs) >= MIN_RUNS and elapsed + per_run > args.seconds):
            break
        traced = args.trace == 1 and len(runs) % 2 == 1
        runs.append(run_child(workload, args.seed, args.size, traced,
                              out_root / f"{workload}-{len(runs)}", DEADLINE_S - elapsed))

    timed = [r for r in runs if "wall_s" in r]
    plain = [r for r in timed if not r["traced"]]
    traced_runs = [r for r in timed if r["traced"] and "layers" in r]
    if not plain or (args.trace and not traced_runs):
        print(f"bench: no timed iteration of {workload} completed", file=sys.stderr)
        return None
    attempted, failed = len(runs), sum(not r["ok"] for r in runs)
    ratios = [max(r["checks"].values(), default=0.0) for r in runs if r.get("checks")]
    err_to_tol = max(ratios) if ratios else float("inf")

    wall = [r["wall_s"] for r in plain]
    q1, wall_med, q3 = quartiles(wall)
    setup = statistics.median(r["setup_s"] for r in timed)
    rss = statistics.median(r["peak_rss_mb"] for r in plain)
    print(f"workload {workload}  seed {args.seed}  trace {args.trace}  "
          f"runs {attempted} ({len(plain)} untraced, {len(traced_runs)} traced)")
    print(f"  wall_s       {wall_med:.4f} s    median of {len(wall)}; quartiles {q1:.4f} .. {q3:.4f}")
    print(f"  setup_s      {setup:.4f} s    median of {len(timed)}")
    print(f"  peak_rss_mb  {rss:.1f} MiB  median of {len(plain)}")
    print(f"  err_to_tol   {err_to_tol:.4g} ratio  worst check over all runs; 1 or less passes")
    print(f"  fail_frac    {failed / attempted:.4g} frac  {failed} of {attempted} runs failed")
    for name in (runs[0].get("checks") or {}):
        worst = max(r["checks"][name] for r in runs if r.get("checks"))
        print(f"  check {name:26s} {worst:.3g}")
    for r in runs:
        if r.get("error"):
            print(f"  error: {r['error'].strip().splitlines()[-1]}")

    if args.trace == 0:
        metrics = {"wall_s": (wall_med, "s"), "setup_s": (setup, "s"), "peak_rss_mb": (rss, "MiB")}
    else:
        names = traced_runs[0]["layers"]
        metrics = {name: (statistics.median(r["layers"][name][0] for r in traced_runs),
                          names[name][1]) for name in names}
        traced_wall = statistics.median(r["wall_s"] for r in traced_runs)
        metrics["trace.overhead_frac"] = (traced_wall / wall_med - 1.0, "frac")
        metrics["checks.err_to_tol"] = (min(err_to_tol, 1e300), "ratio")
        for name, (value, unit) in metrics.items():
            print(f"  {name:62s} {value:.6g} {unit}")
        out_root.mkdir(exist_ok=True)
        spans = out_root / f"spans-{workload}.json"
        spans.write_text(json.dumps([r["spans"] for r in traced_runs]) + "\n")
        print(f"  spans of {len(traced_runs)} traced runs written to {spans.relative_to(ROOT)}")
    try:
        out_root.rmdir()
    except OSError:
        pass
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "versions": timed[0]["versions"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, required=True, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="problem sizes; 'tiny' is for the smoke test")
    args = parser.parse_args()
    if not (ROOT / "src" / "dropsed" / "__init__.py").is_file():
        print(f"bench: no dropsed package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    results = {}
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        result = bench_workload(workload, args)
        if result is None:
            return 1
        results[workload] = result
    versions = [r.pop("versions") for r in results.values()]
    env = {**source_fingerprint(), **versions[0],
           "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "threads": {var: "1" for var in THREAD_VARS}, "seed": args.seed,
           "size": args.size, "seconds": args.seconds}
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(results if args.workload == "all" else result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
