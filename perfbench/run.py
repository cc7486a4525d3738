"""irsopt benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload fig3-sweep --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; irsopt is imported from its ``src/``.
Set-up is timed in several fresh processes and the workload runs in one
more, each with one BLAS thread.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of the traced calls and the
tracing overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Workloads and the
metric table are described in ``perfbench/NOTES.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import layertrace
import workloads
from worker import THREAD_VARS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_RUNS = 9              # measured set-ups per run, after one unmeasured
DEADLINE_S = 170.0          # the whole run must end within 180 s
BLAS_THREADS = "1"          # at 2, design-large-irs spread 3.9-5.4 s over 5 runs

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ssca_iters_per_s": "1/s",
    "mc_samples_per_s": "1/s",
    "ub_rate": "bit/s/Hz",
    "mc_rate": "bit/s/Hz",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: BLAS_THREADS for name in THREAD_VARS})
    env.pop("PYTHONPATH", None)     # the worker imports irsopt from ROOT/src only
    return env


def run_worker(args: list, timeout: float) -> dict:
    """Run worker.py in a fresh interpreter and parse its last output line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}:\n"
                           f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke test's reduced sizes")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "irsopt", "__init__.py")):
        print(f"error: no irsopt sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    common = ["--workload", args.workload, "--scale", args.scale]
    try:
        setups = [run_worker(common + ["--setup-only"], 60.0)["setup_s"]
                  for _ in range(SETUP_RUNS + 1)][1:]
        remaining = DEADLINE_S - (time.perf_counter() - started)
        res = run_worker(common + ["--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)], remaining)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in res["problems"]:
        print(f"# FAILED {problem}")
    if not res["walls"] or (args.trace and not res["traced_walls"]):
        print("error: no call of the workload succeeded", file=sys.stderr)
        return 1

    wall = statistics.median(res["walls"])
    print(f"# env {json.dumps(res['env'], sort_keys=True)}")
    print(f"# {args.workload}: {len(res['walls'])} untraced and {len(res['traced_walls'])} "
          f"traced calls, {SETUP_RUNS} set-ups; values are medians")
    print(f"# call walls (s): {' '.join(f'{w:.3f}' for w in res['walls'])}"
          f" | traced: {' '.join(f'{w:.3f}' for w in res['traced_walls'])}")
    print(f"# failed_frac = {res['failed'] / res['attempted']:.4g} "
          f"({res['failed']} of {res['attempted']} operations)")
    if args.trace:
        metrics = dict(res["layers"])
        metrics["trace.overhead_s"] = statistics.median(res["traced_walls"]) - wall
        units = layertrace.layer_metric_units()
        top = ", ".join(f"{name} {s:.3f} s" for name, s in res["top_self"])
        print(f"# top self time per traced call: {top}")
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "peak_rss_mb": res["peak_rss_mb"],
            "ssca_iters_per_s": res["iterations"] / wall,
            "mc_samples_per_s": res["samples"] / wall,
            "ub_rate": res["ub_rate"],
            "mc_rate": res["mc_rate"],
        }
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
