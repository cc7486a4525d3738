"""One benchmark process: set up, warm up, then call one workload in a
closed loop for the given number of seconds.

Started by ``run.py`` in a fresh interpreter with the BLAS thread count
pinned, so set-up time and peak memory belong to this workload alone.
Prints one JSON object as its last line of standard output.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload W --setup-only
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()   # set-up is timed from before the numpy import

import argparse
import itertools
import json
import os
import resource
import statistics
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_PROBLEMS = 20           # failure messages kept for the report


def import_irsopt():
    """Import irsopt from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, SRC)
    import irsopt

    if os.path.dirname(os.path.abspath(irsopt.__file__)) != os.path.join(SRC, "irsopt"):
        raise ImportError(f"irsopt imported from {irsopt.__file__}, not {SRC}")
    return irsopt


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    threads = None
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            threads = next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
    except (OSError, StopIteration, ValueError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "process_threads": threads,
        "seed": seed,
    }


def measure(args, cfg, stats) -> dict:
    import layertrace
    import workloads

    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    warm_scale = "tiny" if args.scale == "tiny" else "warm"
    all_walls, outcomes, layer_runs, problems = [], [], [], []
    try:
        warm_cfg, warm_stats = workloads.setup(args.workload, warm_scale)
        workloads.run(args.workload, warm_scale, args.seed, warm_cfg, warm_stats, tmp_root)
    except Exception:           # the timed calls below fail the same way and count it
        problems.append("warm-up: " + traceback.format_exc(limit=3))

    walls = {False: [], True: []}           # traced? -> wall times of good calls
    calls = {False: 0, True: 0}
    attempted = failed = 0
    start = time.perf_counter()
    for i in itertools.count():
        traced = bool(args.trace) and i % 2 == 1
        tracer = layertrace.Tracer()
        if traced:
            tracer.install(layertrace.TARGETS)
        t0 = time.perf_counter()
        try:
            outcome = workloads.run(args.workload, args.scale, args.seed, cfg, stats,
                                    tmp_root)
        except Exception:       # a call that raises fails all its operations
            outcome = None
            if len(problems) < MAX_PROBLEMS:
                problems.append(traceback.format_exc(limit=3))
        finally:
            wall = time.perf_counter() - t0
            tracer.uninstall()
        calls[traced] += 1
        all_walls.append(wall)

        if outcome is None:
            n = workloads.expected_ops(args.workload, args.scale)
            attempted, failed = attempted + n, failed + n
        else:
            walls[traced].append(wall)
            if outcomes and outcome.fingerprint != outcomes[0].fingerprint:
                outcome.ops.append(("repeat", ["rates differ from the first call "
                                               "with the same seed"]))
            outcomes.append(outcome)
            attempted += len(outcome.ops)
            failed += outcome.failed
            problems += [f"{name}: {p}" for name, found in outcome.ops for p in found]
            if traced:
                layer_runs.append((layertrace.layer_metrics(tracer),
                                   layertrace.top_self(tracer)))

        enough = calls[False] >= 1 and (calls[True] >= 1 or not args.trace)
        elapsed = time.perf_counter() - start
        if enough and elapsed + statistics.median(all_walls) > args.seconds:
            break

    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:MAX_PROBLEMS],
        "walls": walls[False],
        "traced_walls": walls[True],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(args.seed),
    }
    if outcomes:
        first = outcomes[0]
        result.update(ub_rate=first.ub_rate, mc_rate=first.mc_rate,
                      iterations=first.iterations, samples=first.samples)
    if layer_runs:
        result["layers"] = {k: statistics.fmean(m[k] for m, _ in layer_runs)
                            for k in layer_runs[0][0]}
        result["top_self"] = layer_runs[0][1]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, HERE)
    import_irsopt()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    cfg, stats = workloads.setup(args.workload, args.scale)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    print(json.dumps(measure(args, cfg, stats)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
