"""IRS-size scaling report: SSCA milliseconds per iteration and Monte Carlo
microseconds per sample at Mr = 64, 256, 1024 and 4096, with peak memory.

    python3 perfbench/scaling.py [--out scaling.json]

Tests the paper's O(L * M0 * Mr) per-iteration claim over a 64x range of
IRS sizes.  Each size runs in a fresh process with one BLAS thread: one
short untimed pass, then one traced ``ssca.run`` (paper-fig3, L = 10) and
one traced ``ergodic_rate_mc`` of its design.  Not part of the benchmark
pipeline; it takes about 15 s and under 1 GB of memory.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys


# IRS side -> (solver iterations, evaluation samples); Mr = 4096 stays at a
# few iterations and well under one 512-sample evaluator chunk
PLAN = {8: (300, 2048), 16: (100, 1024), 32: (20, 512), 64: (3, 64)}


def measure_one(side: int) -> dict:
    import layertrace
    import workloads
    from worker import environment, import_irsopt

    irsopt = import_irsopt()
    from irsopt import beamforming, rate, ssca

    iterations, samples = PLAN[side]
    cfg = irsopt.load_scenario(workloads.PRESET).replace(irs_grid=(side, side))
    stats = irsopt.build_statistics(cfg)

    def design_and_evaluate(iters: int, n: int):
        result = ssca.run(ssca.SolverConfig(iterations=iters, seed=1), stats, cfg)
        rate.ergodic_rate_mc(result.v, beamforming.mrt_policy(result.v), stats, cfg, n, 2)

    design_and_evaluate(1, min(samples, 64))
    tracer = layertrace.Tracer()
    tracer.install(layertrace.TARGETS)
    try:
        design_and_evaluate(iterations, samples)
    finally:
        tracer.uninstall()
    m = layertrace.layer_metrics(tracer)
    return {
        "irs_size": side * side,
        "iterations": iterations,
        "samples": samples,
        "ssca_ms_per_iter": 1e3 * m["ssca.run.s"] / m["ssca.run.iters"],
        "update_coefficients_ms_per_iter":
            1e3 * m["ssca.update_coefficients.s"] / m["ssca.run.iters"],
        "mc_us_per_sample": 1e6 * m["rate.ergodic_rate_mc.s"] / m["rate.ergodic_rate_mc.samples"],
        "crandn_share": m["streams.crandn.s"] / (m["ssca.run.s"] + m["rate.ergodic_rate_mc.s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(seed=1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="also write the rows as JSON to this file")
    parser.add_argument("--one", type=int, choices=sorted(PLAN), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one is not None:
        print(json.dumps(measure_one(args.one)))
        return 0

    from run import child_env

    rows = []
    for side in PLAN:
        proc = subprocess.run([sys.executable, __file__, "--one", str(side)], env=child_env(),
                              capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        rows.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    env = [row.pop("env") for row in rows][-1]

    print(f"{'Mr':>6} {'ssca ms/iter':>13} {'growth':>7} {'mc us/sample':>13} {'growth':>7} "
          f"{'peak MB':>8}")
    for prev, row in zip([None] + rows, rows):
        ssca_growth, mc_growth = (
            f"{row[key] / prev[key]:7.2f}" if prev else " " * 7
            for key in ("ssca_ms_per_iter", "mc_us_per_sample"))
        print(f"{row['irs_size']:6d} {row['ssca_ms_per_iter']:13.2f} {ssca_growth} "
              f"{row['mc_us_per_sample']:13.1f} {mc_growth} {row['peak_rss_mb']:8.0f}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"env": env, "rows": rows}, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
