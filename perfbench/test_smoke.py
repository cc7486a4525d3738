"""Smoke test of the benchmark at tiny scale (a few seconds per workload).

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload untraced and traced and checks each reported metric's
name and unit against BENCHMARK.json, the output checks, the tracer's
patching and self time, and the refusal to run without irsopt sources.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    table = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in table}
    for name, entry in result["metrics"].items():
        assert math.isfinite(entry["value"]), name
        if not trace:
            assert entry["value"] > 0, name


def test_workloads_match_benchmark_file():
    assert tuple(w["name"] for w in BENCH["workloads"]) == workloads.WORKLOADS


def test_rate_checks_flag_violations():
    assert workloads._rate_problems(2.0, 1.9, 0.01) == []
    assert workloads._rate_problems(2.0, 2.02, 0.01) == []          # within 3 stderr
    assert workloads._rate_problems(2.0, 2.1, 0.01)                 # Jensen violated
    assert workloads._rate_problems(math.nan, 1.0, 0.01)
    assert workloads._rate_problems(2.0, 1.0, math.inf)


def test_tracer_wraps_import_sites_and_restores_them():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import irsopt
    from irsopt import channel, ssca, streams

    original = streams.crandn
    cfg = irsopt.load_scenario(workloads.PRESET).replace(irs_grid=(2, 2))
    stats = irsopt.build_statistics(cfg)
    tracer = layertrace.Tracer()
    tracer.install(layertrace.TARGETS + (("irsopt.rate", "no_such_function", None, None),))
    try:
        assert channel.crandn is streams.crandn is ssca.crandn is not original
        channel.PhysicalChannelSampler(stats, 5).draw(4)
    finally:
        tracer.uninstall()
    assert channel.crandn is streams.crandn is ssca.crandn is original
    assert tracer.absent == ["rate.no_such_function"]
    m = layertrace.layer_metrics(tracer)
    assert m["channel.PhysicalChannelSampler.draw.calls"] == 1
    assert m["channel.PhysicalChannelSampler.draw.samples"] == 4
    assert m["streams.crandn.calls"] >= 3 and m["streams.crandn.values"] > 0
    assert m["trace.absent"] == 1
    assert m["ssca.run.calls"] == 0


def test_self_time_subtracts_direct_children():
    tracer = layertrace.Tracer(spans=[
        layertrace.Span("outer", 0.0, 10.0),
        layertrace.Span("inner", 2.0, 5.0, parent=0),
        layertrace.Span("leaf", 3.0, 4.0, parent=1),
    ])
    stats = tracer.span_stats()
    assert stats["outer"] == {"calls": 1, "s": 10.0, "self_s": 7.0}
    assert stats["inner"] == {"calls": 1, "s": 3.0, "self_s": 2.0}
    assert stats["leaf"]["self_s"] == 1.0


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "fig3-sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
