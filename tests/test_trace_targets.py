"""The benchmark's layer tracer must find every name it wraps in irsopt.

A refactor that moves or renames a traced function otherwise leaves the
benchmark's per-layer metrics for it at zero without any error.
"""
import importlib.util
import os
import sys

TRACER_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "perfbench", "layertrace.py")


def _load_layertrace(monkeypatch):
    spec = importlib.util.spec_from_file_location("_irsopt_layertrace", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_exists(monkeypatch):
    layertrace = _load_layertrace(monkeypatch)
    tracer = layertrace.Tracer()
    try:
        tracer.install(layertrace.TARGETS)
        assert tracer.absent == []
    finally:
        tracer.uninstall()


def test_ssca_layers_are_called_once_per_iteration(monkeypatch, small_cfg, small_stats):
    # the benchmark times the solver layer by layer: a loop that stops
    # calling one of these names would read 0 for it without any error
    from irsopt import ssca

    layertrace = _load_layertrace(monkeypatch)
    tracer = layertrace.Tracer()
    iterations = 7
    try:
        tracer.install(layertrace.TARGETS)
        ssca.run(ssca.SolverConfig(iterations=iterations, samples_per_iter=3, seed=2),
                 small_stats, small_cfg)
    finally:
        tracer.uninstall()
    calls = {name: entry["calls"] for name, entry in tracer.span_stats().items()}
    for name in ("ssca.update_coefficients", "ssca.solve_surrogate",
                 "ssca.DesignObjective.sample"):
        assert calls.get(name) == iterations, (name, calls)
