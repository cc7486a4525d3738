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
    # an install patches the traced names in every irsopt module loaded so
    # far, and uninstall restores only those: a module first imported while
    # the tracer is installed would keep its wrappers, so import them all now
    for target in module.TARGETS:
        importlib.import_module(target[0])
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


def test_a_sweep_designs_in_one_stack_and_calls_every_sweep_layer(monkeypatch, tmp_path,
                                                                  preset_cfg):
    # one lockstep stack per sweep: the solver steps run once per iteration
    # for both points together, every layer the benchmark reports for a
    # sweep is still called, and the evaluator takes designs, not policies
    from irsopt import cli, ssca

    layertrace = _load_layertrace(monkeypatch)
    tracer = layertrace.Tracer()
    iterations = 6
    spec = cli.SweepSpec(param="error-std", values=(1e-6, 0.6),
                         schemes=("proposed", "robust-with-intf", "nonrobust-no-intf"),
                         n_samples=40, seed=2,
                         solver=ssca.SolverConfig(iterations=iterations, samples_per_iter=3))
    cfg = preset_cfg.replace(irs_grid=(2, 2), bs_grids=((2, 2),) * 3)
    try:
        tracer.install(layertrace.TARGETS)
        cli.run_sweep(spec, cfg, str(tmp_path))
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    calls = {name: entry["calls"] for name, entry in tracer.span_stats().items()}
    for name in ("ssca.update_coefficients", "ssca.solve_surrogate",
                 "ssca.DesignObjective.sample"):
        assert calls.get(name) == iterations, (name, calls)
    for name in ("cli.run_sweep", "channel.build_statistics", "streams.crandn",
                 "baselines.design_scheme"):
        assert calls.get(name, 0) >= 1, (name, calls)
    assert calls.get("beamforming.policy", 0) == 0, calls
