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
