"""The package's modules import one another without a cycle.

A cycle needs function-local imports to load at all, and leaves the
module that owns a concept unclear; every relative import counts, those
inside function bodies included.
"""
import ast
import graphlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "irsopt"


def import_graph(src: Path = SRC) -> dict[str, set[str]]:
    """Module name -> the package modules it imports anywhere in its body
    (``from . import x`` imports the package, ``__init__``)."""
    graph = {}
    for path in sorted(src.glob("*.py")):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imported.add(node.module or "__init__")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("irsopt"):
                imported.add(node.module.partition(".")[2] or "__init__")
        graph[path.stem] = imported
    return graph


def test_the_import_walk_sees_every_module_and_local_imports(tmp_path):
    graph = import_graph()
    assert {"rate", "ssca", "channel", "cli", "__init__"} <= set(graph)
    assert "rate" in graph["ssca"]
    (tmp_path / "a.py").write_text("def f():\n    from .b import g\n")
    (tmp_path / "b.py").write_text("from irsopt.a import f\n")
    assert import_graph(tmp_path) == {"a": {"b"}, "b": {"a"}}


def test_package_imports_form_no_cycle():
    try:
        graphlib.TopologicalSorter(import_graph()).prepare()
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")
