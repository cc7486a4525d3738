"""Every function in the package is reached by the command line, or is on
an allowlist that says why it stays.

The package should compute the paper's numbers with the least code that
gives them, so a second form of a computation that only a test calls
should not grow back unseen.  `reached` runs the command line's solve
(with a probe inside T), eval from a scenario file and a sweep of each
parameter under a `sys.setprofile` hook and records which `def`s run.
Every other `def` must be on `ALLOWED` with its reason, and an entry that
names no `def`, or one that the command line reaches, is stale.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import irsopt
from irsopt import cli
from irsopt.config import PRESETS

SRC = Path(irsopt.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]

ACCEPTANCE = "acceptance oracle: tests/test_acceptance.py imports it or calls it (ROADMAP rules)"
TRACED = "perfbench/layertrace.py target"
ORACLE = "test oracle"
README = "README API"

# what the command line does not reach, and why it stays
ALLOWED = {
    "baselines.evaluate_scheme": ACCEPTANCE,
    "beamforming.Beamformer.__post_init__": ACCEPTANCE,
    "beamforming.mrt_equivalent_beamformer": ACCEPTANCE,
    "beamforming.mrt_policy": TRACED,
    "beamforming.mrt_policy.policy": ACCEPTANCE,
    "channel.ChannelStatistics.cascaded_los": ACCEPTANCE,
    "channel.ChannelStatistics.los_bs_irs": ACCEPTANCE,
    "channel.PhysicalChannelSampler._rician": ACCEPTANCE,
    "channel.PhysicalChannelSampler._split_error": ACCEPTANCE,
    "channel.PhysicalChannelSampler.draw": TRACED,
    "channel.sample_estimated_csi": ACCEPTANCE,
    "config.save_scenario": README,
    "rate.DesignObjective.ascent": ACCEPTANCE,
    "rate.DesignObjective.g_mean": ORACLE,
    "rate.DesignObjective.grad": ACCEPTANCE,
    "rate.DesignObjective.ratio": ACCEPTANCE,
    "rate.DesignObjective.value": ACCEPTANCE,
    "rate._beam_array": ACCEPTANCE,
    "rate._check_matched_filter": ACCEPTANCE,
    "rate.ergodic_rate_mc": TRACED,
    "rate.g0": ACCEPTANCE,
    "rate.gamma_ub": ACCEPTANCE,
    "rate.gamma_ub_gradient": ACCEPTANCE,
    "rate.gk": ACCEPTANCE,
    "ssca.surrogate_value": ACCEPTANCE,
}


def defs(src: Path = SRC) -> dict[tuple[str, int], str]:
    """Every `def` in src's modules, nested ones and methods included:
    (file, first line) -> "module.qualname".  The first line is that of the
    first decorator, as in the function's code object."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[str(path), first] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(src.resolve().glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, f"{path.stem}.")
    return found


# run in a fresh interpreter: the hook is set before the script's first
# import, so what a module calls as it loads (the scheme registry) counts
_CHILD = """
import json, sys
codes = set()
sys.setprofile(lambda frame, event, arg: codes.add(frame.f_code) if event == "call" else None)
exec(sys.argv[1])
sys.setprofile(None)
print(json.dumps(sorted({(code.co_filename, code.co_firstlineno) for code in codes})))
"""


def reached(script: str, src: Path = SRC, cwd: Path = ROOT) -> set[tuple[str, int]]:
    """(file, first line) of every function of the package in src that is
    called while a fresh interpreter, with src's parent first on its path,
    runs the Python source `script`."""
    src = src.resolve()
    path = os.pathsep.join(filter(None, [str(src.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _CHILD, script], cwd=cwd, text=True,
                          capture_output=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return {(str(Path(name).resolve()), line)
            for name, line in json.loads(proc.stdout.splitlines()[-1])
            if Path(name).resolve().parent == src}


def audit(defined: dict, seen: set, allowed: dict) -> tuple[list[str], list[str]]:
    """The `def`s neither seen nor allowed, and the stale allowlist names:
    those that name no `def`, and those of a `def` that was seen."""
    names = set(defined.values())
    hit = {defined[key] for key in seen if key in defined}
    unreached = sorted(names - hit - set(allowed))
    stale = sorted(name for name in allowed if name not in names or name in hit)
    return unreached, stale


def _cli_script(tmp_path: Path) -> str:
    """A script that solves the preset with a probe inside T, evaluates
    every scheme from a scenario file and sweeps each parameter over two values, at toy
    sizes, through `cli.main`, and fails unless each run exits 0."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(PRESETS["paper-fig3"]().replace(irs_grid=(2, 2)).to_dict()))
    common = ["--scenario", str(scenario), "--iters", "4", "--samples-per-iter", "2",
              "--samples", "4"]
    runs = [["solve", *common[2:-2], "--probe-every", "2", "--out", str(tmp_path / "solve")],
            ["eval", *common, "--out", str(tmp_path / "eval")]]
    for param, values in zip(cli.SWEEP_PARAMS, ("2,3", "1,inf", "0,0.5", "150,200")):
        runs.append(["sweep", *common, "--sweep", param, "--values", values,
                     "--schemes", "proposed,robust-with-intf", "--out", str(tmp_path / param)])
    return (f"from irsopt.cli import main\nfor argv in {runs!r}:\n"
            "    assert main(argv) == 0, argv\n")


def test_every_function_is_reached_by_the_cli_or_allowed(tmp_path):
    unreached, stale = audit(defs(), reached(_cli_script(tmp_path), cwd=tmp_path), ALLOWED)
    assert not unreached, f"not reached by the command line, and not on ALLOWED: {unreached}"
    assert not stale, f"stale ALLOWED entries (no such def, or reached): {stale}"


def test_every_allowlist_reason_holds():
    assert set(ALLOWED.values()) <= {ACCEPTANCE, TRACED, ORACLE, README}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tracer = (ROOT / "perfbench" / "layertrace.py").read_text(encoding="utf-8")
    for name, reason in ALLOWED.items():
        module, qualname = name.split(".", 1)
        if reason == README:
            assert qualname.rsplit(".", 1)[-1] in readme, name
        if reason == TRACED:
            assert f'("irsopt.{module}", "{qualname}"' in tracer, name


def test_the_audit_reports_an_unreached_def_and_a_stale_entry(tmp_path):
    package = tmp_path / "reach_probe"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "probe.py").write_text(
        "def used():\n    return helper()\n\n\ndef helper():\n    return 1\n\n\n"
        "class Box:\n    @property\n    def size(self):\n        return 2\n\n"
        "    def unused(self):\n        return 3\n")
    defined = defs(package)
    assert sorted(defined.values()) == ["probe.Box.size", "probe.Box.unused",
                                        "probe.helper", "probe.used"]
    seen = reached("from reach_probe import probe\nprobe.used()\nprobe.Box().size\n",
                   package, cwd=tmp_path)
    assert audit(defined, seen, {}) == (["probe.Box.unused"], [])
    allowed = {"probe.Box.unused": ORACLE, "probe.gone": ORACLE, "probe.used": ORACLE}
    assert audit(defined, seen, allowed) == ([], ["probe.gone", "probe.used"])
