"""Experiment harness: scenario loading, parameter sweeps, CSV/JSON artifacts.

Subcommands:

* ``solve``            run the phase-shift solver once, write trace.csv
* ``eval``             evaluate schemes at one scenario, write reports JSON
* ``sweep``            sweep one parameter over a value list, write results.csv

Every JSON artifact (design.json, eval.json, manifest.json) records the
scenario and its content hash, the seed, the solver settings, each design's
seed and the versions, through one builder (`_run_record`); rerunning with
the same inputs reproduces every artifact byte for byte.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .baselines import SCHEMES, design_schemes, evaluate_designs, scheme
from .channel import build_statistics
from .config import ScenarioConfig, _real, load_scenario, write_json
from .rate import RateReport, upper_bound_rate_closed_form
from .ssca import SolverConfig
from .ssca import run as run_ssca
from .streams import check_count, check_seed, child_seed

SWEEP_PARAMS = ("irs-size", "rician-k", "error-std", "user-distance")

CSV_COLUMNS = ("scenario_id", "scheme", "sweep_param", "sweep_value",
               "ub_rate", "mc_rate", "mc_stderr", "n_samples", "seed", "config_hash")

# Desk-scale default: fewer Monte Carlo samples than a full study; trends
# rather than absolute values are the target.
DEFAULT_MC_SAMPLES = 2000


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: which parameter, which values, which schemes."""

    param: str
    values: tuple[float, ...]
    schemes: tuple[str, ...]
    n_samples: int = DEFAULT_MC_SAMPLES
    seed: int = 0
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.param not in SWEEP_PARAMS:
            raise ValueError(f"unknown sweep parameter {self.param!r}; "
                             f"choose from {SWEEP_PARAMS}")
        if len(self.values) == 0:
            raise ValueError("sweep value list must not be empty")
        _check_schemes(self.schemes)
        # plain floats and ints: json cannot write numpy numbers into the manifest
        object.__setattr__(self, "values", tuple(_real("values", v) for v in self.values))
        object.__setattr__(self, "n_samples", check_count(self.n_samples, "n_samples", 2))
        object.__setattr__(self, "seed", check_seed(self.seed))


def _check_schemes(names: tuple[str, ...]) -> None:
    """A scheme list must be non-empty, known and free of repeats."""
    if len(names) == 0:
        raise ValueError("scheme list must not be empty")
    for i, name in enumerate(names):
        scheme(name)  # raises on unknown names
        if name in names[:i]:
            raise ValueError(f"scheme {name!r} is listed twice")


def apply_sweep_value(cfg: ScenarioConfig, param: str, value: float) -> ScenarioConfig:
    """Scenario at one sweep point.  The not-form checks reject NaN too; a
    Rician factor may be +inf (pure LoS)."""
    if param == "irs-size":
        if not (1 <= value < np.inf and value == int(value)):
            raise ValueError(f"IRS grid size must be a positive integer, got {value}")
        return cfg.replace(irs_grid=(int(value), int(value)))
    if param == "rician-k":
        if not (value >= 0):
            raise ValueError("Rician factor must be >= 0")
        serving = (float(value),) + cfg.rician_bs_irs[1:]
        return cfg.replace(rician_bs_irs=serving, rician_irs_user=float(value))
    if param == "error-std":
        return cfg.replace(delta1=float(value), delta2=float(value))
    if param == "user-distance":
        if not (0 < value < np.inf):
            raise ValueError(f"user distance must be positive and finite, got {value}")
        # move the user radially from the serving BS (a valid scenario keeps
        # them apart); on the default layout this is the perpendicular
        # bisector of the two interferers
        origin = np.asarray(cfg.bs_positions[0])
        current = np.asarray(cfg.user_position) - origin
        new_pos = origin + float(value) * (current / np.linalg.norm(current))
        return cfg.replace(user_position=tuple(new_pos))
    raise ValueError(f"unknown sweep parameter {param!r}")


def _row(base_name: str, spec: SweepSpec, value: float, scheme_name: str,
         report: RateReport, point_hash: str) -> dict:
    return {
        "scenario_id": base_name,
        "scheme": scheme_name,
        "sweep_param": spec.param,
        "sweep_value": repr(float(value)),
        "ub_rate": repr(report.ub_rate),
        "mc_rate": repr(report.mc_rate),
        "mc_stderr": repr(report.mc_stderr),
        "n_samples": report.n_samples,
        "seed": spec.seed,
        "config_hash": point_hash,
    }


def _scheme_solvers(solver: SolverConfig, seed: int,
                    names: tuple[str, ...]) -> list[SolverConfig]:
    """Solver settings per scheme: the shared settings with a design seed
    derived from the run seed and the scheme name."""
    return [dataclasses.replace(solver, seed=child_seed(seed, f"design/{name}"))
            for name in names]


def _run_record(scenario: ScenarioConfig, seed: int, names: tuple[str, ...],
                solvers: list[SolverConfig]) -> dict:
    """What every JSON artifact records of the run that wrote it, so that
    the run can be repeated from the file alone: the scenario and its hash,
    the run seed, the solver settings the designs share (all but the seed),
    each named design's seed and the versions.  No timing enters it, so
    reruns write the same bytes."""
    solver_settings = dataclasses.asdict(solvers[0])
    del solver_settings["seed"]
    return {
        "scenario": scenario.to_dict(),
        "config_hash": scenario.config_hash(),
        "seed": seed,
        "solver": solver_settings,
        "design_seeds": {name: solver.seed for name, solver in zip(names, solvers)},
        "versions": {"irsopt": __version__, "numpy": np.__version__,
                     "python": ".".join(map(str, sys.version_info[:3]))},
    }


def run_sweep(spec: SweepSpec, scenario: ScenarioConfig, out_dir: str) -> list[dict]:
    """Evaluate every (value, scheme) pair, writing its rows to results.csv
    in deterministic order and a manifest.json next to it.

    The SSCA designs of all the points run in one `design_schemes` call,
    which stacks the points of one shape (one stack per size on an
    irs-size sweep, else one), each row bit for bit its own per-point
    design; then all the designs are evaluated in one `evaluate_designs`
    call, so each sweep value's designs share one draw set.  The
    evaluation seed is shared across sweep points too, so points of one
    shape read the same channel draws (common random numbers), drawn once;
    each point's reports equal its own evaluation's.  Rows are written only
    once every evaluation is done.  Design seeds are derived per scheme;
    the manifest records each scheme's design seed and the shared solver
    settings without the seed they replace.
    """
    # every point is checked before any artifact is written or design is run
    points = [(build_statistics(cfg), cfg)
              for cfg in (apply_sweep_value(scenario, spec.param, value) for value in spec.values)]
    os.makedirs(out_dir, exist_ok=True)
    solvers = _scheme_solvers(spec.solver, spec.seed, spec.schemes)
    manifest = _run_record(scenario, spec.seed, spec.schemes, solvers)
    manifest["sweep"] = {"param": spec.param, "values": list(spec.values),
                         "schemes": list(spec.schemes)}
    manifest["n_samples"] = spec.n_samples
    write_json(os.path.join(out_dir, "manifest.json"), manifest)

    designs = design_schemes([scheme(name) for name in spec.schemes], solvers, points)
    reports = evaluate_designs(designs, points, spec.n_samples, child_seed(spec.seed, "eval"))

    rows = [_row(scenario.name, spec, value, name, report, cfg.config_hash())
            for value, (_, cfg), point_reports in zip(spec.values, points, reports)
            for name, report in zip(spec.schemes, point_reports)]
    with open(os.path.join(out_dir, "results.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    return rows


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_scenario_args(parser: argparse.ArgumentParser):
    parser.add_argument("--scenario", help="path to a scenario JSON file")
    parser.add_argument("--preset", default="paper-fig3",
                        help="preset name when --scenario is not given")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=".", help="output directory")


def _add_solver_args(parser: argparse.ArgumentParser):
    parser.add_argument("--iters", type=int, default=SolverConfig.iterations,
                        help="solver iterations")
    parser.add_argument("--samples-per-iter", type=int, default=SolverConfig.samples_per_iter)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irsopt",
        description="IRS-assisted multi-cell downlink: design and evaluation harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the phase-shift solver once")
    _add_scenario_args(p_solve)
    _add_solver_args(p_solve)
    p_solve.add_argument("--probe-every", type=int, default=25)

    p_eval = sub.add_parser("eval", help="evaluate schemes at one scenario")
    _add_scenario_args(p_eval)
    _add_solver_args(p_eval)
    p_eval.add_argument("--schemes", default=",".join(sorted(SCHEMES)))
    p_eval.add_argument("--samples", type=int, default=DEFAULT_MC_SAMPLES)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter")
    _add_scenario_args(p_sweep)
    _add_solver_args(p_sweep)
    p_sweep.add_argument("--sweep", required=True, choices=SWEEP_PARAMS)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated value list")
    p_sweep.add_argument("--schemes", default=",".join(sorted(SCHEMES)))
    p_sweep.add_argument("--samples", type=int, default=DEFAULT_MC_SAMPLES)

    return parser


def _load(args) -> ScenarioConfig:
    return load_scenario(args.scenario if args.scenario else args.preset)


def _parse_values(raw: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in raw.split(",") if tok.strip())
    except ValueError as exc:
        raise ValueError(f"cannot parse value list {raw!r}: {exc}") from exc


def _parse_schemes(raw: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


def cmd_solve(args) -> int:
    cfg = _load(args)
    stats = build_statistics(cfg)
    solver_cfg = SolverConfig(iterations=args.iters,
                              samples_per_iter=args.samples_per_iter,
                              seed=args.seed, probe_every=args.probe_every)
    os.makedirs(args.out, exist_ok=True)     # an unusable --out fails before the solve
    result = run_ssca(solver_cfg, stats, cfg)
    result.trace.to_csv(os.path.join(args.out, "trace.csv"))
    # the solve runs the robust design with interference, the "proposed" objective
    design = _run_record(cfg, args.seed, ("proposed",), [solver_cfg])
    design["tau_reg"] = result.tau_reg
    design["phases_rad"] = list(np.angle(result.v.v))
    write_json(os.path.join(args.out, "design.json"), design)
    print(f"final fixed-point gap: {result.trace.gap[-1]:.3e}")
    print(f"upper-bound rate: {upper_bound_rate_closed_form(result.v, stats, cfg):.4f} bit/s/Hz")
    print(f"artifacts written to {args.out}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load(args)
    stats = build_statistics(cfg)
    names = _parse_schemes(args.schemes)
    _check_schemes(names)
    solvers = _scheme_solvers(SolverConfig(iterations=args.iters,
                                           samples_per_iter=args.samples_per_iter),
                              args.seed, names)
    check_count(args.samples, "n_samples", 2)   # before --out is made
    os.makedirs(args.out, exist_ok=True)
    points = [(stats, cfg)]
    designs = design_schemes([scheme(name) for name in names], solvers, points)
    (point_reports,) = evaluate_designs(designs, points, args.samples,
                                        child_seed(args.seed, "eval"))
    reports = {}
    for name, report in zip(names, point_reports):
        reports[name] = report.to_dict()
        print(f"{name:22s} mc={report.mc_rate:.4f} +/- {report.mc_stderr:.4f}  "
              f"ub={report.ub_rate:.4f} bit/s/Hz")
    payload = _run_record(cfg, args.seed, names, solvers)
    payload["n_samples"] = args.samples
    payload["reports"] = reports
    path = os.path.join(args.out, "eval.json")
    write_json(path, payload)
    print(f"reports written to {path}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load(args)
    spec = SweepSpec(
        param=args.sweep,
        values=_parse_values(args.values),
        schemes=_parse_schemes(args.schemes),
        n_samples=args.samples,
        seed=args.seed,
        solver=SolverConfig(iterations=args.iters,
                            samples_per_iter=args.samples_per_iter),
    )
    rows = run_sweep(spec, cfg, args.out)
    print(f"{len(rows)} rows written to {os.path.join(args.out, 'results.csv')}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {"solve": cmd_solve, "eval": cmd_eval, "sweep": cmd_sweep}[args.command]
    try:
        return handler(args)
    except (ValueError, OSError) as exc:    # bad input or an unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
