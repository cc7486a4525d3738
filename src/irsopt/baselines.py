"""Comparison schemes: the proposed joint design and four ablations.

Every scheme pairs a quasi-static phase-shift design with the per-slot
matched-filter beamformer.  The flags only change the *design* objective:

* non-robust variants design as if the CSI were perfect (full-variance
  sampling, no error constants),
* without-interference variants drop the interference terms from the
  design denominator,
* the random-phase scheme skips the joint optimization entirely and is
  averaged over several independent phase draws.

Evaluation is always the same: true error variances, full interference,
identical Monte Carlo seeds and sample counts for every scheme.  Every
scheme is designed first (`design_schemes`), and then all the designs,
each phase draw of the random-phase scheme included, are evaluated in one
batched call (`evaluate_designs`), so they share a single draw set by
construction; `evaluate_scheme` does both for one scheme at one point.
The SSCA schemes are designed in lockstep (`ssca.run_stack`), each bit for
bit as on its own.  Both `design_schemes` and `evaluate_designs` take any
list of points and treat those of one shape together: one lockstep stack
per (Mr, M0, K), and one evaluation draw set per (Mr, M0), each point
reading it with its own scale factors.  `design_schemes` alone decides
which designs repeat, and makes each distinct one once.  Every report, a
multi-draw scheme's average included, is summarized by
`rate.RateReport.from_samples`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .channel import ChannelStatistics
from .config import ScenarioConfig
from .rate import DesignObjective, PhaseShiftVector, RateReport, ergodic_rates_mc_points
from .ssca import SolverConfig, run_stack
from .ssca import run as run_ssca
from .streams import check_count, check_seed, named_child

PHASE_SOURCE_SSCA = "ssca"
PHASE_SOURCE_RANDOM = "random"


@dataclass(frozen=True)
class SchemeSpec:
    """How one scheme builds its phase shifts and design objective."""

    name: str
    robust: bool                    # account for the CSI error in the design
    use_interference: bool          # keep interference terms in the design denominator
    phase_source: str = PHASE_SOURCE_SSCA
    phase_draws: int = 1            # draws to average; an SSCA design would repeat, so 1

    def __post_init__(self):
        if self.phase_source not in (PHASE_SOURCE_SSCA, PHASE_SOURCE_RANDOM):
            raise ValueError(f"unknown phase source {self.phase_source!r}")
        limit = math.inf if self.phase_source == PHASE_SOURCE_RANDOM else 1
        if not 1 <= self.phase_draws <= limit:
            raise ValueError(f"phase_draws must lie in [1, {limit}] for the "
                             f"{self.phase_source} phase source, got {self.phase_draws}")


SCHEMES: dict[str, SchemeSpec] = {
    spec.name: spec
    for spec in (
        SchemeSpec("proposed", robust=True, use_interference=True),
        SchemeSpec("robust-with-intf", robust=True, use_interference=True,
                   phase_source=PHASE_SOURCE_RANDOM, phase_draws=10),
        SchemeSpec("robust-no-intf", robust=True, use_interference=False),
        SchemeSpec("nonrobust-with-intf", robust=False, use_interference=True),
        SchemeSpec("nonrobust-no-intf", robust=False, use_interference=False),
    )
}


def scheme(name: str) -> SchemeSpec:
    try:
        return SCHEMES[name]
    except KeyError:
        raise ValueError(f"unknown scheme {name!r}; choose from {sorted(SCHEMES)}") from None


def _objective(spec: SchemeSpec, stats: ChannelStatistics,
               cfg: ScenarioConfig) -> DesignObjective:
    return DesignObjective.from_scenario(stats, cfg, robust=spec.robust,
                                         include_interference=spec.use_interference)


def design_scheme(spec: SchemeSpec, stats: ChannelStatistics, cfg: ScenarioConfig,
                  solver_cfg: SolverConfig, draw: int = 0) -> PhaseShiftVector:
    """The scheme's phase shifts; the evaluator pairs them with the
    matched-filter beamformer.

    `draw` indexes independent designs for schemes that average over
    several phase draws; deterministic given (solver seed, scheme, draw).
    """
    if spec.phase_source == PHASE_SOURCE_RANDOM:
        rng = named_child(solver_cfg.seed, f"phases/{spec.name}/{draw}")
        phases = rng.uniform(0.0, 2.0 * math.pi, stats.irs_size)
        v = PhaseShiftVector.from_phases(phases)
    else:
        v = run_ssca(solver_cfg, stats, cfg, design=_objective(spec, stats, cfg)).v
    return v


def design_schemes(specs: Sequence[SchemeSpec], solver_cfgs: Sequence[SolverConfig],
                   points: Sequence[tuple[ChannelStatistics, ScenarioConfig]]
                   ) -> list[list[list[PhaseShiftVector]]]:
    """Every scheme's designs at every (stats, cfg) point: per point, per
    scheme, its `phase_draws` phase-shift vectors.  Each distinct design is
    made once: an SSCA design reads only its solver settings, its seed
    among them, and its objective (`DesignObjective.key`), so a
    non-robust scheme's design over error-std, say, is solved once; a
    random-phase design reads only the scheme, its seed, the draw and Mr,
    so it is drawn once and shared by the points of that Mr.  The distinct
    SSCA designs of all the points that share a shape (Mr, M0 and K) form
    one `run_stack` call, so a sweep over any other parameter makes one
    call and an irs-size sweep one per size; each row is bit for bit its
    own `design_scheme`."""
    if len(solver_cfgs) != len(specs):
        raise ValueError(f"{len(solver_cfgs)} solver settings for {len(specs)} schemes")
    keys, made = {}, {}         # (point, scheme) -> its design's key; key -> designs
    stacks: dict[tuple, dict] = {}  # per shape (Mr, M0, K + 1 BSs): key -> distinct SSCA row
    for p, (stats, cfg) in enumerate(points):
        for i, (spec, solver_cfg) in enumerate(zip(specs, solver_cfgs)):
            if spec.phase_source == PHASE_SOURCE_RANDOM:
                key = keys[p, i] = (spec, solver_cfg.seed, stats.irs_size)
                if key not in made:
                    made[key] = [design_scheme(spec, stats, cfg, solver_cfg, draw)
                                 for draw in range(spec.phase_draws)]
            else:
                objective = _objective(spec, stats, cfg)
                key = keys[p, i] = (solver_cfg, objective.key())
                shape = (stats.irs_size, stats.bs_sizes[0], stats.n_bs)
                stacks.setdefault(shape, {}).setdefault(key, (solver_cfg, objective))
    for rows in stacks.values():     # keeps no run's trace alive through the evaluation
        made.update((key, [r.v]) for key, r in zip(rows, run_stack(*zip(*rows.values()))))
    return [[made[keys[p, i]] for i in range(len(specs))] for p in range(len(points))]


def evaluate_designs(designs: Sequence[Sequence[Sequence[PhaseShiftVector]]],
                     points: Sequence[tuple[ChannelStatistics, ScenarioConfig]],
                     n_samples: int, eval_rng: int,
                     return_samples: bool = False) -> list[list[RateReport]]:
    """Per (stats, cfg) point, one report per scheme from its designs
    (`design_schemes`' output for the same points), all evaluated in one
    `ergodic_rates_mc_points` call at the matched-filter beamformer: the
    designs of a point share one draw set, and the points of one shape
    (Mr, M0) the same draws, made once.  Every evaluation of designs comes
    here: a sweep's points, an `eval`'s one point and `evaluate_scheme`'s
    one scheme."""
    flat = [[v for per_scheme in point_designs for v in per_scheme] for point_designs in designs]
    per_point = ergodic_rates_mc_points([(vs, *point) for vs, point in zip(flat, points)],
                                        n_samples, eval_rng)
    out = []
    for point_designs, reports in zip(designs, per_point):
        per_design = iter(reports)
        out.append([_average([next(per_design) for _ in per_scheme], return_samples)
                    for per_scheme in point_designs])
    return out


def evaluate_scheme(spec: SchemeSpec, stats: ChannelStatistics, cfg: ScenarioConfig,
                    solver_cfg: SolverConfig, n_samples: int, eval_rng: int,
                    return_samples: bool = False) -> RateReport:
    """Design one scheme and evaluate it, every phase draw included, under
    the true imperfect-CSI, with-interference channel model:
    `design_schemes` and `evaluate_designs` at one point, as a sweep or an
    `eval` runs them."""
    check_seed(eval_rng)    # before any design is spent on a bad seed or size
    check_count(n_samples, "n_samples", 2)
    points = [(stats, cfg)]
    ((report,),) = evaluate_designs(design_schemes([spec], [solver_cfg], points), points,
                                    n_samples, eval_rng, return_samples)
    return report


def _average(per_draw: list[RateReport], return_samples: bool) -> RateReport:
    """One report for a scheme's phase draws: per-sample rates averaged
    across the draws, then summarized; a single draw's report as it is."""
    report = per_draw[0] if len(per_draw) == 1 else RateReport.from_samples(
        np.mean([r.rate_samples for r in per_draw], axis=0),
        ub_rate=np.mean([r.ub_rate for r in per_draw]),
        signal_power=np.mean([r.signal_power for r in per_draw]),
        interference_power=np.mean([r.interference_power for r in per_draw], axis=0),
        noise_power=per_draw[0].noise_power)
    return report if return_samples else replace(report, rate_samples=None)
