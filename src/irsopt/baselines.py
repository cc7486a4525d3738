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
identical Monte Carlo seeds and sample counts for every scheme.
`evaluate_schemes` designs every scheme first and then evaluates all the
designs, each phase draw of the random-phase scheme included, in one
batched call, so they share a single draw set by construction;
`evaluate_scheme` is its one-scheme view.  Its SSCA schemes are designed
in lockstep (`ssca.run_stack`), each bit for bit as on its own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .beamforming import mrt_policy
from .channel import ChannelStatistics
from .config import ScenarioConfig
from .rate import BeamformingPolicy, PhaseShiftVector, RateReport, ergodic_rates_mc
from .ssca import DesignObjective, SolverConfig, run_stack
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
                  solver_cfg: SolverConfig, draw: int = 0
                  ) -> tuple[PhaseShiftVector, BeamformingPolicy]:
    """Produce the scheme's (phase shifts, beamforming policy) pair.

    `draw` indexes independent designs for schemes that average over
    several phase draws; deterministic given (solver seed, scheme, draw).
    """
    if spec.phase_source == PHASE_SOURCE_RANDOM:
        rng = named_child(solver_cfg.seed, f"phases/{spec.name}/{draw}")
        phases = rng.uniform(0.0, 2.0 * math.pi, stats.irs_size)
        v = PhaseShiftVector.from_phases(phases)
    else:
        v = run_ssca(solver_cfg, stats, cfg, design=_objective(spec, stats, cfg)).v
    return v, mrt_policy(v)


def evaluate_schemes(specs: Sequence[SchemeSpec], stats: ChannelStatistics,
                     cfg: ScenarioConfig, solver_cfgs: Sequence[SolverConfig],
                     n_samples: int, eval_rng: int,
                     return_samples: bool = False) -> list[RateReport]:
    """Design every scheme (each with its own solver settings, in the same
    order) and evaluate all their designs, every phase draw included, in
    one `ergodic_rates_mc` call under the true imperfect-CSI,
    with-interference channel model.  One report per scheme comes back.

    The SSCA schemes are designed in one `run_stack` call, each as its own
    `design_scheme` would; their solver settings must differ only in the
    seed.  All designs share one draw set, so the comparison between
    schemes and the average over a multi-draw scheme's designs are paired
    by construction.
    """
    check_seed(eval_rng)    # before any design is spent on a bad seed or size
    check_count(n_samples, "n_samples")
    if len(solver_cfgs) != len(specs):
        raise ValueError(f"{len(solver_cfgs)} solver settings for {len(specs)} schemes")
    rows = [i for i, spec in enumerate(specs) if spec.phase_source == PHASE_SOURCE_SSCA]
    # keeps no run's trace alive through the evaluation
    designed = {i: (r.v, mrt_policy(r.v)) for i, r in zip(rows, run_stack(
        [solver_cfgs[i] for i in rows], stats, cfg,
        [_objective(specs[i], stats, cfg) for i in rows]))} if rows else {}
    designs = [designed[i] if i in designed else design_scheme(spec, stats, cfg, solver_cfg, draw)
               for i, (spec, solver_cfg) in enumerate(zip(specs, solver_cfgs))
               for draw in range(spec.phase_draws)]
    per_design = iter(ergodic_rates_mc([v for v, _ in designs], [p for _, p in designs],
                                       stats, cfg, n_samples, eval_rng))
    return [_average([next(per_design) for _ in range(spec.phase_draws)], return_samples)
            for spec in specs]


def evaluate_scheme(spec: SchemeSpec, stats: ChannelStatistics, cfg: ScenarioConfig,
                    solver_cfg: SolverConfig, n_samples: int, eval_rng: int,
                    return_samples: bool = False) -> RateReport:
    """Design one scheme and evaluate it: `evaluate_schemes` for one scheme."""
    return evaluate_schemes([spec], stats, cfg, [solver_cfg], n_samples, eval_rng,
                            return_samples=return_samples)[0]


def _average(per_draw: list[RateReport], return_samples: bool) -> RateReport:
    """One report for a scheme's phase draws: per-sample rates averaged
    across the draws, then summarized (exact for one draw)."""
    n_samples = per_draw[0].n_samples
    samples = np.mean([r.rate_samples for r in per_draw], axis=0)
    stderr = float(np.std(samples, ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    return RateReport(
        ub_rate=float(np.mean([r.ub_rate for r in per_draw])),
        mc_rate=float(np.mean(samples)),
        mc_stderr=stderr,
        n_samples=n_samples,
        signal_power=float(np.mean([r.signal_power for r in per_draw])),
        interference_power=tuple(
            float(p) for p in np.mean([r.interference_power for r in per_draw], axis=0)),
        noise_power=per_draw[0].noise_power,
        rate_samples=samples if return_samples else None,
    )
