"""Simulation and two-timescale optimization toolkit for an IRS-assisted
multi-cell downlink: closed-form per-slot beamforming, stochastic
phase-shift optimization, and Monte Carlo ergodic-rate evaluation."""

__version__ = "0.1.0"

from .baselines import (
    SCHEMES,
    SchemeSpec,
    design_scheme,
    evaluate_scheme,
    scheme,
)
from .beamforming import Beamformer, mrt_equivalent_beamformer, mrt_policy
from .channel import (
    ChannelStatistics,
    CsiSample,
    build_statistics,
    compute_path_loss,
    rician_combination_factor,
    sample_estimated_csi,
    steering_vector,
)
from .config import (
    PRESETS,
    ScenarioConfig,
    dbm_to_watt,
    load_scenario,
    save_scenario,
    user_position_on_bisector,
)
from .rate import (
    DesignObjective,
    PhaseShiftVector,
    RateReport,
    ergodic_rate_mc,
    g0,
    gamma_ub,
    gamma_ub_gradient,
    gk,
    upper_bound_rate_closed_form,
)
from .ssca import (
    SolverConfig,
    SscaState,
    project_unit_modulus,
    run,
    solve_surrogate,
    stepsize,
    update_coefficients,
)

__all__ = [
    "SCHEMES",
    "Beamformer",
    "ChannelStatistics",
    "CsiSample",
    "DesignObjective",
    "PRESETS",
    "PhaseShiftVector",
    "RateReport",
    "ScenarioConfig",
    "SchemeSpec",
    "SolverConfig",
    "SscaState",
    "build_statistics",
    "compute_path_loss",
    "dbm_to_watt",
    "design_scheme",
    "ergodic_rate_mc",
    "evaluate_scheme",
    "g0",
    "gamma_ub",
    "gamma_ub_gradient",
    "gk",
    "load_scenario",
    "mrt_equivalent_beamformer",
    "mrt_policy",
    "project_unit_modulus",
    "rician_combination_factor",
    "run",
    "sample_estimated_csi",
    "save_scenario",
    "scheme",
    "solve_surrogate",
    "steering_vector",
    "stepsize",
    "update_coefficients",
    "upper_bound_rate_closed_form",
    "user_position_on_bisector",
]
