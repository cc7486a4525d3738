"""Rate expressions: per-term expected powers, the closed-form upper-bound
rate and the Monte Carlo ergodic rate.

Core quantities, for phase shifts v, unit beamformer w and one CSI draw
(g_hat, h_hat):

    g0 = |(v^H g_hat + h_hat^H) w|^2 + delta2^2 + Mr*delta1^2
    gk = ||v^H glos_k||^2 / Mk + a_kr*a_ru*Mr*(1 - tau_k) + a_k0   (k >= 1)

g0 is the conditional expectation over the CSI error of the received
signal power; gk is the exact expectation of interferer k's power under
maximum-ratio transmission towards its own user; both stay as per-term
oracles.  The objective built from them, p0 * g0 at the matched-filter
beamformer over sum_k p_k*gk + sigma^2, and its closed-form mean live in
`ssca.DesignObjective`: `gamma_ub` and `gamma_ub_gradient` score one
draw as its zero-variance law (`DesignObjective.ratio`), whose `expected`
pair is the draw's (||e||^2, g_hat e), `upper_bound_rate_closed_form` is
log2(1 + `expected`), and `sinr_denominator` evaluates
`interference_quadratic`, whose (Mr, K) factor F the reports also read
(K = n_bs - 1 columns, none without interferers).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .channel import ChannelStatistics, CsiSample, PhysicalChannelSampler
from .config import ScenarioConfig
from .streams import check_count

_MC_CHUNK = 512
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class PhaseShiftVector:
    """Deployable IRS configuration: unit-modulus entries.  Solver iterates,
    which only satisfy |v_n| <= 1, are plain arrays."""

    v: np.ndarray

    def __post_init__(self):
        arr = np.array(self.v, dtype=complex, copy=True).reshape(-1)
        arr.setflags(write=False)
        object.__setattr__(self, "v", arr)
        if not (np.max(np.abs(np.abs(arr) - 1.0)) <= 1e-9):  # rejects NaN too
            raise ValueError("phase-shift entries must have unit modulus")

    @classmethod
    def ones(cls, n: int) -> "PhaseShiftVector":
        return cls(np.ones(n, dtype=complex))

    @classmethod
    def from_phases(cls, phases: np.ndarray) -> "PhaseShiftVector":
        return cls(np.exp(1j * np.asarray(phases, dtype=float)))

    def __len__(self) -> int:
        return self.v.shape[0]


PhaseLike = Union[PhaseShiftVector, np.ndarray, Sequence[complex]]


def phase_array(v: PhaseLike) -> np.ndarray:
    """Unwrap a PhaseShiftVector (or accept a raw vector) as a 1-D complex array."""
    if isinstance(v, PhaseShiftVector):
        return v.v
    return np.asarray(v, dtype=complex).reshape(-1)


def _beam_array(w) -> np.ndarray:
    arr = np.asarray(getattr(w, "w", w), dtype=complex).reshape(-1)
    nrm = np.linalg.norm(arr)
    if not (abs(nrm - 1.0) <= 1e-9):  # rejects NaN too
        raise ValueError(f"beamformer must be unit-norm, got ||w|| = {nrm}")
    return arr


@dataclass(frozen=True)
class RateReport:
    """Evaluation result for one (scheme, scenario) pair."""

    ub_rate: float                      # bit/s/Hz, closed-form upper bound
    mc_rate: float                      # bit/s/Hz, Monte Carlo ergodic estimate
    mc_stderr: float
    n_samples: int
    signal_power: float                 # p0 * E|signal|^2, linear watts
    interference_power: tuple[float, ...]   # p_k * gk per interferer
    noise_power: float
    rate_samples: Optional[np.ndarray] = None   # per-sample rates; evaluate_schemes: on request

    def __post_init__(self):
        if self.mc_stderr < 0:
            raise ValueError("standard error must be non-negative")
        if self.signal_power < 0 or self.noise_power < 0 or any(
                p < 0 for p in self.interference_power):
            raise ValueError("power breakdown terms must be non-negative")

    def to_dict(self) -> dict:
        """Every field but the per-sample rates."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "rate_samples"}


# ---------------------------------------------------------------------------
# Per-term expected powers and the interference-plus-noise denominator
# ---------------------------------------------------------------------------

def error_power_constant(irs_size: int, delta1: float, delta2: float) -> float:
    """delta2^2 + Mr*delta1^2, the CSI-error part of the signal power.

    Exact for unit-modulus v (||v||^2 = Mr); kept constant for relaxed v."""
    return delta2 ** 2 + irs_size * delta1 ** 2


def g0(v: PhaseLike, w, sample: CsiSample, delta1: float, delta2: float) -> float:
    """Expected received signal power for one estimated-CSI draw:
    |(v^H g_hat + h_hat^H) w|^2 + delta2^2 + Mr*delta1^2."""
    varr = phase_array(v)
    warr = _beam_array(w)
    if sample.g_hat.shape != (varr.shape[0], warr.shape[0]):
        raise ValueError(
            f"dimension mismatch: g_hat {sample.g_hat.shape}, "
            f"v {varr.shape[0]}, w {warr.shape[0]}"
        )
    equivalent = sample.g_hat.conj().T @ varr + sample.h_hat    # (M0,)
    signal = np.abs(np.vdot(equivalent, warr)) ** 2
    return float(signal + error_power_constant(varr.shape[0], delta1, delta2))


def gk(v: PhaseLike, stats: ChannelStatistics, k: int) -> float:
    """Expected interference power from BS k under own-user MRT:
    ||v^H glos_k||^2 / Mk + a_kr*a_ru*Mr*(1 - tau_k) + a_k0, the closed
    form that acceptance criterion 1 checks against physical draws."""
    if k == 0:
        raise ValueError("k = 0 is the serving link; use g0")
    if not 1 <= k < stats.n_bs:
        raise ValueError(f"interferer index {k} out of range (1..{stats.n_bs - 1})")
    varr = phase_array(v)
    los_term = np.linalg.norm(varr.conj() @ stats.cascaded_los[k]) ** 2 / stats.bs_sizes[k]
    return float(los_term + _interferer_floor(stats, k))


def _interferer_floor(stats: ChannelStatistics, k: int) -> float:
    """The v-independent part of gk: a_kr*a_ru*Mr*(1 - tau_k) + a_k0."""
    return (stats.alpha_bs_irs[k] * stats.alpha_irs_user * stats.irs_size
            * (1.0 - stats.tau[k]) + stats.alpha_direct[k])


def interference_quadratic(stats: ChannelStatistics,
                           cfg: ScenarioConfig) -> tuple[np.ndarray, float]:
    """The interference-plus-noise power sum_k p_k * gk(v) + sigma^2 as a
    low-rank quadratic form: (F, d) with denominator ||F^H v||^2 + d, i.e.
    B = F F^H.  Each cascaded LoS is rank one, glos_k = g_k b_k^H with
    unit-modulus b_k (||b_k||^2 = Mk), so (p_k/Mk) glos_k glos_k^H
    = p_k g_k g_k^H and F has one column sqrt(p_k) * g_k per interferer,
    in interferer order: a C-contiguous complex (Mr, K), K = n_bs - 1 >= 0.
    Column 0 of glos_k is g_k times a unit phase, which F F^H does not
    see; an interferer without LoS (tau_k = 0) gets a zero column."""
    powers = cfg.powers_watt
    d = cfg.noise_watt
    factor = np.empty((stats.irs_size, stats.n_bs - 1), dtype=complex)
    for k in range(1, stats.n_bs):
        d += powers[k] * _interferer_floor(stats, k)
        factor[:, k - 1] = math.sqrt(powers[k]) * stats.cascaded_los[k][:, 0]
    return factor, float(d)


def sinr_denominator(v: PhaseLike, stats: ChannelStatistics, cfg: ScenarioConfig) -> float:
    """Interference-plus-noise power sum_k p_k * gk(v) + sigma^2, evaluated
    as ||F^H v||^2 + d from `interference_quadratic`."""
    factor, const = interference_quadratic(stats, cfg)
    proj = np.conj(phase_array(v)) @ factor
    return float(np.real(np.vdot(proj, proj))) + const


# ---------------------------------------------------------------------------
# Views of the design objective (ssca.DesignObjective)
# ---------------------------------------------------------------------------

def gamma_ub(v: PhaseLike, sample: CsiSample, stats: ChannelStatistics,
             cfg: ScenarioConfig) -> float:
    """Per-sample objective: p0 * g0 at the matched-filter beamformer over
    the interference-plus-noise power."""
    from .ssca import DesignObjective   # ssca imports this module
    return DesignObjective.from_scenario(stats, cfg).ratio(sample).value(v)


def gamma_ub_gradient(v: PhaseLike, sample: CsiSample, stats: ChannelStatistics,
                      cfg: ScenarioConfig) -> np.ndarray:
    """Formal complex derivative of gamma_ub per coordinate (see
    ssca.DesignObjective.grad for the convention)."""
    from .ssca import DesignObjective   # ssca imports this module
    return DesignObjective.from_scenario(stats, cfg).ratio(sample).grad(v)


def upper_bound_rate_closed_form(v: PhaseLike, stats: ChannelStatistics,
                                 cfg: ScenarioConfig) -> float:
    """log2(1 + E gamma(v)) with the closed-form mean of the robust design
    objective (`DesignObjective.expected`).  The mean is exact for any v,
    relaxed ones included: its numerator is p0 * (||glos_0^H v||^2
    + M0*(sigma_g^2 ||v||^2 + sigma_h^2) + delta2^2 + Mr*delta1^2)."""
    from .ssca import DesignObjective   # ssca imports this module
    value, _ = DesignObjective.from_scenario(stats, cfg).expected(phase_array(v))
    return _log2_1p(value)


def _log2_1p(x: float) -> float:
    """log2(1 + x) without rounding 1 + x first, which costs low rates
    their last digits."""
    return math.log1p(x) / _LN2


# ---------------------------------------------------------------------------
# Monte Carlo ergodic rate
# ---------------------------------------------------------------------------

BeamformingPolicy = Callable[[np.ndarray], np.ndarray]


def ergodic_rates_mc(vs: Sequence[PhaseLike], policies: Sequence[BeamformingPolicy],
                     stats: ChannelStatistics, cfg: ScenarioConfig, n_samples: int,
                     rng: int) -> list[RateReport]:
    """Monte Carlo ergodic rates of a stack of designs on one shared draw set.

    `vs` holds S phase-shift designs and `policies` the beamforming policy
    of each, in the same order; one report per design comes back, in that
    order.  Each slot needs only the serving link's combined channels: the
    true x = g_true^H v + h_true and the estimated e_hat = g_hat^H v + h_hat,
    drawn from their exact law by `PhysicalChannelSampler.draw_combined`
    (O(Mr + M0) draws per slot; no (n, Mr, M0) array is built).  The draws
    that do not depend on the design are made once per chunk of slots and
    shared by every design, so the reports are paired by construction and
    their Gaussian draw count does not grow with S.  A policy maps e_hat
    (n, M0) to unit-norm rows (n, M0).  The signal term |x^H w|^2 uses the
    true channel; the interference-plus-noise term uses its exact
    expectation, per the worst-case-noise reading of the rate: sigma^2 plus
    the report's powers p_k * gk(v), read off one projection F^H v of each
    design with the (Mr, K) factor F of `interference_quadratic`.  Each
    design is reduced to its row of per-sample rates before the next one
    is drawn, so memory does not grow with S beyond that row; the row is
    the report's `rate_samples`.
    """
    if len(vs) == 0:
        raise ValueError("no designs to evaluate")
    if len(policies) != len(vs):
        raise ValueError(f"{len(policies)} policies for {len(vs)} designs; "
                         "give one policy per design")
    check_count(n_samples, "n_samples")
    varrs = [phase_array(v) for v in vs]
    for i, varr in enumerate(varrs):
        if varr.shape[0] != stats.irs_size:
            raise ValueError(f"design {i} has {varr.shape[0]} phase shifts, "
                             f"the IRS has Mr = {stats.irs_size} elements")
        if not np.all(np.isfinite(varr)):
            raise ValueError(f"design {i} has non-finite phase shifts")
    stack = np.stack(varrs)
    # p_k * gk(v) = |(F^H v)_k|^2 + p_k * floor_k, (S, K)
    factor, _ = interference_quadratic(stats, cfg)
    proj = stack.conj() @ factor
    floors = [cfg.powers_watt[k] * _interferer_floor(stats, k) for k in range(1, stats.n_bs)]
    intf = proj.real ** 2 + proj.imag ** 2 + floors
    dens = cfg.noise_watt + np.sum(intf, axis=1)
    p0 = cfg.powers_watt[0]

    sampler = PhysicalChannelSampler(stats, rng, include_interference=False)
    rates = np.empty((len(varrs), n_samples))
    signal_sums = [0.0] * len(varrs)
    done = 0
    while done < n_samples:
        m = min(_MC_CHUNK, n_samples - done)
        for i, (x, e_hat) in enumerate(sampler.draw_combined(stack, m)):
            w = policies[i](e_hat)                                 # (m, M0)
            signal = np.abs(np.einsum("ni,ni->n", x.conj(), w)) ** 2
            signal_sums[i] += float(np.sum(signal))
            rates[i, done:done + m] = np.log1p(p0 * signal / dens[i]) / _LN2
        done += m

    reports = []
    for varr, row, signal_sum, powers in zip(varrs, rates, signal_sums, intf):
        stderr = float(np.std(row, ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
        reports.append(RateReport(
            ub_rate=upper_bound_rate_closed_form(varr, stats, cfg),
            mc_rate=float(np.mean(row)),
            mc_stderr=stderr,
            n_samples=n_samples,
            signal_power=p0 * signal_sum / n_samples,
            interference_power=tuple(map(float, powers)),
            noise_power=cfg.noise_watt,
            rate_samples=row,
        ))
    return reports


def ergodic_rate_mc(v: PhaseLike, policy: BeamformingPolicy, stats: ChannelStatistics,
                    cfg: ScenarioConfig, n_samples: int, rng: int) -> RateReport:
    """Monte Carlo ergodic rate of one design: `ergodic_rates_mc` on a stack
    of one.  It draws the same values as any stack that holds v under the
    same seed and `n_samples`, so its report equals that design's row of a
    stacked evaluation."""
    return ergodic_rates_mc([v], [policy], stats, cfg, n_samples, rng)[0]
