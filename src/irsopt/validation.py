"""Operational self-checks: closed forms vs sampling at reduced scale.

These are quick smoke oracles for the `validate-oracles` CLI command, not
the acceptance gate; they use fewer draws and looser tolerances so a full
pass stays under a few seconds.
"""
from __future__ import annotations

import math

import numpy as np

from .channel import (ChannelStatistics, PhysicalChannelSampler, build_statistics,
                      sample_estimated_csi)
from .config import ScenarioConfig
from .beamforming import mrt_policy
from .rate import (
    _MC_CHUNK,
    ergodic_rate_mc,
    gk,
    phase_array,
    sinr_denominator,
    PhaseShiftVector,
)
from .ssca import DesignObjective
from .streams import child_seed, named_child, named_children


def _random_phase(stats: ChannelStatistics, rng) -> PhaseShiftVector:
    return PhaseShiftVector.from_phases(rng.uniform(0, 2 * math.pi, stats.irs_size))


def check_interference_power_oracle(cfg: ScenarioConfig, seed: int,
                                    n_draws: int = 20000, rtol: float = 0.05):
    """gk against the sampled interference power under own-user MRT."""
    stats = build_statistics(cfg)
    if stats.n_bs < 2:
        return True, "no interferers to check"
    rng = named_child(seed, "validate/gk")
    v = _random_phase(stats, rng)
    varr = phase_array(v)
    sampler = PhysicalChannelSampler(stats, child_seed(seed, "validate/gk/draws"),
                                     include_interference=True)
    batch = sampler.draw(n_draws)
    worst = 0.0
    for k in range(1, stats.n_bs):
        g, h, h_own = batch.interference[k - 1]
        w = h_own / np.linalg.norm(h_own, axis=1, keepdims=True)
        a = np.einsum("nmi,m->ni", g.conj(), varr) + h
        sampled = float(np.mean(np.abs(np.einsum("ni,ni->n", a.conj(), w)) ** 2))
        closed = gk(v, stats, k)
        worst = max(worst, abs(sampled - closed) / closed)
    return worst < rtol, f"max relative gap {worst:.3%} over {stats.n_bs - 1} interferers"


def check_expected_objective_oracle(cfg: ScenarioConfig, seed: int,
                                    n_draws: int = 20000, rtol: float = 0.05):
    """Closed-form E gamma(v) (`DesignObjective.expected`) vs the mean of
    `evaluate` over the solver's estimate draws.  The value only: at this
    draw count the mean ascent is too noisy for a norm check."""
    stats = build_statistics(cfg)
    rng = named_child(seed, "validate/g0")
    v = _random_phase(stats, rng).v
    design = DesignObjective.from_scenario(stats, cfg)
    streams = named_children(child_seed(seed, "validate/g0/d"), ("design/g", "design/h"))
    total = 0.0
    for start in range(0, n_draws, _MC_CHUNK):
        e, ge = design.sample(streams, v, min(_MC_CHUNK, n_draws - start))
        total += float(np.sum(design.evaluate(v, e, ge)[0]))
    sampled = total / n_draws
    closed, _ = design.expected(v)
    gap = abs(sampled - closed) / max(closed, 1e-30)
    return gap < rtol, f"sampled {sampled:.4e} vs closed form {closed:.4e}"


def check_beamformer_optimality(cfg: ScenarioConfig, seed: int,
                                n_random: int = 300):
    """Matched filter beats random unit beamformers on the signal power."""
    stats = build_statistics(cfg)
    rng = named_child(seed, "validate/bf")
    v = _random_phase(stats, rng)
    sample = sample_estimated_csi(stats, cfg, child_seed(seed, "validate/bf/csi"))
    e = sample.g_hat.conj().T @ v.v + sample.h_hat
    best = float(np.real(np.vdot(e, e)))
    m0 = stats.bs_sizes[0]
    w = rng.standard_normal((n_random, m0)) + 1j * rng.standard_normal((n_random, m0))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    rival = float(np.max(np.abs(w.conj() @ e) ** 2))
    return rival <= best * (1 + 1e-12), f"best random {rival:.3e} vs closed form {best:.3e}"


def check_gradient(cfg: ScenarioConfig, seed: int, step: float = 1e-6,
                   rtol: float = 1e-5):
    """Analytic complex gradient vs central finite differences."""
    stats = build_statistics(cfg)
    rng = named_child(seed, "validate/grad")
    varr = (rng.uniform(0.3, 1.0, stats.irs_size)
            * np.exp(1j * rng.uniform(0, 2 * math.pi, stats.irs_size)))
    sample = sample_estimated_csi(stats, cfg, child_seed(seed, "validate/grad/csi"))
    ratio = DesignObjective.from_scenario(stats, cfg).ratio(sample)
    grad = ratio.grad(varr)

    fd = np.zeros_like(grad)
    for n in range(varr.shape[0]):
        for direction, weight in ((1.0, 0.5), (1j, -0.5j)):
            plus, minus = varr.copy(), varr.copy()
            plus[n] += step * direction
            minus[n] -= step * direction
            diff = (ratio.value(plus) - ratio.value(minus)) / (2 * step)
            fd[n] += weight * diff
    err = np.linalg.norm(fd - grad) / np.linalg.norm(grad)
    return err < rtol, f"relative L2 error {err:.2e}"


def check_jensen(cfg: ScenarioConfig, seed: int, n_samples: int = 4000):
    """Upper bound dominates the Monte Carlo rate within sampling noise."""
    stats = build_statistics(cfg)
    rng = named_child(seed, "validate/jensen")
    v = _random_phase(stats, rng)
    report = ergodic_rate_mc(v, mrt_policy(v), stats, cfg, n_samples,
                             child_seed(seed, "validate/jensen/mc"))
    ok = report.ub_rate >= report.mc_rate - 3 * report.mc_stderr
    gap = (report.ub_rate - report.mc_rate) / max(report.ub_rate, 1e-30)
    return ok, f"ub {report.ub_rate:.4f}, mc {report.mc_rate:.4f} (gap {gap:.2%})"


def check_denominator_consistency(cfg: ScenarioConfig, seed: int):
    """Low-rank denominator ||F^H v||^2 + d (`sinr_denominator`) equals the
    explicit sum_k p_k * gk + sigma^2."""
    stats = build_statistics(cfg)
    rng = named_child(seed, "validate/den")
    v = phase_array(_random_phase(stats, rng))
    via_sum = cfg.noise_watt + sum(cfg.powers_watt[k] * gk(v, stats, k)
                                   for k in range(1, stats.n_bs))
    via_quad = sinr_denominator(v, stats, cfg)
    gap = abs(via_quad - via_sum) / via_sum
    return gap < 1e-10, f"relative gap {gap:.2e}"


ALL_CHECKS = (
    ("interference-power-oracle", check_interference_power_oracle),
    ("expected-objective-oracle", check_expected_objective_oracle),
    ("beamformer-optimality", check_beamformer_optimality),
    ("gradient-finite-difference", check_gradient),
    ("jensen-dominance", check_jensen),
    ("denominator-consistency", check_denominator_consistency),
)


def run_validation(cfg: ScenarioConfig, seed: int = 0) -> bool:
    """Run every check, print one PASS/FAIL line each, return overall result."""
    all_ok = True
    for name, check in ALL_CHECKS:
        try:
            ok, detail = check(cfg, seed)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok &= ok
        print(f"  {'PASS' if ok else 'FAIL'} {name}: {detail}")
    return all_ok
