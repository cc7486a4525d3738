import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import irsopt
from irsopt.beamforming import Beamformer, mrt_equivalent_beamformer, mrt_policy
from irsopt.channel import (
    PhysicalChannelSampler,
    CsiSample,
    build_statistics,
    sample_estimated_csi,
)
from irsopt.rate import (
    PhaseShiftVector,
    RateReport,
    ergodic_rate_mc,
    error_power_constant,
    g0,
    gamma_ub,
    gamma_ub_gradient,
    gk,
    interference_quadratic,
    phase_array,
    sinr_denominator,
    upper_bound_rate_closed_form,
)
from irsopt.ssca import DesignObjective
from irsopt.streams import crandn
from conftest import (EDGE_REGIMES, combine_draws, design_draws, edge_scenario, paired_t,
                      random_phase_vector, random_relaxed, random_scenario)


def fd_gradient(fn, v: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central finite differences on real and imaginary parts, combined into
    the formal derivative (d/dx - i d/dy)/2."""
    out = np.zeros(v.shape[0], dtype=complex)
    for n in range(v.shape[0]):
        dx_p, dx_m = v.copy(), v.copy()
        dx_p[n] += step
        dx_m[n] -= step
        dx = (fn(dx_p) - fn(dx_m)) / (2 * step)
        dy_p, dy_m = v.copy(), v.copy()
        dy_p[n] += 1j * step
        dy_m[n] -= 1j * step
        dy = (fn(dy_p) - fn(dy_m)) / (2 * step)
        out[n] = 0.5 * (dx - 1j * dy)
    return out


def _single_bs_cfg(irs_grid=(2, 2), bs_grid=(2, 2), rician=3.0, delta=0.0):
    return irsopt.ScenarioConfig(
        name="single",
        bs_positions=((0.0, 0.0),),
        irs_position=(40.0, 10.0),
        user_position=(80.0, -15.0),
        bs_grids=(bs_grid,),
        irs_grid=irs_grid,
        powers_dbm=(30.0,),
        noise_dbm=-90.0,
        rician_bs_irs=(rician,),
        rician_irs_user=rician,
        angles_bs_irs=((0.4, 0.9),),
        angles_irs_user=(1.0, 0.5),
        delta1=delta,
        delta2=delta,
    )


# ---------------------------------------------------------------------------
# g0
# ---------------------------------------------------------------------------

def test_g0_zero_error_is_plain_signal(small_cfg, small_stats):
    rng = np.random.default_rng(0)
    sample = sample_estimated_csi(small_stats, small_cfg, 1)
    v = random_phase_vector(rng, small_stats.irs_size)
    w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    w /= np.linalg.norm(w)
    e = sample.g_hat.conj().T @ v.v + sample.h_hat
    expected = abs(np.vdot(e, w)) ** 2
    assert np.isclose(g0(v, w, sample, 0.0, 0.0), expected, rtol=1e-12)


def test_g0_orthogonal_beamformer_leaves_constants(small_cfg, small_stats):
    rng = np.random.default_rng(1)
    sample = sample_estimated_csi(small_stats, small_cfg, 2)
    v = random_phase_vector(rng, small_stats.irs_size)
    e = sample.g_hat.conj().T @ v.v + sample.h_hat
    u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    w = u - (np.vdot(e, u) / np.vdot(e, e)) * e
    w /= np.linalg.norm(w)
    d1, d2 = 3e-8, 5e-8
    expected = error_power_constant(small_stats.irs_size, d1, d2)
    assert np.isclose(g0(v, w, sample, d1, d2), expected, rtol=1e-9)


def test_g0_brute_force_error_expectation(small_cfg):
    # oracle: average the signal power over explicit CSI-error draws
    cfg = small_cfg.replace(delta1=0.5, delta2=0.5)
    stats = build_statistics(cfg)
    rng = np.random.default_rng(2)
    sample = sample_estimated_csi(stats, cfg, 3)
    v = random_phase_vector(rng, stats.irs_size)
    w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    w /= np.linalg.norm(w)

    n = 100_000
    d1, d2 = stats.delta1_abs, stats.delta2_abs
    dg = (rng.standard_normal((n, stats.irs_size, 4))
          + 1j * rng.standard_normal((n, stats.irs_size, 4))) * math.sqrt(d1 ** 2 / 2)
    dh = (rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))) * math.sqrt(d2 ** 2 / 2)
    e = np.einsum("nmi,m->ni", (sample.g_hat[None] + dg).conj(), v.v) + sample.h_hat[None] + dh
    sampled = float(np.mean(np.abs(np.einsum("ni,i->n", e.conj(), w)) ** 2))
    closed = g0(v, w, sample, d1, d2)
    assert abs(sampled - closed) / closed < 0.01


def test_g0_dimension_mismatch(small_cfg, small_stats):
    sample = sample_estimated_csi(small_stats, small_cfg, 1)
    v_bad = PhaseShiftVector.ones(small_stats.irs_size + 1)
    w = np.zeros(4)
    w[0] = 1.0
    with pytest.raises(ValueError, match="dimension mismatch"):
        g0(v_bad, w, sample, 0.0, 0.0)


def test_g0_requires_unit_beamformer(small_cfg, small_stats):
    sample = sample_estimated_csi(small_stats, small_cfg, 1)
    v = PhaseShiftVector.ones(small_stats.irs_size)
    with pytest.raises(ValueError, match="unit-norm"):
        g0(v, np.ones(4), sample, 0.0, 0.0)


# ---------------------------------------------------------------------------
# gk / denominator
# ---------------------------------------------------------------------------

def test_gk_serving_index_rejected(small_stats):
    v = PhaseShiftVector.ones(small_stats.irs_size)
    with pytest.raises(ValueError, match="serving"):
        gk(v, small_stats, 0)
    with pytest.raises(ValueError, match="out of range"):
        gk(v, small_stats, small_stats.n_bs)


def test_gk_zero_los(small_cfg):
    cfg = small_cfg.replace(rician_bs_irs=(0.0, 0.0, 0.0))
    stats = build_statistics(cfg)
    v = PhaseShiftVector.ones(stats.irs_size)
    expected = (stats.alpha_bs_irs[1] * stats.alpha_irs_user * stats.irs_size
                + stats.alpha_direct[1])
    assert np.isclose(gk(v, stats, 1), expected, rtol=1e-12)


def test_gk_pure_los_no_direct(small_cfg):
    cfg = small_cfg.replace(rician_bs_irs=(math.inf,) * 3, rician_irs_user=math.inf,
                            delta1=0.0, delta2=0.0)
    stats = build_statistics(cfg)
    stats = dataclasses.replace(stats, alpha_direct=np.array([stats.alpha_direct[0], 0.0, 0.0]))
    rng = np.random.default_rng(3)
    v = random_phase_vector(rng, stats.irs_size)
    expected = np.linalg.norm(v.v.conj() @ stats.cascaded_los[1]) ** 2 / stats.bs_sizes[1]
    assert np.isclose(gk(v, stats, 1), expected, rtol=1e-12)


def test_gk_brute_force_mrt_oracle(small_cfg, small_stats):
    # oracle: sample interferer channels and average the MRT leakage power
    rng = np.random.default_rng(4)
    v = random_phase_vector(rng, small_stats.irs_size)
    n = 100_000
    sampler = PhysicalChannelSampler(small_stats, 71, include_interference=True)
    batch = sampler.draw(n)
    for k in (1, 2):
        g, h, h_own = batch.interference[k - 1]
        w = h_own / np.linalg.norm(h_own, axis=1, keepdims=True)
        a = np.einsum("nmi,m->ni", g.conj(), v.v) + h
        sampled = float(np.mean(np.abs(np.einsum("ni,ni->n", a.conj(), w)) ** 2))
        closed = gk(v, small_stats, k)
        assert abs(sampled - closed) / closed < 0.01


def test_sinr_denominator_no_interferers():
    cfg = _single_bs_cfg()
    stats = build_statistics(cfg)
    v = PhaseShiftVector.ones(stats.irs_size)
    assert sinr_denominator(v, stats, cfg) == cfg.noise_watt


def test_sinr_denominator_increasing_in_power(preset_cfg, preset_stats):
    v = PhaseShiftVector.ones(preset_stats.irs_size)
    base = sinr_denominator(v, preset_stats, preset_cfg)
    louder = preset_cfg.replace(powers_dbm=(30.0, 33.0, 30.0))
    assert sinr_denominator(v, preset_stats, louder) > base


def _explicit_denominator(v, stats, cfg):
    """sum_k p_k * gk(v) + sigma^2, one interferer at a time."""
    return cfg.noise_watt + sum(cfg.powers_watt[k] * gk(v, stats, k)
                                for k in range(1, stats.n_bs))


def _dense_interference(stats, cfg):
    """sum_k (p_k/Mk) glos_k glos_k^H, the dense B that F F^H replaces."""
    dense = np.zeros((stats.irs_size, stats.irs_size), dtype=complex)
    for k in range(1, stats.n_bs):
        glos = stats.cascaded_los[k]
        dense += cfg.powers_watt[k] / stats.bs_sizes[k] * (glos @ glos.conj().T)
    return dense


def test_denominator_quadratic_matches_sum(preset_cfg, preset_stats):
    rng = np.random.default_rng(5)
    factor, _ = interference_quadratic(preset_stats, preset_cfg)
    assert factor.shape == (preset_stats.irs_size, preset_stats.n_bs - 1)
    for v in [phase_array(random_phase_vector(rng, preset_stats.irs_size))
              for _ in range(5)] + [random_relaxed(rng, preset_stats.irs_size)]:
        assert np.isclose(sinr_denominator(v, preset_stats, preset_cfg),
                          _explicit_denominator(v, preset_stats, preset_cfg), rtol=1e-12)
    # each glos_k is rank one, so F F^H with one column per interferer is the
    # dense sum_k (p_k/Mk) glos_k glos_k^H it replaces
    cfgs = ([preset_cfg] + [random_scenario(rng, f"rank{i}") for i in range(30)]
            + [edge_scenario(preset_cfg, regime) for regime in EDGE_REGIMES])
    for cfg in cfgs:
        stats = build_statistics(cfg)
        factor, _ = interference_quadratic(stats, cfg)
        assert factor.shape == (stats.irs_size, stats.n_bs - 1)
        assert factor.dtype == complex and factor.flags.c_contiguous
        dense = _dense_interference(stats, cfg)
        np.testing.assert_allclose(factor @ factor.conj().T, dense, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(dense)))


# ---------------------------------------------------------------------------
# upper-bound rate
# ---------------------------------------------------------------------------

def _design_signal_power(v, stats, cfg, seed, n):
    """Per-draw ||g_hat^H v + h_hat||^2 over the solver's estimate law."""
    g_hat, h_hat = design_draws(stats, cfg, seed, n)
    e = np.einsum("nmi,m->ni", g_hat.conj(), phase_array(v)) + h_hat
    return np.real(np.einsum("ni,ni->n", e.conj(), e))


def _ub_rate_of_signal(signal, v, stats, cfg):
    c = error_power_constant(stats.irs_size, stats.delta1_abs, stats.delta2_abs)
    return math.log2(1 + cfg.powers_watt[0] * (signal + c) / sinr_denominator(v, stats, cfg))


def test_upper_bound_mc_matches_closed_form(small_cfg):
    cfg = small_cfg.replace(delta1=0.3, delta2=0.3)
    stats = build_statistics(cfg)
    rng = np.random.default_rng(6)
    v = random_phase_vector(rng, stats.irs_size)

    n = 10_000
    signal = _design_signal_power(v, stats, cfg, 55, n)
    mean, se = float(np.mean(signal)), float(np.std(signal, ddof=1) / math.sqrt(n))
    lo = _ub_rate_of_signal(mean - 3 * se, v, stats, cfg)
    hi = _ub_rate_of_signal(mean + 3 * se, v, stats, cfg)
    assert lo <= upper_bound_rate_closed_form(v, stats, cfg) <= hi


def test_upper_bound_zero_variance_deterministic(small_cfg):
    cfg = small_cfg.replace(delta1=1.0, delta2=1.0)
    stats = build_statistics(cfg)
    v = PhaseShiftVector.ones(stats.irs_size)
    signal = _design_signal_power(v, stats, cfg, 1, 50)
    ub_sampled = _ub_rate_of_signal(float(np.mean(signal)), v, stats, cfg)
    ub_cf = upper_bound_rate_closed_form(v, stats, cfg)
    assert np.isclose(ub_sampled, ub_cf, rtol=1e-12)


def test_upper_bound_monotone_in_power(preset_cfg, preset_stats):
    v = PhaseShiftVector.ones(preset_stats.irs_size)
    base = upper_bound_rate_closed_form(v, preset_stats, preset_cfg)
    stronger = preset_cfg.replace(powers_dbm=(33.0, 30.0, 30.0))
    assert upper_bound_rate_closed_form(v, preset_stats, stronger) > base


def test_expected_signal_power_closed_form_vs_sampling(small_cfg):
    # DesignObjective.expected against the ratio at the mean pair of full
    # (g_hat, h_hat) draws from the estimate law; the ratio is affine in the
    # pair at fixed v, so that is the mean of the per-draw values
    cfg = small_cfg.replace(delta1=0.4, delta2=0.1)
    stats = build_statistics(cfg)
    design = DesignObjective.from_scenario(stats, cfg)
    rng = np.random.default_rng(7)
    v = random_phase_vector(rng, stats.irs_size).v
    n = 100_000
    e, ge = combine_draws(v, *design_draws(stats, cfg, 91, n))
    value, _ = design._ratio(v, float(np.mean(np.sum(np.abs(e) ** 2, axis=1))),
                             np.mean(ge, axis=0))
    closed, _ = design.expected(v)
    assert abs(value - closed) / closed < 0.02


def test_upper_bound_at_relaxed_v_is_the_exact_expectation(small_cfg):
    # ||v||^2 != Mr: the sigma_g^2 term of the mean scales with ||v||^2
    cfg = small_cfg.replace(delta1=0.3, delta2=0.2)
    stats = build_statistics(cfg)
    rng = np.random.default_rng(17)
    m0 = stats.bs_sizes[0]
    c = stats.delta2_abs ** 2 + stats.irs_size * stats.delta1_abs ** 2
    for v in (0.5 * random_phase_vector(rng, stats.irs_size).v,
              random_relaxed(rng, stats.irs_size)):
        signal = (np.linalg.norm(stats.cascaded_los[0].conj().T @ v) ** 2
                  + m0 * (stats.estimate_g_var * np.linalg.norm(v) ** 2
                          + stats.estimate_h_var) + c)
        want = math.log2(1 + cfg.powers_watt[0] * signal
                         / _explicit_denominator(v, stats, cfg))
        assert upper_bound_rate_closed_form(v, stats, cfg) == pytest.approx(want, rel=1e-12)


def test_rates_keep_their_last_digits_at_low_sinr():
    # log2(1 + x) rounds 1 + x before the logarithm; log1p(x) / ln 2 does not
    rng = np.random.default_rng(27)
    cfg = random_scenario(rng, "low-sinr")
    stats = build_statistics(cfg)
    v = random_phase_vector(rng, stats.irs_size)
    x, _ = DesignObjective.from_scenario(stats, cfg).expected(v.v)
    assert 0.05 < x < 0.2
    want = math.log1p(x) / math.log(2)
    assert math.log2(1.0 + x) != want       # the case tells the two forms apart
    assert upper_bound_rate_closed_form(v, stats, cfg) == want
    # below the rounding of 1 + x, log2(1 + x) is 0 while the rate is x / ln 2
    quiet = cfg.replace(noise_dbm=cfg.noise_dbm + 200.0)
    report = ergodic_rate_mc(v, mrt_policy(v), stats, quiet, 50, 3)
    x, _ = DesignObjective.from_scenario(stats, quiet).expected(v.v)
    assert 1.0 + x == 1.0
    assert report.ub_rate == pytest.approx(x / math.log(2), rel=1e-12)
    assert np.all(report.rate_samples > 0.0)
    assert report.ub_rate >= report.mc_rate - 3 * report.mc_stderr


# ---------------------------------------------------------------------------
# ergodic rate
# ---------------------------------------------------------------------------

def test_ergodic_deterministic_single_bs():
    cfg = _single_bs_cfg(rician=math.inf)
    stats = build_statistics(cfg)
    stats = dataclasses.replace(stats, alpha_direct=np.array([0.0]))
    v = PhaseShiftVector.ones(stats.irs_size)
    report = ergodic_rate_mc(v, mrt_policy(v), stats, cfg, 20, 3)
    expected = math.log2(
        1 + cfg.powers_watt[0]
        * np.linalg.norm(stats.cascaded_los[0].conj().T @ v.v) ** 2 / cfg.noise_watt)
    assert np.isclose(report.mc_rate, expected, rtol=1e-12)
    # every draw collapses to the same value; stderr is summation noise only
    assert np.ptp(report.rate_samples) == 0.0
    assert report.mc_stderr < 1e-12 * report.mc_rate


def test_ergodic_below_upper_bound(small_cfg):
    for delta in (0.1, 0.6):
        cfg = small_cfg.replace(delta1=delta, delta2=delta)
        stats = build_statistics(cfg)
        rng = np.random.default_rng(8)
        v = random_phase_vector(rng, stats.irs_size)
        report = ergodic_rate_mc(v, mrt_policy(v), stats, cfg, 4000, 13)
        assert report.ub_rate >= report.mc_rate - 3 * report.mc_stderr


def test_perfect_csi_beats_imperfect_paired(small_cfg):
    results = {}
    for delta in (0.0, 0.7):
        cfg = small_cfg.replace(delta1=delta, delta2=delta)
        stats = build_statistics(cfg)
        v = PhaseShiftVector.ones(stats.irs_size)
        results[delta] = ergodic_rate_mc(v, mrt_policy(v), stats, cfg, 3000, 17)
    diff, se, t = paired_t(results[0.0].rate_samples, results[0.7].rate_samples)
    assert t > 3.0, f"perfect CSI should win: diff={diff}, t={t}"


def test_ergodic_report_fields(small_cfg, small_stats):
    v = PhaseShiftVector.ones(small_stats.irs_size)
    report = ergodic_rate_mc(v, mrt_policy(v), small_stats, small_cfg, 500, 19)
    assert report.n_samples == 500
    assert report.signal_power > 0
    assert len(report.interference_power) == 2
    assert report.noise_power == small_cfg.noise_watt
    assert report.rate_samples.shape == (500,)
    assert report.mc_rate == np.mean(report.rate_samples)
    payload = report.to_dict()
    assert set(payload) == {"ub_rate", "mc_rate", "mc_stderr", "n_samples",
                            "signal_power", "interference_power", "noise_power"}


def test_report_powers_are_gk_and_sum_to_the_denominator(small_cfg):
    # interferer 1 has no BS-IRS LoS (tau_1 = 0), so its F column is zero
    cfg = small_cfg.replace(rician_bs_irs=(3.0, 0.0, 3.0), delta1=0.3, delta2=0.3)
    stats = build_statistics(cfg)
    assert stats.tau[1] == 0.0 < stats.tau[2]
    rng = np.random.default_rng(8)
    vs = [phase_array(random_phase_vector(rng, stats.irs_size)),
          random_relaxed(rng, stats.irs_size)]
    reports = irsopt.ergodic_rates_mc(vs, [mrt_policy(v) for v in vs], stats, cfg, 50, 3)
    for v, report in zip(vs, reports):
        closed = [cfg.powers_watt[k] * gk(v, stats, k) for k in range(1, stats.n_bs)]
        np.testing.assert_allclose(report.interference_power, closed, rtol=1e-12, atol=0)
        assert math.isclose(report.noise_power + sum(report.interference_power),
                            sinr_denominator(v, stats, cfg), rel_tol=1e-12)


def test_ergodic_determinism(small_cfg, small_stats):
    v = PhaseShiftVector.ones(small_stats.irs_size)
    a = ergodic_rate_mc(v, mrt_policy(v), small_stats, small_cfg, 600, 23)
    b = ergodic_rate_mc(v, mrt_policy(v), small_stats, small_cfg, 600, 23)
    np.testing.assert_array_equal(a.rate_samples, b.rate_samples)


# ---------------------------------------------------------------------------
# the evaluator's combined-channel draws against the full physical sampler
# ---------------------------------------------------------------------------

def _physical_combined(v, stats, seed: int, n: int, chunk: int = 4096):
    """(x, e_hat) built from full `PhysicalChannelSampler.draw` batches:
    x = g_true^H v + h_true and e_hat = g_hat^H v + h_hat, in chunks."""
    varr = phase_array(v)
    sampler = PhysicalChannelSampler(stats, seed)
    xs, es = [], []
    for start in range(0, n, chunk):
        batch = sampler.draw(min(chunk, n - start))
        xs.append(np.einsum("nmi,m->ni", batch.g_true.conj(), varr) + batch.h_true)
        es.append(np.einsum("nmi,m->ni", batch.g_hat.conj(), varr) + batch.h_hat)
    return np.concatenate(xs), np.concatenate(es)


def _physical_rates(v, stats, cfg, seed: int, n: int) -> np.ndarray:
    """Per-sample matched-filter rates on full physical draws: the
    evaluator's arithmetic before it moved to `draw_combined`."""
    x, e_hat = _physical_combined(v, stats, seed, n, chunk=512)
    w = e_hat / np.linalg.norm(e_hat, axis=1)[:, None]
    signal = np.abs(np.einsum("ni,ni->n", x.conj(), w)) ** 2
    return np.log2(1.0 + cfg.powers_watt[0] * signal / sinr_denominator(v, stats, cfg))


def test_combined_draw_equals_physical_path_when_exact(small_cfg):
    # pure-LoS BS->IRS link and perfect CSI: g_true^H v = sqrt(a_0r) L^H u
    # with no scatter or error noise left to draw, so both routes compute the
    # same numbers from the same h_ru and h_true draws
    cfg = small_cfg.replace(rician_bs_irs=(math.inf,) + small_cfg.rician_bs_irs[1:],
                            delta1=0.0, delta2=0.0)
    stats = build_statistics(cfg)
    assert math.isfinite(cfg.rician_irs_user) and stats.sigma_g_sq[0] > 0
    v = random_phase_vector(np.random.default_rng(41), stats.irs_size)
    n = 1500    # three chunks, the last one partial
    report = ergodic_rate_mc(v, mrt_policy(v), stats, cfg, n, 43)
    np.testing.assert_allclose(report.rate_samples, _physical_rates(v, stats, cfg, 43, n),
                               rtol=1e-10, atol=0.0)
    assert np.ptp(report.rate_samples) > 0.1     # h_ru really is random


def _moments(x: np.ndarray, e_hat: np.ndarray) -> dict:
    return {"E|x|^2": np.mean(np.abs(x) ** 2, axis=0),
            "E|e|^2": np.mean(np.abs(e_hat) ** 2, axis=0),
            "E[x e*]": np.mean(x * e_hat.conj(), axis=0)}


@pytest.mark.parametrize("delta", [0.3, 0.8])
def test_combined_draw_matches_physical_sampler_in_law(delta):
    rng = np.random.default_rng(57)
    n = 20_000
    for i in range(3):
        # a weak direct link, so the cascaded terms carry the moments
        cfg = random_scenario(rng, f"law{i}").replace(
            delta1=delta, delta2=delta, exp_direct=rng.uniform(6.0, 7.0))
        assert all(math.isfinite(k) for k in cfg.rician_bs_irs + (cfg.rician_irs_user,))
        stats = build_statistics(cfg)
        v = random_phase_vector(rng, stats.irs_size)
        seed = int(rng.integers(2 ** 31))
        # one seed: both routes share h_ru and h_true, the variables the
        # combined law is conditioned on, and differ only in what it replaces
        (combined,) = PhysicalChannelSampler(stats, seed).draw_combined(v.v[None], n)
        new = _moments(*combined)
        old = _moments(*_physical_combined(v, stats, seed, n))
        for name in new:
            gap = np.abs(new[name] - old[name]) / np.abs(old[name])
            assert np.all(gap < 0.05), f"scenario {i}, {name}: relative gaps {gap}"

        # independent seeds: the 3-sigma bracket is then an unpaired test
        report = ergodic_rate_mc(v, mrt_policy(v), stats, cfg, n, seed + 1)
        rates = _physical_rates(v, stats, cfg, seed + 2, n)
        se = math.hypot(report.mc_stderr, np.std(rates, ddof=1) / math.sqrt(n))
        assert abs(report.mc_rate - np.mean(rates)) < 3 * se, (
            f"scenario {i}: {report.mc_rate} vs {np.mean(rates)} (se {se})")


def test_evaluator_never_builds_full_physical_batch(small_cfg, small_stats, monkeypatch):
    def refuse(self, n):
        raise AssertionError("the evaluator drew (n, Mr, M0) channels")

    monkeypatch.setattr(PhysicalChannelSampler, "draw", refuse)
    v = PhaseShiftVector.ones(small_stats.irs_size)
    report = ergodic_rate_mc(v, mrt_policy(v), small_stats, small_cfg, 600, 5)
    assert report.n_samples == 600 and math.isfinite(report.mc_rate)
    solver = irsopt.SolverConfig(iterations=3, samples_per_iter=2, seed=5)
    for name in ("proposed", "robust-with-intf"):
        report = irsopt.evaluate_scheme(irsopt.scheme(name), small_stats, small_cfg,
                                        solver, 64, 5)
        assert math.isfinite(report.mc_rate)


# ---------------------------------------------------------------------------
# the batched evaluator: a stack of designs on one shared draw set
# ---------------------------------------------------------------------------

def _bad_input_cases(stats):
    v = PhaseShiftVector.ones(stats.irs_size)
    policy = mrt_policy(v)
    return {
        "no designs": (([], []), {}, "no designs"),
        "short design": (([v, np.ones(1)], [policy, policy]), {}, "design 1 has 1 phase"),
        "long design": (([np.ones(stats.irs_size + 1)], [policy]), {}, "design 0 has"),
        "policy count": (([v, v], [policy]), {}, "1 policies for 2 designs"),
        "no samples": (([v], [policy]), {"n_samples": 0}, "n_samples"),
        "nan design": (([v, np.full(stats.irs_size, math.nan)], [policy, policy]), {},
                       "design 1 has non-finite"),
    }


@pytest.mark.parametrize("case", ["no designs", "short design", "long design",
                                  "policy count", "no samples", "nan design"])
def test_batched_evaluator_rejects_bad_input(small_cfg, small_stats, case):
    (vs, policies), overrides, message = _bad_input_cases(small_stats)[case]
    kwargs = {"n_samples": 8, "rng": 1, **overrides}
    with pytest.raises(ValueError, match=message):
        irsopt.ergodic_rates_mc(vs, policies, small_stats, small_cfg, **kwargs)


def test_draw_combined_rejects_unstacked_or_wrong_length_designs(small_stats):
    sampler = PhysicalChannelSampler(small_stats, 3)
    for vs in (np.ones(small_stats.irs_size), np.ones((2, small_stats.irs_size + 1))):
        with pytest.raises(ValueError, match="stacked as"):
            next(sampler.draw_combined(vs, 4))


def _stack_scenarios(small_cfg):
    """(stats, cfg, designs): a unit-modulus design, a relaxed one with
    ||v||^2 != Mr and v = 0, at delta1 = 0.4.  Without a direct link the
    zero design's estimated channel is exactly zero, the policy's dead row."""
    cfg = small_cfg.replace(delta1=0.4, delta2=0.0)
    stats = build_statistics(cfg)
    no_direct = dataclasses.replace(
        stats, alpha_direct=np.concatenate(([0.0], stats.alpha_direct[1:])))
    rng = np.random.default_rng(61)
    relaxed = random_relaxed(rng, stats.irs_size)
    assert abs(np.vdot(relaxed, relaxed).real - stats.irs_size) > 1.0
    designs = [random_phase_vector(rng, stats.irs_size).v, relaxed,
               np.zeros(stats.irs_size, dtype=complex)]
    return [(stats, cfg, designs), (no_direct, cfg, designs)]


@pytest.mark.parametrize("n", [1, 513, 1100])
@pytest.mark.parametrize("n_designs", [1, 3])
def test_stacked_evaluation_equals_one_design_evaluations(small_cfg, n_designs, n):
    # n crosses the 512-sample chunk boundary; every design of a stack reads the
    # same design-free draws (h_ru, h_true and the standard error parts), which
    # draw_combined never writes, and the last design, v = 0 here, has an
    # all-zero estimate without a direct link: the policy's dead row
    for stats, cfg, designs in _stack_scenarios(small_cfg):
        stack = designs[-n_designs:]
        dead_rows = []

        def spy(e_hat, policy=mrt_policy(stack[-1])):
            dead_rows.append(int(np.sum(np.linalg.norm(e_hat, axis=1) == 0.0)))
            return policy(e_hat)

        policies = [mrt_policy(v) for v in stack[:-1]] + [spy]
        stacked = irsopt.ergodic_rates_mc(stack, policies, stats, cfg, n, 71)
        assert len(stacked) == len(stack)
        for v, report in zip(stack, stacked):
            single = ergodic_rate_mc(v, mrt_policy(v), stats, cfg, n, 71)
            assert report.ub_rate == single.ub_rate
            assert report.interference_power == single.interference_power
            np.testing.assert_allclose(report.rate_samples, single.rate_samples,
                                       rtol=1e-12, atol=0.0)
            for field in ("mc_rate", "mc_stderr", "signal_power"):
                assert getattr(report, field) == pytest.approx(getattr(single, field),
                                                               rel=1e-12, abs=0.0)
        if stats.alpha_direct[0] == 0.0:
            assert sum(dead_rows) == n          # every slot of v = 0 hit the fallback
            assert np.all(stacked[-1].rate_samples == 0.0)


@pytest.mark.parametrize("n_designs", [1, 6])
def test_stacked_designs_draw_one_set_of_gaussians(small_cfg, small_stats, monkeypatch,
                                                   n_designs):
    counted = []

    def counting_crandn(rng, shape, var):
        out = crandn(rng, shape, var)
        counted.append(out.size)
        return out

    monkeypatch.setattr(irsopt.channel, "crandn", counting_crandn)
    rng = np.random.default_rng(3)
    vs = [random_phase_vector(rng, small_stats.irs_size) for _ in range(n_designs)]
    n = 700                                         # two chunks
    irsopt.ergodic_rates_mc(vs, [mrt_policy(v) for v in vs], small_stats, small_cfg,
                            n, 9)
    m0 = small_stats.bs_sizes[0]
    assert sum(counted) == n * (small_stats.irs_size + 4 * m0)


def test_stacked_evaluation_heap_does_not_grow_with_designs(preset_cfg):
    # Mr = 256, one 512-sample chunk: holding a per-design (n, Mr) array, or
    # h_ru beside u for a single design, would show against this bound
    cfg = preset_cfg.replace(irs_grid=(16, 16))
    stats = build_statistics(cfg)
    rng = np.random.default_rng(5)
    vs = [random_phase_vector(rng, stats.irs_size) for _ in range(14)]
    peaks = {}
    for count in (1, 14):
        policies = [mrt_policy(v) for v in vs[:count]]
        tracemalloc.start()
        try:
            irsopt.ergodic_rates_mc(vs[:count], policies, stats, cfg, 512, 4)
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[14] < 1.5 * peaks[1], peaks


def test_one_design_heap_is_about_h_ru(preset_cfg):
    # Mr = 1024, one 512-sample chunk: h_ru (8 MiB) is the only (n, Mr) array;
    # u = h_ru * v beside it, or h_ru built through temporaries, would reach 2x
    cfg = preset_cfg.replace(irs_grid=(32, 32))
    stats = build_statistics(cfg)
    v = random_phase_vector(np.random.default_rng(6), stats.irs_size)
    policy = mrt_policy(v)
    tracemalloc.start()
    try:
        ergodic_rate_mc(v, policy, stats, cfg, 512, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    h_ru_bytes = 512 * stats.irs_size * np.dtype(complex).itemsize
    assert peak <= 1.75 * h_ru_bytes, peak / h_ru_bytes


def test_rate_report_validation():
    with pytest.raises(ValueError):
        RateReport(ub_rate=1.0, mc_rate=1.0, mc_stderr=-0.1, n_samples=1,
                   signal_power=1.0, interference_power=(), noise_power=1.0)
    with pytest.raises(ValueError):
        RateReport(ub_rate=1.0, mc_rate=1.0, mc_stderr=0.1, n_samples=1,
                   signal_power=-1.0, interference_power=(), noise_power=1.0)


# ---------------------------------------------------------------------------
# gamma_ub and its gradient
# ---------------------------------------------------------------------------

def test_gamma_matches_g0_over_denominator(small_cfg):
    cfg = small_cfg.replace(delta1=0.2, delta2=0.4)
    stats = build_statistics(cfg)
    rng = np.random.default_rng(9)
    for trial in range(5):
        sample = sample_estimated_csi(stats, cfg, 100 + trial)
        v = random_phase_vector(rng, stats.irs_size)
        w = mrt_equivalent_beamformer(v, sample)
        direct = (cfg.powers_watt[0]
                  * g0(v, w, sample, stats.delta1_abs, stats.delta2_abs)
                  / sinr_denominator(v, stats, cfg))
        assert np.isclose(gamma_ub(v, sample, stats, cfg), direct, rtol=1e-12)


def test_gamma_zero_cascade_ignores_v(small_cfg, small_stats):
    h_hat = np.array([0.3 + 0.1j, -0.2j, 0.5, 0.1 + 0.7j]) * 1e-6
    sample = CsiSample(g_hat=np.zeros((small_stats.irs_size, 4), dtype=complex),
                       h_hat=h_hat)
    rng = np.random.default_rng(10)
    v1 = random_phase_vector(rng, small_stats.irs_size)
    v2 = random_phase_vector(rng, small_stats.irs_size)
    a = gamma_ub(v1, sample, small_stats, small_cfg)
    b = gamma_ub(v2, sample, small_stats, small_cfg)
    # numerator no longer depends on v; denominator still does (interferer LoS)
    num_a = a * sinr_denominator(v1, small_stats, small_cfg)
    num_b = b * sinr_denominator(v2, small_stats, small_cfg)
    assert np.isclose(num_a, num_b, rtol=1e-12)
    assert a > 0 and b > 0


def test_gamma_strictly_positive(small_cfg):
    cfg = small_cfg.replace(delta1=0.5, delta2=0.5)
    stats = build_statistics(cfg)
    rng = np.random.default_rng(11)
    sample = sample_estimated_csi(stats, cfg, 200)
    floor = (cfg.powers_watt[0]
             * error_power_constant(stats.irs_size, stats.delta1_abs, stats.delta2_abs))
    v = random_relaxed(rng, stats.irs_size)
    value = gamma_ub(v, sample, stats, cfg)
    assert value > 0
    assert value * sinr_denominator(v, stats, cfg) >= floor * 0.999


@pytest.mark.parametrize("deltas", [(0.0, 0.0), (0.3, 0.2)])
def test_single_draw_views_equal_batched_kernel_bitwise(small_cfg, deltas):
    # DesignObjective.ratio, gamma_ub and gamma_ub_gradient score one draw as
    # the zero-variance law at (g_hat, h_hat) through `expected`, not through
    # a copy of the formula; that law's mean pair is the draw's own
    cfg = small_cfg.replace(delta1=deltas[0], delta2=deltas[1])
    stats = build_statistics(cfg)
    design = DesignObjective.from_scenario(stats, cfg)
    rng = np.random.default_rng(16)
    for trial in range(3):
        sample = sample_estimated_csi(stats, cfg, 700 + trial)
        v = random_relaxed(rng, stats.irs_size)
        law = dataclasses.replace(design, g_mean=sample.g_hat, g_var=0.0,
                                  h_mean=sample.h_hat, h_var=0.0)
        value, ascent = law.expected(v)
        e = np.conj(v.conj() @ sample.g_hat) + sample.h_hat
        own_value, own_ascent = design._ratio(v, float(np.sum(np.abs(e) ** 2)),
                                              sample.g_hat @ e)
        assert value == pytest.approx(own_value, rel=1e-13)
        np.testing.assert_allclose(ascent, own_ascent, rtol=1e-13)
        ratio = design.ratio(sample)
        assert ratio.value(v) == value == gamma_ub(v, sample, stats, cfg)
        assert ratio.ascent(v).tobytes() == ascent.tobytes()
        assert ratio.grad(v).tobytes() == np.conj(ascent).tobytes()
        assert gamma_ub_gradient(v, sample, stats, cfg).tobytes() == \
            np.conj(ascent).tobytes()


def test_gradient_matches_finite_differences(small_cfg):
    cfg = small_cfg.replace(delta1=0.3, delta2=0.2)
    stats = build_statistics(cfg)
    rng = np.random.default_rng(12)
    for trial in range(10):
        sample = sample_estimated_csi(stats, cfg, 300 + trial)
        v = random_relaxed(rng, stats.irs_size)
        grad = gamma_ub_gradient(v, sample, stats, cfg)
        fd = fd_gradient(lambda u: gamma_ub(u, sample, stats, cfg), v)
        assert np.linalg.norm(fd - grad) / np.linalg.norm(grad) < 1e-5


def test_gradient_first_order_expansion(small_cfg, small_stats):
    rng = np.random.default_rng(13)
    sample = sample_estimated_csi(small_stats, small_cfg, 400)
    v = random_relaxed(rng, small_stats.irs_size)
    grad = gamma_ub_gradient(v, sample, small_stats, small_cfg)
    dv = 1e-7 * (rng.standard_normal(v.shape[0]) + 1j * rng.standard_normal(v.shape[0]))
    predicted = 2.0 * float(np.real(np.sum(grad * dv)))
    actual = (gamma_ub(v + dv, sample, small_stats, small_cfg)
              - gamma_ub(v, sample, small_stats, small_cfg))
    assert np.isclose(actual, predicted, rtol=1e-4)


def test_gradient_constant_denominator_form():
    # no interferers: gradient reduces to the conjugate-linear numerator map
    cfg = _single_bs_cfg(irs_grid=(2, 2))
    stats = build_statistics(cfg)
    rng = np.random.default_rng(14)
    sample = sample_estimated_csi(stats, cfg, 500)
    v = random_relaxed(rng, stats.irs_size)
    grad = gamma_ub_gradient(v, sample, stats, cfg)
    e = sample.g_hat.conj().T @ v + sample.h_hat
    expected = cfg.powers_watt[0] * np.conj(sample.g_hat @ e) / cfg.noise_watt
    np.testing.assert_allclose(grad, expected, rtol=1e-12)


def test_gradient_scalar_linear_term():
    # scalar surface, real positive coefficients, v = 0: gradient is p0*b/d
    g_hat = np.array([[2.0 + 0.0j]])
    h_hat = np.array([1.5 + 0.0j])
    design = DesignObjective(p0=3.0, g_mean=np.zeros((1, 1), dtype=complex), g_var=0.0,
                             h_mean=np.zeros(1, dtype=complex), h_var=0.0,
                             err_const=0.0, denom_quad=None, denom_const=2.0)
    ratio = design.ratio(CsiSample(g_hat=g_hat, h_hat=h_hat))
    b = (g_hat @ h_hat)[0]
    grad = ratio.grad(np.zeros(1, dtype=complex))
    assert np.isclose(grad[0], 3.0 * np.conj(b) / 2.0, rtol=1e-14)
    assert grad[0].imag == 0.0


def test_gamma_scale_invariance(small_cfg):
    # doubling all powers and the noise leaves every rate output unchanged
    cfg_a = small_cfg.replace(delta1=0.3, delta2=0.3)
    shift = 10.0 * math.log10(2.0)
    cfg_b = cfg_a.replace(powers_dbm=tuple(p + shift for p in cfg_a.powers_dbm),
                          noise_dbm=cfg_a.noise_dbm + shift)
    stats_a, stats_b = build_statistics(cfg_a), build_statistics(cfg_b)
    rng = np.random.default_rng(15)
    v = random_phase_vector(rng, stats_a.irs_size)
    sample = sample_estimated_csi(stats_a, cfg_a, 600)
    assert np.isclose(gamma_ub(v, sample, stats_a, cfg_a),
                      gamma_ub(v, sample, stats_b, cfg_b), rtol=1e-9)
    assert np.isclose(upper_bound_rate_closed_form(v, stats_a, cfg_a),
                      upper_bound_rate_closed_form(v, stats_b, cfg_b), rtol=1e-9)
    ra = ergodic_rate_mc(v, mrt_policy(v), stats_a, cfg_a, 400, 29)
    rb = ergodic_rate_mc(v, mrt_policy(v), stats_b, cfg_b, 400, 29)
    np.testing.assert_allclose(ra.rate_samples, rb.rate_samples, rtol=1e-9)


# ---------------------------------------------------------------------------
# phase-shift vector type
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", ["phase vector", "from phases", "beamformer",
                                  "g0 beamformer"])
def test_modulus_and_norm_checks_reject_nan(small_cfg, small_stats, case):
    sample = sample_estimated_csi(small_stats, small_cfg, 1)
    v = PhaseShiftVector.ones(small_stats.irs_size)
    make, message = {
        "phase vector": (lambda: PhaseShiftVector([math.nan, 1.0]), "unit modulus"),
        "from phases": (lambda: PhaseShiftVector.from_phases([math.nan, 0.0]), "unit modulus"),
        "beamformer": (lambda: Beamformer([math.nan, 0.0]), "unit-norm"),
        "g0 beamformer": (lambda: g0(v, [math.nan, 0.0, 0.0, 0.0], sample, 0.0, 0.0),
                          "unit-norm"),
    }[case]
    with pytest.raises(ValueError, match=message):
        make()


def test_phase_vector_forms():
    # deployable designs only; relaxed solver iterates are plain arrays
    for entry in (0.5 + 0.0j, 1.2 + 0.0j):
        with pytest.raises(ValueError, match="unit modulus"):
            PhaseShiftVector(np.array([entry]))
    with pytest.raises(TypeError):
        PhaseShiftVector(np.array([1.0 + 0.0j]), form="relaxed")
    ones = PhaseShiftVector.ones(4)
    assert len(ones) == 4
    assert np.all(ones.v == 1.0)
    with pytest.raises(ValueError):
        ones.v[0] = 0.0   # frozen array
