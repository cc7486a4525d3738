import dataclasses
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import irsopt
from irsopt.beamforming import Beamformer, mrt_equivalent_beamformer, mrt_policy
from irsopt.channel import (
    CombinedChannels,
    PhysicalChannelSampler,
    CsiSample,
    _split_law,
    build_statistics,
    rician_weights,
    sample_estimated_csi,
)
from irsopt.rate import (
    _MC_CHUNK,
    DesignObjective,
    PhaseShiftVector,
    RateReport,
    ergodic_rate_mc,
    ergodic_rates_mc_points,
    error_power_constant,
    g0,
    gamma_ub,
    gamma_ub_gradient,
    gk,
    interference_quadratic,
    phase_array,
    upper_bound_rate_closed_form,
    value_key,
)
from irsopt.cli import SweepSpec, run_sweep
from irsopt.streams import crandn, named_children
from conftest import (EDGE_REGIMES, combine_draws, design_draws, edge_scenario,
                      explicit_combined, paired_t, random_phase_vector, random_relaxed,
                      random_scenario)


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
        angles_bs_irs_deg=((math.degrees(0.4), math.degrees(0.9)),),
        angles_irs_user_deg=(math.degrees(1.0), math.degrees(0.5)),
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
    v_bad = PhaseShiftVector(np.ones(small_stats.irs_size + 1))
    w = np.zeros(4)
    w[0] = 1.0
    with pytest.raises(ValueError, match="dimension mismatch"):
        g0(v_bad, w, sample, 0.0, 0.0)


def test_g0_requires_unit_beamformer(small_cfg, small_stats):
    sample = sample_estimated_csi(small_stats, small_cfg, 1)
    v = PhaseShiftVector(np.ones(small_stats.irs_size))
    with pytest.raises(ValueError, match="unit-norm"):
        g0(v, np.ones(4), sample, 0.0, 0.0)


# ---------------------------------------------------------------------------
# gk / denominator
# ---------------------------------------------------------------------------

def test_gk_serving_index_rejected(small_stats):
    v = PhaseShiftVector(np.ones(small_stats.irs_size))
    with pytest.raises(ValueError, match="serving"):
        gk(v, small_stats, 0)
    with pytest.raises(ValueError, match="out of range"):
        gk(v, small_stats, small_stats.n_bs)


def test_gk_zero_los(small_cfg):
    cfg = small_cfg.replace(rician_bs_irs=(0.0, 0.0, 0.0))
    stats = build_statistics(cfg)
    v = PhaseShiftVector(np.ones(stats.irs_size))
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


def _denominator(v, stats, cfg) -> float:
    """The interference-plus-noise power ||F^H v||^2 + d of
    `interference_quadratic`."""
    factor, const = interference_quadratic(stats, cfg)
    proj = np.conj(phase_array(v)) @ factor
    return float(np.vdot(proj, proj).real) + const


def test_sinr_denominator_no_interferers():
    cfg = _single_bs_cfg()
    stats = build_statistics(cfg)
    factor, const = interference_quadratic(stats, cfg)
    assert factor.shape == (stats.irs_size, 0) and const == cfg.noise_watt
    assert _denominator(PhaseShiftVector(np.ones(stats.irs_size)), stats, cfg) == cfg.noise_watt


def test_sinr_denominator_increasing_in_power(preset_cfg, preset_stats):
    v = PhaseShiftVector(np.ones(preset_stats.irs_size))
    base = _denominator(v, preset_stats, preset_cfg)
    louder = preset_cfg.replace(powers_dbm=(30.0, 33.0, 30.0))
    assert _denominator(v, preset_stats, louder) > base


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
        assert np.isclose(_denominator(v, preset_stats, preset_cfg),
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
    return math.log2(1 + cfg.powers_watt[0] * (signal + c) / _denominator(v, stats, cfg))


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
    v = PhaseShiftVector(np.ones(stats.irs_size))
    signal = _design_signal_power(v, stats, cfg, 1, 50)
    ub_sampled = _ub_rate_of_signal(float(np.mean(signal)), v, stats, cfg)
    ub_cf = upper_bound_rate_closed_form(v, stats, cfg)
    assert np.isclose(ub_sampled, ub_cf, rtol=1e-12)


def test_upper_bound_monotone_in_power(preset_cfg, preset_stats):
    v = PhaseShiftVector(np.ones(preset_stats.irs_size))
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


@settings(max_examples=12, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), regime=st.sampled_from((None,) + EDGE_REGIMES),
       rows=st.integers(1, 4))
def test_one_closed_form_scores_a_stack_row_by_row(seed, regime, rows):
    # expected scores a stack (S, Mr) of designs in one call, on one
    # objective or on a stack of objectives; each row must be bit for bit
    # its own single-design call
    rng = np.random.default_rng(seed)
    cfg = (random_scenario(rng) if regime is None
           else edge_scenario(irsopt.load_scenario("paper-fig3"), regime))
    stats = build_statistics(cfg)
    vs = np.stack([random_relaxed(rng, stats.irs_size) if i % 2
                   else random_phase_vector(rng, stats.irs_size).v for i in range(rows)])
    designs = [DesignObjective.from_scenario(stats, cfg, robust=bool(rng.integers(2)),
                                             include_interference=bool(rng.integers(2)))
               for _ in range(rows)]
    for law, own in ((designs[0], designs[:1] * rows),
                     (DesignObjective.stack(designs), designs)):
        values, ascents = law.expected(vs)
        assert values.shape == (rows,) and ascents.shape == vs.shape
        for v, value, ascent, design in zip(vs, values, ascents, own):
            want_value, want_ascent = design.expected(v)
            assert value == want_value
            np.testing.assert_array_equal(ascent, want_ascent)


def test_a_stack_of_objectives_holds_one_rank_of_g(preset_stats, preset_cfg):
    # G's factors are stacked as they are: a rank-one scenario row and a
    # rank-M0 dense row do not stack, and the dense row stacks with its kind
    row = DesignObjective.from_scenario(preset_stats, preset_cfg)
    dense = dataclasses.replace(row, g_mean=row.g_mean)
    assert row.g_col.shape[-1] == 1 < dense.g_col.shape[-1] == preset_stats.bs_sizes[0]
    with pytest.raises(ValueError):
        DesignObjective.stack([row, dense])
    assert DesignObjective.stack([dense, dense]).g_col.shape == (1,) + dense.g_col.shape


def test_upper_bound_rejects_a_design_of_the_wrong_length(preset_stats, preset_cfg):
    # a short design, and a stack of two, which is read flattened
    mr = preset_stats.irs_size
    for v, n in ((np.ones(mr - 1), mr - 1), (np.ones((2, mr)), 2 * mr)):
        message = f"design has {n} phase shifts, the IRS has Mr = {mr} elements"
        with pytest.raises(ValueError, match=re.escape(message)):
            upper_bound_rate_closed_form(v, preset_stats, preset_cfg)


def test_value_key_is_equality_bit_for_bit():
    # the rule that finds repeated scheme designs and broadcasts equal stack fields
    a = np.array([1.0, -0.0, np.nan])
    assert value_key(a) == value_key(a.copy()) and value_key(0.5) == value_key(np.float64(0.5))
    assert value_key(a) != value_key(np.array([1.0, 0.0, np.nan]))   # -0.0 is not 0.0
    assert value_key(np.zeros(2)) != value_key(np.zeros(2, dtype=complex))
    assert value_key(np.zeros(2)) != value_key(np.zeros((1, 2)))
    assert value_key(np.zeros(2)) != value_key(np.array([0.0, 1e-300]))


def test_fig3_rows_stack_each_shared_field_once(preset_cfg):
    # the 8 SSCA rows of the paper-fig3 sweep each bring their own arrays; a
    # field equal in every row is broadcast, not copied, and every row of
    # the stack scores as its own objective bit for bit
    rows = []
    for delta in (1e-6, 0.6):
        cfg = preset_cfg.replace(delta1=delta, delta2=delta)
        stats = build_statistics(cfg)
        rows += [DesignObjective.from_scenario(stats, cfg, robust=robust,
                                               include_interference=intf)
                 for robust, intf in ((True, True), (True, False), (False, True),
                                      (False, False))]
    stacked = DesignObjective.stack(rows)
    assert stacked.g_col.shape == (1, 64, 1)
    assert stacked.g_row.shape == (1, 16, 1)
    assert stacked.h_mean.shape == (1, 16)
    assert stacked.denom_quad.shape == (8, 64, 2)
    vs = np.stack([random_phase_vector(np.random.default_rng(i), 64).v for i in range(8)])
    values, ascents = stacked.expected(vs)
    for v, value, ascent, row in zip(vs, values, ascents, rows):
        want_value, want_ascent = DesignObjective.stack([row]).expected(v[None])
        assert value == want_value[0]
        assert ascent.tobytes() == want_ascent[0].tobytes()


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
    v = PhaseShiftVector(np.ones(stats.irs_size))
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
        v = PhaseShiftVector(np.ones(stats.irs_size))
        results[delta] = ergodic_rate_mc(v, mrt_policy(v), stats, cfg, 3000, 17)
    diff, se, t = paired_t(results[0.0].rate_samples, results[0.7].rate_samples)
    assert t > 3.0, f"perfect CSI should win: diff={diff}, t={t}"


def test_ergodic_report_fields(small_cfg, small_stats):
    v = PhaseShiftVector(np.ones(small_stats.irs_size))
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
    vs = [phase_array(random_phase_vector(rng, stats.irs_size)) for _ in range(2)]
    reports = ergodic_rates_mc_points([(vs, stats, cfg)], 50, 3)[0]
    for v, report in zip(vs, reports):
        closed = [cfg.powers_watt[k] * gk(v, stats, k) for k in range(1, stats.n_bs)]
        np.testing.assert_allclose(report.interference_power, closed, rtol=1e-12, atol=0)
        assert math.isclose(report.noise_power + sum(report.interference_power),
                            _denominator(v, stats, cfg), rel_tol=1e-12)
    # the evaluator takes unit-modulus designs only; the identity itself also
    # holds at a relaxed v
    relaxed = random_relaxed(rng, stats.irs_size)
    assert math.isclose(_explicit_denominator(relaxed, stats, cfg),
                        _denominator(relaxed, stats, cfg), rel_tol=1e-12)


def test_ergodic_determinism(small_cfg, small_stats):
    v = PhaseShiftVector(np.ones(small_stats.irs_size))
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
        g_hat, h_hat = batch.g_true - batch.g_err, batch.h_true - batch.h_err
        es.append(np.einsum("nmi,m->ni", g_hat.conj(), varr) + h_hat)
    return np.concatenate(xs), np.concatenate(es)


def _physical_rates(v, stats, cfg, seed: int, n: int) -> np.ndarray:
    """Per-sample matched-filter rates on full physical draws, in chunks:
    the reference law of the evaluator's per-sample rates."""
    x, e_hat = _physical_combined(v, stats, seed, n, chunk=512)
    w = e_hat / np.linalg.norm(e_hat, axis=1)[:, None]
    signal = np.abs(np.einsum("ni,ni->n", x.conj(), w)) ** 2
    return np.log2(1.0 + cfg.powers_watt[0] * signal / _denominator(v, stats, cfg))


def test_combined_draw_matches_physical_path_in_law_when_exact(small_cfg):
    # pure-LoS BS->IRS link and perfect CSI: the rate reads h_ru only through
    # t = (v * conj(a_rx))^T h_ru, so the scalar draw carries all of its
    # randomness; on independent seeds the per-sample rates of both routes
    # must agree in mean (3 combined standard errors) and in spread (5 %)
    cfg = small_cfg.replace(rician_bs_irs=(math.inf,) + small_cfg.rician_bs_irs[1:],
                            delta1=0.0, delta2=0.0)
    stats = build_statistics(cfg)
    assert math.isfinite(cfg.rician_irs_user) and stats.sigma_g_sq[0] > 0
    v = random_phase_vector(np.random.default_rng(41), stats.irs_size)
    n = 20_000
    report = ergodic_rate_mc(v, mrt_policy(v), stats, cfg, n, 43)
    rates = _physical_rates(v, stats, cfg, 44, n)
    se = math.hypot(report.mc_stderr, np.std(rates, ddof=1) / math.sqrt(n))
    assert abs(report.mc_rate - np.mean(rates)) < 3 * se, (report.mc_rate, np.mean(rates), se)
    spread = np.std(report.rate_samples, ddof=1) / np.std(rates, ddof=1)
    assert abs(spread - 1.0) < 0.05, spread
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
        # independent seeds: the routes share no draw (the combined route
        # draws three h_ru scalars per slot, not h_ru), so the gaps are
        # sampling noise of both plus any difference in law
        draws = PhysicalChannelSampler(stats, seed).slot_draws(n)
        x, e_hat = explicit_combined(stats, CombinedChannels(stats, v.v[None]), draws)
        new = _moments(x[0], e_hat[0])
        old = _moments(*_physical_combined(v, stats, seed + 3, n))
        for name in new:
            gap = np.abs(new[name] - old[name]) / np.abs(old[name])
            assert np.all(gap < 0.05), f"scenario {i}, {name}: relative gaps {gap}"

        # independent seeds: the 3-sigma bracket is then an unpaired test
        report = ergodic_rate_mc(v, mrt_policy(v), stats, cfg, n, seed + 1)
        rates = _physical_rates(v, stats, cfg, seed + 2, n)
        se = math.hypot(report.mc_stderr, np.std(rates, ddof=1) / math.sqrt(n))
        assert abs(report.mc_rate - np.mean(rates)) < 3 * se, (
            f"scenario {i}: {report.mc_rate} vs {np.mean(rates)} (se {se})")


def _z_scores(draws: np.ndarray, mean, var: float) -> tuple[float, float]:
    """z of the sample mean against `mean` (known variance `var` > 0) and of
    the sample variance E|x - mean|^2 against `var` (its standard error from
    the sample)."""
    n = draws.shape[0]
    dev_sq = np.abs(draws - mean) ** 2
    z_mean = abs(np.mean(draws) - mean) / math.sqrt(var / n)
    z_var = abs(np.mean(dev_sq) - var) / (np.std(dev_sq, ddof=1) / math.sqrt(n))
    return float(z_mean), float(z_var)


@pytest.mark.parametrize("regime", EDGE_REGIMES + ("irs-2",))
def test_irs_user_scalars_match_their_closed_form_moments(preset_cfg, regime):
    # h_ru = mu + s xi, b = v * conj(a_rx), unit-modulus v: t = b^T h_ru has
    # E t = b^T mu and Var t = s^2 Mr; ||h_ru||^2 has mean ||mu||^2 + s^2 Mr
    # and variance s^4 Mr + 2 s^2 ||mu||^2.  |z| < 5 on n = 20,000 draws, for
    # a random design and the LoS-aligned one (no mean orthogonal to q)
    if regime == "irs-2":
        cfg = edge_scenario(preset_cfg, "v0-zero").replace(irs_grid=(1, 2))
    else:
        cfg = edge_scenario(preset_cfg, regime)
    stats = build_statistics(cfg)
    mr = stats.irs_size
    w_los, w_nlos = rician_weights(stats.rician_irs_user)
    mean = math.sqrt(stats.alpha_irs_user) * w_los * stats.los_irs_user
    s_sq = stats.alpha_irs_user * w_nlos ** 2
    mean_sq = float(np.vdot(mean, mean).real)
    designs = np.stack([random_phase_vector(np.random.default_rng(81), mr).v,
                        _los_aligned_design(stats)])
    n = 20_000
    draws = PhysicalChannelSampler(stats, 83).slot_draws(n)
    for v, t, norm_sq in zip(designs, *CombinedChannels(stats, designs).irs_user_scalars(draws)):
        b = v * stats.los_bs_irs[0][:, 0].conj()
        if s_sq == 0.0:                 # pure-LoS IRS->user link: nothing random
            np.testing.assert_allclose(t, b @ mean, rtol=1e-12)
            np.testing.assert_allclose(norm_sq, mean_sq, rtol=1e-12)
            continue
        scores = {
            "t": _z_scores(t, b @ mean, s_sq * mr),
            "||h_ru||^2": _z_scores(norm_sq, mean_sq + s_sq * mr,
                                    s_sq ** 2 * mr + 2 * s_sq * mean_sq),
        }
        for name, (z_mean, z_var) in scores.items():
            assert z_mean < 5 and z_var < 5, (name, z_mean, z_var)


def test_evaluator_never_builds_full_physical_batch(small_cfg, small_stats, monkeypatch):
    def refuse(self, n):
        raise AssertionError("the evaluator drew (n, Mr, M0) channels")

    monkeypatch.setattr(PhysicalChannelSampler, "draw", refuse)
    v = PhaseShiftVector(np.ones(small_stats.irs_size))
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
    v = PhaseShiftVector(np.ones(stats.irs_size))
    return {
        "no designs": ([], {}, "no designs"),
        "short design": ([v, np.ones(1)], {}, "design 1 has 1 phase"),
        "long design": ([np.ones(stats.irs_size + 1)], {}, "design 0 has"),
        "no samples": ([v], {"n_samples": 0}, "n_samples"),
        "nan design": ([v, np.full(stats.irs_size, math.nan)], {}, "design 1 has non-finite"),
        "relaxed design": ([v, 0.5 * v.v], {}, "design 1 is not unit-modulus"),
    }


@pytest.mark.parametrize("case", ["no designs", "short design", "long design",
                                  "no samples", "nan design", "relaxed design"])
def test_batched_evaluator_rejects_bad_input(small_cfg, small_stats, case):
    vs, overrides, message = _bad_input_cases(small_stats)[case]
    kwargs = {"n_samples": 8, "rng": 1, **overrides}
    with pytest.raises(ValueError, match=message):
        ergodic_rates_mc_points([(vs, small_stats, small_cfg)], **kwargs)


@pytest.mark.parametrize("case", ["foreign policy", "wrong shape"])
def test_one_design_evaluator_takes_the_matched_filter_only(small_cfg, small_stats, case):
    # the evaluator reads the matched filter's rate in closed form, so any
    # other beamformer would be reported at a rate it does not reach
    v = PhaseShiftVector(np.ones(small_stats.irs_size))
    policy = mrt_policy(v)
    foreign = {"foreign policy": lambda e_hat: np.conj(policy(e_hat)),
               "wrong shape": lambda e_hat: policy(e_hat)[None]}[case]
    with pytest.raises(ValueError, match="the policy is not the matched filter"):
        ergodic_rate_mc(v, foreign, small_stats, small_cfg, 8, 1)


def test_combined_channels_reject_unstacked_or_wrong_length_designs(small_stats):
    # the evaluator checks each stack once, with the check that names the design
    mr = small_stats.irs_size
    relaxed = np.ones((2, mr), dtype=complex)
    relaxed[1, 0] = 1.0 + 1e-6
    non_finite = np.ones((2, mr), dtype=complex)
    non_finite[1, 2] = math.nan
    cases = ((np.ones(mr), f"design 0 has 1 phase shifts, the IRS has Mr = {mr} elements"),
             (np.ones((2, mr + 1)), f"design 0 has {mr + 1} phase shifts"),
             (relaxed, "design 1 is not unit-modulus"),
             (non_finite, "design 1 has non-finite"),
             (np.ones((0, mr)), "no designs"))
    for vs, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            CombinedChannels(small_stats, vs)


def test_combined_channels_read_a_phase_vector_and_its_array_alike(small_stats):
    # the evaluator's one design check unwraps a PhaseShiftVector and reads
    # every design flattened
    psv = random_phase_vector(np.random.default_rng(5), small_stats.irs_size)
    law = CombinedChannels(small_stats, [psv, psv.v, psv.v[:, None]])
    np.testing.assert_array_equal(law.designs, np.stack([psv.v] * 3))
    signal = law.matched_filter_signal(PhysicalChannelSampler(small_stats, 3).slot_draws(16))
    assert signal[0].tobytes() == signal[1].tobytes() == signal[2].tobytes()


def _oracle_rates(vs, stats, cfg, n: int, seed: int) -> np.ndarray:
    """Per-sample rates (S, n) of the designs vs on the evaluator's own
    chunks of `slot_draws`, with x and e_hat built as vectors
    (`explicit_combined`) and the beam of `mrt_policy`."""
    law = CombinedChannels(stats, vs)
    sampler = PhysicalChannelSampler(stats, seed)
    chunks = []
    for start in range(0, n, _MC_CHUNK):
        x, e_hat = explicit_combined(stats, law, sampler.slot_draws(min(_MC_CHUNK, n - start)))
        chunks.append([np.abs(np.einsum("ni,ni->n", xv.conj(), mrt_policy(v)(ev))) ** 2
                       for v, xv, ev in zip(law.designs, x, e_hat)])
    signal = np.concatenate(chunks, axis=1)
    dens = np.array([_denominator(v, stats, cfg) for v in law.designs])
    return np.log1p(cfg.powers_watt[0] * signal / dens[:, None]) / math.log(2)


def _oracle_scenario(preset_cfg, case: str):
    if case == "preset":
        return preset_cfg.replace(delta1=0.6, delta2=0.6)
    if case.startswith("random-"):
        return random_scenario(np.random.default_rng(int(case[7:])), case)
    if case.startswith("m0-"):              # serving arrays with M0 - 2 < 3: Bartlett rows missing
        cfg = edge_scenario(preset_cfg, "v0-zero")
        return cfg.replace(bs_grids=((1, int(case[3:])),) + cfg.bs_grids[1:])
    if case.endswith("-delta-sigma"):       # no BS->IRS LoS, delta = sigma: e_hat = 0
        return edge_scenario(preset_cfg, case[:-len("-delta-sigma")]).replace(delta1=1.0,
                                                                             delta2=1.0)
    return edge_scenario(preset_cfg, case)


@pytest.mark.parametrize("case", ("preset",) + EDGE_REGIMES + (
    "k-0-delta-sigma", "no-bs-irs-los-delta-sigma", "random-1", "random-2", "random-3",
    "m0-2", "m0-3", "m0-4", "m0-5"))
def test_gram_route_equals_the_explicit_combined_channels(preset_cfg, case):
    # the evaluator reads x^H e_hat and ||e_hat||^2 off per-slot Gram
    # scalars; building both vectors from the same draws and applying
    # mrt_policy must give the same per-sample rates, over two chunks
    cfg = _oracle_scenario(preset_cfg, case)
    stats = build_statistics(cfg)
    rng = np.random.default_rng(97)
    vs = [random_phase_vector(rng, stats.irs_size).v for _ in range(2)]
    vs.append(_los_aligned_design(stats))
    n = _MC_CHUNK + 88
    reports = ergodic_rates_mc_points([(vs, stats, cfg)], n, 31)[0]
    want = _oracle_rates(vs, stats, cfg, n, 31)
    for report, row in zip(reports, want):
        np.testing.assert_allclose(report.rate_samples, row, rtol=1e-9, atol=0.0)


def _brute_slot_scalars(stats, n: int, seed: int) -> dict:
    """The scalars of `CombinedChannels.slot_scalars` from brute-force
    vectors: the scatter z, the standard direct channel d and the two
    error noises N_g and N_h, one (n, M0, 4) CN(0, 1) array, with
    k = (1 - s_h) h_true - sigma_g' N_g - sigma_h' N_h as the physical
    error split builds it."""
    z, d, noise_g, noise_h = np.moveaxis(
        crandn(np.random.default_rng(seed), (n, stats.bs_sizes[0], 4), 1.0), 2, 0)
    share_h, var_h = _split_law(stats.sigma_h_sq, stats.delta2_abs ** 2)
    _, var_g = _split_law(float(stats.sigma_g_sq[0]), stats.delta1_abs ** 2)
    h_true = math.sqrt(stats.alpha_direct[0]) * d
    k = ((1.0 - share_h) * h_true - math.sqrt(var_g * stats.irs_size) * noise_g
         - math.sqrt(var_h) * noise_h)
    los = stats.los_bs_irs[0]
    row = los[0].conj() * los[0, 0]

    def dot(a, b):
        return np.sum(a.conj() * b, axis=1)

    return {"rz": z @ row.conj(), "rh": h_true @ row.conj(), "rk": k @ row.conj(),
            "zz": dot(z, z).real, "zk": dot(z, k), "hz": dot(h_true, z),
            "hk": dot(h_true, k), "kk": dot(k, k).real, "z0": z[:, 0], "h0": h_true[:, 0]}


def _scalar_moments(scalars: dict) -> dict:
    """Per-slot values whose means are the moments the law test compares:
    each scalar, its squared modulus and three cross moments."""
    out = {}
    for name, x in scalars.items():
        out[name] = x
        out[f"|{name}|^2"] = np.abs(x) ** 2
    out["rz conj(z0)"] = scalars["rz"] * scalars["z0"].conj()
    out["rh conj(h0)"] = scalars["rh"] * scalars["h0"].conj()
    out["zk hz"] = scalars["zk"] * scalars["hz"]
    return out


@pytest.mark.parametrize("m0", [1, 2, 3, 4, 16])
def test_slot_scalars_match_brute_force_gaussians_in_law(preset_cfg, m0):
    # the evaluator draws the Gram scalars of z, d and N from their exact
    # law (two leading coordinates, a Bartlett factor for the rest, one
    # noise of the summed variance); their moments must match those of
    # brute-force M0-vectors with both error noises, |z| < 5 on n = 20,000
    # independent draws a side.  The direct link is weakened until
    # sigma_h^2 = Mr sigma_g^2, so the two noises carry equal variance and
    # k, h_true and both noises all weigh in the scalars
    cfg = edge_scenario(preset_cfg, "v0-zero").replace(
        irs_grid=(2, 2), bs_grids=((1, m0),) * 3, delta1=0.6, delta2=0.6)
    stats = build_statistics(cfg)
    target = stats.irs_size * float(stats.sigma_g_sq[0])
    cfg = cfg.replace(exp_direct=math.log(1e-3 / target) / math.log(cfg.d_bs_user(0)))
    stats = build_statistics(cfg)
    assert math.isclose(stats.sigma_h_sq, stats.irs_size * stats.sigma_g_sq[0], rel_tol=1e-9)
    n = 20_000
    law = CombinedChannels(stats, np.ones((1, stats.irs_size)))
    drawn = _scalar_moments(law.slot_scalars(PhysicalChannelSampler(stats, 11).slot_draws(n)))
    brute = _scalar_moments(_brute_slot_scalars(stats, n, 12))
    scores = {}
    for name in drawn:
        for part, values in (("re", np.real), ("im", np.imag)):
            a, b = values(drawn[name]), values(brute[name])
            gap = abs(np.mean(a) - np.mean(b))
            se = math.sqrt((np.var(a) + np.var(b)) / n)
            scores[f"{part} {name}"] = gap / se if se > 0 else (0.0 if gap == 0 else math.inf)
    worst = max(scores, key=scores.get)
    assert scores[worst] < 5, (worst, scores[worst])


@pytest.mark.parametrize("regime", ["k-0", "no-bs-irs-los"])
def test_error_equal_to_a_mean_free_channel_leaves_a_zero_estimate(preset_cfg, regime):
    # at delta = sigma the error is the whole scattered channel: the share
    # is exactly 1, so without BS->IRS LoS the estimate is exactly 0, the
    # matched filter falls back to its fixed beam, and the Monte Carlo rate
    # stays below the upper bound (a rounding residue of the share used to
    # give a perfect-CSI beam and a rate far above it)
    cfg = edge_scenario(preset_cfg, regime).replace(delta1=1.0, delta2=1.0)
    stats = build_statistics(cfg)
    assert _split_law(float(stats.sigma_g_sq[0]), stats.delta1_abs ** 2) == (1.0, 0.0)
    assert _split_law(stats.sigma_h_sq, stats.delta2_abs ** 2) == (1.0, 0.0)
    v = random_phase_vector(np.random.default_rng(3), stats.irs_size)
    law = CombinedChannels(stats, v.v[None])
    _, e_hat = explicit_combined(stats, law, PhysicalChannelSampler(stats, 5).slot_draws(64))
    assert not np.any(e_hat)
    report = ergodic_rate_mc(v, mrt_policy(v), stats, cfg, 2000, 5)
    assert report.mc_rate <= report.ub_rate + 3 * report.mc_stderr, (
        report.mc_rate, report.ub_rate, report.mc_stderr)


def test_points_of_one_shape_equal_their_own_evaluations(small_cfg):
    # two points of one shape read one draw set, a third of another shape
    # its own; every report equals the one its point gets alone, bit for bit
    cfgs = [small_cfg.replace(delta1=0.2, delta2=0.2),
            small_cfg.replace(rician_irs_user=0.0, delta1=0.7, delta2=0.7),
            small_cfg.replace(irs_grid=(2, 2))]
    rng = np.random.default_rng(17)
    points = []
    for cfg in cfgs:
        stats = build_statistics(cfg)
        vs = [random_phase_vector(rng, stats.irs_size) for _ in range(3)]
        points.append((vs, stats, cfg))
    together = ergodic_rates_mc_points(points, 700, 9)
    for point, reports in zip(points, together):
        alone = ergodic_rates_mc_points([point], 700, 9)[0]
        for report, own in zip(reports, alone):
            assert report.to_dict() == own.to_dict()
            assert report.rate_samples.tobytes() == own.rate_samples.tobytes()


def test_an_evaluation_needs_two_samples(small_cfg, small_stats):
    # one sample has no standard error; it once read as 0, an exact rate
    v = random_phase_vector(np.random.default_rng(3), small_stats.irs_size)
    with pytest.raises(ValueError, match="n_samples must be >= 2, got 1"):
        ergodic_rates_mc_points([([v], small_stats, small_cfg)], 1, 9)
    assert ergodic_rate_mc(v, mrt_policy(v), small_stats, small_cfg, 2, 9).mc_stderr > 0


def _los_aligned_design(stats) -> np.ndarray:
    """The unit-modulus design whose h_ru projection q is along the
    IRS->user LoS mean (conj(v) * a_rx = los_ru): the mean has no part
    orthogonal to q, the clamped end of the scalar law."""
    return stats.los_irs_user.conj() * stats.los_bs_irs[0][:, 0]


def _stack_scenarios(small_cfg):
    """(stats, cfg, designs): two random unit-modulus designs and the
    LoS-aligned one, at delta1 = 0.4, with and without a direct link."""
    cfg = small_cfg.replace(delta1=0.4, delta2=0.0)
    stats = build_statistics(cfg)
    no_direct = dataclasses.replace(
        stats, alpha_direct=np.concatenate(([0.0], stats.alpha_direct[1:])))
    rng = np.random.default_rng(61)
    designs = [random_phase_vector(rng, stats.irs_size).v for _ in range(2)]
    designs.append(_los_aligned_design(stats))
    return [(stats, cfg, designs), (no_direct, cfg, designs)]


@pytest.mark.parametrize("n", [2, 513, 1100])
@pytest.mark.parametrize("n_designs", [1, 3])
def test_stacked_evaluation_equals_one_design_evaluations(small_cfg, n_designs, n):
    # n crosses the 512-sample chunk boundary; every design of a stack reads the
    # same design-free draws (the three h_ru scalars, h_true and the standard
    # error parts), which no design writes
    for stats, cfg, designs in _stack_scenarios(small_cfg):
        stack = designs[-n_designs:]
        stacked = ergodic_rates_mc_points([(stack, stats, cfg)], n, 71)[0]
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


class _CountingGenerator:
    """A Generator that counts the normal and gamma values it hands out; any
    other draw method is missing, so an uncounted draw fails loudly."""

    def __init__(self, rng, counts):
        self._rng, self._counts = rng, counts

    def standard_normal(self, *args, **kwargs):
        out = self._rng.standard_normal(*args, **kwargs)
        self._counts["normal"] += np.size(out)
        return out

    def standard_gamma(self, *args, **kwargs):
        out = self._rng.standard_gamma(*args, **kwargs)
        self._counts["gamma"] += np.size(out)
        return out


@pytest.mark.parametrize("n_designs", [1, 6])
def test_stacked_designs_draw_one_set_of_gaussians(small_cfg, monkeypatch, n_designs):
    # 11 complex normals and 4 gamma values per slot, whatever S and Mr are
    counts = {"normal": 0, "gamma": 0}

    monkeypatch.setattr(irsopt.channel, "named_children", _counting_children(counts))
    rng = np.random.default_rng(3)
    n = 700                                         # two chunks
    for irs_grid in ((1, 1), (1, 2), (3, 3), (16, 16)):
        cfg = small_cfg.replace(irs_grid=irs_grid)
        stats = build_statistics(cfg)
        vs = [random_phase_vector(rng, stats.irs_size) for _ in range(n_designs)]
        counts.update(normal=0, gamma=0)
        ergodic_rates_mc_points([(vs, stats, cfg)], n, 9)
        assert stats.bs_sizes[0] >= 2
        assert counts == {"normal": 2 * n * 11, "gamma": 4 * n}, irs_grid


def _counting_children(counts):
    def children(seed, names):
        return {name: _CountingGenerator(rng, counts)
                for name, rng in named_children(seed, names).items()}
    return children


@pytest.mark.parametrize("param, values, sets", [("error-std", (1e-6, 0.6), 1),
                                                 ("irs-size", (2, 3), 2)])
def test_a_sweep_draws_one_evaluation_set_per_shape(preset_cfg, monkeypatch, tmp_path,
                                                    param, values, sets):
    # the sweep points share the evaluation seed: the points of one shape
    # read one set of 11 n complex normals and 4 n gamma values
    counts = {"normal": 0, "gamma": 0}
    monkeypatch.setattr(irsopt.channel, "named_children", _counting_children(counts))
    n = 700                                         # two chunks
    cfg = preset_cfg.replace(irs_grid=(2, 2), bs_grids=((2, 2),) * 3)
    spec = SweepSpec(param=param, values=values, schemes=("proposed", "robust-with-intf"),
                     n_samples=n, seed=2, solver=irsopt.SolverConfig(iterations=3,
                                                                     samples_per_iter=2))
    run_sweep(spec, cfg, str(tmp_path))
    assert counts == {"normal": sets * 2 * n * 11, "gamma": sets * 4 * n}


def test_a_chunk_draws_the_same_values_whatever_m0(small_cfg, monkeypatch):
    # the Gram law draws two leading coordinates per vector and a 3x3
    # Bartlett factor, so M0 = 4 and M0 = 64 draw alike: 11 complex normals
    # and 4 gamma values per slot; M0 = 1 has one leading coordinate
    counts = {"normal": 0, "gamma": 0}
    monkeypatch.setattr(irsopt.channel, "named_children", _counting_children(counts))
    n = 300
    drawn = {}
    for side in (1, 2, 8):
        stats = build_statistics(small_cfg.replace(bs_grids=((side, side),) * 3))
        counts.update(normal=0, gamma=0)
        PhysicalChannelSampler(stats, 4).slot_draws(n)
        drawn[stats.bs_sizes[0]] = dict(counts)
    assert drawn[4] == drawn[64] == {"normal": 2 * n * 11, "gamma": 4 * n}
    assert drawn[1] == {"normal": 2 * n * 8, "gamma": 4 * n}


def test_each_point_checks_its_design_stack_once(small_cfg, small_stats, preset_cfg,
                                                 monkeypatch, tmp_path):
    # one check per point's evaluation, not one per 512-sample chunk
    checked = []
    check = irsopt.channel.design_stack

    def spy(vs, irs_size):
        checked.append(irs_size)
        return check(vs, irs_size)

    monkeypatch.setattr(irsopt.channel, "design_stack", spy)
    v = PhaseShiftVector(np.ones(small_stats.irs_size))
    ergodic_rate_mc(v, mrt_policy(v), small_stats, small_cfg, 2 * _MC_CHUNK + 1, 3)
    assert checked == [small_stats.irs_size]
    checked.clear()
    spec = SweepSpec(param="error-std", values=(0.1, 0.5), schemes=("robust-with-intf",),
                     n_samples=2 * _MC_CHUNK + 1, seed=4)
    run_sweep(spec, preset_cfg.replace(irs_grid=(2, 2)), str(tmp_path))
    assert checked == [4, 4]


@pytest.mark.parametrize("delta", [1e-6, 0.3])
def test_a_designs_report_does_not_depend_on_the_design_beside_it(preset_cfg, delta):
    # every per-design product is taken row by row, so a design's report has
    # the same bits in a stack of two as alone: 200 random two-design stacks
    # at Mr = 9, where a product over the whole stack once rounded row 1
    # differently, all evaluated in one call (points of one shape share draws)
    cfg = preset_cfg.replace(irs_grid=(3, 3), bs_grids=((2, 2),) * 3, delta1=delta, delta2=delta)
    stats = build_statistics(cfg)
    rng = np.random.default_rng(11)
    pairs = [[random_phase_vector(rng, stats.irs_size) for _ in range(2)] for _ in range(200)]
    points = [(pair, stats, cfg) for pair in pairs]
    points += [([v], stats, cfg) for pair in pairs for v in pair]
    reports = ergodic_rates_mc_points(points, 120, 3)
    together, alone = reports[:200], reports[200:]
    for i, stack_reports in enumerate(together):
        for j, got in enumerate(stack_reports):
            (want,) = alone[2 * i + j]
            assert got.to_dict() == want.to_dict(), (i, j)
            assert np.array_equal(got.rate_samples, want.rate_samples), (i, j)


def test_stacked_evaluation_heap_does_not_grow_with_designs(preset_cfg):
    # Mr = 256, one 512-sample chunk: holding a per-design (n, Mr) or (n, M0)
    # array for every design at once would show against this bound
    cfg = preset_cfg.replace(irs_grid=(16, 16))
    stats = build_statistics(cfg)
    rng = np.random.default_rng(5)
    vs = [random_phase_vector(rng, stats.irs_size) for _ in range(14)]
    peaks = {}
    for count in (1, 14):
        tracemalloc.start()
        try:
            ergodic_rates_mc_points([(vs[:count], stats, cfg)], 512, 4)
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[14] < 1.5 * peaks[1], peaks


def test_one_design_heap_holds_no_irs_sized_array(preset_cfg):
    # Mr = 1024, one 512-sample chunk: h_ru enters through three scalars per
    # slot, so the peak stays below a quarter of one (512, Mr) complex array
    # (8 MiB) and any (n, Mr) array fails the bound
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
    irs_sized_bytes = 512 * stats.irs_size * np.dtype(complex).itemsize
    assert peak < irs_sized_bytes / 4, peak / irs_sized_bytes


def test_evaluation_time_per_sample_does_not_grow_with_the_irs(preset_cfg):
    # per-chunk work does not depend on Mr outside each design's O(Mr * M0)
    # projections, so Mr = 64 -> 1024 (16x) may cost at most 2.5x per sample,
    # the bound acceptance criterion 9 sets for the solver; best of 3 runs
    n = 2048
    per_sample = {}
    for side in (8, 32):
        cfg = preset_cfg.replace(irs_grid=(side, side))
        stats = build_statistics(cfg)
        v = random_phase_vector(np.random.default_rng(7), stats.irs_size)
        policy = mrt_policy(v)
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            ergodic_rate_mc(v, policy, stats, cfg, n, 5)
            best = min(best, time.perf_counter() - start)
        per_sample[stats.irs_size] = best / n
    assert stats.bs_sizes[0] == 16
    ratio = per_sample[1024] / per_sample[64]
    assert ratio <= 2.5, (ratio, per_sample)


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
                  / _denominator(v, stats, cfg))
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
    num_a = a * _denominator(v1, small_stats, small_cfg)
    num_b = b * _denominator(v2, small_stats, small_cfg)
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
    assert value * _denominator(v, stats, cfg) >= floor * 0.999


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
    v = PhaseShiftVector(np.ones(small_stats.irs_size))
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
    with pytest.raises(ValueError, match="needs at least one entry"):
        PhaseShiftVector([])
    with pytest.raises(TypeError):
        PhaseShiftVector(np.array([1.0 + 0.0j]), form="relaxed")
    ones = PhaseShiftVector(np.ones(4))
    assert ones.v.shape == (4,) and ones.v.dtype == complex
    assert np.all(ones.v == 1.0)
    with pytest.raises(ValueError):
        ones.v[0] = 0.0   # frozen array
