import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import irsopt
from irsopt.beamforming import mrt_policy
from irsopt.channel import (
    PhysicalChannelSampler,
    build_statistics,
    compute_path_loss,
    rician_combination_factor,
    sample_estimated_csi,
    steering_vector,
)
from irsopt.rate import ergodic_rate_mc, interference_quadratic

from conftest import EDGE_REGIMES, design_draws, edge_scenario, random_scenario

SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# path loss
# ---------------------------------------------------------------------------

def test_path_loss_reference_value():
    # 250 m at exponent 2 is the free-space reference point: 1.6e-8, -77.96 dB
    gain = compute_path_loss(250.0, 2.0)
    assert np.isclose(gain, 1.6e-8, rtol=1e-12)
    assert np.isclose(10 * math.log10(gain), -77.96, atol=5e-3)


def test_path_loss_unit_distance():
    for exponent in (1.0, 2.0, 3.7):
        assert compute_path_loss(1.0, exponent) == 1e-3


def test_path_loss_log_domain_oracle():
    # independent evaluation in the log domain: -30 - 10*a*log10(d) dB
    d, a = 200.0 * SQRT3, 3.7
    oracle = 10.0 ** ((-30.0 - 10.0 * a * math.log10(d)) / 10.0)
    assert np.isclose(compute_path_loss(d, a), oracle, rtol=1e-9)
    assert np.isclose(oracle, 4.013e-13, rtol=1e-3)


def test_path_loss_domain_errors():
    with pytest.raises(ValueError):
        compute_path_loss(0.0, 2.0)
    with pytest.raises(ValueError):
        compute_path_loss(-5.0, 2.0)
    with pytest.raises(ValueError):
        compute_path_loss(10.0, 0.0)


@pytest.mark.parametrize("distance", [1e-200, 1e300, math.nan])
def test_path_loss_beyond_float_range_names_the_link(distance):
    # d^exp below float range once raised ZeroDivisionError, above it OverflowError
    with pytest.raises(ValueError, match=re.escape(
            f"BS 0-user: no positive, finite gain at {distance} m, exponent 3.7")):
        compute_path_loss(distance, 3.7, "BS 0-user")


# ---------------------------------------------------------------------------
# Rician combination factor
# ---------------------------------------------------------------------------

def test_rician_combination_factor_values():
    assert rician_combination_factor(1.0, 1.0) == 0.25
    assert rician_combination_factor(0.0, 5.0) == 0.0
    assert rician_combination_factor(7.0, 0.0) == 0.0
    assert abs(rician_combination_factor(1e6, 1e6) - 1.0) < 3e-6
    assert rician_combination_factor(math.inf, math.inf) == 1.0
    assert rician_combination_factor(math.inf, 3.0) == 0.75


def test_rician_combination_factor_domain():
    with pytest.raises(ValueError):
        rician_combination_factor(-0.1, 1.0)
    with pytest.raises(ValueError):
        rician_combination_factor(1.0, -2.0)


def test_rician_combination_factor_range():
    rng = np.random.default_rng(0)
    for _ in range(100):
        k1, k2 = rng.uniform(0, 50, 2)
        tau = rician_combination_factor(k1, k2)
        assert 0.0 <= tau < 1.0


# ---------------------------------------------------------------------------
# steering vectors / LoS matrices
# ---------------------------------------------------------------------------

def test_steering_single_element():
    a = steering_vector(0.7, 1.1, (1, 1), 0.5)
    assert a.shape == (1,)
    assert a[0] == 1.0 + 0.0j


@pytest.mark.parametrize("spacing", [0.0, -0.5, math.nan])
def test_steering_rejects_a_spacing_that_is_not_positive(spacing):
    with pytest.raises(ValueError, match="spacing must be positive"):
        steering_vector(0.1, 0.2, (2, 2), spacing)


def test_los_matrix_unit_modulus_and_rank(preset_cfg):
    # each dense BS->IRS LoS a_rx a_tx^H (`los_bs_irs`) is unit-modulus and rank one
    rng = np.random.default_rng(1)
    for _ in range(10):
        irs, bs = (tuple(int(x) for x in rng.integers(1, 5, 2)) for _ in range(2))
        angles = tuple(float(x) for x in np.degrees(rng.uniform(0, 2 * math.pi, 2)))
        cfg = preset_cfg.replace(irs_grid=irs, bs_grids=(bs,) * 3, angles_bs_irs_deg=(angles,) * 3)
        for mat in build_statistics(cfg).los_bs_irs:
            assert mat.shape == (irs[0] * irs[1], bs[0] * bs[1])
            assert np.max(np.abs(np.abs(mat) - 1.0)) < 1e-12
            assert np.linalg.matrix_rank(mat) == 1


def test_los_matrix_trivial(preset_cfg):
    cfg = preset_cfg.replace(irs_grid=(1, 1), bs_grids=((1, 1),) * 3)
    for mat in build_statistics(cfg).los_bs_irs:
        assert mat.shape == (1, 1)
        assert np.isclose(abs(mat[0, 0]), 1.0, atol=1e-15)


# ---------------------------------------------------------------------------
# build_statistics
# ---------------------------------------------------------------------------

def test_build_statistics_preset(preset_cfg, preset_stats):
    # serving BS -> IRS gain from positions (0,0)-(300,20), free-space exponent
    d = math.sqrt(300.0 ** 2 + 20.0 ** 2)
    oracle = 1.0 / (1000.0 * d ** 2)
    assert np.isclose(preset_stats.alpha_bs_irs[0], oracle, rtol=1e-12)
    assert np.isclose(oracle, 1.106e-8, rtol=1e-3)
    # tau from the default Rician factors
    assert np.isclose(preset_stats.tau[0], 9.0 / 16.0, rtol=1e-12)
    assert preset_stats.irs_size == 64
    assert preset_stats.bs_sizes == (16, 16, 16)


def test_cascaded_los_modulus(preset_stats):
    for k in range(preset_stats.n_bs):
        expected = math.sqrt(preset_stats.alpha_bs_irs[k] * preset_stats.alpha_irs_user
                             * preset_stats.tau[k])
        mods = np.abs(preset_stats.cascaded_los[k])
        assert np.max(np.abs(mods - expected)) < 1e-12 * expected


def test_zero_rician_gives_zero_cascaded_los(preset_cfg):
    cfg = preset_cfg.replace(rician_bs_irs=(0.0, 0.0, 0.0))
    stats = build_statistics(cfg)
    for k in range(stats.n_bs):
        assert np.all(stats.cascaded_los[k] == 0.0)


def test_los_unit_modulus_invariant(preset_stats):
    for mat in preset_stats.los_bs_irs:
        assert np.max(np.abs(np.abs(mat) - 1.0)) < 1e-12
    assert np.max(np.abs(np.abs(preset_stats.los_irs_user) - 1.0)) < 1e-12
    # a NaN entry fails every comparison, so it must fail a not (x <= tol) check
    bad = preset_stats.los_irs_user.copy()
    bad[0] = np.nan
    with pytest.raises(ValueError, match="unit modulus"):
        dataclasses.replace(preset_stats, los_irs_user=bad)
    # the BS->IRS LoS is held as its steering vectors, each of them checked
    for name in ("irs_steering", "bs_steering"):
        vectors = getattr(preset_stats, name)
        for entry in (np.nan, 1.5):
            bad = vectors[0].copy()
            bad[0] = entry
            with pytest.raises(ValueError, match="unit modulus"):
                dataclasses.replace(preset_stats, **{name: (bad,) + vectors[1:]})


def test_normalized_delta_conversion(preset_cfg):
    cfg = preset_cfg.replace(delta1=0.5, delta2=0.25)
    stats = build_statistics(cfg)
    assert np.isclose(stats.delta1_abs, 0.5 * math.sqrt(stats.sigma_g_sq[0]), rtol=1e-12)
    assert np.isclose(stats.delta2_abs, 0.25 * math.sqrt(stats.sigma_h_sq), rtol=1e-12)
    assert np.isclose(stats.estimate_g_var, 0.75 * stats.sigma_g_sq[0], rtol=1e-12)


def test_absolute_delta_too_large_rejected(preset_cfg):
    cfg = preset_cfg.replace(delta1=1e-6, delta2=0.0, error_units="absolute")
    with pytest.raises(ValueError, match="delta1"):
        build_statistics(cfg)
    cfg = preset_cfg.replace(delta1=0.0, delta2=1e-3, error_units="absolute")
    with pytest.raises(ValueError, match="delta2"):
        build_statistics(cfg)


def test_statistics_reject_error_variance_above_channel_variance(small_stats):
    # samplers derive the estimate variance sigma^2 - delta^2 from these fields
    too_large = 2.0 * math.sqrt(small_stats.sigma_g_sq[0])
    with pytest.raises(ValueError, match="exceed channel variances"):
        dataclasses.replace(small_stats, delta1_abs=too_large)
    with pytest.raises(ValueError, match="exceed channel variances"):
        dataclasses.replace(small_stats, delta2_abs=2.0 * math.sqrt(small_stats.sigma_h_sq))


@pytest.mark.parametrize("field", ["delta1_abs", "delta2_abs"])
def test_statistics_reject_nan_error_std(small_stats, field):
    with pytest.raises(ValueError, match="non-negative"):
        dataclasses.replace(small_stats, **{field: math.nan})


def test_absolute_delta_within_bounds_accepted(preset_cfg):
    stats0 = build_statistics(preset_cfg.replace(delta1=0.0, delta2=0.0))
    cfg = preset_cfg.replace(delta1=0.5 * math.sqrt(stats0.sigma_g_sq[0]),
                             delta2=0.5 * math.sqrt(stats0.sigma_h_sq),
                             error_units="absolute")
    stats = build_statistics(cfg)
    assert np.isclose(stats.delta1_abs ** 2, 0.25 * stats.sigma_g_sq[0], rtol=1e-12)


# ---------------------------------------------------------------------------
# rank-one LoS factors
# ---------------------------------------------------------------------------

def _dense_los(stats, cfg):
    """The dense BS->IRS and cascaded LoS matrices built as dense arrays:
    the outer product a_rx a_tx^H of two steering vectors per BS, and
    amplitude * conj(los_ru)[:, None] * a_rx a_tx^H."""
    angles = [tuple(map(math.radians, pair)) for pair in cfg.angles_bs_irs_deg]
    los = [np.outer(steering_vector(*pair, cfg.irs_grid, cfg.spacing),
                    steering_vector(*pair, grid, cfg.spacing).conj())
           for pair, grid in zip(angles, cfg.bs_grids)]
    cascaded = [math.sqrt(stats.alpha_bs_irs[k] * stats.alpha_irs_user * stats.tau[k])
                * (stats.los_irs_user.conj()[:, None] * los[k]) for k in range(stats.n_bs)]
    return los, cascaded


def _assert_factors_are_the_matrices(cfg):
    stats = build_statistics(cfg)
    los, cascaded = _dense_los(stats, cfg)
    for k in range(stats.n_bs):
        a_rx, a_tx, g = stats.irs_steering[k], stats.bs_steering[k], stats.cascaded_gain[k]
        assert a_rx.shape == g.shape == (stats.irs_size,)
        assert a_tx.shape == (stats.bs_sizes[k],)
        for got, want in ((np.outer(a_rx, a_tx.conj()), los[k]),
                          (np.outer(g, a_tx.conj()), cascaded[k]),
                          (stats.los_bs_irs[k], los[k]),
                          (stats.cascaded_los[k], cascaded[k])):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        if stats.tau[k] == 0.0:
            assert np.all(g == 0.0)
    # F's columns are the dense matrices' columns 0, bit for bit
    factor, _ = interference_quadratic(stats, cfg)
    dense_columns = np.empty_like(factor)
    for k in range(1, stats.n_bs):
        dense_columns[:, k - 1] = math.sqrt(cfg.powers_watt[k]) * cascaded[k][:, 0]
    assert factor.tobytes() == dense_columns.tobytes()
    return stats


@pytest.mark.parametrize("regime", EDGE_REGIMES)
def test_los_factors_are_the_dense_matrices(preset_cfg, regime):
    stats = _assert_factors_are_the_matrices(edge_scenario(preset_cfg, regime))
    if regime in ("no-bs-irs-los", "k-0"):         # tau_k = 0 on every BS
        assert all(np.all(g == 0.0) for g in stats.cascaded_gain)


def test_los_factors_of_a_single_element_irs_and_single_antenna_bs(preset_cfg):
    cfg = preset_cfg.replace(irs_grid=(1, 1), bs_grids=((1, 1),) * preset_cfg.n_bs)
    stats = _assert_factors_are_the_matrices(cfg)
    assert stats.cascaded_los[0].shape == (1, 1)


@settings(max_examples=20, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_los_factors_are_the_dense_matrices_on_random_scenarios(seed):
    _assert_factors_are_the_matrices(random_scenario(np.random.default_rng(seed)))


def test_large_irs_statistics_solve_and_evaluation_hold_no_dense_los(preset_cfg):
    # a 64x64 IRS with 8x8 BS arrays: one dense (Mr, M0) complex array is
    # 4 MiB, and the statistics would hold 2 n_bs = 6 of them.  The factors
    # hold O(Mr + M0) per BS, and neither the statistics, nor a short
    # solve, nor a one-chunk evaluation builds one dense array
    cfg = preset_cfg.replace(irs_grid=(64, 64), bs_grids=((8, 8),) * preset_cfg.n_bs)
    dense_bytes = 4096 * 64 * np.dtype(complex).itemsize
    peaks = {}
    tracemalloc.start()
    try:
        stats = build_statistics(cfg)
        peaks["build_statistics"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        v = irsopt.ssca.run(irsopt.SolverConfig(iterations=5), stats, cfg).v
        peaks["ssca.run"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        ergodic_rate_mc(v, mrt_policy(v), stats, cfg, 512, 4)
        peaks["ergodic_rate_mc"] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for a in (stats.irs_steering + stats.bs_steering
                                  + stats.cascaded_gain + (stats.los_irs_user,)))
    assert held < 1e6, held
    assert sum(a.nbytes for a in stats.los_bs_irs + stats.cascaded_los) \
        == 2 * stats.n_bs * dense_bytes
    for name, peak in peaks.items():
        assert peak < dense_bytes, (name, peak / dense_bytes)


# ---------------------------------------------------------------------------
# estimated-CSI sampling (Gaussian model)
# ---------------------------------------------------------------------------

def test_degenerate_estimate_is_los(small_cfg):
    cfg = small_cfg.replace(delta1=1.0, delta2=1.0)   # estimate variance zero
    stats = build_statistics(cfg)
    sample = sample_estimated_csi(stats, cfg, 5)
    np.testing.assert_array_equal(sample.g_hat, stats.cascaded_los[0])
    np.testing.assert_array_equal(sample.h_hat, np.zeros_like(sample.h_hat))


def test_estimated_mean_lln(small_cfg):
    # sample mean of one estimated entry approaches the cascaded LoS entry
    cfg = small_cfg.replace(delta1=0.3, delta2=0.3)
    stats = build_statistics(cfg)
    n = 100_000
    g_hat, _ = design_draws(stats, cfg, 7, n)
    entry = g_hat[:, 0, 0]
    se = math.sqrt(stats.estimate_g_var / n)
    assert abs(np.mean(entry) - stats.cascaded_los[0][0, 0]) < 4.0 * se


def test_estimated_variance(small_cfg):
    cfg = small_cfg.replace(delta1=0.4, delta2=0.2)
    stats = build_statistics(cfg)
    n = 100_000
    g_hat, h_hat = design_draws(stats, cfg, 11, n)
    var_g = np.var(g_hat[:, 1, 2])
    var_h = np.var(h_hat[:, 0])
    # complex variance estimates concentrate within ~5 relative standard errors
    assert abs(var_g - stats.estimate_g_var) < 5 * stats.estimate_g_var / math.sqrt(n)
    assert abs(var_h - stats.estimate_h_var) < 5 * stats.estimate_h_var / math.sqrt(n)


# ---------------------------------------------------------------------------
# physical sampling
# ---------------------------------------------------------------------------

def test_reconstruction_exact(small_cfg, small_stats):
    batch = PhysicalChannelSampler(small_stats, 3, include_interference=True).draw(1)
    # estimate + error reproduces the drawn channel bit for bit
    np.testing.assert_array_equal((batch.g_true - batch.g_err) + batch.g_err, batch.g_true)
    np.testing.assert_array_equal((batch.h_true - batch.h_err) + batch.h_err, batch.h_true)
    assert batch.interference is not None
    assert len(batch.interference) == small_stats.n_bs - 1


def test_physical_determinism(small_cfg, small_stats):
    a = PhysicalChannelSampler(small_stats, 123, include_interference=True).draw(4)
    b = PhysicalChannelSampler(small_stats, 123, include_interference=True).draw(4)
    np.testing.assert_array_equal(a.g_true, b.g_true)
    np.testing.assert_array_equal(a.h_err, b.h_err)
    for (ga, ha, oa), (gb, hb, ob) in zip(a.interference, b.interference):
        np.testing.assert_array_equal(ga, gb)
        np.testing.assert_array_equal(oa, ob)


def test_pure_los_limit(small_cfg):
    cfg = small_cfg.replace(rician_bs_irs=(math.inf,) * 3, rician_irs_user=math.inf,
                            delta1=0.0, delta2=0.0)
    stats = build_statistics(cfg)
    batch = PhysicalChannelSampler(stats, 5).draw(2)
    np.testing.assert_allclose(batch.g_true[0], stats.cascaded_los[0], atol=1e-25)
    np.testing.assert_allclose(batch.g_true[1], stats.cascaded_los[0], atol=1e-25)


def test_cascaded_variance_oracle(small_cfg):
    # per-element variance of the cascaded channel matches
    # alpha_br * alpha_ru * (1 - tau) from the product of independent factors
    stats = irsopt.build_statistics(small_cfg)
    n = 100_000
    batch = PhysicalChannelSampler(stats, 31).draw(n)
    var = np.var(batch.g_true[:, 1, 1])
    assert abs(var - stats.sigma_g_sq[0]) < 0.03 * stats.sigma_g_sq[0]


def test_own_user_energy(small_cfg, small_stats):
    # own-user links are unit-variance per element: E||h_own||^2 = Mk
    n = 100_000
    sampler = PhysicalChannelSampler(small_stats, 17, include_interference=True)
    batch = sampler.draw(n)
    _, _, h_own = batch.interference[0]
    mk = small_stats.bs_sizes[1]
    energy = float(np.mean(np.sum(np.abs(h_own) ** 2, axis=1)))
    assert abs(energy - mk) < 0.02 * mk


def test_error_variance_and_decorrelation(small_cfg):
    cfg = small_cfg.replace(delta1=0.6, delta2=0.6)
    stats = build_statistics(cfg)
    n = 100_000
    batch = PhysicalChannelSampler(stats, 23).draw(n)
    # error per-element variance is delta^2
    var_err = np.var(batch.g_err[:, 0, 1])
    assert abs(var_err - stats.delta1_abs ** 2) < 0.05 * stats.delta1_abs ** 2
    # estimate per-element variance is sigma^2 - delta^2 (as in the Gaussian model)
    g_hat = batch.g_true - batch.g_err
    var_hat = np.var(g_hat[:, 0, 1])
    assert abs(var_hat - stats.estimate_g_var) < 0.05 * stats.sigma_g_sq[0]
    # error is uncorrelated with the estimate
    est = g_hat[:, 0, 1] - stats.cascaded_los[0][0, 1]
    err = batch.g_err[:, 0, 1]
    corr = np.mean(est * np.conj(err)) / math.sqrt(max(np.var(est) * np.var(err), 1e-300))
    assert abs(corr) < 0.02


def test_direct_channel_variance(small_cfg, small_stats):
    n = 100_000
    batch = PhysicalChannelSampler(small_stats, 29).draw(n)
    var = np.var(batch.h_true[:, 2])
    se = small_stats.sigma_h_sq / math.sqrt(n)
    assert abs(var - small_stats.sigma_h_sq) < 5 * se


def test_interference_toggle_leaves_serving_draws(small_cfg, small_stats):
    # named streams: requesting interference must not shift serving-link draws
    a = PhysicalChannelSampler(small_stats, 77, include_interference=False).draw(3)
    b = PhysicalChannelSampler(small_stats, 77, include_interference=True).draw(3)
    np.testing.assert_array_equal(a.g_true, b.g_true)
    np.testing.assert_array_equal(a.h_true, b.h_true)
    np.testing.assert_array_equal(a.g_err, b.g_err)


def test_random_scenarios_statistics_valid():
    rng = np.random.default_rng(99)
    for i in range(10):
        cfg = random_scenario(rng, f"valid{i}")
        stats = build_statistics(cfg)
        assert stats.estimate_g_var >= -1e-30
        assert stats.estimate_h_var >= -1e-30
        assert np.all(stats.sigma_g_sq >= 0)
