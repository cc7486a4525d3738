import numpy as np
import pytest

from irsopt.beamforming import (
    Beamformer,
    mrt_equivalent_beamformer,
    mrt_policy,
)
from irsopt.channel import CsiSample, sample_estimated_csi
from irsopt.rate import PhaseShiftVector

from conftest import random_phase_vector, random_unit_rows


def test_beamformer_validates_norm():
    with pytest.raises(ValueError, match="unit-norm"):
        Beamformer(np.array([1.0, 1.0]))
    bf = Beamformer(np.array([1.0, 0.0], dtype=complex))
    assert bf.w.shape == (2,)
    with pytest.raises(ValueError):
        bf.w[0] = 0.0


def test_pure_direct_channel_mrt(small_cfg, small_stats):
    rng = np.random.default_rng(0)
    h_hat = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    sample = CsiSample(g_hat=np.zeros((small_stats.irs_size, 4), dtype=complex),
                       h_hat=h_hat)
    v = PhaseShiftVector(np.ones(small_stats.irs_size))
    bf = mrt_equivalent_beamformer(v, sample)
    np.testing.assert_allclose(bf.w, h_hat / np.linalg.norm(h_hat), rtol=1e-12)


def test_unit_norm_for_random_inputs(small_cfg, small_stats):
    rng = np.random.default_rng(1)
    for trial in range(20):
        sample = sample_estimated_csi(small_stats, small_cfg, trial)
        v = random_phase_vector(rng, small_stats.irs_size)
        bf = mrt_equivalent_beamformer(v, sample)
        assert abs(np.linalg.norm(bf.w) - 1.0) < 1e-12


def test_optimality_against_random_beamformers(small_cfg, small_stats):
    rng = np.random.default_rng(2)
    sample = sample_estimated_csi(small_stats, small_cfg, 7)
    v = random_phase_vector(rng, small_stats.irs_size)
    e = sample.g_hat.conj().T @ v.v + sample.h_hat
    bf = mrt_equivalent_beamformer(v, sample)
    closed = abs(np.vdot(e, bf.w)) ** 2
    assert np.isclose(closed, float(np.real(np.vdot(e, e))), rtol=1e-12)
    rivals = random_unit_rows(rng, 1000, 4)
    rival_best = float(np.max(np.abs(rivals.conj() @ e) ** 2))
    assert rival_best <= closed * (1 + 1e-12)


def test_phase_invariance(small_cfg, small_stats):
    rng = np.random.default_rng(3)
    sample = sample_estimated_csi(small_stats, small_cfg, 11)
    v = random_phase_vector(rng, small_stats.irs_size)
    theta = 1.234
    # e = g_hat^H v + h_hat rotates by e^{+j theta} when g_hat takes the
    # conjugate rotation (it enters through its conjugate transpose)
    rotated = CsiSample(g_hat=sample.g_hat * np.exp(-1j * theta),
                        h_hat=sample.h_hat * np.exp(1j * theta))
    bf = mrt_equivalent_beamformer(v, sample)
    bf_rot = mrt_equivalent_beamformer(v, rotated)
    np.testing.assert_allclose(bf_rot.w, bf.w * np.exp(1j * theta), rtol=1e-12)
    e = sample.g_hat.conj().T @ v.v + sample.h_hat
    e_rot = rotated.g_hat.conj().T @ v.v + rotated.h_hat
    assert np.isclose(abs(np.vdot(e, bf.w)) ** 2,
                      abs(np.vdot(e_rot, bf_rot.w)) ** 2, rtol=1e-12)


def test_zero_channel_raises(small_stats):
    sample = CsiSample(g_hat=np.zeros((small_stats.irs_size, 4), dtype=complex),
                       h_hat=np.zeros(4, dtype=complex))
    v = PhaseShiftVector(np.ones(small_stats.irs_size))
    with pytest.raises(ValueError, match="zero"):
        mrt_equivalent_beamformer(v, sample)


def test_policy_zero_channel_fallback(small_stats):
    v = PhaseShiftVector(np.ones(small_stats.irs_size))
    policy = mrt_policy(v)
    e_hat = np.zeros((3, 4), dtype=complex)
    e_hat[1, 2] = 2.0   # one live row among dead ones
    w = policy(e_hat)
    np.testing.assert_allclose(np.linalg.norm(w, axis=1), 1.0, rtol=1e-12)
    np.testing.assert_allclose(w[0], [1, 0, 0, 0], atol=1e-15)
    np.testing.assert_allclose(w[1], [0, 0, 1, 0], atol=1e-15)
    # the dead rows are patched in a copy, not in the caller's array
    assert not np.any(e_hat[0])


def test_policy_matches_single_sample_op(small_cfg, small_stats):
    rng = np.random.default_rng(4)
    sample = sample_estimated_csi(small_stats, small_cfg, 13)
    v = random_phase_vector(rng, small_stats.irs_size)
    e_hat = sample.g_hat.conj().T @ v.v + sample.h_hat
    w_batch = mrt_policy(v)(e_hat[None])
    bf = mrt_equivalent_beamformer(v, sample)
    np.testing.assert_allclose(w_batch[0], bf.w, rtol=1e-12)
