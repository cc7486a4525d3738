import numpy as np
import pytest

from irsopt import baselines
from irsopt.baselines import evaluate_scheme, scheme
from irsopt.beamforming import mrt_policy
from irsopt.channel import PhysicalChannelSampler
from irsopt.rate import PhaseShiftVector, ergodic_rate_mc, ergodic_rates_mc
from irsopt.ssca import SolverConfig
from irsopt.cli import SweepSpec
from irsopt.streams import (check_count, check_seed, child_seed, crandn, crandn_blocks,
                            named_child)


@pytest.mark.parametrize("shape", [(), 7, (3, 5), (4, 16, 2), (0, 3)])
@pytest.mark.parametrize("var", [1.0, 0.37, 2.5e-9])
def test_crandn_bits_match_reference_formula(shape, var):
    ref_rng, rng = np.random.default_rng(12), np.random.default_rng(12)
    scale = np.sqrt(var / 2.0)
    expected = scale * (ref_rng.standard_normal(shape) + 1j * ref_rng.standard_normal(shape))
    out = crandn(rng, shape, var)
    assert out.dtype == np.complex128 and out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()
    # the stream is left where the reference formula leaves it
    assert rng.standard_normal() == ref_rng.standard_normal()


@pytest.mark.parametrize("steps, block", [(7, 3), (7, 1), (7, 7), (7, 50), (1, 4), (5, 0)])
def test_crandn_blocks_equal_one_crandn_call_per_shape_and_step(steps, block):
    # the solver's block draws: the streams do not depend on the block size,
    # and a block past the last step draws nothing
    shapes = [(3, 2), (5,)]
    rngs = [np.random.default_rng(seed) for seed in (1, 2, 3)]
    refs = [np.random.default_rng(seed) for seed in (1, 2, 3)]
    drawn = 0
    for draws in crandn_blocks(rngs, shapes, steps, block):
        drawn += 1
        assert [d.shape for d in draws] == [(3, 3, 2), (3, 5)]
        for row, ref in enumerate(refs):
            for draw, shape in zip(draws, shapes):
                assert draw[row].tobytes() == crandn(ref, shape, 1.0).tobytes()
    assert drawn == steps
    assert all(rng.standard_normal() == ref.standard_normal() for rng, ref in zip(rngs, refs))


def test_crandn_zero_variance_and_domain():
    out = crandn(np.random.default_rng(0), (2, 3), 0.0)
    assert np.all(out == 0.0)
    with pytest.raises(ValueError, match="non-negative"):
        crandn(np.random.default_rng(0), 3, -1.0)


def _non_int_seeds():
    return {
        "generator": np.random.default_rng(5),
        "spawned-seedsequence": np.random.SeedSequence(5).spawn(1)[0],
    }


def _rate(stats, cfg, rng):
    v = PhaseShiftVector.ones(stats.irs_size)
    return ergodic_rate_mc(v, mrt_policy(v), stats, cfg, 4, rng)


def _sampler(stats, cfg, rng):
    return PhysicalChannelSampler(stats, rng, include_interference=True)


def _evaluate(stats, cfg, rng):
    solver = SolverConfig(iterations=2, samples_per_iter=1)
    return evaluate_scheme(scheme("proposed"), stats, cfg, solver, 4, rng)


@pytest.mark.parametrize("kind", sorted(_non_int_seeds()))
@pytest.mark.parametrize("call", [_rate, _sampler, _evaluate],
                         ids=["ergodic_rate_mc", "PhysicalChannelSampler", "evaluate_scheme"])
def test_sampling_apis_reject_non_integer_seeds(small_cfg, small_stats, kind, call):
    # a Generator advances between calls and a spawned SeedSequence would lose
    # its spawn key, so neither could pair two evaluations; only ints are seeds
    with pytest.raises(TypeError):
        call(small_stats, small_cfg, _non_int_seeds()[kind])


def checked(seed, name):
    """check_seed with the signature of the seed derivations."""
    return check_seed(seed)


@pytest.mark.parametrize("derive", [named_child, child_seed, checked])
def test_seed_derivation_domain(derive):
    a, b = derive(np.int64(9), "x"), derive(9, "x")
    if derive is named_child:
        a, b = a.standard_normal(3), b.standard_normal(3)
    np.testing.assert_array_equal(a, b)
    if derive is checked:
        assert type(a) is int
    with pytest.raises(TypeError):
        derive(9.0, "x")
    with pytest.raises(ValueError, match="non-negative"):
        derive(-1, "x")


@pytest.mark.parametrize("build", [lambda seed: SolverConfig(seed=seed),
                                   lambda seed: SweepSpec(param="error-std", values=(0.1,),
                                                          schemes=("proposed",), seed=seed)],
                         ids=["SolverConfig", "SweepSpec"])
def test_configs_reject_bad_seeds_at_construction(build):
    build(np.int64(3))
    with pytest.raises(TypeError):
        build(1.5)
    with pytest.raises(ValueError, match="non-negative"):
        build(-1)


def _no_design(*args, **kwargs):
    raise AssertionError("a design ran before the count check")


def _evaluate_count(n, stats, cfg):
    solver = SolverConfig(iterations=2, samples_per_iter=1)
    return evaluate_scheme(scheme("proposed"), stats, cfg, solver, n, 1)


def _rates_count(n, stats, cfg):
    v = PhaseShiftVector.ones(stats.irs_size)
    return ergodic_rates_mc([v], [mrt_policy(v)], stats, cfg, n, 1)


COUNTS = {
    "SolverConfig.iterations": ("iterations", lambda n, stats, cfg: SolverConfig(iterations=n)),
    "SolverConfig.samples_per_iter": (
        "samples_per_iter", lambda n, stats, cfg: SolverConfig(samples_per_iter=n)),
    "SolverConfig.probe_every": ("probe_every", lambda n, stats, cfg: SolverConfig(probe_every=n)),
    "SweepSpec.n_samples": ("n_samples", lambda n, stats, cfg: SweepSpec(
        param="error-std", values=(0.1,), schemes=("proposed",), n_samples=n)),
    "evaluate_schemes.n_samples": ("n_samples", _evaluate_count),
    "ergodic_rates_mc.n_samples": ("n_samples", _rates_count),
}


@pytest.mark.parametrize("value", [2.5, 2.0, True], ids=["float", "integral-float", "bool"])
@pytest.mark.parametrize("count", sorted(COUNTS))
def test_counts_reject_floats_and_bools(small_cfg, small_stats, monkeypatch, count, value):
    # unchecked, probe_every=1.5 probes at t = 3, a float sample count dies in
    # numpy after every design ran, and True passes for 1
    monkeypatch.setattr(baselines, "run_stack", _no_design)
    name, build = COUNTS[count]
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        build(value, small_stats, small_cfg)


def test_check_count_domain():
    assert check_count(np.int64(3), "n") == 3 and type(check_count(np.int64(3), "n")) is int
    assert check_count(0, "n", minimum=0) == 0
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        check_count(0, "n")
    with pytest.raises(ValueError, match="n must be an integer"):
        check_count(np.bool_(True), "n")


def test_evaluate_scheme_checks_eval_seed_before_designing(small_cfg, small_stats,
                                                           monkeypatch):
    def no_design(*args, **kwargs):
        raise AssertionError("a design ran before the seed check")

    monkeypatch.setattr(baselines, "run_stack", no_design)
    solver = SolverConfig(iterations=2, samples_per_iter=1)
    with pytest.raises(TypeError):
        evaluate_scheme(scheme("proposed"), small_stats, small_cfg, solver, 4,
                        np.random.default_rng(5))
