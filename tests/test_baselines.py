import dataclasses
import math

import numpy as np
import pytest

import irsopt
from irsopt import baselines, ssca
from irsopt.baselines import (
    SCHEMES,
    SchemeSpec,
    design_scheme,
    design_schemes,
    evaluate_designs,
    evaluate_scheme,
    scheme,
)
from irsopt.channel import build_statistics
from irsopt.beamforming import mrt_policy
from irsopt.rate import ergodic_rate_mc, gk
from irsopt.ssca import SolverConfig
from irsopt.streams import child_seed

from conftest import edge_scenario, interference_split_scenario, paired_t


def test_scheme_registry_is_exactly_the_five_presets():
    assert set(SCHEMES) == {"proposed", "robust-with-intf", "robust-no-intf",
                            "nonrobust-with-intf", "nonrobust-no-intf"}
    proposed = scheme("proposed")
    assert proposed.robust and proposed.use_interference
    assert proposed.phase_source == "ssca"
    assert scheme("robust-with-intf").phase_source == "random"
    assert scheme("robust-with-intf").phase_draws == 10
    with pytest.raises(ValueError, match="unknown scheme"):
        scheme("fancy")


def test_scheme_spec_validation():
    with pytest.raises(ValueError):
        SchemeSpec("x", robust=True, use_interference=True, phase_source="grid")
    with pytest.raises(ValueError):
        SchemeSpec("x", robust=True, use_interference=True, phase_draws=0)
    with pytest.raises(ValueError, match=r"\[1, 1\] for the ssca"):  # would repeat one design
        SchemeSpec("x", robust=True, use_interference=True, phase_draws=3)
    assert SchemeSpec("x", robust=True, use_interference=True,
                      phase_source="random", phase_draws=3).phase_draws == 3


def test_nonrobust_equals_proposed_when_error_free(small_cfg):
    # with true delta = 0 the design objectives coincide, so matched seeds
    # give bit-identical phase shifts
    cfg = small_cfg.replace(delta1=0.0, delta2=0.0)
    stats = build_statistics(cfg)
    solver = SolverConfig(iterations=40, samples_per_iter=4, seed=77)
    v_a = design_scheme(scheme("proposed"), stats, cfg, solver)
    v_b = design_scheme(scheme("nonrobust-with-intf"), stats, cfg, solver)
    np.testing.assert_array_equal(v_a.v, v_b.v)


def test_interference_flag_irrelevant_without_interferers(small_cfg):
    cfg = irsopt.ScenarioConfig(
        name="lonely",
        bs_positions=(small_cfg.bs_positions[0],),
        irs_position=small_cfg.irs_position,
        user_position=small_cfg.user_position,
        bs_grids=(small_cfg.bs_grids[0],),
        irs_grid=small_cfg.irs_grid,
        powers_dbm=(small_cfg.powers_dbm[0],),
        noise_dbm=small_cfg.noise_dbm,
        rician_bs_irs=(small_cfg.rician_bs_irs[0],),
        rician_irs_user=small_cfg.rician_irs_user,
        angles_bs_irs_deg=(small_cfg.angles_bs_irs_deg[0],),
        angles_irs_user_deg=small_cfg.angles_irs_user_deg,
        delta1=0.3, delta2=0.3,
    )
    stats = build_statistics(cfg)
    solver = SolverConfig(iterations=40, samples_per_iter=4, seed=13)
    v_a = design_scheme(scheme("proposed"), stats, cfg, solver)
    v_b = design_scheme(scheme("robust-no-intf"), stats, cfg, solver)
    np.testing.assert_array_equal(v_a.v, v_b.v)


def test_random_phase_draws_differ_but_are_deterministic(small_cfg, small_stats):
    solver = SolverConfig(iterations=10, samples_per_iter=2, seed=5)
    spec = scheme("robust-with-intf")
    v0 = design_scheme(spec, small_stats, small_cfg, solver, draw=0)
    v1 = design_scheme(spec, small_stats, small_cfg, solver, draw=1)
    v0_again = design_scheme(spec, small_stats, small_cfg, solver, draw=0)
    assert not np.allclose(v0.v, v1.v)
    np.testing.assert_array_equal(v0.v, v0_again.v)
    assert np.max(np.abs(np.abs(v0.v) - 1.0)) < 1e-12


def test_evaluate_scheme_multi_draw_averaging(small_cfg, small_stats):
    solver = SolverConfig(iterations=10, samples_per_iter=2, seed=3)
    spec = dataclasses.replace(scheme("robust-with-intf"), phase_draws=3)
    report = evaluate_scheme(spec, small_stats, small_cfg, solver, 300, 11,
                             return_samples=True)
    assert report.n_samples == 300
    assert report.rate_samples.shape == (300,)
    # the average of the per-draw reports matches the combined report
    singles = [
        evaluate_scheme(dataclasses.replace(spec, phase_draws=1, name=spec.name),
                        small_stats, small_cfg, solver, 300, 11, return_samples=True)
    ]
    assert report.mc_rate == pytest.approx(np.mean(report.rate_samples))
    assert singles[0].n_samples == 300


@pytest.mark.parametrize("return_samples", [False, True])
@pytest.mark.parametrize("n_samples", [2, 40])
def test_evaluate_scheme_single_draw_equals_plain_evaluation(small_cfg, small_stats,
                                                             n_samples, return_samples):
    # the one-draw average reproduces the single evaluation's report bit for bit
    solver = SolverConfig(iterations=5, samples_per_iter=2, seed=3)
    spec = scheme("proposed")
    report = evaluate_scheme(spec, small_stats, small_cfg, solver, n_samples, 11,
                             return_samples=return_samples)
    v = design_scheme(spec, small_stats, small_cfg, solver)
    plain = ergodic_rate_mc(v, mrt_policy(v), small_stats, small_cfg, n_samples, 11)
    assert report.to_dict() == plain.to_dict()
    if return_samples:
        assert report.rate_samples.tobytes() == plain.rate_samples.tobytes()
    else:
        assert report.rate_samples is None


def test_evaluate_scheme_multi_draw_interference_is_averaged(small_cfg, small_stats):
    # every power in a multi-draw report is the mean over the draws' designs
    solver = SolverConfig(iterations=10, samples_per_iter=2, seed=3)
    spec = scheme("robust-with-intf")
    report = evaluate_scheme(spec, small_stats, small_cfg, solver, 50, 11)
    per_draw = [[small_cfg.powers_watt[k] * gk(v, small_stats, k)
                 for k in range(1, small_stats.n_bs)]
                for v in (design_scheme(spec, small_stats, small_cfg, solver, draw=d)
                          for d in range(spec.phase_draws))]
    assert len(report.interference_power) == small_stats.n_bs - 1
    np.testing.assert_allclose(report.interference_power, np.mean(per_draw, axis=0),
                               rtol=1e-12)
    assert not np.allclose(report.interference_power, per_draw[0], rtol=1e-6, atol=0.0)


def _evaluate(specs, stats, cfg, solvers, n_samples, eval_rng, return_samples=False):
    """One report per scheme at one point, as `eval` makes them: every
    design first (`design_schemes`), then one `evaluate_designs` call."""
    points = [(stats, cfg)]
    (reports,) = evaluate_designs(design_schemes(specs, solvers, points), points, n_samples,
                                  eval_rng, return_samples)
    return reports


def _phases_and_ub_rates(names, stats, cfg, monkeypatch):
    """`_evaluate` on `names` with per-scheme design seeds: each scheme's
    first design (as the evaluator receives it) and its UB rate."""
    received = []
    evaluate = baselines.ergodic_rates_mc_points

    def spy(points, *args):
        (point,) = points
        received.extend(point[0])
        return evaluate(points, *args)

    monkeypatch.setattr(baselines, "ergodic_rates_mc_points", spy)
    specs = [scheme(name) for name in names]
    solvers = [SolverConfig(iterations=30, samples_per_iter=4,
                            seed=child_seed(12, f"design/{name}")) for name in names]
    reports = _evaluate(specs, stats, cfg, solvers, 100, 13)
    firsts = np.cumsum([0] + [spec.phase_draws for spec in specs])[:-1]
    return {name: (received[i].v, report.ub_rate)
            for name, i, report in zip(names, firsts, reports)}


def test_scheme_design_does_not_depend_on_the_schemes_beside_it(preset_cfg, monkeypatch):
    # the SSCA schemes of one call are designed in one lockstep stack
    cfg = preset_cfg.replace(irs_grid=(4, 4), delta1=0.5, delta2=0.5)
    stats = build_statistics(cfg)
    names = sorted(SCHEMES)
    together = _phases_and_ub_rates(names, stats, cfg, monkeypatch)
    for name in ("proposed", "robust-no-intf", "nonrobust-with-intf", "nonrobust-no-intf"):
        phases, ub_rate = _phases_and_ub_rates([name], stats, cfg, monkeypatch)[name]
        assert np.array_equal(together[name][0], phases), name
        assert together[name][1] == ub_rate, name


def test_design_schemes_over_points_of_two_shapes_equals_per_point_calls(small_cfg):
    # points of different shapes go into one call; the designs of each shape
    # are stacked, and every design equals its own point's call bit for bit
    single_bs = small_cfg.replace(
        bs_positions=small_cfg.bs_positions[:1], bs_grids=small_cfg.bs_grids[:1],
        powers_dbm=small_cfg.powers_dbm[:1], rician_bs_irs=small_cfg.rician_bs_irs[:1],
        angles_bs_irs_deg=small_cfg.angles_bs_irs_deg[:1])
    cfgs = [small_cfg, small_cfg.replace(irs_grid=(2, 2)), single_bs,
            small_cfg.replace(delta1=0.5, delta2=0.5), small_cfg.replace(bs_grids=((1, 2),) * 3)]
    points = [(build_statistics(cfg), cfg) for cfg in cfgs]
    names = ("proposed", "robust-with-intf", "nonrobust-no-intf")
    specs = [scheme(name) for name in names]
    solvers = [SolverConfig(iterations=12, samples_per_iter=3, seed=child_seed(8, name))
               for name in names]
    together = design_schemes(specs, solvers, points)
    assert len(together) == len(points)
    for point, designs in zip(points, together):
        (alone,) = design_schemes(specs, solvers, [point])
        assert [len(per_scheme) for per_scheme in designs] == [1, 10, 1]
        for got, want in zip(designs, alone):
            assert all(np.array_equal(a.v, b.v) for a, b in zip(got, want))


def test_evaluate_schemes_needs_one_solver_setting_per_scheme(small_cfg, small_stats):
    solver = SolverConfig(iterations=2, samples_per_iter=1)
    with pytest.raises(ValueError, match="1 solver settings for 2 schemes"):
        design_schemes([scheme("proposed"), scheme("robust-no-intf")], [solver],
                       [(small_stats, small_cfg)])


def test_evaluate_schemes_rejects_no_samples_before_designing(small_cfg, small_stats,
                                                              monkeypatch):
    def no_design(*args, **kwargs):
        raise AssertionError("a design was made before the sample count was checked")

    monkeypatch.setattr(baselines, "run_stack", no_design)
    solver = SolverConfig(iterations=2, samples_per_iter=1)
    for n_samples in (0, 1):        # one sample has no standard error
        with pytest.raises(ValueError, match="n_samples must be >= 2"):
            evaluate_scheme(scheme("proposed"), small_stats, small_cfg, solver, n_samples, 1)


def test_evaluate_schemes_rejects_settings_beyond_the_seed_before_iterating(
        small_cfg, small_stats, monkeypatch):
    # the SSCA schemes of a call form one lockstep stack, which shares every
    # solver setting but the seed
    def no_iteration(*args, **kwargs):
        raise AssertionError("an SSCA iteration ran before the settings were checked")

    monkeypatch.setattr(ssca, "update_coefficients", no_iteration)
    solvers = [SolverConfig(iterations=2, samples_per_iter=1, seed=1),
               SolverConfig(iterations=3, samples_per_iter=1, seed=2)]
    with pytest.raises(ValueError, match="differ only in the seed"):
        design_schemes([scheme("proposed"), scheme("robust-no-intf")], solvers,
                       [(small_stats, small_cfg)])


@pytest.mark.parametrize("regime", ["k-0", "k-inf-delta-0", "delta-0", "delta-1",
                                    "irs-1x1", "one-bs-antenna", "single-bs"])
def test_evaluate_schemes_edge_regimes(preset_cfg, regime):
    cfg = edge_scenario(preset_cfg, regime)
    stats = build_statistics(cfg)
    names = sorted(SCHEMES)
    solvers = [SolverConfig(iterations=20, samples_per_iter=10,
                            seed=child_seed(3, f"design/{name}")) for name in names]
    reports = _evaluate([scheme(name) for name in names], stats, cfg, solvers,
                        600, child_seed(3, "eval"))
    for report in reports:
        assert all(math.isfinite(x) for x in (report.ub_rate, report.mc_rate,
                                              report.mc_stderr))
        assert report.ub_rate >= report.mc_rate - 3 * report.mc_stderr
        assert len(report.interference_power) == stats.n_bs - 1
        assert all(p >= 0.0 for p in report.interference_power)


def test_evaluation_fairness_shared_draws(small_cfg, small_stats):
    # identical eval seeds: every scheme sees the same channel realizations,
    # so per-sample rate differences reflect the designs only
    reports = {}
    for name in ("proposed", "robust-no-intf"):
        solver = SolverConfig(iterations=30, samples_per_iter=4,
                              seed=child_seed(9, f"design/{name}"))
        reports[name] = evaluate_scheme(scheme(name), small_stats, small_cfg,
                                        solver, 400, 21, return_samples=True)
    a, b = reports["proposed"], reports["robust-no-intf"]
    assert a.n_samples == b.n_samples
    # shared randomness caps the paired diff noise well below the marginal one
    d_std = np.std(a.rate_samples - b.rate_samples)
    assert d_std < 0.5 * np.std(a.rate_samples)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_interference_aware_design_wins_near_serving_los(preset_cfg, seed):
    # an interferer's LoS close to the serving one separates the designs that
    # keep and drop the interference terms (on the preset they tie)
    cfg = interference_split_scenario(preset_cfg)
    names = ("proposed", "robust-no-intf")
    solvers = [SolverConfig(iterations=300, seed=child_seed(seed, f"design/{name}"))
               for name in names]
    proposed, no_intf = _evaluate([scheme(name) for name in names], build_statistics(cfg), cfg,
                                  solvers, 2000, child_seed(seed, "eval"), return_samples=True)
    diff, se, t = paired_t(proposed.rate_samples, no_intf.rate_samples)
    assert t >= 3.0, f"proposed - robust-no-intf = {diff:.4f} +/- {se:.4f}, t = {t:.1f}"
    assert proposed.ub_rate > no_intf.ub_rate


def test_robust_not_inferior_at_elevated_error(preset_cfg):
    # paired non-inferiority: the robust design never trails its non-robust
    # twin by more than sampling noise
    cfg = preset_cfg.replace(delta1=0.6, delta2=0.6)
    stats = build_statistics(cfg)
    reports = {}
    for name in ("proposed", "nonrobust-with-intf"):
        solver = SolverConfig(iterations=150, samples_per_iter=10,
                              seed=child_seed(31, f"design/{name}"))
        reports[name] = evaluate_scheme(scheme(name), stats, cfg, solver, 1500,
                                        child_seed(31, "eval"), return_samples=True)
    diff, se, t = paired_t(reports["proposed"].rate_samples,
                           reports["nonrobust-with-intf"].rate_samples)
    assert t > -3.0, f"robust design significantly inferior: diff={diff}, t={t}"
