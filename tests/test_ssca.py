import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import irsopt
from irsopt import ssca
from irsopt.channel import CsiSample
from irsopt.rate import PhaseShiftVector, gk
from irsopt.ssca import (
    DesignObjective,
    SolverConfig,
    SscaState,
    project_unit_modulus,
    run,
    run_stack,
    solve_surrogate,
    stepsize,
    surrogate_value,
    update_coefficients,
)
from irsopt.streams import child_seed, named_child, named_children

from conftest import (
    EDGE_REGIMES,
    combine_draws,
    edge_scenario,
    full_matrix_sample,
    random_relaxed,
    random_scenario,
    sample_draws,
)


# ---------------------------------------------------------------------------
# stepsizes
# ---------------------------------------------------------------------------

def test_stepsize_values():
    assert stepsize(1, 0.6) == 1.0
    assert stepsize(1, 0.9) == 1.0
    # log-domain cross-check
    assert np.isclose(stepsize(1024, 0.9), math.exp(-0.9 * math.log(1024)),
                      rtol=1e-12)
    assert np.isclose(stepsize(1024, 0.9), 1.95e-3, rtol=5e-3)


def test_stepsize_ratio_vanishes():
    a, b = 0.6, 0.9
    ratios = [stepsize(t, b) / stepsize(t, a) for t in (1, 10, 100, 1000)]
    assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))
    assert np.isclose(ratios[-1], 1000.0 ** (a - b), rtol=1e-12)


def test_stepsize_requires_t_ge_1():
    with pytest.raises(ValueError):
        stepsize(0, 0.6)


def test_solver_config_validation():
    with pytest.raises(ValueError, match="rho exponent"):
        SolverConfig(rho_exponent=0.5)          # sum rho^2 would diverge
    with pytest.raises(ValueError, match="omega exponent"):
        SolverConfig(rho_exponent=0.6, omega_exponent=0.6)
    with pytest.raises(ValueError, match="omega exponent"):
        SolverConfig(rho_exponent=0.6, omega_exponent=1.1)
    with pytest.raises(ValueError):
        SolverConfig(iterations=0)
    with pytest.raises(ValueError, match="probe_every"):
        SolverConfig(probe_every=-5)            # t % -5 == 0 would still probe
    SolverConfig(rho_exponent=0.51, omega_exponent=1.0)   # boundary values pass


# ---------------------------------------------------------------------------
# coefficient updates
# ---------------------------------------------------------------------------

def _toy_design(rng, mr=2, m0=2, g_var=0.5, h_var=0.5):
    g_mean = rng.standard_normal((mr, m0)) + 1j * rng.standard_normal((mr, m0))
    return DesignObjective(p0=2.0, g_mean=g_mean, g_var=g_var,
                           h_mean=np.zeros(m0, dtype=complex), h_var=h_var,
                           err_const=0.1, denom_quad=None, denom_const=3.0)


def _full_draws(design, seed, n, v):
    """Reference full draws (g (L, Mr, M0), h (L, M0)) and the mean pair
    (mean ||e||^2, mean g e (Mr,)) of their (e, g e) at v, which
    `update_coefficients` reads."""
    g, h = full_matrix_sample(design, named_children(seed, ["design/g", "design/h"]), n)
    e, ge = combine_draws(v, g, h)
    return g, h, float(np.mean(np.sum(np.abs(e) ** 2, axis=1))), np.mean(ge, axis=0)


def _per_draw(design, g, h):
    """Single-draw views of the stacked draws (g (L, Mr, M0), h (L, M0))."""
    return [design.ratio(CsiSample(g_hat=g[i], h_hat=h[i])) for i in range(g.shape[0])]


def test_update_coefficients_first_iteration_erases_history():
    rng = np.random.default_rng(0)
    design = _toy_design(rng)
    v = np.ones(2, dtype=complex)
    g, h, power, ge = _full_draws(design, 5, 6, v)
    assert ge.shape == (2,)
    c0, c1 = update_coefficients(v, 0.0, np.zeros(2, dtype=complex), power, ge,
                                 rho=1.0, design=design)
    ratios = _per_draw(design, g, h)
    vals = [r.value(v) for r in ratios]
    assert np.isclose(c0, np.mean(vals), rtol=1e-12)
    grads = np.mean([r.ascent(v) for r in ratios], axis=0)
    np.testing.assert_allclose(c1, grads, rtol=1e-12)


def test_update_coefficients_single_sample():
    rng = np.random.default_rng(1)
    design = _toy_design(rng)
    v = np.ones(2, dtype=complex)
    g, h, power, ge = _full_draws(design, 6, 1, v)
    c0, _ = update_coefficients(v, 0.0, np.zeros(2, dtype=complex), power, ge,
                                rho=1.0, design=design)
    assert np.isclose(c0, _per_draw(design, g, h)[0].value(v), rtol=1e-12)


def test_update_coefficients_blend():
    rng = np.random.default_rng(2)
    design = _toy_design(rng)
    v, c1_prev = np.full(2, 0.5 + 0.0j), np.array([0.2 + 0.1j, -0.3j])
    g, h, power, ge = _full_draws(design, 7, 3, v)
    rho = 0.25
    c0, c1 = update_coefficients(v, 1.5, c1_prev, power, ge, rho=rho, design=design)
    ratios = _per_draw(design, g, h)
    vals = np.mean([r.value(v) for r in ratios])
    grads = np.mean([r.ascent(v) for r in ratios], axis=0)
    assert np.isclose(c0, rho * vals + (1 - rho) * 1.5, rtol=1e-12)
    np.testing.assert_allclose(c1, rho * grads + (1 - rho) * c1_prev, rtol=1e-12)


def test_coefficient_average_approaches_mean_gradient():
    # sampling oracle: a single rho=1 update with large L approaches a
    # 10^6-sample mean gradient on a tiny instance.  The oracle evaluates
    # the constant-denominator ascent gradient p0 * (g_hat e) / d in its own
    # vectorized form on independent draws.
    rng = np.random.default_rng(3)
    design = _toy_design(rng, g_var=0.3, h_var=0.3)
    v0 = np.full(2, 0.8 + 0.1j)

    orng = np.random.default_rng(1001)
    total = np.zeros(2, dtype=complex)
    total_sq = np.zeros(2)
    n_oracle, chunk = 1_000_000, 200_000
    for _ in range(n_oracle // chunk):
        g = design.g_mean[None] + math.sqrt(design.g_var / 2) * (
            orng.standard_normal((chunk, 2, 2)) + 1j * orng.standard_normal((chunk, 2, 2)))
        h = math.sqrt(design.h_var / 2) * (
            orng.standard_normal((chunk, 2)) + 1j * orng.standard_normal((chunk, 2)))
        e = np.einsum("nmi,m->ni", g.conj(), v0) + h
        per_sample = design.p0 * np.einsum("nmi,ni->nm", g, e) / design.denom_const
        total += per_sample.sum(axis=0)
        total_sq += np.sum(np.abs(per_sample) ** 2, axis=0)
    oracle_mean = total / n_oracle
    oracle_sd = np.sqrt(total_sq / n_oracle - np.abs(oracle_mean) ** 2)

    L = 20_000
    streams = named_children(2002, ["design/g", "design/h"])
    _, c1 = update_coefficients(v0, 0.0, np.zeros(2, dtype=complex),
                                *design.sample(sample_draws(design, streams, L), v0, L),
                                rho=1.0, design=design)
    for n in range(2):
        assert abs(c1[n] - oracle_mean[n]) < 4 * oracle_sd[n] / math.sqrt(L)


# ---------------------------------------------------------------------------
# surrogate maximization
# ---------------------------------------------------------------------------

def test_solve_surrogate_aligned_fixed_point():
    out = solve_surrogate(np.array([1.0 + 0.0j]), np.array([0.0 + 0.0j]), tau_reg=1.0)
    np.testing.assert_allclose(out, [1.0 + 0.0j], rtol=1e-15)


def test_solve_surrogate_normalizes_direction():
    out = solve_surrogate(np.array([1.0 + 0.0j]), np.array([0.5j]), tau_reg=0.5)
    np.testing.assert_allclose(out, [(1 + 1j) / math.sqrt(2)], rtol=1e-12)


def test_solve_surrogate_zero_direction_tiebreak():
    # tau*v + c1 = 0 on the first coordinate; second coordinate is zero too
    out = solve_surrogate(np.array([0.5 + 0.0j, 0.0j]), np.array([-0.5 + 0.0j, 0.0j]),
                          tau_reg=1.0)
    np.testing.assert_allclose(out[0], 1.0 + 0.0j, rtol=1e-12)   # keeps v's phase
    np.testing.assert_allclose(out[1], 1.0 + 0.0j, rtol=1e-12)   # falls back to 1
    assert np.all(np.abs(np.abs(out) - 1.0) < 1e-12)


def test_solve_surrogate_requires_positive_tau():
    with pytest.raises(ValueError):
        solve_surrogate(np.ones(2, dtype=complex), np.zeros(2, dtype=complex), tau_reg=0.0)


def test_surrogate_maximizer_beats_random_points():
    rng = np.random.default_rng(4)
    for trial in range(5):
        mr = 4
        state = SscaState(
            t=1, v=random_relaxed(rng, mr), c0=rng.normal(),
            c1=0.05 * (rng.standard_normal(mr) + 1j * rng.standard_normal(mr)))
        tau = 1e-3
        v_bar = solve_surrogate(state.v, state.c1, tau)
        best = surrogate_value(v_bar, state, tau)
        for _ in range(200):
            u = rng.uniform(0, 1, mr) * np.exp(1j * rng.uniform(0, 2 * math.pi, mr))
            assert surrogate_value(u, state, tau) <= best + 1e-12


def test_project_unit_modulus():
    v = np.array([0.5 * np.exp(1j * math.pi / 3), 0.0j, -2e-1])
    out = project_unit_modulus(v)
    assert isinstance(out, PhaseShiftVector)
    np.testing.assert_allclose(out.v[0], np.exp(1j * math.pi / 3), rtol=1e-12)
    assert out.v[1] == 1.0 + 0.0j          # zero maps to 1
    np.testing.assert_allclose(out.v[2], -1.0 + 0.0j, rtol=1e-12)
    # idempotent on unit-modulus input
    again = project_unit_modulus(out)
    np.testing.assert_allclose(again.v, out.v, rtol=1e-15)


def test_state_feasibility_enforced():
    with pytest.raises(ValueError, match="relaxed set"):
        SscaState(t=0, v=np.array([1.5 + 0.0j]), c0=0.0, c1=np.zeros(1, dtype=complex))


@pytest.mark.parametrize("where", ["state", "run"])
def test_nan_iterate_rejected(small_cfg, small_stats, monkeypatch, where):
    if where == "state":
        v = np.ones(small_stats.irs_size, dtype=complex)
        v[0] = math.nan
        with pytest.raises(ValueError, match="relaxed set"):
            SscaState(t=0, v=v, c0=0.0, c1=np.zeros_like(v))
        return
    # a NaN surrogate point cannot enter a run's iterate: the run stops in
    # the iteration that produced it, before the next draw
    solve, sample = ssca.solve_surrogate, DesignObjective.sample
    calls = {"solve": 0, "sample": 0}

    def nan_at_3(v, c1, tau_reg):
        calls["solve"] += 1
        u = solve(v, c1, tau_reg)
        return np.full_like(u, math.nan) if calls["solve"] == 3 else u

    def counting(self, streams, v, n):
        calls["sample"] += 1
        return sample(self, streams, v, n)

    monkeypatch.setattr(ssca, "solve_surrogate", nan_at_3)
    monkeypatch.setattr(DesignObjective, "sample", counting)
    with pytest.raises(ValueError, match="relaxed set"):
        run(SolverConfig(iterations=10, samples_per_iter=2, seed=3), small_stats, small_cfg)
    assert calls == {"solve": 3, "sample": 3}


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def test_run_deterministic(small_cfg, small_stats):
    cfg = SolverConfig(iterations=40, samples_per_iter=5, seed=99)
    a = run(cfg, small_stats, small_cfg)
    b = run(cfg, small_stats, small_cfg)
    np.testing.assert_array_equal(a.v.v, b.v.v)
    assert a.trace.c0 == b.trace.c0
    assert a.trace.gap == b.trace.gap
    assert a.tau_reg == b.tau_reg


def test_run_iterates_feasible_and_output_unit(small_cfg, small_stats):
    cfg = SolverConfig(iterations=30, samples_per_iter=4, seed=5)
    result = run(cfg, small_stats, small_cfg, audit=True)
    for entry in result.trace.audit:
        assert np.max(np.abs(entry["v_prev"])) <= 1.0 + 1e-12
        assert np.max(np.abs(np.abs(entry["v_bar"]) - 1.0)) < 1e-12
    assert np.max(np.abs(np.abs(result.v.v) - 1.0)) < 1e-12
    assert isinstance(result.v, PhaseShiftVector)


def test_run_improves_over_initial(preset_cfg, preset_stats):
    from irsopt.rate import upper_bound_rate_closed_form

    cfg = SolverConfig(iterations=150, samples_per_iter=10, seed=21)
    result = run(cfg, preset_stats, preset_cfg)
    ub0 = upper_bound_rate_closed_form(PhaseShiftVector.ones(64), preset_stats,
                                       preset_cfg)
    ub = upper_bound_rate_closed_form(result.v, preset_stats, preset_cfg)
    assert ub > ub0


def test_run_c0_trend_non_decreasing(preset_cfg, preset_stats):
    # regression slope of the final half of the c0 trace, within 3 se of >= 0
    cfg = SolverConfig(iterations=200, samples_per_iter=10, seed=31)
    result = run(cfg, preset_stats, preset_cfg)
    c0 = np.array(result.trace.c0)
    half = c0[len(c0) // 2:]
    t = np.arange(len(half), dtype=float)
    design = np.vstack([t, np.ones_like(t)]).T
    coef, *_ = np.linalg.lstsq(design, half, rcond=None)
    resid = half - design @ coef
    se = math.sqrt(np.sum(resid ** 2) / (len(half) - 2)
                   / np.sum((t - t.mean()) ** 2))
    assert coef[0] > -3 * se


def test_run_probe_and_trace_csv(tmp_path, small_cfg, small_stats):
    cfg = SolverConfig(iterations=20, samples_per_iter=3, seed=1, probe_every=10)
    result = run(cfg, small_stats, small_cfg)
    probes = [u for u in result.trace.ub_rate if not math.isnan(u)]
    assert len(probes) == 2
    path = tmp_path / "trace.csv"
    result.trace.to_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "t,c0,fixed_point_gap,ub_rate_probe"
    assert len(lines) == 21


@pytest.mark.parametrize("robust", [True, False], ids=["own design", "non-robust design"])
def test_probe_is_the_robust_upper_bound_rate(small_cfg, robust):
    # the probe scores the robust UB rate whatever design the solver runs
    scenario = small_cfg.replace(delta1=0.3, delta2=0.2)
    stats = irsopt.build_statistics(scenario)
    design = None if robust else DesignObjective.from_scenario(stats, scenario, robust=False)
    cfg = SolverConfig(iterations=12, samples_per_iter=3, seed=4, probe_every=12)
    result = run(cfg, stats, scenario, design=design)
    want = irsopt.upper_bound_rate_closed_form(result.v, stats, scenario)
    assert result.trace.ub_rate[-1] == want
    if not robust:
        value, _ = design.expected(result.v.v)
        assert not math.isclose(math.log2(1.0 + value), want, rel_tol=1e-9)


@pytest.mark.parametrize("delta", [1e-6, 0.6])
def test_run_reaches_the_phase_aligned_upper_bound(preset_cfg, delta):
    # on paper-fig3 the serving cascaded LoS is rank one, and aligning the
    # phases with its top left singular vector is a near-optimal closed form
    cfg = preset_cfg.replace(delta1=delta, delta2=delta)
    stats = irsopt.build_statistics(cfg)
    solver_cfg = SolverConfig(iterations=300, samples_per_iter=10,
                              seed=child_seed(42, "design/proposed"))
    result = run(solver_cfg, stats, cfg)
    u1 = np.linalg.svd(stats.cascaded_los[0])[0][:, 0]
    aligned = PhaseShiftVector.from_phases(np.angle(u1))
    ub = irsopt.upper_bound_rate_closed_form(result.v, stats, cfg)
    ub_aligned = irsopt.upper_bound_rate_closed_form(aligned, stats, cfg)
    assert abs(ub - ub_aligned) <= 1e-4, (ub, ub_aligned)


def test_design_objective_variants(preset_cfg, preset_stats):
    robust = DesignObjective.from_scenario(preset_stats, preset_cfg, robust=True)
    naive = DesignObjective.from_scenario(preset_stats, preset_cfg, robust=False)
    assert naive.err_const == 0.0
    assert naive.g_var > robust.g_var
    assert naive.h_var > robust.h_var
    no_intf = DesignObjective.from_scenario(preset_stats, preset_cfg,
                                            include_interference=False)
    with_intf = DesignObjective.from_scenario(preset_stats, preset_cfg)
    assert no_intf.denom_quad.shape == with_intf.denom_quad.shape
    assert not np.any(no_intf.denom_quad)
    assert no_intf.denom_const == preset_cfg.noise_watt
    assert with_intf.denom_const > no_intf.denom_const


# ---------------------------------------------------------------------------
# oracle: the dense-B, per-draw coefficient step the batched kernel replaced
# ---------------------------------------------------------------------------

def _dense_reference_run(solver_cfg, stats, cfg, design):
    """SSCA with the dense Mr x Mr interference matrix, written out from
    the sampled mean pair (mean ||e||^2, mean g_hat e) on the solver's
    streams, drawn one iteration at a time where the solver draws blocks."""
    mr = stats.irs_size
    dense = np.zeros((mr, mr), dtype=complex)
    if np.any(design.denom_quad):           # the design keeps the interference terms
        for k in range(1, stats.n_bs):
            glos = stats.cascaded_los[k]
            dense += cfg.powers_watt[k] / stats.bs_sizes[k] * (glos @ glos.conj().T)
    v, c0, c1, tau, c0s = np.ones(mr, dtype=complex), 0.0, 0.0, None, []
    streams = dict(zip(("design/g", "design/h"),
                       named_child(solver_cfg.seed, "solver").spawn(2)))
    n = solver_cfg.samples_per_iter
    for t in range(1, solver_cfg.iterations + 1):
        power, ge = design.sample(sample_draws(design, streams, n), v, n)
        num = design.p0 * (power + design.err_const)
        den = np.real(v.conj() @ dense @ v) + design.denom_const
        rho = stepsize(t, solver_cfg.rho_exponent)
        c0 = rho * num / den + (1 - rho) * c0
        c1 = rho * (design.p0 * ge * den - num * (dense @ v)) / den ** 2 + (1 - rho) * c1
        tau = 1e-2 * np.mean(np.abs(c1)) if tau is None else tau
        omega = stepsize(t, solver_cfg.omega_exponent)
        v = (1 - omega) * v + omega * (tau * v + c1) / np.abs(tau * v + c1)
        c0s.append(c0)
    return v, np.array(c0s)


@pytest.mark.parametrize("side", [8, 16])
@pytest.mark.parametrize("name", ["proposed", "robust-no-intf", "nonrobust-with-intf"])
def test_run_matches_dense_per_draw_reference(preset_cfg, side, name):
    cfg = preset_cfg.replace(irs_grid=(side, side))
    stats = irsopt.build_statistics(cfg)
    spec = irsopt.scheme(name)
    design = DesignObjective.from_scenario(stats, cfg, robust=spec.robust,
                                           include_interference=spec.use_interference)
    solver_cfg = SolverConfig(iterations=200, samples_per_iter=10, seed=41)
    result = run(solver_cfg, stats, cfg, design=design)
    v_ref, c0_ref = _dense_reference_run(solver_cfg, stats, cfg, design)
    assert np.linalg.norm(result.state.v - v_ref) <= 1e-10 * np.linalg.norm(v_ref)
    assert np.max(np.abs(np.array(result.trace.c0) / c0_ref - 1.0)) <= 1e-10


# ---------------------------------------------------------------------------
# edge regimes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("regime", ["no-bs-irs-los", "single-bs", "irs-1x1",
                                    "one-bs-antenna", "delta-1", "k-inf-delta-0"])
def test_run_edge_regimes(preset_cfg, regime):
    cfg = edge_scenario(preset_cfg, regime)
    stats = irsopt.build_statistics(cfg)
    solver_cfg = SolverConfig(iterations=30, samples_per_iter=4, seed=17)
    for robust, include_interference in ((True, True), (False, True), (True, False)):
        design = DesignObjective.from_scenario(stats, cfg, robust=robust,
                                               include_interference=include_interference)
        # one column per interferer, zero without a BS-IRS LoS or when the
        # design ignores interference
        assert design.denom_quad.shape == (stats.irs_size, stats.n_bs - 1)
        assert np.any(design.denom_quad) == (
            include_interference and regime not in ("no-bs-irs-los", "single-bs"))
        result = run(solver_cfg, stats, cfg, design=design)
        c0 = np.array(result.trace.c0)
        assert c0.shape == (30,) and np.all(np.isfinite(c0)) and np.all(c0 > 0)
        assert np.max(np.abs(np.abs(result.v.v) - 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# lockstep stacks: a row is its own stack of one
# ---------------------------------------------------------------------------

# (robust, include_interference) of the stacked designs: a design with F
# beside designs without it
MIXED_FLAGS = ((True, True), (True, False), (False, True), (False, False))


def _assert_rows_equal_runs_alone(results, solvers, stats, cfg, designs):
    for solver, design, got in zip(solvers, designs, results):
        alone = run(solver, stats, cfg, design=design)
        assert np.array_equal(got.state.v, alone.state.v)
        assert np.array_equal(got.state.c1, alone.state.c1)
        assert np.array_equal(got.v.v, alone.v.v)
        assert got.trace.c0 == alone.trace.c0 and got.trace.gap == alone.trace.gap
        assert got.tau_reg == alone.tau_reg


@pytest.mark.parametrize("regime", EDGE_REGIMES)
def test_stacked_rows_equal_their_stacks_of_one(preset_cfg, regime):
    cfg = edge_scenario(preset_cfg, regime)
    stats = irsopt.build_statistics(cfg)
    designs = [DesignObjective.from_scenario(stats, cfg, robust=robust,
                                             include_interference=intf)
               for robust, intf in MIXED_FLAGS]
    solvers = [SolverConfig(iterations=25, samples_per_iter=3, seed=seed)
               for seed in (5, 6, 7, 8)]
    _assert_rows_equal_runs_alone(run_stack(solvers, stats, cfg, designs),
                                  solvers, stats, cfg, designs)


def test_stacked_steps_equal_their_rows(preset_cfg):
    # each step on a stack equals the step on each row alone: a row at v = 0
    # (its q term drops), and a row whose surrogate direction dies (it keeps
    # v's phase) beside rows that do neither
    cfg = edge_scenario(preset_cfg, "v0-zero")
    stats = irsopt.build_statistics(cfg)
    rows = [DesignObjective.from_scenario(stats, cfg, robust=robust, include_interference=intf)
            for robust, intf in MIXED_FLAGS]
    design = DesignObjective.stack(rows)
    rng = np.random.default_rng(41)
    v = np.stack([random_relaxed(rng, stats.irs_size) for _ in rows])
    v[0] = 0.0
    streams = named_children(43, ["design/g", "design/h"])
    draws = [sample_draws(rows[0], streams, 4) for _ in rows]
    stacked = tuple(np.stack(part) for part in zip(*draws))
    power, ge = design.sample(stacked, v, 4)
    c0, c1 = update_coefficients(v, np.ones(4), v, power, ge, 0.5, design)
    tau = ssca._auto_tau(c1)
    c1[1, :2] = -tau[1] * v[1, :2]                  # dead directions on row 1
    u = solve_surrogate(v, c1, tau)
    for i, row in enumerate(rows):
        alone = DesignObjective.stack([row])
        power_i, ge_i = alone.sample(tuple(part[None] for part in draws[i]), v[i:i + 1], 4)
        c0_i, c1_i = update_coefficients(v[i:i + 1], np.ones(1), v[i:i + 1], power_i, ge_i,
                                         0.5, alone)
        assert power_i[0] == power[i] and np.array_equal(ge_i[0], ge[i])
        assert c0_i[0] == c0[i] and np.array_equal(ssca._auto_tau(c1_i)[0], tau[i])
        assert np.array_equal(solve_surrogate(v[i:i + 1], c1[i:i + 1], tau[i:i + 1])[0], u[i])
    np.testing.assert_allclose(u[1, :2], v[1, :2] / np.abs(v[1, :2]), rtol=1e-15)


def test_run_stack_needs_settings_that_differ_only_in_the_seed(small_cfg, small_stats):
    solvers = [SolverConfig(iterations=5, seed=1), SolverConfig(iterations=6, seed=2)]
    with pytest.raises(ValueError, match="differ only in the seed"):
        run_stack(solvers, small_stats, small_cfg, [None, None])
    with pytest.raises(ValueError, match="one design per solver setting"):
        run_stack(solvers[:1], small_stats, small_cfg, [None, None])


@settings(max_examples=8, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 4))
def test_stacked_iterates_stay_relaxed_and_equal_their_rows(seed, rows):
    rng = np.random.default_rng(seed)
    cfg = random_scenario(rng)
    stats = irsopt.build_statistics(cfg)
    designs = [DesignObjective.from_scenario(stats, cfg, robust=bool(rng.integers(2)),
                                             include_interference=bool(rng.integers(2)))
               for _ in range(rows)]
    solvers = [SolverConfig(iterations=12, samples_per_iter=3, seed=int(rng.integers(2 ** 31)))
               for _ in range(rows)]
    results = run_stack(solvers, stats, cfg, designs, audit=True)
    for result in results:
        for entry in result.trace.audit + [{"v_prev": result.state.v}]:
            assert np.all(np.isfinite(entry["v_prev"]))
            assert np.max(np.abs(entry["v_prev"])) <= 1.0 + 1e-12
    _assert_rows_equal_runs_alone(results, solvers, stats, cfg, designs)


def test_run_heap_stays_under_a_mebibyte_at_mr_1024(preset_cfg):
    # the block draws are capped in bytes, not in iterations, so a large IRS
    # takes short blocks
    cfg = preset_cfg.replace(irs_grid=(32, 32))
    stats = irsopt.build_statistics(cfg)
    design = DesignObjective.from_scenario(stats, cfg)
    tracemalloc.start()
    try:
        run(SolverConfig(iterations=30, seed=3), stats, cfg, design=design)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20, peak


def test_design_objective_holds_no_dense_interference_matrix(preset_cfg):
    cfg = preset_cfg.replace(irs_grid=(64, 64))
    stats = irsopt.build_statistics(cfg)
    design = DesignObjective.from_scenario(stats, cfg)
    mr = stats.irs_size
    assert design.denom_quad.shape == (mr, stats.n_bs - 1)
    sizes = [value.size for value in vars(design).values() if isinstance(value, np.ndarray)]
    assert sizes and max(sizes) < mr * mr


# ---------------------------------------------------------------------------
# exact-law n-draw means of (||e||^2, g_hat e) against the full-matrix
# reference law
# ---------------------------------------------------------------------------

def _mean_draws(design, v, n, reps, seed, full, chunk=200):
    """reps independent n-draw means at v: mean ||e||^2 (reps,) and mean
    g_hat e (reps, Mr), from `DesignObjective.sample` or, with full=True,
    from n reference draws each."""
    streams = named_children(seed, ["design/g", "design/h"])
    if not full:
        pairs = [design.sample(sample_draws(design, streams, n), v, n) for _ in range(reps)]
        return np.array([power for power, _ in pairs]), np.stack([ge for _, ge in pairs])
    powers, ges = [], []
    for start in range(0, reps, chunk):
        m = min(chunk, reps - start)
        e, ge = combine_draws(v, *full_matrix_sample(design, streams, m * n))
        powers.append(np.mean(np.sum(np.abs(e) ** 2, axis=1).reshape(m, n), axis=1))
        ges.append(np.mean(ge.reshape(m, n, -1), axis=1))
    return np.concatenate(powers), np.concatenate(ges)


def _mean_t(a, b, scale=None):
    """Two-sample t statistics of the per-coordinate means (real and
    imaginary parts separately).  The standard error is floored at 1e-12
    times `scale` (default: the largest magnitude), so a deterministic law
    is compared up to rounding."""
    def parts(x):
        x = np.asarray(x).reshape(x.shape[0], -1)
        return np.concatenate([x.real, x.imag], axis=1) if np.iscomplexobj(x) else x
    a, b = parts(a), parts(b)
    se = np.sqrt(np.var(a, axis=0, ddof=1) / a.shape[0] + np.var(b, axis=0, ddof=1) / b.shape[0])
    if scale is None:
        scale = max(np.max(np.abs(a)), np.max(np.abs(b)))
    se = np.maximum(se, 1e-12 * scale)
    return (np.mean(a, axis=0) - np.mean(b, axis=0)) / np.where(se > 0, se, np.inf)


def _assert_mean_law(design, v, seed, sizes=((1, 5000), (10, 1000))):
    """For each (n, reps): reps n-draw means from `sample` against as many
    means of n reference draws.  Both match the closed-form first moments,
    and they agree, by two-sample t statistics within 4, on the means and
    on the centered second moments var P, E||ge - E ge||^2 and
    E|v^H (ge - E ge)|^2, where P is the mean ||e||^2 and ge the mean
    g_hat e.  Returns the per-rep columns of the last size."""
    m0 = design.g_mean.shape[1]
    mean_e = design.g_mean.conj().T @ v + design.h_mean
    mean_power = (np.linalg.norm(mean_e) ** 2
                  + m0 * (design.g_var * np.linalg.norm(v) ** 2 + design.h_var))
    mean_ge = design.g_mean @ mean_e + m0 * design.g_var * v
    # the closed-form pair is what `expected` scores
    value, ascent = design.expected(v)
    c0, c1 = update_coefficients(v, 0.0, np.zeros_like(v), mean_power, mean_ge, 1.0, design)
    assert c0 == pytest.approx(value, rel=1e-12)
    np.testing.assert_allclose(c1, ascent, rtol=1e-12, atol=1e-12 * np.max(np.abs(ascent)))
    for n, reps in sizes:
        columns = []
        for full in (False, True):
            power, ge = _mean_draws(design, v, n, reps, seed + full, full)
            assert np.all(np.isfinite(power)) and np.all(np.isfinite(ge))
            assert np.max(np.abs(_mean_t(power, np.full(reps, mean_power)))) <= 4, (n, full)
            assert np.max(np.abs(_mean_t(ge, np.tile(mean_ge, (reps, 1))))) <= 4, (n, full)
            dev = ge - mean_ge
            columns.append((power, ge, (power - mean_power) ** 2,
                            np.sum(np.abs(dev) ** 2, axis=1), np.abs(dev @ v.conj()) ** 2))
        # rounding scales of the five columns, for a deterministic law
        ge_sq = np.linalg.norm(mean_ge) ** 2
        scales = (None, None, mean_power ** 2, ge_sq, ge_sq * np.linalg.norm(v) ** 2)
        for name, got, want, scale in zip(("P", "ge", "var P", "E||dev||^2", "E|v^H dev|^2"),
                                          *columns, scales):
            assert np.max(np.abs(_mean_t(got, want, scale))) <= 4, (name, n)
    return columns


@pytest.mark.parametrize("delta", [0.3, 0.6])
def test_sample_law_matches_full_matrix_reference(preset_cfg, delta):
    # a weak direct link, so the cascaded terms carry the law: on the preset
    # itself sigma_h^2 is 1e4 times sigma_g^2 ||v||^2 and ||G^H v||^2 / M0
    cfg = preset_cfg.replace(delta1=delta, delta2=delta, exp_direct=6.0)
    stats = irsopt.build_statistics(cfg)
    design = DesignObjective.from_scenario(stats, cfg)
    _assert_mean_law(design, random_relaxed(np.random.default_rng(23), stats.irs_size), 501)


@pytest.mark.parametrize("regime", ["v0-zero", "delta-1", "k-inf-delta-0", "irs-1x1",
                                    "one-bs-antenna"])
def test_sample_edge_regimes_match_reference_moments(preset_cfg, regime):
    cfg = edge_scenario(preset_cfg, regime)
    stats = irsopt.build_statistics(cfg)
    design = DesignObjective.from_scenario(stats, cfg)
    mr = design.irs_size
    v = (np.zeros(mr, dtype=complex) if regime == "v0-zero"
         else random_relaxed(np.random.default_rng(29), mr))
    new, ref = _assert_mean_law(design, v, 601)
    if regime == "v0-zero":         # no component along v = 0
        assert np.all(new[4] == 0.0) and np.all(ref[4] == 0.0)
    assert (design.g_var == 0.0) == (regime in ("delta-1", "k-inf-delta-0"))
    if design.g_var == 0.0:
        # the estimate is its mean, so given the direct-link draws the mean
        # pair is exact: it equals the reference's on the same design/h stream
        def streams():
            return named_children(603, ["design/g", "design/h"])
        power, ge = design.sample(sample_draws(design, streams(), 10), v, 10)
        e, ref_ge = combine_draws(v, *full_matrix_sample(design, streams(), 10))
        assert power == pytest.approx(np.mean(np.sum(np.abs(e) ** 2, axis=1)), rel=1e-12)
        np.testing.assert_allclose(ge, np.mean(ref_ge, axis=0), rtol=1e-12, atol=0)


@pytest.mark.parametrize("side", [8, 32])
def test_run_draws_mr_plus_two_l_m0_values_per_iteration(preset_cfg, monkeypatch, side):
    # the structural cost of an iteration: no (L, Mr, M0) or (L, Mr) draw,
    # only one Mr-vector and two (L, M0) blocks of complex Gaussian values
    cfg = preset_cfg.replace(irs_grid=(side, side))
    stats = irsopt.build_statistics(cfg)
    shapes = []
    blocks = ssca.crandn_blocks

    def counting(rngs, block_shapes, steps, block):
        for draws in blocks(rngs, block_shapes, steps, block):
            shapes.extend(draw.shape[1:] for draw in draws)
            yield draws

    monkeypatch.setattr(ssca, "crandn_blocks", counting)
    iterations, L = 3, 10
    run(SolverConfig(iterations=iterations, samples_per_iter=L, seed=8), stats, cfg)
    mr, m0 = stats.irs_size, stats.bs_sizes[0]
    assert shapes == [(L, m0), (mr,), (L, m0)] * iterations
    assert sum(math.prod(shape) for shape in shapes) == iterations * (mr + 2 * L * m0)


@pytest.mark.parametrize("side", [1, 8])
@pytest.mark.parametrize("delta", [1e-6, 0.3, 0.6, 1.0])
def test_expected_value_is_the_closed_form_upper_bound(preset_cfg, side, delta):
    # the formula written out per term, for unit-modulus v (||v||^2 = Mr):
    # p0 (||G^H v||^2 + M0 (Mr sigma_g^2 + sigma_h^2) + delta2^2 + Mr delta1^2)
    # over sum_k p_k gk + sigma^2
    cfg = preset_cfg.replace(irs_grid=(side, side), delta1=delta, delta2=delta)
    stats = irsopt.build_statistics(cfg)
    design = DesignObjective.from_scenario(stats, cfg)
    mr, m0 = stats.irs_size, stats.bs_sizes[0]
    rng = np.random.default_rng(31)
    for _ in range(3):
        v = PhaseShiftVector.from_phases(rng.uniform(0, 2 * math.pi, mr))
        num = cfg.powers_watt[0] * (
            np.linalg.norm(stats.cascaded_los[0].conj().T @ v.v) ** 2
            + m0 * (mr * stats.estimate_g_var + stats.estimate_h_var)
            + stats.delta2_abs ** 2 + mr * stats.delta1_abs ** 2)
        den = cfg.noise_watt + sum(cfg.powers_watt[k] * gk(v, stats, k)
                                   for k in range(1, stats.n_bs))
        value, ascent = design.expected(v.v)
        assert ascent.shape == (mr,)
        assert value == pytest.approx(num / den, rel=1e-12)
        ub = irsopt.upper_bound_rate_closed_form(v, stats, cfg)
        assert ub == pytest.approx(math.log2(1.0 + num / den), rel=1e-12)
