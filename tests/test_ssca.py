import math

import numpy as np
import pytest

import irsopt
from irsopt import ssca
from irsopt.channel import CsiSample
from irsopt.rate import PhaseShiftVector, gk
from irsopt.ssca import (
    DesignObjective,
    SolverConfig,
    SscaState,
    advance_iterate,
    project_unit_modulus,
    run,
    solve_surrogate,
    stepsize_omega,
    stepsize_rho,
    surrogate_value,
    update_coefficients,
)
from irsopt.streams import named_child, named_children

from conftest import combine_draws, full_matrix_sample, random_relaxed


# ---------------------------------------------------------------------------
# stepsizes
# ---------------------------------------------------------------------------

def test_stepsize_values():
    assert stepsize_rho(1, 0.6) == 1.0
    assert stepsize_omega(1, 0.9) == 1.0
    # log-domain cross-check
    assert np.isclose(stepsize_omega(1024, 0.9), math.exp(-0.9 * math.log(1024)),
                      rtol=1e-12)
    assert np.isclose(stepsize_omega(1024, 0.9), 1.95e-3, rtol=5e-3)


def test_stepsize_ratio_vanishes():
    a, b = 0.6, 0.9
    ratios = [stepsize_omega(t, b) / stepsize_rho(t, a) for t in (1, 10, 100, 1000)]
    assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))
    assert np.isclose(ratios[-1], 1000.0 ** (a - b), rtol=1e-12)


def test_stepsize_requires_t_ge_1():
    with pytest.raises(ValueError):
        stepsize_rho(0, 0.6)


def test_solver_config_validation():
    with pytest.raises(ValueError, match="rho exponent"):
        SolverConfig(rho_exponent=0.5)          # sum rho^2 would diverge
    with pytest.raises(ValueError, match="omega exponent"):
        SolverConfig(rho_exponent=0.6, omega_exponent=0.6)
    with pytest.raises(ValueError, match="omega exponent"):
        SolverConfig(rho_exponent=0.6, omega_exponent=1.1)
    with pytest.raises(ValueError, match="tau_reg"):
        SolverConfig(tau_reg=0.0)
    with pytest.raises(ValueError):
        SolverConfig(iterations=0)
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
    """Reference full draws (g (L, Mr, M0), h (L, M0)) and their (e, g e) at v."""
    g, h = full_matrix_sample(design, named_children(seed, ["design/g", "design/h"]), n)
    return g, h, *combine_draws(v, g, h)


def _per_draw(design, g, h):
    """Single-draw views of the stacked draws (g (L, Mr, M0), h (L, M0))."""
    return [design.ratio(CsiSample(g_hat=g[i], h_hat=h[i])) for i in range(g.shape[0])]


def test_update_coefficients_first_iteration_erases_history():
    rng = np.random.default_rng(0)
    design = _toy_design(rng)
    state = SscaState.initial(np.ones(2, dtype=complex))
    g, h, e, ge = _full_draws(design, 5, 6, state.v)
    assert e.shape == (6, 2) and ge.shape == (6, 2)
    state = update_coefficients(state, e, ge, rho=1.0, design=design)
    ratios = _per_draw(design, g, h)
    vals = [r.value(state.v) for r in ratios]
    assert np.isclose(state.c0, np.mean(vals), rtol=1e-12)
    grads = np.mean([r.ascent(np.ones(2, dtype=complex)) for r in ratios], axis=0)
    np.testing.assert_allclose(state.c1, grads, rtol=1e-12)


def test_update_coefficients_single_sample():
    rng = np.random.default_rng(1)
    design = _toy_design(rng)
    state = SscaState.initial(np.ones(2, dtype=complex))
    g, h, e, ge = _full_draws(design, 6, 1, state.v)
    state = update_coefficients(state, e, ge, rho=1.0, design=design)
    assert np.isclose(state.c0, _per_draw(design, g, h)[0].value(np.ones(2)), rtol=1e-12)


def test_update_coefficients_blend():
    rng = np.random.default_rng(2)
    design = _toy_design(rng)
    prev = SscaState(t=4, v=np.full(2, 0.5 + 0.0j), c0=1.5,
                     c1=np.array([0.2 + 0.1j, -0.3j]))
    g, h, e, ge = _full_draws(design, 7, 3, prev.v)
    rho = 0.25
    new = update_coefficients(prev, e, ge, rho=rho, design=design)
    ratios = _per_draw(design, g, h)
    vals = np.mean([r.value(prev.v) for r in ratios])
    grads = np.mean([r.ascent(prev.v) for r in ratios], axis=0)
    assert np.isclose(new.c0, rho * vals + (1 - rho) * 1.5, rtol=1e-12)
    np.testing.assert_allclose(new.c1, rho * grads + (1 - rho) * prev.c1, rtol=1e-12)


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
    state = SscaState.initial(v0)
    state = update_coefficients(state, *design.sample(streams, v0, L), rho=1.0,
                                design=design)
    for n in range(2):
        assert abs(state.c1[n] - oracle_mean[n]) < 4 * oracle_sd[n] / math.sqrt(L)


# ---------------------------------------------------------------------------
# surrogate maximization
# ---------------------------------------------------------------------------

def test_solve_surrogate_aligned_fixed_point():
    state = SscaState(t=1, v=np.array([1.0 + 0.0j]), c0=0.0,
                      c1=np.array([0.0 + 0.0j]))
    out = solve_surrogate(state, tau_reg=1.0)
    np.testing.assert_allclose(out, [1.0 + 0.0j], rtol=1e-15)


def test_solve_surrogate_normalizes_direction():
    state = SscaState(t=1, v=np.array([1.0 + 0.0j]), c0=0.0,
                      c1=np.array([0.5j]))
    out = solve_surrogate(state, tau_reg=0.5)
    np.testing.assert_allclose(out, [(1 + 1j) / math.sqrt(2)], rtol=1e-12)


def test_solve_surrogate_zero_direction_tiebreak():
    # tau*v + c1 = 0 on the first coordinate; second coordinate is zero too
    state = SscaState(t=1, v=np.array([0.5 + 0.0j, 0.0j]), c0=0.0,
                      c1=np.array([-0.5 + 0.0j, 0.0j]))
    out = solve_surrogate(state, tau_reg=1.0)
    np.testing.assert_allclose(out[0], 1.0 + 0.0j, rtol=1e-12)   # keeps v's phase
    np.testing.assert_allclose(out[1], 1.0 + 0.0j, rtol=1e-12)   # falls back to 1
    assert np.all(np.abs(np.abs(out) - 1.0) < 1e-12)


def test_solve_surrogate_requires_positive_tau():
    state = SscaState.initial(np.ones(2, dtype=complex))
    with pytest.raises(ValueError):
        solve_surrogate(state, tau_reg=0.0)


def test_surrogate_maximizer_beats_random_points():
    rng = np.random.default_rng(4)
    for trial in range(5):
        mr = 4
        state = SscaState(
            t=1, v=random_relaxed(rng, mr), c0=rng.normal(),
            c1=0.05 * (rng.standard_normal(mr) + 1j * rng.standard_normal(mr)))
        tau = 1e-3
        v_bar = solve_surrogate(state, tau)
        best = surrogate_value(v_bar, state, tau)
        for _ in range(200):
            u = rng.uniform(0, 1, mr) * np.exp(1j * rng.uniform(0, 2 * math.pi, mr))
            assert surrogate_value(u, state, tau) <= best + 1e-12


def test_advance_iterate():
    state = SscaState(t=1, v=np.array([0.5 + 0.0j, 1.0j]), c0=0.0,
                      c1=np.zeros(2, dtype=complex))
    v_bar = np.array([1.0 + 0.0j, 1.0 + 0.0j])
    out = advance_iterate(state, v_bar, omega=1.0)
    np.testing.assert_array_equal(out.v, v_bar)
    out = advance_iterate(state, v_bar, omega=0.25)
    np.testing.assert_allclose(out.v, 0.75 * state.v + 0.25 * v_bar, rtol=1e-15)
    assert np.all(np.abs(out.v) <= 1.0 + 1e-12)
    with pytest.raises(ValueError):
        advance_iterate(state, v_bar, omega=0.0)


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
def test_nan_iterate_rejected(small_cfg, small_stats, where):
    v0 = np.ones(small_stats.irs_size, dtype=complex)
    v0[0] = math.nan
    with pytest.raises(ValueError, match="relaxed set"):
        if where == "state":
            SscaState.initial(v0)
        else:
            run(SolverConfig(iterations=2, samples_per_iter=2, seed=1), small_stats,
                small_cfg, v0=v0)


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


def test_run_early_stop_on_gap(small_cfg, small_stats):
    # deterministic design -> gap shrinks; generous tolerance stops the run early
    design = DesignObjective(
        p0=1.0, g_mean=small_stats.cascaded_los[0], g_var=0.0,
        h_mean=np.zeros(small_stats.bs_sizes[0], dtype=complex), h_var=0.0,
        err_const=0.0, denom_quad=None, denom_const=small_cfg.noise_watt)
    cfg = SolverConfig(iterations=500, samples_per_iter=1, seed=2, tolerance=1e-2,
                       rho_exponent=0.51, omega_exponent=0.52)
    result = run(cfg, small_stats, small_cfg, design=design)
    assert result.state.t < 500
    assert result.trace.gap[-1] < 1e-2


def test_run_custom_initial_point(small_cfg, small_stats):
    rng = np.random.default_rng(9)
    v0 = random_relaxed(rng, small_stats.irs_size)
    cfg = SolverConfig(iterations=5, samples_per_iter=2, seed=3)
    result = run(cfg, small_stats, small_cfg, v0=v0)
    assert result.state.t == 5


def test_design_objective_variants(preset_cfg, preset_stats):
    robust = DesignObjective.from_scenario(preset_stats, preset_cfg, robust=True)
    naive = DesignObjective.from_scenario(preset_stats, preset_cfg, robust=False)
    assert naive.err_const == 0.0
    assert naive.g_var > robust.g_var
    assert naive.h_var > robust.h_var
    no_intf = DesignObjective.from_scenario(preset_stats, preset_cfg,
                                            include_interference=False)
    assert no_intf.denom_quad is None
    assert no_intf.denom_const == preset_cfg.noise_watt
    with_intf = DesignObjective.from_scenario(preset_stats, preset_cfg)
    assert with_intf.denom_const > no_intf.denom_const


# ---------------------------------------------------------------------------
# oracle: the dense-B, per-draw coefficient step the batched kernel replaced
# ---------------------------------------------------------------------------

def _dense_reference_run(solver_cfg, stats, cfg, design):
    """SSCA with the dense Mr x Mr interference matrix and one ratio per
    (e, g_hat e) draw, on the solver's streams."""
    mr = stats.irs_size
    dense = np.zeros((mr, mr), dtype=complex)
    if design.denom_quad is not None:       # the design keeps the interference terms
        for k in range(1, stats.n_bs):
            glos = stats.cascaded_los[k]
            dense += cfg.powers_watt[k] / stats.bs_sizes[k] * (glos @ glos.conj().T)
    v, c0, c1, tau, c0s = np.ones(mr, dtype=complex), 0.0, 0.0, solver_cfg.tau_reg, []
    streams = dict(zip(("design/g", "design/h"),
                       named_child(solver_cfg.seed, "solver").spawn(2)))
    for t in range(1, solver_cfg.iterations + 1):
        vals, grads = [], np.zeros(mr, dtype=complex)
        for e, ge in zip(*design.sample(streams, v, solver_cfg.samples_per_iter)):
            num = design.p0 * (np.real(np.vdot(e, e)) + design.err_const)
            den = np.real(v.conj() @ dense @ v) + design.denom_const
            vals.append(num / den)
            grads += (design.p0 * ge * den - num * (dense @ v)) / den ** 2
        rho = stepsize_rho(t, solver_cfg.rho_exponent)
        c0 = rho * np.mean(vals) + (1 - rho) * c0
        c1 = rho * grads / len(vals) + (1 - rho) * c1
        tau = 1e-2 * np.mean(np.abs(c1)) if tau is None else tau
        omega = stepsize_omega(t, solver_cfg.omega_exponent)
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

def _single_bs(cfg):
    return cfg.replace(
        bs_positions=cfg.bs_positions[:1], bs_grids=cfg.bs_grids[:1],
        powers_dbm=cfg.powers_dbm[:1], rician_bs_irs=cfg.rician_bs_irs[:1],
        angles_bs_irs=cfg.angles_bs_irs[:1], name="single-bs")


def _edge_cfg(preset_cfg, regime):
    base = preset_cfg.replace(irs_grid=(4, 4), delta1=0.3, delta2=0.3)
    return {
        "no-bs-irs-los": base.replace(rician_bs_irs=(0.0, 0.0, 0.0)),
        "single-bs": _single_bs(base),
        "irs-1x1": base.replace(irs_grid=(1, 1)),
        "one-bs-antenna": base.replace(bs_grids=((1, 1),) * 3),
        "v0-zero": base,
        "delta-1": base.replace(delta1=1.0, delta2=1.0),        # sigma_g = sigma_h = 0
        "k-inf-delta-0": base.replace(rician_bs_irs=(math.inf, 3.0, 3.0),
                                      rician_irs_user=math.inf,
                                      delta1=0.0, delta2=0.0),      # sigma_g = 0
    }[regime]


@pytest.mark.parametrize("regime", ["no-bs-irs-los", "single-bs", "irs-1x1",
                                    "one-bs-antenna", "v0-zero", "delta-1",
                                    "k-inf-delta-0"])
def test_run_edge_regimes(preset_cfg, regime):
    cfg = _edge_cfg(preset_cfg, regime)
    stats = irsopt.build_statistics(cfg)
    v0 = np.zeros(stats.irs_size, dtype=complex) if regime == "v0-zero" else None
    solver_cfg = SolverConfig(iterations=30, samples_per_iter=4, seed=17)
    for robust, include_interference in ((True, True), (False, True), (True, False)):
        design = DesignObjective.from_scenario(stats, cfg, robust=robust,
                                               include_interference=include_interference)
        if regime in ("no-bs-irs-los", "single-bs") or not include_interference:
            assert design.denom_quad is None
        else:
            assert design.denom_quad.shape == (stats.irs_size, sum(stats.bs_sizes[1:]))
        result = run(solver_cfg, stats, cfg, design=design, v0=v0)
        c0 = np.array(result.trace.c0)
        assert c0.shape == (30,) and np.all(np.isfinite(c0)) and np.all(c0 > 0)
        assert np.max(np.abs(np.abs(result.v.v) - 1.0)) < 1e-12


def test_design_objective_holds_no_dense_interference_matrix(preset_cfg):
    cfg = preset_cfg.replace(irs_grid=(64, 64))
    stats = irsopt.build_statistics(cfg)
    design = DesignObjective.from_scenario(stats, cfg)
    mr = stats.irs_size
    assert design.denom_quad.shape == (mr, sum(stats.bs_sizes[1:]))
    sizes = [value.size for value in vars(design).values() if isinstance(value, np.ndarray)]
    assert sizes and max(sizes) < mr * mr


# ---------------------------------------------------------------------------
# exact-law draws of (e, g_hat e) against the full-matrix reference law
# ---------------------------------------------------------------------------

def _draw_stats(design, v, n, seed, full, chunk=1000):
    """values (n,), ascents (n, Mr) and the second moments ||e||^2,
    ||g_hat e||^2 and |v^H g_hat e|^2 (n,) of n draws at v, from
    `DesignObjective.sample` or, with full=True, from the reference law."""
    streams = named_children(seed, ["design/g", "design/h"])
    parts = []
    for start in range(0, n, chunk):
        m = min(chunk, n - start)
        if full:
            e, ge = combine_draws(v, *full_matrix_sample(design, streams, m))
        else:
            e, ge = design.sample(streams, v, m)
        values, ascents = design.evaluate(v, e, ge)
        parts.append((values, ascents, np.sum(np.abs(e) ** 2, axis=1),
                      np.sum(np.abs(ge) ** 2, axis=1), np.abs(ge @ v.conj()) ** 2))
    return [np.concatenate(column) for column in zip(*parts)]


def _mean_t(a, b):
    """Two-sample t statistics of the per-coordinate means (real and
    imaginary parts separately)."""
    def parts(x):
        x = np.asarray(x).reshape(x.shape[0], -1)
        return np.concatenate([x.real, x.imag], axis=1) if np.iscomplexobj(x) else x
    a, b = parts(a), parts(b)
    se = np.sqrt(np.var(a, axis=0, ddof=1) / a.shape[0] + np.var(b, axis=0, ddof=1) / b.shape[0])
    return (np.mean(a, axis=0) - np.mean(b, axis=0)) / np.where(se > 0, se, np.inf)


@pytest.mark.parametrize("delta", [0.3, 0.6])
def test_sample_law_matches_full_matrix_reference(preset_cfg, delta):
    cfg = preset_cfg.replace(delta1=delta, delta2=delta)
    stats = irsopt.build_statistics(cfg)
    design = DesignObjective.from_scenario(stats, cfg)
    v = random_relaxed(np.random.default_rng(23), stats.irs_size)
    n = 20_000
    new = _draw_stats(design, v, n, 501, full=False)
    ref = _draw_stats(design, v, n, 502, full=True)
    # first moments: the two laws agree and both match the closed form
    value, ascent = design.expected(v)
    for got in (new, ref):
        assert np.max(np.abs(_mean_t(got[0], np.full(n, value)))) <= 4
        assert np.max(np.abs(_mean_t(got[1], np.tile(ascent, (n, 1))))) <= 4
    assert np.max(np.abs(_mean_t(new[0], ref[0]))) <= 4
    assert np.max(np.abs(_mean_t(new[1], ref[1]))) <= 4
    # second moments, including the component of g_hat e along v, which
    # per-coordinate moments barely see
    for got, want in zip(new[2:], ref[2:]):
        assert abs(np.mean(got) / np.mean(want) - 1.0) <= 0.05


@pytest.mark.parametrize("regime", ["v0-zero", "delta-1", "k-inf-delta-0", "irs-1x1",
                                    "one-bs-antenna"])
def test_sample_edge_regimes_match_reference_moments(preset_cfg, regime):
    cfg = _edge_cfg(preset_cfg, regime)
    stats = irsopt.build_statistics(cfg)
    design = DesignObjective.from_scenario(stats, cfg)
    mr, m0 = design.g_mean.shape
    v = (np.zeros(mr, dtype=complex) if regime == "v0-zero"
         else random_relaxed(np.random.default_rng(29), mr))
    n = 20_000
    new = _draw_stats(design, v, n, 601, full=False)
    ref = _draw_stats(design, v, n, 602, full=True)
    for column in new:
        assert np.all(np.isfinite(column))
    mean_e = design.g_mean.conj().T @ v + design.h_mean
    power = (np.linalg.norm(mean_e) ** 2
             + m0 * (design.g_var * np.linalg.norm(v) ** 2 + design.h_var))
    assert abs(np.mean(new[2]) / power - 1.0) <= 0.05
    if regime == "v0-zero":         # no component along v = 0
        assert np.all(new[4] == 0.0) and np.all(ref[4] == 0.0)
        new, ref = new[:4], ref[:4]
    for got, want in zip(new[2:], ref[2:]):
        assert abs(np.mean(got) / np.mean(want) - 1.0) <= 0.05
    assert (design.g_var == 0.0) == (regime in ("delta-1", "k-inf-delta-0"))
    if design.g_var == 0.0:         # the estimate is its mean: g_hat e = G e exactly
        e, ge = design.sample(named_children(603, ["design/g", "design/h"]), v, 50)
        np.testing.assert_allclose(ge, e @ design.g_mean.T, rtol=1e-12, atol=0)


@pytest.mark.parametrize("side", [8, 32])
def test_run_draws_mr_plus_two_m0_values_per_sample(preset_cfg, monkeypatch, side):
    # the structural cost of an iteration: no (L, Mr, M0) draw, only
    # L * (Mr + 2*M0) complex Gaussian values
    cfg = preset_cfg.replace(irs_grid=(side, side))
    stats = irsopt.build_statistics(cfg)
    shapes = []
    draw = ssca.crandn

    def counting(rng, shape, var):
        shapes.append(tuple(shape))
        return draw(rng, shape, var)

    monkeypatch.setattr(ssca, "crandn", counting)
    iterations, L = 3, 10
    run(SolverConfig(iterations=iterations, samples_per_iter=L, seed=8), stats, cfg)
    mr, m0 = stats.irs_size, stats.bs_sizes[0]
    assert all(len(shape) == 2 and shape[0] == L for shape in shapes)
    assert sum(math.prod(shape) for shape in shapes) == iterations * L * (mr + 2 * m0)


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
