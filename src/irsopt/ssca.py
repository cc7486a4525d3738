"""Stochastic successive convex approximation for the quasi-static phase
shifts.

Each iteration t draws L estimated-CSI samples, refreshes running averages
of the sampled objective value and its ascent gradient,

    c0 <- rho_t * mean_l gamma(v, sample_l) + (1 - rho_t) * c0
    c1 <- rho_t * mean_l conj(d gamma / d v)(v, sample_l) + (1 - rho_t) * c1

and maximizes the strongly concave separable surrogate

    f(u) = c0 + 2 Re{(u - v)^H c1} - tau * ||u - v||^2,   |u_n| <= 1,

whose per-coordinate maximizer on the active constraint is

    u_n = (tau * v_n + c1_n) / |tau * v_n + c1_n|.

The iterate then moves by a convex combination v <- (1-w_t) v + w_t u.
Stepsizes rho_t = t^-a and w_t = t^-b (`stepsize`) with 0.5 < a < b <= 1
satisfy the usual diminishing/summability conditions and w_t/rho_t -> 0.
Iterates live in the relaxed set |v_n| <= 1; the deployed configuration is
the unit-modulus projection of the final iterate.

`run_stack` runs S designs in lockstep as one (S, Mr) iterate and calls the
three steps once per iteration for the whole stack: `DesignObjective.sample`,
`update_coefficients` (v, c0, c1 -> c0, c1) and `solve_surrogate`
(v, c1 -> u); `run` is its stack of one.  The draws come a block of
iterations at a time; `SscaState` only records the final iterate.

`c1` stores the conjugate (ascent) form of the sampled gradient, which is
what makes the closed-form surrogate maximizer an ascent step; the plain
derivative convention of `UbQuadraticRatio.grad` is its conjugate.  The
objective gamma itself, with its sampling law, is `DesignObjective`.

A draw enters gamma only through ||e||^2 and g_hat e, with
e = g_hat^H v + h_hat, and gamma and its ascent are affine in the two at
fixed v, so the coefficient step reads only their L-draw means.
`DesignObjective.sample` draws those means from their exact law: Mr + 2*L*M0
Gaussian values and two Mr x M0 products with the LoS mean G per iteration,
where L full estimates would draw L*Mr*M0 values and spend L*Mr*M0 flops on
G.  An iteration costs O(Mr*(M0 + K) + L*M0) in all, K interferers.  The
expectation of gamma has a closed form (`DesignObjective.expected`); the
stochastic iteration is the paper's method, and the closed form its oracle.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Sequence

import numpy as np

from .channel import ChannelStatistics, CsiSample
from .config import ScenarioConfig
from .rate import (
    PhaseShiftVector,
    PhaseLike,
    _log2_1p,
    error_power_constant,
    interference_quadratic,
    phase_array,
)
from .streams import check_seed, crandn_blocks, named_child


def stepsize(t: int, exponent: float) -> float:
    """Stepsize t^-exponent at iteration t >= 1.  The coefficient average
    takes rho_t = t^-a and needs sum rho = inf and sum rho^2 < inf, hence
    a in (0.5, 1]; the iterate average takes omega_t = t^-b with b > a, so
    that omega/rho -> 0."""
    if t < 1:
        raise ValueError(f"iteration index must be >= 1, got {t}")
    return float(t) ** (-exponent)


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the stochastic solver.

    The solver starts at v = 1 and runs all T iterations.  The proximal
    weight tau is calibrated from the first iteration's gradient sample
    (1e-2 times its mean entry magnitude), so the proximal term stays
    comparable to the linear term across the wide dynamic range of channel
    gains; `SscaResult.tau_reg` reports it.
    """

    iterations: int = 500               # T
    samples_per_iter: int = 10          # L
    rho_exponent: float = 0.6           # a in (0.5, 1]
    omega_exponent: float = 0.9         # b in (a, 1]
    seed: int = 0
    probe_every: int = 0                # UB-rate probe period in the trace; 0 = off

    def __post_init__(self):
        if self.iterations < 1 or self.samples_per_iter < 1:
            raise ValueError("iterations and samples_per_iter must be >= 1")
        if self.probe_every < 0:
            raise ValueError(f"probe_every must be >= 0, got {self.probe_every}")
        a, b = self.rho_exponent, self.omega_exponent
        if not (0.5 < a <= 1.0):
            raise ValueError(f"rho exponent must lie in (0.5, 1], got {a}")
        if not (a < b <= 1.0):
            raise ValueError(f"omega exponent must lie in ({a}, 1], got {b}")
        check_seed(self.seed)


BLOCK_BYTES = 256 * 1024    # draw buffers per design: memory stays flat as Mr grows


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^H b over the last axis: one BLAS dot per row, whatever rows sit beside it."""
    return (np.conj(a)[..., None, :] @ b[..., None])[..., 0, 0]


def _check_relaxed(v: np.ndarray) -> None:
    if not (np.abs(v).max() <= 1.0 + 1e-12):  # rejects NaN too
        raise ValueError("iterate leaves the relaxed set |v_n| <= 1")


@dataclass(frozen=True)
class SscaState:
    """Record of the solver after iteration t: the iterate and the running
    averages that `run` keeps in local variables (`SscaResult.state`, and
    the point `surrogate_value` expands around)."""

    t: int
    v: np.ndarray               # relaxed iterate, |v_n| <= 1
    c0: float                   # running objective average
    c1: np.ndarray              # running ascent-gradient average

    def __post_init__(self):
        v = np.asarray(self.v, dtype=complex).reshape(-1)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "c1", np.asarray(self.c1, dtype=complex).reshape(-1))
        _check_relaxed(v)


# ---------------------------------------------------------------------------
# Design objective
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DesignObjective:
    """What the solver optimizes: the sampling law of the estimated CSI and
    the per-draw upper-bound ratio

        gamma(v) = p0 * (||g_hat^H v + h_hat||^2 + c) / (v^H B v + d),

    i.e. p0 * g0 at the matched-filter beamformer over the expected
    interference-plus-noise power.  c = delta2^2 + Mr*delta1^2 (`err_const`),
    B = sum_k (p_k/Mk) glos_k glos_k^H, and d (`denom_const`) collects the
    v-independent interference and noise terms.  B is never formed: it
    enters as the (Mr, K) factor F of B = F F^H, one column per interferer
    (`denom_quad`, None for a constant denominator), so v^H B v =
    ||F^H v||^2, B v = F (F^H v), and the ratio costs O(Mr*K) per pair
    (||e||^2, g_hat e) with e = g_hat^H v + h_hat.  The solver scores the
    L-draw mean pair, which `sample` draws in Mr + 2*L*M0 values, for a
    `stack` of designs at once; `expected` scores the closed-form mean
    pair, and a single draw's view (`ratio`) scores its own pair.

    Baselines reuse this with modified ingredients: a non-robust design
    zeroes the error terms (full-variance sampling, no error constant), a
    design that ignores interference drops the denominator terms.  The
    mean fields allow degenerate (deterministic) sampling laws for
    small-instance validation.
    """

    p0: float
    g_mean: np.ndarray                  # (Mr, M0)
    g_var: float                        # per-element estimate variance
    h_mean: np.ndarray                  # (M0,)
    h_var: float
    err_const: float
    denom_quad: Optional[np.ndarray]    # (Mr, K) factor F of B = F F^H, or None
    denom_const: float

    @classmethod
    def from_scenario(cls, stats: ChannelStatistics, cfg: ScenarioConfig,
                      robust: bool = True,
                      include_interference: bool = True) -> "DesignObjective":
        if robust:
            g_var = stats.estimate_g_var
            h_var = stats.estimate_h_var
            err_const = error_power_constant(stats.irs_size, stats.delta1_abs,
                                             stats.delta2_abs)
        else:
            g_var = float(stats.sigma_g_sq[0])
            h_var = stats.sigma_h_sq
            err_const = 0.0
        if include_interference:
            factor, const = interference_quadratic(stats, cfg)
        else:
            factor, const = None, cfg.noise_watt
        return cls(
            p0=cfg.powers_watt[0],
            g_mean=stats.cascaded_los[0],
            g_var=max(g_var, 0.0),
            h_mean=np.zeros(stats.bs_sizes[0], dtype=complex),
            h_var=max(h_var, 0.0),
            err_const=err_const,
            denom_quad=factor,
            denom_const=const,
        )

    @classmethod
    def stack(cls, designs: Sequence["DesignObjective"]) -> "DesignObjective":
        """S designs as one objective, every field with a leading row axis
        (broadcast, not copied, where all share it).  A design without
        interference terms gets zero columns of F, which change nothing."""
        k = max((d.denom_quad.shape[1] for d in designs if d.denom_quad is not None), default=0)
        values = {f.name: [getattr(d, f.name) for d in designs] for f in fields(cls)}
        values["denom_quad"] = [np.zeros((d.irs_size, k), dtype=complex)
                                if d.denom_quad is None else d.denom_quad for d in designs]
        return cls(**{name: np.asarray(column[0])[None] if all(a is column[0] for a in column)
                      else np.stack(column) for name, column in values.items()})

    @property
    def irs_size(self) -> int:
        return self.g_mean.shape[-2]

    def sample(self, draws: tuple, v: np.ndarray, n: int) -> tuple:
        """The mean over n estimated-CSI draws at the iterate v of the two
        quantities the ratio reads, ||e||^2 and g_hat e with
        e = g_hat^H v + h_hat, drawn from their exact joint law: returns
        (mean ||e_l||^2, mean g_hat_l e_l (Mr,)).  The ratio is affine in
        the two at fixed v, so they give the n-draw mean of its value and
        ascent (`update_coefficients`).  `draws` holds the CN(0, 1) values
        z (n, M0), w (Mr,) and eta (n, M0), h_hat = h_mean + sigma_h eta; on
        a `stack`, v, the draws and the results carry its row axis too.

        With g_hat = G + sigma_g S (S i.i.d. CN(0, 1)), q = v / ||v|| and
        P = I - q q^H, z = S^H q ~ CN(0, I_M0) is independent of P S, so
        per draw

            e       = G^H v + sigma_g ||v|| z + h_hat
            g_hat e = G e + sigma_g (q (z^H e) + ||e|| P w),   w ~ CN(0, I_Mr).

        Given the e_l, the mean of the independent ||e_l|| w_l is
        CN(0, (sum_l ||e_l||^2 / n^2) I_Mr), so one w scaled by
        sqrt(sum_l ||e_l||^2) / n stands for all n of them:

            n mean g_hat e = G sum_l e_l + sigma_g sqrt(T) w
                             + sigma_g (||v|| sum_l z_l^H e_l - sqrt(T) v^H w) v / ||v||^2,

        T = sum_l ||e_l||^2, and at v = 0 the last term drops.  That is
        Mr + 2*n*M0 Gaussian values and two Mr x M0 products with G,
        whatever n is.
        """
        if n < 1:
            raise ValueError("at least one sample per iteration is required")
        z, w, eta = draws
        vh = np.conj(v)[..., None, :]                                     # v^H
        v_sq = (vh @ v[..., None])[..., 0, 0].real
        spread_v = np.sqrt(self.g_var * v_sq)                             # sigma_g ||v||
        e = (np.conj(vh @ self.g_mean) + self.h_mean[..., None, :]
             + spread_v[..., None, None] * z + np.sqrt(self.h_var)[..., None, None] * eta)
        flat = e.reshape(e.shape[:-2] + (-1,))
        total = _inner(flat, flat).real
        spread = np.sqrt(self.g_var * total)                              # sigma_g sqrt(T)
        along = ((spread_v * _inner(z.reshape(flat.shape), flat)
                  - spread * (vh @ w[..., None])[..., 0, 0])
                 / np.where(v_sq > 0.0, n * v_sq, np.inf))
        ge = ((self.g_mean @ e.mean(axis=-2)[..., None])[..., 0]
              + (spread / n)[..., None] * w + along[..., None] * v)
        return total / n, ge

    def expected(self, v: np.ndarray) -> tuple[float, np.ndarray]:
        """E gamma(v) and E ascent(v) over the sampling law, in closed form.
        The denominator is draw-free and the ratio is linear in ||e||^2 and
        g_hat e, whose means are, with m = G^H v + h_mean,

            E ||e||^2   = ||m||^2 + M0 (sigma_g^2 ||v||^2 + sigma_h^2)
            E g_hat e   = G m + M0 sigma_g^2 v.
        """
        m0 = self.g_mean.shape[1]
        mean_e = np.conj(np.conj(v) @ self.g_mean) + self.h_mean
        power = (float(np.real(np.vdot(mean_e, mean_e)))
                 + m0 * (self.g_var * float(np.real(np.vdot(v, v))) + self.h_var))
        mean_ge = self.g_mean @ mean_e + (m0 * self.g_var) * v
        value, ascent = self._ratio(v, power, mean_ge)
        return float(value), ascent

    def _ratio(self, v: np.ndarray, power, ge: np.ndarray) -> tuple:
        """gamma(v) and its steepest-ascent direction from one pair,
        ||e||^2 and g_hat e (Mr,), or from one pair per row of a `stack`.
        The ascent is the conjugate of the formal derivative
        d gamma / d v_n (conjugate coordinates held fixed), so
        gamma(v + dv) ~ gamma(v) + 2 Re{sum_n conj(ascent_n) dv_n}.  Both
        are affine in the pair at fixed v, so a mean pair gives the mean
        value and ascent.  Without interference terms F has no columns."""
        factor = self.denom_quad
        if factor is None:
            factor = np.zeros((self.irs_size, 0), dtype=complex)
        proj = np.conj(np.conj(v)[..., None, :] @ factor)[..., 0, :]         # F^H v
        den = _inner(proj, proj).real + self.denom_const
        value = self.p0 * (power + self.err_const) / den
        bv = (factor @ proj[..., None])[..., 0]                               # B v = F (F^H v)
        return value, (self.p0 / den)[..., None] * ge - (value / den)[..., None] * bv

    def ratio(self, sample: CsiSample) -> "UbQuadraticRatio":
        """Single-draw view of the objective."""
        return UbQuadraticRatio(self, sample)


@dataclass(frozen=True)
class UbQuadraticRatio:
    """One CSI draw's view of `DesignObjective._ratio` at the draw's pair.
    `grad` is the formal derivative d gamma / d v_n (conjugate coordinates
    held fixed), so that gamma(v + dv) ~ gamma(v) + 2 Re{sum_n grad_n dv_n};
    `ascent` is its conjugate, the steepest-ascent direction."""

    design: DesignObjective
    sample: CsiSample

    def _evaluate(self, v: PhaseLike) -> tuple:
        varr = phase_array(v)
        g_hat = self.sample.g_hat
        e = np.conj(varr.conj() @ g_hat) + self.sample.h_hat        # g_hat^H v + h_hat
        return self.design._ratio(varr, float(np.sum(e.real ** 2 + e.imag ** 2)), g_hat @ e)

    def value(self, v: PhaseLike) -> float:
        return float(self._evaluate(v)[0])

    def ascent(self, v: PhaseLike) -> np.ndarray:
        """conj(grad): moving along this direction increases gamma."""
        return self._evaluate(v)[1]

    def grad(self, v: PhaseLike) -> np.ndarray:
        return np.conj(self.ascent(v))


# ---------------------------------------------------------------------------
# Algorithm steps
# ---------------------------------------------------------------------------

def update_coefficients(v: np.ndarray, c0: float, c1: np.ndarray, power: float,
                        ge: np.ndarray, rho: float,
                        design: DesignObjective) -> tuple[float, np.ndarray]:
    """Blend the sample means of the objective and its ascent gradient into
    the running averages (c0, c1) and return the new pair.  The draws enter
    through their means power = mean_l ||e_l||^2 and
    ge = mean_l g_hat_l e_l (Mr,), taken at the iterate v
    (`DesignObjective.sample`; one row each on a `stack`): the ratio is
    affine in the pair at fixed v, so one ratio at the mean pair is the
    mean of the per-draw values and ascents."""
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    mean_val, mean_grad = design._ratio(v, power, ge)
    return rho * mean_val + (1.0 - rho) * c0, rho * mean_grad + (1.0 - rho) * c1


def solve_surrogate(v: np.ndarray, c1: np.ndarray, tau_reg: float) -> np.ndarray:
    """Closed-form maximizer of the surrogate around v over |u_n| <= 1: the
    phase of tau * v_n + c1_n per coordinate (tau (S, 1) on a stack).  Zero
    directions keep the phase of v_n (or 1 when v_n is zero too)."""
    if not (np.asarray(tau_reg) > 0).all():
        raise ValueError(f"tau_reg must be positive, got {tau_reg}")
    direction = tau_reg * v + c1
    mod = np.abs(direction)
    dead = mod == 0.0
    if dead.any():
        prev = v[dead]
        direction[dead] = np.where(np.abs(prev) > 0, prev, 1.0)
        mod = np.abs(direction)
    return direction / mod


def surrogate_value(u: PhaseLike, state: SscaState, tau_reg: float) -> float:
    """f(u) = c0 + 2 Re{(u - v)^H c1} - tau * ||u - v||^2 around the
    state's iterate (audit/verification helper)."""
    du = phase_array(u) - state.v
    linear = 2.0 * float(np.real(np.vdot(du, state.c1)))
    return state.c0 + linear - tau_reg * float(np.real(np.vdot(du, du)))


def project_unit_modulus(v: PhaseLike) -> PhaseShiftVector:
    """Entry-wise projection v_n / |v_n| onto the deployment set; zero
    entries map to 1."""
    varr = phase_array(v).copy()
    mod = np.abs(varr)
    varr[mod == 0.0] = 1.0
    mod = np.abs(varr)
    return PhaseShiftVector(varr / mod)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

@dataclass
class SscaTrace:
    """Per-iteration diagnostics: running objective average, fixed-point gap
    ||v_bar - v_prev||, and an optional UB-rate probe."""

    t: list[int] = field(default_factory=list)
    c0: list[float] = field(default_factory=list)
    gap: list[float] = field(default_factory=list)
    ub_rate: list[float] = field(default_factory=list)     # NaN when not probed
    audit: list[dict] = field(default_factory=list)        # filled when requested

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "c0", "fixed_point_gap", "ub_rate_probe"])
            for i in range(len(self.t)):
                probe = "" if math.isnan(self.ub_rate[i]) else repr(self.ub_rate[i])
                writer.writerow([self.t[i], repr(self.c0[i]), repr(self.gap[i]), probe])


@dataclass(frozen=True)
class SscaResult:
    v: PhaseShiftVector         # unit-modulus design
    trace: SscaTrace
    state: SscaState            # final relaxed iterate
    tau_reg: float              # proximal weight actually used


def _auto_tau(c1: np.ndarray) -> np.ndarray:
    """1e-2 times each row's mean gradient entry magnitude, floored above 0."""
    scale = np.mean(np.abs(c1), axis=-1, keepdims=True)
    return np.where((scale > 0.0) & np.isfinite(scale), 1e-2 * scale, 1e-12)


def run(solver_cfg: SolverConfig, stats: ChannelStatistics, cfg: ScenarioConfig,
        design: Optional[DesignObjective] = None,
        audit: bool = False) -> SscaResult:
    """Run the full stochastic solver for the deployable design: a stack of one."""
    return run_stack([solver_cfg], stats, cfg, [design], audit=audit)[0]


def run_stack(solver_cfgs: Sequence[SolverConfig], stats: ChannelStatistics,
              cfg: ScenarioConfig, designs: Sequence[Optional[DesignObjective]],
              audit: bool = False) -> list[SscaResult]:
    """Run S designs in lockstep as one (S, Mr) iterate; one result per
    design.  Row i runs `designs[i]` (None: the robust design) on the
    streams of `solver_cfgs[i].seed`, whose other fields must agree, with
    the arithmetic of its stack of one: its result does not depend on the
    rows beside it.  Each row starts at v = 1, runs all T iterations,
    calibrates tau after the first coefficient update (`_auto_tau`) and is
    checked to stay in |v_n| <= 1 after every move.  Per iteration and
    row: Mr + 2*L*M0 Gaussian values (`DesignObjective.sample`), drawn a
    block of iterations at a time (at most `BLOCK_BYTES` per design) and
    equal value for value to one draw per iteration; two Mr*M0-flop
    products with the LoS mean G; and O(Mr * K) for the ratio, its
    gradient and B v = F (F^H v): O(Mr*(M0 + K) + L*M0) in all.  Identical
    configurations and seeds reproduce the iterates bit-for-bit.
    """
    solver_cfg = solver_cfgs[0]
    if len(designs) != len(solver_cfgs) or any(
            replace(s, seed=solver_cfg.seed) != solver_cfg for s in solver_cfgs):
        raise ValueError("a stack needs one design per solver setting, and settings "
                         "that differ only in the seed")
    robust = (DesignObjective.from_scenario(stats, cfg)     # what the probe scores
              if any(d is None for d in designs) or solver_cfg.probe_every else None)
    design = DesignObjective.stack([robust if d is None else d for d in designs])
    rows, mr, m0 = len(designs), design.irs_size, design.g_mean.shape[-1]
    n, steps = solver_cfg.samples_per_iter, solver_cfg.iterations
    v = np.ones((rows, mr), dtype=complex)
    c0, c1 = np.zeros(rows), np.zeros((rows, mr), dtype=complex)

    g_rngs, h_rngs = zip(*(named_child(s.seed, "solver").spawn(2) for s in solver_cfgs))
    block = BLOCK_BYTES // (32 * (2 * n * m0 + mr))   # 2 normals + 1 complex a value
    draws = zip(crandn_blocks(g_rngs, [(n, m0), (mr,)], steps, block),     # z, w
                crandn_blocks(h_rngs, [(n, m0)], steps, block))            # eta
    tau_reg = None
    audits = [[] for _ in range(rows)]
    history = np.full((3, steps, rows), math.nan)           # c0, gap and UB probe

    for t, (g_draws, h_draws) in enumerate(draws, start=1):
        power, ge = design.sample(g_draws + h_draws, v, n)
        c0, c1 = update_coefficients(v, c0, c1, power, ge,
                                     stepsize(t, solver_cfg.rho_exponent), design)
        if tau_reg is None:
            tau_reg = _auto_tau(c1)
        v_bar = solve_surrogate(v, c1, tau_reg)
        step = v_bar - v
        history[:2, t - 1] = c0, np.sqrt(_inner(step, step).real)
        if audit:
            for i, entries in enumerate(audits):
                entries.append({"t": t, "v_prev": v[i], "c0": float(c0[i]), "c1": c1[i],
                                "tau_reg": float(tau_reg[i, 0]), "v_bar": v_bar[i]})
        omega = stepsize(t, solver_cfg.omega_exponent)
        v = (1.0 - omega) * v + omega * v_bar
        _check_relaxed(v)
        if solver_cfg.probe_every and t % solver_cfg.probe_every == 0:
            # upper_bound_rate_closed_form without rebuilding F per probe
            history[2, t - 1] = [_log2_1p(robust.expected(project_unit_modulus(row).v)[0])
                                 for row in v]

    c0s, gaps, probes = history.transpose(0, 2, 1).tolist()
    return [SscaResult(v=project_unit_modulus(v[i]),
                       trace=SscaTrace(list(range(1, steps + 1)), c0s[i], gaps[i], probes[i],
                                       audits[i]),
                       state=SscaState(steps, v[i], float(c0[i]), c1[i]),
                       tau_reg=float(tau_reg[i, 0]))
            for i in range(rows)]
