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
derivative convention of `DesignObjective.grad` is its conjugate.  The
objective gamma itself, with its sampling law, is `DesignObjective`; one
CSI draw is its zero-variance law (`DesignObjective.ratio`).

A draw enters gamma only through ||e||^2 and g_hat e, with
e = g_hat^H v + h_hat, and gamma and its ascent are affine in the two at
fixed v, so the coefficient step reads only their L-draw means.
`DesignObjective.sample` draws those means from their exact law, through
the L draws' sums sum_l ||e_l||^2, sum_l e_l and one cross term, which a
rotation of each draw's two Gaussian parts gives in closed law: Mr + M0 + 1
Gaussian values, one gamma value and two Mr x M0 products with the LoS mean
G per iteration, whatever L is, where L full estimates would draw L*Mr*M0
values and spend L*Mr*M0 flops on G.  An iteration costs O(Mr*(M0 + K)) in
all, K interferers, below the paper's O(L*M0*Mr).  The
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
from .streams import check_count, check_seed, crandn_blocks, gamma_blocks, named_child


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
        # counts and seed kept as plain ints: json cannot write numpy integers
        for name, minimum in (("iterations", 1), ("samples_per_iter", 1), ("probe_every", 0)):
            object.__setattr__(self, name, check_count(getattr(self, name), name, minimum))
        a, b = self.rho_exponent, self.omega_exponent
        if not (0.5 < a <= 1.0):
            raise ValueError(f"rho exponent must lie in (0.5, 1], got {a}")
        if not (a < b <= 1.0):
            raise ValueError(f"omega exponent must lie in ({a}, 1], got {b}")
        object.__setattr__(self, "seed", check_seed(self.seed))


BLOCK_BYTES = 256 * 1024    # draw buffers per stack: memory stays flat as Mr and S grow


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
    (`denom_quad`; None, accepted for a hand-built design, means K = 0),
    so v^H B v = ||F^H v||^2, B v = F (F^H v), and the ratio costs
    O(Mr*K) per pair (||e||^2, g_hat e) with e = g_hat^H v + h_hat.  The
    solver scores the L-draw mean pair, which `sample` draws in
    Mr + M0 + 1 Gaussian values and one gamma value, for a `stack` of
    designs at once; `expected` scores the closed-form mean pair.  One CSI draw is the zero-variance
    law at (g_hat, h_hat) (`ratio`), whose mean pair is the draw's own;
    `value`, `ascent` and `grad` read `expected`.

    Baselines reuse this with modified ingredients: a non-robust design
    zeroes the error terms (full-variance sampling, no error constant), a
    design that ignores interference keeps zero columns of F and only the
    noise in d.  The mean fields allow degenerate (deterministic) sampling
    laws for small-instance validation.
    """

    p0: float
    g_mean: np.ndarray                  # (Mr, M0)
    g_var: float                        # per-element estimate variance
    h_mean: np.ndarray                  # (M0,)
    h_var: float
    err_const: float
    denom_quad: np.ndarray              # (Mr, K) factor F of B = F F^H
    denom_const: float

    def __post_init__(self):
        if self.denom_quad is None:
            object.__setattr__(self, "denom_quad",
                               np.zeros((self.irs_size, 0), dtype=complex))

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
        factor, const = interference_quadratic(stats, cfg)
        if not include_interference:
            factor, const = np.zeros_like(factor), cfg.noise_watt
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
        (broadcast, not copied, where all share it, such as G); F (S, Mr, K)
        needs the same K in every design."""
        values = {f.name: [getattr(d, f.name) for d in designs] for f in fields(cls)}
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
        s (M0,), w (Mr,) and nu (a scalar) and one Gamma(M0 (n - 1), 1)
        value r; on a `stack`, v, the draws and the results carry its row
        axis too.

        With g_hat = G + sigma_g X (X i.i.d. CN(0, 1)), q = v / ||v|| and
        P = I - q q^H, z = X^H q ~ CN(0, I_M0) is independent of P X, so
        per draw, with h_hat = h_mean + sigma_h eta,

            e       = m + a z + b eta,   m = G^H v + h_mean, a = sigma_g ||v||, b = sigma_h
            g_hat e = G e + sigma_g (q (z^H e) + ||e|| P w),   w ~ CN(0, I_Mr).

        Given the e_l, the mean of the independent ||e_l|| w_l is
        CN(0, (T / n^2) I_Mr) with T = sum_l ||e_l||^2, so one w scaled by
        sqrt(T) / n stands for all n of them:

            n mean g_hat e = G sum_l e_l + sigma_g sqrt(T) w
                             + sigma_g (||v|| sum_l z_l^H e_l - sqrt(T) v^H w) v / ||v||^2,

        and at v = 0 the last term drops.  The n draws enter only through
        T, sum_l e_l and sum_l z_l^H e_l.  Rotate (z_l, eta_l) to
        xi_l = (a z_l + b eta_l) / c, c = sqrt(a^2 + b^2), and the
        orthogonal zeta_l = (b z_l - a eta_l) / c: independent CN(0, I_M0)
        with e_l = m + c xi_l.  Their sum is sum_l xi_l = sqrt(n) s with
        s ~ CN(0, I_M0), and r = sum_l ||xi_l - s / sqrt(n)||^2 is
        Gamma(M0 (n - 1), 1) and independent of s, so

            mean_l e_l      = m + c s / sqrt(n)
            T               = n ||mean_l e_l||^2 + c^2 r
            sum_l z_l^H e_l = (a / c) (sqrt(n) s^H m + c (||s||^2 + r)) + (b / c) sqrt(T) nu,

        since sum_l xi_l^H e_l = sqrt(n) s^H m + c sum_l ||xi_l||^2 and,
        given the e_l, sum_l zeta_l^H e_l ~ CN(0, T).  At c = 0 take
        a / c = 1 and b / c = 0; the last term above is only read times
        a, which is then 0.  That is Mr + M0 + 1 Gaussian values, one gamma
        value and two Mr x M0 products with G, whatever n is.
        """
        if n < 1:
            raise ValueError("at least one sample per iteration is required")
        s, w, nu, r = draws
        vh = np.conj(v)[..., None, :]                                     # v^H
        v_sq = (vh @ v[..., None])[..., 0, 0].real
        a, b = np.sqrt(self.g_var * v_sq), np.sqrt(self.h_var)            # sigma_g ||v||, sigma_h
        c_sq = a * a + b * b
        c = np.sqrt(c_sq)
        mean_e = (np.conj(vh @ self.g_mean)[..., 0, :] + self.h_mean
                  + (c / math.sqrt(n))[..., None] * s)                     # mean_l e_l
        total = n * _inner(mean_e, mean_e).real + c_sq * r                # T
        # a sum_l z_l^H e_l, the only use of the cross term: 0 with a at c = 0
        a_cross = (a / np.where(c > 0.0, c, 1.0)) * (
            a * (math.sqrt(n) * _inner(s, mean_e) + c * r) + b * np.sqrt(total) * nu)
        spread = np.sqrt(self.g_var * total)                              # sigma_g sqrt(T)
        along = ((a_cross - spread * (vh @ w[..., None])[..., 0, 0])
                 / np.where(v_sq > 0.0, n * v_sq, np.inf))
        ge = ((self.g_mean @ mean_e[..., None])[..., 0]
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
        value and ascent.  F^H v and B v read the (Mr, K) F, or its
        (S, Mr, K) stack."""
        factor = self.denom_quad
        proj = np.conj(np.conj(v)[..., None, :] @ factor)[..., 0, :]         # F^H v
        den = _inner(proj, proj).real + self.denom_const
        value = self.p0 * (power + self.err_const) / den
        bv = (factor @ proj[..., None])[..., 0]                               # B v = F (F^H v)
        return value, (self.p0 / den)[..., None] * ge - (value / den)[..., None] * bv

    def ratio(self, sample: CsiSample) -> "DesignObjective":
        """One CSI draw as the zero-variance law at (g_hat, h_hat): its
        `expected` pair is the draw's own (||e||^2, g_hat e)."""
        return replace(self, g_mean=sample.g_hat, g_var=0.0, h_mean=sample.h_hat, h_var=0.0)

    def value(self, v: PhaseLike) -> float:
        """E gamma(v), the value of `expected`."""
        return self.expected(phase_array(v))[0]

    def ascent(self, v: PhaseLike) -> np.ndarray:
        """E ascent(v): the conjugate of `grad`, moving along it increases gamma."""
        return self.expected(phase_array(v))[1]

    def grad(self, v: PhaseLike) -> np.ndarray:
        """The formal derivative d E gamma / d v_n (conjugate coordinates held
        fixed), so that gamma(v + dv) ~ gamma(v) + 2 Re{sum_n grad_n dv_n}."""
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
    """Run the full stochastic solver for the deployable design: a stack of
    one, running `design` (None: the robust design) and probing the robust
    upper-bound rate every `probe_every` iterations."""
    robust = (DesignObjective.from_scenario(stats, cfg)
              if design is None or solver_cfg.probe_every else None)
    return run_stack([solver_cfg], [robust if design is None else design],
                     probe=robust, audit=audit)[0]


def run_stack(solver_cfgs: Sequence[SolverConfig], designs: Sequence[DesignObjective],
              probe: Optional[DesignObjective] = None,
              audit: bool = False) -> list[SscaResult]:
    """Run S designs in lockstep as one (S, Mr) iterate; one result per
    design.  Row i runs `designs[i]` on the streams of
    `solver_cfgs[i].seed`, whose other fields must agree, with the
    arithmetic of its stack of one: its result does not depend on the rows
    beside it, which may come from other scenarios of the same shape (Mr,
    M0 and K).  Each row starts at v = 1, runs all T iterations,
    calibrates tau after the first coefficient update (`_auto_tau`) and is
    checked to stay in |v_n| <= 1 after every move.  Every `probe_every`
    iterations the trace records the upper-bound rate that `probe` scores
    at each row's deployed iterate (none without a probe).  Per iteration and
    row, whatever L is: Mr + M0 + 1 Gaussian values and one gamma value
    (`DesignObjective.sample`), drawn a block of iterations at a time (at
    most `BLOCK_BYTES` of buffers for the whole stack) and equal value for
    value to one draw per iteration; two Mr*M0-flop products with the LoS
    mean G; and O(Mr * K) for the ratio, its gradient and
    B v = F (F^H v): O(Mr*(M0 + K)) in all.  Identical configurations and
    seeds reproduce the iterates bit-for-bit.
    """
    solver_cfg = solver_cfgs[0]
    if len(designs) != len(solver_cfgs) or any(
            replace(s, seed=solver_cfg.seed) != solver_cfg for s in solver_cfgs):
        raise ValueError("a stack needs one design per solver setting, and settings "
                         "that differ only in the seed")
    probe_every = solver_cfg.probe_every if probe is not None else 0
    design = DesignObjective.stack(designs)
    rows, mr, m0 = len(designs), design.irs_size, design.g_mean.shape[-1]
    n, steps = solver_cfg.samples_per_iter, solver_cfg.iterations
    v = np.ones((rows, mr), dtype=complex)
    c0, c1 = np.zeros(rows), np.zeros((rows, mr), dtype=complex)

    g_rngs, h_rngs = zip(*(named_child(s.seed, "solver").spawn(2) for s in solver_cfgs))
    # per row and iteration: 2 normals and 1 complex a Gaussian value, and 1 gamma
    block = max(1, BLOCK_BYTES // (rows * (32 * (m0 + mr + 1) + 8)))
    draws = zip(crandn_blocks(g_rngs, [(m0,), (mr,), ()], steps, block),   # s, w, nu
                gamma_blocks(h_rngs, m0 * (n - 1), steps, block))          # r
    tau_reg = None
    audits = [[] for _ in range(rows)]
    history = np.full((3, steps, rows), math.nan)           # c0, gap and UB probe

    for t, (normals, r) in enumerate(draws, start=1):
        power, ge = design.sample(normals + (r,), v, n)
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
        if probe_every and t % probe_every == 0:
            # upper_bound_rate_closed_form without rebuilding F per probe
            history[2, t - 1] = [_log2_1p(probe.expected(project_unit_modulus(row).v)[0])
                                 for row in v]

    c0s, gaps, probes = history.transpose(0, 2, 1).tolist()
    return [SscaResult(v=project_unit_modulus(v[i]),
                       trace=SscaTrace(list(range(1, steps + 1)), c0s[i], gaps[i], probes[i],
                                       audits[i]),
                       state=SscaState(steps, v[i], float(c0[i]), c1[i]),
                       tau_reg=float(tau_reg[i, 0]))
            for i in range(rows)]
