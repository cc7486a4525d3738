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
Stepsizes rho_t = t^-a and w_t = t^-b with 0.5 < a < b <= 1 satisfy the
usual diminishing/summability conditions and w_t/rho_t -> 0.  Iterates
live in the relaxed set |v_n| <= 1; the deployed configuration is the
unit-modulus projection of the final iterate.

`c1` stores the conjugate (ascent) form of the sampled gradient, which is
what makes the closed-form surrogate maximizer an ascent step; the plain
derivative convention of `UbQuadraticRatio.grad` is its conjugate.  The
objective gamma itself, with its sampling law, is `DesignObjective`.

A draw enters gamma only through e = g_hat^H v + h_hat and g_hat e, so each
sample draws those two from their exact joint law: Mr + 2*M0 Gaussian
values, O(L*(Mr + M0)) draws per iteration where the full (L, Mr, M0)
estimate would cost L*Mr*M0.  The one product with the LoS mean G stays at
L*Mr*M0 flops.  The expectation of gamma has a closed form
(`DesignObjective.expected`); the stochastic iteration is the paper's
method, and the closed form is kept as its oracle.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .channel import ChannelStatistics, CsiSample
from .config import ScenarioConfig
from .rate import (
    PhaseShiftVector,
    PhaseLike,
    _quadratic_denominator,
    error_power_constant,
    interference_quadratic,
    phase_array,
)
from .streams import check_seed, crandn, named_child


def stepsize_rho(t: int, a: float) -> float:
    """Coefficient-averaging stepsize t^-a; needs sum rho = inf and
    sum rho^2 < inf, hence a in (0.5, 1]."""
    if t < 1:
        raise ValueError(f"iteration index must be >= 1, got {t}")
    return float(t) ** (-a)


def stepsize_omega(t: int, b: float) -> float:
    """Iterate-averaging stepsize t^-b with b > a so that omega/rho -> 0."""
    if t < 1:
        raise ValueError(f"iteration index must be >= 1, got {t}")
    return float(t) ** (-b)


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the stochastic solver.

    tau_reg = None auto-calibrates the proximal weight from the first
    iteration's gradient sample (1e-2 times its mean entry magnitude), so
    the proximal term stays comparable to the linear term across the wide
    dynamic range of channel gains.
    """

    iterations: int = 500               # T
    samples_per_iter: int = 10          # L
    tau_reg: Optional[float] = None     # surrogate concavity weight
    rho_exponent: float = 0.6           # a in (0.5, 1]
    omega_exponent: float = 0.9         # b in (a, 1]
    seed: int = 0
    tolerance: float = 0.0              # fixed-point gap early stop; 0 = run all T
    probe_every: int = 0                # UB-rate probe period in the trace; 0 = off

    def __post_init__(self):
        if self.iterations < 1 or self.samples_per_iter < 1:
            raise ValueError("iterations and samples_per_iter must be >= 1")
        a, b = self.rho_exponent, self.omega_exponent
        if not (0.5 < a <= 1.0):
            raise ValueError(f"rho exponent must lie in (0.5, 1], got {a}")
        if not (a < b <= 1.0):
            raise ValueError(f"omega exponent must lie in ({a}, 1], got {b}")
        if self.tau_reg is not None and not self.tau_reg > 0:
            raise ValueError(f"tau_reg must be positive, got {self.tau_reg}")
        if self.tolerance < 0:
            raise ValueError("tolerance must be non-negative")
        check_seed(self.seed)


@dataclass(frozen=True)
class SscaState:
    """Solver iterate after iteration t (t = 0 is the initial point)."""

    t: int
    v: np.ndarray               # relaxed iterate, |v_n| <= 1
    c0: float                   # running objective average
    c1: np.ndarray              # running ascent-gradient average

    def __post_init__(self):
        v = np.asarray(self.v, dtype=complex).reshape(-1)
        c1 = np.asarray(self.c1, dtype=complex).reshape(-1)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "c1", c1)
        if not (np.max(np.abs(v)) <= 1.0 + 1e-12):  # rejects NaN too
            raise ValueError("iterate leaves the relaxed set |v_n| <= 1")

    @classmethod
    def initial(cls, v0: np.ndarray) -> "SscaState":
        v0 = np.asarray(v0, dtype=complex).reshape(-1)
        return cls(t=0, v=v0, c0=0.0, c1=np.zeros(v0.shape[0], dtype=complex))


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
    enters as the (Mr, sum_k Mk) factor F of B = F F^H (`denom_quad`, None
    for a constant denominator), so v^H B v = ||F^H v||^2, B v = F (F^H v),
    and `evaluate` handles L draws in O(L*Mr + Mr*sum_k Mk) from their
    e = g_hat^H v + h_hat and g_hat e, which `sample` draws in
    L*(Mr + 2*M0) values.  `expected` is the closed-form mean of gamma and
    its ascent.

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
    denom_quad: Optional[np.ndarray]    # (Mr, r) factor F of B = F F^H, or None
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

    @property
    def irs_size(self) -> int:
        return self.g_mean.shape[0]

    def sample(self, streams: dict, v: np.ndarray,
               n: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw, for n estimated-CSI samples at the iterate v, the two
        quantities `evaluate` reads: e = g_hat^H v + h_hat (n, M0) and
        g_hat e (n, Mr), from their exact joint law.  No (n, Mr, M0) draw
        is made.

        With g_hat = G + sigma_g S (S i.i.d. CN(0, 1)), q = v / ||v|| and
        P = I - q q^H, z = S^H q ~ CN(0, I_M0) is independent of P S, so

            e       = G^H v + sigma_g ||v|| z + h_hat
            g_hat e = G e + sigma_g (q (z^H e) + ||e|| P w),   w ~ CN(0, I_Mr),

        and at v = 0, g_hat e = G e + sigma_g ||e|| w.  That is Mr + 2*M0
        draws per sample; the one product G e costs n*Mr*M0 flops.
        """
        mr, m0 = self.g_mean.shape
        sigma = math.sqrt(self.g_var)
        v_norm = float(np.linalg.norm(v))
        z = crandn(streams["design/g"], (n, m0), 1.0)
        w = crandn(streams["design/g"], (n, mr), 1.0)
        e = crandn(streams["design/h"], (n, m0), self.h_var)
        e += self.g_mean.conj().T @ v + self.h_mean
        e += (sigma * v_norm) * z
        e_norm = np.sqrt(np.sum(e.real ** 2 + e.imag ** 2, axis=1))
        ge = e @ self.g_mean.T                                      # G e
        ge += (sigma * e_norm)[:, None] * w
        if v_norm > 0.0:
            # sigma (q (z^H e) + ||e|| P w) = sigma ||e|| w + c q, where
            # c = sigma (z^H e - ||e|| q^H w)
            q = v / v_norm
            along = np.sum(z.conj() * e, axis=1) - e_norm * (w @ q.conj())
            ge += (sigma * along)[:, None] * q
        return e, ge

    def evaluate(self, v: np.ndarray, e: np.ndarray,
                 ge: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """gamma(v) and its steepest-ascent direction for L draws, given
        through e = g_hat^H v + h_hat (L, M0) and g_hat e (L, Mr), the only
        parts of a draw the ratio reads (`sample` draws them directly).

        Returns (values (L,), ascents (L, Mr)).  The ascent is the conjugate
        of the formal derivative d gamma / d v_n (conjugate coordinates held
        fixed), so gamma(v + dv) ~ gamma(v) + 2 Re{sum_n conj(ascent_n) dv_n}.
        B v and the denominator do not depend on the draw and are computed
        once.
        """
        return self._ratio(v, np.sum(e.real ** 2 + e.imag ** 2, axis=1), ge)

    def expected(self, v: np.ndarray) -> tuple[float, np.ndarray]:
        """E gamma(v) and E ascent(v) over the sampling law, in closed form.
        The denominator is draw-free and the ratio is linear in ||e||^2 and
        g_hat e, whose means are, with m = G^H v + h_mean,

            E ||e||^2   = ||m||^2 + M0 (sigma_g^2 ||v||^2 + sigma_h^2)
            E g_hat e   = G m + M0 sigma_g^2 v.
        """
        m0 = self.g_mean.shape[1]
        mean_e = self.g_mean.conj().T @ v + self.h_mean
        power = (float(np.real(np.vdot(mean_e, mean_e)))
                 + m0 * (self.g_var * float(np.real(np.vdot(v, v))) + self.h_var))
        mean_ge = self.g_mean @ mean_e + (m0 * self.g_var) * v
        values, ascents = self._ratio(v, np.array([power]), mean_ge[None])
        return float(values[0]), ascents[0]

    def _ratio(self, v: np.ndarray, power: np.ndarray,
               ge: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ratio and its ascent from ||e||^2 (L,) and g_hat e (L, Mr)."""
        p0, denom_quad, denom_const = self.p0, self.denom_quad, self.denom_const
        num = p0 * (power + self.err_const)
        signal_dir = p0 * ge
        den, proj = _quadratic_denominator(denom_quad, denom_const, v)
        if proj is None:
            return num / den, signal_dir / den
        bv = denom_quad @ proj                                       # B v
        return num / den, (signal_dir * den - num[:, None] * bv[None]) / den ** 2

    def ratio(self, sample: CsiSample) -> "UbQuadraticRatio":
        """Single-draw view of the objective (the solver uses `evaluate`)."""
        return UbQuadraticRatio(self, sample)


@dataclass(frozen=True)
class UbQuadraticRatio:
    """One CSI draw's view of `DesignObjective.evaluate`.  `grad` is the
    formal derivative d gamma / d v_n (conjugate coordinates held fixed), so
    that gamma(v + dv) ~ gamma(v) + 2 Re{sum_n grad_n dv_n}; `ascent` is its
    conjugate, the steepest-ascent direction."""

    design: DesignObjective
    sample: CsiSample

    def _evaluate(self, v: PhaseLike) -> tuple[np.ndarray, np.ndarray]:
        varr = phase_array(v)
        g_hat, h_hat = self.sample.g_hat[None], self.sample.h_hat[None]
        e = np.conj(varr.conj() @ g_hat) + h_hat                    # g_hat^H v + h_hat
        ge = (g_hat @ e[:, :, None])[:, :, 0]                       # g_hat e
        return self.design.evaluate(varr, e, ge)

    def value(self, v: PhaseLike) -> float:
        return float(self._evaluate(v)[0][0])

    def ascent(self, v: PhaseLike) -> np.ndarray:
        """conj(grad): moving along this direction increases gamma."""
        return self._evaluate(v)[1][0]

    def grad(self, v: PhaseLike) -> np.ndarray:
        return np.conj(self.ascent(v))


# ---------------------------------------------------------------------------
# Algorithm steps
# ---------------------------------------------------------------------------

def update_coefficients(state: SscaState, e: np.ndarray, ge: np.ndarray,
                        rho: float, design: DesignObjective) -> SscaState:
    """Blend the sample means of the objective and its ascent gradient over
    the draws e = g_hat^H v + h_hat (L, M0) and g_hat e (L, Mr), both taken
    at the previous iterate v, into the running averages."""
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    if e.shape[0] == 0:
        raise ValueError("at least one sample per iteration is required")
    values, ascents = design.evaluate(state.v, e, ge)
    mean_val = float(np.mean(values))
    mean_grad = np.mean(ascents, axis=0)
    return replace(
        state,
        c0=rho * mean_val + (1.0 - rho) * state.c0,
        c1=rho * mean_grad + (1.0 - rho) * state.c1,
    )


def solve_surrogate(state: SscaState, tau_reg: float) -> np.ndarray:
    """Closed-form maximizer of the surrogate over |u_n| <= 1: the phase of
    tau * v_n + c1_n per coordinate.  Zero directions keep the previous
    phase (or 1 when the previous entry is zero too)."""
    if not tau_reg > 0:
        raise ValueError(f"tau_reg must be positive, got {tau_reg}")
    direction = tau_reg * state.v + state.c1
    mod = np.abs(direction)
    dead = mod == 0.0
    if np.any(dead):
        direction = direction.copy()
        prev = state.v[dead]
        prev_mod = np.abs(prev)
        direction[dead] = np.where(prev_mod > 0, prev, 1.0)
        mod = np.abs(direction)
    return direction / mod


def surrogate_value(u: PhaseLike, state: SscaState, tau_reg: float) -> float:
    """f(u) = c0 + 2 Re{(u - v)^H c1} - tau * ||u - v||^2 around the
    state's iterate (audit/verification helper)."""
    du = phase_array(u) - state.v
    linear = 2.0 * float(np.real(np.vdot(du, state.c1)))
    return state.c0 + linear - tau_reg * float(np.real(np.vdot(du, du)))


def advance_iterate(state: SscaState, v_bar: np.ndarray, omega: float) -> SscaState:
    """v <- (1 - omega) v + omega v_bar; stays inside |v_n| <= 1."""
    if not 0.0 < omega <= 1.0:
        raise ValueError(f"omega must lie in (0, 1], got {omega}")
    return replace(state, v=(1.0 - omega) * state.v + omega * np.asarray(v_bar))


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

    def append(self, t: int, c0: float, gap: float, ub_rate: float = math.nan):
        self.t.append(t)
        self.c0.append(c0)
        self.gap.append(gap)
        self.ub_rate.append(ub_rate)

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


def _auto_tau(c1: np.ndarray) -> float:
    """1e-2 times the mean gradient entry magnitude, floored away from zero."""
    scale = float(np.mean(np.abs(c1)))
    if scale <= 0.0 or not math.isfinite(scale):
        return 1e-12
    return 1e-2 * scale


def run(solver_cfg: SolverConfig, stats: ChannelStatistics, cfg: ScenarioConfig,
        design: Optional[DesignObjective] = None,
        v0: Optional[PhaseLike] = None,
        audit: bool = False) -> SscaResult:
    """Run the full stochastic solver and return the deployable design.

    Per iteration: L * (Mr + 2*M0) Gaussian draws (`DesignObjective.sample`
    draws only what the ratio reads), one L*Mr*M0-flop product with the LoS
    mean G, and O(L*Mr + Mr * sum_k Mk) for the ratio, its gradient and B v,
    with B = F F^H applied through its (Mr, sum_k Mk) factor F, never
    formed.  Identical configurations and seeds reproduce the iterates
    bit-for-bit.
    """
    robust = (DesignObjective.from_scenario(stats, cfg)     # what the probe scores
              if design is None or solver_cfg.probe_every else None)
    design = robust if design is None else design
    mr = design.irs_size
    v_init = np.ones(mr, dtype=complex) if v0 is None else phase_array(v0).copy()
    state = SscaState.initial(v_init)

    streams = dict(zip(("design/g", "design/h"),
                       named_child(solver_cfg.seed, "solver").spawn(2)))
    tau_reg = solver_cfg.tau_reg
    trace = SscaTrace()

    for t in range(1, solver_cfg.iterations + 1):
        e, ge = design.sample(streams, state.v, solver_cfg.samples_per_iter)
        rho = stepsize_rho(t, solver_cfg.rho_exponent)
        state = replace(state, t=t)
        state = update_coefficients(state, e, ge, rho, design)
        if tau_reg is None:
            tau_reg = _auto_tau(state.c1)
        v_prev = state.v
        v_bar = solve_surrogate(state, tau_reg)
        gap = float(np.linalg.norm(v_bar - v_prev))
        if audit:
            trace.audit.append({
                "t": t, "v_prev": v_prev.copy(), "c0": state.c0,
                "c1": state.c1.copy(), "tau_reg": tau_reg, "v_bar": v_bar.copy(),
            })
        state = advance_iterate(state, v_bar, stepsize_omega(t, solver_cfg.omega_exponent))

        probe = math.nan
        if solver_cfg.probe_every and t % solver_cfg.probe_every == 0:
            # upper_bound_rate_closed_form without rebuilding F per probe
            probe = math.log2(1.0 + robust.expected(project_unit_modulus(state.v).v)[0])
        trace.append(t, state.c0, gap, probe)

        if solver_cfg.tolerance > 0.0 and gap < solver_cfg.tolerance:
            break

    return SscaResult(v=project_unit_modulus(state.v), trace=trace, state=state,
                      tau_reg=float(tau_reg))
