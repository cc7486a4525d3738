"""Rate expressions: per-term expected powers, the design objective, the
closed-form upper-bound rate and the Monte Carlo ergodic rate.

Core quantities, for phase shifts v, unit beamformer w and one CSI draw
(g_hat, h_hat):

    g0 = |(v^H g_hat + h_hat^H) w|^2 + delta2^2 + Mr*delta1^2
    gk = ||v^H glos_k||^2 / Mk + a_kr*a_ru*Mr*(1 - tau_k) + a_k0   (k >= 1)

g0 is the conditional expectation over the CSI error of the received
signal power; gk is the exact expectation of interferer k's power under
maximum-ratio transmission towards its own user; both stay as per-term
oracles.  The objective built from them, p0 * g0 at the matched-filter
beamformer over sum_k p_k*gk + sigma^2, is `DesignObjective`, with its
sampling law (stated in `DesignObjective.sample`) and its closed-form mean
(`expected`, for one design or a stack).  `gamma_ub` and
`gamma_ub_gradient` score one draw as its zero-variance law
(`DesignObjective.ratio`), whose `expected` pair is the draw's
(||e||^2, g_hat e); `upper_bound_rate_closed_form` is log2(1 + `expected`)
of one design.  `interference_quadratic` writes the interference-plus-noise
power as ||F^H v||^2 + d, whose (Mr, K) factor F (K = n_bs - 1 columns,
none without interferers) is the objective's `denom_quad`.
`ergodic_rates_mc_points` evaluates stacks of designs at several points,
each at its fixed beamformer, the matched filter, on each point's robust
objective (F and the upper bounds), drawing each chunk once per (Mr, M0)
shape and reading each slot's matched-filter rate off per-slot Gram
scalars (`channel.CombinedChannels`, whose `design_stack` checks each
stack once); `ergodic_rate_mc` is its one-design view at one point, which
takes `beamforming.mrt_policy`'s policy and checks that it is the matched
filter.  Every `RateReport` of per-sample rates, a multi-draw scheme's
average included, is summarized by `RateReport.from_samples`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .channel import (DESIGN_MODULUS_TOL, ChannelStatistics, CombinedChannels, CsiSample,
                      PhysicalChannelSampler)
from .config import ScenarioConfig
from .streams import check_count

_MC_CHUNK = 512
_LN2 = math.log(2.0)
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class PhaseShiftVector:
    """Deployable IRS configuration: unit-modulus entries.  Solver iterates,
    which only satisfy |v_n| <= 1, are plain arrays."""

    v: np.ndarray

    def __post_init__(self):
        arr = np.array(self.v, dtype=complex, copy=True).reshape(-1)
        arr.setflags(write=False)
        object.__setattr__(self, "v", arr)
        if arr.size == 0:
            raise ValueError("a phase-shift design needs at least one entry, got none")
        if not (np.max(np.abs(np.abs(arr) - 1.0)) <= DESIGN_MODULUS_TOL):  # rejects NaN too
            raise ValueError("phase-shift entries must have unit modulus")

    @classmethod
    def from_phases(cls, phases: np.ndarray) -> "PhaseShiftVector":
        return cls(np.exp(1j * np.asarray(phases, dtype=float)))


PhaseLike = Union[PhaseShiftVector, np.ndarray, Sequence[complex]]


def phase_array(v: PhaseLike) -> np.ndarray:
    """Unwrap a PhaseShiftVector (or accept a raw vector) as a 1-D complex array."""
    if isinstance(v, PhaseShiftVector):
        return v.v
    return np.asarray(v, dtype=complex).reshape(-1)


def _beam_array(w) -> np.ndarray:
    arr = np.asarray(getattr(w, "w", w), dtype=complex).reshape(-1)
    nrm = np.linalg.norm(arr)
    if not (abs(nrm - 1.0) <= 1e-9):  # rejects NaN too
        raise ValueError(f"beamformer must be unit-norm, got ||w|| = {nrm}")
    return arr


@dataclass(frozen=True)
class RateReport:
    """Evaluation result for one (scheme, scenario) pair."""

    ub_rate: float                      # bit/s/Hz, closed-form upper bound
    mc_rate: float                      # bit/s/Hz, Monte Carlo ergodic estimate
    mc_stderr: float
    n_samples: int
    signal_power: float                 # p0 * E|signal|^2, linear watts
    interference_power: tuple[float, ...]   # p_k * gk per interferer
    noise_power: float
    rate_samples: Optional[np.ndarray] = None   # per-sample rates; evaluate_designs: on request

    def __post_init__(self):
        if self.mc_stderr < 0:
            raise ValueError("standard error must be non-negative")
        if self.signal_power < 0 or self.noise_power < 0 or any(
                p < 0 for p in self.interference_power):
            raise ValueError("power breakdown terms must be non-negative")

    @classmethod
    def from_samples(cls, rate_samples: np.ndarray, ub_rate: float, signal_power: float,
                     interference_power: Sequence[float], noise_power: float) -> "RateReport":
        """The report of n >= 2 per-sample rates (n,): their mean and its
        standard error, beside the given upper bound and power breakdown.
        One sample has no standard error, so the evaluator asks for two."""
        n = rate_samples.shape[0]
        stderr = float(np.std(rate_samples, ddof=1) / math.sqrt(n))
        return cls(ub_rate=float(ub_rate), mc_rate=float(np.mean(rate_samples)),
                   mc_stderr=stderr, n_samples=n, signal_power=float(signal_power),
                   interference_power=tuple(map(float, interference_power)),
                   noise_power=noise_power, rate_samples=rate_samples)

    def to_dict(self) -> dict:
        """Every field but the per-sample rates."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "rate_samples"}


# ---------------------------------------------------------------------------
# Per-term expected powers and the interference-plus-noise denominator
# ---------------------------------------------------------------------------

def error_power_constant(irs_size: int, delta1: float, delta2: float) -> float:
    """delta2^2 + Mr*delta1^2, the CSI-error part of the signal power.

    Exact for unit-modulus v (||v||^2 = Mr); kept constant for relaxed v."""
    return delta2 ** 2 + irs_size * delta1 ** 2


def g0(v: PhaseLike, w, sample: CsiSample, delta1: float, delta2: float) -> float:
    """Expected received signal power for one estimated-CSI draw:
    |(v^H g_hat + h_hat^H) w|^2 + delta2^2 + Mr*delta1^2."""
    varr = phase_array(v)
    warr = _beam_array(w)
    if sample.g_hat.shape != (varr.shape[0], warr.shape[0]):
        raise ValueError(
            f"dimension mismatch: g_hat {sample.g_hat.shape}, "
            f"v {varr.shape[0]}, w {warr.shape[0]}"
        )
    equivalent = sample.g_hat.conj().T @ varr + sample.h_hat    # (M0,)
    signal = np.abs(np.vdot(equivalent, warr)) ** 2
    return float(signal + error_power_constant(varr.shape[0], delta1, delta2))


def gk(v: PhaseLike, stats: ChannelStatistics, k: int) -> float:
    """Expected interference power from BS k under own-user MRT:
    ||v^H glos_k||^2 / Mk + a_kr*a_ru*Mr*(1 - tau_k) + a_k0, the closed
    form that acceptance criterion 1 checks against physical draws."""
    if k == 0:
        raise ValueError("k = 0 is the serving link; use g0")
    if not 1 <= k < stats.n_bs:
        raise ValueError(f"interferer index {k} out of range (1..{stats.n_bs - 1})")
    varr = phase_array(v)
    los_term = np.linalg.norm(varr.conj() @ stats.cascaded_los[k]) ** 2 / stats.bs_sizes[k]
    return float(los_term + _interferer_floor(stats, k))


def _interferer_floor(stats: ChannelStatistics, k: int) -> float:
    """The v-independent part of gk: a_kr*a_ru*Mr*(1 - tau_k) + a_k0."""
    return (stats.alpha_bs_irs[k] * stats.alpha_irs_user * stats.irs_size
            * (1.0 - stats.tau[k]) + stats.alpha_direct[k])


def interference_quadratic(stats: ChannelStatistics,
                           cfg: ScenarioConfig) -> tuple[np.ndarray, float]:
    """The interference-plus-noise power sum_k p_k * gk(v) + sigma^2 as a
    low-rank quadratic form: (F, d) with denominator ||F^H v||^2 + d, i.e.
    B = F F^H.  Each cascaded LoS is rank one, glos_k = g_k a_tx,k^H with
    unit-modulus a_tx,k (||a_tx,k||^2 = Mk), so (p_k/Mk) glos_k glos_k^H
    = p_k g_k g_k^H and F has one column sqrt(p_k) * g_k per interferer
    (`ChannelStatistics.cascaded_gain`), in interferer order: a C-contiguous
    complex (Mr, K), K = n_bs - 1 >= 0.  An interferer without LoS
    (tau_k = 0) gets a zero column."""
    powers = cfg.powers_watt
    d = cfg.noise_watt
    factor = np.empty((stats.irs_size, stats.n_bs - 1), dtype=complex)
    for k in range(1, stats.n_bs):
        d += powers[k] * _interferer_floor(stats, k)
        factor[:, k - 1] = math.sqrt(powers[k]) * stats.cascaded_gain[k]
    return factor, float(d)


# ---------------------------------------------------------------------------
# Design objective
# ---------------------------------------------------------------------------

def value_key(x) -> tuple:
    """x's value bit for bit as a hashable key, its shape, dtype and bytes:
    two values with equal keys are equal with no tolerance (stricter than
    `np.array_equal`, which takes 0.0 for -0.0), so either one stands in
    for the other."""
    x = np.asarray(x)
    return x.shape, x.dtype.str, x.tobytes()


@dataclass(frozen=True, init=False)
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
    solver scores the L-draw mean pair, which `sample` draws from its exact
    law, for a `stack` of designs at once; `expected` scores the
    closed-form mean pair, for one design or a stack.  One CSI draw is the
    zero-variance law at (g_hat, h_hat) (`ratio`), whose mean pair is the
    draw's own; `value`, `ascent` and `grad` read `expected`.

    The estimate's mean G (Mr, M0) enters only through its factors
    G = g b^H, `g_col` (Mr, R) and `g_row` (M0, R), so G^H v = b (g^H v)
    and G x = g (b^H x) cost O((Mr + M0) R): `from_scenario` holds the
    rank-one cascaded LoS as (g_0, a_tx,0), R = 1, and a general G, given
    as `g_mean` (a single CSI draw, a hand-built law), is held as the pair
    (G, I), R = M0.  `g_mean` reads G back, built on access.

    Baselines reuse this with modified ingredients: a non-robust design
    zeroes the error terms (full-variance sampling, no error constant), a
    design that ignores interference keeps zero columns of F and only the
    noise in d.  The mean fields allow degenerate (deterministic) sampling
    laws for small-instance validation.
    """

    p0: float
    g_col: np.ndarray                   # (Mr, R) g of G = g b^H
    g_row: np.ndarray                   # (M0, R) b
    g_var: float                        # per-element estimate variance
    h_mean: np.ndarray                  # (M0,)
    h_var: float
    err_const: float
    denom_quad: np.ndarray              # (Mr, K) factor F of B = F F^H
    denom_const: float

    def __init__(self, *, p0, g_var, h_mean, h_var, err_const, denom_quad, denom_const,
                 g_mean=None, g_col=None, g_row=None):
        """G comes as its factors `g_col` and `g_row`, or as a general
        `g_mean`, held as (G, I); a given `g_mean` replaces the factors, so
        `replace(objective, g_mean=...)` swaps G."""
        if g_mean is not None:
            g_col, g_row = g_mean, np.eye(np.shape(g_mean)[-1], dtype=complex)
        if denom_quad is None:
            denom_quad = np.zeros((np.shape(g_col)[-2], 0), dtype=complex)
        self.__dict__.update(p0=p0, g_col=g_col, g_row=g_row, g_var=g_var, h_mean=h_mean,
                             h_var=h_var, err_const=err_const, denom_quad=denom_quad,
                             denom_const=denom_const)

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
            g_col=stats.cascaded_gain[0][:, None],
            g_row=stats.bs_steering[0][:, None],
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
        (broadcast, not copied, where every row holds the same value,
        `value_key`); F (S, Mr, K) needs the same K, and G's factors
        (S, Mr, R) and (S, M0, R) the same R, in every design."""
        values = {f.name: [getattr(d, f.name) for d in designs] for f in fields(cls)}
        return cls(**{name: np.asarray(column[0])[None]
                      if len({value_key(a) for a in column}) == 1
                      else np.stack(column) for name, column in values.items()})

    def key(self) -> tuple:
        """Every field's `value_key`: objectives with equal keys give the
        same results bit for bit."""
        return tuple(value_key(getattr(self, f.name)) for f in fields(self))

    @property
    def irs_size(self) -> int:
        return self.g_col.shape[-2]

    @property
    def g_mean(self) -> np.ndarray:
        """The dense G = g b^H, (Mr, M0) (a leading row axis on a `stack`),
        built on each access."""
        return self.g_col @ np.conj(np.swapaxes(self.g_row, -1, -2))

    def _g_adjoint(self, v: np.ndarray) -> np.ndarray:
        """G^H v = b (g^H v), (M0,), for a design (Mr,) or a stack (S, Mr)."""
        return (self.g_row @ np.vecdot(self.g_col, v[..., None], axis=-2)[..., None])[..., 0]

    def _g_apply(self, x: np.ndarray) -> np.ndarray:
        """G x = g (b^H x), (Mr,), for x (M0,) or a stack (S, M0)."""
        return (self.g_col @ np.vecdot(self.g_row, x[..., None], axis=-2)[..., None])[..., 0]

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
        a, which is then 0.  That is Mr + M0 + 1 Gaussian values and one
        gamma value whatever n is, and O(Mr + M0) for G^H v = b (g^H v) and
        G mean_l e_l = g (b^H mean_l e_l) on the rank-one G of
        `from_scenario`: O(Mr*(1 + K) + M0) per row with the ratio.
        """
        if n < 1:
            raise ValueError("at least one sample per iteration is required")
        s, w, nu, r = draws
        v_sq = np.vecdot(v, v).real                                       # ||v||^2
        a_sq = self.g_var * v_sq
        a, b = np.sqrt(a_sq), np.sqrt(self.h_var)                         # sigma_g ||v||, sigma_h
        c_sq = a_sq + self.h_var
        c = np.sqrt(c_sq)
        mean_e = self._g_adjoint(v)                                       # G^H v
        mean_e += self.h_mean
        mean_e += (c / math.sqrt(n))[..., None] * s                       # mean_l e_l
        total = n * np.vecdot(mean_e, mean_e).real + c_sq * r             # T
        # a sum_l z_l^H e_l, the only use of the cross term: 0 with a at c = 0;
        # a positive c is the root of a double, above 1e-162, so the floor replaces c = 0 only
        a_cross = (a / np.maximum(c, _TINY)) * (
            a * (math.sqrt(n) * np.vecdot(s, mean_e) + c * r) + b * np.sqrt(total) * nu)
        spread = np.sqrt(self.g_var * total)                              # sigma_g sqrt(T)
        along = ((a_cross - spread * np.vecdot(v, w))
                 / np.where(v_sq > 0.0, n * v_sq, np.inf))
        ge = self._g_apply(mean_e)                                        # G mean_l e_l
        ge += (spread / n)[..., None] * w
        ge += along[..., None] * v
        return total / n, ge

    def expected(self, v: np.ndarray) -> tuple:
        """E gamma(v) and E ascent(v) over the sampling law, in closed form,
        for one design (Mr,) or a stack (S, Mr), on this objective or, row
        by row, on a `stack` of objectives; each row equals its own call.
        The denominator is draw-free and the ratio is linear in ||e||^2 and
        g_hat e, whose means are, with m = G^H v + h_mean,

            E ||e||^2   = ||m||^2 + M0 (sigma_g^2 ||v||^2 + sigma_h^2)
            E g_hat e   = G m + M0 sigma_g^2 v.
        """
        m0 = self.g_row.shape[-2]
        mean_e = self._g_adjoint(v) + self.h_mean
        power = (np.vecdot(mean_e, mean_e).real
                 + m0 * (self.g_var * np.vecdot(v, v).real + self.h_var))
        mean_ge = self._g_apply(mean_e) + np.asarray(m0 * self.g_var)[..., None] * v
        return self._ratio(v, power, mean_ge)

    def _ratio(self, v: np.ndarray, power, ge: np.ndarray, rho: float = 1.0) -> tuple:
        """gamma(v) and rho times its steepest-ascent direction from one
        pair, ||e||^2 and g_hat e (Mr,), or from one pair per row of a
        `stack`.  The ascent is the conjugate of the formal derivative
        d gamma / d v_n (conjugate coordinates held fixed), so
        gamma(v + dv) ~ gamma(v) + 2 Re{sum_n conj(ascent_n) dv_n}.  Both
        are affine in the pair at fixed v, so a mean pair gives the mean
        value and ascent.  F^H v and B v read the (Mr, K) F, or its
        (S, Mr, K) stack; rho scales the coefficients of g_hat e and of
        F^H v, so B v = F (F^H v) is never built and rescaled."""
        factor = self.denom_quad
        proj = np.vecdot(factor, v[..., None], axis=-2)                       # F^H v
        den = np.vecdot(proj, proj).real + self.denom_const
        value = self.p0 * (power + self.err_const) / den
        weight = rho / den
        ascent = (self.p0 * weight)[..., None] * ge
        ascent -= (factor @ ((value * weight)[..., None] * proj)[..., None])[..., 0]
        return value, ascent

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
# Views of the design objective
# ---------------------------------------------------------------------------

def gamma_ub(v: PhaseLike, sample: CsiSample, stats: ChannelStatistics,
             cfg: ScenarioConfig) -> float:
    """Per-sample objective: p0 * g0 at the matched-filter beamformer over
    the interference-plus-noise power."""
    return DesignObjective.from_scenario(stats, cfg).ratio(sample).value(v)


def gamma_ub_gradient(v: PhaseLike, sample: CsiSample, stats: ChannelStatistics,
                      cfg: ScenarioConfig) -> np.ndarray:
    """Formal complex derivative of gamma_ub per coordinate (see
    `DesignObjective.grad` for the convention)."""
    return DesignObjective.from_scenario(stats, cfg).ratio(sample).grad(v)


def upper_bound_rate_closed_form(v: PhaseLike, stats: ChannelStatistics,
                                 cfg: ScenarioConfig) -> float:
    """log2(1 + E gamma(v)) for one design v of Mr entries, read flattened
    (ValueError for any other length), with the closed-form mean of the
    robust design objective (`DesignObjective.expected`).  The mean is
    exact for any v, relaxed ones included: its numerator is
    p0 * (||glos_0^H v||^2 + M0*(sigma_g^2 ||v||^2 + sigma_h^2)
    + delta2^2 + Mr*delta1^2)."""
    varr, mr = phase_array(v), stats.irs_size
    if len(varr) != mr:
        raise ValueError(f"design has {len(varr)} phase shifts, the IRS has Mr = {mr} elements")
    return _log2_1p(DesignObjective.from_scenario(stats, cfg).expected(varr)[0])


def _log2_1p(x: float) -> float:
    """log2(1 + x) without rounding 1 + x first, which costs low rates
    their last digits."""
    return math.log1p(x) / _LN2


# ---------------------------------------------------------------------------
# Monte Carlo ergodic rate
# ---------------------------------------------------------------------------

BeamformingPolicy = Callable[[np.ndarray], np.ndarray]


def _check_matched_filter(policy, m0: int) -> None:
    """The evaluator reads the matched filter's rate in closed form, so the
    one policy it takes is `beamforming.mrt_policy`'s: on a probe of two
    rows (M0 entries), a generic one and a zero one, the policy must return
    the first row normalized and the first basis vector within 1e-12, or a
    ValueError says it is not the matched filter."""
    probe = np.zeros((2, m0), dtype=complex)
    probe[0] = np.arange(1, m0 + 1) * np.exp(1j * np.arange(m0))
    want = np.zeros_like(probe)
    want[0] = probe[0] / np.linalg.norm(probe[0])
    want[1, 0] = 1.0
    got = np.asarray(policy(probe))
    if got.shape != want.shape or not np.abs(got - want).max() <= 1e-12:  # rejects NaN too
        raise ValueError("the policy is not the matched filter of mrt_policy, "
                         "the only beamformer the evaluator reads")


def ergodic_rates_mc_points(points: Sequence[tuple], n_samples: int,
                            rng: int) -> list[list[RateReport]]:
    """Monte Carlo ergodic rates of a stack of designs at each of several
    points: one list of reports per point, one report per design, in order.

    Each point is (vs, stats, cfg): S unit-modulus phase-shift designs
    (`PhaseShiftVector`s or arrays of Mr entries within 1e-9 of modulus 1;
    `channel.design_stack` names any other design in a ValueError, once
    per point) and the point's statistics and scenario.  Every design is
    read at the matched filter on its estimated combined channel
    e_hat = g_hat^H v + h_hat, the paper's per-slot beamformer.  A slot's
    rate reads only the serving link's combined channels, the true
    x = g_true^H v + h_true and e_hat, and at the matched filter only
    |x^H e_hat|^2 / ||e_hat||^2, which `channel.CombinedChannels` reads off
    per-slot Gram scalars of `PhysicalChannelSampler.slot_draws`, drawn
    from their exact law: at most 11 complex normals and 4 gamma values and
    O(1) work per slot, O(1) per design and slot and O(Mr * (1 + K) + M0)
    per design and evaluation, reading the LoS factors; no (n, Mr) or
    (n, M0) array and no dense LoS is built.  Each 512-sample chunk is
    drawn once per (Mr, M0) shape and read by every design of every point
    of that shape, since they all draw the same values from one seed: a
    point's reports equal those of its own call, the designs of one point
    are paired by construction, and the draw count grows with neither S
    nor Mr nor M0 nor the number of points of one shape.  Each report's own law
    is exact; the joint law across designs is not the physical one, which
    leaves paired differences unbiased and their standard errors valid.
    The signal term uses the true channel; the interference-plus-noise term
    uses its exact expectation, per the worst-case-noise reading of the
    rate: sigma^2 plus the report's powers p_k * gk(v), read off one
    projection F^H v of each design.  Each point builds its robust
    `DesignObjective.from_scenario` once: the (Mr, K) factor F is its
    `denom_quad`, and each report's `ub_rate` is log2(1 + `expected`) of
    that objective on the whole stack, the value
    `upper_bound_rate_closed_form` gives the design alone.  Each point
    keeps one (S, n_samples) array of per-sample rates, whose rows are its
    reports' `rate_samples`, summarized by `RateReport.from_samples`; each
    chunk's signal is written into it and turned into rates in place.
    """
    check_count(n_samples, "n_samples", 2)     # a standard error needs two samples
    laws, terms = [], []            # per point: (powers (S, K), denominators, upper bounds)
    for vs, stats, cfg in points:
        law = CombinedChannels(stats, vs)
        robust = DesignObjective.from_scenario(stats, cfg)
        # p_k * gk(v) = |(F^H v)_k|^2 + p_k * floor_k, (S, K), and the denominators (S,);
        # v^H F row by row, so that no design's bits depend on the designs beside it
        proj = np.vecdot(law.designs[..., None], robust.denom_quad, axis=-2)
        floors = [cfg.powers_watt[k] * _interferer_floor(stats, k) for k in range(1, stats.n_bs)]
        intf = proj.real ** 2 + proj.imag ** 2 + floors
        laws.append(law)
        # the upper bounds come first: no chunk's draws are alive beside them
        terms.append((intf, cfg.noise_watt + np.sum(intf, axis=1),
                      [_log2_1p(x) for x in robust.expected(law.designs)[0]]))
    rates = [np.empty((len(law.designs), n_samples)) for law in laws]
    signal_sums = [np.zeros(len(law.designs)) for law in laws]

    shapes: dict[tuple, list[int]] = {}         # points of one (Mr, M0)
    for p, (_, stats, _) in enumerate(points):
        shapes.setdefault((stats.irs_size, stats.bs_sizes[0]), []).append(p)
    for group in shapes.values():
        # the draws read only the seed and the shape
        sampler = PhysicalChannelSampler(points[group[0]][1], rng)
        for start in range(0, n_samples, _MC_CHUNK):
            stop = min(start + _MC_CHUNK, n_samples)
            draws = sampler.slot_draws(stop - start)
            for p in group:
                # the signal, then the rate, in place in the point's rows
                block = laws[p].matched_filter_signal(draws, out=rates[p][:, start:stop])
                signal_sums[p] += np.sum(block, axis=1)
                block *= points[p][2].powers_watt[0]
                block /= terms[p][1][:, None]
                np.log1p(block, out=block)
                block /= _LN2

    reports = []
    for (_, _, cfg), rows, sums, (intf, _, ub_rates) in zip(points, rates, signal_sums, terms):
        p0 = cfg.powers_watt[0]
        reports.append([
            RateReport.from_samples(row, ub_rate, p0 * signal_sum / n_samples, power,
                                    cfg.noise_watt)
            for ub_rate, row, signal_sum, power in zip(ub_rates, rows, sums, intf)])
    return reports


def ergodic_rate_mc(v: PhaseLike, policy: BeamformingPolicy, stats: ChannelStatistics,
                    cfg: ScenarioConfig, n_samples: int, rng: int) -> RateReport:
    """Monte Carlo ergodic rate of one design at the beamformer `policy`,
    which must be `beamforming.mrt_policy`'s matched filter (any other
    raises a ValueError): `ergodic_rates_mc_points` on one point and a
    stack of one.  It draws the same values as any stack that holds v
    under the same seed and `n_samples`, so its report equals that
    design's row of a stacked evaluation."""
    _check_matched_filter(policy, stats.bs_sizes[0])
    return ergodic_rates_mc_points([([v], stats, cfg)], n_samples, rng)[0][0]
