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

The iterate then moves by the convex combination v <- v + w_t (u - v).
Stepsizes rho_t = t^-a and w_t = t^-b (`stepsize`) with 0.5 < a < b <= 1
satisfy the usual diminishing/summability conditions and w_t/rho_t -> 0.
Iterates live in the relaxed set |v_n| <= 1; the deployed configuration is
the unit-modulus projection of the final iterate.

`run_stack` runs S designs in lockstep as one (S, Mr) iterate and calls the
three steps once per iteration for the whole stack: `DesignObjective.sample`,
`update_coefficients` (v, c0, c1 -> c0, c1) and `solve_surrogate`
(v, c1 -> u); `run` is its stack of one.  It runs every row it is given;
which designs repeat is decided by its caller (`baselines.design_schemes`).
Each step works on whole rows in a few numpy calls and builds its result
in place, leaving its inputs unchanged.  The draws come a block of
iterations at a time; `SscaState` only records the final iterate.

`c1` stores the conjugate (ascent) form of the sampled gradient, which is
what makes the closed-form surrogate maximizer an ascent step; the plain
derivative convention of `DesignObjective.grad` is its conjugate.

The objective gamma, with its sampling law, is `rate.DesignObjective`.
gamma and its ascent are affine in the two quantities they read of a
draw, so the coefficient step reads only their L-draw means, which
`DesignObjective.sample` draws from the exact law its docstring states,
and the rank-one LoS mean G enters through its two factors.  An iteration
then costs O(Mr*(1 + K) + M0), K interferers, whatever L is, below the
paper's O(L*M0*Mr).  The expectation of gamma has a closed form
(`DesignObjective.expected`); the stochastic iteration is the paper's
method, and the closed form its oracle.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .channel import ChannelStatistics
from .config import ScenarioConfig
from .rate import DesignObjective, PhaseLike, PhaseShiftVector, _log2_1p, phase_array
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

    iterations: int = 300               # T
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
    mean_val, c1_new = design._ratio(v, power, ge, rho)
    c1_new += (1.0 - rho) * c1
    return rho * mean_val + (1.0 - rho) * c0, c1_new


def solve_surrogate(v: np.ndarray, c1: np.ndarray, tau_reg: float) -> np.ndarray:
    """Closed-form maximizer of the surrogate around v over |u_n| <= 1: the
    phase of tau * v_n + c1_n per coordinate (tau (S, 1) on a stack).  Zero
    directions keep the phase of v_n (or 1 when v_n is zero too)."""
    if not (np.asarray(tau_reg) > 0).all():
        raise ValueError(f"tau_reg must be positive, got {tau_reg}")
    direction = tau_reg * v
    direction += c1
    mod = np.abs(direction)
    if not mod.all():
        dead = mod == 0.0
        prev = v[dead]
        direction[dead] = np.where(np.abs(prev) > 0, prev, 1.0)
        mod = np.abs(direction)
    direction /= mod
    return direction


def surrogate_value(u: PhaseLike, state: SscaState, tau_reg: float) -> float:
    """f(u) = c0 + 2 Re{(u - v)^H c1} - tau * ||u - v||^2 around the
    state's iterate (audit/verification helper)."""
    du = phase_array(u) - state.v
    linear = 2.0 * float(np.real(np.vdot(du, state.c1)))
    return state.c0 + linear - tau_reg * float(np.real(np.vdot(du, du)))


def project_unit_modulus(v: PhaseLike) -> PhaseShiftVector:
    """Entry-wise projection v_n / |v_n| onto the deployment set; zero
    entries map to 1."""
    return PhaseShiftVector(_unit_modulus(phase_array(v)))


def _unit_modulus(v: np.ndarray) -> np.ndarray:
    """`project_unit_modulus` entry by entry, for a design or a stack."""
    v = np.where(v == 0.0, 1.0, v)
    return v / np.abs(v)


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
    robust = DesignObjective.from_scenario(stats, cfg)
    return run_stack([solver_cfg], [design or robust], probe=robust, audit=audit)[0]


def run_stack(solver_cfgs: Sequence[SolverConfig], designs: Sequence[DesignObjective],
              probe: Optional[DesignObjective] = None,
              audit: bool = False) -> list[SscaResult]:
    """Run S designs in lockstep as one (S, Mr) iterate; one result per
    design.  Row i runs `designs[i]` on the streams of
    `solver_cfgs[i].seed`, whose other fields must agree, with the
    arithmetic of its stack of one: its result does not depend on the rows
    beside it, which may come from other scenarios of the same shape (Mr,
    M0 and K).  Every row given runs, equal rows included: a caller that
    holds repeats runs each distinct design once
    (`baselines.design_schemes`).  Rows that share a seed share its one
    draw stream, drawn once a block and copied to them; a stack whose
    seeds all differ draws one stream per row.  Each row starts at v = 1,
    runs all T iterations, calibrates tau after the first coefficient
    update (`_auto_tau`) and is checked to stay in |v_n| <= 1 after every
    move.  Every `probe_every` iterations the trace records the
    upper-bound rate that `probe` scores at each row's deployed iterate, in
    one call for the whole stack (none without a probe).  Per iteration and distinct seed, whatever L is:
    Mr + M0 + 1 Gaussian values and one gamma value
    (`DesignObjective.sample`), drawn a block of iterations at a time (at
    most `BLOCK_BYTES` of buffers for the whole stack) and equal value for
    value to one draw per iteration; per row, O(Mr + M0) for G^H v and
    G e through the factors of the rank-one LoS mean G = g b^H, and
    O(Mr * K) for the ratio and its gradient, which read F^H v and F times
    its K scaled entries: O(Mr*(1 + K) + M0) in all.  The iterate moves as
    v + omega (v_bar - v) in the array that holds the fixed-point gap's
    step.  Identical configurations and seeds reproduce the iterates
    bit-for-bit.
    """
    if len(solver_cfgs) == 0:
        raise ValueError("a stack needs at least one design")
    solver_cfg = solver_cfgs[0]
    if len(designs) != len(solver_cfgs) or any(
            replace(s, seed=solver_cfg.seed) != solver_cfg for s in solver_cfgs):
        raise ValueError("a stack needs one design per solver setting, and settings "
                         "that differ only in the seed")
    probe_every = solver_cfg.probe_every if probe is not None else 0
    seeds = list(dict.fromkeys(s.seed for s in solver_cfgs))
    design = DesignObjective.stack(designs)
    rows, mr, m0 = len(designs), design.irs_size, design.g_row.shape[-2]
    n, steps = solver_cfg.samples_per_iter, solver_cfg.iterations
    v = np.ones((rows, mr), dtype=complex)
    c0, c1 = np.zeros(rows), np.zeros((rows, mr), dtype=complex)

    # one draw stream per seed, read by every row of that seed
    g_rngs, h_rngs = zip(*(named_child(seed, "solver").spawn(2) for seed in seeds))
    streams = [seeds.index(s.seed) for s in solver_cfgs]
    # per row and iteration: 2 normals and 1 complex a Gaussian value, and 1 gamma
    block = max(1, BLOCK_BYTES // (rows * (32 * (m0 + mr + 1) + 8)))
    draws = zip(crandn_blocks(g_rngs, [(m0,), (mr,), ()], steps, block, streams),  # s, w, nu
                gamma_blocks(h_rngs, m0 * (n - 1), steps, block, streams))         # r
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
        history[0, t - 1], history[1, t - 1] = c0, np.sqrt(np.vecdot(step, step).real)
        if audit:
            for i, entries in enumerate(audits):
                entries.append({"t": t, "v_prev": v[i], "c0": float(c0[i]), "c1": c1[i],
                                "tau_reg": float(tau_reg[i, 0]), "v_bar": v_bar[i]})
        # v + omega (v_bar - v), built in the step array: the audit keeps views of v
        step *= stepsize(t, solver_cfg.omega_exponent)
        step += v
        v = step
        _check_relaxed(v)
        if probe_every and t % probe_every == 0:
            history[2, t - 1] = [_log2_1p(x) for x in probe.expected(_unit_modulus(v))[0]]

    c0s, gaps, probes = history.transpose(0, 2, 1).tolist()
    return [SscaResult(v=project_unit_modulus(v[i]),
                       trace=SscaTrace(list(range(1, steps + 1)), c0s[i], gaps[i], probes[i],
                                       audits[i]),
                       state=SscaState(steps, v[i], float(c0[i]), c1[i]),
                       tau_reg=float(tau_reg[i, 0]))
            for i in range(rows)]
