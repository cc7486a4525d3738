"""Channel statistics and sampling for the IRS-assisted downlink.

Model summary
-------------
BS->IRS and IRS->user links are Rician: a deterministic unit-modulus LoS
matrix mixed with i.i.d. CN(0,1) scattering, weighted by the Rician factor.
BS->user links are Rayleigh.  The cascaded BS k -> IRS -> user channel is

    G_k = diag(conj(h_ru)) H_kr            # (Mr, Mk)

whose LoS component is sqrt(a_kr * a_ru * tau_k) diag(conj(los_ru)) los_kr
with tau_k = K_kr*K_ru / ((K_kr+1)(K_ru+1)).  Per element, the zero-mean
part of G_k has variance a_kr * a_ru * (1 - tau_k).  Every LoS link is rank
one, los_kr = a_rx,k a_tx,k^H, so the cascaded LoS is g_k a_tx,k^H with
g_k = sqrt(a_kr * a_ru * tau_k) conj(los_ru) * a_rx,k.  `ChannelStatistics`
stores these factors, O(Mr + Mk) values per BS; the dense (Mr, Mk)
matrices are views built on access for the oracles, and the solver and the
evaluator read only the factors.

The serving BS estimates its cascaded and direct channels each slot.
Estimation errors are i.i.d. CN(0, delta1^2) / CN(0, delta2^2) per element
(absolute channel units; `build_statistics` converts normalized inputs).

Three sampling routes exist, each for one consumer:

* `rate.DesignObjective.sample` (solver) draws what the phase-shift
  solver's objective reads of L estimates from the Gaussian model it
  optimizes over: cascaded-estimate entries centered on the cascaded LoS
  with variance sigma_g^2 - delta1^2, direct-estimate entries zero-mean
  with variance sigma_h^2 - delta2^2.  Its docstring states the exact law.
* `sample_estimated_csi` (one draw) takes a single estimate from the same
  Gaussian model, for single-draw objective and beamformer checks.
* `PhysicalChannelSampler` draws the Rician/Rayleigh fading
  physically and splits each serving-link channel into estimate + error,
  with the error built from the channel's own scattered part plus fresh
  Gaussian noise (`_split_law` holds the share and the noise variance,
  for both outputs) so that (a) estimate + error reconstructs the drawn
  channel exactly, (b) the error has per-element variance delta^2, and (c)
  the error is uncorrelated with the estimate, whose per-element variance
  is then sigma^2 - delta^2 as in the Gaussian model.  For the Rayleigh
  direct link the split is exact (independent Gaussian parts); the
  cascaded channel is a product of Gaussians, so the two models still
  differ in higher moments.  It has two outputs:

  - `slot_draws(n)` (the Monte Carlo evaluator's route) draws only
    standard values that no design and no point of one (Mr, M0) shape
    changes: at most 11 complex normals and 4 gamma values per slot,
    whatever Mr and M0 are.  `CombinedChannels` turns them into what the
    matched-filter rate reads of one point's stack of unit-modulus
    designs, checked once by `design_stack`, the one check the evaluator
    shares: the true and estimated combined channels x = g_true^H v + h_true
    and e_hat = g_hat^H v + h_hat, with the exact law of each design.
    Given h_ru, the scattered part of H_0r projects onto u = h_ru * v as
    CN(0, ||u||^2 I), and h_ru itself enters only through
    ||u||^2 = ||h_ru||^2 and the scalar LoS projection
    t = (v * conj(a_rx))^T h_ru (H_0r's LoS a_rx a_tx^H is rank one); that
    pair is drawn from its exact joint law with 2 complex normals and 1
    gamma value per slot.  Both combined channels then lie in the span of
    the LoS row and three standard CN(0, I_M0) vectors (the scatter z, the
    direct channel d and one error noise N), so the rate reads them
    through per-slot Gram scalars and O(1) arithmetic per design and slot.
    Those scalars are drawn from their exact joint law, not as M0-vectors:
    each vector's two coordinates in the plane of the LoS row and e_1, and
    the Bartlett factor of the three vectors' Gram matrix over the other
    M0 - 2 coordinates.  No (n, Mr) or (n, M0) array is built.
  - `draw(n)` returns the full (n, Mr, M0) channels, errors and, on
    request, the interferers' links, every Rician link from the one law
    of `_rician`; it is the oracle for the interference-power check and
    for the tests of `CombinedChannels`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import ScenarioConfig
from .streams import crandn, named_children

_UNIT_MODULUS_TOL = 1e-12
DESIGN_MODULUS_TOL = 1e-9       # largest | |v_j| - 1 | of a deployable design


def compute_path_loss(distance: float, exponent: float, link: str = "link") -> float:
    """Linear large-scale power gain 1 / (1000 * d^exp).

    Equivalently -30 - 10*exp*log10(d) dB of gain.  A distance or an
    exponent that is not positive, or a gain that leaves the positive,
    finite floats, raises a ValueError naming the `link`.
    """
    try:
        gain = 1.0 / (1000.0 * distance ** exponent) if distance > 0 and exponent > 0 else 0.0
    except (OverflowError, ZeroDivisionError):      # d^exp above or below float range
        gain = 0.0
    if not 0 < gain < math.inf:                     # rejects NaN too
        raise ValueError(f"{link}: no positive, finite gain at {distance} m, exponent {exponent}")
    return gain


def rician_combination_factor(k_br: float, k_ru: float) -> float:
    """Fraction of cascaded-channel power carried by the LoS product,
    K_br*K_ru / ((K_br+1)(K_ru+1)).  Infinite factors are the pure-LoS
    limit of the corresponding link."""
    for k in (k_br, k_ru):
        if not k >= 0:
            raise ValueError(f"Rician factors must be >= 0, got {k}")
    return _rician_los_power(k_br) * _rician_los_power(k_ru)


def _rician_los_power(k: float) -> float:
    """K/(K+1), continuous at K = +inf."""
    return 1.0 if math.isinf(k) else k / (k + 1.0)


def rician_weights(k: float) -> tuple[float, float]:
    """Amplitude weights (LoS, NLoS) = (sqrt(K/(K+1)), sqrt(1/(K+1)))."""
    los_power = _rician_los_power(k)
    return math.sqrt(los_power), math.sqrt(1.0 - los_power)


def steering_vector(azimuth: float, elevation: float, grid: tuple[int, int],
                    spacing: float) -> np.ndarray:
    """Planar-wavefront steering vector of an (M, N) rectangular array.

    Element (m, n), zero-based, gets phase
    2*pi*spacing*(m*sin(el)*cos(az) + n*sin(el)*sin(az)); the grid is
    vectorized row-major.  Every entry has unit modulus.
    """
    m_rows, n_cols = grid
    if m_rows < 1 or n_cols < 1:
        raise ValueError(f"grid axes must be >= 1, got {grid}")
    if not spacing > 0:                             # rejects NaN too
        raise ValueError(f"element spacing must be positive, got {spacing}")
    m = np.arange(m_rows)[:, None]
    n = np.arange(n_cols)[None, :]
    phase = 2.0 * np.pi * spacing * (
        m * np.sin(elevation) * np.cos(azimuth)
        + n * np.sin(elevation) * np.sin(azimuth)
    )
    return np.exp(1j * phase).reshape(-1)


@dataclass(frozen=True)
class ChannelStatistics:
    """Derived large-scale state shared by the solver and the evaluator.

    Index 0 of per-BS arrays is the serving BS.  Every LoS link is rank one
    and is stored as its factors, O((Mr + Mk) n_bs) values in all: the
    BS k -> IRS LoS is a_rx,k a_tx,k^H (`irs_steering[k]` (Mr,),
    `bs_steering[k]` (Mk,), unit-modulus steering vectors with
    a_tx,k[0] = 1), and the cascaded LoS is g_k a_tx,k^H with
    g_k = sqrt(alpha_bs_irs[k] * alpha_irs_user * tau[k])
    conj(los_irs_user) * a_rx,k (`cascaded_gain[k]`, derived here, exactly
    0 at tau_k = 0).  The dense (Mr, Mk) matrices `los_bs_irs` and
    `cascaded_los` are built on access, for the oracles that read them;
    the solver and the evaluator read the factors only.
    """

    bs_sizes: tuple[int, ...]               # antennas per BS
    irs_size: int                           # reflecting elements
    alpha_direct: np.ndarray                # (n_bs,) BS->user power gains
    alpha_bs_irs: np.ndarray                # (n_bs,) BS->IRS power gains
    alpha_irs_user: float                   # IRS->user power gain
    tau: np.ndarray                         # (n_bs,) cascaded LoS power fractions
    irs_steering: tuple[np.ndarray, ...]    # (Mr,) per BS: a_rx,k
    bs_steering: tuple[np.ndarray, ...]     # (Mk,) per BS: a_tx,k
    los_irs_user: np.ndarray                # (Mr,)
    sigma_g_sq: np.ndarray                  # (n_bs,) per-element cascaded NLoS variance
    delta1_abs: float                       # cascaded error std, absolute units
    delta2_abs: float                       # direct error std, absolute units
    rician_bs_irs: tuple[float, ...] = ()
    rician_irs_user: float = 0.0
    cascaded_gain: tuple[np.ndarray, ...] = field(init=False)   # (Mr,) per BS: g_k

    def __post_init__(self):
        for name in ("alpha_direct", "alpha_bs_irs", "tau", "sigma_g_sq"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        for vec in self.irs_steering + self.bs_steering:
            if not (np.max(np.abs(np.abs(vec) - 1.0)) <= _UNIT_MODULUS_TOL):
                raise ValueError("BS->IRS LoS entries must have unit modulus")
        if not (np.max(np.abs(np.abs(self.los_irs_user) - 1.0)) <= _UNIT_MODULUS_TOL):
            raise ValueError("IRS->user LoS entries must have unit modulus")
        if np.any(self.tau < 0) or np.any(self.tau > 1 + 1e-15):
            raise ValueError("tau must lie in [0, 1]")
        if np.any(self.alpha_direct < 0) or np.any(self.alpha_bs_irs < 0):
            raise ValueError("large-scale gains must be non-negative")
        if not (self.delta1_abs >= 0 and self.delta2_abs >= 0):     # rejects NaN too
            raise ValueError("error std-devs must be non-negative")
        # every sampler derives an estimate variance sigma^2 - delta^2 from
        # these; the tiny relative slack lets delta == sigma round-trip
        # through the sqrt of a normalized delta
        for name, delta, sigma_sq in (("delta1", self.delta1_abs, self.sigma_g_sq[0]),
                                      ("delta2", self.delta2_abs, self.sigma_h_sq)):
            if delta ** 2 > sigma_sq * (1 + 1e-12):
                raise ValueError(
                    f"{name}^2 = {delta ** 2:.3e} exceeds the per-element channel "
                    f"variance {sigma_sq:.3e}: error variances exceed channel variances")
        ru = self.los_irs_user.conj()
        object.__setattr__(self, "cascaded_gain", tuple(
            math.sqrt(self.alpha_bs_irs[k] * self.alpha_irs_user * self.tau[k]) * (ru * a_rx)
            for k, a_rx in enumerate(self.irs_steering)))

    @property
    def n_bs(self) -> int:
        return len(self.bs_sizes)

    @property
    def los_bs_irs(self) -> tuple[np.ndarray, ...]:
        """The dense BS k -> IRS LoS a_rx,k a_tx,k^H, (Mr, Mk) per BS, built
        on each access."""
        return tuple(np.outer(a_rx, a_tx.conj())
                     for a_rx, a_tx in zip(self.irs_steering, self.bs_steering))

    @property
    def cascaded_los(self) -> tuple[np.ndarray, ...]:
        """The dense cascaded LoS g_k a_tx,k^H, (Mr, Mk) per BS, built on
        each access."""
        return tuple(np.outer(g, a_tx.conj())
                     for g, a_tx in zip(self.cascaded_gain, self.bs_steering))

    @property
    def sigma_h_sq(self) -> float:
        """Per-element variance of the serving direct channel."""
        return float(self.alpha_direct[0])

    @property
    def estimate_g_var(self) -> float:
        """Per-element variance of the estimated cascaded channel, clamped
        at zero against rounding when delta1 saturates the channel std."""
        return max(float(self.sigma_g_sq[0]) - self.delta1_abs ** 2, 0.0)

    @property
    def estimate_h_var(self) -> float:
        """Per-element variance of the estimated direct channel, clamped at
        zero against rounding when delta2 saturates the channel std."""
        return max(self.sigma_h_sq - self.delta2_abs ** 2, 0.0)


def build_statistics(cfg: ScenarioConfig) -> ChannelStatistics:
    """Derive all large-scale state from a scenario.

    Raises ValueError (from `ChannelStatistics`) when the configured error
    std-devs exceed what the channel variances allow (the estimate variance
    would be negative).
    """
    n = cfg.n_bs
    alpha_direct = np.array([compute_path_loss(cfg.d_bs_user(k), cfg.exp_direct, f"BS {k}-user")
                             for k in range(n)])
    alpha_bs_irs = np.array([compute_path_loss(cfg.d_bs_irs(k), cfg.exp_bs_irs, f"BS {k}-IRS")
                             for k in range(n)])
    alpha_irs_user = compute_path_loss(cfg.d_irs_user, cfg.exp_irs_user, "IRS-user")
    tau = np.array([rician_combination_factor(cfg.rician_bs_irs[k], cfg.rician_irs_user)
                    for k in range(n)])

    # the one place angles leave the config's degrees
    los_irs_user = steering_vector(*map(math.radians, cfg.angles_irs_user_deg),
                                   cfg.irs_grid, cfg.spacing)
    angles_bs_irs = [tuple(map(math.radians, pair)) for pair in cfg.angles_bs_irs_deg]
    # the factors a_rx,k and a_tx,k of each BS k -> IRS LoS a_rx,k a_tx,k^H
    irs_steering = tuple(steering_vector(*angles, cfg.irs_grid, cfg.spacing)
                         for angles in angles_bs_irs)
    bs_steering = tuple(steering_vector(*angles, grid, cfg.spacing)
                        for angles, grid in zip(angles_bs_irs, cfg.bs_grids))
    sigma_g_sq = alpha_bs_irs * alpha_irs_user * (1.0 - tau)

    sigma_h_sq = float(alpha_direct[0])
    if cfg.error_units == "normalized":
        delta1_abs = cfg.delta1 * math.sqrt(sigma_g_sq[0])
        delta2_abs = cfg.delta2 * math.sqrt(sigma_h_sq)
    else:
        delta1_abs = cfg.delta1
        delta2_abs = cfg.delta2

    return ChannelStatistics(
        bs_sizes=cfg.bs_sizes,
        irs_size=cfg.irs_size,
        alpha_direct=alpha_direct,
        alpha_bs_irs=alpha_bs_irs,
        alpha_irs_user=float(alpha_irs_user),
        tau=tau,
        irs_steering=irs_steering,
        bs_steering=bs_steering,
        los_irs_user=los_irs_user,
        sigma_g_sq=sigma_g_sq,
        delta1_abs=float(delta1_abs),
        delta2_abs=float(delta2_abs),
        rician_bs_irs=cfg.rician_bs_irs,
        rician_irs_user=cfg.rician_irs_user,
    )


# ---------------------------------------------------------------------------
# Samples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CsiSample:
    """One slot of serving-link CSI as seen by the serving BS."""
    g_hat: np.ndarray                       # estimated cascaded channel, (Mr, M0)
    h_hat: np.ndarray                       # estimated direct channel, (M0,)


@dataclass(frozen=True)
class PhysicalBatch:
    """Vectorized physical-channel draws; leading axis is the sample index."""
    g_true: np.ndarray                      # (n, Mr, M0)
    h_true: np.ndarray                      # (n, M0)
    g_err: np.ndarray                       # (n, Mr, M0)
    h_err: np.ndarray                       # (n, M0)
    interference: Optional[tuple] = None    # per interferer: (g, h_direct, h_own)


def design_stack(vs, irs_size: int) -> np.ndarray:
    """The phase-shift designs vs, a (S, Mr) array or a sequence of S
    designs (`PhaseShiftVector`s or arrays, each read flattened), as one
    complex (S, Mr) stack.  Every design must have Mr finite entries within
    DESIGN_MODULUS_TOL of modulus 1, since the evaluator's draws are exact
    for unit-modulus designs only; ValueError names the first that does
    not, and an empty stack raises too."""
    rows = [np.asarray(getattr(v, "v", v), dtype=complex).reshape(-1) for v in vs]
    if not rows:
        raise ValueError("no designs to evaluate")
    for i, v in enumerate(rows):
        if v.shape[0] != irs_size:
            raise ValueError(f"design {i} has {v.shape[0]} phase shifts, "
                             f"the IRS has Mr = {irs_size} elements")
    stack = np.stack(rows)
    # one pass over the stack; the not-form rejects NaN too
    bad = ~np.all(np.abs(np.abs(stack) - 1.0) <= DESIGN_MODULUS_TOL, axis=1)
    if np.any(bad):
        i = int(np.argmax(bad))
        if not np.all(np.isfinite(stack[i])):
            raise ValueError(f"design {i} has non-finite phase shifts")
        raise ValueError(f"design {i} is not unit-modulus; the evaluator's "
                         "draws are exact for unit-modulus designs only")
    return stack


def _split_law(sigma_sq: float, delta_sq: float) -> tuple[float, float]:
    """How a channel of per-element zero-mean variance sigma_sq splits into
    estimate + error with error variance delta_sq: the error is a share
    min(delta^2/sigma^2, 1) of the channel's own zero-mean part plus
    independent CN(0, delta^2 (1 - share)) noise; returns (share, noise
    variance).  The error is then uncorrelated with the estimate, whose
    variance is sigma^2 - delta^2, and for Gaussian channels exactly
    independent of it.  `ChannelStatistics` bounds delta^2 by
    sigma^2 (1 + 1e-12), so the clamp only removes rounding: at
    delta = sigma the share is exactly 1 and the noise variance exactly 0,
    and the estimate of a channel without a mean is exactly zero rather
    than a rounding residue the matched filter would normalize."""
    share = 0.0 if sigma_sq == 0.0 else min(delta_sq / sigma_sq, 1.0)
    return share, delta_sq * (1.0 - share)


class PhysicalChannelSampler:
    """Physical Rician/Rayleigh sampler: `slot_draws` feeds the Monte Carlo
    evaluator (through `CombinedChannels`), `draw` the interference oracle
    and the tests.

    Each drawn quantity has its own named stream, so draws of one quantity
    are unaffected by shape changes in another (common-random-number
    pairing across sweeps) and by whether interference is requested.
    """

    def __init__(self, stats: ChannelStatistics, rng: int,
                 include_interference: bool = False):
        self._stats = stats
        self._include_interference = include_interference
        names = ["irs-user", "irs-user/gamma", "bs-irs/0", "direct/0", "err/g", "err/h",
                 "scatter/head", "direct/head", "error/head", "bartlett/diag", "bartlett/off"]
        if include_interference:
            for k in range(1, stats.n_bs):
                names += [f"bs-irs/{k}", f"direct/{k}", f"own/{k}"]
        self._streams = named_children(rng, names)

    def _rician(self, name: str, alpha: float, k: float, los: np.ndarray,
                n: int) -> np.ndarray:
        """sqrt(alpha) * (w_los * los + w_nlos * CN(0,1)), (n, *los.shape),
        the scatter drawn from stream `name`: a Rician link of large-scale
        gain alpha and Rician factor k."""
        w_los, w_nlos = rician_weights(k)
        scatter = crandn(self._streams[name], (n, *los.shape), 1.0)
        return math.sqrt(alpha) * (w_los * los + w_nlos * scatter)

    @staticmethod
    def _split_error(centered: np.ndarray, sigma_sq: float, delta_sq: float,
                     stream: np.random.Generator) -> np.ndarray:
        """The error of `_split_law` for a channel whose zero-mean part is
        `centered`, its noise drawn from `stream`."""
        share, noise_var = _split_law(sigma_sq, delta_sq)
        return share * centered + crandn(stream, centered.shape, noise_var)

    def draw(self, n: int) -> PhysicalBatch:
        s = self._stats
        m0 = s.bs_sizes[0]
        los_bs_irs = s.los_bs_irs                               # the dense views, built once

        # shared by every cascaded link of the slot
        h_ru = self._rician("irs-user", s.alpha_irs_user, s.rician_irs_user,
                            s.los_irs_user, n)

        h_bs_irs0 = self._rician("bs-irs/0", s.alpha_bs_irs[0], s.rician_bs_irs[0],
                                 los_bs_irs[0], n)
        g_true = h_ru.conj()[:, :, None] * h_bs_irs0          # diag(h_ru^H) H_0r
        h_true = crandn(self._streams["direct/0"], (n, m0), s.alpha_direct[0])
        g_err = self._split_error(g_true - s.cascaded_los[0][None],
                                  float(s.sigma_g_sq[0]), s.delta1_abs ** 2,
                                  self._streams["err/g"])
        h_err = self._split_error(h_true, s.sigma_h_sq, s.delta2_abs ** 2,
                                  self._streams["err/h"])

        interference = None
        if self._include_interference:
            per_k = []
            for k in range(1, s.n_bs):
                h_bs_irs = self._rician(f"bs-irs/{k}", s.alpha_bs_irs[k], s.rician_bs_irs[k],
                                        los_bs_irs[k], n)
                g_k = h_ru.conj()[:, :, None] * h_bs_irs
                h_k = crandn(self._streams[f"direct/{k}"], (n, s.bs_sizes[k]),
                             s.alpha_direct[k])
                # own-user link enters only through its direction (MRT), so a
                # unit per-element variance stands in for its large-scale gain
                h_own = crandn(self._streams[f"own/{k}"], (n, s.bs_sizes[k]), 1.0)
                per_k.append((g_k, h_k, h_own))
            interference = tuple(per_k)

        return PhysicalBatch(g_true=g_true, h_true=h_true, g_err=g_err, h_err=h_err,
                             interference=interference)

    def slot_draws(self, n: int) -> "SlotDraws":
        """The Monte Carlo evaluator's draws for n slots: standard values that
        no design and no point of this (Mr, M0) shape changes, which
        `CombinedChannels` scales to one point's law.  Per slot that is
        2 + 3 * min(M0, 2) + 3 <= 11 complex normals and 4 gamma values,
        whatever Mr, M0 and the designs are; `SlotDraws` states their law."""
        s = self._stats
        m0 = s.bs_sizes[0]
        head, tail = min(m0, 2), max(m0 - 2, 0)
        streams = self._streams
        vectors = np.zeros((3, n, 5), dtype=complex)            # z, d, N
        for vector, name in zip(vectors, ("scatter/head", "direct/head", "error/head")):
            vector[:, :head] = crandn(streams[name], (n, head), 1.0)
        # the Bartlett factor R of the tail: |R_jj|^2 ~ Gamma(tail - j) and
        # R_ij ~ CN(0, 1) for i < j, in rows i < tail only
        diag = np.sqrt(streams["bartlett/diag"].standard_gamma(
            np.maximum(tail - np.arange(3), 0), (n, 3)))
        upper = crandn(streams["bartlett/off"], (n, 3), 1.0) * (tail > np.array([0, 0, 1]))
        z, d, noise = vectors                                   # each gets its column of R
        z[:, 2] = diag[:, 0]
        d[:, 2], d[:, 3] = upper[:, 0], diag[:, 1]
        noise[:, 2], noise[:, 3], noise[:, 4] = upper[:, 1], upper[:, 2], diag[:, 2]
        return SlotDraws(
            zeta=crandn(streams["irs-user"], (2, n), 1.0),
            gamma=streams["irs-user/gamma"].standard_gamma(max(s.irs_size - 2, 0), n),
            scatter=z, direct=d, error=noise)


@dataclass(frozen=True)
class SlotDraws:
    """One chunk of the evaluator's standard draws (`slot_draws`), shared by
    every design and every point of one (Mr, M0) shape.

    The scatter z, the direct channel d and the error noise N are i.i.d.
    CN(0, I_M0), held as five coordinates each whose inner products are
    those of the M0-vectors.  Take an orthonormal basis of C^M0 whose first
    two vectors are q1 = r / ||r|| and q2, spanning the LoS row r of
    `CombinedChannels` and e_1 (q1 alone when M0 = 1).  The two leading
    coordinates of a vector are its coordinates along q1 and q2, CN(0, 1)
    each (the second is 0 when M0 = 1).  The other M0 - 2 coordinates of
    the three vectors, the columns of an (M0 - 2, 3) matrix A, enter only
    through the complex-Wishart Gram matrix A^H A = R^H R of A = V R, with
    V an isometry and R upper triangular, independent of V with
    |R_jj|^2 ~ Gamma(M0 - 2 - j, 1) and R_ij ~ CN(0, 1) for i < j
    (Bartlett 1933; Goodman 1963 for the complex case), its rows
    i >= M0 - 2 zero.  The last three coordinates of z, d and N are
    columns 0, 1 and 2 of R."""
    zeta: np.ndarray                        # (2, n) CN(0, 1): h_ru along q and across it
    gamma: np.ndarray                       # (n,) Gamma(max(Mr - 2, 0), 1): the rest of ||h_ru||^2
    scatter: np.ndarray                     # (n, 5): z, H_0r's scatter seen through u
    direct: np.ndarray                      # (n, 5): d, h_true over its per-element std
    error: np.ndarray                       # (n, 5): N, the error noise over its std


class CombinedChannels:
    """The serving link's combined channels at one point for a stack of
    unit-modulus designs vs (S, Mr), x = g_true^H v + h_true and
    e_hat = g_hat^H v + h_hat, distributed as `PhysicalChannelSampler.draw`
    would give them, and read through per-slot scalars: no (n, Mr) or
    (n, M0) array is built.

    With u = h_ru * v and X the i.i.d. CN(0, 1) scatter of H_0r,
    X^H u ~ CN(0, ||u||^2 I), so g_true^H v = y = a r + b z with
    z ~ CN(0, I_M0), a = sqrt(a_0r) w_los t and b = sqrt(a_0r) w_nlos ||h_ru||.
    L = a_rx a_tx^H is rank one, so L^H u = t * r for the scalar
    t = (v * conj(a_rx))^T h_ru and the unit-modulus row r = a_tx, and a
    unit-modulus v gives ||u|| = ||h_ru||: `irs_user_scalars` reads that
    (t, ||h_ru||^2) pair off `SlotDraws` with its exact law.  `_split_law`
    carried through the projection gives
    e_hat = (1 - s) y + s l + k, s = delta1^2 / sigma_g^2, where
    l = glos_0^H v is the design's only vector and
    k = (1 - s_h) h_true - sigma_g' N_g - sigma_h' N_h is the same for
    every design: the error noises N_g, N_h ~ CN(0, I), with
    sigma_g'^2 = delta1^2 (1 - s) ||v||^2 and ||v||^2 = Mr.  The two noises
    enter only through their sum, which has the law of sigma' N with
    sigma'^2 = sigma_g'^2 + sigma_h'^2 and one N ~ CN(0, I); h_true is
    sqrt(a_0) d.  glos_0 = g_0 a_tx^H is rank one too, so l = lam * r with
    lam = g_0^H v, and both vectors lie in two-vector spans plus one
    design-free vector:

        x = a r + b z + h_true,     e_hat = alpha r + beta z + k,
        alpha = (1 - s) a + s lam,  beta = (1 - s) b.

    The matched-filter rate reads them only through x^H e_hat and
    ||e_hat||^2, and so through the per-slot Gram scalars of r, z, d and N,
    which no design changes, and the fallback beam through e_1^H x
    (`matched_filter_signal`); `SlotDraws` holds what those scalars read,
    five coordinates per vector, drawn from their exact joint law.  Every
    design of the stack, and every point of one (Mr, M0) shape, reads the
    same draws; each design's law is exact, and its joint law with the
    others is not the physical one, but they stay paired.
    """

    # designs per block in `matched_filter_signal`: each design adds about
    # seven (n,) arrays to a block's peak, so past one full block a design
    # may grow the heap by its result row and its stack row only (a heap
    # guard budgets that growth in bytes)
    _BLOCK = 2

    def __init__(self, stats: ChannelStatistics, vs):
        s = stats
        mr = s.irs_size
        self.designs = design_stack(vs, mr)         # the one check of the stack
        w_los, w_nlos = rician_weights(s.rician_bs_irs[0])
        self._los_gain = math.sqrt(s.alpha_bs_irs[0]) * w_los
        self._scatter_gain = math.sqrt(s.alpha_bs_irs[0]) * w_nlos
        # L = a_rx a_tx^H, so h_ru @ (v[:, None] * conj(L)) = t * row with
        # t = (v * conj(a_rx))^T h_ru and row = a_tx
        a_rx, row = s.irs_steering[0], s.bs_steering[0]
        self._row_sq = float(np.vdot(row, row).real)
        self._row_norm = math.sqrt(self._row_sq)    # r^H w = ||r|| w_1 in `SlotDraws`' basis
        # e_1 = c1 q1 + c2 q2, so e_1^H w = conj(c1) w_1 + c2 w_2 and e_1^H r = row[0]
        c1 = row[0].conjugate() / self._row_norm
        self._first_axis = np.array([c1.conjugate(), math.sqrt(max(1.0 - abs(c1) ** 2, 0.0))])
        self._row_first = row[0]
        # l = glos_0^H v = lam * row with lam = g_0^H v, (S,), row by row:
        # a product over the stack would round a row by the rows beside it
        self._lam = np.vecdot(s.cascaded_gain[0], self.designs)
        self._share_g, n_g_var = _split_law(float(s.sigma_g_sq[0]), s.delta1_abs ** 2)
        share_h, n_h_var = _split_law(s.sigma_h_sq, s.delta2_abs ** 2)
        # d to h_true, k's keep of h_true, and N to the summed error noises
        self._direct_scales = (math.sqrt(s.alpha_direct[0]), 1.0 - share_h,
                               math.sqrt(n_g_var * mr + n_h_var))

        # h_ru = mu + scale * xi; q = conj(v * conj(a_rx)) / sqrt(Mr)
        w_los, w_nlos = rician_weights(s.rician_irs_user)
        mean = math.sqrt(s.alpha_irs_user) * w_los * s.los_irs_user          # mu
        self._ru_scale = math.sqrt(s.alpha_irs_user) * w_nlos
        self._ru_along = np.vecdot(a_rx * mean.conj(), self.designs) / math.sqrt(mr)  # q^H mu
        self._ru_across = None if mr == 1 else np.sqrt(np.maximum(
            float(np.vdot(mean, mean).real) - np.abs(self._ru_along) ** 2, 0.0))

    def irs_user_scalars(self, draws: SlotDraws, rows=slice(None)
                         ) -> tuple[np.ndarray, np.ndarray]:
        """What the serving link reads of h_ru, for the designs v of
        `designs[rows]`: per slot, t = b^T h_ru with b = v * conj(a_rx),
        a_rx = irs_steering[0], and ||h_ru||^2, both (S', n), from
        their exact joint law.

        Write h_ru = mu + s * xi with xi ~ CN(0, I), and q = conj(b)/sqrt(Mr),
        a unit vector.  Then q^H h_ru = c + s * zeta1 with c = q^H mu, and
        the part of h_ru orthogonal to q splits into its component along
        (I - q q^H) mu, m_perp + s * zeta2 with m_perp = sqrt(||mu||^2 - |c|^2),
        and Mr - 2 components s * CN(0, 1), whose squared norm is
        s^2 * Gamma with Gamma ~ Gamma(Mr - 2, 1).  So t = sqrt(Mr) (c + s zeta1)
        and ||h_ru||^2 = |c + s zeta1|^2 + |m_perp + s zeta2|^2 + s^2 Gamma;
        Mr = 1 has no zeta2 term and Mr <= 2 no Gamma term (Gamma(0) is the
        point mass at 0).  Every design projects the one (zeta1, zeta2,
        Gamma) of the slot with its own c.
        """
        zeta1, zeta2 = draws.zeta
        scale = self._ru_scale
        along = self._ru_along[rows, None] + scale * zeta1                  # q^H h_ru
        norm_sq = along.real ** 2 + along.imag ** 2 + scale ** 2 * draws.gamma
        if self._ru_across is not None:
            across = self._ru_across[rows, None] + scale * zeta2
            norm_sq += across.real ** 2 + across.imag ** 2
        return math.sqrt(self.designs.shape[1]) * along, norm_sq

    def slot_scalars(self, draws: SlotDraws) -> dict:
        """The per-slot scalars of this point that no design changes, each (n,):
        r^H z, r^H h_true and r^H k ("rz", "rh", "rk"), ||z||^2, z^H k,
        h_true^H z, h_true^H k and ||k||^2 ("zz", "zk", "hz", "hk", "kk"),
        and e_1^H z and e_1^H h_true ("z0", "h0"), read off the five
        coordinates of `SlotDraws`."""
        direct, keep, noise = self._direct_scales
        z = draws.scatter
        h_true = direct * draws.direct
        k = keep * h_true - noise * draws.error
        norm = self._row_norm
        return {"rz": norm * z[:, 0], "rh": norm * h_true[:, 0], "rk": norm * k[:, 0],
                "zz": np.vecdot(z, z).real, "zk": np.vecdot(z, k), "hz": np.vecdot(h_true, z),
                "hk": np.vecdot(h_true, k), "kk": np.vecdot(k, k).real,
                "z0": z[:, :2] @ self._first_axis, "h0": h_true[:, :2] @ self._first_axis}

    def matched_filter_signal(self, draws: SlotDraws,
                              out: Optional[np.ndarray] = None) -> np.ndarray:
        """|x^H w|^2 per slot for every design, (S, n), at the matched filter
        w = e_hat / ||e_hat||: |x^H e_hat|^2 / ||e_hat||^2, and |x_0|^2 where
        e_hat = 0, the first-basis-vector beam of `beamforming.mrt_policy`.
        Written into `out` when given.

        Both inner products are read off the scalars of `slot_scalars` (see
        the class docstring): with e_r = r^H e_hat and e_z = z^H e_hat,
        x^H e_hat = conj(a) e_r + b e_z + alpha conj(r^H h_true)
        + beta h_true^H z + h_true^H k and
        ||e_hat||^2 = Re(conj(alpha) (e_r + r^H k)) + beta Re(e_z + z^H k)
        + ||k||^2.  The designs go `_BLOCK` at a time, each block's arrays
        freed before the next, so no array grows with S beyond the result."""
        scalars = self.slot_scalars(draws)
        if out is None:
            out = np.empty((self.designs.shape[0], draws.gamma.shape[0]))
        for first in range(0, out.shape[0], self._BLOCK):
            rows = slice(first, first + self._BLOCK)
            self._block_signal(draws, scalars, rows, out[rows])
        return out

    def _block_signal(self, draws: SlotDraws, g: dict, rows: slice,
                      signal: np.ndarray) -> None:
        """`matched_filter_signal` of the designs `designs[rows]`, into `signal`."""
        keep, share = 1.0 - self._share_g, self._share_g
        a, b = self.irs_user_scalars(draws, rows)
        a *= self._los_gain
        b = np.sqrt(b, out=b)
        b *= self._scatter_gain
        alpha = keep * a
        alpha += (share * self._lam[rows])[:, None]
        beta = keep * b
        e_r = alpha * self._row_sq
        e_r += beta * g["rz"]
        e_r += g["rk"]
        e_z = alpha * g["rz"].conj()
        e_z += beta * g["zz"]
        e_z += g["zk"]
        cross = a.conj() * e_r
        cross += b * e_z
        cross += alpha * g["rh"].conj()
        cross += beta * g["hz"]
        cross += g["hk"]
        e_r += g["rk"]
        e_z += g["zk"]
        power = (alpha.conj() * e_r).real
        power += beta * e_z.real
        power += g["kk"]
        live = power > 0.0
        np.divide(cross.real ** 2 + cross.imag ** 2, power, out=signal, where=live)
        if not np.all(live):
            dead, slot = np.nonzero(~live)
            first_x = a[dead, slot] * self._row_first + b[dead, slot] * g["z0"][slot] \
                + g["h0"][slot]
            signal[dead, slot] = first_x.real ** 2 + first_x.imag ** 2


def sample_estimated_csi(stats: ChannelStatistics, cfg: ScenarioConfig,
                         rng: int) -> CsiSample:
    """One estimated-CSI draw from the Gaussian model the solver optimizes over."""
    streams = named_children(rng, ("est/g", "est/h"))
    g_los = stats.cascaded_los[0]
    g_hat = g_los + crandn(streams["est/g"], g_los.shape, stats.estimate_g_var)
    h_hat = crandn(streams["est/h"], (stats.bs_sizes[0],), stats.estimate_h_var)
    return CsiSample(g_hat=g_hat, h_hat=h_hat)
