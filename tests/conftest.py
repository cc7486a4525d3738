import math

import numpy as np
import pytest

import irsopt
from irsopt.channel import _split_law, rician_weights
from irsopt.streams import crandn, named_children


def random_scenario(rng: np.random.Generator, name: str = "rand",
                    max_interferers: int = 2, max_irs_side: int = 4,
                    max_delta: float = 0.9) -> irsopt.ScenarioConfig:
    """Small random but valid scenario for property and oracle tests."""
    n_int = int(rng.integers(1, max_interferers + 1))

    def pos(radius_lo, radius_hi):
        r = rng.uniform(radius_lo, radius_hi)
        a = rng.uniform(0, 2 * math.pi)
        return (r * math.cos(a), r * math.sin(a))

    irs_side = int(rng.integers(2, max_irs_side + 1))
    return irsopt.ScenarioConfig(
        name=name,
        bs_positions=tuple([(0.0, 0.0)] + [pos(300, 800) for _ in range(n_int)]),
        irs_position=pos(50, 300),
        user_position=pos(100, 400),
        bs_grids=((2, 2),) * (n_int + 1),
        irs_grid=(irs_side, irs_side),
        powers_dbm=tuple(rng.uniform(25, 33) for _ in range(n_int + 1)),
        noise_dbm=rng.uniform(-95, -85),
        rician_bs_irs=tuple(rng.uniform(0, 10) for _ in range(n_int + 1)),
        rician_irs_user=rng.uniform(0, 10),
        exp_direct=rng.uniform(3.0, 4.0),
        exp_bs_irs=rng.uniform(2.0, 2.5),
        exp_irs_user=rng.uniform(2.5, 3.5),
        angles_bs_irs_deg=tuple((math.degrees(rng.uniform(0, math.pi / 2)),
                                 math.degrees(rng.uniform(0, math.pi / 2)))
                                for _ in range(n_int + 1)),
        angles_irs_user_deg=(math.degrees(rng.uniform(0, math.pi / 2)),
                             math.degrees(rng.uniform(0, math.pi / 2))),
        delta1=rng.uniform(0, max_delta),
        delta2=rng.uniform(0, max_delta),
        error_units="normalized",
    )


def random_phase_vector(rng: np.random.Generator, n: int) -> irsopt.PhaseShiftVector:
    return irsopt.PhaseShiftVector.from_phases(rng.uniform(0, 2 * math.pi, n))


def random_relaxed(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random point of the relaxed feasible set, bounded away from zero."""
    return (rng.uniform(0.2, 1.0, n)
            * np.exp(1j * rng.uniform(0, 2 * math.pi, n)))


def random_unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    w = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    return w / np.linalg.norm(w, axis=1, keepdims=True)


def full_matrix_sample(design, streams: dict, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference law: n full estimated-CSI draws (g_hat (n, Mr, M0),
    h_hat (n, M0)) from the design's Gaussian law, as the solver drew them
    before `DesignObjective.sample` drew what the ratio reads directly."""
    g = crandn(streams["design/g"], (n,) + design.g_mean.shape, design.g_var)
    g += design.g_mean
    h = crandn(streams["design/h"], (n, design.h_mean.shape[0]), design.h_var)
    h += design.h_mean
    return g, h


def sample_draws(design, streams: dict, n: int) -> tuple:
    """One iteration's draws (s, w, nu, r) for `DesignObjective.sample`
    from a {design/g, design/h} stream pair, in the order the solver draws
    them: CN(0, 1) values s (M0,), w (Mr,) and nu (), then one
    Gamma(M0 (n - 1), 1) value r."""
    mr, m0 = design.g_mean.shape
    g = streams["design/g"]
    return (crandn(g, (m0,), 1.0), crandn(g, (mr,), 1.0), crandn(g, (), 1.0),
            streams["design/h"].standard_gamma(m0 * (n - 1), ()))


def combine_draws(v: np.ndarray, g_hat: np.ndarray,
                  h_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(e, g_hat e) of stacked full draws, e = g_hat^H v + h_hat: what
    the design ratio reads of a draw, through ||e||^2 and g_hat e."""
    e = np.conj(v.conj() @ g_hat) + h_hat
    return e, (g_hat @ e[:, :, None])[:, :, 0]


def design_draws(stats, cfg, seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n full (g_hat, h_hat) draws from the Gaussian estimate law the solver
    optimizes over (that of the robust design)."""
    streams = named_children(seed, ("design/g", "design/h"))
    return full_matrix_sample(irsopt.DesignObjective.from_scenario(stats, cfg), streams, n)


def realized_vectors(stats, draws, seed: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The scatter z, the direct channel d and the error noise N of one
    chunk's `SlotDraws`, realized as (n, M0) vectors Q [head; V R]: Q
    unitary with first columns q1 = r / ||r|| and q2 (e_1 orthogonalized
    against q1) and any orthonormal completion, head the draws' two leading
    coordinates, R the Bartlett factor of their last three, and V an
    independent Haar isometry per slot (the QR of a Gaussian, phases fixed),
    so that each vector is CN(0, I_M0) with the inner products the draws
    hold."""
    rng = np.random.default_rng(seed)
    m0 = stats.bs_sizes[0]
    los = stats.los_bs_irs[0]
    row = los[0].conj() * los[0, 0]
    basis = crandn(rng, (m0, m0), 1.0)
    basis[:, 0] = row / np.linalg.norm(row)
    if m0 > 1:
        e1 = np.eye(m0)[0]
        q2 = e1 - np.vdot(basis[:, 0], e1) * basis[:, 0]
        basis[:, 1] = q2 / np.linalg.norm(q2)
        basis[:, 2:] = np.linalg.qr(basis)[0][:, 2:]
    coords = np.stack([draws.scatter, draws.direct, draws.error], axis=2)    # (n, 5, 3)
    head = coords[:, :min(m0, 2)]
    tail_dim = max(m0 - 2, 0)
    if tail_dim:
        rows = min(tail_dim, 3)
        q, r = np.linalg.qr(crandn(rng, (coords.shape[0], tail_dim, rows), 1.0))
        phases = np.diagonal(r, axis1=1, axis2=2)
        isometry = q * (phases / np.abs(phases))[:, None, :]
        head = np.concatenate([head, isometry @ coords[:, 2:2 + rows]], axis=1)
    full = basis @ head                                                       # (n, M0, 3)
    return full[..., 0], full[..., 1], full[..., 2]


def explicit_combined(stats, law, draws, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The combined channels of every design of `law` (a
    `channel.CombinedChannels`), x = g_true^H v + h_true and
    e_hat = g_hat^H v + h_hat, each (S, n, M0), built as vectors from one
    chunk's `SlotDraws` (`realized_vectors`) and the law's (t, ||h_ru||^2)
    scalars, with the error split of `_split_law` (its two noises summed
    into one of the summed variance) and l = glos_0^H v taken from the
    statistics: the reference the evaluator's Gram route must reproduce."""
    t, norm_sq = law.irs_user_scalars(draws)
    scatter, direct, noise = realized_vectors(stats, draws, seed)
    vs = law.designs
    los = stats.los_bs_irs[0]
    row = los[0].conj() * los[0, 0]
    w_los, w_nlos = rician_weights(stats.rician_bs_irs[0])
    y = math.sqrt(stats.alpha_bs_irs[0]) * (
        w_los * t[..., None] * row + w_nlos * np.sqrt(norm_sq)[..., None] * scatter)
    h_true = direct * math.sqrt(stats.alpha_direct[0])
    share_h, noise_h = _split_law(stats.sigma_h_sq, stats.delta2_abs ** 2)
    share_g, noise_g = _split_law(float(stats.sigma_g_sq[0]), stats.delta1_abs ** 2)
    v_sq = np.sum(np.abs(vs) ** 2, axis=1)
    # h_hat - n_g = h_true - (share_h h_true + n_h) - n_g, n_g + n_h ~ noise
    noise_scale = np.sqrt(noise_g * v_sq + noise_h)[:, None, None]
    los_terms = vs @ stats.cascaded_los[0].conj()
    e_hat = ((1.0 - share_g) * y + share_g * los_terms[:, None, :]
             + (1.0 - share_h) * h_true - noise_scale * noise)
    return y + h_true, e_hat


EDGE_REGIMES = ("no-bs-irs-los", "k-0", "single-bs", "irs-1x1", "one-bs-antenna",
                "v0-zero", "delta-0", "delta-1", "k-inf-delta-0")


def edge_scenario(preset_cfg: irsopt.ScenarioConfig, regime: str) -> irsopt.ScenarioConfig:
    """The preset on a 4x4 IRS with delta = 0.3, moved into one edge regime."""
    base = preset_cfg.replace(irs_grid=(4, 4), delta1=0.3, delta2=0.3)
    single_bs = base.replace(
        bs_positions=base.bs_positions[:1], bs_grids=base.bs_grids[:1],
        powers_dbm=base.powers_dbm[:1], rician_bs_irs=base.rician_bs_irs[:1],
        angles_bs_irs_deg=base.angles_bs_irs_deg[:1], name="single-bs")
    return {
        "no-bs-irs-los": base.replace(rician_bs_irs=(0.0, 0.0, 0.0)),
        "k-0": base.replace(rician_bs_irs=(0.0, 0.0, 0.0), rician_irs_user=0.0),
        "single-bs": single_bs,
        "irs-1x1": base.replace(irs_grid=(1, 1)),
        "one-bs-antenna": base.replace(bs_grids=((1, 1),) * 3),
        "v0-zero": base,
        "delta-0": base.replace(delta1=0.0, delta2=0.0),
        "delta-1": base.replace(delta1=1.0, delta2=1.0),        # sigma_g = sigma_h = 0
        "k-inf-delta-0": base.replace(rician_bs_irs=(math.inf, 3.0, 3.0),
                                      rician_irs_user=math.inf,
                                      delta1=0.0, delta2=0.0),      # sigma_g = 0
    }[regime]


def interference_split_scenario(preset_cfg: irsopt.ScenarioConfig) -> irsopt.ScenarioConfig:
    """The preset with interferer 1's IRS angles 0.05 rad from the serving
    pair, the user at (300, 40) m, K = 10 on every link and delta = 0.6:
    a geometry where ignoring interference in the design costs rate."""
    az, el = preset_cfg.angles_bs_irs_deg[0]
    step = math.degrees(0.05)
    return preset_cfg.replace(
        angles_bs_irs_deg=((az, el), (az + step, el + step)) + preset_cfg.angles_bs_irs_deg[2:],
        user_position=(300.0, 40.0),
        rician_bs_irs=(10.0,) * preset_cfg.n_bs, rician_irs_user=10.0,
        delta1=0.6, delta2=0.6, name="interference-split")


def paired_t(a: np.ndarray, b: np.ndarray) -> tuple[float, float, float]:
    """(mean difference, its standard error, t statistic) for paired samples."""
    d = np.asarray(a) - np.asarray(b)
    mean = float(np.mean(d))
    se = float(np.std(d, ddof=1) / math.sqrt(d.shape[0]))
    return mean, se, mean / se if se > 0 else math.inf * np.sign(mean or 1.0)


@pytest.fixture(scope="session")
def preset_cfg():
    return irsopt.load_scenario("paper-fig3")


@pytest.fixture(scope="session")
def preset_stats(preset_cfg):
    return irsopt.build_statistics(preset_cfg)


@pytest.fixture(scope="session")
def small_cfg():
    """Preset geometry shrunk to small arrays for cheap per-sample math."""
    cfg = irsopt.load_scenario("paper-fig3")
    return cfg.replace(bs_grids=((2, 2),) * 3, irs_grid=(3, 3), name="small")


@pytest.fixture(scope="session")
def small_stats(small_cfg):
    return irsopt.build_statistics(small_cfg)
