"""Scenario configuration, presets and JSON loading.

Positions are 2-D coordinates in meters.  Powers are entered in dBm and
exposed in linear watts, angles are stored in radians.  Scenario JSON
files use degrees and dBm (converted on read/write), so files stay
human-editable.

CSI error magnitudes ``delta1``/``delta2`` can be given in two unit
conventions, selected by ``error_units``:

* ``"normalized"``: fractions of the corresponding per-element channel
  standard deviation (cascaded / direct), valid range [0, 1].
* ``"absolute"``: raw channel units; must not exceed the per-element
  standard deviations, which are tiny once path loss is applied.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

SQRT3 = math.sqrt(3.0)

ERROR_UNITS = ("normalized", "absolute")


def dbm_to_watt(dbm: float) -> float:
    """30 dBm -> 1.0 W."""
    return 10.0 ** ((dbm - 30.0) / 10.0)


def watt_to_dbm(watt: float) -> float:
    if watt <= 0:
        raise ValueError(f"power must be positive, got {watt}")
    return 10.0 * math.log10(watt) + 30.0


def user_position_on_bisector(distance: float) -> tuple[float, float]:
    """Point at the given distance from the serving BS along the locus used
    for user placement: the perpendicular bisector of the two interfering
    BSs of the default layout, which passes through the origin with
    direction (cos 30deg, sin 30deg)."""
    if distance <= 0:
        raise ValueError(f"distance must be positive, got {distance}")
    return (distance * SQRT3 / 2.0, distance / 2.0)


def _grid_axis(c) -> int:
    """One grid axis as an int: 8.0 passes; 8.5, inf, "8" or true are errors, never cast."""
    integral = isinstance(c, numbers.Integral) or (isinstance(c, float) and c.is_integer())
    if integral and not isinstance(c, bool):
        return int(c)
    raise ValueError(f"array grid entries must be integers, got {c!r}")


class _NotANumber(ValueError):
    """A scalar scenario field that is not a real number."""


def _real(name: str, value) -> float:
    """A scalar field as a float: 3 passes; true, "3" or None are errors, never cast."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise _NotANumber(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Full experiment input: geometry, array sizes, powers, fading and
    CSI-error parameters.

    ``bs_positions[0]`` is the serving BS; the remaining entries are
    interfering BSs.  Per-BS sequences (grids, powers, Rician factors,
    angles) are index-aligned with ``bs_positions``.
    """

    bs_positions: tuple[tuple[float, float], ...]
    irs_position: tuple[float, float]
    user_position: tuple[float, float]
    bs_grids: tuple[tuple[int, int], ...]       # (M_k, N_k) antennas per BS
    irs_grid: tuple[int, int]                   # (M_r, N_r) reflecting elements
    powers_dbm: tuple[float, ...]               # transmit power per BS
    noise_dbm: float = -90.0
    rician_bs_irs: tuple[float, ...] = ()       # K factor per BS->IRS link
    rician_irs_user: float = 3.0                # K factor of the IRS->user link
    exp_direct: float = 3.7                     # path-loss exponent, BS->user
    exp_bs_irs: float = 2.0                     # path-loss exponent, BS->IRS
    exp_irs_user: float = 3.0                   # path-loss exponent, IRS->user
    angles_bs_irs: tuple[tuple[float, float], ...] = ()   # (azimuth, elevation) rad
    angles_irs_user: tuple[float, float] = (0.0, 0.0)
    spacing: float = 0.5                        # element spacing over wavelength
    delta1: float = 0.0                         # cascaded-channel error std
    delta2: float = 0.0                         # direct-channel error std
    error_units: str = "normalized"
    name: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "bs_positions",
                           tuple((float(x), float(y)) for x, y in self.bs_positions))
        object.__setattr__(self, "irs_position", tuple(float(c) for c in self.irs_position))
        object.__setattr__(self, "user_position", tuple(float(c) for c in self.user_position))
        object.__setattr__(self, "bs_grids",
                           tuple((_grid_axis(m), _grid_axis(n)) for m, n in self.bs_grids))
        object.__setattr__(self, "irs_grid", tuple(_grid_axis(c) for c in self.irs_grid))
        object.__setattr__(self, "powers_dbm", tuple(float(p) for p in self.powers_dbm))
        object.__setattr__(self, "rician_bs_irs", tuple(float(k) for k in self.rician_bs_irs))
        object.__setattr__(self, "angles_bs_irs",
                           tuple((float(a), float(e)) for a, e in self.angles_bs_irs))
        object.__setattr__(self, "angles_irs_user",
                           tuple(float(a) for a in self.angles_irs_user))
        for name in ("noise_dbm", "rician_irs_user", "exp_direct", "exp_bs_irs",
                     "exp_irs_user", "spacing", "delta1", "delta2"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        self._validate()

    def _validate(self):
        n = len(self.bs_positions)
        if n < 1:
            raise ValueError("at least the serving BS must be present")
        for field_name in ("bs_grids", "powers_dbm", "rician_bs_irs", "angles_bs_irs"):
            got = len(getattr(self, field_name))
            if got != n:
                raise ValueError(f"{field_name} has {got} entries for {n} BSs")
        for m, k in self.bs_grids + (self.irs_grid,):
            if m < 1 or k < 1:
                raise ValueError("array grids need at least one element per axis")
        if not all(np.isfinite(self.powers_dbm)) or not np.isfinite(self.noise_dbm):
            raise ValueError("powers must be finite dBm values")
        for k in self.rician_bs_irs + (self.rician_irs_user,):
            if not (k >= 0):  # rejects NaN too; +inf allowed (pure LoS)
                raise ValueError(f"Rician factors must be >= 0, got {k}")
        for e in (self.exp_direct, self.exp_bs_irs, self.exp_irs_user):
            if not (e > 0 and np.isfinite(e)):
                raise ValueError(f"path-loss exponents must be positive, got {e}")
        if not np.isfinite(np.hstack(self.bs_positions + (self.irs_position,
                                                          self.user_position))).all():
            raise ValueError("positions must be finite")
        if not np.isfinite(np.hstack(self.angles_bs_irs + (self.angles_irs_user,))).all():
            raise ValueError("angles must be finite")
        # the not (x >= 0) form rejects NaN too
        if not (0 < self.spacing < math.inf):
            raise ValueError(f"element spacing must be positive and finite, got {self.spacing}")
        if not (self.delta1 >= 0 and self.delta2 >= 0):
            raise ValueError("error std-devs must be non-negative")
        if self.error_units not in ERROR_UNITS:
            raise ValueError(f"error_units must be one of {ERROR_UNITS}")
        if self.error_units == "normalized" and not (self.delta1 <= 1 and self.delta2 <= 1):
            raise ValueError("normalized error std-devs must lie in [0, 1]")
        for k in range(n):
            if self.d_bs_user(k) <= 0 or self.d_bs_irs(k) <= 0:
                raise ValueError(f"BS {k} coincides with the user or the IRS")
        if self.d_irs_user <= 0:
            raise ValueError("IRS coincides with the user")

    # -- derived counts and conversions ------------------------------------

    @property
    def n_bs(self) -> int:
        return len(self.bs_positions)

    @property
    def bs_sizes(self) -> tuple[int, ...]:
        """Antennas per BS, M_k * N_k."""
        return tuple(m * n for m, n in self.bs_grids)

    @property
    def irs_size(self) -> int:
        """Reflecting elements, M_r * N_r."""
        return self.irs_grid[0] * self.irs_grid[1]

    @property
    def powers_watt(self) -> tuple[float, ...]:
        return tuple(dbm_to_watt(p) for p in self.powers_dbm)

    @property
    def noise_watt(self) -> float:
        return dbm_to_watt(self.noise_dbm)

    def d_bs_user(self, k: int) -> float:
        return math.dist(self.bs_positions[k], self.user_position)

    def d_bs_irs(self, k: int) -> float:
        return math.dist(self.bs_positions[k], self.irs_position)

    @property
    def d_irs_user(self) -> float:
        return math.dist(self.irs_position, self.user_position)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-facing dict: angles in degrees, powers in dBm."""
        return {
            "name": self.name,
            "bs_positions_m": [list(p) for p in self.bs_positions],
            "irs_position_m": list(self.irs_position),
            "user_position_m": list(self.user_position),
            "bs_grids": [list(g) for g in self.bs_grids],
            "irs_grid": list(self.irs_grid),
            "powers_dbm": list(self.powers_dbm),
            "noise_dbm": self.noise_dbm,
            "rician_bs_irs": list(self.rician_bs_irs),
            "rician_irs_user": self.rician_irs_user,
            "pathloss_exp_direct": self.exp_direct,
            "pathloss_exp_bs_irs": self.exp_bs_irs,
            "pathloss_exp_irs_user": self.exp_irs_user,
            "angles_bs_irs_deg": [[math.degrees(a) for a in pair] for pair in self.angles_bs_irs],
            "angles_irs_user_deg": [math.degrees(a) for a in self.angles_irs_user],
            "element_spacing": self.spacing,
            "delta1": self.delta1,
            "delta2": self.delta2,
            "error_units": self.error_units,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ValueError(f"malformed scenario file: a {type(data).__name__}, not an object")
        try:
            return cls(
                name=data.get("name", "custom"),
                bs_positions=tuple(tuple(p) for p in data["bs_positions_m"]),
                irs_position=tuple(data["irs_position_m"]),
                user_position=tuple(data["user_position_m"]),
                bs_grids=tuple(tuple(g) for g in data["bs_grids"]),
                irs_grid=tuple(data["irs_grid"]),
                powers_dbm=tuple(data["powers_dbm"]),
                noise_dbm=data["noise_dbm"],
                rician_bs_irs=tuple(data["rician_bs_irs"]),
                rician_irs_user=data["rician_irs_user"],
                exp_direct=data["pathloss_exp_direct"],
                exp_bs_irs=data["pathloss_exp_bs_irs"],
                exp_irs_user=data["pathloss_exp_irs_user"],
                angles_bs_irs=tuple(tuple(math.radians(a) for a in pair)
                                    for pair in data["angles_bs_irs_deg"]),
                angles_irs_user=tuple(math.radians(a) for a in data["angles_irs_user_deg"]),
                spacing=data.get("element_spacing", 0.5),
                delta1=data.get("delta1", 0.0),
                delta2=data.get("delta2", 0.0),
                error_units=data.get("error_units", "normalized"),
            )
        except KeyError as exc:
            raise ValueError(f"scenario file is missing required key {exc}") from exc
        except (TypeError, _NotANumber) as exc:     # e.g. a number where a list belongs
            raise ValueError(f"malformed scenario file: {exc}") from exc

    def config_hash(self) -> str:
        """Short stable hash of the scenario content (not the name)."""
        payload = {k: v for k, v in self.to_dict().items() if k != "name"}
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]

    def replace(self, **kwargs) -> "ScenarioConfig":
        return dataclasses.replace(self, **kwargs)


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

def paper_fig3_preset() -> ScenarioConfig:
    """Default three-cell benchmark layout.

    Serving BS at the origin, two interfering BSs forming an equilateral
    triangle of side 600 m, IRS near the triangle's mid edge, user placed
    on the perpendicular bisector of the interferers at 200*sqrt(3) m from
    every BS (the circumcenter).  4x4 BS arrays, 8x8 IRS, 30 dBm transmit
    power, -90 dBm noise.  The layout is usually quoted with BS0-IRS 250 m
    and IRS-user 20 + 100*sqrt(3) m, while these positions give 300.67 m
    and 153.21 m; the path losses use the distances of the positions.
    """
    return ScenarioConfig(
        name="paper-fig3",
        bs_positions=((0.0, 0.0), (600.0, 0.0), (300.0, 300.0 * SQRT3)),
        irs_position=(300.0, 20.0),
        user_position=user_position_on_bisector(200.0 * SQRT3),
        bs_grids=((4, 4), (4, 4), (4, 4)),
        irs_grid=(8, 8),
        powers_dbm=(30.0, 30.0, 30.0),
        noise_dbm=-90.0,
        rician_bs_irs=(3.0, 3.0, 3.0),
        rician_irs_user=3.0,
        exp_direct=3.7,
        exp_bs_irs=2.0,
        exp_irs_user=3.0,
        angles_bs_irs=((math.pi / 3, math.pi / 3),
                       (math.pi / 8, math.pi / 8),
                       (math.pi / 8, math.pi / 8)),
        angles_irs_user=(math.pi / 6, math.pi / 6),
        spacing=0.5,
        delta1=1e-6,
        delta2=1e-6,
        error_units="normalized",
    )


PRESETS = {"paper-fig3": paper_fig3_preset}


def load_scenario(source: str) -> ScenarioConfig:
    """Load a scenario from a preset name or a JSON file path."""
    if source in PRESETS:
        return PRESETS[source]()
    try:
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ValueError(
            f"unknown preset or missing scenario file: {source!r} "
            f"(presets: {sorted(PRESETS)})"
        ) from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed scenario file {source!r}: {exc}") from exc
    return ScenarioConfig.from_dict(data)


def save_scenario(cfg: ScenarioConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
