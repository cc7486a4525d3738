"""Scenario configuration, presets and JSON loading.

Every field is kept in the units its scenario file holds, so a file loads
and saves back unchanged: positions are 2-D coordinates in meters, powers
are in dBm (exposed in linear watts by properties) and angles in degrees
(converted to radians only where `channel.build_statistics` builds the
steering vectors).  `FILE_KEYS` maps each field to its file key.

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
import typing
from dataclasses import dataclass

import numpy as np

SQRT3 = math.sqrt(3.0)

ERROR_UNITS = ("normalized", "absolute")


def dbm_to_watt(dbm: float) -> float:
    """30 dBm -> 1.0 W; a power above float range is inf, one below it 0."""
    try:
        return 10.0 ** ((dbm - 30.0) / 10.0)
    except OverflowError:
        return math.inf


def user_position_on_bisector(distance: float) -> tuple[float, float]:
    """Point at the given distance from the serving BS along the locus used
    for user placement: the perpendicular bisector of the two interfering
    BSs of the default layout, which passes through the origin with
    direction (cos 30deg, sin 30deg)."""
    if distance <= 0:
        raise ValueError(f"distance must be positive, got {distance}")
    return (distance * SQRT3 / 2.0, distance / 2.0)


class _WrongType(ValueError):
    """A scenario field whose value does not have the field's type."""


def _grid_axis(name: str, c) -> int:
    """One grid axis as an int: 8.0 passes; 8.5, inf, "8" or true are errors, never cast."""
    integral = isinstance(c, numbers.Integral) or (isinstance(c, float) and c.is_integer())
    if integral and not isinstance(c, bool):
        return int(c)
    raise _WrongType(f"{name}: array grid entries must be integers, got {c!r}")


def _real(name: str, value) -> float:
    """A number as a float: 3 passes; true, "3" or None are errors, never cast."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise _WrongType(f"{name} must be a real number, got {value!r}")


def _typed(name: str, kind, value):
    """``value`` as the field type ``kind``: a str must be one, a float goes
    through `_real`, an int through `_grid_axis`, and a sequence (tuple,
    list or numpy array) becomes a tuple of the declared length whose
    entries are typed the same way.  Anything else is an error naming the
    field, never a cast."""
    if kind is str:
        if isinstance(value, str):
            return value
        raise _WrongType(f"{name} must be a string, got {value!r}")
    if kind is float:
        return _real(name, value)
    if kind is int:
        return _grid_axis(name, value)
    entry, *rest = typing.get_args(kind)            # tuple[X, ...] or tuple[X, X]
    if not isinstance(value, (tuple, list, np.ndarray)):
        raise _WrongType(f"{name} must be a sequence, got {value!r}")
    if rest != [Ellipsis] and len(value) != 1 + len(rest):
        raise _WrongType(f"{name}: expected {1 + len(rest)} numbers, got {value!r}")
    return tuple(_typed(name, entry, v) for v in value)


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
    angles_bs_irs_deg: tuple[tuple[float, float], ...] = ()   # (azimuth, elevation)
    angles_irs_user_deg: tuple[float, float] = (0.0, 0.0)
    spacing: float = 0.5                        # element spacing over wavelength
    delta1: float = 0.0                         # cascaded-channel error std
    delta2: float = 0.0                         # direct-channel error std
    error_units: str = "normalized"
    name: str = "custom"

    def __post_init__(self):
        for name, kind in _FIELD_TYPES.items():
            object.__setattr__(self, name, _typed(name, kind, getattr(self, name)))
        self._validate()

    def _validate(self):
        n = len(self.bs_positions)
        if n < 1:
            raise ValueError("at least the serving BS must be present")
        for field_name in ("bs_grids", "powers_dbm", "rician_bs_irs", "angles_bs_irs_deg"):
            got = len(getattr(self, field_name))
            if got != n:
                raise ValueError(f"{field_name} has {got} entries for {n} BSs")
        for m, k in self.bs_grids + (self.irs_grid,):
            if m < 1 or k < 1:
                raise ValueError("array grids need at least one element per axis")
        levels = {f"powers_dbm[{k}]": dbm for k, dbm in enumerate(self.powers_dbm)}
        for name, dbm in {**levels, "noise_dbm": self.noise_dbm}.items():
            if not 0 < dbm_to_watt(dbm) < math.inf:     # rejects NaN too
                raise ValueError(f"{name}: {dbm} dBm is not a positive, finite power in watts")
        for k in self.rician_bs_irs + (self.rician_irs_user,):
            if not (k >= 0):  # rejects NaN too; +inf allowed (pure LoS)
                raise ValueError(f"Rician factors must be >= 0, got {k}")
        for e in (self.exp_direct, self.exp_bs_irs, self.exp_irs_user):
            if not (e > 0 and np.isfinite(e)):
                raise ValueError(f"path-loss exponents must be positive, got {e}")
        if not np.isfinite(np.hstack(self.bs_positions + (self.irs_position,
                                                          self.user_position))).all():
            raise ValueError("positions must be finite")
        if not np.isfinite(np.hstack(self.angles_bs_irs_deg + (self.angles_irs_user_deg,))).all():
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
        """JSON-facing dict: every field under its `FILE_KEYS` key."""
        return {key: getattr(self, field) for field, key in FILE_KEYS.items()}

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        """Inverse of `to_dict`; a key of `OPTIONAL_KEYS` may be missing and
        then takes its field's default, and a key outside `FILE_KEYS` is an
        error (a misspelt optional key would otherwise load its default)."""
        if not isinstance(data, dict):
            raise ValueError(f"malformed scenario file: a {type(data).__name__}, not an object")
        for key in data:
            if key not in FILE_KEYS.values():
                raise ValueError(f"malformed scenario file: unknown key {key!r}")
        for key in FILE_KEYS.values():
            if key not in data and key not in OPTIONAL_KEYS:
                raise ValueError(f"scenario file is missing required key {key!r}")
        try:
            return cls(**{field: data[key] for field, key in FILE_KEYS.items() if key in data})
        except _WrongType as exc:
            raise ValueError(f"malformed scenario file: {exc}") from exc

    def config_hash(self) -> str:
        """Short stable hash of the scenario content (not the name)."""
        payload = {k: v for k, v in self.to_dict().items() if k != "name"}
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]

    def replace(self, **kwargs) -> "ScenarioConfig":
        return dataclasses.replace(self, **kwargs)


# each field's declared type, which __post_init__ holds its value to
_FIELD_TYPES = typing.get_type_hints(ScenarioConfig)

# The scenario-file schema: each ScenarioConfig field and its file key.
FILE_KEYS = {
    "bs_positions": "bs_positions_m",
    "irs_position": "irs_position_m",
    "user_position": "user_position_m",
    "bs_grids": "bs_grids",
    "irs_grid": "irs_grid",
    "powers_dbm": "powers_dbm",
    "noise_dbm": "noise_dbm",
    "rician_bs_irs": "rician_bs_irs",
    "rician_irs_user": "rician_irs_user",
    "exp_direct": "pathloss_exp_direct",
    "exp_bs_irs": "pathloss_exp_bs_irs",
    "exp_irs_user": "pathloss_exp_irs_user",
    "angles_bs_irs_deg": "angles_bs_irs_deg",
    "angles_irs_user_deg": "angles_irs_user_deg",
    "spacing": "element_spacing",
    "delta1": "delta1",
    "delta2": "delta2",
    "error_units": "error_units",
    "name": "name",
}
OPTIONAL_KEYS = frozenset(("element_spacing", "delta1", "delta2", "error_units", "name"))


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
        angles_bs_irs_deg=((60.0, 60.0), (22.5, 22.5), (22.5, 22.5)),
        angles_irs_user_deg=(30.0, 30.0),
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


def write_json(path: str, payload: dict) -> None:
    """Write ``payload`` in the one format of every JSON artifact: indented,
    keys sorted, a trailing newline; equal payloads give equal bytes.  The
    text is built first, so a payload json cannot write leaves no file."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def save_scenario(cfg: ScenarioConfig, path: str) -> None:
    write_json(path, cfg.to_dict())
