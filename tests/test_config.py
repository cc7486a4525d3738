import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import irsopt
from conftest import random_scenario
from irsopt.config import (
    FILE_KEYS,
    OPTIONAL_KEYS,
    PRESETS,
    ScenarioConfig,
    dbm_to_watt,
    load_scenario,
    save_scenario,
    user_position_on_bisector,
    write_json,
)

SQRT3 = math.sqrt(3.0)


def test_dbm_conversions():
    assert dbm_to_watt(30.0) == 1.0
    assert np.isclose(dbm_to_watt(-90.0), 1e-12, rtol=1e-12)
    assert np.isclose(dbm_to_watt(17.3), 10 ** -1.27, rtol=1e-12)
    # beyond float range: inf above, 0 below, never an OverflowError
    assert dbm_to_watt(4000.0) == math.inf and dbm_to_watt(-4000.0) == 0.0


@pytest.mark.parametrize("field, value, name", [
    ("powers_dbm", (30.0, 4000.0, 30.0), r"powers_dbm\[1\]: 4000.0 dBm"),
    ("powers_dbm", (-4000.0, 30.0, 30.0), r"powers_dbm\[0\]: -4000.0 dBm"),
    ("powers_dbm", (30.0, 30.0, math.inf), r"powers_dbm\[2\]: inf dBm"),
    ("noise_dbm", 4000.0, "noise_dbm: 4000.0 dBm"),
    ("noise_dbm", -4000.0, "noise_dbm: -4000.0 dBm"),
    ("noise_dbm", math.nan, "noise_dbm: nan dBm")])
def test_powers_must_be_positive_and_finite_in_watts(preset_cfg, field, value, name):
    # a dBm value whose watts leave float range once raised an OverflowError,
    # and 0 W of noise divided by zero
    with pytest.raises(ValueError, match=f"{name} is not a positive, finite power in watts"):
        preset_cfg.replace(**{field: value})


def test_preset_power_and_noise(preset_cfg):
    assert preset_cfg.powers_watt == (1.0, 1.0, 1.0)
    assert np.isclose(preset_cfg.noise_watt, 1e-12, rtol=1e-12)


def test_preset_geometry_self_consistent(preset_cfg):
    # users sit at the circumcenter: all three BS distances equal 200*sqrt(3)
    for k in range(3):
        assert abs(preset_cfg.d_bs_user(k) - 200.0 * SQRT3) < 0.1


def test_user_position_on_bisector():
    x, y = user_position_on_bisector(200.0 * SQRT3)
    assert np.isclose(x, 300.0, atol=1e-9)
    assert np.isclose(y, 100.0 * SQRT3, atol=1e-9)
    for distance in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="distance must be positive"):
            user_position_on_bisector(distance)


def test_unknown_preset():
    with pytest.raises(ValueError, match="unknown preset"):
        load_scenario("no-such-preset")


def test_scenario_json_roundtrip(tmp_path, preset_cfg):
    path = tmp_path / "scenario.json"
    save_scenario(preset_cfg, str(path))
    loaded = load_scenario(str(path))
    assert loaded.bs_positions == preset_cfg.bs_positions
    assert loaded.bs_grids == preset_cfg.bs_grids
    assert loaded.powers_dbm == preset_cfg.powers_dbm
    assert loaded.angles_bs_irs_deg == preset_cfg.angles_bs_irs_deg
    assert loaded.angles_irs_user_deg == preset_cfg.angles_irs_user_deg
    assert loaded.delta1 == preset_cfg.delta1
    assert loaded.error_units == preset_cfg.error_units


def test_malformed_scenario_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="malformed"):
        load_scenario(str(bad))
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"name": "x"}))
    with pytest.raises(ValueError, match="missing required key"):
        load_scenario(str(incomplete))
    # wrong types in a saved preset are loud, never a TypeError or a truncation
    saved = tmp_path / "saved.json"
    save_scenario(load_scenario("paper-fig3"), str(saved))
    good = json.loads(saved.read_text())
    edited = tmp_path / "edited.json"
    for key, value, message in (("irs_grid", 8, "malformed scenario file"),
                                ("noise_dbm", None, "malformed scenario file"),
                                ("noise_dbm", True, "malformed scenario file"),
                                ("delta1", "0.1", "malformed scenario file"),
                                (None, [good], "malformed scenario file"),
                                ("irs_grid", [8.5, 8], "grid entries must be integers"),
                                ("bs_grids", [[4, 4], [4, 3.5], [4, 4]],
                                 "grid entries must be integers"),
                                # numbers inside lists are checked, not cast
                                ("powers_dbm", ["30", True, 30], "powers_dbm must be a real"),
                                ("rician_bs_irs", [3, "3", False], "rician_bs_irs must be a real"),
                                ("irs_position_m", ["600", 0], "irs_position must be a real"),
                                ("bs_positions_m", [[0, 0], [600, None], [300, 500]],
                                 "bs_positions must be a real"),
                                ("angles_irs_user_deg", [30, 30, 30], "expected 2 numbers"),
                                ("noise_dbm", [-90], "noise_dbm must be a real"),
                                # a misspelt optional key is not its default
                                ("delta_1", 0.5, "malformed scenario file: unknown key 'delta_1'"),
                                ("name", 5, "malformed scenario file: name must be a string")):
        edited.write_text(json.dumps(value if key is None else {**good, key: value}))
        with pytest.raises(ValueError, match=message):
            load_scenario(str(edited))


def test_validation_errors(preset_cfg):
    with pytest.raises(ValueError, match="at least the serving BS"):
        preset_cfg.replace(bs_positions=(), bs_grids=(), powers_dbm=(),
                           rician_bs_irs=(), angles_bs_irs_deg=())
    with pytest.raises(ValueError, match="entries for"):
        preset_cfg.replace(powers_dbm=(30.0, 30.0))
    with pytest.raises(ValueError, match="Rician factors"):
        preset_cfg.replace(rician_irs_user=-1.0)
    with pytest.raises(ValueError, match="normalized error"):
        preset_cfg.replace(delta1=1.5)
    with pytest.raises(ValueError, match="error_units"):
        preset_cfg.replace(error_units="percent")
    with pytest.raises(ValueError, match="coincides"):
        preset_cfg.replace(user_position=preset_cfg.bs_positions[0])
    with pytest.raises(ValueError, match="grids"):
        preset_cfg.replace(irs_grid=(0, 4))
    for irs_grid in ((8.5, 8), (8, math.inf), (math.nan, 8), ("8", 8), (True, 8)):
        with pytest.raises(ValueError, match="grid entries must be integers"):
            preset_cfg.replace(irs_grid=irs_grid)
    with pytest.raises(ValueError, match="grid entries must be integers"):
        preset_cfg.replace(bs_grids=((4, 4), (4, 4), (4.5, 4)))
    assert preset_cfg.replace(irs_grid=(8.0, np.int64(4))).irs_grid == (8, 4)
    for powers in ((True, "30", 30.0), (30.0, 30.0, None)):
        with pytest.raises(ValueError, match="powers_dbm must be a real number"):
            preset_cfg.replace(powers_dbm=powers)
    with pytest.raises(ValueError, match="user_position: expected 2 numbers"):
        preset_cfg.replace(user_position=(300.0, 100.0, 0.0))
    for name in (5, None, ("paper-fig3",)):     # the name goes into every artifact
        with pytest.raises(ValueError, match="name must be a string"):
            preset_cfg.replace(name=name)
    # lists and arrays are stored as tuples of floats, as a file's lists are
    cfg = preset_cfg.replace(powers_dbm=np.array([30, 30, 30]),
                             angles_bs_irs_deg=[[60, 60], [22.5, 22.5], (22.5, 22.5)])
    assert cfg == preset_cfg and type(cfg.powers_dbm[0]) is float


def _nonfinite_cases():
    cases = [pytest.param(field, math.nan, id=field)
             for field in ("delta1", "delta2", "spacing")]
    cases.append(pytest.param("spacing", math.inf, id="spacing-inf"))
    for x in (math.nan, math.inf):
        for field, value in (("bs_positions", ((0.0, 0.0), (600.0, 0.0), (300.0, x))),
                             ("irs_position", (300.0, x)),
                             ("user_position", (x, 0.0)),
                             ("angles_bs_irs_deg", ((0.0, 0.0),) * 2 + ((x, 0.0),)),
                             ("angles_irs_user_deg", (x, 0.0))):
            # an id names the quantity, without the field's unit suffix
            cases.append(pytest.param(field, value, id=f"{field.removesuffix('_deg')}-{x}"))
    return cases


@pytest.mark.parametrize("field, value", _nonfinite_cases())
@pytest.mark.parametrize("units", ["normalized", "absolute"])
def test_validation_rejects_nan(preset_cfg, field, value, units):
    # a NaN compares false both ways, so it must fail a not (x >= 0) check;
    # a non-finite position, angle or spacing would give NaN or zero rates
    cfg = preset_cfg.replace(error_units=units)
    with pytest.raises(ValueError):
        cfg.replace(**{field: value})


@pytest.mark.parametrize("field", ["noise_dbm", "rician_irs_user", "exp_direct", "exp_bs_irs",
                                   "exp_irs_user", "spacing", "delta1", "delta2"])
def test_scalar_fields_are_floats(preset_cfg, field):
    # an integer is stored, and hashed, as the float it stands for; a bool
    # or a string is not a number (a JSON true would run as 1)
    for value in (1, np.int64(1)):
        cfg = preset_cfg.replace(**{field: value})
        assert type(getattr(cfg, field)) is float and getattr(cfg, field) == 1.0
        assert cfg.config_hash() == preset_cfg.replace(**{field: 1.0}).config_hash()
    for bad in (True, np.bool_(True), "1", None):
        with pytest.raises(ValueError, match=f"{field} must be a real number"):
            preset_cfg.replace(**{field: bad})


def test_file_keys_cover_every_field():
    fields = {f.name: f for f in dataclasses.fields(ScenarioConfig)}
    assert set(FILE_KEYS) == set(fields)
    assert len(set(FILE_KEYS.values())) == len(FILE_KEYS)
    optional = {field for field, key in FILE_KEYS.items() if key in OPTIONAL_KEYS}
    assert OPTIONAL_KEYS <= set(FILE_KEYS.values())
    assert all(fields[field].default is not dataclasses.MISSING for field in optional)


def _json_cycle(cfg: ScenarioConfig) -> ScenarioConfig:
    return ScenarioConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))


@settings(max_examples=25, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_json_round_trip_is_lossless(seed):
    cfg = random_scenario(np.random.default_rng(seed))
    loaded = _json_cycle(cfg)
    assert loaded == cfg
    assert loaded.config_hash() == cfg.config_hash()


@pytest.mark.parametrize("units", ["normalized", "absolute"])
def test_preset_json_round_trip_is_lossless(preset_cfg, units):
    cfg = preset_cfg.replace(error_units=units)
    assert _json_cycle(cfg) == cfg
    assert _json_cycle(cfg).config_hash() == cfg.config_hash()


def test_saved_scenario_file_saves_back_byte_for_byte(tmp_path, preset_cfg):
    # a hand-edited file keeps every angle as written, so saving what was
    # loaded reproduces the file
    path, again = tmp_path / "edited.json", tmp_path / "again.json"
    save_scenario(preset_cfg, str(path))
    data = json.loads(path.read_text())
    data["angles_bs_irs_deg"] = [[60.0, 30.1], [17.3, 41.9], [12.7, 60.0]]
    data["angles_irs_user_deg"] = [30.1, 12.7]
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    save_scenario(load_scenario(str(path)), str(again))
    assert again.read_bytes() == path.read_bytes()


def test_write_json_leaves_no_file_for_a_payload_json_cannot_write(tmp_path):
    # json.dump wrote into the open file and stopped mid-way, at '"values": ['
    path = tmp_path / "manifest.json"
    with pytest.raises(TypeError, match="not JSON serializable"):
        write_json(str(path), {"sweep": {"values": [np.int64(4)]}})
    assert not path.exists()
    write_json(str(path), {"b": [1.5, 2], "a": "x"})
    assert path.read_text() == '{\n  "a": "x",\n  "b": [\n    1.5,\n    2\n  ]\n}\n'


def test_config_hash_ignores_name(preset_cfg):
    renamed = preset_cfg.replace(name="other")
    assert renamed.config_hash() == preset_cfg.config_hash()
    changed = preset_cfg.replace(noise_dbm=-91.0)
    assert changed.config_hash() != preset_cfg.config_hash()


def test_presets_registry():
    assert "paper-fig3" in PRESETS
    cfg = load_scenario("paper-fig3")
    assert cfg.n_bs == 3
    assert cfg.irs_grid == (8, 8)
    assert cfg.bs_grids == ((4, 4),) * 3
    assert cfg.irs_size == 64
    assert cfg.bs_sizes == (16, 16, 16)
