import csv
import dataclasses
import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

import irsopt
from irsopt import baselines, cli
from irsopt.baselines import SCHEMES, design_scheme, evaluate_scheme, scheme
from irsopt.channel import build_statistics
from irsopt.cli import (
    CSV_COLUMNS,
    SweepSpec,
    apply_sweep_value,
    build_parser,
    main,
    run_sweep,
)
from irsopt.config import ScenarioConfig, user_position_on_bisector
from irsopt.rate import DesignObjective
from irsopt.ssca import SolverConfig
from irsopt.streams import child_seed
from conftest import EDGE_REGIMES, edge_scenario


def _tiny_sweep(seed=0, schemes=("robust-with-intf",), values=(2.0, 3.0)):
    # the random-phase scheme skips the solver, keeping CLI tests fast
    return SweepSpec(
        param="irs-size",
        values=values,
        schemes=schemes,
        n_samples=120,
        seed=seed,
        solver=SolverConfig(iterations=15, samples_per_iter=3),
    )


def test_sweep_spec_validation():
    with pytest.raises(ValueError, match="value list"):
        _tiny_sweep(values=())
    with pytest.raises(ValueError, match="scheme list"):
        _tiny_sweep(schemes=())
    with pytest.raises(ValueError, match="unknown scheme"):
        _tiny_sweep(schemes=("nope",))
    with pytest.raises(ValueError, match="unknown sweep parameter"):
        SweepSpec(param="power", values=(1.0,), schemes=("proposed",))
    with pytest.raises(ValueError, match="'proposed' is listed twice"):
        _tiny_sweep(schemes=("proposed", "robust-with-intf", "proposed"))
    for value in (True, "0.1", None, 1j):
        with pytest.raises(ValueError, match="values must be a real number"):
            _tiny_sweep(values=(2.0, value))
    with pytest.raises(ValueError, match="n_samples must be >= 2, got 1"):
        dataclasses.replace(_tiny_sweep(), n_samples=1)


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_repeated_scheme_is_rejected_before_any_work(tmp_path, capsys, command):
    # a repeated scheme would be designed and evaluated twice, and keyed once
    # in eval.json and in the manifest's design seeds
    out = tmp_path / "out"
    argv = [command, "--preset", "paper-fig3", "--schemes", "proposed,proposed",
            "--iters", "2", "--samples", "10", "--out", str(out)]
    if command == "sweep":
        argv += ["--sweep", "irs-size", "--values", "2"]
    assert main(argv) == 2
    assert "'proposed' is listed twice" in capsys.readouterr().err
    assert not out.exists()


def test_apply_sweep_value(preset_cfg):
    assert apply_sweep_value(preset_cfg, "irs-size", 6).irs_grid == (6, 6)
    bumped = apply_sweep_value(preset_cfg, "rician-k", 7.0)
    assert bumped.rician_bs_irs[0] == 7.0
    assert bumped.rician_irs_user == 7.0
    assert bumped.rician_bs_irs[1:] == preset_cfg.rician_bs_irs[1:]
    noisy = apply_sweep_value(preset_cfg, "error-std", 0.4)
    assert noisy.delta1 == noisy.delta2 == 0.4
    moved = apply_sweep_value(preset_cfg, "user-distance", 400.0)
    assert np.isclose(moved.d_bs_user(0), 400.0, atol=1e-9)
    np.testing.assert_allclose(moved.user_position,
                               user_position_on_bisector(400.0), atol=1e-9)
    with pytest.raises(ValueError):
        apply_sweep_value(preset_cfg, "irs-size", 2.5)
    with pytest.raises(ValueError):
        apply_sweep_value(preset_cfg, "rician-k", -1.0)
    with pytest.raises(ValueError):
        apply_sweep_value(preset_cfg, "user-distance", 0.0)
    # non-finite sizes and distances raise ValueError, not OverflowError or a NaN user
    for param, value in (("irs-size", math.inf), ("irs-size", math.nan),
                         ("user-distance", math.nan), ("user-distance", math.inf)):
        with pytest.raises(ValueError):
            apply_sweep_value(preset_cfg, param, value)
    # an infinite Rician factor is pure LoS, not an error
    assert apply_sweep_value(preset_cfg, "rician-k", math.inf).rician_irs_user == math.inf


def test_run_sweep_artifacts(tmp_path, preset_cfg):
    cfg = preset_cfg.replace(bs_grids=((2, 2),) * 3)
    spec = _tiny_sweep(seed=3)
    rows = run_sweep(spec, cfg, str(tmp_path))

    csv_path = tmp_path / "results.csv"
    manifest_path = tmp_path / "manifest.json"
    assert csv_path.exists() and manifest_path.exists()
    with open(csv_path, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == len(rows) == len(spec.values) * len(spec.schemes)
    assert tuple(parsed[0].keys()) == CSV_COLUMNS
    for row in parsed:
        assert row["seed"] == "3"
        assert len(row["config_hash"]) == 12
        assert float(row["mc_rate"]) > 0

    manifest = json.loads(manifest_path.read_text())
    assert manifest["seed"] == 3
    assert manifest["sweep"]["param"] == "irs-size"
    assert manifest["scenario"]["name"] == cfg.name
    assert "versions" in manifest


def test_run_sweep_deterministic_bytes(tmp_path, preset_cfg):
    cfg = preset_cfg.replace(bs_grids=((2, 2),) * 3)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_sweep(_tiny_sweep(seed=5), cfg, str(out_a))
    run_sweep(_tiny_sweep(seed=5), cfg, str(out_b))
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
    assert (out_a / "manifest.json").read_bytes() == (out_b / "manifest.json").read_bytes()


def test_run_sweep_hashes_each_point_once(tmp_path, preset_cfg, monkeypatch):
    # two points of two schemes: one hash per point and one for the manifest,
    # and every row carries its own point's hash
    cfg = preset_cfg.replace(bs_grids=((2, 2),) * 3)
    spec = _tiny_sweep(seed=5, schemes=("robust-with-intf", "nonrobust-no-intf"))
    hashed = []
    config_hash = ScenarioConfig.config_hash

    def counting(self):
        hashed.append(self.irs_grid)
        return config_hash(self)

    monkeypatch.setattr(ScenarioConfig, "config_hash", counting)
    rows = run_sweep(spec, cfg, str(tmp_path))
    monkeypatch.undo()
    assert sorted(hashed) == sorted([cfg.irs_grid, (2, 2), (3, 3)])
    assert [row["config_hash"] for row in rows] == [
        apply_sweep_value(cfg, spec.param, value).config_hash()
        for value in spec.values for _ in spec.schemes]


def test_run_sweep_takes_numpy_integers(tmp_path, preset_cfg):
    # counts and seeds are kept as plain ints and sweep values as plain
    # floats, so numpy numbers write the same artifacts instead of failing
    # half-way through manifest.json
    cfg = preset_cfg.replace(bs_grids=((2, 2),) * 3)
    plain = _tiny_sweep(seed=5)
    solver = SolverConfig(iterations=np.int64(15), samples_per_iter=np.int64(3),
                          probe_every=np.int64(0))
    numpy_ints = dataclasses.replace(plain, values=(np.int64(2), np.float32(3.0)),
                                     n_samples=np.int64(plain.n_samples),
                                     seed=np.int64(5), solver=solver)
    assert all(type(value) is float for value in numpy_ints.values)
    run_sweep(plain, cfg, str(tmp_path / "a"))
    run_sweep(numpy_ints, cfg, str(tmp_path / "b"))
    for name in ("results.csv", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_manifest_alone_rebuilds_a_scheme_design(tmp_path, preset_cfg):
    # the manifest records each scheme's design seed, so a row's design and
    # its ub_rate come back from manifest.json alone
    cfg = preset_cfg.replace(bs_grids=((2, 2),) * 3)
    spec = _tiny_sweep(seed=11, schemes=("proposed", "robust-no-intf"), values=(3.0,))
    run_sweep(spec, cfg, str(tmp_path))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert "seed" not in manifest["solver"]
    assert manifest["design_seeds"] == {name: child_seed(11, f"design/{name}")
                                        for name in spec.schemes}
    with open(tmp_path / "results.csv", newline="") as fh:
        row = next(r for r in csv.DictReader(fh) if r["scheme"] == "robust-no-intf")
    point = apply_sweep_value(irsopt.ScenarioConfig.from_dict(manifest["scenario"]),
                              manifest["sweep"]["param"], float(row["sweep_value"]))
    solver = SolverConfig(**manifest["solver"], seed=manifest["design_seeds"][row["scheme"]])
    stats = build_statistics(point)
    v = design_scheme(scheme(row["scheme"]), stats, point, solver)
    assert repr(irsopt.upper_bound_rate_closed_form(v, stats, point)) == row["ub_rate"]


def test_run_sweep_rows_equal_evaluate_scheme_reports(tmp_path, preset_cfg):
    # each sweep value evaluates all its schemes in one batched call; every
    # row still equals the one-scheme evaluation with the same seeds
    cfg = preset_cfg.replace(bs_grids=((2, 2),) * 3)
    spec = _tiny_sweep(seed=7, schemes=("proposed", "robust-with-intf", "robust-no-intf"),
                       values=(2.0, 3.0))
    rows = run_sweep(spec, cfg, str(tmp_path))
    assert [(float(r["sweep_value"]), r["scheme"]) for r in rows] == [
        (value, name) for value in spec.values for name in spec.schemes]
    for row in rows:
        point = apply_sweep_value(cfg, spec.param, float(row["sweep_value"]))
        solver = dataclasses.replace(
            spec.solver, seed=child_seed(spec.seed, f"design/{row['scheme']}"))
        report = evaluate_scheme(scheme(row["scheme"]), build_statistics(point), point,
                                 solver, spec.n_samples, child_seed(spec.seed, "eval"))
        assert [row[key] for key in ("ub_rate", "mc_rate", "mc_stderr")] == \
            [repr(report.ub_rate), repr(report.mc_rate), repr(report.mc_stderr)]


@pytest.mark.parametrize("param, values, schemes, stacks", [
    ("error-std", (1e-6, 0.6), ("proposed", "robust-with-intf", "nonrobust-no-intf"), [3]),
    ("irs-size", (2.0, 3.0), ("proposed", "robust-no-intf"), [2, 2]),
    ("error-std", (1e-6, 0.6), ("robust-with-intf",), []),
    ("error-std", (0.3, 0.3), tuple(sorted(SCHEMES)), [4]),
], ids=["error-std", "irs-size", "random-phase-only", "repeated-value"])
def test_run_sweep_designs_each_shape_in_one_stack(tmp_path, preset_cfg, monkeypatch,
                                                   param, values, schemes, stacks):
    # a sweep's distinct SSCA designs form one lockstep stack per (Mr, M0, K)
    # shape (a non-robust design does not depend on delta, and a repeated
    # value repeats every objective, so each reaches the stack once), and
    # every row is bit for bit the per-point evaluation with its seeds, so a
    # repeated value writes equal rows
    cfg = preset_cfg.replace(bs_grids=((2, 2),) * 3)
    spec = dataclasses.replace(_tiny_sweep(seed=3, schemes=schemes, values=values), param=param)
    stack_rows = []
    run_stack = baselines.run_stack

    def counting(solver_cfgs, designs, *args, **kwargs):
        stack_rows.append(len(designs))
        return run_stack(solver_cfgs, designs, *args, **kwargs)

    monkeypatch.setattr(baselines, "run_stack", counting)
    rows = run_sweep(spec, cfg, str(tmp_path))
    monkeypatch.undo()
    assert stack_rows == stacks
    solvers = [dataclasses.replace(spec.solver, seed=child_seed(spec.seed, f"design/{name}"))
               for name in schemes]
    for i, value in enumerate(values):
        point = apply_sweep_value(cfg, param, value)
        points = [(build_statistics(point), point)]
        (reports,) = baselines.evaluate_designs(
            baselines.design_schemes([scheme(name) for name in schemes], solvers, points),
            points, spec.n_samples, child_seed(spec.seed, "eval"))
        for row, report in zip(rows[i * len(schemes):], reports):
            assert float(row["sweep_value"]) == value
            assert [row[key] for key in ("ub_rate", "mc_rate", "mc_stderr")] == \
                [repr(report.ub_rate), repr(report.mc_rate), repr(report.mc_stderr)]


def test_fig3_sweep_solves_six_rows_and_draws_its_random_phases_once(tmp_path, preset_cfg,
                                                                    monkeypatch):
    # the non-robust objectives do not depend on delta and a random-phase
    # design reads only its scheme, seed, draw and Mr: of the 8 SSCA rows of
    # the paper-fig3 sweep 6 run, and its 10 random designs serve both points
    stacked, drawn = [], []
    stack, design_scheme = DesignObjective.stack.__func__, baselines.design_scheme

    def counting_stack(cls, designs):
        stacked.append(len(designs))
        return stack(cls, designs)

    def counting_design(*args, **kwargs):
        drawn.append(args)
        return design_scheme(*args, **kwargs)

    monkeypatch.setattr(DesignObjective, "stack", classmethod(counting_stack))
    monkeypatch.setattr(baselines, "design_scheme", counting_design)
    spec = SweepSpec(param="error-std", values=(1e-6, 0.6), schemes=tuple(sorted(SCHEMES)),
                     n_samples=20, seed=4, solver=SolverConfig(iterations=3, samples_per_iter=2))
    rows = run_sweep(spec, preset_cfg, str(tmp_path))
    assert len(rows) == 10 and stacked == [6] and len(drawn) == 10


@pytest.mark.parametrize("command", [
    ["eval", "--schemes", "proposed"],
    ["sweep", "--sweep", "error-std", "--values", "0.1", "--schemes", "proposed"]],
    ids=["eval", "sweep"])
def test_one_sample_is_rejected_before_any_output(tmp_path, capsys, command):
    # one sample has no standard error: it once printed mc=2.0712 +/- 0.0000
    out = tmp_path / "out"
    assert main(command + ["--iters", "3", "--samples", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: n_samples must be >= 2")
    assert not out.exists()


def test_cli_solve_and_eval(tmp_path):
    out = tmp_path / "solve"
    rc = main(["solve", "--preset", "paper-fig3", "--iters", "20",
               "--samples-per-iter", "3", "--seed", "1", "--out", str(out),
               "--probe-every", "10"])
    assert rc == 0
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "t,c0,fixed_point_gap,ub_rate_probe"
    assert len(trace) == 21
    design = json.loads((out / "design.json").read_text())
    assert len(design["phases_rad"]) == 64

    out2 = tmp_path / "eval"
    rc = main(["eval", "--preset", "paper-fig3", "--iters", "10",
               "--samples-per-iter", "2", "--samples", "60",
               "--schemes", "robust-with-intf", "--seed", "2", "--out", str(out2)])
    assert rc == 0
    payload = json.loads((out2 / "eval.json").read_text())
    assert "robust-with-intf" in payload["reports"]
    assert payload["reports"]["robust-with-intf"]["n_samples"] == 60


def test_cli_solve_and_eval_reruns_are_byte_identical(tmp_path):
    solve = ["solve", "--preset", "paper-fig3", "--iters", "20", "--samples-per-iter", "3",
             "--seed", "5", "--probe-every", "5"]
    evaluate = ["eval", "--preset", "paper-fig3", "--iters", "8", "--samples-per-iter", "2",
                "--samples", "80", "--schemes", "proposed,robust-with-intf", "--seed", "5"]
    for run in ("a", "b"):
        assert main(solve + ["--out", str(tmp_path / run / "solve")]) == 0
        assert main(evaluate + ["--out", str(tmp_path / run / "eval")]) == 0
    for artifact in ("solve/trace.csv", "solve/design.json", "eval/eval.json"):
        assert (tmp_path / "a" / artifact).read_bytes() == \
            (tmp_path / "b" / artifact).read_bytes(), artifact


def test_design_and_eval_json_alone_rebuild_their_designs(tmp_path):
    # design.json and eval.json record what manifest.json records of a run:
    # the solver settings, each design's seed and the versions, so a design
    # comes back from its artifact alone
    run_keys = {"scenario", "config_hash", "seed", "solver", "design_seeds", "versions"}
    out = tmp_path / "solve"
    assert main(["solve", "--preset", "paper-fig3", "--iters", "12", "--samples-per-iter", "3",
                 "--seed", "4", "--probe-every", "6", "--out", str(out)]) == 0
    design = json.loads((out / "design.json").read_text())
    assert set(design) == run_keys | {"tau_reg", "phases_rad"}
    assert {k: design["solver"][k] for k in ("iterations", "samples_per_iter", "probe_every")} \
        == {"iterations": 12, "samples_per_iter": 3, "probe_every": 6}
    assert design["design_seeds"] == {"proposed": 4}
    cfg = irsopt.ScenarioConfig.from_dict(design["scenario"])
    solver = SolverConfig(**design["solver"], seed=design["design_seeds"]["proposed"])
    result = irsopt.ssca.run(solver, build_statistics(cfg), cfg)
    assert list(np.angle(result.v.v)) == design["phases_rad"]
    assert result.tau_reg == design["tau_reg"]

    out = tmp_path / "eval"
    names = ("proposed", "robust-no-intf")
    assert main(["eval", "--preset", "paper-fig3", "--iters", "6", "--samples-per-iter", "2",
                 "--samples", "40", "--schemes", ",".join(names), "--seed", "9",
                 "--out", str(out)]) == 0
    payload = json.loads((out / "eval.json").read_text())
    assert set(payload) == run_keys | {"n_samples", "reports"}
    assert payload["versions"] == json.loads(
        (out.parent / "solve" / "design.json").read_text())["versions"]
    assert payload["design_seeds"] == {name: child_seed(9, f"design/{name}") for name in names}
    cfg = irsopt.ScenarioConfig.from_dict(payload["scenario"])
    stats = build_statistics(cfg)
    for name in names:
        solver = SolverConfig(**payload["solver"], seed=payload["design_seeds"][name])
        v = design_scheme(scheme(name), stats, cfg, solver)
        assert irsopt.upper_bound_rate_closed_form(v, stats, cfg) == \
            payload["reports"][name]["ub_rate"]


def test_cli_error_paths(tmp_path, capsys):
    rc = main(["eval", "--preset", "nope", "--out", str(tmp_path)])
    assert rc == 2
    assert "unknown preset" in capsys.readouterr().err
    rc = main(["sweep", "--preset", "paper-fig3", "--sweep", "irs-size",
               "--values", "4", "--schemes", "", "--out", str(tmp_path)])
    assert rc == 2
    assert "scheme list" in capsys.readouterr().err
    bad_out = tmp_path / "bad-value"
    rc = main(["sweep", "--preset", "paper-fig3", "--sweep", "irs-size",
               "--values", "4,inf", "--schemes", "proposed", "--out", str(bad_out)])
    assert rc == 2
    assert "IRS grid size" in capsys.readouterr().err
    assert not bad_out.exists()              # rejected before any point runs
    a_file = tmp_path / "a-file"                 # --out names a file, not a directory
    a_file.write_text("kept\n")
    for command in (["solve", "--iters", "2"],
                    ["eval", "--iters", "2", "--samples", "5", "--schemes", "proposed"],
                    ["sweep", "--sweep", "irs-size", "--values", "2", "--iters", "2",
                     "--samples", "5", "--schemes", "proposed"]):
        rc = main(command + ["--out", str(a_file)])
        assert rc == 2, command
        assert capsys.readouterr().err.startswith("error: "), command
        assert a_file.read_text() == "kept\n"
    with pytest.raises(SystemExit) as exc:       # argparse rejects unknown commands
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [
    ["solve", "--iters", "2"],
    ["eval", "--iters", "2", "--samples", "5", "--schemes", "proposed"],
    ["sweep", "--sweep", "irs-size", "--values", "2", "--iters", "2", "--samples", "5",
     "--schemes", "proposed"]], ids=["solve", "eval", "sweep"])
def test_unstorable_seed_is_rejected_before_any_output(tmp_path, capsys, command):
    # child_seed stores a seed in 16 bytes: 2**128 once died in an OverflowError
    # traceback in eval and sweep, and solve accepted it
    out = tmp_path / "out"
    assert main(command + ["--seed", str(2 ** 128), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "2**128" in err
    assert not out.exists()


def test_sweep_point_with_impossible_error_std_writes_nothing(tmp_path, capsys):
    # an absolute delta of 1e-3 exceeds the channel std at the second point;
    # the manifest was once written before that point's statistics were built
    cfg = irsopt.load_scenario("paper-fig3").replace(error_units="absolute")
    path = tmp_path / "abs.json"
    irsopt.save_scenario(cfg, str(path))
    out = tmp_path / "out"
    rc = main(["sweep", "--scenario", str(path), "--sweep", "error-std",
               "--values", "0,1e-3", "--iters", "2", "--samples", "5",
               "--schemes", "proposed", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exceed" in err
    assert not out.exists()


@pytest.mark.parametrize("key, value, field", [
    ("powers_dbm", [30.0, 4000.0, 30.0], "powers_dbm[1]"),
    ("noise_dbm", 4000.0, "noise_dbm"),
    ("noise_dbm", -4000.0, "noise_dbm"),
    ("user_position_m", [1e-200, 0.0], "BS 0-user"),
    ("user_position_m", [1e300, 1e300], "BS 0-user"),
], ids=["power-above-range", "noise-above-range", "zero-noise", "user-on-bs", "user-far"])
def test_scenario_values_beyond_float_range_are_input_errors(tmp_path, capsys, key, value,
                                                             field):
    # each once ended in an OverflowError or ZeroDivisionError traceback and
    # exit 1; 0 W of noise went on to a misleading solver error
    data = irsopt.load_scenario("paper-fig3").to_dict()
    data[key] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["eval", "--scenario", str(path), "--iters", "2", "--samples", "4",
                 "--schemes", "proposed", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err and "positive, finite" in err
    assert not out.exists()


def test_user_distance_sweep_beyond_float_range_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep", "--sweep", "user-distance", "--values", "200,1e300", "--iters", "2",
                 "--samples", "4", "--schemes", "proposed", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: BS 0-user: no positive, finite gain")
    assert not out.exists()


def test_samples_per_iter_defaults_to_the_solver_config(monkeypatch):
    # the solver's L default has one home, which the parser reads
    extra = {"solve": [], "eval": [], "sweep": ["--sweep", "irs-size", "--values", "2"]}
    for command, args in extra.items():
        assert build_parser().parse_args([command, *args]).samples_per_iter == \
            SolverConfig().samples_per_iter
    monkeypatch.setattr(SolverConfig, "samples_per_iter", 7)
    assert build_parser().parse_args(["solve"]).samples_per_iter == 7


def test_solve_rejects_a_file_out_before_solving(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the solve ran before --out was checked")

    monkeypatch.setattr(cli, "run_ssca", no_solve)
    a_file = tmp_path / "a-file"
    a_file.write_text("kept\n")
    assert main(["solve", "--iters", "5000", "--out", str(a_file)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert a_file.read_text() == "kept\n"


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
    assert "{solve,eval,sweep}" in build_parser().format_usage()


def test_scenario_file_flow(tmp_path):
    # save a modified scenario, then sweep from the file
    cfg = irsopt.load_scenario("paper-fig3").replace(bs_grids=((2, 2),) * 3,
                                                     name="modified")
    path = tmp_path / "scenario.json"
    irsopt.save_scenario(cfg, str(path))
    out = tmp_path / "run"
    rc = main(["sweep", "--scenario", str(path), "--sweep", "error-std",
               "--values", "0.0,0.5", "--schemes", "robust-with-intf",
               "--samples", "50", "--iters", "5", "--seed", "4", "--out", str(out)])
    assert rc == 0
    with open(out / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert rows[0]["scenario_id"] == "modified"
    # higher error -> lower rate
    assert float(rows[1]["mc_rate"]) < float(rows[0]["mc_rate"])


def _no_nan_json(path: Path):
    def constant(name):
        assert name != "NaN", f"NaN in {path.name}"
        return float(name)
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=constant)


def _no_nan_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        assert not any(value.strip().lower() == "nan" for value in row.values()), (path.name, row)
    return rows


def _assert_jensen(report: dict, where: str):
    ub, mc, se = (float(report[k]) for k in ("ub_rate", "mc_rate", "mc_stderr"))
    assert all(math.isfinite(x) for x in (ub, mc, se)), where
    assert ub >= mc - 3.0 * se, (where, ub, mc, se)


@pytest.mark.parametrize("regime", EDGE_REGIMES)
def test_every_command_runs_in_every_edge_regime(tmp_path, preset_cfg, regime):
    # solve, eval and a sweep to delta = sigma exit 0, write no NaN, and keep
    # every Monte Carlo rate below its upper bound within 3 standard errors
    path = tmp_path / "scenario.json"
    irsopt.save_scenario(edge_scenario(preset_cfg, regime), str(path))
    common = ["--scenario", str(path), "--iters", "8", "--samples-per-iter", "2",
              "--seed", "1"]
    assert main(["solve", *common, "--probe-every", "4", "--out", str(tmp_path / "solve")]) == 0
    _no_nan_json(tmp_path / "solve" / "design.json")
    _no_nan_csv(tmp_path / "solve" / "trace.csv")

    assert main(["eval", *common, "--samples", "300", "--out", str(tmp_path / "eval")]) == 0
    for name, report in _no_nan_json(tmp_path / "eval" / "eval.json")["reports"].items():
        _assert_jensen(report, f"eval {name}")

    assert main(["sweep", *common, "--sweep", "error-std", "--values", "0,1",
                 "--samples", "300", "--out", str(tmp_path / "sweep")]) == 0
    _no_nan_json(tmp_path / "sweep" / "manifest.json")
    rows = _no_nan_csv(tmp_path / "sweep" / "results.csv")
    assert len(rows) == 2 * len(SCHEMES)
    for row in rows:
        _assert_jensen(row, f"sweep {row['scheme']} at {row['sweep_value']}")


def test_readme_command_line_block_parses():
    # every irsopt line of the README's "Command line" block must name a
    # subcommand and flags the parser still has
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.strip() for line in block.replace("\\\n", " ").splitlines()]
    commands = [line for line in lines if line.startswith("irsopt ")]
    assert commands
    for line in commands:
        build_parser().parse_args(shlex.split(line, comments=True)[1:])
