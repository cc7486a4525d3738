import csv
import dataclasses
import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

import irsopt
from irsopt import cli
from irsopt.baselines import design_scheme, evaluate_scheme, scheme
from irsopt.channel import build_statistics
from irsopt.cli import (
    CSV_COLUMNS,
    SweepSpec,
    apply_sweep_value,
    build_parser,
    main,
    run_sweep,
)
from irsopt.config import user_position_on_bisector
from irsopt.ssca import SolverConfig
from irsopt.streams import child_seed


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


def test_run_sweep_takes_numpy_integers(tmp_path, preset_cfg):
    # counts and seeds are kept as plain ints, so numpy integers write the
    # same artifacts instead of failing half-way through manifest.json
    cfg = preset_cfg.replace(bs_grids=((2, 2),) * 3)
    plain = _tiny_sweep(seed=5)
    solver = SolverConfig(iterations=np.int64(15), samples_per_iter=np.int64(3),
                          probe_every=np.int64(0))
    numpy_ints = dataclasses.replace(plain, n_samples=np.int64(plain.n_samples),
                                     seed=np.int64(5), solver=solver)
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
    v, _ = design_scheme(scheme(row["scheme"]), stats, point, solver)
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
        assert float(row["ub_rate"]) == pytest.approx(report.ub_rate, rel=1e-12, abs=0.0)
        assert float(row["mc_rate"]) == pytest.approx(report.mc_rate, rel=1e-12, abs=0.0)
        assert float(row["mc_stderr"]) == pytest.approx(report.mc_stderr, rel=1e-12, abs=0.0)


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
