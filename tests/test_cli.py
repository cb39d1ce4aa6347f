"""Command line driver: outputs, exit codes, determinism."""

import csv
import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import yaml

import tumoropt.stepper
import tumoropt.verify
from tumoropt import (ConfigError, SolverError, SscReport, StepFactors,
                      solve_adjoint)
from tumoropt import state
from tumoropt.cli import (EXIT_CONFIG, EXIT_GATE, EXIT_OK, EXIT_SOLVER, main)
from tumoropt.config import RunConfig, build_setup

from _support import assert_no_child_left, force_tail_path, in_forked_child

COUPLED = """\
grid: {shape: [17]}
time: {steps: 6, T: 0.5}
model: {alpha: 1.0, beta: 0.8, chi: 0.4}
nonlinearity:
  P: {shape: bump, scale: 0.6, center: 0.1, width: 0.8}
  h: {shape: ramp}
cost: {b1: 2.0, target_Q: "0.3 * cos(pi * x)"}
initial: {mu0: "0.05 * cos(pi * x)", phi0: "0.2 * cos(pi * x)", sigma0: 0.1}
control:
  initial:
    u1: "0.1 * cos(pi * x) * cos(2 * t)"
    u2: "0.05 * sin(pi * x) * (1 + t)"
  bounds: {lower1: -0.5, upper1: 0.5, lower2: -0.5, upper2: 0.5}
optimizer: {max_iter: 10}
ssc: {n_samples: 4}
"""

ZERO = """\
grid: {shape: [9]}
time: {steps: 4, T: 0.5}
"""


def _write(tmp_path, text, name="run.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def _read_rows(path):
    with path.open() as fh:
        return list(csv.reader(fh))


def test_simulate_zero_configuration_stays_zero(tmp_path):
    cfg = _write(tmp_path, ZERO)
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg), "--out-dir", str(out),
                 "--quiet"])
    assert code == EXIT_OK
    for tag in ("0000", "0004"):
        rows = _read_rows(out / f"state_{tag}.csv")
        assert rows[0] == ["index", "x", "mu", "phi", "sigma"]
        assert len(rows) == 10
        for row in rows[1:]:
            assert [float(v) for v in row[2:]] == [0.0, 0.0, 0.0]
    diag = _read_rows(out / "diagnostics.csv")
    assert diag[0][0] == "level"
    assert len(diag) == 6
    assert (out / "resolved_config.yaml").is_file()


def test_simulate_reruns_are_byte_identical(tmp_path):
    cfg = _write(tmp_path, COUPLED)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out_a),
                 "--quiet"]) == EXIT_OK
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out_b),
                 "--quiet"]) == EXIT_OK
    for name in ("state_0000.csv", "state_0006.csv", "diagnostics.csv",
                 "resolved_config.yaml"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_simulate_diagnostics_record_factorizations(tmp_path):
    cfg = _write(tmp_path, COUPLED)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out),
                 "--quiet"]) == EXIT_OK
    with (out / "diagnostics.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0])[2:4] == ["newton_iters", "factorizations"]
    setup = build_setup(RunConfig.from_file(cfg))
    state = setup.problem.solve(setup.initial_control)
    assert [int(r["factorizations"]) for r in rows] == \
        state.factorizations.tolist()
    # the final residual follows them, written to round-trip
    assert list(rows[0])[4] == "final_residual"
    assert [float(r["final_residual"]) for r in rows] == \
        state.final_residual.tolist()
    # chord polish: fewer LUs than Newton iterations, at least one per step
    lus = [int(r["factorizations"]) for r in rows[1:]]
    iters = [int(r["newton_iters"]) for r in rows[1:]]
    assert min(lus) >= 1
    assert sum(lus) < sum(iters)


def test_optimize_pure_control_cost_hits_bound(tmp_path):
    raw = """\
grid: {shape: [9]}
time: {steps: 4, T: 0.5}
control:
  initial: {u1: 0.3, u2: 0.3}
  bounds: {lower1: 0.1, upper1: 0.5, lower2: 0.1, upper2: 0.5}
optimizer: {tol: 1.0e-10}
"""
    cfg = _write(tmp_path, raw)
    out = tmp_path / "out"
    assert main(["optimize", "--config", str(cfg), "--out-dir", str(out),
                 "--quiet"]) == EXIT_OK
    rows = _read_rows(out / "control_u1.csv")
    vals = np.array([[float(v) for v in row[2:]] for row in rows[1:]])
    assert np.abs(vals - 0.1).max() <= 1e-12
    report = json.loads((out / "optimize_report.json").read_text())
    assert report["converged"] is True
    assert report["reason"] == "converged"
    assert report["stationarity"] <= 1e-10
    hist = _read_rows(out / "history.csv")
    assert hist[0] == ["iteration", "cost", "stationarity", "step_size",
                       "solves", "cg_iters"]
    # row 0 is the start: no trial, no product
    assert hist[1][4:] == ["0", "0"]
    assert all(int(row[4]) >= 1 for row in hist[2:])


def test_optimize_reruns_identical_up_to_timestamp(tmp_path):
    cfg = _write(tmp_path, COUPLED)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["optimize", "--config", str(cfg), "--out-dir", str(out),
                     "--quiet"]) == EXIT_OK
    for name in ("control_u1.csv", "control_u2.csv", "gradient_u1.csv",
                 "gradient_u2.csv", "history.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    ra = json.loads((out_a / "optimize_report.json").read_text())
    rb = json.loads((out_b / "optimize_report.json").read_text())
    ra.pop("timestamp")
    rb.pop("timestamp")
    assert ra == rb


def test_verify_passes_on_coupled_configuration(tmp_path, capsys):
    cfg = _write(tmp_path, COUPLED)
    out = tmp_path / "out"
    code = main(["verify", "--config", str(cfg), "--out-dir", str(out)])
    captured = capsys.readouterr().out
    assert code == EXIT_OK
    assert "[pass] mass_identity" in captured
    assert "all checks passed" in captured
    report = json.loads((out / "verification_report.json").read_text())
    assert report["all_passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert "duality" in names and "gradient_fd" in names


def _run_canonical(tmp_path, command, overrides):
    """Run the CLI in a fresh interpreter on the shipped canonical config."""
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    sets = [arg for override in overrides for arg in ("--set", override)]
    return subprocess.run(
        [sys.executable, "-m", "tumoropt.cli", command,
         "--config", str(root / "configs" / "canonical_1d.yaml"),
         "--out-dir", str(tmp_path / "out"), *sets],
        capture_output=True, text=True, env=env, timeout=300)


@pytest.mark.parametrize("override", [
    "control.initial.u1=.nan",
    "initial.phi0=.nan",
    "model.chi=.nan",
    "control.initial.u1=exp(800)",
    "control.initial.u2=1/x",
    "control.bounds.lower1=.nan",
    "cost.target_Q=.nan",
    "cost.b0=.nan",
    "nonlinearity.P={shape: bump, scale: .nan}",
    "nonlinearity.P={shape: table, xs: [-1, 1], ys: [0, .inf]}",
])
def test_non_finite_config_input_is_config_error(tmp_path, override):
    proc = _run_canonical(tmp_path, "simulate", [override])
    assert proc.returncode == EXIT_CONFIG
    key = override.partition("=")[0]
    assert proc.stderr.startswith(f"config error: {key}")
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("override", [
    "initial.phi0=1" + "0" * 400 + " * x",
    "initial.phi0=" + "-" * 1500 + "x",
], ids=["literal-past-float-range", "nested-1500-deep"])
def test_oversized_expression_is_config_error(tmp_path, override):
    proc = _run_canonical(tmp_path, "simulate", [override])
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.startswith("config error: initial.phi0")
    assert "Traceback" not in proc.stderr


def test_initial_phase_outside_the_potential_domain_is_config_error(tmp_path):
    # the canonical logarithmic potential lives on (-1, 1)
    proc = _run_canonical(tmp_path, "simulate", ["initial.phi0=2"])
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.startswith(
        "config error: initial.phi0: initial phase field must lie strictly "
        "inside (-1.0, 1.0); got range [2.0, 2.0]")
    assert "Traceback" not in proc.stderr
    out = tmp_path / "out"
    assert not out.exists() or list(out.iterdir()) == []


def _out_of_memory(*args, **kwargs):
    # a huge allocation may or may not fail at once, by the machine's
    # overcommit mode, so the error is raised by hand
    raise MemoryError("Unable to allocate 745. GiB")


@pytest.mark.parametrize("target, name, fake, code, message", [
    (state.TimeGrid, "times", property(_out_of_memory), EXIT_CONFIG,
     "config error: grid.shape, time.steps: the problem does not fit in "
     "memory\n"),
    (tumoropt.stepper.Stepper, "residual", _out_of_memory, EXIT_SOLVER,
     "solver failure: out of memory\n"),
], ids=["setup", "run"])
def test_problem_too_large_for_memory_exits_cleanly(
        tmp_path, capsys, monkeypatch, target, name, fake, code, message):
    # setup lays out the time levels, and the run's first step evaluates
    # its residual
    monkeypatch.setattr(target, name, fake)
    cfg = _write(tmp_path, COUPLED)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out),
                 "--quiet"]) == code
    assert capsys.readouterr().err == message
    assert not out.exists() or list(out.iterdir()) == []


def test_narrow_bump_runs(tmp_path):
    # a valid shape needs no derivative self-check at run time, however
    # narrow it is; tests/test_model.py checks the derivative code instead
    proc = _run_canonical(tmp_path, "simulate", [
        "nonlinearity.P={shape: bump, scale: 0.5, center: 0.0, width: 0.003}",
        "grid.shape=[33]", "time.steps=20"])
    assert proc.returncode == EXIT_OK, proc.stderr
    rows = _read_rows(tmp_path / "out" / "diagnostics.csv")
    assert rows[0][0] == "level"
    assert [int(row[0]) for row in rows[1:]] == list(range(21))


def test_2d_optimize_exits_cleanly(tmp_path):
    # its factors form on worker threads, which the interpreter stops at
    # exit after each has freed the factors it formed
    proc = _run_canonical(tmp_path, "optimize", [
        "grid.dim=2", "grid.shape=[9,9]", "grid.lengths=[1.0,1.0]",
        "time.steps=40"])
    assert proc.returncode == EXIT_OK
    assert proc.stderr == ""


@pytest.mark.parametrize("command, overrides, key", [
    # a nonzero control keeps every gradient entry above tau = 0, so every
    # point is strongly active and the critical cone is trivial
    ("analyze", ["control.initial.u1=0.5", "control.initial.u2=0.5",
                 "ssc.tau=0", "grid.shape=[17]", "time.steps=20"], "ssc.tau"),
    # the adjoint strong-form window [0.1 T, 0.9 T] needs two level pairs,
    # with final-time tracking too
    ("verify", ["time.steps=2", "grid.shape=[9]"], "time.steps"),
    ("verify", ["time.steps=2", "grid.shape=[9]", "cost.b2=0.5",
                "cost.target_Omega=0.1"], "time.steps"),
], ids=["trivial-cone", "narrow-window", "narrow-window-final-tracking"])
def test_degenerate_check_settings_are_config_errors(tmp_path, command,
                                                     overrides, key):
    proc = _run_canonical(tmp_path, command, overrides)
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.startswith("config error: ")
    assert key in proc.stderr
    assert "Traceback" not in proc.stderr
    # the run leaves no file behind, so a rerun without --force meets the
    # same config error rather than a non-empty output directory
    assert list((tmp_path / "out").iterdir()) == []
    again = _run_canonical(tmp_path, command, overrides)
    assert again.returncode == EXIT_CONFIG
    assert again.stderr == proc.stderr


def test_output_directory_that_cannot_be_made_is_a_config_error(tmp_path):
    # the output directory would sit inside a regular file
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    proc = _run_canonical(blocker, "simulate",
                          ["grid.shape=[9]", "time.steps=4"])
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.startswith(
        f"config error: cannot use output directory {blocker / 'out'}: ")
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == [blocker]
    assert blocker.read_text() == "kept\n"


def test_output_directory_that_cannot_be_listed_is_a_config_error(
        tmp_path, monkeypatch, capsys):
    cfg = _write(tmp_path, ZERO)
    out = tmp_path / "out"
    out.mkdir()

    def denied(self):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(pathlib.Path, "iterdir", denied)
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out),
                 "--quiet"]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: cannot use output directory {out}: "
        "Permission denied\n")
    monkeypatch.undo()
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, blocked", [
    ("simulate", "diagnostics.csv"),
    ("simulate", "resolved_config.yaml"),
    ("verify", "verification_report.json"),
])
def test_output_file_that_cannot_be_written_is_a_config_error(
        tmp_path, capsys, command, blocked):
    # a directory stands where the run writes one of its files
    cfg = _write(tmp_path, COUPLED)
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    assert main([command, "--config", str(cfg), "--out-dir", str(out),
                 "--force", "--quiet"]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: cannot write output file {out / blocked}: "
        "Is a directory\n")


# the former solver and descent settings, module constants now, and the
# block that held most of them
REMOVED_KEYS = {
    "solver", "solver.newton_tol", "solver.newton_max_iter",
    "solver.max_backtracks", "solver.separation_margin", "solver.yosida_eps",
    "solver.polish_steps", "solver.energy_blowup_factor",
    "optimizer.initial_step", "optimizer.armijo_c", "optimizer.shrink",
    "optimizer.max_backtracks", "optimizer.step_min", "optimizer.step_max",
}


@pytest.mark.parametrize("override", [
    "grid.shape=[.inf]",
    "grid.shape=[1e400]",
    "grid.shape=[9.5]",
    "grid.shape=[true]",
    "grid.shape=abc",
    "grid.lengths=[true]",
    "grid.lengths=[.inf]",
    "solver.max_backtracks=0",
    "optimizer.max_backtracks=0",
    "solver.separation_margin=1",
    "solver.separation_margin=2",
    "optimizer.shrink=1",
    "optimizer.tol=0",
    "solver.newton_tol=0",
    "solver.polish_steps=-1",
    "solver.yosida_eps=-0.1",
    "potential.yosida_eps=-0.1",
    "potential.yosida_eps=.nan",
    "potential.k1=0.5",
    "nonlinearity.P={shape: bump, width: 0}",
])
def test_bad_grid_or_backtrack_setting_is_config_error(tmp_path, capsys,
                                                       override):
    root = pathlib.Path(__file__).resolve().parents[1]
    out = tmp_path / "out"
    code = main(["simulate", "--config",
                 str(root / "configs" / "canonical_1d.yaml"),
                 "--out-dir", str(out), "--quiet", "--set", "time.steps=4",
                 "--set", override])
    err = capsys.readouterr().err
    # a shape block's message names the entry inside it
    key = {"nonlinearity.P={shape: bump, width: 0}": "nonlinearity.P.width"
           }.get(override, override.partition("=")[0])
    assert code == EXIT_CONFIG, err
    if key in REMOVED_KEYS:
        assert err.startswith(f"config error: unknown config key '{key}'\n")
    else:
        assert err.startswith(f"config error: {key} ")
    assert "Traceback" not in err
    assert not out.exists() or list(out.iterdir()) == []


def test_step_min_above_step_max_is_config_error(tmp_path, capsys):
    # the Barzilai-Borwein clamp is a constant: the key is gone
    root = pathlib.Path(__file__).resolve().parents[1]
    out = tmp_path / "out"
    code = main(["optimize", "--config",
                 str(root / "configs" / "canonical_1d.yaml"),
                 "--out-dir", str(out), "--quiet", "--set", "time.steps=4",
                 "--set", "optimizer.step_min=2e12"])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG, err
    assert err == "config error: unknown config key 'optimizer.step_min'\n"
    assert "Traceback" not in err
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("bounds", [
    ("control.bounds.lower1=.inf", "control.bounds.upper1=.inf"),
    ("control.bounds.upper2=-.inf", "control.bounds.lower2=-.inf"),
], ids=["lower-at-plus-inf", "upper-at-minus-inf"])
def test_bound_pinned_at_infinity_is_config_error(tmp_path, capsys, bounds):
    # no control lies below a lower bound of +inf or above an upper of -inf
    root = pathlib.Path(__file__).resolve().parents[1]
    out = tmp_path / "out"
    argv = ["optimize", "--config", str(root / "configs" / "canonical_1d.yaml"),
            "--out-dir", str(out), "--quiet", "--set", "grid.shape=[9]",
            "--set", "time.steps=4"]
    for assignment in bounds:
        argv += ["--set", assignment]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG, err
    assert err.startswith(f"config error: {bounds[0].partition('=')[0]} ")
    assert "Traceback" not in err
    assert not out.exists() or list(out.iterdir()) == []


def test_obstacle_without_yosida_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, ZERO)
    code = main(["simulate", "--config", str(cfg), "--out-dir",
                 str(tmp_path / "out"), "--set", "potential.kind=obstacle"])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        "config error: potential.yosida_eps must be set for the obstacle")


def test_verify_gate_failure_exit_code(tmp_path, monkeypatch):
    # a sloppy Newton tolerance leaves the mass identity unsatisfied
    monkeypatch.setattr(state, "_NEWTON_TOL", 1e-2)
    monkeypatch.setattr(state, "_POLISH_STEPS", 0)
    cfg = _write(tmp_path, COUPLED)
    out = tmp_path / "out"
    code = main(["verify", "--config", str(cfg), "--out-dir", str(out),
                 "--quiet"])
    assert code == EXIT_GATE
    report = json.loads((out / "verification_report.json").read_text())
    assert report["all_passed"] is False
    assert (out / "resolved_config.yaml").is_file()


def test_analyze_outputs(tmp_path, capsys):
    cfg = _write(tmp_path, COUPLED)
    out = tmp_path / "out"
    code = main(["analyze", "--config", str(cfg), "--out-dir", str(out)])
    assert code == EXIT_OK
    assert "min Rayleigh quotient" in capsys.readouterr().out
    report = json.loads((out / "ssc_report.json").read_text())
    assert report["ssc"]["satisfied"] is True
    assert report["ssc"]["sample_count"] >= 1
    assert set(report["ssc"]) == {f.name for f in
                                  dataclasses.fields(SscReport)}
    assert 0.0 <= report["active_fraction_u1"] <= 1.0
    for tag in ("0000", "0006"):
        assert (out / f"adjoint_{tag}.csv").is_file()
    rows = _read_rows(out / "active_set_u1.csv")
    flat = {v for row in rows[1:] for v in row[2:]}
    assert flat <= {"0", "1"}


def test_analyze_factors_and_marches_the_adjoint_once(tmp_path, monkeypatch):
    factor_passes, marches = [], []
    init = StepFactors.__init__

    def count_factors(self, *args, **kwargs):
        factor_passes.append(None)
        init(self, *args, **kwargs)

    def count_marches(*args, **kwargs):
        marches.append(None)
        return solve_adjoint(*args, **kwargs)

    monkeypatch.setattr(StepFactors, "__init__", count_factors)
    for module in list(sys.modules.values()):
        if (module.__name__.startswith("tumoropt")
                and vars(module).get("solve_adjoint") is solve_adjoint):
            monkeypatch.setattr(module, "solve_adjoint", count_marches)
    cfg = _write(tmp_path, COUPLED)
    assert main(["analyze", "--config", str(cfg), "--out-dir",
                 str(tmp_path / "out"), "--quiet"]) == EXIT_OK
    assert len(factor_passes) == 1
    assert len(marches) == 1


def test_analyze_certifies_curvature_with_final_tracking(tmp_path):
    cfg = _write(tmp_path, COUPLED)
    out = tmp_path / "out"
    code = main(["analyze", "--config", str(cfg), "--out-dir", str(out),
                 "--quiet", "--set", "cost.b2=0.5",
                 "--set", "cost.target_Omega=0.1"])
    assert code == EXIT_OK
    report = json.loads((out / "ssc_report.json").read_text())
    assert report["ssc"]["sample_count"] == 4
    assert report["ssc"]["satisfied"] is True


def test_analyze_of_the_optimized_controls_reports_their_cost(tmp_path):
    # optimize, then analyze at the controls it wrote; a relative `file`
    # resolves against the directory of the config file
    root = pathlib.Path(__file__).resolve().parents[1]
    cfg = _write(tmp_path,
                 (root / "configs" / "canonical_1d.yaml").read_text())
    common = ["--config", str(cfg), "--quiet", "--set", "grid.shape=[33]",
              "--set", "time.steps=50"]
    opt, ana = tmp_path / "opt", tmp_path / "ana"
    assert main(["optimize", "--out-dir", str(opt)] + common) == EXIT_OK
    assert main(["analyze", "--out-dir", str(ana)] + common + [
        "--set", "control.initial={u1: {file: opt/control_u1.csv}, "
                 "u2: {file: opt/control_u2.csv}}"]) == EXIT_OK
    optimized = json.loads((opt / "optimize_report.json").read_text())
    analyzed = json.loads((ana / "ssc_report.json").read_text())
    for key in ("cost", "stationarity"):
        assert analyzed[key] == optimized[key], key


def test_seed_flag_reaches_reports(tmp_path):
    cfg = _write(tmp_path, COUPLED)
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(cfg), "--out-dir", str(out),
                 "--quiet", "--seed", "7"]) == EXIT_OK
    report = json.loads((out / "ssc_report.json").read_text())
    assert report["ssc"]["seed"] == 7


def _outputs(out):
    """Every output file's bytes, JSON reports without their timestamp."""
    files = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".json":
            report = json.loads(path.read_text())
            report.pop("timestamp")
            files[path.name] = report
        else:
            files[path.name] = path.read_bytes()
    return files


def test_seed_flag_is_the_last_set_layer(tmp_path):
    cfg = _write(tmp_path, COUPLED)
    runs = {"flag": ["--seed", "7"], "set": ["--set", "ssc.seed=7"],
            "both": ["--set", "ssc.seed=3", "--seed", "7"]}
    for name, args in runs.items():
        assert main(["analyze", "--config", str(cfg), "--out-dir",
                     str(tmp_path / name), "--quiet", *args]) == EXIT_OK
    flag = _outputs(tmp_path / "flag")
    assert flag == _outputs(tmp_path / "set") == _outputs(tmp_path / "both")
    assert flag["ssc_report.json"]["ssc"]["seed"] == 7
    assert yaml.safe_load(flag["resolved_config.yaml"])["ssc"]["seed"] == 7


TABLE = "{shape: table, xs: [-1, 0, 1], ys: [0, 0.5, 1]}"


@pytest.mark.parametrize("command", ["verify", "analyze"])
@pytest.mark.parametrize("key", ["nonlinearity.P", "nonlinearity.h"])
def test_table_shape_without_curvature_is_config_error(tmp_path, capsys,
                                                       command, key):
    cfg = _write(tmp_path, COUPLED)
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--out-dir", str(out),
                 "--quiet", "--set", f"{key}={TABLE}"])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG, err
    assert err.startswith(f"config error: {key}: a table shape has no "
                          "second derivative")
    assert list(out.iterdir()) == []


def test_table_shape_with_final_tracking_is_config_error(tmp_path, capsys):
    # final-time tracking samples the curvature too
    cfg = _write(tmp_path, COUPLED)
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(cfg), "--out-dir", str(out),
                 "--quiet", "--set", f"nonlinearity.h={TABLE}",
                 "--set", "cost.b2=0.5"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        "config error: nonlinearity.h: a table shape has no second derivative")
    assert list(out.iterdir()) == []


def test_unknown_override_key_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, ZERO)
    code = main(["simulate", "--config", str(cfg), "--out-dir",
                 str(tmp_path / "out"), "--set", "model.zeta=1"])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_missing_config_file_is_config_error(tmp_path):
    code = main(["simulate", "--config", str(tmp_path / "nope.yaml"),
                 "--out-dir", str(tmp_path / "out"), "--quiet"])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("text", [
    b"grid: {shape: [9]}\ntime: {steps: 4, T: 0.5}  # \xff\n",
    b"grid: {shape: [9]\ntime: {steps: 4, T: 0.5}\n",
    b"grid:\n\tshape: [9]\ntime: {steps: 4, T: 0.5}\n",
], ids=["non-utf8", "unclosed-flow-mapping", "tab-indent"])
def test_malformed_yaml_file_is_config_error(tmp_path, capsys, text):
    cfg = tmp_path / "run.yaml"
    cfg.write_bytes(text)
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg), "--out-dir", str(out),
                 "--quiet"])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith(f"config error: cannot parse {cfg}")
    assert "Traceback" not in err
    assert not out.exists() or list(out.iterdir()) == []


def test_output_collision_needs_force(tmp_path):
    cfg = _write(tmp_path, ZERO)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out),
                 "--quiet"]) == EXIT_OK
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out),
                 "--quiet"]) == EXIT_CONFIG
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out),
                 "--quiet", "--force"]) == EXIT_OK


def test_newton_budget_exhaustion_is_solver_error(tmp_path, capsys,
                                                 monkeypatch):
    monkeypatch.setattr(state, "_NEWTON_MAX_ITER", 1)
    cfg = _write(tmp_path, COUPLED)
    code = main(["simulate", "--config", str(cfg), "--out-dir",
                 str(tmp_path / "out")])
    assert code == EXIT_SOLVER
    assert "solver failure" in capsys.readouterr().err


def test_band_lu_failure_is_solver_error(tmp_path, capsys, monkeypatch):
    def singular(ab, kl, ku, **kwargs):
        return ab, np.arange(1, ab.shape[1] + 1, dtype=np.int32), 1

    monkeypatch.setattr(tumoropt.stepper, "dgbtrf", singular)
    cfg = _write(tmp_path, COUPLED)
    code = main(["simulate", "--config", str(cfg), "--out-dir",
                 str(tmp_path / "out")])
    assert code == EXIT_SOLVER
    assert capsys.readouterr().err.startswith(
        "solver failure: step 1: band LU failed")


# the coupled run on a 9x9 square: its step LUs go to SuperLU
SQUARE = ["--set", "grid.dim=2", "--set", "grid.shape=[9,9]",
          "--set", "grid.lengths=[1.0,1.0]", "--set", "time.steps=16"]


def test_sparse_lu_failure_is_solver_error(tmp_path, capsys, monkeypatch):
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(tumoropt.stepper, "splu", singular)
    cfg = _write(tmp_path, COUPLED)
    code = main(["simulate", "--config", str(cfg), "--out-dir",
                 str(tmp_path / "out"), *SQUARE])
    assert code == EXIT_SOLVER
    assert capsys.readouterr().err.startswith(
        "solver failure: step 1: sparse LU failed")


def test_2d_simulate_carries_its_lu_across_steps(tmp_path, monkeypatch):
    # a 2-D march reuses one SuperLU factor while chord steps contract
    calls = []
    splu = tumoropt.stepper.splu

    def counted(*args, **kwargs):
        calls.append(None)
        return splu(*args, **kwargs)

    monkeypatch.setattr(tumoropt.stepper, "splu", counted)
    cfg = _write(tmp_path, COUPLED)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out),
                 "--quiet", *SQUARE]) == EXIT_OK
    steps, n_splu = 16, len(calls)
    assert 1 <= n_splu <= steps // 4
    rows = _read_rows(out / "diagnostics.csv")
    column = [int(row[rows[0].index("factorizations")]) for row in rows[1:]]
    assert sum(column) == n_splu
    setup = build_setup(RunConfig.from_dict(
        yaml.safe_load((out / "resolved_config.yaml").read_text()),
        base_dir=tmp_path))
    assert setup.problem.tgrid.steps == steps
    traj = setup.problem.solve(setup.initial_control)
    assert column == traj.factorizations.tolist()


def test_1d_commands_never_call_splu(tmp_path, monkeypatch):
    # 1-D step operators are band LUs; SuperLU is the 2-D path only
    def forbidden(*args, **kwargs):
        raise AssertionError("splu called on a 1-D run")

    monkeypatch.setattr(tumoropt.stepper, "splu", forbidden)
    cfg = _write(tmp_path, COUPLED)
    for command in ("simulate", "optimize", "analyze"):
        assert main([command, "--config", str(cfg), "--out-dir",
                     str(tmp_path / command), "--quiet"]) == EXIT_OK


def test_energy_blowup_is_solver_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(state, "_ENERGY_BLOWUP_FACTOR", 1e-16)
    root = pathlib.Path(__file__).resolve().parents[1]
    out = tmp_path / "out"
    code = main(["simulate", "--config",
                 str(root / "configs" / "canonical_1d.yaml"), "--out-dir",
                 str(out), "--quiet"])
    err = capsys.readouterr().err
    assert code == EXIT_SOLVER
    assert err.startswith("solver failure: energy ")
    assert "at step 1 " in err
    assert "Traceback" not in err
    assert list(out.iterdir()) == []


def test_verify_with_a_failing_shifted_control_is_solver_error(tmp_path,
                                                                capsys,
                                                                monkeypatch):
    # at u1 = -10 and 6 Newton iterations the verified control marches, but
    # one of its FD shifts (the first direction at -0.1) runs out of
    # iterations in its batch; warnings are errors here, so the batch must
    # warn of nothing
    monkeypatch.setattr(state, "_NEWTON_MAX_ITER", 6)
    root = pathlib.Path(__file__).resolve().parents[1]
    sets = ["grid.shape=[17]", "time.steps=25", "control.initial.u1=-10"]
    out = tmp_path / "out"
    code = main(["verify", "--config",
                 str(root / "configs" / "canonical_1d.yaml"), "--out-dir",
                 str(out), "--quiet",
                 *(arg for s in sets for arg in ("--set", s))])
    err = capsys.readouterr().err
    assert code == EXIT_SOLVER
    assert err.startswith("solver failure: step 16: Newton did not converge "
                          "within 6 iterations")
    assert "Traceback" not in err
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("error, code, prefix", [
    (SolverError, EXIT_SOLVER, "solver failure"),
    (ConfigError, EXIT_CONFIG, "config error"),
])
def test_verify_error_in_the_forked_tail_keeps_its_exit_code(
        tmp_path, capsys, monkeypatch, error, code, prefix):
    def fail():
        raise error("step 2: stand-in failure in the child")

    monkeypatch.setattr(tumoropt.verify, "check_stability_ratios",
                        in_forked_child(os.getpid(), fail))
    forks = force_tail_path(monkeypatch, fork=True)
    cfg = _write(tmp_path, COUPLED)
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out-dir", str(out),
                 "--quiet"]) == code
    err = capsys.readouterr().err
    assert err == f"{prefix}: step 2: stand-in failure in the child\n"
    assert len(forks) == 1
    assert not out.exists() or list(out.iterdir()) == []
    assert_no_child_left()


def test_resolved_config_reparses(tmp_path):
    cfg = _write(tmp_path, COUPLED)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out),
                 "--quiet"]) == EXIT_OK
    resolved = yaml.safe_load((out / "resolved_config.yaml").read_text())
    setup = build_setup(RunConfig.from_dict(resolved, base_dir=tmp_path))
    assert setup.problem.tgrid.steps == 6
    x = setup.problem.grid.coordinates()[:, 0]
    assert np.allclose(setup.initial_control.u1[0], 0.1 * np.cos(np.pi * x))


def test_quiet_suppresses_stdout(tmp_path, capsys):
    cfg = _write(tmp_path, ZERO)
    assert main(["simulate", "--config", str(cfg), "--out-dir",
                 str(tmp_path / "out"), "--quiet"]) == EXIT_OK
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# error contract under malformed overrides

FUZZ_SIZE = ["grid.shape=[9]", "time.steps=4"]
FUZZ_SCALARS = ("model.alpha", "model.beta", "model.chi", "time.T",
                "time.steps", "cost.b0", "cost.b1", "potential.k1",
                "solver.newton_tol", "solver.newton_max_iter",
                "optimizer.tol", "optimizer.shrink", "ssc.n_samples",
                "ssc.seed", "control.bounds.lower1", "initial.sigma0")
FUZZ_LISTS = ("grid.shape", "grid.lengths", "output.snapshot_times")
# field keys and whether they hold one value per time level
FUZZ_FIELDS = (("initial.phi0", False), ("initial.mu0", False),
               ("control.initial.u1", True), ("cost.target_Q", True))
FUZZ_WRONG_TYPES = ("[1, 2]", "{a: 1}", "true", "abc", "'0.5'", "null")
FUZZ_COMMANDS = ("simulate", "optimize", "analyze", "verify")
# every top-level block and the shape blocks must be mappings; the removed
# `solver` block is an unknown key
FUZZ_BLOCKS = ("grid", "time", "model", "potential", "nonlinearity", "cost",
               "control", "initial", "solver", "optimizer", "ssc", "output",
               "nonlinearity.P", "nonlinearity.h")
FUZZ_NON_MAPPINGS = (("null", "null"), ("list", "[1, 2]"), ("number", "3"))


def _fuzz_table(seed=20201):
    """(id, command, key, kind, value) rows of malformed overrides, seeded."""
    rng = np.random.default_rng(seed)
    rows = []
    for key in FUZZ_SCALARS:
        rows.append((key, "wrong-type",
                     str(rng.choice(FUZZ_WRONG_TYPES))))
        rows.append((key, "negative", f"-{rng.uniform(0.01, 5.0):.3g}"))
        rows.append((key, "nan", ".nan"))
    rows.extend((key, "empty-list", "[]") for key in FUZZ_LISTS)
    for key, _ in FUZZ_FIELDS:
        rows.extend((key, kind, None) for kind in
                    ("missing-csv", "csv-row-count", "csv-non-numeric"))
    # appended last, so the rows above keep their ids and command draws
    for key, _ in FUZZ_FIELDS:
        rows.extend((key, kind, None) for kind in
                    ("csv-non-finite", "csv-duplicate-index"))
    rows.extend([("grid.shape", "infinite", "[.inf]"),
                 ("grid.shape", "overflow", "[1e400]"),
                 ("grid.shape", "non-integral", "[9.5]"),
                 ("grid.shape", "boolean", "[true]"),
                 ("grid.shape", "string", "abc"),
                 ("grid.lengths", "boolean", "[true]"),
                 ("solver.max_backtracks", "zero", "0"),
                 ("optimizer.max_backtracks", "zero", "0")])
    rows.append(("solver.separation_margin", "empty-band", "2"))
    rows.extend((key, kind, value) for key in FUZZ_BLOCKS
                for kind, value in FUZZ_NON_MAPPINGS)
    return [(f"{key}-{kind}", str(rng.choice(FUZZ_COMMANDS)), key, kind, value)
            for key, kind, value in rows]


def _fuzz_csv(tmp_path, key, kind):
    """Path of a field file for `key`, missing or malformed by `kind`."""
    path = tmp_path / f"{key}.csv"
    if kind == "missing-csv":
        return path
    per_level = dict(FUZZ_FIELDS)[key]
    n_values = 5 if per_level else 1  # time.steps=4 gives 5 levels
    n_rows = 8 if kind == "csv-row-count" else 9
    lines = ["index,x," + ",".join(f"v{j}" for j in range(n_values))]
    for i in range(n_rows):
        cells = [str(i), repr(i / 8.0)] + ["0.1"] * n_values
        if kind == "csv-non-numeric" and i == 4:
            cells[-1] = "zero"
        if kind == "csv-non-finite" and i in (2, 6):
            cells[-1] = "nan" if i == 2 else "inf"
        if kind == "csv-duplicate-index" and i == 5:
            cells[0] = "4"  # node 4 twice, node 5 missing
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("case", _fuzz_table(), ids=lambda row: row[0])
def test_malformed_override_keeps_error_contract(tmp_path, capsys, case):
    _, command, key, kind, value = case
    if value is None:
        value = "{file: " + str(_fuzz_csv(tmp_path, key, kind)) + "}"
    root = pathlib.Path(__file__).resolve().parents[1]
    out = tmp_path / "out"
    sets = [arg for override in FUZZ_SIZE + [f"{key}={value}"]
            for arg in ("--set", override)]
    try:
        code = main([command, "--config", str(root / "configs" /
                                              "canonical_1d.yaml"),
                     "--out-dir", str(out), "--quiet", *sets])
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_SOLVER, EXIT_GATE), err
    assert "Traceback" not in err
    if key in FUZZ_BLOCKS:
        assert code == EXIT_CONFIG, err
    if key in REMOVED_KEYS:
        assert err.startswith(f"config error: unknown config key '{key}'\n")
    if code == EXIT_CONFIG:
        assert not out.exists() or list(out.iterdir()) == []
