"""Command line driver: outputs, exit codes, determinism."""

import csv
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import yaml

from tumoropt import StepFactors, solve_adjoint
from tumoropt.cli import (EXIT_CONFIG, EXIT_GATE, EXIT_OK, EXIT_SOLVER, main)
from tumoropt.config import RunConfig, build_setup

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
    assert report["stationarity"] <= 1e-10
    hist = _read_rows(out / "history.csv")
    assert hist[0] == ["iteration", "cost", "stationarity", "step_size"]


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


@pytest.mark.parametrize("override", [
    "control.initial.u1=.nan",
    "initial.phi0=.nan",
    "model.chi=.nan",
    "control.initial.u1=exp(800)",
    "control.initial.u2=1/x",
    "control.bounds.lower1=.nan",
    "cost.target_Q=.nan",
    "cost.b0=.nan",
])
def test_non_finite_config_input_is_config_error(tmp_path, override):
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tumoropt.cli", "simulate",
         "--config", str(root / "configs" / "canonical_1d.yaml"),
         "--out-dir", str(tmp_path / "out"), "--set", override],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == EXIT_CONFIG
    key = override.partition("=")[0]
    assert proc.stderr.startswith(f"config error: {key}")
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_obstacle_without_yosida_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, ZERO)
    code = main(["simulate", "--config", str(cfg), "--out-dir",
                 str(tmp_path / "out"), "--set", "potential.kind=obstacle"])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: the obstacle")


def test_verify_gate_failure_exit_code(tmp_path):
    # a sloppy Newton tolerance leaves the mass identity unsatisfied
    cfg = _write(tmp_path, COUPLED)
    out = tmp_path / "out"
    code = main(["verify", "--config", str(cfg), "--out-dir", str(out),
                 "--quiet", "--set", "solver.newton_tol=1.0e-2",
                 "--set", "solver.polish_steps=0"])
    assert code == EXIT_GATE
    report = json.loads((out / "verification_report.json").read_text())
    assert report["all_passed"] is False


def test_analyze_outputs(tmp_path, capsys):
    cfg = _write(tmp_path, COUPLED)
    out = tmp_path / "out"
    code = main(["analyze", "--config", str(cfg), "--out-dir", str(out)])
    assert code == EXIT_OK
    assert "min Rayleigh quotient" in capsys.readouterr().out
    report = json.loads((out / "ssc_report.json").read_text())
    assert report["ssc"]["satisfied"] is True
    assert report["ssc"]["sample_count"] >= 1
    assert set(report["ssc"]) == {"tau", "seed", "sample_count",
                                  "requested_samples", "min_rayleigh",
                                  "satisfied"}
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


def test_analyze_skips_curvature_with_final_tracking(tmp_path):
    cfg = _write(tmp_path, COUPLED)
    out = tmp_path / "out"
    code = main(["analyze", "--config", str(cfg), "--out-dir", str(out),
                 "--quiet", "--set", "cost.b2=0.5",
                 "--set", "cost.target_Omega=0.1"])
    assert code == EXIT_OK
    report = json.loads((out / "ssc_report.json").read_text())
    assert report["ssc"] is None


def test_seed_flag_reaches_reports(tmp_path):
    cfg = _write(tmp_path, COUPLED)
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(cfg), "--out-dir", str(out),
                 "--quiet", "--seed", "7"]) == EXIT_OK
    report = json.loads((out / "ssc_report.json").read_text())
    assert report["ssc"]["seed"] == 7


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


def test_output_collision_needs_force(tmp_path):
    cfg = _write(tmp_path, ZERO)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out),
                 "--quiet"]) == EXIT_OK
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out),
                 "--quiet"]) == EXIT_CONFIG
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out),
                 "--quiet", "--force"]) == EXIT_OK


def test_newton_budget_exhaustion_is_solver_error(tmp_path, capsys):
    cfg = _write(tmp_path, COUPLED)
    code = main(["simulate", "--config", str(cfg), "--out-dir",
                 str(tmp_path / "out"), "--set",
                 "solver.newton_max_iter=1"])
    assert code == EXIT_SOLVER
    assert "solver failure" in capsys.readouterr().err


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
