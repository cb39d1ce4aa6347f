"""Batch front end: simulate | optimize | verify | analyze.

All numeric output uses 17 significant digits and fixed key ordering, so a
rerun with the same config and seed reproduces every file byte for byte; the
only varying datum is the single "timestamp" key of the JSON reports.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import yaml

from .config import RunConfig, RunSetup, build_setup
from .errors import ConfigError, SolverError
from .grid import Grid
from .optimize import (SecondOrderContext, cost_eval, default_tau,
                       projected_gradient, ssc_certificate,
                       stationarity_measure, strongly_active_sets)
from .verify import run_verification

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_GATE = 4


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    say = (lambda *a: None) if args.quiet else (lambda *a: print(*a))

    try:
        seed = [] if args.seed is None else [f"ssc.seed={args.seed}"]
        cfg = RunConfig.from_file(args.config, overrides=(*args.set, *seed))
        setup = build_setup(cfg)
        out_dir = Path(args.out_dir) if args.out_dir else Path(setup.output["out_dir"])
        _prepare_out_dir(out_dir, force=args.force)
        runner = {"simulate": _run_simulate, "optimize": _run_optimize,
                  "verify": _run_verify, "analyze": _run_analyze}[args.command]
        # a run may still meet a config error (a trivial critical cone at
        # ssc.tau, a strong-form window too narrow for time.steps); the
        # resolved config is written only once the run got through, so a
        # config error leaves the directory empty for a rerun
        code = runner(setup, out_dir, say)
        (out_dir / "resolved_config.yaml").write_text(
            yaml.safe_dump(setup.resolved, sort_keys=True))
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tumoropt",
        description="Tumor-growth phase field simulation and optimal control.")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "simulate": "march the state system and write snapshots",
        "optimize": "minimize the tracking cost: projected gradient (BB) "
                    "steps, then projected Newton-CG once they stall",
        "verify": "run the self-check suite and gate on the outcome",
        "analyze": "adjoint, active sets and sampled curvature at the "
                   "configured control",
    }
    for name, text in specs.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--out-dir", default=None,
                       help="output directory (default: output.out_dir)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the sampling seed")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VAL",
                       help="override one config entry (repeatable)")
        p.add_argument("--quiet", action="store_true")
        p.add_argument("--force", action="store_true",
                       help="write into a non-empty output directory")
    return parser


def _prepare_out_dir(out_dir: Path, force: bool) -> None:
    if out_dir.exists():
        if not out_dir.is_dir():
            raise ConfigError(f"output path {out_dir} is not a directory")
        if any(out_dir.iterdir()) and not force:
            raise ConfigError(
                f"output directory {out_dir} is not empty (use --force)")
    else:
        out_dir.mkdir(parents=True)


# ---------------------------------------------------------------------------
# formatting helpers

def _write_csv(path: Path, header: list[str], fmt: str, rows) -> None:
    """One line per row, formatted by `fmt` in one % operation.

    Integer columns use %d and real ones %.17g, which round-trips a float64.
    """
    lines = [",".join(header)]
    lines.extend(fmt % tuple(row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _coord_names(grid: Grid) -> list[str]:
    return ["x", "y"][:grid.dim]


def _write_fields_csv(path: Path, grid: Grid, fields: dict) -> None:
    """One row per node: index, coordinates, one column per named field."""
    header = ["index", *_coord_names(grid), *fields]
    # integer fields (0/1 active sets) print alike under %d and %.17g
    table = np.column_stack([grid.coordinates(), *fields.values()]).tolist()
    _write_csv(path, header, "%d" + ",%.17g" * (len(header) - 1),
               ((i, *row) for i, row in enumerate(table)))


def _write_space_time_csv(path: Path, grid: Grid, name: str,
                          field: np.ndarray) -> None:
    """One row per node: index, coordinates, one column per time level."""
    _write_fields_csv(path, grid, {f"{name}_{k:04d}": level
                                   for k, level in enumerate(field)})


def _write_report(path: Path, payload: dict) -> None:
    payload = dict(payload)
    payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _snapshot_levels(setup: RunSetup) -> list[int]:
    dt = setup.problem.tgrid.dt
    levels = sorted({int(round(t / dt)) for t in setup.output["snapshot_times"]})
    return [min(max(k, 0), setup.problem.tgrid.steps) for k in levels]


# ---------------------------------------------------------------------------
# subcommands

def _require_curvature(setup: RunSetup, command: str) -> None:
    """Reject table shapes, which have no second derivative, before a
    command that needs curvature solves anything."""
    nonlin = setup.problem.nonlin
    for key, shape in (("nonlinearity.P", nonlin.P),
                       ("nonlinearity.h", nonlin.H)):
        if shape.kind == "table":
            raise ConfigError(f"{key}: a table shape has no second "
                              f"derivative, which {command} needs; use a "
                              "smooth shape")


def _run_simulate(setup: RunSetup, out_dir: Path, say) -> int:
    problem = setup.problem
    state = problem.solve(setup.initial_control)
    for k in _snapshot_levels(setup):
        _write_fields_csv(out_dir / f"state_{k:04d}.csv", problem.grid,
                          dict(zip(("mu", "phi", "sigma"),
                                   problem.stepper.split(state.x[k]))))
    _write_csv(out_dir / "diagnostics.csv",
               ["level", "time", "newton_iters", "factorizations",
                "mass_residual", "energy", "phi_min", "phi_max"],
               "%d,%.17g,%d,%d,%.17g,%.17g,%.17g,%.17g",
               zip(range(state.n_levels), state.times, state.newton_iters,
                   state.factorizations, state.mass_residual, state.energy,
                   state.phi_min, state.phi_max))
    say(f"simulate: {state.n_levels - 1} steps, "
        f"max mass residual {state.mass_residual.max():.3e}")
    return EXIT_OK


def _run_optimize(setup: RunSetup, out_dir: Path, say) -> int:
    problem = setup.problem
    result = projected_gradient(setup.initial_control, problem, setup.box,
                                setup.pgd)
    grid = problem.grid
    _write_space_time_csv(out_dir / "control_u1.csv", grid, "u1",
                          result.control.u1)
    _write_space_time_csv(out_dir / "control_u2.csv", grid, "u2",
                          result.control.u2)
    _write_space_time_csv(out_dir / "gradient_u1.csv", grid, "g1",
                          result.gradient.grad.u1)
    _write_space_time_csv(out_dir / "gradient_u2.csv", grid, "g2",
                          result.gradient.grad.u2)
    _write_csv(out_dir / "history.csv",
               ["iteration", "cost", "stationarity", "step_size", "solves",
                "cg_iters"],
               "%d,%.17g,%.17g,%.17g,%d,%d",
               ([h["iteration"], h["cost"], h["stationarity"], h["step_size"],
                 h["solves"], h["cg_iters"]] for h in result.history))
    _write_report(out_dir / "optimize_report.json",
                  {"cost": result.cost, "stationarity": result.stationarity,
                   "converged": result.converged, "reason": result.reason,
                   "n_iter": result.n_iter})
    say(f"optimize: {result.n_iter} iterations, cost {result.cost:.6e}, "
        f"stationarity {result.stationarity:.3e}")
    return EXIT_OK


def _run_verify(setup: RunSetup, out_dir: Path, say) -> int:
    problem = setup.problem
    _require_curvature(setup, "verify")
    report = run_verification(problem, setup.initial_control,
                              seed=setup.ssc["seed"])
    _write_report(out_dir / "verification_report.json", report)
    for check in report["checks"]:
        say(f"  [{'pass' if check['passed'] else 'FAIL'}] {check['name']}")
    if not report["all_passed"]:
        say("verify: gate FAILED")
        return EXIT_GATE
    say("verify: all checks passed")
    return EXIT_OK


def _run_analyze(setup: RunSetup, out_dir: Path, say) -> int:
    problem = setup.problem
    _require_curvature(setup, "analyze")
    ubar = setup.initial_control
    context = SecondOrderContext(problem, ubar)
    adj, grad = context.adjoint, context.gradient

    # every number first: the certificate may still reject ssc.tau, and a
    # config error must leave no file behind
    tau = setup.ssc["tau"]
    if tau is None:
        tau = default_tau(grad)
    sets = strongly_active_sets(grad, tau)
    cost_value = cost_eval(problem, context.state, ubar)
    stationarity = stationarity_measure(ubar, problem, setup.box, grad)
    ssc = ssc_certificate(context, sets, setup.ssc["n_samples"], setup.box,
                          seed=setup.ssc["seed"])
    payload = {"cost": cost_value, "stationarity": stationarity, "tau": tau,
               "active_fraction_u1": float(sets.A1.mean()),
               "active_fraction_u2": float(sets.A2.mean()),
               "ssc": dataclasses.asdict(ssc)}
    say(f"analyze: min Rayleigh quotient {ssc.min_rayleigh:.6e} "
        f"over {ssc.sample_count} samples")

    for k in _snapshot_levels(setup):
        lam = adj.terminal if k == problem.tgrid.steps else adj.lam[k]
        _write_fields_csv(out_dir / f"adjoint_{k:04d}.csv", problem.grid,
                          dict(zip("pqr", problem.stepper.split(lam))))
    grid = problem.grid
    _write_space_time_csv(out_dir / "active_set_u1.csv", grid, "a1",
                          sets.A1.astype(int))
    _write_space_time_csv(out_dir / "active_set_u2.csv", grid, "a2",
                          sets.A2.astype(int))
    _write_report(out_dir / "ssc_report.json", payload)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
