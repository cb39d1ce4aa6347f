"""Run configuration: nested YAML blocks resolved into solver objects.

Targets, bounds, initial data, and control guesses may be given as plain
numbers, as strings in a tiny expression grammar (x, y, t, pi, arithmetic,
sin/cos/exp -- parsed through `ast`, never eval'd), or as CSV files.
"""

from __future__ import annotations

import ast
import contextlib
import copy
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigError
from .grid import Grid, build_grid
from .model import (BoxConstraints, Control, CostSpec, ModelParams,
                    NonlinearitySpec, PotentialSpec, ScalarShape, bump_shape,
                    constant_shape, custom_polynomial_potential,
                    logarithmic_potential, make_nonlinearity,
                    obstacle_potential, ramp_shape, regular_potential,
                    table_shape)
from .optimize import PgdOptions
from .problem import ControlProblem
from .state import InitialData, SolverOptions, TimeGrid

_DEFAULTS: dict = {
    "grid": {"dim": 1, "shape": [129], "lengths": [1.0]},
    "time": {"T": 1.0, "steps": 200},
    "model": {"alpha": 1.0, "beta": 1.0, "chi": 0.0},
    "potential": {"kind": "regular", "k1": 2.0, "k2": 1.0,
                  "coefficients": None},
    "nonlinearity": {"P": {"shape": "constant", "value": 0.0},
                     "h": {"shape": "constant", "value": 0.0}},
    "cost": {"b0": 1.0, "b1": 0.0, "b2": 0.0,
             "target_Q": None, "target_Omega": None},
    "control": {"initial": {"u1": 0.0, "u2": 0.0},
                 "bounds": {"lower1": None, "upper1": None,
                            "lower2": None, "upper2": None}},
    "initial": {"mu0": 0.0, "phi0": 0.0, "sigma0": 0.0},
    "solver": {"newton_tol": 1e-12, "newton_max_iter": 30,
               "max_backtracks": 40, "separation_margin": 1e-8,
               "yosida_eps": None, "polish_steps": 1,
               "energy_blowup_factor": 1e8},
    "optimizer": {"tol": 1e-6, "max_iter": 100, "initial_step": 1.0,
                  "armijo_c": 1e-4, "shrink": 0.5, "max_backtracks": 40,
                  "step_min": 1e-12, "step_max": 1e12},
    "ssc": {"tau": None, "n_samples": 64, "seed": 0},
    "output": {"out_dir": "out", "snapshot_times": None},
}

# field-spec values (number | expression | {file: ...} | null) are resolved
# later with grid context; everything else is a plain scalar or list
_FIELD_KEYS = {
    "cost.target_Q", "cost.target_Omega",
    "control.initial.u1", "control.initial.u2",
    "control.bounds.lower1", "control.bounds.upper1",
    "control.bounds.lower2", "control.bounds.upper2",
    "initial.mu0", "initial.phi0", "initial.sigma0",
}

# dict-valued entries whose keys depend on a discriminator; overriding them
# replaces the whole mapping instead of merging key by key
_REPLACE_KEYS = _FIELD_KEYS | {"nonlinearity.P", "nonlinearity.h"}


# ---------------------------------------------------------------------------
# expression grammar

_CALLS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_BINOPS = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
           ast.Div: np.divide, ast.Pow: np.power}
_UNARY = {ast.UAdd: np.positive, ast.USub: np.negative}


def compile_expression(text: str, key: str, allow_t: bool = True):
    """Compile `text` into f(x, y, t) accepting numpy arrays.

    Grammar: numbers, the names x/y/t/pi, + - * / ** with unary sign, and
    sin/cos/exp calls.  Anything else raises ConfigError naming `key`.
    """
    names = {"x", "y", "pi"} | ({"t"} if allow_t else set())
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"{key}: cannot parse expression {text!r}: {exc.msg}")

    def check(node: ast.AST) -> None:
        if isinstance(node, ast.Expression):
            check(node.body)
        elif isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
                raise ConfigError(f"{key}: only numeric literals are allowed")
        elif isinstance(node, ast.Name):
            if node.id not in names:
                raise ConfigError(f"{key}: unknown name {node.id!r} "
                                  f"(allowed: {', '.join(sorted(names))})")
        elif isinstance(node, ast.BinOp):
            if type(node.op) not in _BINOPS:
                raise ConfigError(f"{key}: operator not allowed in expressions")
            check(node.left)
            check(node.right)
        elif isinstance(node, ast.UnaryOp):
            if type(node.op) not in _UNARY:
                raise ConfigError(f"{key}: operator not allowed in expressions")
            check(node.operand)
        elif isinstance(node, ast.Call):
            if not (isinstance(node.func, ast.Name)
                    and node.func.id in _CALLS):
                raise ConfigError(f"{key}: only sin/cos/exp calls are allowed")
            if len(node.args) != 1 or node.keywords:
                raise ConfigError(f"{key}: {node.func.id} takes one argument")
            check(node.args[0])
        else:
            raise ConfigError(f"{key}: unsupported expression syntax "
                              f"({type(node).__name__})")

    check(tree)

    def evaluate(node: ast.AST, env: dict):
        if isinstance(node, ast.Expression):
            return evaluate(node.body, env)
        if isinstance(node, ast.Constant):
            return float(node.value)
        if isinstance(node, ast.Name):
            return env[node.id]
        if isinstance(node, ast.BinOp):
            return _BINOPS[type(node.op)](evaluate(node.left, env),
                                          evaluate(node.right, env))
        if isinstance(node, ast.UnaryOp):
            return _UNARY[type(node.op)](evaluate(node.operand, env))
        return _CALLS[node.func.id](evaluate(node.args[0], env))

    def func(x, y, t=0.0):
        env = {"x": x, "y": y, "t": t, "pi": math.pi}
        return np.asarray(evaluate(tree, env), dtype=float)

    return func


# ---------------------------------------------------------------------------
# CSV field files

def read_spatial_csv(path: Path, grid: Grid, key: str) -> np.ndarray:
    """One row per node: index, coordinates..., value."""
    values = _read_node_rows(path, grid, key, 1, "index, coords, value")
    return np.ascontiguousarray(values[:, 0])


def read_space_time_csv(path: Path, grid: Grid, tgrid: TimeGrid,
                        key: str) -> np.ndarray:
    """One row per node: index, coordinates..., one value column per level."""
    n_levels = tgrid.steps + 1
    values = _read_node_rows(path, grid, key, n_levels,
                             f"index, coords, {n_levels} level values")
    return np.ascontiguousarray(values.T)


def _read_node_rows(path: Path, grid: Grid, key: str, n_values: int,
                    layout: str) -> np.ndarray:
    """The value columns of a node-per-row CSV file, in node index order."""
    if not path.is_file():
        raise ConfigError(f"{key}: file not found: {path}")
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot read {path}: {exc}")
    want = grid.dim + 1 + n_values
    if data.shape[0] != grid.n or data.shape[1] != want:
        raise ConfigError(f"{key}: {path} must have {grid.n} rows and {want} "
                          f"columns ({layout})")
    data = data[np.argsort(data[:, 0])]
    if not np.array_equal(data[:, 0], np.arange(grid.n)):
        raise ConfigError(f"{key}: {path} node indices must cover 0..{grid.n - 1}")
    return data[:, grid.dim + 1:]


# ---------------------------------------------------------------------------
# config loading

def deep_merge(base: dict, override: dict, prefix: str = "") -> dict:
    """Merge `override` onto `base`, rejecting keys absent from `base`."""
    merged = copy.deepcopy(base)
    for name, value in override.items():
        path = f"{prefix}{name}"
        if name not in base:
            raise ConfigError(f"unknown config key '{path}'")
        if isinstance(base[name], dict) and path not in _REPLACE_KEYS:
            if not isinstance(value, dict):
                raise ConfigError(f"'{path}' must be a mapping")
            merged[name] = deep_merge(base[name], value, prefix=f"{path}.")
        else:
            merged[name] = copy.deepcopy(value)
    return merged


def apply_override(cfg: dict, assignment: str) -> None:
    """Apply one `--set key.path=value` assignment in place."""
    if "=" not in assignment:
        raise ConfigError(f"override {assignment!r} is not of the form key=value")
    key, _, raw = assignment.partition("=")
    key = key.strip()
    try:
        value = yaml.safe_load(raw)
    except yaml.YAMLError:
        raise ConfigError(f"override {key}: cannot parse value {raw!r}")
    node = cfg
    parts = key.split(".")
    for i, part in enumerate(parts[:-1]):
        here = ".".join(parts[:i + 1])
        if not isinstance(node.get(part), dict) or here in _REPLACE_KEYS:
            raise ConfigError(f"unknown config key '{key}'")
        node = node[part]
    if parts[-1] not in node:
        raise ConfigError(f"unknown config key '{key}'")
    node[parts[-1]] = value


@dataclass(eq=False)
class RunConfig:
    """Fully resolved configuration plus the directory file paths resolve in."""

    grid: dict
    time: dict
    model: dict
    potential: dict
    nonlinearity: dict
    cost: dict
    control: dict
    initial: dict
    solver: dict
    optimizer: dict
    ssc: dict
    output: dict
    base_dir: Path

    @classmethod
    def from_file(cls, path: str | Path, overrides: tuple[str, ...] = ()) -> "RunConfig":
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            raw = yaml.safe_load(path.read_text()) or {}
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}")
        return cls.from_dict(raw, base_dir=path.parent, overrides=overrides)

    @classmethod
    def from_dict(cls, raw: dict, base_dir: str | Path = ".",
                  overrides: tuple[str, ...] = ()) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a mapping of blocks")
        merged = deep_merge(_DEFAULTS, raw)
        for assignment in overrides:
            apply_override(merged, assignment)
        return cls(base_dir=Path(base_dir), **merged)

    def resolved(self) -> dict:
        """Plain dict that re-parses to an equivalent configuration."""
        return {name: copy.deepcopy(getattr(self, name))
                for name in ("grid", "time", "model", "potential",
                             "nonlinearity", "cost", "control", "initial",
                             "solver", "optimizer", "ssc", "output")}


# ---------------------------------------------------------------------------
# resolving blocks into objects

def _number(block: dict, block_name: str, key: str, *, positive=False,
            nonnegative=False, integer=False, optional=False):
    value = block.get(key)
    if value is None:
        if optional:
            return None
        raise ConfigError(f"{block_name}.{key} is required")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{block_name}.{key} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{block_name}.{key} must be finite, got {value!r}")
    if integer:
        if int(value) != value:
            raise ConfigError(f"{block_name}.{key} must be an integer")
        value = int(value)
    else:
        value = float(value)
    if positive and value <= 0:
        raise ConfigError(f"{block_name}.{key} must be positive")
    if nonnegative and value < 0:
        raise ConfigError(f"{block_name}.{key} must be nonnegative")
    return value


@contextlib.contextmanager
def _prefixed(block_name: str):
    """Re-raise a library ValueError or TypeError as a ConfigError naming
    `block_name`; a ConfigError already names its key and passes unchanged."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{block_name}: {exc}") from None


def _build_shape(block: dict, key: str) -> ScalarShape:
    if not isinstance(block, dict) or "shape" not in block:
        raise ConfigError(f"{key} must be a mapping with a 'shape' entry")
    kind = block["shape"]
    allowed = {"constant": {"shape", "value"},
               "ramp": {"shape"},
               "bump": {"shape", "scale", "center", "width"},
               "table": {"shape", "xs", "ys"}}
    if kind not in allowed:
        raise ConfigError(f"{key}.shape must be one of {sorted(allowed)}")
    extra = set(block) - allowed[kind]
    if extra:
        raise ConfigError(f"{key}: unexpected entries {sorted(extra)} "
                          f"for shape '{kind}'")
    with _prefixed(key):
        if kind == "constant":
            return constant_shape(_number(block, key, "value", nonnegative=True))
        if kind == "ramp":
            return ramp_shape()
        if kind == "bump":
            return bump_shape(scale=float(block.get("scale", 1.0)),
                              center=float(block.get("center", 0.0)),
                              width=float(block.get("width", 1.0)))
        return table_shape(block.get("xs"), block.get("ys"))


def build_potential(block: dict) -> PotentialSpec:
    kind = block.get("kind")
    with _prefixed("potential"):
        if kind == "regular":
            return regular_potential()
        if kind == "logarithmic":
            return logarithmic_potential(k1=_number(block, "potential", "k1"))
        if kind == "obstacle":
            return obstacle_potential(k2=_number(block, "potential", "k2"))
        if kind == "custom":
            coeffs = block.get("coefficients")
            if coeffs is None:
                raise ConfigError("potential.coefficients is required for "
                                  "kind 'custom'")
            return custom_polynomial_potential(coeffs)
    raise ConfigError("potential.kind must be one of "
                      "['regular', 'logarithmic', 'obstacle', 'custom']")


def build_nonlinearity(block: dict) -> NonlinearitySpec:
    shape_p = _build_shape(block["P"], "nonlinearity.P")
    shape_h = _build_shape(block["h"], "nonlinearity.h")
    with _prefixed("nonlinearity"):
        return make_nonlinearity(shape_p, shape_h)


def _finite(values: np.ndarray, key: str) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise ConfigError(
            f"{key}: non-finite values (NaN, infinity or overflow)")
    return values


# expressions may overflow or divide by zero; _finite reports it, not numpy
_QUIET = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


def _field(value, grid: Grid, base_dir: Path, key: str,
           tgrid: TimeGrid | None = None):
    """Resolve a field spec into a finite array, or None when unset.

    The array has shape (n,) without `tgrid` and (N_t+1, n) with it; only a
    space-time field may use t in an expression.
    """
    if value is None:
        return None
    shape = (grid.n,) if tgrid is None else (tgrid.steps + 1, grid.n)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return _finite(np.full(shape, float(value)), key)
    if isinstance(value, str):
        func = compile_expression(value, key, allow_t=tgrid is not None)
        coords = grid.coordinates()
        x = coords[:, 0]
        y = coords[:, 1] if grid.dim == 2 else np.zeros(grid.n)
        times = [0.0] if tgrid is None else tgrid.times
        out = np.empty((len(times), grid.n))  # a constant expression is a scalar
        with np.errstate(**_QUIET):
            for k, t in enumerate(times):
                out[k] = func(x, y, t)
        return _finite(out.reshape(shape), key)
    if isinstance(value, dict) and set(value) == {"file"}:
        path = base_dir / value["file"]
        if tgrid is None:
            return _finite(read_spatial_csv(path, grid, key), key)
        return _finite(read_space_time_csv(path, grid, tgrid, key), key)
    raise ConfigError(f"{key}: expected a number, an expression string, "
                      "or {file: path}")


def _bound_field(value, grid: Grid, tgrid: TimeGrid, base_dir: Path,
                 key: str, default: float):
    """A numeric bound (+-inf allowed, NaN not) or a finite field."""
    if value is None:
        return default
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if math.isnan(value):
            raise ConfigError(f"{key} must not be NaN")
        return float(value)
    return _field(value, grid, base_dir, key, tgrid)


@dataclass(eq=False)
class RunSetup:
    """Solver-ready objects resolved from one RunConfig."""

    problem: ControlProblem
    box: BoxConstraints
    initial_control: Control
    pgd: PgdOptions
    ssc: dict
    output: dict
    resolved: dict


def build_setup(cfg: RunConfig) -> RunSetup:
    gb = cfg.grid
    with _prefixed("grid"):
        grid = build_grid(_number(gb, "grid", "dim", integer=True),
                          gb["shape"], gb["lengths"])

    t_final = _number(cfg.time, "time", "T", positive=True)
    steps = _number(cfg.time, "time", "steps", positive=True, integer=True)
    tgrid = TimeGrid(steps=steps, t_final=t_final)

    with _prefixed("model"):
        params = ModelParams(alpha=_number(cfg.model, "model", "alpha"),
                             beta=_number(cfg.model, "model", "beta"),
                             chi=_number(cfg.model, "model", "chi"),
                             T=t_final)

    potential = build_potential(cfg.potential)
    nonlin = build_nonlinearity(cfg.nonlinearity)

    cb = cfg.cost
    with _prefixed("cost"):
        cost = CostSpec(
            b0=_number(cb, "cost", "b0", positive=True),
            b1=_number(cb, "cost", "b1", nonnegative=True),
            b2=_number(cb, "cost", "b2", nonnegative=True),
            target_Q=_field(cb["target_Q"], grid, cfg.base_dir,
                            "cost.target_Q", tgrid),
            target_Omega=_field(cb["target_Omega"], grid, cfg.base_dir,
                                "cost.target_Omega"))

    def spatial(block, name, key):
        out = _field(block[key], grid, cfg.base_dir, f"{name}.{key}")
        return np.zeros(grid.n) if out is None else out

    init = InitialData(mu0=spatial(cfg.initial, "initial", "mu0"),
                       phi0=spatial(cfg.initial, "initial", "phi0"),
                       sigma0=spatial(cfg.initial, "initial", "sigma0"))

    sb = cfg.solver
    yosida_eps = _number(sb, "solver", "yosida_eps", positive=True,
                         optional=True)
    options = SolverOptions(
        newton_tol=_number(sb, "solver", "newton_tol", positive=True),
        newton_max_iter=_number(sb, "solver", "newton_max_iter",
                                positive=True, integer=True),
        max_backtracks=_number(sb, "solver", "max_backtracks",
                               nonnegative=True, integer=True),
        separation_margin=_number(sb, "solver", "separation_margin",
                                  nonnegative=True),
        yosida_eps=yosida_eps,
        polish_steps=_number(sb, "solver", "polish_steps",
                             nonnegative=True, integer=True),
        energy_blowup_factor=_number(sb, "solver", "energy_blowup_factor",
                                     positive=True))

    try:
        problem = ControlProblem(grid=grid, tgrid=tgrid, params=params,
                                 potential=potential, nonlin=nonlin,
                                 cost=cost, init=init, options=options)
    except ValueError as exc:
        raise ConfigError(str(exc))

    bounds = cfg.control["bounds"]
    with _prefixed("control.bounds"):
        box = BoxConstraints(
            lower1=_bound_field(bounds["lower1"], grid, tgrid, cfg.base_dir,
                                "control.bounds.lower1", -np.inf),
            upper1=_bound_field(bounds["upper1"], grid, tgrid, cfg.base_dir,
                                "control.bounds.upper1", np.inf),
            lower2=_bound_field(bounds["lower2"], grid, tgrid, cfg.base_dir,
                                "control.bounds.lower2", -np.inf),
            upper2=_bound_field(bounds["upper2"], grid, tgrid, cfg.base_dir,
                                "control.bounds.upper2", np.inf))

    guess = cfg.control["initial"]
    n_levels = tgrid.steps + 1
    u1 = _field(guess["u1"], grid, cfg.base_dir, "control.initial.u1", tgrid)
    u2 = _field(guess["u2"], grid, cfg.base_dir, "control.initial.u2", tgrid)
    initial_control = Control(
        u1=np.zeros((n_levels, grid.n)) if u1 is None else u1,
        u2=np.zeros((n_levels, grid.n)) if u2 is None else u2)

    ob = cfg.optimizer
    pgd = PgdOptions(
        tol=_number(ob, "optimizer", "tol", positive=True),
        max_iter=_number(ob, "optimizer", "max_iter", positive=True,
                         integer=True),
        initial_step=_number(ob, "optimizer", "initial_step", positive=True),
        armijo_c=_number(ob, "optimizer", "armijo_c", positive=True),
        shrink=_number(ob, "optimizer", "shrink", positive=True),
        max_backtracks=_number(ob, "optimizer", "max_backtracks",
                               nonnegative=True, integer=True),
        step_min=_number(ob, "optimizer", "step_min", positive=True),
        step_max=_number(ob, "optimizer", "step_max", positive=True))
    if not pgd.shrink < 1.0:
        raise ConfigError("optimizer.shrink must lie in (0, 1)")

    ssc = {"tau": _number(cfg.ssc, "ssc", "tau", nonnegative=True,
                          optional=True),
           "n_samples": _number(cfg.ssc, "ssc", "n_samples", positive=True,
                                integer=True),
           "seed": _number(cfg.ssc, "ssc", "seed", nonnegative=True,
                           integer=True)}

    snapshot_times = cfg.output["snapshot_times"]
    if snapshot_times is None:
        snapshot_times = [0.0, t_final]
    try:
        snapshot_times = [float(t) for t in snapshot_times]
    except (TypeError, ValueError):
        raise ConfigError("output.snapshot_times must be a list of numbers")
    for t in snapshot_times:
        if not 0.0 <= t <= t_final + 1e-12:
            raise ConfigError(f"output.snapshot_times: {t} outside [0, T]")
    output = {"out_dir": str(cfg.output["out_dir"]),
              "snapshot_times": snapshot_times}

    return RunSetup(problem=problem, box=box, initial_control=initial_control,
                    pgd=pgd, ssc=ssc, output=output, resolved=cfg.resolved())
