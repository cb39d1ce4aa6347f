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
import re
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigError
from .grid import Grid, build_grid
from .model import (BoxConstraints, Control, CostSpec, ModelParams,
                    NonlinearitySpec, PotentialSpec, ScalarShape)
from .optimize import PgdOptions
from .problem import ControlProblem
from .state import InitialData, TimeGrid

_DEFAULTS: dict = {
    "grid": {"dim": 1, "shape": [129], "lengths": [1.0]},
    "time": {"T": 1.0, "steps": 200},
    "model": {"alpha": 1.0, "beta": 1.0, "chi": 0.0},
    "potential": {"kind": "regular", "k1": 2.0, "k2": 1.0,
                  "coefficients": None, "yosida_eps": None},
    "nonlinearity": {"P": {"shape": "constant", "value": 0.0},
                     "h": {"shape": "constant", "value": 0.0}},
    "cost": {"b0": 1.0, "b1": 0.0, "b2": 0.0,
             "target_Q": None, "target_Omega": None},
    "control": {"initial": {"u1": 0.0, "u2": 0.0},
                 "bounds": {"lower1": None, "upper1": None,
                            "lower2": None, "upper2": None}},
    "initial": {"mu0": 0.0, "phi0": 0.0, "sigma0": 0.0},
    "optimizer": asdict(PgdOptions()),
    "ssc": {"tau": None, "n_samples": 64, "seed": 0},
    "output": {"out_dir": "out", "snapshot_times": None},
}

# entries that a mapping replaces whole instead of merging into key by key:
# the shape blocks, whose keys depend on their `shape`, and the field specs
# (number | expression | {file: ...} | null), resolved later with grid context
_REPLACE_KEYS = {
    "nonlinearity.P", "nonlinearity.h",
    "cost.target_Q", "cost.target_Omega",
    "control.initial.u1", "control.initial.u2",
    "control.bounds.lower1", "control.bounds.upper1",
    "control.bounds.lower2", "control.bounds.upper2",
    "initial.mu0", "initial.phi0", "initial.sigma0",
}


# ---------------------------------------------------------------------------
# expression grammar

_CALLS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_BINOPS = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
           ast.Div: np.divide, ast.Pow: np.power}
_UNARY = {ast.UAdd: np.positive, ast.USub: np.negative}
# operators and calls one expression may nest; the compiled function
# recurses once per level, so a deeper one would exhaust the stack
_MAX_DEPTH = 100


def compile_expression(text: str, key: str, allow_t: bool = True):
    """Compile `text` into f(x, y, t) accepting numpy arrays.

    Grammar: numbers within float range, the names x/y/t/pi, + - * / **
    with unary sign, and sin/cos/exp calls, nested at most `_MAX_DEPTH`
    deep.  Anything else raises ConfigError naming `key`.
    """
    names = {"x", "y", "pi"} | ({"t"} if allow_t else set())
    too_deep = f"{key}: expression nested more than {_MAX_DEPTH} deep"
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"{key}: cannot parse expression {text!r}: {exc.msg}")
    except (RecursionError, MemoryError):
        raise ConfigError(too_deep) from None

    def compiled(node: ast.AST, depth: int = 0):
        """Check `node` and compile it into a function of the name values."""
        if depth > _MAX_DEPTH:
            raise ConfigError(too_deep)
        depth += 1
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
                raise ConfigError(f"{key}: only numeric literals are allowed")
            try:
                value = float(node.value)
            except OverflowError:
                raise ConfigError(f"{key}: numeric literal out of float "
                                  "range") from None
            return lambda env: value
        if isinstance(node, ast.Name):
            if node.id not in names:
                raise ConfigError(f"{key}: unknown name {node.id!r} "
                                  f"(allowed: {', '.join(sorted(names))})")
            return lambda env: env[node.id]
        if isinstance(node, ast.BinOp):
            if type(node.op) not in _BINOPS:
                raise ConfigError(f"{key}: operator not allowed in expressions")
            op = _BINOPS[type(node.op)]
            left = compiled(node.left, depth)
            right = compiled(node.right, depth)
            return lambda env: op(left(env), right(env))
        if isinstance(node, ast.UnaryOp):
            if type(node.op) not in _UNARY:
                raise ConfigError(f"{key}: operator not allowed in expressions")
            op, operand = _UNARY[type(node.op)], compiled(node.operand, depth)
            return lambda env: op(operand(env))
        if isinstance(node, ast.Call):
            if not (isinstance(node.func, ast.Name)
                    and node.func.id in _CALLS):
                raise ConfigError(f"{key}: only sin/cos/exp calls are allowed")
            if len(node.args) != 1 or node.keywords:
                raise ConfigError(f"{key}: {node.func.id} takes one argument")
            call, arg = _CALLS[node.func.id], compiled(node.args[0], depth)
            return lambda env: call(arg(env))
        raise ConfigError(f"{key}: unsupported expression syntax "
                          f"({type(node).__name__})")

    evaluate = compiled(tree.body)

    def func(x, y, t=0.0):
        env = {"x": x, "y": y, "t": t, "pi": math.pi}
        return np.asarray(evaluate(env), dtype=float)

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

def deep_merge(base: dict, override: dict, prefix: str = "",
               spelled: str = "") -> dict:
    """Merge `override` onto `base`, rejecting keys absent from `base`.

    An unknown key is named by its dotted path, or by `spelled`, the key
    of the `key.path=value` override that `override` is, when the path
    leads into it: an override of a key in an unknown block names itself.
    """
    merged = copy.deepcopy(base)
    for name, value in override.items():
        path = f"{prefix}{name}"
        if name not in base:
            named = spelled if spelled.startswith(path) else path
            raise ConfigError(f"unknown config key '{named}'")
        if isinstance(base[name], dict) and path not in _REPLACE_KEYS:
            if not isinstance(value, dict):
                raise ConfigError(f"'{path}' must be a mapping")
            merged[name] = deep_merge(base[name], value, f"{path}.", spelled)
        else:
            merged[name] = copy.deepcopy(value)
    return merged


class _Loader(yaml.SafeLoader):
    """YAML's safe loader, also reading 1e-10, 1E+5 or -2e-3 as floats: the
    YAML 1.1 float pattern needs a dot and would leave them strings."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"))


def override_layer(assignment: str) -> dict:
    """The one-key nested mapping that `key.path=value` spells: it merges
    onto the config as the same mapping written in the file would."""
    if "=" not in assignment:
        raise ConfigError(f"override {assignment!r} is not of the form key=value")
    key, _, raw = assignment.partition("=")
    key = key.strip()
    try:
        value = yaml.load(raw, Loader=_Loader)
    except yaml.YAMLError:
        raise ConfigError(f"override {key}: cannot parse value {raw!r}")
    for part in reversed(key.split(".")):
        value = {part: value}
    return value


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
            raw = yaml.load(path.read_bytes(), Loader=_Loader) or {}
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}")
        return cls.from_dict(raw, base_dir=path.parent, overrides=overrides)

    @classmethod
    def from_dict(cls, raw: dict, base_dir: str | Path = ".",
                  overrides: tuple[str, ...] = ()) -> "RunConfig":
        """Merge `raw`, then each `key.path=value` of `overrides` in turn,
        onto the defaults."""
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a mapping of blocks")
        merged = deep_merge(_DEFAULTS, raw)
        for assignment in overrides:
            merged = deep_merge(merged, override_layer(assignment),
                                spelled=assignment.partition("=")[0].strip())
        return cls(base_dir=Path(base_dir), **merged)

    def resolved(self) -> dict:
        """Plain dict that re-parses to an equivalent configuration."""
        return {name: copy.deepcopy(getattr(self, name)) for name in _DEFAULTS}


# ---------------------------------------------------------------------------
# resolving blocks into objects

def _number(block: dict, block_name: str, key: str, *, optional=False,
            **rules):
    value = block.get(key)
    if value is None:
        if optional:
            return None
        raise ConfigError(f"{block_name}.{key} is required")
    return _checked(value, f"{block_name}.{key}", **rules)


def _numbers(block: dict, block_name: str, key: str, **rules) -> list:
    """A list entry whose every item passes the `_number` rules."""
    values = block.get(key)
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{block_name}.{key} must be a list of numbers, "
                          f"got {values!r}")
    return [_checked(value, f"{block_name}.{key}", **rules)
            for value in values]


def _checked(value, name: str, *, positive=False, nonnegative=False,
             integer=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if integer:
        if int(value) != value:
            raise ConfigError(f"{name} must be an integer")
        value = int(value)
    else:
        value = float(value)
    if positive and value <= 0:
        raise ConfigError(f"{name} must be positive")
    if nonnegative and value < 0:
        raise ConfigError(f"{name} must be nonnegative")
    return value


@contextlib.contextmanager
def _prefixed(key: str, **renames: str):
    """Re-raise a library ValueError or TypeError as a ConfigError naming the
    dotted key.  The message starts with the name of the offending field,
    which `renames` maps to its config entry where the two differ; a
    ConfigError already names its key and passes unchanged."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        name, _, rest = str(exc).partition(" ")
        raise ConfigError(f"{key}.{renames.get(name, name)} {rest}") from None


# the entries a shape block may hold beside `shape`, by kind; a bump's are
# optional and default to ScalarShape's
_SHAPE_ENTRIES = {"constant": ("value",), "ramp": (),
                  "bump": ("scale", "center", "width"), "table": ("xs", "ys")}


def _build_shape(block: dict, key: str) -> ScalarShape:
    if not isinstance(block, dict) or "shape" not in block:
        raise ConfigError(f"{key} must be a mapping with a 'shape' entry")
    kind = block["shape"]
    # an unknown kind reads no entry, and ScalarShape rejects it
    entries = _SHAPE_ENTRIES.get(kind, ()) if isinstance(kind, str) else ()
    fields = {}
    for name in entries:
        if name in ("xs", "ys"):
            fields[name] = _numbers(block, key, name)
        elif name in block or kind != "bump":
            fields[name] = _number(block, key, name)
    with _prefixed(key, kind="shape"):
        shape = ScalarShape(kind=kind, **fields)
    extra = set(block) - {"shape", *entries}
    if extra:
        raise ConfigError(f"{key}: unexpected entries {sorted(extra)} "
                          f"for shape '{kind}'")
    return shape


def build_potential(block: dict) -> PotentialSpec:
    coefficients = block.get("coefficients")
    if coefficients is not None:
        coefficients = _numbers(block, "potential", "coefficients")
    with _prefixed("potential"):
        return PotentialSpec(kind=block.get("kind"),
                             k1=_number(block, "potential", "k1"),
                             k2=_number(block, "potential", "k2"),
                             coefficients=coefficients,
                             yosida_eps=_number(block, "potential",
                                                "yosida_eps", optional=True))


def build_nonlinearity(block: dict) -> NonlinearitySpec:
    shape_p = _build_shape(block["P"], "nonlinearity.P")
    shape_h = _build_shape(block["h"], "nonlinearity.h")
    with _prefixed("nonlinearity", H="h"):
        return NonlinearitySpec(shape_p, shape_h)


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
                          _numbers(gb, "grid", "shape", integer=True),
                          _numbers(gb, "grid", "lengths"))

    with _prefixed("time", t_final="T"):
        tgrid = TimeGrid(
            steps=_number(cfg.time, "time", "steps", integer=True),
            t_final=_number(cfg.time, "time", "T"))

    with _prefixed("model"):
        params = ModelParams(alpha=_number(cfg.model, "model", "alpha"),
                             beta=_number(cfg.model, "model", "beta"),
                             chi=_number(cfg.model, "model", "chi"))

    potential = build_potential(cfg.potential)
    nonlin = build_nonlinearity(cfg.nonlinearity)

    cb = cfg.cost
    with _prefixed("cost"):
        cost = CostSpec(
            b0=_number(cb, "cost", "b0"),
            b1=_number(cb, "cost", "b1"),
            b2=_number(cb, "cost", "b2"),
            target_Q=_field(cb["target_Q"], grid, cfg.base_dir,
                            "cost.target_Q", tgrid),
            target_Omega=_field(cb["target_Omega"], grid, cfg.base_dir,
                                "cost.target_Omega"))

    def initial(key):
        out = _field(cfg.initial[key], grid, cfg.base_dir, f"initial.{key}")
        return np.zeros(grid.n) if out is None else out

    init = InitialData(*map(initial, ("mu0", "phi0", "sigma0")))

    problem = ControlProblem(grid=grid, tgrid=tgrid, params=params,
                             potential=potential, nonlin=nonlin, cost=cost,
                             init=init)

    def bound(key, default):
        """A numeric bound (+-inf allowed) or a finite field."""
        value = cfg.control["bounds"][key]
        if value is None:
            return default
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        return _field(value, grid, cfg.base_dir, f"control.bounds.{key}",
                      tgrid)

    with _prefixed("control.bounds"):
        box = BoxConstraints(lower1=bound("lower1", -np.inf),
                             upper1=bound("upper1", np.inf),
                             lower2=bound("lower2", -np.inf),
                             upper2=bound("upper2", np.inf))

    def guess(key):
        out = _field(cfg.control["initial"][key], grid, cfg.base_dir,
                     f"control.initial.{key}", tgrid)
        return np.zeros((tgrid.steps + 1, grid.n)) if out is None else out

    initial_control = Control([guess("u1"), guess("u2")])

    ob = cfg.optimizer
    with _prefixed("optimizer"):
        pgd = PgdOptions(
            max_iter=_number(ob, "optimizer", "max_iter", integer=True),
            tol=_number(ob, "optimizer", "tol"))

    ssc = {"tau": _number(cfg.ssc, "ssc", "tau", nonnegative=True,
                          optional=True),
           "n_samples": _number(cfg.ssc, "ssc", "n_samples", positive=True,
                                integer=True),
           "seed": _number(cfg.ssc, "ssc", "seed", nonnegative=True,
                           integer=True)}

    if cfg.output["snapshot_times"] is None:
        snapshot_times = [0.0, tgrid.t_final]
    else:
        snapshot_times = _numbers(cfg.output, "output", "snapshot_times")
    for t in snapshot_times:
        if not 0.0 <= t <= tgrid.t_final + 1e-12:
            raise ConfigError(f"output.snapshot_times: {t} outside [0, T]")
    out_dir = cfg.output["out_dir"]
    if out_dir is None or isinstance(out_dir, (list, dict)):
        raise ConfigError(f"output.out_dir must be a path, got {out_dir!r}")
    output = {"out_dir": str(out_dir),
              "snapshot_times": snapshot_times}

    return RunSetup(problem=problem, box=box, initial_control=initial_control,
                    pgd=pgd, ssc=ssc, output=output, resolved=cfg.resolved())
