"""Configuration parsing, expression grammar, field files, validation."""

import numpy as np
import pytest
import yaml

from tumoropt import ConfigError, build_grid
from tumoropt.config import (_DEFAULTS, _REPLACE_KEYS, RunConfig,
                             build_setup, compile_expression, deep_merge,
                             read_space_time_csv, read_spatial_csv)
from tumoropt.state import TimeGrid


def _small(**blocks):
    raw = {"grid": {"shape": [9]}, "time": {"steps": 4, "T": 0.5}}
    raw.update(blocks)
    return RunConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# defaults, merging, overrides


def test_defaults_build_cleanly():
    cfg = RunConfig.from_dict({})
    setup = build_setup(cfg)
    assert setup.problem.grid.shape == (129,)
    assert setup.problem.tgrid.steps == 200
    assert setup.problem.cost.b0 == 1.0
    assert np.all(setup.initial_control.u1 == 0.0)
    assert setup.output["snapshot_times"] == [0.0, 1.0]
    assert np.isinf(setup.box.upper1)


def test_unknown_keys_are_named():
    with pytest.raises(ConfigError, match="model.zeta"):
        RunConfig.from_dict({"model": {"zeta": 1.0}})
    with pytest.raises(ConfigError, match="turbo"):
        RunConfig.from_dict({"turbo": True})
    with pytest.raises(ConfigError, match="mapping"):
        RunConfig.from_dict([1, 2])


def test_deep_merge_keeps_unrelated_defaults():
    merged = deep_merge({"a": {"x": 1, "y": 2}, "b": 3}, {"a": {"y": 9}})
    assert merged == {"a": {"x": 1, "y": 9}, "b": 3}


def test_override_assignments():
    cfg = RunConfig.from_dict({}, overrides=("model.chi=0.7",
                                             "grid.shape=[17]",
                                             "time.steps=8"))
    assert cfg.model["chi"] == 0.7
    assert cfg.grid["shape"] == [17]
    assert cfg.time["steps"] == 8


def test_override_merges_like_the_file(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("optimizer: {tol: 1.0e-10}\n")
    by_set = RunConfig.from_dict({}, overrides=("optimizer={tol: 1e-10}",))
    by_file = RunConfig.from_file(path)
    assert by_set.optimizer == by_file.optimizer
    assert by_set.optimizer == {**RunConfig.from_dict({}).optimizer,
                                "tol": 1e-10}
    assert build_setup(by_set).pgd.tol == 1e-10


@pytest.mark.parametrize("value", ["null", "[1, 2]", "3"])
def test_blocks_must_be_mappings(value):
    with pytest.raises(ConfigError, match="'optimizer' must be a mapping"):
        RunConfig.from_dict({}, overrides=(f"optimizer={value}",))
    with pytest.raises(ConfigError, match="'optimizer' must be a mapping"):
        RunConfig.from_dict({"optimizer": yaml.safe_load(value)})


def _leaf_keys(block: dict, prefix: str = "") -> set:
    """Dotted keys a config may set: the entries of `_DEFAULTS` that hold a
    value, a field spec or a shape block, and not a block of entries."""
    keys = set()
    for name, value in block.items():
        key = f"{prefix}{name}"
        if isinstance(value, dict) and key not in _REPLACE_KEYS:
            keys |= _leaf_keys(value, f"{key}.")
        else:
            keys.add(key)
    return keys


# every key a run config may set; a new one takes a deliberate edit here
SETTABLE_KEYS = {
    "grid.dim", "grid.shape", "grid.lengths", "time.T", "time.steps",
    "model.alpha", "model.beta", "model.chi",
    "potential.kind", "potential.k1", "potential.k2",
    "potential.coefficients", "potential.yosida_eps",
    "nonlinearity.P", "nonlinearity.h",
    "cost.b0", "cost.b1", "cost.b2", "cost.target_Q", "cost.target_Omega",
    "control.initial.u1", "control.initial.u2",
    "control.bounds.lower1", "control.bounds.upper1",
    "control.bounds.lower2", "control.bounds.upper2",
    "initial.mu0", "initial.phi0", "initial.sigma0",
    "optimizer.max_iter", "optimizer.tol",
    "ssc.tau", "ssc.n_samples", "ssc.seed",
    "output.out_dir", "output.snapshot_times",
}


def test_settable_keys_are_pinned():
    assert len(SETTABLE_KEYS) == 36
    assert _leaf_keys(_DEFAULTS) == SETTABLE_KEYS


@pytest.mark.parametrize("value", [None, ["a", "b"], {"path": "a"}])
def test_out_dir_must_be_a_path(value):
    cfg = _small(output={"out_dir": value})
    with pytest.raises(ConfigError, match="output.out_dir must be a path"):
        build_setup(cfg)


EXPONENT_CASES = [("optimizer.tol", "1e-10", 1e-10),
                  ("cost.b0", "1E+5", 1e5),
                  ("model.chi", "-2e-3", -2e-3)]


@pytest.mark.parametrize("key,text,value", EXPONENT_CASES)
def test_exponent_without_dot_is_a_number(tmp_path, key, text, value):
    # YAML 1.1 floats need a dot; these spellings must still be numbers
    block, name = key.split(".")
    path = tmp_path / "run.yaml"
    path.write_text(f"{block}:\n  {name}: {text}\n")
    by_set = RunConfig.from_dict({}, overrides=(f"{key}={text}",))
    by_file = RunConfig.from_file(path)
    resolved = tmp_path / "resolved.yaml"
    resolved.write_text(yaml.safe_dump(by_set.resolved()))
    again = RunConfig.from_file(resolved)
    for cfg in (by_set, by_file, again):
        got = getattr(cfg, block)[name]
        assert isinstance(got, float) and got == value
        build_setup(cfg)


def test_exponent_loader_keeps_strings_and_special_values():
    cfg = RunConfig.from_dict({}, overrides=(
        "initial.phi0=1e-3 * cos(pi * x)", "control.bounds.upper1=.inf",
        "initial.sigma0=2e-1x"))
    assert cfg.initial["phi0"] == "1e-3 * cos(pi * x)"
    assert cfg.initial["sigma0"] == "2e-1x"
    assert cfg.control["bounds"]["upper1"] == np.inf
    with pytest.raises(ConfigError, match="model.chi must be finite"):
        build_setup(RunConfig.from_dict({}, overrides=("model.chi=.nan",)))


def test_override_requires_known_key_and_equals():
    with pytest.raises(ConfigError, match="model.zeta"):
        RunConfig.from_dict({}, overrides=("model.zeta=1",))
    # an override into an unknown block names its whole key, its value no
    # further; the same entry in a file names the block
    for assignment in ("solver.newton_tol=1", "solver.newton_tol={a: 1}"):
        with pytest.raises(ConfigError,
                           match="^unknown config key 'solver.newton_tol'$"):
            RunConfig.from_dict({}, overrides=(assignment,))
    with pytest.raises(ConfigError, match="^unknown config key 'solver'$"):
        RunConfig.from_dict({"solver": {"newton_tol": 1}})
    with pytest.raises(ConfigError, match="="):
        RunConfig.from_dict({}, overrides=("model.chi",))


def test_shape_blocks_replace_wholesale():
    # bump keys would be unknown under the default constant block
    cfg = RunConfig.from_dict({"nonlinearity": {
        "P": {"shape": "bump", "scale": 2.0, "center": 0.1, "width": 0.8}}})
    setup = build_setup(cfg)
    assert setup.problem.nonlin.P.eval(np.array([0.1]))[0] == 2.0
    # default h stays the zero constant
    assert setup.problem.nonlin.H.eval(np.array([0.3]))[0] == 0.0
    over = RunConfig.from_dict({}, overrides=(
        "nonlinearity.h={shape: ramp}",))
    setup2 = build_setup(over)
    assert setup2.problem.nonlin.H.eval(np.array([1.0]))[0] == 1.0


# ---------------------------------------------------------------------------
# expression grammar


def test_expressions_evaluate_with_numpy():
    f = compile_expression("0.2 * cos(pi * x) * exp(-t)", "k")
    x = np.linspace(0.0, 1.0, 5)
    out = f(x, np.zeros(5), 0.3)
    assert np.allclose(out, 0.2 * np.cos(np.pi * x) * np.exp(-0.3))
    g = compile_expression("-x**2 / 2 + 1", "k", allow_t=False)
    assert np.allclose(g(x, 0.0), -x**2 / 2 + 1)
    h = compile_expression("sin(2*pi*y)", "k")
    assert h(0.0, 0.25, 0.0) == pytest.approx(1.0)


@pytest.mark.parametrize("text", [
    "__import__('os')",
    "x > 1",
    "lambda: 1",
    "sin(x, 2)",
    "q + 1",
    "True",
    "1 if x else 2",
    "[1, 2]",
    "x.real",
    "abs(x)",
    "x % 2",
])
def test_expressions_reject_disallowed_syntax(text):
    with pytest.raises(ConfigError, match="some.key"):
        compile_expression(text, "some.key")


def test_time_name_rejected_in_spatial_context():
    compile_expression("t + x", "k", allow_t=True)
    with pytest.raises(ConfigError, match="'t'"):
        compile_expression("t + x", "k", allow_t=False)


def test_unparseable_expression_names_key():
    with pytest.raises(ConfigError, match="initial.phi0"):
        compile_expression("0.3 *", "initial.phi0")


# ---------------------------------------------------------------------------
# field resolution


def test_initial_fields_from_expressions():
    cfg = _small(initial={"phi0": "0.3 * cos(pi * x)", "mu0": 0.05})
    setup = build_setup(cfg)
    x = setup.problem.grid.coordinates()[:, 0]
    assert np.allclose(setup.problem.init.phi0, 0.3 * np.cos(np.pi * x))
    assert np.all(setup.problem.init.mu0 == 0.05)
    assert np.all(setup.problem.init.sigma0 == 0.0)


def test_constant_expression_fills_spatial_field():
    setup = build_setup(_small(initial={"phi0": "0.1 * 2"}))
    assert setup.problem.init.phi0.shape == (9,)
    assert np.all(setup.problem.init.phi0 == 0.2)


def test_space_time_expression_evaluated_per_level():
    cfg = _small(cost={"b1": 1.0, "target_Q": "x * (1 + t)"})
    setup = build_setup(cfg)
    pr = setup.problem
    x = pr.grid.coordinates()[:, 0]
    for k, t in enumerate(pr.tgrid.times):
        assert np.allclose(pr.cost.target_Q[k], x * (1 + t))


def test_spatial_csv_round_trip(tmp_path, rng):
    grid = build_grid(1, [9], [1.0])
    values = rng.standard_normal(9)
    path = tmp_path / "field.csv"
    rows = list(range(9))
    rng.shuffle(rows)  # carrier order must not matter
    with path.open("w") as fh:
        fh.write("index,x,value\n")
        for i in rows:
            fh.write("%d,%.17g,%.17g\n"
                     % (i, grid.coordinates()[i, 0], values[i]))
    out = read_spatial_csv(path, grid, "k")
    assert np.array_equal(out, values)  # %.17g preserves doubles exactly


def test_spatial_csv_shape_errors(tmp_path):
    grid = build_grid(1, [5], [1.0])
    path = tmp_path / "bad.csv"
    path.write_text("index,x,value\n0,0.0,1.0\n1,0.25,2.0\n")
    with pytest.raises(ConfigError, match="5 rows"):
        read_spatial_csv(path, grid, "k")
    path.write_text("index,x,value\n" + "".join(
        f"{i},{0.25 * i},{float(i)}\n" for i in [0, 1, 2, 3, 3]))
    with pytest.raises(ConfigError, match="indices"):
        read_spatial_csv(path, grid, "k")


def test_space_time_csv_round_trip(tmp_path, rng):
    grid = build_grid(1, [5], [1.0])
    tgrid = TimeGrid(steps=3, t_final=1.0)
    values = rng.standard_normal((4, 5))  # (levels, nodes)
    path = tmp_path / "ucontrol.csv"
    with path.open("w") as fh:
        fh.write("index,x," + ",".join(f"u_{k:04d}" for k in range(4)) + "\n")
        for i in range(5):
            cells = [str(i), "%.17g" % grid.coordinates()[i, 0]]
            cells += ["%.17g" % values[k, i] for k in range(4)]
            fh.write(",".join(cells) + "\n")
    out = read_space_time_csv(path, grid, tgrid, "k")
    assert out.shape == (4, 5)
    assert np.array_equal(out, values)


def test_control_field_from_file(tmp_path, rng):
    cfg_raw = {"grid": {"shape": [5]}, "time": {"steps": 3, "T": 0.5},
               "control": {"initial": {"u1": {"file": "u1.csv"}}}}
    grid = build_grid(1, [5], [1.0])
    values = rng.standard_normal((4, 5))
    with (tmp_path / "u1.csv").open("w") as fh:
        fh.write("index,x," + ",".join(f"u_{k:04d}" for k in range(4)) + "\n")
        for i in range(5):
            cells = [str(i), "%.17g" % grid.coordinates()[i, 0]]
            cells += ["%.17g" % values[k, i] for k in range(4)]
            fh.write(",".join(cells) + "\n")
    cfg = RunConfig.from_dict(cfg_raw, base_dir=tmp_path)
    setup = build_setup(cfg)
    assert np.array_equal(setup.initial_control.u1, values)


# ---------------------------------------------------------------------------
# validation


@pytest.mark.parametrize("raw,needle", [
    ({"cost": {"b0": 0.0}}, "b0"),
    ({"cost": {"b1": -1.0}}, "b1"),
    ({"time": {"steps": 0}}, "steps"),
    ({"time": {"steps": 2.5}}, "integer"),
    ({"time": {"T": -1.0}}, "T"),
    ({"model": {"alpha": "fast"}}, "alpha"),
    ({"grid": {"dim": 3}}, "grid"),
    ({"potential": {"kind": "quartic"}}, "potential.kind"),
    ({"potential": {"kind": "custom"}}, "coefficients"),
    ({"nonlinearity": {"P": {"shape": "spike"}}}, "shape"),
    ({"nonlinearity": {"P": {"shape": "ramp", "value": 2}}}, "unexpected"),
    ({"nonlinearity": {"P": {"shape": "table", "xs": [-1, 1],
                             "ys": [-0.5, 1.0]}}}, "nonnegative"),
    ({"control": {"bounds": {"lower1": 1.0, "upper1": -1.0}}},
     "control.bounds"),
    # the Armijo shrink factor is a constant: an unknown key
    ({"optimizer": {"shrink": 1.5}}, "shrink"),
    ({"output": {"snapshot_times": [2.0]}}, "snapshot_times"),
    ({"potential": {"yosida_eps": -0.1}}, "yosida_eps"),
    ({"nonlinearity": {"P": {"shape": "bump", "scale": float("nan")}}},
     "nonlinearity.P.scale must be finite"),
    ({"nonlinearity": {"P": {"shape": "bump", "width": float("inf")}}},
     "nonlinearity.P.width must be finite"),
    ({"nonlinearity": {"P": {"shape": "bump", "center": True}}},
     "nonlinearity.P.center must be a number"),
    ({"nonlinearity": {"P": {"shape": "table", "xs": [-1, float("nan")],
                             "ys": [0, 1]}}}, "nonlinearity.P.xs must be finite"),
    ({"nonlinearity": {"P": {"shape": "table", "xs": [-1, True],
                             "ys": [0, 1]}}}, "nonlinearity.P.xs must be a number"),
    ({"nonlinearity": {"P": {"shape": "table", "xs": [-1, 1],
                             "ys": [0, float("inf")]}}},
     "nonlinearity.P.ys must be finite"),
    ({"potential": {"kind": "custom", "coefficients": [0, float("nan"), 1]}},
     "potential.coefficients must be finite"),
    ({"output": {"snapshot_times": "01"}},
     "output.snapshot_times must be a list of numbers"),
    ({"output": {"snapshot_times": ["0.5"]}},
     "output.snapshot_times must be a number"),
    ({"output": {"snapshot_times": [True]}},
     "output.snapshot_times must be a number"),
])
def test_invalid_configs_raise(raw, needle):
    with pytest.raises(ConfigError, match=needle):
        build_setup(RunConfig.from_dict(raw))


def test_integral_float_grid_shape_is_accepted():
    setup = build_setup(_small(grid={"shape": [9.0], "lengths": [2]}))
    assert setup.problem.grid.shape == (9,)
    assert setup.problem.grid.lengths == (2.0,)


def test_bounds_accept_expressions():
    cfg = _small(control={"bounds": {"lower1": -1.0,
                                     "upper1": "1 + x * 0.5"}})
    setup = build_setup(cfg)
    x = setup.problem.grid.coordinates()[:, 0]
    assert np.allclose(setup.box.upper1[0], 1 + 0.5 * x)
    assert setup.box.lower1 == -1.0


def test_missing_config_file():
    with pytest.raises(ConfigError, match="not found"):
        RunConfig.from_file("/nonexistent/run.yaml")


# ---------------------------------------------------------------------------
# resolved round-trip


def test_resolved_config_reparses_to_equivalent_setup():
    cfg = _small(
        model={"chi": 0.3},
        potential={"kind": "logarithmic", "k1": 2.0},
        nonlinearity={"P": {"shape": "bump", "scale": 0.6},
                      "h": {"shape": "ramp"}},
        cost={"b1": 1.0, "target_Q": "0.2 * cos(pi * x) * exp(-t)"},
        control={"bounds": {"lower1": -0.8, "upper1": 0.8}},
        initial={"phi0": "0.3 * cos(pi * x)", "sigma0": 0.2})
    first = build_setup(cfg)
    second = build_setup(RunConfig.from_dict(cfg.resolved(),
                                             base_dir=cfg.base_dir))
    assert np.array_equal(first.problem.init.phi0, second.problem.init.phi0)
    assert np.array_equal(first.problem.cost.target_Q,
                          second.problem.cost.target_Q)
    assert first.box.lower1 == second.box.lower1
    assert first.problem.potential.kind == second.problem.potential.kind
    assert first.problem.potential.k1 == second.problem.potential.k1
    assert first.pgd == second.pgd
    assert first.ssc == second.ssc
