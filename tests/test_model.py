"""Potentials, Yosida regularization, nonlinearity shapes, and controls."""

import dataclasses

import numpy as np
import pytest
from scipy.optimize import brentq

from tumoropt import (BoxConstraints, Control, CostSpec, InitialData,
                      ModelParams, NonlinearitySpec, PgdOptions,
                      PotentialSpec, ScalarShape, TimeGrid,
                      project_admissible, prox_f1, yosida_eval, zero_control)
from tumoropt.model import _f1_eval, _f2_eval

from _support import make_problem


# ---------------------------------------------------------------------------
# potentials


def exact_potential(pot, r, order=0):
    """F = F1 + F2 or one of its derivatives, exact (no Yosida)."""
    arr = np.asarray(r, dtype=float)
    return _f1_eval(pot, arr, order) + _f2_eval(pot, arr, order)


def test_regular_potential_values():
    pot = PotentialSpec("regular")
    assert exact_potential(pot, 0.0) == pytest.approx(0.25)
    assert exact_potential(pot, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert exact_potential(pot, -1.0) == pytest.approx(0.0, abs=1e-15)
    # F'(r) = r^3 - r
    assert exact_potential(pot, 2.0, order=1) == pytest.approx(6.0)
    assert exact_potential(pot, 0.5, order=2) == pytest.approx(3 * 0.25 - 1.0)
    assert exact_potential(pot, 0.5, order=3) == pytest.approx(3.0)


def test_logarithmic_potential_values():
    pot = PotentialSpec("logarithmic", k1=2.0)
    # (1+r)ln(1+r) + (1-r)ln(1-r) - k1 r^2 at r = +-1 -> 2 ln 2 - k1
    val = 2.0 * np.log(2.0) - 2.0
    assert exact_potential(pot, 1.0) == pytest.approx(val)
    assert exact_potential(pot, -1.0) == pytest.approx(val)
    assert exact_potential(pot, 0.0) == pytest.approx(0.0, abs=1e-15)
    # derivative is odd, second derivative even
    assert exact_potential(pot, 0.3, 1) == pytest.approx(
        -exact_potential(pot, -0.3, 1))
    assert exact_potential(pot, 0.3, 2) == pytest.approx(
        exact_potential(pot, -0.3, 2))


def test_obstacle_potential_values():
    pot = PotentialSpec("obstacle", k2=1.0, yosida_eps=0.1)
    assert exact_potential(pot, 0.0) == pytest.approx(1.0)
    assert exact_potential(pot, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert exact_potential(pot, 1.5) == np.inf
    with pytest.raises(ValueError, match="Yosida"):
        exact_potential(pot, 0.0, order=1)


def test_custom_polynomial_potential():
    pot = PotentialSpec("custom", coefficients=[0.0, 0.0, 1.0])  # r^2
    assert exact_potential(pot, 2.0) == pytest.approx(4.0)
    assert exact_potential(pot, 2.0, 1) == pytest.approx(4.0)
    assert exact_potential(pot, 2.0, 2) == pytest.approx(2.0)
    assert exact_potential(pot, 2.0, 3) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("pot,lo,hi", [
    (PotentialSpec("regular"), -2.0, 2.0),
    (PotentialSpec("logarithmic"), -0.95, 0.95),
    (PotentialSpec("custom", coefficients=[0.1, -0.3, 0.5, 0.2]), -2.0, 2.0),
])
def test_potential_derivatives_match_finite_differences(pot, lo, hi):
    # order 3 is the F''' that the second-order coefficients read
    F = pot.eval
    r = np.linspace(lo, hi, 11)
    d = 1e-6
    for order, tol in ((1, 1e-7), (2, 1e-6), (3, 1e-6)):
        fd = (F(r + d, order - 1) - F(r - d, order - 1)) / (2 * d)
        assert np.abs(fd - F(r, order)).max() < tol, order


def test_logarithmic_k1_must_exceed_one():
    with pytest.raises(ValueError):
        PotentialSpec("logarithmic", k1=1.0)


# ---------------------------------------------------------------------------
# prox and Yosida regularization


def _with_eps(pot, eps):
    return dataclasses.replace(pot, yosida_eps=eps)


def test_prox_frozen_values():
    # roots of eps f1'(s) + s = r computed independently by bisection
    assert prox_f1(PotentialSpec("regular", yosida_eps=0.5),
                   1.0) == pytest.approx(0.7709169970592481, abs=1e-12)
    assert prox_f1(PotentialSpec("regular", yosida_eps=0.2),
                   -1.3) == pytest.approx(-1.061072817267877, abs=1e-12)
    assert prox_f1(PotentialSpec("logarithmic", yosida_eps=0.1),
                   0.5) == pytest.approx(0.41231948111388284, abs=1e-12)
    assert prox_f1(PotentialSpec("logarithmic", yosida_eps=0.05),
                   -0.9) == pytest.approx(-0.7922542701877744, abs=1e-12)


def test_prox_matches_root_oracle(rng):
    for pot, span in ((PotentialSpec("regular"), 3.0),
                      (PotentialSpec("logarithmic"), 2.0)):
        for r in rng.uniform(-span, span, 12):
            for eps in (0.5, 0.1, 0.05):
                def g(s, eps=eps, r=r):
                    return eps * float(_f1_eval(pot, np.array([s]), 1)[0]) + s - r
                lo, hi = ((-1 + 1e-14, 1 - 1e-14)
                          if pot.kind == "logarithmic" else (-5.0, 5.0))
                ref = brentq(g, lo, hi, xtol=1e-16, rtol=8.9e-16)
                assert prox_f1(_with_eps(pot, eps), r) == pytest.approx(
                    ref, abs=1e-12)


def test_prox_obstacle_is_clamp(rng):
    pot = PotentialSpec("obstacle", yosida_eps=0.1)
    r = rng.uniform(-3, 3, 50)
    assert np.array_equal(prox_f1(pot, r), np.clip(r, -1.0, 1.0))
    # spec'd point: prox(1.5) = 1, derivative (1.5-1)/eps, with the spec's eps
    assert yosida_eval(pot, 1.5) == pytest.approx(5.0)
    assert yosida_eval(_with_eps(pot, 0.5), 1.5) == pytest.approx(1.0)


@pytest.mark.parametrize("pot", [PotentialSpec("regular"),
                                 PotentialSpec("logarithmic")])
def test_prox_rows_are_bitwise_each_row_alone(pot, rng):
    # rows far apart in magnitude need different iteration counts; each
    # row stops on its own, so stacking them moves no bit
    pot = _with_eps(pot, 0.05)
    for _ in range(8):
        rows = np.stack([rng.uniform(-0.1, 0.1, 17),
                         rng.uniform(-8.0, 8.0, 17),
                         rng.uniform(-1.5, 1.5, 17)])
        stacked = prox_f1(pot, rows)
        for row, got in zip(rows, stacked):
            assert got.tobytes() == prox_f1(pot, row).tobytes()
        assert prox_f1(pot, rows[None]).tobytes() == stacked.tobytes()


def test_prox_custom_is_identity(rng):
    pot = PotentialSpec("custom", coefficients=[0.0, 1.0], yosida_eps=0.2)
    r = rng.standard_normal(20)
    assert np.array_equal(prox_f1(pot, r), r)


@pytest.mark.parametrize("pot", [PotentialSpec("regular"),
                                 PotentialSpec("logarithmic"),
                                 PotentialSpec("obstacle", yosida_eps=0.1),
                                 PotentialSpec("custom", coefficients=[0.0, -1.0])])
def test_yosida_derivative_zero_at_origin(pot):
    assert yosida_eval(_with_eps(pot, 0.1), 0.0) == 0.0


@pytest.mark.parametrize("pot", [PotentialSpec("regular"),
                                 PotentialSpec("logarithmic"),
                                 PotentialSpec("obstacle", yosida_eps=0.1)])
def test_yosida_derivative_lipschitz(pot, rng):
    eps = 0.07
    pot = _with_eps(pot, eps)
    a = rng.uniform(-2, 2, 2000)
    b = rng.uniform(-2, 2, 2000)
    gap = np.abs(yosida_eval(pot, a) - yosida_eval(pot, b))
    assert np.all(gap <= np.abs(a - b) / eps * (1 + 1e-12) + 1e-14)


@pytest.mark.parametrize("pot", [PotentialSpec("regular"),
                                 PotentialSpec("logarithmic"),
                                 PotentialSpec("obstacle", yosida_eps=0.1)])
def test_yosida_derivative_monotone_in_eps(pot, rng):
    # |F'_{1,eps}(r)| is nondecreasing as eps decreases, approaching the
    # minimal section of the subdifferential
    r = rng.uniform(-0.95, 0.95, 64)
    prev = None
    for eps in (0.8, 0.4, 0.2, 0.1, 0.05, 0.025):
        cur = np.abs(yosida_eval(_with_eps(pot, eps), r))
        if prev is not None:
            assert np.all(cur >= prev - 1e-12)
        prev = cur
    if pot.kind == "obstacle":
        # minimal section is 0 inside [-1, 1]
        assert np.abs(prev).max() == 0.0
    else:
        limit = np.abs(_f1_eval(pot, r, 1))
        assert np.abs(prev - limit).max() < 0.2 * (1 + limit.max())


def test_yosida_second_third_consistency(rng):
    # FD of the first Yosida derivative against the closed-form second
    pot = PotentialSpec("regular", yosida_eps=0.2)
    d = 1e-6
    r = rng.uniform(-2, 2, 20)
    fd = (yosida_eval(pot, r + d, 1) - yosida_eval(pot, r - d, 1)) / (2 * d)
    assert np.abs(fd - yosida_eval(pot, r, 2)).max() < 1e-6
    fd3 = (yosida_eval(pot, r + d, 2) - yosida_eval(pot, r - d, 2)) / (2 * d)
    assert np.abs(fd3 - yosida_eval(pot, r, 3)).max() < 1e-5
    # FD of the envelope (order 0) against the first derivative
    for pot in (PotentialSpec("regular"), PotentialSpec("logarithmic"),
                PotentialSpec("obstacle", yosida_eps=0.1),
                PotentialSpec("custom", coefficients=[0.0, -1.0])):
        pot = _with_eps(pot, 0.2)
        fd0 = (yosida_eval(pot, r + d, 0)
               - yosida_eval(pot, r - d, 0)) / (2 * d)
        assert np.abs(fd0 - yosida_eval(pot, r, 1)).max() < 1e-6
    with pytest.raises(ValueError, match="order"):
        yosida_eval(pot, r, 4)


def test_yosida_rejects_nonpositive_eps():
    # eps lives on the spec, which rejects a nonpositive one; a spec
    # without one has no Yosida map
    with pytest.raises(ValueError, match="yosida_eps"):
        PotentialSpec("regular", yosida_eps=0.0)
    with pytest.raises(ValueError, match="yosida_eps"):
        prox_f1(PotentialSpec("regular"), 1.0)
    with pytest.raises(ValueError, match="yosida_eps"):
        yosida_eval(PotentialSpec("regular"), 1.0)


# ---------------------------------------------------------------------------
# nonlinearity shapes


def test_ramp_endpoint_values_exact():
    h = ScalarShape("ramp")
    assert h.eval(np.array([-1.0]))[0] == 0.0
    assert h.eval(np.array([1.0]))[0] == 1.0
    assert h.eval(np.array([-2.5]))[0] == 0.0
    assert h.eval(np.array([2.5]))[0] == 1.0
    # flat derivatives outside the transition
    for order in (1, 2):
        assert h.eval(np.array([-1.0, 1.0, -3.0, 3.0]), order).max() == 0.0


def test_ramp_value_is_bitwise_its_polynomial(rng):
    # the unrolled Horner form gives numpy's polyval bit for bit, clipped
    # ends included
    r = np.concatenate([[-3.0, -1.0, 1.0, 3.0],
                        rng.uniform(-1.1, 1.1, 200_000)])
    x = np.clip(0.5 * (r + 1.0), 0.0, 1.0)
    ref = np.polynomial.polynomial.polyval(
        x, [0.0, 0.0, 0.0, 0.0, 35.0, -84.0, 70.0, -20.0])
    assert ScalarShape("ramp").eval(r).tobytes() == ref.tobytes()


def test_ramp_monotone_and_bounded():
    h = ScalarShape("ramp")
    r = np.linspace(-1.2, 1.2, 201)
    vals = h.eval(r)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert np.all(np.diff(vals) >= -1e-15)


def test_ramp_derivative_continuity():
    h = ScalarShape("ramp")
    d = 1e-7
    for edge in (-1.0, 1.0):
        inside = h.eval(np.array([edge + (d if edge < 0 else -d)]), 2)[0]
        assert abs(inside) < 1e-4  # C^2 matching at the edges


def test_constant_shape_derivatives_vanish(rng):
    p = ScalarShape("constant", value=0.7)
    r = rng.standard_normal(9)
    assert np.all(p.eval(r) == 0.7)
    assert np.all(p.eval(r, 1) == 0.0)
    assert np.all(p.eval(r, 2) == 0.0)


def test_bump_shape_values():
    p = ScalarShape("bump", scale=2.0, center=0.5, width=0.7)
    assert p.eval(np.array([0.5]))[0] == pytest.approx(2.0)
    assert p.eval(np.array([0.5]), 1)[0] == pytest.approx(0.0, abs=1e-15)
    d = 1e-6
    r = np.array([0.1, 0.9, -0.4])
    fd = (p.eval(r + d) - p.eval(r - d)) / (2 * d)
    assert np.abs(fd - p.eval(r, 1)).max() < 1e-6


@pytest.mark.parametrize("shape, orders", [
    (ScalarShape("constant", value=0.7), (0, 1, 2)),
    (ScalarShape("ramp"), (0, 1, 2)),
    (ScalarShape("bump", scale=0.6, center=0.1, width=0.8), (0, 1)),
    (ScalarShape("bump", scale=0.6, center=0.1, width=0.8), (1, 2)),
    (ScalarShape("table", xs=[-1.0, 0.0, 1.0], ys=[0.0, 0.5, 0.6]), (0, 1)),
], ids=["constant", "ramp", "bump-01", "bump-12", "table"])
def test_eval_orders_is_bitwise_eval(shape, orders, rng):
    r = np.concatenate([[-3.0, -1.0, 0.0, 1.0, 3.0],
                        rng.uniform(-1.5, 1.5, 205)]).reshape(3, -1)
    out = shape.eval_orders(r, orders)
    assert len(out) == len(orders)
    for k, values in zip(orders, out):
        assert values.tobytes() == shape.eval(r, k).tobytes()
    with pytest.raises(ValueError, match="order"):
        shape.eval_orders(r, (0, 3))


def test_ramp_clamp_is_bitwise_clip():
    # the clamp of the ramp argument keeps np.clip's values, NaN included
    r = np.array([np.nan, -np.inf, -5.0, -1.0, -0.3, 0.0, 0.999, 1.0, 7.0,
                  np.inf])
    for order in (0, 1, 2):
        x = np.clip(0.5 * (r + 1.0), 0.0, 1.0)
        out = ScalarShape("ramp").eval(r, order)
        assert np.isnan(out[0]) and np.isnan(x[0])
        assert np.array_equal(out[1:], ScalarShape("ramp").eval(
            2.0 * x[1:] - 1.0, order))


def test_table_shape_interpolates_and_limits():
    tab = ScalarShape("table", xs=[-1.0, 0.0, 1.0], ys=[0.0, 0.5, 0.6])
    assert tab.eval(np.array([-0.5]))[0] == pytest.approx(0.25)
    assert tab.eval(np.array([2.0]))[0] == pytest.approx(0.6)
    assert tab.eval(np.array([0.5]), 1)[0] == pytest.approx(0.1)
    with pytest.raises(ValueError):
        tab.eval(np.array([0.0]), 2)  # piecewise linear: no curvature


def test_sup_bounds_derive_from_the_shapes():
    nonlin = NonlinearitySpec(
        ScalarShape("bump", scale=0.6, center=0.1, width=0.8),
        ScalarShape("ramp"))
    assert nonlin.sup_P == 0.6
    assert nonlin.sup_H == 1.0


@pytest.mark.parametrize("kind,domain", [
    ("regular", (-np.inf, np.inf)), ("custom", (-np.inf, np.inf)),
    ("logarithmic", (-1.0, 1.0)), ("obstacle", (-1.0, 1.0))])
def test_potential_domain_follows_its_kind(kind, domain):
    assert PotentialSpec(kind=kind, coefficients=[0.0],
                         yosida_eps=0.1).domain == domain


def test_nonlinearity_eval_dispatch():
    nl = NonlinearitySpec(ScalarShape("constant", value=0.4),
                          ScalarShape("ramp"))
    r = np.array([0.3])
    assert nl.P.eval(r)[0] == 0.4
    assert nl.H.eval(r)[0] == pytest.approx(ScalarShape("ramp").eval(r)[0])


# the ramp is flat beyond +-1 and C^3 across the edges
RAMP_POINTS = np.array([-2.0, -1.001, -1.0, -0.7, -0.2, 0.0, 0.35, 0.8, 1.0,
                        1.001, 2.0])


@pytest.mark.parametrize("shape, r, d", [
    *(pytest.param(ScalarShape("constant", value=v),
                   np.linspace(-2.0, 2.0, 9), 1e-5,
                   id=f"constant-{v:g}") for v in (0.0, 0.4, 3.5)),
    pytest.param(ScalarShape("ramp"), RAMP_POINTS, 1e-5, id="ramp"),
    # points a few widths around the center, which is one of them (shift 0)
    # or falls between them; the step scales with the width
    *(pytest.param(ScalarShape("bump", scale=0.5, center=center, width=width),
                   center + width * (np.linspace(-3.0, 3.0, 13) + shift),
                   1e-4 * width, id=f"bump-{width:g}-{center:g}-{shift:g}")
      for width in (1.0, 0.1, 0.01, 1e-3)
      for center, shift in ((0.0, 0.0), (0.5, 0.0), (0.003, 0.37))),
])
def test_smooth_shape_derivatives_match_finite_differences(shape, r, d):
    for order in (1, 2):
        fd = (shape.eval(r + d, order - 1)
              - shape.eval(r - d, order - 1)) / (2 * d)
        exact = shape.eval(r, order)
        assert np.abs(fd - exact).max() <= 1e-6 * max(1.0, np.abs(exact).max())


def test_table_slope_matches_finite_differences_between_knots():
    tab = ScalarShape("table", xs=[-1.0, -0.2, 0.5, 1.0],
                      ys=[0.0, 0.3, 0.8, 0.6])
    r = np.array([-0.9, -0.6, -0.21, -0.19, 0.1, 0.49, 0.51, 0.75, 0.99])
    d = 1e-3
    fd = (tab.eval(r + d) - tab.eval(r - d)) / (2 * d)
    assert np.abs(fd - tab.eval(r, 1)).max() < 1e-12


# ---------------------------------------------------------------------------
# parameters, cost, controls, box


_NEGATIVE_TABLE = ScalarShape("table", xs=[-1, 1], ys=[-0.5, 1.0])


# one invalid construction per rule that a model or option object checks on
# itself, keyed "<object>-<field>[-<variant>]"
INVALID_FIELDS = {
    "solver-yosida_eps": lambda: PotentialSpec("regular", yosida_eps=-0.1),
    "pgd-tol": lambda: PgdOptions(tol=0.0),
    "pgd-max_iter": lambda: PgdOptions(max_iter=0),
    "potential-kind": lambda: PotentialSpec("quartic"),
    "potential-k1": lambda: PotentialSpec("logarithmic", k1=0.5),
    "potential-k2": lambda: PotentialSpec("obstacle", k2=0.0),
    "potential-coefficients": lambda: PotentialSpec("custom"),
    "potential-coefficients-empty":
        lambda: PotentialSpec("custom", coefficients=[]),
    "potential-coefficients-2d":
        lambda: PotentialSpec("custom", coefficients=[[1.0]]),
    "shape-kind": lambda: ScalarShape("spike"),
    "shape-width": lambda: ScalarShape("bump", width=0.0),
    "shape-scale": lambda: ScalarShape("bump", scale=-1.0),
    "shape-xs": lambda: ScalarShape("table", xs=[0.0], ys=[1.0]),
    "shape-xs-unmatched": lambda: ScalarShape("table", xs=[0.0, 1.0], ys=[1.0]),
    "shape-xs-decreasing":
        lambda: ScalarShape("table", xs=[1.0, 0.0], ys=[1.0, 1.0]),
    "nonlinearity-P": lambda: NonlinearitySpec(ScalarShape(
        "table", xs=[-1, 1], ys=[-0.5, 1.0]), ScalarShape("ramp")),
    "nonlinearity-H": lambda: NonlinearitySpec(ScalarShape("ramp"), ScalarShape(
        "table", xs=[-1, 1], ys=[-0.5, 1.0])),
    "nonlinearity-P-nan": lambda: NonlinearitySpec(
        ScalarShape("constant", value=np.nan), ScalarShape("ramp")),
    "box-lower1": lambda: BoxConstraints(lower1=np.inf),
    "box-upper2": lambda: BoxConstraints(upper2=np.full((2, 3), -np.inf)),
    "problem-obstacle": lambda: dataclasses.replace(
        make_problem(), potential=PotentialSpec("obstacle")),
}

# the former solver and descent options that are module constants now: the
# problem and the descent options take no such field
REMOVED_FIELDS = {
    "solver-newton_tol": lambda: _problem_with(newton_tol=-1.0),
    "solver-newton_max_iter": lambda: _problem_with(newton_max_iter=0),
    "solver-separation_margin":
        lambda: _problem_with(separation_margin=-1e-8),
    "solver-polish_steps": lambda: _problem_with(polish_steps=-2),
    "solver-energy_blowup_factor":
        lambda: _problem_with(energy_blowup_factor=0.0),
    "pgd-initial_step": lambda: PgdOptions(initial_step=-1.0),
    "pgd-armijo_c": lambda: PgdOptions(armijo_c=0.0),
    "pgd-step_min": lambda: PgdOptions(step_min=0.0),
    "pgd-shrink": lambda: PgdOptions(shrink=1.0),
    "pgd-shrink-zero": lambda: PgdOptions(shrink=0.0),
}


def _problem_with(**fields):
    return dataclasses.replace(make_problem(), **fields)


@pytest.mark.parametrize("case", {**INVALID_FIELDS, **REMOVED_FIELDS})
def test_invalid_fields_are_rejected_on_construction(case):
    # the message starts with the field, which a config error prefixes with
    # its block; the obstacle needs the potential's yosida_eps
    field = case.split("-")[1] if case != "problem-obstacle" else "yosida_eps"
    if case in REMOVED_FIELDS:
        with pytest.raises(TypeError,
                           match=f"unexpected keyword argument '{field}'"):
            REMOVED_FIELDS[case]()
        return
    with pytest.raises(ValueError, match=f"^{field} "):
        INVALID_FIELDS[case]()


def test_table_shape_arrays_are_read_only_copies():
    xs = np.array([-1.0, 1.0])
    tab = ScalarShape("table", xs=xs, ys=[0.0, 1.0])
    assert xs.flags.writeable and not tab.xs.flags.writeable
    assert not tab.ys.flags.writeable and tab.ys.dtype == float


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(alpha=0.0, beta=1.0, chi=0.0)
    with pytest.raises(ValueError):
        ModelParams(alpha=1.0, beta=0.0, chi=0.0)
    # the horizon T is the time grid's
    with pytest.raises(ValueError, match="final time"):
        TimeGrid(steps=4, t_final=0.0)


def test_cost_spec_validation():
    with pytest.raises(ValueError):
        CostSpec(b0=0.0)
    with pytest.raises(ValueError):
        CostSpec(b0=1.0, b1=-1.0)


def test_control_shape_validation():
    with pytest.raises(ValueError):
        Control([np.zeros((3, 5)), np.zeros((3, 4))])
    u = zero_control(3, 5)
    assert u.shape == (3, 5)
    v = u.copy()
    v.u1[0, 0] = 1.0
    assert u.u1[0, 0] == 0.0


def test_control_is_one_stacked_array():
    u1, u2 = np.arange(6.0).reshape(2, 3), -np.arange(6.0).reshape(2, 3)
    u = Control([u1, u2])
    assert u.v.shape == (2, 2, 3) and u.shape == (2, 3)
    assert np.array_equal(u.u1, u1) and np.array_equal(u.u2, u2)
    assert np.shares_memory(u.u1, u.v) and np.shares_memory(u.u2, u.v)
    # a stacked array is kept as it is, and the views write through
    v = Control(u.v)
    assert v.v is u.v
    v.u2[1, 2] = 7.0
    assert u.v[1, 1, 2] == 7.0
    with pytest.raises(AttributeError):
        u.u1 = u2
    for bad in (np.zeros((3, 2, 2)), np.zeros((2, 3)), np.zeros((2, 2, 2, 2))):
        with pytest.raises(ValueError, match="share a"):
            Control(bad)


_NAN = np.full((3, 2), np.nan)


@pytest.mark.parametrize("build", [
    lambda: Control([_NAN, np.zeros((3, 2))]),
    lambda: Control([np.zeros((3, 2)), np.full((3, 2), np.inf)]),
    lambda: InitialData(np.zeros(2), np.array([0.0, np.nan]), np.zeros(2)),
    lambda: InitialData(np.zeros(2), np.zeros(2), np.array([np.inf, 0.0])),
    lambda: CostSpec(b0=np.nan),
    lambda: CostSpec(b0=1.0, b1=np.inf),
    lambda: CostSpec(b0=1.0, b2=np.nan),
    lambda: CostSpec(b0=1.0, b1=1.0, target_Q=_NAN),
    lambda: CostSpec(b0=1.0, b2=1.0, target_Omega=np.array([np.inf, 0.0])),
    lambda: BoxConstraints(lower1=np.nan),
    lambda: BoxConstraints(upper2=_NAN),
], ids=["u1", "u2", "phi0", "sigma0", "b0", "b1", "b2", "target_Q",
        "target_Omega", "lower1", "upper2"])
def test_non_finite_model_data_is_rejected(build):
    with pytest.raises(ValueError, match="finite|NaN"):
        build()


def test_box_validation_and_span():
    with pytest.raises(ValueError):
        BoxConstraints(lower1=1.0, upper1=0.0)
    box = BoxConstraints(lower1=-2.0, upper1=3.0)
    assert box.span() == 3.0
    assert BoxConstraints().span() == 1.0


def test_box_stacks_its_bounds_as_a_control_stacks_its_components():
    field = np.linspace(0.5, 1.0, 12).reshape(3, 4)
    box = BoxConstraints(lower1=-1.0, upper1=field, lower2=-2.0)
    assert box.lower.shape == (2, 1, 1)
    assert box.lower.ravel().tolist() == [-1.0, -2.0]
    assert box.upper.shape == (2, 3, 4)
    assert np.array_equal(box.upper[0], field)
    assert np.all(box.upper[1] == np.inf)
    # the four bounds stay the settable fields
    assert [f.name for f in dataclasses.fields(box) if f.init] == [
        "lower1", "upper1", "lower2", "upper2"]
    assert box.span() == 2.0
    u = Control([np.full((3, 4), 0.8), np.full((3, 4), -3.0)])
    p = project_admissible(u, box)
    assert np.array_equal(p.u1, np.minimum(0.8, field))
    assert np.all(p.u2 == -2.0)
    # 1-D bounds are fields of one level, broadcast over every level
    row = BoxConstraints(upper2=np.full(4, 0.1))
    assert row.upper.shape == (2, 1, 4)
    assert np.all(project_admissible(u, row).u2 == -3.0)


def test_control_problem_rejects_misshapen_data():
    pr = make_problem(nodes=5, steps=3)
    cases = [
        ({"init": InitialData(np.zeros(4), np.zeros(4), np.zeros(4))},
         "initial fields must have shape (5,)"),
        ({"cost": CostSpec(b0=1.0, target_Q=np.zeros((3, 5)))},
         "target_Q must have shape (4, 5), got (3, 5)"),
        ({"cost": CostSpec(b0=1.0, target_Omega=np.zeros(4))},
         "target_Omega must have shape (5,)"),
    ]
    for change, message in cases:
        with pytest.raises(ValueError) as info:
            dataclasses.replace(pr, **change)
        assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        InitialData(np.zeros(5), np.zeros(4), np.zeros(5))
    assert str(info.value) == "initial fields must share one shape"


def test_projection_identity_inside_box(rng):
    box = BoxConstraints(lower1=-1.0, upper1=1.0, lower2=-1.0, upper2=1.0)
    u = Control([rng.uniform(-1, 1, (3, 4)), rng.uniform(-1, 1, (3, 4))])
    p = project_admissible(u, box)
    assert np.array_equal(p.u1, u.u1) and np.array_equal(p.u2, u.u2)


def test_projection_clamps():
    box = BoxConstraints(upper1=2.0)
    u = Control([np.full((2, 3), 5.0), np.zeros((2, 3))])
    p = project_admissible(u, box)
    assert np.all(p.u1 == 2.0)
    assert np.array_equal(p.u2, u.u2)


def test_projection_nonexpansive(rng):
    box = BoxConstraints(lower1=-0.3, upper1=0.8, lower2=0.0, upper2=0.5)
    for _ in range(20):
        u = Control([rng.standard_normal((2, 6)), rng.standard_normal((2, 6))])
        v = Control([rng.standard_normal((2, 6)), rng.standard_normal((2, 6))])
        pu, pv = project_admissible(u, box), project_admissible(v, box)
        dp = np.hypot(pu.u1 - pv.u1, pu.u2 - pv.u2)
        d = np.hypot(u.u1 - v.u1, u.u2 - v.u2)
        assert np.all(dp <= d + 1e-15)
