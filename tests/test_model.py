"""Potentials, Yosida regularization, nonlinearity shapes, and controls."""

import numpy as np
import pytest
from scipy.optimize import brentq

from tumoropt import (BoxConstraints, Control, CostSpec, InitialData,
                      ModelParams, bump_shape, constant_shape,
                      custom_polynomial_potential, logarithmic_potential,
                      make_nonlinearity, obstacle_potential, potential_eval,
                      project_admissible, prox_f1, ramp_shape,
                      regular_potential, table_shape, unbounded_box,
                      yosida_derivative, yosida_second, yosida_third,
                      zero_control)
from tumoropt.model import _f1_eval


# ---------------------------------------------------------------------------
# potentials


def test_regular_potential_values():
    pot = regular_potential()
    assert potential_eval(pot, 0.0) == pytest.approx(0.25)
    assert potential_eval(pot, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert potential_eval(pot, -1.0) == pytest.approx(0.0, abs=1e-15)
    # F'(r) = r^3 - r
    assert potential_eval(pot, 2.0, order=1) == pytest.approx(6.0)
    assert potential_eval(pot, 0.5, order=2) == pytest.approx(3 * 0.25 - 1.0)
    assert potential_eval(pot, 0.5, order=3) == pytest.approx(3.0)


def test_logarithmic_potential_values():
    pot = logarithmic_potential(k1=2.0)
    # (1+r)ln(1+r) + (1-r)ln(1-r) - k1 r^2 at r = +-1 -> 2 ln 2 - k1
    val = 2.0 * np.log(2.0) - 2.0
    assert potential_eval(pot, 1.0) == pytest.approx(val)
    assert potential_eval(pot, -1.0) == pytest.approx(val)
    assert potential_eval(pot, 0.0) == pytest.approx(0.0, abs=1e-15)
    # derivative is odd, second derivative even
    assert potential_eval(pot, 0.3, 1) == pytest.approx(
        -potential_eval(pot, -0.3, 1))
    assert potential_eval(pot, 0.3, 2) == pytest.approx(
        potential_eval(pot, -0.3, 2))


def test_logarithmic_derivatives_need_interior_points():
    pot = logarithmic_potential()
    with pytest.raises(ValueError):
        potential_eval(pot, 1.0, order=1)
    with pytest.raises(ValueError):
        potential_eval(pot, np.array([0.0, -1.0]), order=2)


def test_obstacle_potential_values():
    pot = obstacle_potential(k2=1.0)
    assert potential_eval(pot, 0.0) == pytest.approx(1.0)
    assert potential_eval(pot, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert potential_eval(pot, 1.5) == np.inf
    with pytest.raises(ValueError, match="Yosida"):
        potential_eval(pot, 0.0, order=1)


def test_custom_polynomial_potential():
    pot = custom_polynomial_potential([0.0, 0.0, 1.0])  # r^2
    assert potential_eval(pot, 2.0) == pytest.approx(4.0)
    assert potential_eval(pot, 2.0, 1) == pytest.approx(4.0)
    assert potential_eval(pot, 2.0, 2) == pytest.approx(2.0)
    assert potential_eval(pot, 2.0, 3) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("pot,lo,hi", [
    (regular_potential(), -2.0, 2.0),
    (logarithmic_potential(), -0.95, 0.95),
    (custom_polynomial_potential([0.1, -0.3, 0.5, 0.2]), -2.0, 2.0),
])
def test_potential_derivatives_match_finite_differences(pot, lo, hi):
    r = np.linspace(lo, hi, 11)
    d = 1e-6
    fd1 = (potential_eval(pot, r + d) - potential_eval(pot, r - d)) / (2 * d)
    assert np.abs(fd1 - potential_eval(pot, r, 1)).max() < 1e-7
    fd2 = (potential_eval(pot, r + d, 1) - potential_eval(pot, r - d, 1)) / (2 * d)
    assert np.abs(fd2 - potential_eval(pot, r, 2)).max() < 1e-6


def test_logarithmic_k1_must_exceed_one():
    with pytest.raises(ValueError):
        logarithmic_potential(k1=1.0)


# ---------------------------------------------------------------------------
# prox and Yosida regularization


def test_prox_frozen_values():
    # roots of eps f1'(s) + s = r computed independently by bisection
    assert prox_f1(regular_potential(), 0.5, 1.0) == pytest.approx(
        0.7709169970592481, abs=1e-12)
    assert prox_f1(regular_potential(), 0.2, -1.3) == pytest.approx(
        -1.061072817267877, abs=1e-12)
    assert prox_f1(logarithmic_potential(), 0.1, 0.5) == pytest.approx(
        0.41231948111388284, abs=1e-12)
    assert prox_f1(logarithmic_potential(), 0.05, -0.9) == pytest.approx(
        -0.7922542701877744, abs=1e-12)


def test_prox_matches_root_oracle(rng):
    for pot, span in ((regular_potential(), 3.0),
                      (logarithmic_potential(), 2.0)):
        for r in rng.uniform(-span, span, 12):
            for eps in (0.5, 0.1, 0.05):
                def g(s, eps=eps, r=r):
                    return eps * float(_f1_eval(pot, np.array([s]), 1)[0]) + s - r
                lo, hi = ((-1 + 1e-14, 1 - 1e-14)
                          if pot.kind == "logarithmic" else (-5.0, 5.0))
                ref = brentq(g, lo, hi, xtol=1e-16, rtol=8.9e-16)
                assert prox_f1(pot, eps, r) == pytest.approx(ref, abs=1e-12)


def test_prox_obstacle_is_clamp(rng):
    pot = obstacle_potential()
    r = rng.uniform(-3, 3, 50)
    assert np.array_equal(prox_f1(pot, 0.3, r), np.clip(r, -1.0, 1.0))
    # spec'd point: prox(1.5) = 1, derivative (1.5-1)/0.5 = 1
    assert yosida_derivative(pot, 0.5, 1.5) == pytest.approx(1.0)


def test_prox_custom_is_identity(rng):
    pot = custom_polynomial_potential([0.0, 1.0])
    r = rng.standard_normal(20)
    assert np.array_equal(prox_f1(pot, 0.2, r), r)


@pytest.mark.parametrize("pot", [regular_potential(), logarithmic_potential(),
                                 obstacle_potential(),
                                 custom_polynomial_potential([0.0, -1.0])])
def test_yosida_derivative_zero_at_origin(pot):
    assert yosida_derivative(pot, 0.1, 0.0) == 0.0


@pytest.mark.parametrize("pot", [regular_potential(), logarithmic_potential(),
                                 obstacle_potential()])
def test_yosida_derivative_lipschitz(pot, rng):
    eps = 0.07
    a = rng.uniform(-2, 2, 2000)
    b = rng.uniform(-2, 2, 2000)
    gap = np.abs(yosida_derivative(pot, eps, a) - yosida_derivative(pot, eps, b))
    assert np.all(gap <= np.abs(a - b) / eps * (1 + 1e-12) + 1e-14)


@pytest.mark.parametrize("pot", [regular_potential(), logarithmic_potential(),
                                 obstacle_potential()])
def test_yosida_derivative_monotone_in_eps(pot, rng):
    # |F'_{1,eps}(r)| is nondecreasing as eps decreases, approaching the
    # minimal section of the subdifferential
    r = rng.uniform(-0.95, 0.95, 64)
    prev = None
    for eps in (0.8, 0.4, 0.2, 0.1, 0.05, 0.025):
        cur = np.abs(yosida_derivative(pot, eps, r))
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
    pot = regular_potential()
    eps, d = 0.2, 1e-6
    r = rng.uniform(-2, 2, 20)
    fd = (yosida_derivative(pot, eps, r + d)
          - yosida_derivative(pot, eps, r - d)) / (2 * d)
    assert np.abs(fd - yosida_second(pot, eps, r)).max() < 1e-6
    fd3 = (yosida_second(pot, eps, r + d)
           - yosida_second(pot, eps, r - d)) / (2 * d)
    assert np.abs(fd3 - yosida_third(pot, eps, r)).max() < 1e-5


def test_yosida_rejects_nonpositive_eps():
    with pytest.raises(ValueError):
        prox_f1(regular_potential(), 0.0, 1.0)


# ---------------------------------------------------------------------------
# nonlinearity shapes


def test_ramp_endpoint_values_exact():
    h = ramp_shape()
    assert h.eval(np.array([-1.0]))[0] == 0.0
    assert h.eval(np.array([1.0]))[0] == 1.0
    assert h.eval(np.array([-2.5]))[0] == 0.0
    assert h.eval(np.array([2.5]))[0] == 1.0
    # flat derivatives outside the transition
    for order in (1, 2):
        assert h.eval(np.array([-1.0, 1.0, -3.0, 3.0]), order).max() == 0.0


def test_ramp_monotone_and_bounded():
    h = ramp_shape()
    r = np.linspace(-1.2, 1.2, 201)
    vals = h.eval(r)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert np.all(np.diff(vals) >= -1e-15)


def test_ramp_derivative_continuity():
    h = ramp_shape()
    d = 1e-7
    for edge in (-1.0, 1.0):
        inside = h.eval(np.array([edge + (d if edge < 0 else -d)]), 2)[0]
        assert abs(inside) < 1e-4  # C^2 matching at the edges


def test_constant_shape_derivatives_vanish(rng):
    p = constant_shape(0.7)
    r = rng.standard_normal(9)
    assert np.all(p.eval(r) == 0.7)
    assert np.all(p.eval(r, 1) == 0.0)
    assert np.all(p.eval(r, 2) == 0.0)


def test_bump_shape_values():
    p = bump_shape(scale=2.0, center=0.5, width=0.7)
    assert p.eval(np.array([0.5]))[0] == pytest.approx(2.0)
    assert p.eval(np.array([0.5]), 1)[0] == pytest.approx(0.0, abs=1e-15)
    d = 1e-6
    r = np.array([0.1, 0.9, -0.4])
    fd = (p.eval(r + d) - p.eval(r - d)) / (2 * d)
    assert np.abs(fd - p.eval(r, 1)).max() < 1e-6


def test_table_shape_interpolates_and_limits():
    tab = table_shape([-1.0, 0.0, 1.0], [0.0, 0.5, 0.6])
    assert tab.eval(np.array([-0.5]))[0] == pytest.approx(0.25)
    assert tab.eval(np.array([2.0]))[0] == pytest.approx(0.6)
    assert tab.eval(np.array([0.5]), 1)[0] == pytest.approx(0.1)
    with pytest.raises(ValueError):
        tab.eval(np.array([0.0]), 2)  # piecewise linear: no curvature


def test_make_nonlinearity_rejects_negative_shapes():
    with pytest.raises(ValueError):
        make_nonlinearity(table_shape([-1, 1], [-0.5, 1.0]), ramp_shape())


def test_nonlinearity_eval_dispatch():
    nl = make_nonlinearity(constant_shape(0.4), ramp_shape())
    r = np.array([0.3])
    assert nl.eval("P", r)[0] == 0.4
    assert nl.eval("h", r)[0] == pytest.approx(ramp_shape().eval(r)[0])
    with pytest.raises(ValueError):
        nl.eval("Q", r)


# ---------------------------------------------------------------------------
# parameters, cost, controls, box


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(alpha=0.0, beta=1.0, chi=0.0, T=1.0)
    with pytest.raises(ValueError):
        ModelParams(alpha=1.0, beta=1.0, chi=0.0, T=0.0)


def test_cost_spec_validation():
    with pytest.raises(ValueError):
        CostSpec(b0=0.0)
    with pytest.raises(ValueError):
        CostSpec(b0=1.0, b1=-1.0)


def test_control_shape_validation():
    with pytest.raises(ValueError):
        Control(np.zeros((3, 5)), np.zeros((3, 4)))
    u = zero_control(3, 5)
    assert u.shape == (3, 5)
    v = u.copy()
    v.u1[0, 0] = 1.0
    assert u.u1[0, 0] == 0.0


_NAN = np.full((3, 2), np.nan)


@pytest.mark.parametrize("build", [
    lambda: Control(_NAN, np.zeros((3, 2))),
    lambda: Control(np.zeros((3, 2)), np.full((3, 2), np.inf)),
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
    assert unbounded_box().span() == 1.0


def test_projection_identity_inside_box(rng):
    box = BoxConstraints(lower1=-1.0, upper1=1.0, lower2=-1.0, upper2=1.0)
    u = Control(rng.uniform(-1, 1, (3, 4)), rng.uniform(-1, 1, (3, 4)))
    p = project_admissible(u, box)
    assert np.array_equal(p.u1, u.u1) and np.array_equal(p.u2, u.u2)


def test_projection_clamps():
    box = BoxConstraints(upper1=2.0)
    u = Control(np.full((2, 3), 5.0), np.zeros((2, 3)))
    p = project_admissible(u, box)
    assert np.all(p.u1 == 2.0)
    assert np.array_equal(p.u2, u.u2)


def test_projection_nonexpansive(rng):
    box = BoxConstraints(lower1=-0.3, upper1=0.8, lower2=0.0, upper2=0.5)
    for _ in range(20):
        u = Control(rng.standard_normal((2, 6)), rng.standard_normal((2, 6)))
        v = Control(rng.standard_normal((2, 6)), rng.standard_normal((2, 6)))
        pu, pv = project_admissible(u, box), project_admissible(v, box)
        dp = np.hypot(pu.u1 - pv.u1, pu.u2 - pv.u2)
        d = np.hypot(u.u1 - v.u1, u.u2 - v.u2)
        assert np.all(dp <= d + 1e-15)
