"""Reduced cost, gradient, projected descent, and curvature analysis."""

import dataclasses

import numpy as np
import pytest

from tumoropt import (BoxConstraints, Control, CostSpec, GradientField,
                      PgdOptions, SecondOrderContext, cost_eval, cone_project,
                      default_tau, dense_hessian, projected_gradient,
                      quadratic_form, reduced_gradient, ssc_certificate,
                      stationarity_measure, strongly_active_sets,
                      solve_bilinearized, unbounded_box, zero_control)
from tumoropt.problem import control_inner, st_inner
from tumoropt.verify import check_gradient_fd

from _support import make_problem, random_control, smooth_control


def _trapz_time(values, times):
    return np.trapezoid(values, times)


def test_cost_of_zero_pair_is_zero():
    pr = make_problem(b1=0.0, b2=0.0, tracking=False)
    u = pr.zero_control()
    state = pr.solve(u)
    assert cost_eval(state, u, CostSpec(b0=1.0), pr.grid, pr.tgrid) == 0.0


def test_cost_matches_composed_trapezoids():
    pr = make_problem(b1=2.0, b2=0.7, steps=6)
    u = smooth_control(pr)
    state = pr.solve(u)
    j = cost_eval(state, u, pr.cost, pr.grid, pr.tgrid)

    x = pr.grid.coordinates()[:, 0]
    t = pr.tgrid.times

    def space(f):
        return np.trapezoid(f, x, axis=-1)

    mis = state.phi - pr.target_q()
    mis_t = state.phi[-1] - pr.target_omega()
    expected = (0.5 * pr.cost.b0 * _trapz_time(space(u.u1**2)
                                               + space(u.u2**2), t)
                + 0.5 * pr.cost.b1 * _trapz_time(space(mis**2), t)
                + 0.5 * pr.cost.b2 * space(mis_t**2))
    assert j == pytest.approx(expected, rel=1e-12)


def test_cost_closed_form_constant_misfit():
    # zero dynamics keep phi = 0, so only the targets contribute
    pr = make_problem(coupling="none", chi=0.0, b1=2.0, b2=0.5, steps=5)
    z = np.zeros(pr.grid.n)
    pr = dataclasses.replace(
        pr, init=dataclasses.replace(pr.init, mu0=z, phi0=z.copy(),
                                     sigma0=z.copy()))
    u = pr.zero_control()
    state = pr.solve(u)
    assert np.all(state.phi == 0.0)
    j = cost_eval(state, u, pr.cost, pr.grid, pr.tgrid)
    x = pr.grid.coordinates()[:, 0]
    qdens = np.trapezoid((0.3 * np.cos(np.pi * x))**2, x)
    odens = np.trapezoid((0.1 * np.sin(np.pi * x))**2, x)
    expected = 0.5 * 2.0 * pr.params.T * qdens + 0.5 * 0.5 * odens
    assert j == pytest.approx(expected, rel=1e-13)


def test_gradient_is_plain_control_without_tracking():
    pr = make_problem(b0=1.7, b1=0.0, b2=0.0, tracking=False)
    u = random_control(pr, seed=8)
    grad = reduced_gradient(u, pr)
    assert np.array_equal(grad.grad1, 1.7 * u.u1)
    assert np.array_equal(grad.grad2, 1.7 * u.u2)
    assert np.all(grad.d1 == 0.0) and np.all(grad.d2 == 0.0)


@pytest.mark.parametrize("potential", ["regular", "logarithmic"])
def test_gradient_against_finite_differences(potential):
    pr = make_problem(potential=potential)
    rep = check_gradient_fd(pr, smooth_control(pr, amp=0.1), n_dirs=3, seed=1)
    assert rep.passed
    assert abs(rep.fitted_slope - 2.0) <= 0.2
    assert rep.details["worst_best_rel_error"] <= 1e-8


def test_pgd_lands_on_projected_origin():
    # pure control cost: the BB step is exactly 1/b0
    pr = make_problem(b0=2.0, b1=0.0, b2=0.0, tracking=False)
    box = BoxConstraints(lower1=-1.0, upper1=1.0, lower2=-1.0, upper2=1.0)
    res = projected_gradient(random_control(pr, seed=4), pr, box,
                             PgdOptions(tol=1e-12, max_iter=10))
    assert res.converged
    assert np.abs(res.control.u1).max() <= 1e-12
    assert np.abs(res.control.u2).max() <= 1e-12
    assert res.cost <= 1e-20


def test_pgd_respects_active_bounds():
    pr = make_problem(b0=1.0, b1=0.0, b2=0.0, tracking=False)
    box = BoxConstraints(lower1=0.1, upper1=0.5, lower2=-0.5, upper2=-0.2)
    u0 = Control(np.full((pr.n_levels, pr.grid.n), 0.4),
                 np.full((pr.n_levels, pr.grid.n), -0.4))
    res = projected_gradient(u0, pr, box, PgdOptions(tol=1e-12, max_iter=20))
    assert res.converged
    # minimum of |u|^2 over the box sits on the nearest bounds
    assert np.abs(res.control.u1 - 0.1).max() <= 1e-12
    assert np.abs(res.control.u2 + 0.2).max() <= 1e-12


def test_pgd_tracking_run_descends_and_stops_at_fixed_point():
    pr = make_problem(b0=1.0, b1=2.0, steps=8)
    box = BoxConstraints(lower1=-0.3, upper1=0.3, lower2=-0.3, upper2=0.3)
    res = projected_gradient(pr.zero_control(), pr, box,
                             PgdOptions(tol=1e-8, max_iter=60))
    assert res.converged
    costs = [row["cost"] for row in res.history]
    assert all(b <= a + 1e-14 for a, b in zip(costs, costs[1:]))
    assert res.stationarity <= 1e-8
    # pointwise characterization: u = proj(-d / b0)
    from tumoropt import project_admissible
    d = Control(res.gradient.d1, res.gradient.d2)
    fixed = project_admissible(Control(-d.u1, -d.u2), box)
    gap = max(np.abs(res.control.u1 - fixed.u1).max(),
              np.abs(res.control.u2 - fixed.u2).max())
    assert gap <= 1e-7
    assert stationarity_measure(res.control, pr, box) <= 1e-8


def test_pgd_history_schema():
    pr = make_problem(b1=0.0, b2=0.0, tracking=False)
    res = projected_gradient(random_control(pr), pr, unbounded_box(),
                             PgdOptions(tol=1e-10, max_iter=5))
    assert res.history[0]["iteration"] == 0
    for key in ("iteration", "cost", "stationarity", "step_size"):
        assert key in res.history[0]
    assert res.n_iter == len(res.history) - 1


# ---------------------------------------------------------------------------
# active sets and the critical cone


def _shape(pr):
    return (pr.n_levels, pr.grid.n)


def test_active_sets_empty_for_zero_gradient():
    pr = make_problem()
    z = np.zeros(_shape(pr))
    grad = GradientField(d1=z, d2=z, grad1=z, grad2=z)
    sets = strongly_active_sets(grad, 0.5)
    assert not sets.A1.any() and not sets.A2.any()
    assert default_tau(grad) == 0.0


def test_active_sets_threshold():
    pr = make_problem(steps=2, nodes=3)
    g1 = np.zeros(_shape(pr))
    g2 = np.zeros(_shape(pr))
    g1[1, 0] = 0.9
    g1[1, 1] = 0.1
    g2[2, 2] = -0.7
    grad = GradientField(d1=g1, d2=g2, grad1=g1, grad2=g2)
    sets = strongly_active_sets(grad, 0.5)
    assert sets.A1[1, 0] and not sets.A1[1, 1]
    assert sets.A2[2, 2]
    assert sets.A1.sum() == 1 and sets.A2.sum() == 1
    assert default_tau(grad) == pytest.approx(9e-4)
    with pytest.raises(ValueError):
        strongly_active_sets(grad, -1.0)


def test_cone_project_zeroes_and_clips():
    pr = make_problem(steps=2, nodes=3)
    shape = _shape(pr)
    box = BoxConstraints(lower1=-1.0, upper1=1.0, lower2=-1.0, upper2=1.0)
    ubar = Control(np.zeros(shape), np.zeros(shape))
    ubar.u1[0, 0] = -1.0  # sits on the lower bound
    ubar.u1[0, 1] = 1.0   # sits on the upper bound
    g = np.zeros(shape)
    g[1, 1] = 2.0  # strongly active point
    sets = strongly_active_sets(
        GradientField(d1=g, d2=g * 0, grad1=g, grad2=g * 0), 1.0)
    h = Control(np.full(shape, -0.5), np.full(shape, 0.5))
    v = cone_project(h, ubar, box, sets)
    assert v.u1[1, 1] == 0.0          # active point zeroed
    assert v.u1[0, 0] == 0.0          # lower bound: negative part clipped
    assert v.u1[0, 1] == -0.5         # upper bound: negative allowed
    assert v.u1[1, 0] == -0.5         # interior: untouched
    assert np.array_equal(v.u2, h.u2)


# ---------------------------------------------------------------------------
# curvature


def test_quadratic_form_symmetry():
    pr = make_problem()
    u = smooth_control(pr)
    ctx = SecondOrderContext(pr, u)
    h = random_control(pr, seed=1)
    k = random_control(pr, seed=2)
    bhk = ctx.form(h, k)
    bkh = ctx.form(k, h)
    assert bhk == pytest.approx(bkh, rel=1e-12)


def test_quadratic_form_decoupled_closed_form():
    # without reaction, chemotactic energy or cubic terms the reduced cost
    # is quadratic: B(h, h) = b0 |h|^2 + b1 |xi_h|^2
    pr = make_problem(coupling="none", b0=0.8, b1=2.0)
    u = random_control(pr, seed=3)
    ctx = SecondOrderContext(pr, u)
    h = random_control(pr, seed=4)
    lin = ctx.linearize(h)
    expected = (0.8 * control_inner(pr.grid, pr.tgrid, h, h)
                + 2.0 * st_inner(pr.grid, pr.tgrid, lin.xi, lin.xi))
    assert ctx.form(h, h) == pytest.approx(expected, rel=1e-12)


def test_quadratic_form_matches_bilinearized_route():
    pr = make_problem()
    u = smooth_control(pr)
    ctx = SecondOrderContext(pr, u)
    h = random_control(pr, seed=5)
    k = random_control(pr, seed=6)
    lh, lk = ctx.linearize(h), ctx.linearize(k)
    bil = solve_bilinearized(pr, ctx.state, u, lh, lk, h, k,
                             factors=ctx.factors)
    misfit = ctx.state.phi - pr.target_q()
    route2 = (pr.cost.b0 * control_inner(pr.grid, pr.tgrid, h, k)
              + pr.cost.b1 * (st_inner(pr.grid, pr.tgrid, lh.xi, lk.xi)
                              + st_inner(pr.grid, pr.tgrid, misfit, bil.xi)))
    assert ctx.form(h, k, lin_h=lh, lin_k=lk) == pytest.approx(
        route2, rel=1e-11)


def test_quadratic_form_against_cost_differences():
    pr = make_problem(steps=6, nodes=9)
    u = smooth_control(pr, amp=0.1)
    ctx = SecondOrderContext(pr, u)
    h = smooth_control(pr, amp=0.3)
    exact = ctx.form(h, h)

    def second_diff(eps):
        vals = []
        for s in (eps, 0.0, -eps):
            us = Control(u.u1 + s * h.u1, u.u2 + s * h.u2)
            vals.append(cost_eval(pr.solve(us), us, pr.cost, pr.grid,
                                  pr.tgrid))
        return (vals[0] - 2.0 * vals[1] + vals[2]) / eps**2

    fd = second_diff(1e-2)
    assert abs(fd - exact) / max(abs(exact), 1.0) <= 1e-5


def test_dense_hessian_small_problem():
    pr = make_problem(nodes=5, steps=3)
    u = smooth_control(pr, amp=0.1)
    ctx = SecondOrderContext(pr, u)
    hess = dense_hessian(u, pr, context=ctx)
    assert hess.shape == (40, 40)
    assert np.abs(hess - hess.T).max() <= 1e-12 * max(np.abs(hess).max(), 1.0)
    h = random_control(pr, seed=7)
    flat = np.concatenate([h.u1.ravel(), h.u2.ravel()])
    assert flat @ hess @ flat == pytest.approx(ctx.form(h, h), rel=1e-10)


def test_dense_hessian_decoupled_is_weighted_identity():
    pr = make_problem(nodes=5, steps=3, coupling="none", b0=1.3, b1=0.0,
                      tracking=False)
    u = pr.zero_control()
    hess = dense_hessian(u, pr)
    wt = pr.tgrid.weights()
    diag = np.kron(wt, pr.grid.weights)
    expected = 1.3 * np.diag(np.concatenate([diag, diag]))
    assert np.abs(hess - expected).max() <= 1e-14


def test_dense_hessian_size_guard():
    pr = make_problem(nodes=17, steps=12)
    with pytest.raises(ValueError, match="400"):
        dense_hessian(smooth_control(pr), pr)


# ---------------------------------------------------------------------------
# sampled coercivity certificate


def test_ssc_decoupled_rayleigh_equals_b0():
    pr = make_problem(coupling="none", b0=0.9, b1=0.0, tracking=False)
    rep = ssc_certificate(pr.zero_control(), tau=None, n_samples=8,
                          problem=pr, box=unbounded_box(), seed=0)
    assert rep.satisfied
    assert rep.sample_count == 8
    assert rep.min_rayleigh == pytest.approx(0.9, rel=1e-12)


def test_ssc_deterministic_under_seed():
    pr = make_problem(b1=2.0)
    u = smooth_control(pr, amp=0.1)
    box = BoxConstraints(lower1=-0.5, upper1=0.5, lower2=-0.5, upper2=0.5)
    ctx = SecondOrderContext(pr, u)
    a = ssc_certificate(u, None, 6, pr, box, seed=3, context=ctx)
    b = ssc_certificate(u, None, 6, pr, box, seed=3, context=ctx)
    assert a.min_rayleigh == b.min_rayleigh
    assert a.tau == b.tau and a.sample_count == b.sample_count
    c = ssc_certificate(u, None, 6, pr, box, seed=4, context=ctx)
    assert c.min_rayleigh != a.min_rayleigh


def test_ssc_positive_on_tracking_problem():
    pr = make_problem(b0=1.0, b1=2.0)
    u = smooth_control(pr, amp=0.05)
    box = BoxConstraints(lower1=-0.5, upper1=0.5, lower2=-0.5, upper2=0.5)
    rep = ssc_certificate(u, None, 16, pr, box, seed=0)
    assert rep.satisfied
    assert rep.min_rayleigh >= 0.9  # b0 = 1 dominates on this small problem


def test_ssc_trivial_cone_raises():
    pr = make_problem(b1=2.0)
    u = random_control(pr, seed=9, amp=0.2)
    with pytest.raises(ValueError, match="strongly active"):
        ssc_certificate(u, tau=0.0, n_samples=4, problem=pr,
                        box=unbounded_box(), seed=0)
    with pytest.raises(ValueError):
        ssc_certificate(u, tau=None, n_samples=0, problem=pr,
                        box=unbounded_box())


def test_second_order_context_rejects_final_tracking():
    pr = make_problem(b2=1.0)
    ctx = SecondOrderContext(pr, pr.zero_control())
    h = random_control(pr)
    with pytest.raises(ValueError, match="b2"):
        ctx.form(h, h)
    with pytest.raises(ValueError):
        quadratic_form(pr.zero_control(), random_control(pr),
                       random_control(pr), pr)


def test_quadratic_form_convenience_wrapper():
    pr = make_problem()
    u = smooth_control(pr)
    h = random_control(pr, seed=1)
    ctx = SecondOrderContext(pr, u)
    assert quadratic_form(u, h, h, pr) == pytest.approx(
        ctx.form(h, h), rel=1e-13)
