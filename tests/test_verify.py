"""The verification harness itself: oracles, slopes, and the gate."""

import dataclasses
import json
import os
import signal
import threading

import numpy as np
import pytest

from tumoropt import (ConfigError, Control, ControlProblem, CostSpec,
                      SolverError,
                      InitialData, ModelParams, SecondOrderContext,
                      StepFactors, Stepper, NonlinearitySpec, PotentialSpec,
                      ScalarShape, TimeGrid, build_grid, control_inner,
                      cost_eval, inner, reduced_gradient)
import tumoropt.optimize as optimize_module
import tumoropt.problem
import tumoropt.sensitivity as sensitivity_module
import tumoropt.verify as verify_module
from tumoropt.verify import (EPS_LADDER, STRONG_FORM_CUT, _batch_len,
                             _refine_nested,
                             _strong_form_levels, adjoint_continuous_residual,
                             check_duality, check_gradient_fd,
                             check_hessian_duality,
                             check_stability_ratios, check_taylor_orders,
                             fit_slope, make_slope_report, refine_control,
                             refine_problem, run_verification, THRESHOLDS)

from _support import (adjoint_residual_eliminated, assert_no_child_left,
                      force_tail_path, gradient_fd_per_control,
                      in_forked_child, make_problem, ode_reduction_reference,
                      time_limit,
                      quadratic_form_bilinear_route, random_control,
                      richardson_state_at_T, smooth_control,
                      stability_ratios_per_control, taylor_orders_per_control)


# ---------------------------------------------------------------------------
# slope fitting


def test_fit_slope_recovers_synthetic_order():
    eps = np.array([1e-1, 1e-2, 1e-3])
    assert fit_slope(eps, 5.0 * eps**2) == pytest.approx(2.0, abs=1e-12)
    assert fit_slope(eps, 0.3 * eps**3) == pytest.approx(3.0, abs=1e-12)


def test_fit_slope_skips_zero_entries():
    eps = np.array([1e-1, 1e-2, 1e-3])
    err = np.array([1e-2, 1e-4, 0.0])
    assert fit_slope(eps, err) == pytest.approx(2.0, abs=1e-12)
    assert np.isnan(fit_slope(eps, np.array([0.0, 0.0, 1e-6])))


def test_make_slope_report_pass_and_band():
    eps = np.array([1e-1, 1e-2, 1e-3])
    ok = make_slope_report(eps, eps**2, expected_slope=2.0, band=0.2)
    assert ok.passed and ok.fitted_slope == pytest.approx(2.0, abs=1e-12)
    bad = make_slope_report(eps, eps**1.0, expected_slope=2.0, band=0.2)
    assert not bad.passed


def test_make_slope_report_zero_errors_pass():
    eps = np.array([1e-1, 1e-2, 1e-3])
    rep = make_slope_report(eps, np.zeros(3), expected_slope=2.0, band=0.2)
    assert rep.passed
    assert rep.fitted_slope == 2.0
    assert "note" in rep.details


def test_make_slope_report_requires_decreasing_ladder():
    with pytest.raises(ValueError):
        make_slope_report([1e-1, 1e-2], [1.0, 0.1], 2.0, 0.2)
    with pytest.raises(ValueError):
        make_slope_report([1e-3, 1e-2, 1e-1], [1.0, 1.0, 1.0], 2.0, 0.2)


# ---------------------------------------------------------------------------
# Taylor and duality checks


def test_taylor_orders_on_coupled_problem():
    pr = make_problem()
    st, ds, cost = check_taylor_orders(
        SecondOrderContext(pr, smooth_control(pr, amp=0.1)), seed=2)
    assert st.passed and abs(st.fitted_slope - 2.0) <= 0.2
    assert ds.passed and abs(ds.fitted_slope - 2.0) <= 0.2
    assert cost.passed and abs(cost.fitted_slope - 3.0) <= 0.2


# final-time tracking problems: 1-D with either potential, and the same
# data extruded onto a square
FINAL_TRACKING_CASES = {"1d-regular": {"potential": "regular"},
                        "1d-logarithmic": {"potential": "logarithmic"},
                        "2d-extruded": {"ny": 5}}


@pytest.mark.parametrize("case", ["1d-regular", "2d-extruded"])
def test_taylor_orders_with_final_tracking(case):
    # the cubic cost remainder holds only if B(v, v) carries the b2 term
    pr = make_problem(b2=1.5, **FINAL_TRACKING_CASES[case])
    for rep, slope in zip(check_taylor_orders(
            SecondOrderContext(pr, smooth_control(pr, amp=0.1)), seed=2),
            (2.0, 2.0, 3.0)):
        assert rep.passed and abs(rep.fitted_slope - slope) <= 0.2


def test_taylor_zero_direction_is_exact():
    pr = make_problem()
    u = smooth_control(pr)
    z = pr.zero_control()
    st, ds, cost = check_taylor_orders(SecondOrderContext(pr, u), v=z, h=z)
    for rep in (st, ds, cost):
        assert rep.passed
        assert np.all(rep.error_values == 0.0)


def test_taylor_deterministic_given_directions():
    pr = make_problem(steps=4)
    u = smooth_control(pr)
    v = random_control(pr, seed=1)
    h = random_control(pr, seed=2)
    a = check_taylor_orders(SecondOrderContext(pr, u), v=v, h=h)
    b = check_taylor_orders(SecondOrderContext(pr, u), v=v, h=h)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.error_values, rb.error_values)


def test_taylor_orders_factor_once_at_ubar(monkeypatch):
    pr = make_problem(steps=4)
    u = smooth_control(pr)
    at = []
    init = StepFactors.__init__

    def counted(self, problem, state, ubar):
        at.append(ubar)
        init(self, problem, state, ubar)

    monkeypatch.setattr(StepFactors, "__init__", counted)
    check_taylor_orders(SecondOrderContext(pr, u))
    assert sum(ubar is u for ubar in at) == 1
    assert len(at) == 1 + len(EPS_LADDER)


def test_duality_zero_cost_is_exactly_zero():
    pr = make_problem(b1=0.0, b2=0.0, tracking=False)
    assert check_duality(SecondOrderContext(pr, smooth_control(pr))) == 0.0


@pytest.mark.parametrize("kwargs", [
    {}, {"b2": 1.0}, {"potential": "logarithmic"}, {"nodes": 9, "ny": 9}])
def test_hessian_duality_holds_to_round_off(kwargs):
    pr = make_problem(**kwargs)
    form_gap, symmetry_gap = check_hessian_duality(
        SecondOrderContext(pr, smooth_control(pr)))
    assert type(form_gap) is float and type(symmetry_gap) is float
    assert form_gap <= 1e-13 and symmetry_gap <= 1e-13
    assert THRESHOLDS["hessian_duality"] == 1e-10


def test_hessian_duality_draws_its_own_stream(monkeypatch):
    # the check draws from a fresh generator, so no other check's draws move
    pr = make_problem(steps=4)
    ctx = SecondOrderContext(pr, smooth_control(pr))
    seen = []
    product = SecondOrderContext.hessian_product

    def recorded(self, h):
        seen.append(h)
        return product(self, h)

    monkeypatch.setattr(SecondOrderContext, "hessian_product", recorded)
    check_hessian_duality(ctx, seed=3)
    rng = np.random.default_rng(3)
    want = [verify_module._random_direction(pr, rng) for _ in range(2)]
    (got,) = seen
    assert [d.v.tobytes() for d in got] == [d.v.tobytes() for d in want]


def test_hessian_duality_fails_a_perturbed_product(monkeypatch):
    pr = make_problem(steps=6)
    u = smooth_control(pr, amp=0.1)
    product = SecondOrderContext.hessian_product

    def scaled(self, h):
        return [Control(1.01 * p.v) for p in product(self, h)]

    monkeypatch.setattr(SecondOrderContext, "hessian_product", scaled)
    form_gap, symmetry_gap = check_hessian_duality(SecondOrderContext(pr, u))
    assert form_gap == pytest.approx(0.01, rel=1e-9)
    assert symmetry_gap <= 1e-13
    report = run_verification(pr, u, n_dirs=2, n_pairs=1)
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert failed == ["hessian_duality"] and not report["all_passed"]


# ---------------------------------------------------------------------------
# ODE reduction oracle


def test_scheme_limit_matches_adaptive_integrator():
    pr = make_problem(nodes=5, steps=32, potential="regular", alpha=1.2,
                      beta=0.9, chi=0.3)
    n = pr.grid.n
    pr = dataclasses.replace(
        pr, init=InitialData(np.full(n, 0.05), np.full(n, 0.2),
                             np.full(n, 0.1)))
    u1 = lambda t: 0.15 * np.cos(2.0 * t)
    u2 = lambda t: -0.1 + 0.05 * t
    ref = ode_reduction_reference(pr, u1, u2)
    extrapolated = richardson_state_at_T(pr, u1, u2)
    assert np.abs(extrapolated - ref).max() <= 1e-6


# ---------------------------------------------------------------------------
# nested refinement


def _linear_problem():
    pr = make_problem(nodes=9, steps=4)
    x = pr.grid.coordinates()[:, 0]
    init = InitialData(mu0=0.1 + 0.2 * x, phi0=0.3 * x - 0.1,
                       sigma0=0.05 * x)
    t = pr.tgrid.times[:, None]
    cost = CostSpec(b0=1.0, b1=2.0,
                    target_Q=(0.1 + 0.2 * x[None, :]) * (1.0 + t))
    return dataclasses.replace(pr, init=init, cost=cost)


def test_refine_problem_doubles_resolution():
    pr = _linear_problem()
    fine = refine_problem(pr)
    assert fine.grid.shape == (17,)
    assert fine.tgrid.steps == 8
    assert fine.tgrid.t_final == pr.tgrid.t_final


def test_refine_is_exact_on_linear_fields():
    pr = _linear_problem()
    fine = refine_problem(pr)
    xf = fine.grid.coordinates()[:, 0]
    assert np.abs(fine.init.mu0 - (0.1 + 0.2 * xf)).max() < 1e-14
    assert np.abs(fine.init.phi0 - (0.3 * xf - 0.1)).max() < 1e-14
    tf = fine.tgrid.times[:, None]
    expected_q = (0.1 + 0.2 * xf[None, :]) * (1.0 + tf)
    assert np.abs(fine.cost.target_Q - expected_q).max() < 1e-14


def test_refine_control_is_exact_on_bilinear_data():
    pr = _linear_problem()
    fine = refine_problem(pr)
    x = pr.grid.coordinates()[:, 0][None, :]
    t = pr.tgrid.times[:, None]
    u = Control([(1.0 + t) * (0.2 + x), (2.0 - t) * (0.1 - 0.3 * x)])
    uf = refine_control(u, pr)
    xf = fine.grid.coordinates()[:, 0][None, :]
    tf = fine.tgrid.times[:, None]
    assert np.abs(uf.u1 - (1.0 + tf) * (0.2 + xf)).max() < 1e-14
    assert np.abs(uf.u2 - (2.0 - tf) * (0.1 - 0.3 * xf)).max() < 1e-14


def test_refine_problem_2d():
    grid = build_grid(2, [5, 7], [1.0, 2.0])
    xy = grid.coordinates()
    lin = 0.3 * xy[:, 0] + 0.1 * xy[:, 1]
    pr = ControlProblem(
        grid=grid, tgrid=TimeGrid(2, 0.2),
        params=ModelParams(alpha=1.0, beta=1.0, chi=0.0),
        potential=PotentialSpec("regular"),
        nonlin=NonlinearitySpec(ScalarShape("constant", value=0.0),
                                ScalarShape("constant", value=0.0)),
        cost=CostSpec(b0=1.0), init=InitialData(lin, lin.copy(), lin.copy()))
    fine = refine_problem(pr)
    assert fine.grid.shape == (9, 13)
    xyf = fine.grid.coordinates()
    expected = 0.3 * xyf[:, 0] + 0.1 * xyf[:, 1]
    assert np.abs(fine.init.phi0 - expected).max() < 1e-14


def _interp_1d(values, m):
    return np.interp(np.linspace(0.0, 1.0, m),
                     np.linspace(0.0, 1.0, values.size), values)


def _interp_refinement(values, shape, tgrid):
    """Nested refinement by the np.interp loops it replaced: x, y, then t."""
    fine = [2 * m - 1 for m in shape]

    def space(v):
        if len(shape) == 1:
            return _interp_1d(v, fine[0])
        a = v.reshape(shape)
        mid_x = np.empty((fine[0], shape[1]))
        for j in range(shape[1]):
            mid_x[:, j] = _interp_1d(a[:, j], fine[0])
        out = np.empty(fine)
        for i in range(fine[0]):
            out[i, :] = _interp_1d(mid_x[i, :], fine[1])
        return out.ravel()

    if tgrid is None:
        return space(values)
    spatial = np.stack([space(v) for v in values])
    t_new = TimeGrid(2 * tgrid.steps, tgrid.t_final).times
    out = np.empty((t_new.size, spatial.shape[1]))
    for i in range(spatial.shape[1]):
        out[:, i] = np.interp(t_new, tgrid.times, spatial[:, i])
    return out


def _cell_max(values, shape, lead):
    """Per fine node, the largest |value| over the coarse nodes of its cell."""
    a = np.abs(values).reshape(values.shape[:lead] + tuple(shape))
    for axis in range(a.ndim):
        a = np.moveaxis(a, axis, 0)
        fine = np.empty((2 * a.shape[0] - 1,) + a.shape[1:])
        fine[0::2] = a
        fine[1::2] = np.maximum(a[:-1], a[1:])
        a = np.moveaxis(fine, 0, axis)
    return a.reshape(a.shape[:lead] + (-1,))


# Node counts 2^k + 1 and a dyadic time step keep np.interp's sample points
# exactly on the midpoints, so the reference differs from the average by the
# rounding of its own formula only; off such grids the rounding of its sample
# points alone moves it by a few eps more.
@pytest.mark.parametrize("shape,space_time", [
    ((17,), False), ((9, 5), False), ((17,), True), ((9, 5), True)])
def test_refinement_matches_interp_reference(shape, space_time, rng):
    tgrid = TimeGrid(8, 0.5) if space_time else None
    lead = (tgrid.steps + 1,) if space_time else ()
    values = rng.standard_normal(lead + (int(np.prod(shape)),))
    new = _refine_nested(values, shape)
    old = _interp_refinement(values, shape, tgrid)
    assert new.shape == old.shape

    def coarse_nodes(fine):
        a = fine.reshape(tuple(2 * m - 1 for m in lead + shape))
        return a[(slice(None, None, 2),) * a.ndim].reshape(values.shape)

    assert np.array_equal(coarse_nodes(new), values)
    assert np.array_equal(coarse_nodes(old), values)
    bound = 2.0 * np.finfo(float).eps * _cell_max(values, shape, len(lead))
    assert np.all(np.abs(old - new) <= bound)


# ---------------------------------------------------------------------------
# stability ratios


def test_stability_ratios_pass_on_smooth_problem():
    rep = check_stability_ratios(make_problem(steps=6), n_pairs=2, seed=0)
    assert rep.passed
    assert rep.max_change_factor < THRESHOLDS["stability_factor"]
    assert rep.homogeneity_error < THRESHOLDS["homogeneity"]
    for key in ("state", "ds", "d2s"):
        assert rep.base_ratios[key] > 0.0
        assert np.isfinite(rep.refined_ratios[key])


# ---------------------------------------------------------------------------
# curvature cross-route


def test_bilinear_route_matches_adjoint_route():
    pr = make_problem()
    u = smooth_control(pr)
    h = random_control(pr, seed=1)
    k = random_control(pr, seed=2)
    a = SecondOrderContext(pr, u).form(h, k)
    b = quadratic_form_bilinear_route(SecondOrderContext(pr, u), h, k)
    assert a == pytest.approx(b, rel=1e-11)


def test_bilinear_route_supports_final_tracking():
    pr = make_problem(b1=1.0, b2=0.5, steps=6, nodes=9)
    u = smooth_control(pr, amp=0.1)
    h = smooth_control(pr, amp=0.3)
    ctx = SecondOrderContext(pr, u)
    exact = quadratic_form_bilinear_route(ctx, h, h)
    assert ctx.form(h, h) == pytest.approx(exact, rel=1e-12)

    def jval(s):
        us = Control(u.v + s * h.v)
        return cost_eval(pr, pr.solve(us), us)

    eps = 1e-2
    fd = (jval(eps) - 2.0 * jval(0.0) + jval(-eps)) / eps**2
    assert abs(fd - exact) / max(abs(exact), 1.0) <= 1e-4


# central differences of the gradient at step 1e-3 miss the form by about
# 1e-12 relative (truncation and round-off); the terminal term is 0.2-3 %
FORM_FD_EPS, FORM_FD_BOUND = 1e-3, 1e-8


@pytest.mark.parametrize("case", FINAL_TRACKING_CASES)
def test_form_with_final_tracking_is_the_gradient_derivative(case):
    pr = make_problem(b2=1.5, **FINAL_TRACKING_CASES[case])
    u = smooth_control(pr, amp=0.1)
    h, k = smooth_control(pr, amp=0.3), random_control(pr, seed=2)
    ctx = SecondOrderContext(pr, u)
    lin_h, lin_k = ctx.linearize([h, k])
    form = ctx.form(h, k, lin_h=lin_h, lin_k=lin_k)
    assert form == pytest.approx(quadratic_form_bilinear_route(ctx, h, k),
                                 rel=1e-12, abs=0.0)

    def slope(t):
        grad = reduced_gradient(Control(u.v + t * h.v), pr)
        return control_inner(pr.grid, pr.tgrid, grad.grad, k)

    fd = (slope(FORM_FD_EPS) - slope(-FORM_FD_EPS)) / (2.0 * FORM_FD_EPS)
    assert abs(fd - form) <= FORM_FD_BOUND * abs(form)
    # the b2 term is far above the bound, so a form without it fails here
    terminal = pr.cost.b2 * inner(pr.grid, lin_h.xi[-1], lin_k.xi[-1])
    assert abs(terminal) > 1e3 * FORM_FD_BOUND * abs(form)


# ---------------------------------------------------------------------------
# strong-form adjoint residual


def test_adjoint_residual_zero_cost():
    pr = make_problem(b1=0.0, b2=0.0, tracking=False)
    ctx = SecondOrderContext(pr, smooth_control(pr))
    assert adjoint_continuous_residual(ctx).aggregate == 0.0


def test_adjoint_residual_rejects_bad_arguments():
    pr = make_problem()
    ctx = SecondOrderContext(pr, smooth_control(pr))
    with pytest.raises(ValueError, match="cut"):
        adjoint_continuous_residual(ctx, cut=0.5)
    with pytest.raises(ValueError, match="window"):
        adjoint_continuous_residual(ctx, cut=0.49)


def test_adjoint_residual_window_selection():
    pr = make_problem(steps=8)
    rep = adjoint_continuous_residual(
        SecondOrderContext(pr, smooth_control(pr)), cut=0.4)
    t_mid = 0.5 * (pr.tgrid.times[:-1] + pr.tgrid.times[1:])
    assert np.all(t_mid[rep.levels] >= 0.4 * pr.tgrid.t_final)
    assert np.all(t_mid[rep.levels] <= 0.6 * pr.tgrid.t_final)


def test_adjoint_residual_forms_agree_to_leading_order():
    pr = make_problem(steps=32)
    ctx = SecondOrderContext(pr, smooth_control(pr))
    primal = adjoint_continuous_residual(ctx)
    elim = adjoint_residual_eliminated(ctx)
    gap = abs(primal.aggregate - elim.aggregate)
    assert gap <= 0.1 * max(primal.aggregate, elim.aggregate)


def test_adjoint_residual_shrinks_under_refinement():
    # with final-time tracking too: its source enters the adjoint at T
    # alone, outside the window
    for b2 in (0.0, 1.0):
        base = make_problem(steps=16, t_final=0.5, b2=b2)
        u = smooth_control(base)
        aggregates = []
        pr, uc = base, u
        for _ in range(3):
            aggregates.append(adjoint_continuous_residual(
                SecondOrderContext(pr, uc)).aggregate)
            fine = refine_problem(pr)
            uc = refine_control(uc, pr)
            pr = fine
        order = np.log2(aggregates[1] / aggregates[2])
        assert order >= THRESHOLDS["adjoint_residual_order"], b2
        assert aggregates[0] > aggregates[2], b2


def _strong_form_by_level(context, form, cut=STRONG_FORM_CUT):
    """The strong-form residual norms by the per-level loop it replaced."""
    problem, ubar = context.problem, context.ubar
    levels = _strong_form_levels(problem.tgrid, cut)
    state, adj = context.state, context.adjoint
    pr = problem.params
    grid, dt, lap = problem.grid, problem.tgrid.dt, problem.grid.lap
    target = problem.target_q()
    eqs = np.zeros((3, levels.size))

    def fields_at(k):
        pv, dpm, hpu, f2 = problem.stepper.reaction_terms(state.x[k],
                                                          ubar.u1[k])
        return {"p": adj.p[k], "q": adj.q[k], "r": adj.r[k], "P": pv,
                "dP": dpm, "dh_u": hpu, "f2": f2,
                "mis": state.phi[k] - target[k]}

    for i, k in enumerate(levels):
        a, b = fields_at(k), fields_at(k + 1)

        def avg(key):
            return 0.5 * (a[key] + b[key])

        dtp = (b["p"] - a["p"]) / dt
        dtq = (b["q"] - a["q"]) / dt
        dtr = (b["r"] - a["r"]) / dt
        p_bar, q_bar, r_bar = avg("p"), avg("q"), avg("r")
        react = 0.5 * (a["P"] * (a["p"] - a["r"]) + b["P"] * (b["p"] - b["r"]))
        hu_p = 0.5 * (a["dh_u"] * a["p"] + b["dh_u"] * b["p"])
        dpm = 0.5 * (a["dP"] * (a["p"] - a["r"]) + b["dP"] * (b["p"] - b["r"]))
        f2q = 0.5 * (a["f2"] * a["q"] + b["f2"] * b["q"])
        src = problem.cost.b1 * avg("mis")
        if form == "primal":
            res1 = (-dtp - pr.beta * dtq - lap @ q_bar + pr.chi * (lap @ r_bar)
                    + f2q + hu_p - dpm + pr.chi * react - src)
        else:
            res1 = (-dtp - pr.beta * dtq - pr.chi * dtr - lap @ q_bar
                    + f2q - pr.chi * pr.chi * q_bar + hu_p - dpm - src)
        res2 = -pr.alpha * dtp - lap @ p_bar - q_bar + react
        res3 = -dtr - lap @ r_bar - pr.chi * q_bar - react
        eqs[:, i] = [np.sqrt(inner(grid, res, res))
                     for res in (res1, res2, res3)]
    return levels, eqs, float(np.sqrt(dt * np.sum(eqs**2)))


def _tracking_problem_2d():
    grid = build_grid(2, [9, 7], [1.0, 0.8])
    xy = grid.coordinates()
    tgrid = TimeGrid(steps=8, t_final=0.4)
    target = 0.3 * np.cos(np.pi * xy[:, 0]) * np.cos(np.pi * xy[:, 1] / 0.8)
    return ControlProblem(
        grid=grid, tgrid=tgrid,
        params=ModelParams(alpha=1.0, beta=0.8, chi=0.3),
        potential=PotentialSpec("logarithmic"),
        nonlin=NonlinearitySpec(
            ScalarShape("bump", scale=0.5, center=0.0, width=1.0),
            ScalarShape("ramp")),
        cost=CostSpec(b0=1.0, b1=2.0, target_Q=np.tile(target, (9, 1))),
        init=InitialData(mu0=0.05 * np.cos(np.pi * xy[:, 0]),
                         phi0=0.2 * np.cos(np.pi * xy[:, 0]),
                         sigma0=np.full(grid.n, 0.1)))


@pytest.mark.parametrize("form", ["primal", "eliminated"])
@pytest.mark.parametrize("dim", [1, 2])
def test_adjoint_residual_matches_per_level_loop(dim, form):
    if dim == 1:
        pr = make_problem(steps=20, potential="logarithmic")
        u = smooth_control(pr, amp=0.3)
    else:
        pr = _tracking_problem_2d()
        u = random_control(pr, seed=5)
    ctx = SecondOrderContext(pr, u)
    rep = (adjoint_continuous_residual(ctx) if form == "primal"
           else adjoint_residual_eliminated(ctx))
    levels, eqs, aggregate = _strong_form_by_level(ctx, form)
    assert np.array_equal(rep.levels, levels)
    assert np.all(eqs > 0.0)
    for got, want in zip((rep.eq1, rep.eq2, rep.eq3), eqs):
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    assert rep.aggregate == pytest.approx(aggregate, rel=1e-14, abs=0.0)


# ---------------------------------------------------------------------------
# the aggregated gate


def test_run_verification_all_pass():
    pr = make_problem(steps=6)
    report = run_verification(pr, smooth_control(pr, amp=0.1), seed=0,
                              n_dirs=2, n_pairs=1)
    names = [c["name"] for c in report["checks"]]
    assert names == ["mass_identity", "duality", "hessian_duality",
                     "gradient_fd",
                     "taylor_state", "taylor_ds_increment", "taylor_cost",
                     "stability_ratios", "adjoint_strong_form"]
    for check in report["checks"]:
        assert check["passed"], (check["name"], check["metrics"])
        assert set(check) == {"name", "description", "metrics", "passed"}
    assert report["all_passed"]


def test_run_verification_on_zero_data_passes_the_strong_form():
    # with no tracking the adjoint is zero at every resolution, so the
    # strong-form residual has no order to fit
    pr = make_problem(nodes=9, steps=6, b1=0.0, b2=0.0, tracking=False)
    report = run_verification(pr, pr.zero_control(), seed=0, n_dirs=1,
                              n_pairs=1)
    strong = report["checks"][-1]
    assert strong["name"] == "adjoint_strong_form"
    assert strong["metrics"] == {"aggregates": [0.0, 0.0, 0.0],
                                 "order": np.inf}
    assert strong["passed"]


def test_run_verification_builds_one_stepper_per_problem(monkeypatch):
    pr = make_problem(nodes=9, steps=4)
    problems, steppers = [pr], []
    post_init = ControlProblem.__post_init__
    stepper_init = Stepper.__init__

    def count_problem(self):
        post_init(self)
        problems.append(self)

    def count_stepper(self, *args, **kwargs):
        stepper_init(self, *args, **kwargs)
        steppers.append(self)

    monkeypatch.setattr(ControlProblem, "__post_init__", count_problem)
    monkeypatch.setattr(Stepper, "__init__", count_stepper)
    # a forked tail would build its refined problems where this count
    # cannot see them
    force_tail_path(monkeypatch, fork=False)
    run_verification(pr, smooth_control(pr, amp=0.1), n_dirs=1, n_pairs=1)
    assert len(steppers) <= len(problems) <= 4


def test_run_verification_solves_and_factors_once_at_ubar(monkeypatch):
    import tumoropt.problem
    pr = make_problem(nodes=9, steps=6)
    u = smooth_control(pr, amp=0.1)
    solves, lus = [], []
    solve_state = tumoropt.problem.solve_state
    lu = StepFactors.lu

    def count_solve(problem, control):
        solves.append((problem, control))
        return solve_state(problem, control)

    def count_lu(self, k):
        if self.ubar is u and k not in self._lus:
            lus.append(k)
        return lu(self, k)

    monkeypatch.setattr(tumoropt.problem, "solve_state", count_solve)
    monkeypatch.setattr(StepFactors, "lu", count_lu)
    # the counts are of one process: the whole battery runs in this one
    force_tail_path(monkeypatch, fork=False)
    run_verification(pr, u, n_dirs=1, n_pairs=1)
    assert sum(p is pr and c is u for p, c in solves) == 1
    # one factor pass: each step operator at ubar factored exactly once
    assert sorted(lus) == list(range(1, pr.n_levels))


def test_forked_tail_solves_and_factors_nothing_at_ubar(monkeypatch):
    # the child reads the state, factors and adjoint at ubar from the
    # context it inherited: any solve or factor request there fails it
    pr = make_problem(nodes=9, steps=6)
    u = smooth_control(pr, amp=0.1)
    parent = os.getpid()
    solve_state = tumoropt.problem.solve_state
    lu = StepFactors.lu

    def parent_solve(problem, control):
        if os.getpid() != parent and problem is pr and control is u:
            raise AssertionError("the child solved the state at ubar")
        return solve_state(problem, control)

    def parent_lu(self, k):
        if os.getpid() != parent and self.ubar is u:
            raise AssertionError(f"the child asked for step {k}'s factor "
                                 "at ubar")
        return lu(self, k)

    monkeypatch.setattr(tumoropt.problem, "solve_state", parent_solve)
    monkeypatch.setattr(StepFactors, "lu", parent_lu)
    forks = force_tail_path(monkeypatch, fork=True)
    assert run_verification(pr, u, n_dirs=1, n_pairs=1)["all_passed"]
    assert len(forks) == 1
    assert_no_child_left()


def _report_bytes(pr, u) -> bytes:
    """The report as JSON: floats written exactly, in the report's order."""
    return json.dumps(run_verification(pr, u, n_dirs=1, n_pairs=1)).encode()


def test_forked_and_inline_tails_give_the_same_report(monkeypatch):
    pr = make_problem(nodes=9, steps=6)
    u = smooth_control(pr, amp=0.1)
    forks = force_tail_path(monkeypatch, fork=True)
    forked = _report_bytes(pr, u)
    assert len(forks) == 1
    assert_no_child_left()
    force_tail_path(monkeypatch, fork=False)
    assert _report_bytes(pr, u) == forked


def test_tail_runs_inline_when_no_process_can_be_forked(monkeypatch):
    pr = make_problem(nodes=9, steps=6)
    u = smooth_control(pr, amp=0.1)
    force_tail_path(monkeypatch, fork=False)
    inline = _report_bytes(pr, u)
    opened = set(os.listdir("/proc/self/fd"))

    def no_fork():
        raise BlockingIOError("Resource temporarily unavailable")

    monkeypatch.setattr(verify_module, "_may_fork", lambda: True)
    monkeypatch.setattr(os, "fork", no_fork)
    assert _report_bytes(pr, u) == inline
    assert set(os.listdir("/proc/self/fd")) == opened   # the pipe closed


def test_2d_verification_beside_the_lu_pool_runs_inline(monkeypatch):
    pr = make_problem(nodes=5, steps=4, ny=5)
    u = smooth_control(pr, amp=0.1)
    with monkeypatch.context() as inline_only:
        force_tail_path(inline_only, fork=False)
        inline = _report_bytes(pr, u)
    # the pool's threads are alive on two CPUs; a child forked beside them
    # would wait on workers it lacks, so any fork fails the test
    pool = sensitivity_module._factor_pool()
    assert (pool is None) == (sensitivity_module.usable_cpus() < 2)
    assert pool is None or threading.active_count() > 1

    def refused():
        raise AssertionError("forked beside the LU pool")

    monkeypatch.setattr(os, "fork", refused)
    assert _report_bytes(pr, u) == inline


def test_error_in_the_forked_tail_is_raised_again(monkeypatch):
    pr = make_problem(nodes=9, steps=6)
    u = smooth_control(pr, amp=0.1)

    def fail():
        raise SolverError("step 2: stand-in failure")

    monkeypatch.setattr(verify_module, "check_stability_ratios",
                        in_forked_child(os.getpid(), fail))
    forks = force_tail_path(monkeypatch, fork=True)
    with time_limit(60), pytest.raises(SolverError,
                                       match="^step 2: stand-in failure$"):
        run_verification(pr, u, n_dirs=1, n_pairs=1)
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("child_failed", [True, False])
def test_parent_error_wins_over_the_forked_tail(monkeypatch, child_failed):
    # the child has failed and exited, its error waiting in the pipe, or
    # still runs when the parent's half fails
    pr = make_problem(nodes=9, steps=6)
    u = smooth_control(pr, amp=0.1)
    forks = force_tail_path(monkeypatch, fork=True)

    def child():
        if child_failed:
            raise SolverError("the child's half failed")
        signal.pause()      # until the parent kills it

    def parent_fails(*args, **kwargs):
        if child_failed:
            os.waitid(os.P_PID, forks[0], os.WEXITED | os.WNOWAIT)
        raise SolverError("the parent's half failed")

    monkeypatch.setattr(verify_module, "check_stability_ratios",
                        in_forked_child(os.getpid(), child))
    monkeypatch.setattr(verify_module, "check_gradient_fd", parent_fails)
    with time_limit(60), pytest.raises(SolverError,
                                       match="^the parent's half failed$"):
        run_verification(pr, u, n_dirs=1, n_pairs=1)
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("death, named", [
    (lambda: os._exit(7), "exited with status 7"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by SIGKILL"),
])
def test_forked_tail_that_dies_without_a_result_is_solver_error(
        monkeypatch, death, named):
    pr = make_problem(nodes=9, steps=6)
    u = smooth_control(pr, amp=0.1)
    monkeypatch.setattr(verify_module, "check_stability_ratios",
                        in_forked_child(os.getpid(), death))
    forks = force_tail_path(monkeypatch, fork=True)
    with time_limit(60), pytest.raises(
            SolverError, match=f"strong-form checks {named} without a "
                               "result$"):
        run_verification(pr, u, n_dirs=1, n_pairs=1)
    assert len(forks) == 1
    assert_no_child_left()


def _assert_same_slope_report(got, want):
    for name in ("eps_values", "error_values", "fitted_slope",
                 "expected_slope"):
        assert (np.asarray(getattr(got, name)).tobytes()
                == np.asarray(getattr(want, name)).tobytes()), name
    assert got.passed == want.passed
    assert got.details == want.details


@pytest.mark.parametrize("directions", [None, 1, 3])
def test_batched_checks_are_bitwise_the_per_control_loops(monkeypatch,
                                                          directions):
    pr = make_problem(nodes=9, steps=6, potential="logarithmic")
    ctx = SecondOrderContext(pr, smooth_control(pr, amp=0.1))
    if directions is not None:
        # batches of 1, or of 3 with a shorter last one: 36 FD controls, 5
        # Taylor ones and 4 stability ones at the base resolution
        monkeypatch.setattr(optimize_module, "_BLOCK_BYTES",
                            directions * 24 * pr.n_levels * pr.grid.n)
    fd = check_gradient_fd(ctx, n_dirs=2, seed=1)
    assert fd.details["best_rel_error_per_dir"]
    _assert_same_slope_report(fd, gradient_fd_per_control(ctx, n_dirs=2,
                                                          seed=1))
    for got, want in zip(check_taylor_orders(ctx, seed=2),
                         taylor_orders_per_control(ctx, seed=2)):
        _assert_same_slope_report(got, want)
    got = check_stability_ratios(pr, n_pairs=2, seed=3)
    want = stability_ratios_per_control(pr, n_pairs=2, seed=3)
    assert vars(got) == vars(want)


def test_2d_batches_count_the_lu_each_control_carries(monkeypatch):
    # a 2-D march carries a SuperLU factor beside its history (here about
    # 8.5 times its size), so a batch within room for 30 histories takes 3
    pr = make_problem(nodes=9, ny=9, steps=6)
    ctx = SecondOrderContext(pr, smooth_control(pr, amp=0.1))
    history = 24 * pr.n_levels * pr.grid.n
    monkeypatch.setattr(optimize_module, "_BLOCK_BYTES", 30 * history)
    batches, solve_states = [], verify_module.solve_states
    monkeypatch.setattr(verify_module, "solve_states", lambda problem, batch:
                        batches.append(len(batch)) or solve_states(problem,
                                                                   batch))
    report = check_gradient_fd(ctx, n_dirs=1, seed=1)
    lu_bytes = 12 * max(ctx.factors.lu(k).nnz for k in range(1, pr.n_levels))
    assert max(batches) == 3
    assert 3 * (history + lu_bytes) <= 30 * history
    _assert_same_slope_report(report,
                              gradient_fd_per_control(ctx, n_dirs=1, seed=1))
    # a 1-D march carries no factor between steps
    pr = make_problem(nodes=9, steps=6)
    assert _batch_len(pr) == 30 * history // (24 * pr.n_levels * pr.grid.n)


def test_checks_solve_no_control_on_its_own(monkeypatch):
    pr = make_problem(nodes=9, steps=6)
    ctx = SecondOrderContext(pr, smooth_control(pr, amp=0.1))
    solves = []
    solve_state = tumoropt.problem.solve_state

    def count_solve(problem, control):
        solves.append(problem)
        return solve_state(problem, control)

    monkeypatch.setattr(tumoropt.problem, "solve_state", count_solve)
    check_gradient_fd(ctx, n_dirs=2)
    check_taylor_orders(ctx)
    # the homogeneity check runs on the context of the first base pair
    check_stability_ratios(pr, n_pairs=2)
    assert solves == []


def test_the_checks_gate_on_thresholds(monkeypatch):
    pr = make_problem(nodes=9, steps=6)
    ctx = SecondOrderContext(pr, smooth_control(pr, amp=0.1))
    assert check_gradient_fd(ctx, n_dirs=2).passed
    assert all(rep.passed for rep in check_taylor_orders(ctx))
    assert check_stability_ratios(pr, n_pairs=1).passed
    with monkeypatch.context() as patch:
        # the fitted slopes miss theirs by about 1e-5 to 3e-3
        patch.setitem(THRESHOLDS, "slope_band", 1e-9)
        assert not check_gradient_fd(ctx, n_dirs=2).passed
        assert not any(rep.passed for rep in check_taylor_orders(ctx))
    for name, value in (("stability_factor", 1.0), ("homogeneity", 0.0)):
        with monkeypatch.context() as patch:
            patch.setitem(THRESHOLDS, name, value)
            assert not check_stability_ratios(pr, n_pairs=1).passed, name


@pytest.mark.parametrize("b2", [0.0, 0.5])
def test_run_verification_rejects_a_narrow_window_before_any_solve(
        monkeypatch, b2):
    pr = make_problem(steps=2, b2=b2)
    monkeypatch.setattr(ControlProblem, "solve",
                        lambda *args: pytest.fail("solved a state"))
    with pytest.raises(ConfigError, match="time.steps = 2"):
        run_verification(pr, pr.zero_control())


def test_run_verification_rejects_three_steps_before_any_solve(monkeypatch):
    # the one pair left at 3 steps is (1, 2); (2, 3) ends at level N_t
    pr = make_problem(steps=3, b2=0.5)
    monkeypatch.setattr(ControlProblem, "solve",
                        lambda *args: pytest.fail("solved a state"))
    with pytest.raises(ConfigError, match="time.steps = 3"):
        run_verification(pr, pr.zero_control())


@pytest.mark.parametrize("b2", [0.0, 1.0])
@pytest.mark.parametrize("steps", [4, 5])
def test_strong_form_window_leaves_out_the_terminal_level(steps, b2):
    pr = make_problem(steps=steps, b2=b2)
    levels = _strong_form_levels(pr.tgrid, STRONG_FORM_CUT)
    assert list(levels) == list(range(1, steps - 1))
    ctx = SecondOrderContext(pr, smooth_control(pr))
    before = adjoint_continuous_residual(ctx)
    # level N_t, with its half-weight misfit and final-time source, is
    # never read: changing its multiplier and state leaves the residual
    ctx.adjoint.lam[-1] += 1.0
    ctx.state.x[-1] += 0.1
    after = adjoint_continuous_residual(ctx)
    assert after.aggregate == before.aggregate
    for name in ("eq1", "eq2", "eq3"):
        assert np.array_equal(getattr(after, name), getattr(before, name))


def test_run_verification_runs_strong_form_with_final_tracking():
    # the strong-form order is pre-asymptotic below about 12 steps, with
    # b2 = 0 too (0.74 at 8 steps); from 12 on it sits near 1
    pr = make_problem(b1=1.0, b2=0.5, steps=12)
    report = run_verification(pr, smooth_control(pr, amp=0.1), seed=0,
                              n_dirs=2, n_pairs=1)
    strong = [c for c in report["checks"] if c["name"] == "adjoint_strong_form"]
    assert len(strong) == 1 and strong[0]["passed"]
    assert (strong[0]["metrics"]["order"]
            >= THRESHOLDS["adjoint_residual_order"])
    assert len(strong[0]["metrics"]["aggregates"]) == 3
    assert report["all_passed"]
