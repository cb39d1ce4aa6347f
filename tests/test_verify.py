"""The verification harness itself: oracles, slopes, and the gate."""

import dataclasses

import numpy as np
import pytest

from tumoropt import (Control, ControlProblem, CostSpec, InitialData,
                      StepFactors, Stepper, TimeGrid, quadratic_form)
from tumoropt.verify import (EPS_LADDER, _refine_nested,
                             adjoint_continuous_residual,
                             check_duality,
                             check_stability_ratios, check_taylor_orders,
                             fit_slope, make_slope_report,
                             ode_reduction_reference,
                             quadratic_form_bilinear_route, refine_control,
                             refine_problem, richardson_state_at_T,
                             run_verification, THRESHOLDS)

from _support import make_problem, random_control, smooth_control


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
    st, ds, cost = check_taylor_orders(pr, smooth_control(pr, amp=0.1), seed=2)
    assert st.passed and abs(st.fitted_slope - 2.0) <= 0.2
    assert ds.passed and abs(ds.fitted_slope - 2.0) <= 0.2
    assert cost.passed and abs(cost.fitted_slope - 3.0) <= 0.2


def test_taylor_zero_direction_is_exact():
    pr = make_problem()
    u = smooth_control(pr)
    z = pr.zero_control()
    st, ds, cost = check_taylor_orders(pr, u, v=z, h=z)
    for rep in (st, ds, cost):
        assert rep.passed
        assert np.all(rep.error_values == 0.0)


def test_taylor_deterministic_given_directions():
    pr = make_problem(steps=4)
    u = smooth_control(pr)
    v = random_control(pr, seed=1)
    h = random_control(pr, seed=2)
    a = check_taylor_orders(pr, u, v=v, h=h)
    b = check_taylor_orders(pr, u, v=v, h=h)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.error_values, rb.error_values)


def test_taylor_orders_factor_once_at_ubar(monkeypatch):
    pr = make_problem(steps=4)
    u = smooth_control(pr)
    at = []
    init = StepFactors.__init__

    def counted(self, problem, state, ubar, lam1=1):
        at.append(ubar)
        init(self, problem, state, ubar, lam1)

    monkeypatch.setattr(StepFactors, "__init__", counted)
    check_taylor_orders(pr, u)
    assert sum(ubar is u for ubar in at) == 1
    assert len(at) == 1 + len(EPS_LADDER)


def test_duality_zero_cost_is_exactly_zero():
    pr = make_problem(b1=0.0, b2=0.0, tracking=False)
    assert check_duality(pr, smooth_control(pr)) == 0.0


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
    u = Control((1.0 + t) * (0.2 + x), (2.0 - t) * (0.1 - 0.3 * x))
    uf = refine_control(u, pr)
    xf = fine.grid.coordinates()[:, 0][None, :]
    tf = fine.tgrid.times[:, None]
    assert np.abs(uf.u1 - (1.0 + tf) * (0.2 + xf)).max() < 1e-14
    assert np.abs(uf.u2 - (2.0 - tf) * (0.1 - 0.3 * xf)).max() < 1e-14


def test_refine_problem_2d():
    from tumoropt import ModelParams, TimeGrid, build_grid, make_nonlinearity
    from tumoropt import constant_shape, regular_potential
    from tumoropt.problem import ControlProblem
    grid = build_grid(2, [5, 7], [1.0, 2.0])
    xy = grid.coordinates()
    lin = 0.3 * xy[:, 0] + 0.1 * xy[:, 1]
    pr = ControlProblem(
        grid=grid, tgrid=TimeGrid(2, 0.2),
        params=ModelParams(alpha=1.0, beta=1.0, chi=0.0, T=0.2),
        potential=regular_potential(),
        nonlin=make_nonlinearity(constant_shape(0.0), constant_shape(0.0)),
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
    assert rep.homogeneity_error < 1e-12
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
    a = quadratic_form(u, h, k, pr)
    b = quadratic_form_bilinear_route(u, h, k, pr)
    assert a == pytest.approx(b, rel=1e-11)


def test_bilinear_route_supports_final_tracking():
    pr = make_problem(b1=1.0, b2=0.5, steps=6, nodes=9)
    u = smooth_control(pr, amp=0.1)
    h = smooth_control(pr, amp=0.3)
    exact = quadratic_form_bilinear_route(u, h, h, pr)

    from tumoropt import cost_eval
    def jval(s):
        us = Control(u.u1 + s * h.u1, u.u2 + s * h.u2)
        return cost_eval(pr.solve(us), us, pr.cost, pr.grid, pr.tgrid)

    eps = 1e-2
    fd = (jval(eps) - 2.0 * jval(0.0) + jval(-eps)) / eps**2
    assert abs(fd - exact) / max(abs(exact), 1.0) <= 1e-4


# ---------------------------------------------------------------------------
# strong-form adjoint residual


def test_adjoint_residual_zero_cost():
    pr = make_problem(b1=0.0, b2=0.0, tracking=False)
    rep = adjoint_continuous_residual(pr, smooth_control(pr))
    assert rep.aggregate == 0.0


def test_adjoint_residual_rejects_bad_arguments():
    pr = make_problem(b2=0.5)
    with pytest.raises(ValueError, match="b2"):
        adjoint_continuous_residual(pr, smooth_control(pr))
    pr = make_problem()
    with pytest.raises(ValueError, match="form"):
        adjoint_continuous_residual(pr, smooth_control(pr), form="weak")
    with pytest.raises(ValueError, match="cut"):
        adjoint_continuous_residual(pr, smooth_control(pr), cut=0.5)
    with pytest.raises(ValueError, match="window"):
        adjoint_continuous_residual(pr, smooth_control(pr), cut=0.49)


def test_adjoint_residual_window_selection():
    pr = make_problem(steps=8)
    rep = adjoint_continuous_residual(pr, smooth_control(pr), cut=0.4)
    t_mid = 0.5 * (pr.tgrid.times[:-1] + pr.tgrid.times[1:])
    assert np.all(t_mid[rep.levels] >= 0.4 * pr.params.T)
    assert np.all(t_mid[rep.levels] <= 0.6 * pr.params.T)


def test_adjoint_residual_forms_agree_to_leading_order():
    pr = make_problem(steps=32)
    u = smooth_control(pr)
    primal = adjoint_continuous_residual(pr, u, form="primal")
    elim = adjoint_continuous_residual(pr, u, form="eliminated")
    gap = abs(primal.aggregate - elim.aggregate)
    assert gap <= 0.1 * max(primal.aggregate, elim.aggregate)


def test_adjoint_residual_shrinks_under_refinement():
    base = make_problem(steps=16, t_final=0.5)
    u = smooth_control(base)
    aggregates = []
    pr, uc = base, u
    for _ in range(3):
        aggregates.append(adjoint_continuous_residual(pr, uc).aggregate)
        fine = refine_problem(pr)
        uc = refine_control(uc, pr)
        pr = fine
    order = np.log2(aggregates[1] / aggregates[2])
    assert order >= THRESHOLDS["adjoint_residual_order"]
    assert aggregates[0] > aggregates[2]


# ---------------------------------------------------------------------------
# the aggregated gate


def test_run_verification_all_pass():
    pr = make_problem(steps=6)
    report = run_verification(pr, smooth_control(pr, amp=0.1), seed=0,
                              n_dirs=2, n_pairs=1)
    names = [c["name"] for c in report["checks"]]
    assert names == ["mass_identity", "duality", "gradient_fd",
                     "taylor_state", "taylor_ds_increment", "taylor_cost",
                     "stability_ratios", "adjoint_strong_form"]
    for check in report["checks"]:
        assert check["passed"], (check["name"], check["metrics"])
        assert not check["skipped"]
    assert report["all_passed"]


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
    run_verification(pr, smooth_control(pr, amp=0.1), n_dirs=1, n_pairs=1)
    assert len(steppers) <= len(problems) <= 4


def test_run_verification_skips_strong_form_with_final_tracking():
    pr = make_problem(b1=1.0, b2=0.5, steps=6)
    report = run_verification(pr, smooth_control(pr, amp=0.1), seed=0,
                              n_dirs=2, n_pairs=1)
    strong = [c for c in report["checks"] if c["name"] == "adjoint_strong_form"]
    assert len(strong) == 1 and strong[0]["skipped"] and strong[0]["passed"]
    assert report["all_passed"]
