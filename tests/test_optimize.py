"""Reduced cost, gradient, projected descent, and curvature analysis."""

import dataclasses
import pathlib
import weakref

import numpy as np
import pytest

from tumoropt import (BoxConstraints, Control, CostSpec, GradientField,
                      PgdOptions, ScalarShape, SecondOrderContext, cost_eval,
                      default_tau, project_admissible,
                      projected_gradient,
                      reduced_gradient, ssc_certificate,
                      stationarity_measure, strongly_active_sets,
                      solve_bilinearized, StepFactors, Stepper,
                      zero_control)
from tumoropt import optimize as optimize_module
from tumoropt.config import RunConfig, build_setup
from tumoropt import sensitivity as sensitivity_module
from tumoropt.problem import control_inner, control_norm, st_inner
from tumoropt.verify import (_random_direction, check_gradient_fd,
                             check_taylor_orders)

from _support import (cone_project, dense_hessian, dense_hessian_per_pair,
                      make_problem, nodal_hessian_columns,
                      quadratic_form_bilinear_route, random_control,
                      smooth_control, active_sets, ssc_certificate_full_levels,
                      ssc_certificate_per_direction)


def _trapz_time(values, times):
    return np.trapezoid(values, times)


def test_cost_of_zero_pair_is_zero():
    pr = make_problem(b1=0.0, b2=0.0, tracking=False)
    u = pr.zero_control()
    state = pr.solve(u)
    free = dataclasses.replace(pr, cost=CostSpec(b0=1.0))
    assert cost_eval(free, state, u) == 0.0


def test_cost_matches_composed_trapezoids():
    pr = make_problem(b1=2.0, b2=0.7, steps=6)
    u = smooth_control(pr)
    state = pr.solve(u)
    j = cost_eval(pr, state, u)

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
    j = cost_eval(pr, state, u)
    x = pr.grid.coordinates()[:, 0]
    qdens = np.trapezoid((0.3 * np.cos(np.pi * x))**2, x)
    odens = np.trapezoid((0.1 * np.sin(np.pi * x))**2, x)
    expected = 0.5 * 2.0 * pr.tgrid.t_final * qdens + 0.5 * 0.5 * odens
    assert j == pytest.approx(expected, rel=1e-13)


def test_gradient_is_plain_control_without_tracking():
    pr = make_problem(b0=1.7, b1=0.0, b2=0.0, tracking=False)
    u = random_control(pr, seed=8)
    grad = reduced_gradient(u, pr)
    assert np.array_equal(grad.grad.u1, 1.7 * u.u1)
    assert np.array_equal(grad.grad.u2, 1.7 * u.u2)
    assert np.all(grad.d.v == 0.0)


def test_reduced_gradient_releases_its_step_factors(monkeypatch):
    # PGD calls it once per iteration; a factor set kept alive would pile up
    refs, init = [], StepFactors.__init__

    def track(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(StepFactors, "__init__", track)
    pr = make_problem()
    reduced_gradient(smooth_control(pr), pr)
    assert len(refs) == 1
    assert refs[0]() is None


@pytest.mark.parametrize("ny", [None, 5])
def test_reduced_gradient_drops_each_step_factor_after_its_solve(
        monkeypatch, ny):
    pr = make_problem(steps=6, nodes=9, ny=ny)
    u = smooth_control(pr)
    state = pr.solve(u)
    alive, chunks = [], []
    # a 2-D march forms up to _LOOK_AHEAD factors ahead of the one it
    # solves with, and the worker that formed a factor drops it; with two
    # workers taking jobs in turn, each is dropped before the factor
    # _LOOK_AHEAD + 1 places on starts.  Every march evaluates Jacobian
    # values a chunk of two levels at a time, and a serial one holds at most
    # one chunk and the factor in use.
    pooled = ny is not None and sensitivity_module._factor_pool() is not None
    monkeypatch.setattr(sensitivity_module, "_CHUNK_BYTES",
                        2 * pr.stepper.values_nbytes)

    def live(refs):
        return sum(ref() is not None for ref in refs)

    class Held:
        """A factor behind a proxy that weak references can follow (a
        SuperLU object takes none)."""

        def __init__(self, fac):
            self.nnz, self.solve = fac.nnz, fac.solve

    factorize, values = Stepper.factorize, Stepper.jacobian_values
    ahead = sensitivity_module._LOOK_AHEAD if pooled else 0

    def tracked(self, row):
        # every factor formed before those ahead is gone already
        assert live(alive) <= ahead, (
            f"a factor outlived its solve at LU {len(alive) + 1}")
        assert pooled or live(chunks) <= 1
        fac = Held(factorize(self, row))
        alive.append(weakref.ref(fac))
        return fac

    def stacked(self, *args):
        # serially, the chunk before and every factor formed from it are
        # gone
        assert pooled or live(chunks) == live(alive) == 0
        out = values(self, *args)
        chunks.append(weakref.ref(out))
        return out

    monkeypatch.setattr(Stepper, "factorize", tracked)
    monkeypatch.setattr(Stepper, "jacobian_values", stacked)
    grad = reduced_gradient(u, pr, state=state)
    # one LU per step, as many as a factor set that keeps them all forms,
    # from values evaluated two levels at a time
    assert len(alive) == pr.tgrid.steps
    assert len(chunks) == pr.tgrid.steps // 2
    monkeypatch.undo()
    ref = SecondOrderContext(pr, u, state).gradient
    for got, want in ((grad.d, ref.d), (grad.grad, ref.grad)):
        assert got.v.tobytes() == want.v.tobytes()


@pytest.mark.parametrize("potential", ["regular", "logarithmic"])
def test_extruded_2d_problem_reproduces_1d_row_by_row(potential):
    # on data that do not vary with y, every y-row of the 2-D solution is the
    # 1-D one: the Kronecker Laplacian, the product weights and the 2-D LUs
    # against the 1-D stack
    nx, ny = 17, 5
    pr1 = make_problem(nodes=nx, steps=16, potential=potential)
    pr2 = make_problem(nodes=nx, steps=16, potential=potential, ny=ny)

    def extrude(c):
        return Control(np.repeat(c.v, ny, axis=2))

    def rows_err(a, b):
        gap = np.abs(b.reshape(pr1.n_levels, nx, ny) - a[:, :, None]).max()
        return gap / np.abs(a).max()

    u = smooth_control(pr1, amp=0.1)
    h = random_control(pr1, seed=3, amp=0.05)
    ctx1 = SecondOrderContext(pr1, u)
    ctx2 = SecondOrderContext(pr2, extrude(u))
    for name in ("mu", "phi", "sigma"):
        assert rows_err(getattr(ctx1.state, name),
                        getattr(ctx2.state, name)) < 1e-14
    for g1, g2 in zip(ctx1.gradient.grad.v, ctx2.gradient.grad.v):
        assert rows_err(g1, g2) < 1e-14
    form1, form2 = ctx1.form(h, h), ctx2.form(extrude(h), extrude(h))
    assert abs(form2 - form1) <= 2e-14 * abs(form1)
    # the Taylor oracle along the same extruded unit directions: an extruded
    # direction keeps its norm, so both cost remainders fall alike
    rng = np.random.default_rng(0)
    v, w = _random_direction(pr1, rng), _random_direction(pr1, rng)
    cost1 = check_taylor_orders(ctx1, v=v, h=w)[2]
    cost2 = check_taylor_orders(ctx2, v=extrude(v), h=extrude(w))[2]
    assert cost1.passed and cost2.passed
    assert abs(cost2.fitted_slope - cost1.fitted_slope) <= 0.01


@pytest.mark.parametrize("potential", ["regular", "logarithmic"])
def test_gradient_against_finite_differences(potential):
    pr = make_problem(potential=potential)
    ctx = SecondOrderContext(pr, smooth_control(pr, amp=0.1))
    rep = check_gradient_fd(ctx, n_dirs=3, seed=1)
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
    u0 = Control([np.full((pr.n_levels, pr.grid.n), 0.4),
                  np.full((pr.n_levels, pr.grid.n), -0.4)])
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
    fixed = project_admissible(Control(-res.gradient.d.v), box)
    gap = max(np.abs(res.control.u1 - fixed.u1).max(),
              np.abs(res.control.u2 - fixed.u2).max())
    assert gap <= 1e-7
    assert stationarity_measure(res.control, pr, box,
                                reduced_gradient(res.control, pr)) <= 1e-8


def test_pgd_history_schema():
    pr = make_problem(b1=0.0, b2=0.0, tracking=False)
    res = projected_gradient(random_control(pr), pr, BoxConstraints(),
                             PgdOptions(tol=1e-10, max_iter=5))
    assert res.history[0]["iteration"] == 0
    for row in res.history:
        assert list(row) == ["iteration", "cost", "stationarity",
                             "step_size", "solves", "cg_iters"]
    assert res.n_iter == len(res.history) - 1
    # row 0 is the start; every later row took at least one Armijo trial,
    # and a gradient step takes no product
    assert (res.history[0]["solves"], res.history[0]["cg_iters"]) == (0, 0)
    assert res.n_iter >= 1
    assert all(row["solves"] >= 1 and row["cg_iters"] == 0
               for row in res.history[1:])


def test_pgd_options_need_a_trial_and_ordered_step_bounds():
    # the line search and the step clamp are constants: every iteration
    # takes a trial, each backtrack shortens the step, the clamp is ordered
    assert optimize_module._MAX_BACKTRACKS >= 1
    assert 0.0 < optimize_module._SHRINK < 1.0
    assert 0.0 < optimize_module._STEP_MIN <= optimize_module._STEP_MAX
    for name in ("max_backtracks", "step_min", "step_max", "shrink",
                 "armijo_c", "initial_step"):
        with pytest.raises(TypeError, match=name):
            PgdOptions(**{name: 1.0})


@pytest.mark.parametrize("opts, constants, reason", [
    (PgdOptions(tol=1e-12, max_iter=10), {}, "converged"),
    (PgdOptions(tol=1e-12, max_iter=1), {}, "max_iter"),
    # a step far too long for the three halvings the line search may take:
    # every trial lands on the corners of the box, and the cost rises
    (PgdOptions(tol=1e-12), {"_INITIAL_STEP": 1e8, "_MAX_BACKTRACKS": 3},
     "line_search_failed"),
], ids=["converged", "max_iter", "line_search_failed"])
def test_pgd_reports_why_it_stopped(monkeypatch, opts, constants, reason):
    for name, value in constants.items():
        monkeypatch.setattr(optimize_module, name, value)
    # linear state with a tracking term: the cost is quadratic, not trivial
    pr = make_problem(coupling="none", b0=1.0, b1=2.0, steps=6)
    box = BoxConstraints(lower1=-1.0, upper1=1.0, lower2=-1.0, upper2=1.0)
    res = projected_gradient(random_control(pr, seed=2), pr, box, opts)
    assert res.reason == reason
    assert res.converged == (reason == "converged")
    if reason == "max_iter":
        assert res.n_iter == opts.max_iter
        assert res.stationarity > opts.tol
    if reason == "line_search_failed":
        # the rejected trials leave the control and its cost in place
        assert res.n_iter == 0
        assert res.cost == res.history[0]["cost"]


# ---------------------------------------------------------------------------
# active sets and the critical cone


def _shape(pr):
    return (pr.n_levels, pr.grid.n)


def test_active_sets_empty_for_zero_gradient():
    pr = make_problem()
    z = np.zeros(_shape(pr))
    grad = GradientField(d=Control([z, z]), grad=Control([z, z]),
                         adjoint=None)
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
    g = Control([g1, g2])
    grad = GradientField(d=g, grad=g, adjoint=None)
    sets = strongly_active_sets(grad, 0.5)
    assert sets.A.shape == (2,) + _shape(pr)
    assert np.shares_memory(sets.A1, sets.A) and np.shares_memory(sets.A2,
                                                                  sets.A)
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
    ubar = Control([np.zeros(shape), np.zeros(shape)])
    ubar.u1[0, 0] = -1.0  # sits on the lower bound
    ubar.u1[0, 1] = 1.0   # sits on the upper bound
    g = np.zeros(shape)
    g[1, 1] = 2.0  # strongly active point
    sets = strongly_active_sets(
        GradientField(d=Control([g, g * 0]), grad=Control([g, g * 0]),
                      adjoint=None), 1.0)
    h = Control([np.full(shape, -0.5), np.full(shape, 0.5)])
    v = cone_project(h, ubar, box, sets)
    assert v.u1[1, 1] == 0.0          # active point zeroed
    assert v.u1[0, 0] == 0.0          # lower bound: negative part clipped
    assert v.u1[0, 1] == -0.5         # upper bound: negative allowed
    assert v.u1[1, 0] == -0.5         # interior: untouched
    assert np.array_equal(v.u2, h.u2)
    # the certificate's stacked projection is bitwise the oracle's
    stacked = optimize_module._cone_clip(
        np.stack([h.u1, h.u2]), optimize_module._cone_masks(ubar, box, sets))
    assert stacked.tobytes() == np.stack([v.u1, v.u2]).tobytes()


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
    bil = solve_bilinearized(ctx.factors, lh, lk, h, k)
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
            us = Control(u.v + s * h.v)
            vals.append(cost_eval(pr, pr.solve(us), us))
        return (vals[0] - 2.0 * vals[1] + vals[2]) / eps**2

    fd = second_diff(1e-2)
    assert abs(fd - exact) / max(abs(exact), 1.0) <= 1e-5


def test_dense_hessian_small_problem():
    pr = make_problem(nodes=5, steps=3)
    u = smooth_control(pr, amp=0.1)
    ctx = SecondOrderContext(pr, u)
    hess = dense_hessian(ctx)
    assert hess.shape == (40, 40)
    assert np.abs(hess - hess.T).max() <= 1e-12 * max(np.abs(hess).max(), 1.0)
    h = random_control(pr, seed=7)
    flat = np.concatenate([h.u1.ravel(), h.u2.ravel()])
    assert flat @ hess @ flat == pytest.approx(ctx.form(h, h), rel=1e-10)


def test_dense_hessian_decoupled_is_weighted_identity():
    pr = make_problem(nodes=5, steps=3, coupling="none", b0=1.3, b1=0.0,
                      tracking=False)
    hess = dense_hessian(SecondOrderContext(pr, pr.zero_control()))
    wt = pr.tgrid.weights()
    diag = np.kron(wt, pr.grid.weights)
    expected = 1.3 * np.diag(np.concatenate([diag, diag]))
    assert np.abs(hess - expected).max() <= 1e-14


def test_dense_hessian_size_guard():
    pr = make_problem(nodes=17, steps=12)
    with pytest.raises(ValueError, match="400"):
        dense_hessian(SecondOrderContext(pr, smooth_control(pr)))


def _block_of(pr, directions):
    """`_BLOCK_BYTES` that fits exactly `directions` histories of `pr`."""
    return directions * 24 * pr.n_levels * pr.grid.n


@pytest.mark.parametrize("directions", [None, 7])
def test_dense_hessian_is_bitwise_the_per_pair_loop(monkeypatch, directions):
    pr = make_problem(nodes=5, steps=3)
    ctx = SecondOrderContext(pr, smooth_control(pr, amp=0.1))
    if directions is not None:
        # 40 basis directions in blocks of 7: the last block is shorter
        monkeypatch.setattr(optimize_module, "_BLOCK_BYTES",
                            _block_of(pr, directions))
    assert dense_hessian(ctx).tobytes() == dense_hessian_per_pair(ctx).tobytes()


# ---------------------------------------------------------------------------
# sampled coercivity certificate


def test_ssc_decoupled_rayleigh_equals_b0():
    pr = make_problem(coupling="none", b0=0.9, b1=0.0, tracking=False)
    ctx = SecondOrderContext(pr, pr.zero_control())
    rep = ssc_certificate(ctx, active_sets(ctx), n_samples=8,
                          box=BoxConstraints(), seed=0)
    assert rep.satisfied
    assert rep.sample_count == 8
    assert rep.min_rayleigh == pytest.approx(0.9, rel=1e-12)


def test_ssc_deterministic_under_seed():
    pr = make_problem(b1=2.0)
    u = smooth_control(pr, amp=0.1)
    box = BoxConstraints(lower1=-0.5, upper1=0.5, lower2=-0.5, upper2=0.5)
    ctx = SecondOrderContext(pr, u)
    a = ssc_certificate(ctx, active_sets(ctx), 6, box, seed=3)
    b = ssc_certificate(ctx, active_sets(ctx), 6, box, seed=3)
    assert a.min_rayleigh == b.min_rayleigh
    assert a.tau == b.tau and a.sample_count == b.sample_count
    c = ssc_certificate(ctx, active_sets(ctx), 6, box, seed=4)
    assert c.min_rayleigh != a.min_rayleigh


def test_ssc_positive_on_tracking_problem():
    pr = make_problem(b0=1.0, b1=2.0)
    u = smooth_control(pr, amp=0.05)
    box = BoxConstraints(lower1=-0.5, upper1=0.5, lower2=-0.5, upper2=0.5)
    ctx = SecondOrderContext(pr, u)
    rep = ssc_certificate(ctx, active_sets(ctx), 16, box, seed=0)
    assert rep.satisfied
    assert rep.min_rayleigh >= 0.9  # b0 = 1 dominates on this small problem


def test_ssc_trivial_cone_raises():
    pr = make_problem(b1=2.0)
    ctx = SecondOrderContext(pr, random_control(pr, seed=9, amp=0.2))
    with pytest.raises(ValueError, match="strongly active"):
        ssc_certificate(ctx, active_sets(ctx, 0.0), n_samples=4,
                        box=BoxConstraints(), seed=0)
    with pytest.raises(ValueError):
        ssc_certificate(ctx, active_sets(ctx), n_samples=0,
                        box=BoxConstraints())


def _ssc_case(case):
    """(context, tau, box) of a certificate test.

    "interior": a tracking problem with tau above every gradient entry, so
    no point is strongly active and every draw marches from level 1.
    "zero": the control sits on the lower bound everywhere and tau leaves
    two points free, on different levels, so a draw that is negative at both
    projects to zero and directions start on different levels.
    """
    pr = make_problem(b0=1.0, b1=2.0)
    if case == "interior":
        box = BoxConstraints(lower1=-0.5, upper1=0.5, lower2=-0.5, upper2=0.5)
        return SecondOrderContext(pr, smooth_control(pr, amp=0.05)), 0.1, box
    u = random_control(pr, seed=3)
    box = BoxConstraints(lower1=u.u1, upper1=u.u1 + 1.0, lower2=u.u2,
                         upper2=u.u2 + 1.0)
    ctx = SecondOrderContext(pr, u)
    grad = np.sort(np.abs(ctx.gradient.grad.v.ravel()))
    return ctx, 0.5 * (grad[1] + grad[2]), box


@pytest.mark.parametrize("directions", [None, 1, 3])
@pytest.mark.parametrize("case", ["interior", "zero"])
def test_ssc_blocks_are_bitwise_the_per_direction_loop(monkeypatch, case,
                                                       directions):
    ctx, tau, box = _ssc_case(case)
    pr = ctx.problem
    if directions is not None:
        # 16 draws in blocks of 1, or of 3 with a last block of 1
        monkeypatch.setattr(optimize_module, "_BLOCK_BYTES",
                            _block_of(pr, directions))
    quotients, form = [], SecondOrderContext.form

    def record(self, h, k, **lins):
        val = form(self, h, k, **lins)
        quotients.append(val / control_norm(pr.grid, pr.tgrid, h)**2)
        return val

    monkeypatch.setattr(SecondOrderContext, "form", record)
    report = ssc_certificate(ctx, active_sets(ctx, tau), 16, box, seed=1)
    blocked = quotients[:]
    ref, ref_quotients = ssc_certificate_per_direction(ctx, tau, 16, box,
                                                       seed=1)
    assert report == ref
    assert np.array(blocked).tobytes() == np.array(ref_quotients).tobytes()
    if case == "zero":
        assert 0 < report.sample_count < 16


def test_ssc_requests_each_step_factor_at_most_once(monkeypatch):
    # the 16 directions march as one block: one factor request per level,
    # where one march per direction would make 16 per level
    ctx, tau, box = _ssc_case("interior")
    ctx.gradient  # the adjoint march requests every factor once beforehand
    requested, lu = [], StepFactors.lu

    def count_lu(self, k):
        requested.append(k)
        return lu(self, k)

    monkeypatch.setattr(StepFactors, "lu", count_lu)
    report = ssc_certificate(ctx, active_sets(ctx, tau), 16, box, seed=0)
    assert report.sample_count == 16
    assert len(requested) <= ctx.problem.tgrid.steps


def _window(sets):
    """The levels where some point is not strongly active."""
    return np.flatnonzero(~(sets.A1.all(axis=1) & sets.A2.all(axis=1)))


def _window_case(case):
    """(context, sets, box) of a windowed-certificate test.

    At a small smooth control of the tracking problem, with the default tau,
    only level 0 and a few later levels hold points that are not strongly
    active, and not as one run of levels.  "bounds" puts u1 on its lower and
    u2 on its upper bound everywhere, so every kept entry is sign-clipped
    and some draws project to zero; at "no-active" tau lies above every
    gradient entry, so the window is every level.
    """
    if case == "2d":
        pr = make_problem(nodes=9, ny=7, steps=12)
    else:
        pr = make_problem(nodes=17, steps=24,
                          potential="logarithmic" if case == "logarithmic"
                          else "regular")
    u = smooth_control(pr, amp=0.05)
    ctx = SecondOrderContext(pr, u)
    box = BoxConstraints(lower1=-1.0, upper1=1.0, lower2=-1.0, upper2=1.0)
    tau = None
    if case == "bounds":
        box = BoxConstraints(lower1=u.u1, upper1=1.0, lower2=-1.0,
                             upper2=u.u2)
    elif case == "no-active":
        grad = ctx.gradient
        tau = 2.0 * np.abs(grad.grad.v).max()
    return ctx, active_sets(ctx, tau), box


@pytest.mark.parametrize("case", ["regular", "logarithmic", "bounds",
                                  "no-active", "2d"])
def test_ssc_certificate_is_bitwise_the_full_level_oracle(case):
    ctx, sets, box = _window_case(case)
    window, n_levels = _window(sets), ctx.problem.n_levels
    if case == "no-active":
        assert window.size == n_levels
    else:
        assert window[0] == 0 and window.size <= 4
        assert np.any(np.diff(window[1:]) > 1) or case == "2d"
    report = ssc_certificate(ctx, sets, 16, box, seed=0)
    assert report == ssc_certificate_full_levels(ctx, sets, 16, box, seed=0)
    if case == "bounds":
        assert 0 < report.sample_count < 16


@pytest.mark.parametrize("b2", [0.0, 1.0])
def test_form_of_late_trajectories_is_the_whole_history_form(b2):
    pr = make_problem(nodes=17, steps=12, b2=b2)
    ctx = SecondOrderContext(pr, smooth_control(pr, amp=0.05))
    h, k = random_control(pr, seed=1), random_control(pr, seed=2)
    # nonzero at level 0; h vanishes on levels 1-6, k on levels 1-3
    h.u1[1:7] = h.u2[1:7] = 0.0
    k.u1[1:4] = k.u2[1:4] = 0.0
    late = {"h": ctx.linearize(h, 7), "k": ctx.linearize(k, 4)}
    whole = {"h": ctx.linearize(h), "k": ctx.linearize(k)}
    assert (late["h"].start, late["k"].start, whole["h"].start) == (7, 4, 1)
    for name in "hk":
        assert late[name].y.tobytes() == whole[name].y.tobytes()
    dirs = {"h": h, "k": k}
    for a, b in ("hh", "hk", "kh", "kk"):
        value = ctx.form(dirs[a], dirs[b], lin_h=late[a], lin_k=late[b])
        assert value == ctx.form(dirs[a], dirs[b], lin_h=whole[a],
                                 lin_k=whole[b])
        hk = control_inner(pr.grid, pr.tgrid, dirs[a], dirs[b])
        assert value == ctx.form(dirs[a], dirs[b], lin_h=late[a],
                                 lin_k=late[b], hk=hk)
    assert ctx.form(h, k, lin_h=late["h"], lin_k=late["k"]) == pytest.approx(
        quadratic_form_bilinear_route(ctx, h, k), rel=1e-12, abs=0.0)


def _desk_shaped_context():
    """The shipped config at 33 x 50: at its zero control only level 0 and
    the last two levels hold points that are not strongly active."""
    config = pathlib.Path(__file__).resolve().parents[1] / "configs"
    setup = build_setup(RunConfig.from_file(
        config / "canonical_1d.yaml",
        overrides=("grid.shape=[33]", "time.steps=50")))
    ctx = SecondOrderContext(setup.problem, setup.initial_control)
    return ctx, active_sets(ctx), setup.box


def test_ssc_forms_the_window_levels_only(monkeypatch):
    ctx, sets, box = _desk_shaped_context()
    window = _window(sets)
    assert window.tolist() == [0, 49, 50]
    rows, source = [], Stepper.second_order_source

    def count_rows(self, coef, yh, yk, h1, k1):
        rows.append(yh.shape[-2])
        return source(self, coef, yh, yk, h1, k1)

    monkeypatch.setattr(Stepper, "second_order_source", count_rows)
    report = ssc_certificate(ctx, sets, 16, box, seed=0)
    assert report.sample_count == 16 == len(rows)
    # 2 levels a form, where whole histories would give 50
    assert sum(rows) <= window.size * report.sample_count


@pytest.mark.parametrize("directions", [1, 3])
def test_ssc_report_does_not_depend_on_the_block_size(monkeypatch,
                                                       directions):
    # the draws are one stream, so blocks of any size see the same draws
    ctx, sets, box = _desk_shaped_context()
    whole = ssc_certificate(ctx, sets, 16, box, seed=0)
    assert optimize_module._block_len(ctx.problem) >= 16
    monkeypatch.setattr(optimize_module, "_BLOCK_BYTES",
                        _block_of(ctx.problem, directions))
    assert ssc_certificate(ctx, sets, 16, box, seed=0) == whole


def test_second_order_context_forms_final_tracking():
    pr = make_problem(b2=1.0)
    ctx = SecondOrderContext(pr, pr.zero_control())
    h, k = random_control(pr), random_control(pr, seed=1)
    assert ctx.form(h, h) > 0.0
    assert ctx.form(h, k) == pytest.approx(
        quadratic_form_bilinear_route(ctx, h, k), rel=1e-12, abs=0.0)
    assert ctx.form(h, k) == pytest.approx(ctx.form(k, h), rel=1e-12)


# ---------------------------------------------------------------------------
# Hessian-vector products and the Newton-CG phase of the descent


_PRODUCT_CASES = {
    "regular": dict(),
    "logarithmic": dict(potential="logarithmic"),
    "final-tracking": dict(b2=1.0),
    "extruded-2d": dict(ny=3),
}


@pytest.mark.parametrize("case", _PRODUCT_CASES)
def test_hessian_product_is_the_dense_hessian(case):
    pr = make_problem(nodes=5, steps=3, **_PRODUCT_CASES[case])
    ctx = SecondOrderContext(pr, smooth_control(pr))
    dense = dense_hessian(ctx)
    columns = nodal_hessian_columns(ctx, range(dense.shape[1]))
    assert np.abs(columns - dense).max() <= 1e-13 * np.abs(dense).max()


@pytest.mark.parametrize("case", _PRODUCT_CASES)
def test_hessian_product_pairs_as_the_form_and_is_symmetric(case):
    pr = make_problem(**_PRODUCT_CASES[case])
    ctx = SecondOrderContext(pr, smooth_control(pr))
    grid, tgrid = pr.grid, pr.tgrid
    for seed in (1, 3):
        h, k = random_control(pr, seed=seed), random_control(pr, seed=seed + 1)
        hh, hk = ctx.hessian_product([h, k])
        form = ctx.form(h, k)
        assert abs(control_inner(grid, tgrid, hh, k) - form) <= 1e-13 * abs(form)
        assert (abs(control_inner(grid, tgrid, hh, k)
                    - control_inner(grid, tgrid, h, hk)) <= 1e-13 * abs(form))


@pytest.mark.parametrize("ny", [None, 5])
def test_hessian_product_block_is_bitwise_each_direction(ny):
    pr = make_problem(nodes=9, steps=6, b2=0.5, ny=ny)
    ctx = SecondOrderContext(pr, smooth_control(pr))
    hs = [random_control(pr, seed=s) for s in (1, 2, 3)]
    block = ctx.hessian_product(hs)
    for h, got in zip(hs, block):
        alone = ctx.hessian_product(h)
        assert got.u1.tobytes() == alone.u1.tobytes()
        assert got.u2.tobytes() == alone.u2.tobytes()


def test_hessian_product_reuses_the_factor_pass(monkeypatch):
    pr = make_problem()
    ctx = SecondOrderContext(pr, smooth_control(pr))
    ctx.gradient
    calls = []
    factorize = Stepper.factorize
    monkeypatch.setattr(Stepper, "factorize",
                        lambda self, *a: calls.append(None)
                        or factorize(self, *a))
    ctx.hessian_product([random_control(pr), random_control(pr, seed=1)])
    assert calls == []


def test_hessian_product_of_a_pure_control_cost_is_b0_h():
    pr = make_problem(b0=1.3, b1=0.0, b2=0.0, tracking=False)
    ctx = SecondOrderContext(pr, smooth_control(pr))
    h = random_control(pr)
    hh = ctx.hessian_product(h)
    # no tracking: zero multipliers and a zero backward source
    assert np.array_equal(hh.u1, 1.3 * h.u1)
    assert np.array_equal(hh.u2, 1.3 * h.u2)


def _bb_only(monkeypatch, *args):
    """The descent with gradient steps alone: no step ever switches."""
    with monkeypatch.context() as patch:
        patch.setattr(optimize_module, "_SWITCH_RATIO", np.inf)
        return projected_gradient(*args)


def _same_run(a, b, columns=("iteration", "cost", "stationarity",
                             "step_size", "solves")) -> bool:
    return (a.reason == b.reason and a.n_iter == b.n_iter
            and a.control.u1.tobytes() == b.control.u1.tobytes()
            and a.control.u2.tobytes() == b.control.u2.tobytes()
            and a.gradient.grad.u1.tobytes() == b.gradient.grad.u1.tobytes()
            and [[row[c] for c in columns] for row in a.history]
            == [[row[c] for c in columns] for row in b.history])


def test_pgd_without_a_stall_is_bitwise_the_gradient_path(monkeypatch):
    # b0 = 1: each gradient step cuts the stationarity a hundredfold
    pr = make_problem(b0=1.0, b1=2.0)
    args = (pr.zero_control(), pr, BoxConstraints(), PgdOptions(tol=1e-10))
    res = projected_gradient(*args)
    assert res.converged
    assert all(row["cg_iters"] == 0 for row in res.history)
    assert _same_run(res, _bb_only(monkeypatch, *args),
                     columns=tuple(res.history[0]))


@pytest.mark.parametrize("case", ["regular", "logarithmic", "final-tracking"])
def test_pgd_switches_to_newton_on_a_weak_control_cost(monkeypatch, case):
    pr = make_problem(b0=0.01, b1=2.0, **_PRODUCT_CASES[case])
    args = (pr.zero_control(), pr, BoxConstraints(),
            PgdOptions(tol=1e-8, max_iter=60))
    res = projected_gradient(*args)
    ref = _bb_only(monkeypatch, *args)
    assert res.converged and ref.converged
    # the first gradient step keeps over 0.9 of the stationarity; every
    # later step is a Newton step, and the run needs fewer iterations
    assert res.history[1]["cg_iters"] == 0
    assert all(row["cg_iters"] >= 1 for row in res.history[2:])
    assert res.n_iter < ref.n_iter
    assert abs(res.cost - ref.cost) <= 1e-8 * ref.cost
    assert res.stationarity <= 1e-8


def test_newton_steps_keep_active_bounds():
    pr = make_problem(b0=0.01, b1=2.0)
    box = BoxConstraints(lower1=-0.05, upper1=0.05, lower2=-0.05, upper2=0.05)
    res = projected_gradient(pr.zero_control(), pr, box,
                             PgdOptions(tol=1e-8, max_iter=60))
    assert res.converged
    assert any(row["cg_iters"] for row in res.history)
    u = np.stack([res.control.u1, res.control.u2])
    assert np.abs(u).max() <= 0.05
    assert np.mean(np.abs(u) == 0.05) > 0.2
    # pointwise characterization: u = proj(-d / b0)
    fixed = project_admissible(Control(-res.gradient.d.v / 0.01), box)
    assert max(np.abs(res.control.u1 - fixed.u1).max(),
               np.abs(res.control.u2 - fixed.u2).max()) <= 1e-6


def test_nonpositive_curvature_falls_back_to_the_gradient_step(monkeypatch):
    pr = make_problem(b0=0.01, b1=2.0)
    args = (pr.zero_control(), pr, BoxConstraints(),
            PgdOptions(tol=1e-8, max_iter=60))
    ref = _bb_only(monkeypatch, *args)

    def negated(self, h):
        return Control(-h.v)

    monkeypatch.setattr(SecondOrderContext, "hessian_product", negated)
    res = projected_gradient(*args)
    # each Newton iteration stops at its first product and takes the
    # gradient step the gradient path takes
    assert res.converged
    assert [row["cg_iters"] for row in res.history[2:]] == [1] * (res.n_iter - 1)
    assert _same_run(res, ref)


def test_nonpositive_curvature_later_keeps_the_cg_step_so_far(monkeypatch):
    pr = make_problem(b0=0.01, b1=2.0)
    ctx = SecondOrderContext(pr, smooth_control(pr, amp=0.1))
    grad = ctx.gradient
    weights = 1.0 + np.random.default_rng(0).uniform(size=grad.grad.v.shape)
    products = []

    def positive_then_negative(self, h):
        # curvature > 0 on the first product, < 0 on the second
        products.append(h)
        return Control((weights if len(products) == 1 else -1.0) * h.v)

    monkeypatch.setattr(SecondOrderContext, "hessian_product",
                        positive_then_negative)
    s, n_products = optimize_module._newton_direction(ctx, grad,
                                                      BoxConstraints(), 1.0)
    assert n_products == 2
    # the one CG step taken: d = alpha r0 with r0 = -grad, and s = -d
    g = grad.grad.v
    wts = pr.tgrid.weights()[:, None] * pr.grid.weights
    alpha = np.sum(wts * (g * g).sum(axis=0)) / np.sum(
        wts * (g * weights * g).sum(axis=0))
    np.testing.assert_allclose(s.v, alpha * g, rtol=1e-13, atol=0.0)


def test_newton_phase_reports_why_it_stopped(monkeypatch):
    pr = make_problem(b0=0.01, b1=2.0)
    args = (pr.zero_control(), pr, BoxConstraints())
    res = projected_gradient(*args, PgdOptions(tol=1e-12, max_iter=2))
    assert res.reason == "max_iter" and res.n_iter == 2
    assert res.history[2]["cg_iters"] >= 1

    # an ascent direction: no trial passes the Armijo test
    def ascent(context, grad, box, stat):
        return Control(-grad.grad.v), 0

    monkeypatch.setattr(optimize_module, "_newton_direction", ascent)
    monkeypatch.setattr(optimize_module, "_MAX_BACKTRACKS", 3)
    res = projected_gradient(*args, PgdOptions(tol=1e-12))
    assert res.reason == "line_search_failed"
    # the first step is a gradient step, the second switches and fails
    assert res.n_iter == 1
    assert res.cost == res.history[1]["cost"]


def test_table_shapes_keep_gradient_steps():
    pr = make_problem(b0=0.01, b1=2.0)
    pr = dataclasses.replace(pr, nonlin=dataclasses.replace(
        pr.nonlin, H=ScalarShape("table", xs=[-1.0, 1.0], ys=[0.0, 1.0])))
    res = projected_gradient(pr.zero_control(), pr, BoxConstraints(),
                             PgdOptions(tol=1e-8, max_iter=60))
    assert res.converged
    assert all(row["cg_iters"] == 0 for row in res.history)
    # the first step stalls as on the bump-and-ramp problem
    assert res.history[1]["stationarity"] > 0.25 * res.history[0]["stationarity"]


def test_newton_switch_reuses_the_adjoint_of_its_gradient(monkeypatch):
    pr = make_problem(b0=0.01, b1=2.0)
    args = (pr.zero_control(), pr, BoxConstraints(), PgdOptions(tol=1e-8))
    calls, misfit_adjoint = [], optimize_module.misfit_adjoint

    def count(factors):
        calls.append(None)
        return misfit_adjoint(factors)

    monkeypatch.setattr(optimize_module, "misfit_adjoint", count)
    res = projected_gradient(*args)
    assert res.converged and res.history[-1]["cg_iters"] >= 1
    # one misfit march per iterate, the switch's included
    assert len(calls) == res.n_iter + 1

    class Remarching(SecondOrderContext):
        def __init__(self, problem, ubar, state=None, adjoint=None):
            super().__init__(problem, ubar, state)

    monkeypatch.setattr(optimize_module, "SecondOrderContext", Remarching)
    calls.clear()
    ref = projected_gradient(*args)
    assert len(calls) == res.n_iter + 2
    assert _same_run(res, ref, columns=tuple(res.history[0]))


@pytest.mark.parametrize("sets,gradient_steps", [
    # the shipped run at 17 x 25: three gradient-step iterates, no switch
    ((), 3),
    # a weak control cost, as the track-1d benchmark: two gradient-step
    # iterates, then Newton-CG from the second
    (("cost.b0=0.01",), 2),
], ids=["desk-like", "track-like"])
def test_every_gradient_step_iterate_calls_reduced_gradient(
        monkeypatch, sets, gradient_steps):
    config = pathlib.Path(__file__).resolve().parents[1] / "configs"
    setup = build_setup(RunConfig.from_file(
        config / "canonical_1d.yaml",
        ("grid.shape=[17]", "time.steps=25") + sets))
    calls, reduced = [], optimize_module.reduced_gradient

    def count(*args, **kwargs):
        calls.append(None)
        return reduced(*args, **kwargs)

    monkeypatch.setattr(optimize_module, "reduced_gradient", count)
    res = projected_gradient(setup.initial_control, setup.problem, setup.box,
                             setup.pgd)
    assert res.converged
    newton = sum(row["cg_iters"] > 0 for row in res.history)
    assert len(calls) == gradient_steps == res.n_iter + 1 - newton


def test_newton_phase_holds_one_factor_pass_at_a_time(monkeypatch):
    refs, init = [], StepFactors.__init__

    def track(self, *args, **kwargs):
        # the factor set of the previous iterate is gone already
        assert all(ref() is None for ref in refs)
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(StepFactors, "__init__", track)
    pr = make_problem(b0=0.01, b1=2.0)
    res = projected_gradient(pr.zero_control(), pr, BoxConstraints(),
                             PgdOptions(tol=1e-8))
    assert res.converged and res.history[-1]["cg_iters"] >= 1
