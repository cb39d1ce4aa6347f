"""Acceptance battery at desk scale: 129 nodes, 200 steps, T = 1.

Each test exercises one headline guarantee end to end and prints a single
pass/fail line with the measured numbers (visible under `pytest -s`).
"""

import pathlib

import numpy as np
import pytest
import yaml
from scipy.optimize import brentq

from tumoropt import (BoxConstraints, Control, CostSpec, InitialData,
                      PgdOptions, SecondOrderContext, cost_eval, cone_project,
                      logarithmic_potential, obstacle_potential,
                      projected_gradient, prox_f1, regular_potential,
                      ssc_certificate, strongly_active_sets,
                      project_admissible, yosida_derivative)
from tumoropt.config import RunConfig, build_setup
from tumoropt.model import _f1_eval
from tumoropt.problem import ControlProblem, control_norm, control_inner, st_inner
from tumoropt.state import mass_balance_residual
from tumoropt.verify import (check_duality, check_gradient_fd,
                             check_stability_ratios, check_taylor_orders,
                             ode_reduction_reference, richardson_state_at_T)

from _support import make_problem, random_control, smooth_control

ROOT = pathlib.Path(__file__).resolve().parents[1]
DESK = dict(nodes=129, steps=200, t_final=1.0)


def _emit(num: int, label: str, ok: bool, detail: str) -> None:
    tag = "pass" if ok else "FAIL"
    print(f"[{tag}] criterion {num:2d}: {label} ({detail})")
    assert ok, f"criterion {num}: {label} ({detail})"


def _load_setup(name: str):
    raw = yaml.safe_load((ROOT / "configs" / name).read_text())
    return build_setup(RunConfig.from_dict(raw, base_dir=ROOT / "configs"))


def _bitwise_zero(*arrays) -> bool:
    return all(a.tobytes() == b"\x00" * a.nbytes for a in arrays)


def _unit_smooth(problem: ControlProblem, a1: float, a2: float) -> Control:
    x = problem.grid.coordinates()[:, 0]
    t = problem.tgrid.times
    u = Control(a1 * np.outer(np.cos(np.pi * t), np.cos(np.pi * x)),
                a2 * np.outer(1.0 - t, np.sin(2.0 * np.pi * x)))
    nrm = control_norm(problem.grid, problem.tgrid, u)
    return Control(u.u1 / nrm, u.u2 / nrm)


@pytest.fixture(scope="module")
def canonical():
    return _load_setup("canonical_1d.yaml")


@pytest.fixture(scope="module")
def canonical_traj(canonical):
    return canonical.problem.solve(canonical.initial_control)


def test_criterion_01_zero_fixed_point():
    setup = _load_setup("zero.yaml")
    pr = setup.problem
    u = setup.initial_control
    ctx = SecondOrderContext(pr, u)
    traj, adj, grad = ctx.state, ctx.adjoint, ctx.gradient
    j = cost_eval(traj, u, pr.cost, pr.grid, pr.tgrid)
    ok = (_bitwise_zero(traj.mu, traj.phi, traj.sigma,
                        adj.p, adj.q, adj.r,
                        grad.d1, grad.d2, grad.grad1, grad.grad2)
          and j == 0.0)
    _emit(1, "zero configuration is a bitwise-zero fixed point", ok,
          f"cost = {j!r}")


def test_criterion_02_mass_identity(canonical, canonical_traj):
    worst = 0.0
    pr = make_problem(**DESK)
    ubar = smooth_control(pr, amp=0.1)
    runs = [
        (pr, ubar, pr.solve(ubar)),
        (canonical.problem, canonical.initial_control, canonical_traj),
    ]
    zero = _load_setup("zero.yaml")
    runs.append((zero.problem, zero.initial_control,
                 zero.problem.solve(zero.initial_control)))
    for problem, control, traj in runs:
        res = mass_balance_residual(traj, control, problem.params,
                                    problem.nonlin, problem.grid,
                                    problem.tgrid)
        worst = max(worst, float(res.max()))
    _emit(2, "discrete mass identity on every step of every run",
          worst <= 1e-10, f"max relative residual = {worst:.3e}")


def test_criterion_03_ode_reduction_equivalence():
    def u1_of_t(t):
        return 0.15 * np.cos(2.0 * t)

    def u2_of_t(t):
        return -0.1 + 0.05 * t

    errors = {}
    for kind, pot in (("regular", regular_potential()),
                      ("logarithmic", logarithmic_potential(2.0))):
        pr = make_problem(**DESK, potential=kind, tracking=False, b1=0.0)
        n = pr.grid.n
        pr = ControlProblem(
            grid=pr.grid, tgrid=pr.tgrid, params=pr.params, potential=pot,
            nonlin=pr.nonlin, cost=CostSpec(b0=1.0),
            init=InitialData(mu0=np.full(n, 0.05), phi0=np.full(n, 0.2),
                             sigma0=np.full(n, 0.1)),
            options=pr.options)
        rich = richardson_state_at_T(pr, u1_of_t, u2_of_t)
        ref = ode_reduction_reference(pr, u1_of_t, u2_of_t,
                                      rtol=1e-11, atol=1e-13)
        errors[kind] = float(np.max(np.abs(rich - ref))
                             / max(1.0, np.max(np.abs(ref))))
    ok = all(e <= 1e-6 for e in errors.values())
    _emit(3, "spatially constant runs match the adaptive ODE oracle", ok,
          ", ".join(f"{k} rel = {e:.3e}" for k, e in errors.items()))


def test_criterion_04_separation_property(canonical_traj):
    lo = float(canonical_traj.phi_min.min())
    hi = float(canonical_traj.phi_max.max())
    margin = min(lo - (-1.0), 1.0 - hi)
    ok = -1.0 < lo and hi < 1.0 and margin >= 1e-3
    _emit(4, "logarithmic canonical run stays separated from the pure phases",
          ok, f"phi in [{lo:.4f}, {hi:.4f}], margin = {margin:.3e}")


def test_criterion_05_yosida_properties():
    rng = np.random.default_rng(0)
    kinds = (("regular", regular_potential()),
             ("logarithmic", logarithmic_potential(2.0)),
             ("obstacle", obstacle_potential()))
    eps_ladder = (0.8, 0.4, 0.2, 0.1, 0.05, 0.025)

    exact_zero = all(yosida_derivative(pot, eps, 0.0) == 0.0
                     for _, pot in kinds for eps in eps_ladder)

    lipschitz = True
    for _, pot in kinds:
        for eps in (0.5, 0.1, 0.05):
            a = rng.uniform(-2.0, 2.0, 10_000)
            b = rng.uniform(-2.0, 2.0, 10_000)
            diff = np.abs(yosida_derivative(pot, eps, a)
                          - yosida_derivative(pot, eps, b))
            bound = np.abs(a - b) / eps * (1.0 + 1e-12) + 1e-14
            lipschitz &= bool(np.all(diff <= bound))

    prox_worst = 0.0
    for name, pot in kinds:
        for eps in (0.5, 0.1, 0.05):
            for r in rng.uniform(-2.0, 2.0, 25):
                if name == "obstacle":
                    # constrained quadratic: the minimizer is the projection
                    ref = float(np.clip(r, -1.0, 1.0))
                else:
                    def g(s, eps=eps, r=r):
                        return (eps * float(_f1_eval(pot, np.array([s]), 1)[0])
                                + s - r)
                    lo, hi = ((-1 + 1e-14, 1 - 1e-14)
                              if name == "logarithmic" else (-5.0, 5.0))
                    ref = brentq(g, lo, hi, xtol=1e-16, rtol=8.9e-16)
                prox_worst = max(prox_worst,
                                 abs(float(prox_f1(pot, eps, r)) - ref))

    monotone = True
    r = np.linspace(-2.0, 2.0, 100)
    for _, pot in kinds:
        prev = None
        for eps in eps_ladder:
            vals = np.abs(yosida_derivative(pot, eps, r))
            if prev is not None:
                monotone &= bool(np.all(vals >= prev - 1e-12))
            prev = vals

    ok = exact_zero and lipschitz and prox_worst <= 1e-10 and monotone
    _emit(5, "regularized potential: exactness, Lipschitz bound, prox oracle, "
          "monotone convergence", ok,
          f"prox vs oracle = {prox_worst:.3e}, zero exact = {exact_zero}, "
          f"Lipschitz = {lipschitz}, monotone = {monotone}")


def test_criterion_06_gradient_exactness(canonical):
    pr = make_problem(**DESK)
    ubar = smooth_control(pr, amp=0.1)
    dual_coupled = check_duality(pr, ubar, seed=0)
    dual_canonical = check_duality(canonical.problem,
                                   canonical.initial_control, seed=0)
    rep = check_gradient_fd(pr, ubar, n_dirs=10, seed=0,
                            eps_values=(1e-2, 3e-3, 1e-3),
                            search_values=(1e-4, 1e-5))
    worst = rep.details["worst_best_rel_error"]
    ok = (dual_coupled <= 1e-10 and dual_canonical <= 1e-10
          and worst <= 1e-8)
    _emit(6, "duality residual and FD agreement of the adjoint gradient", ok,
          f"duality = {dual_coupled:.3e}/{dual_canonical:.3e}, "
          f"worst best FD rel error over 10 directions = {worst:.3e}")


def test_criterion_07_taylor_orders():
    pr = make_problem(**DESK)
    ubar = smooth_control(pr, amp=0.1)
    v = _unit_smooth(pr, 1.0, 0.6)
    h = _unit_smooth(pr, 0.5, -1.0)
    state, ds, cost = check_taylor_orders(pr, ubar, v=v, h=h)
    ok = state.passed and ds.passed and cost.passed
    _emit(7, "remainder slopes of the first and second order expansions", ok,
          f"state = {state.fitted_slope:.3f}, increment = "
          f"{ds.fitted_slope:.3f}, cost = {cost.fitted_slope:.3f}")


def test_criterion_08_bilinear_form():
    pr = make_problem(**DESK)
    ubar = smooth_control(pr, amp=0.1)
    ctx = SecondOrderContext(pr, ubar)
    h = _unit_smooth(pr, 0.5, -1.0)
    k = _unit_smooth(pr, 1.0, 0.6)
    bhh, bkk = ctx.form(h, h), ctx.form(k, k)
    sym_gap = abs(ctx.form(h, k) - ctx.form(k, h))
    sym_ok = sym_gap <= 1e-10 * max(1.0, abs(bhh), abs(bkk))

    dec = make_problem(**DESK, coupling="none", b0=0.8, b1=2.0)
    udec = random_control(dec, seed=3)
    hdec = random_control(dec, seed=4)
    dctx = SecondOrderContext(dec, udec)
    lin = dctx.linearize(hdec)
    closed = (0.8 * control_inner(dec.grid, dec.tgrid, hdec, hdec)
              + 2.0 * st_inner(dec.grid, dec.tgrid, lin.xi, lin.xi))
    val = dctx.form(hdec, hdec)
    dec_rel = abs(val - closed) / max(1.0, abs(closed))

    j0 = cost_eval(ctx.state, ubar, pr.cost, pr.grid, pr.tgrid)

    def second_diff(e):
        vals = []
        for s in (e, -e):
            us = Control(ubar.u1 + s * h.u1, ubar.u2 + s * h.u2)
            vals.append(cost_eval(pr.solve(us), us, pr.cost, pr.grid,
                                  pr.tgrid))
        return (vals[0] - 2.0 * j0 + vals[1]) / e**2

    eps = 2e-2
    extrap = (4.0 * second_diff(eps / 2.0) - second_diff(eps)) / 3.0
    fd_rel = abs(extrap - bhh) / max(1.0, abs(bhh))

    ok = sym_ok and dec_rel <= 1e-12 and fd_rel <= 1e-5
    _emit(8, "curvature form: symmetry, decoupled closed form, FD agreement",
          ok, f"symmetry gap = {sym_gap:.3e}, decoupled rel = {dec_rel:.3e}, "
          f"FD rel = {fd_rel:.3e}")


def test_criterion_09_optimality_machinery(canonical):
    pure = make_problem(**DESK, b0=2.0, b1=0.0, b2=0.0, tracking=False)
    box = BoxConstraints(lower1=0.1, upper1=0.5, lower2=-0.5, upper2=-0.2)
    shape = (pure.n_levels, pure.grid.n)
    u0 = Control(np.full(shape, 0.45), np.full(shape, -0.45))
    res = projected_gradient(u0, pure, box, PgdOptions(max_iter=30, tol=1e-12))
    dev = max(float(np.abs(res.control.u1 - 0.1).max()),
              float(np.abs(res.control.u2 + 0.2).max()))
    pure_ok = res.converged and dev <= 1e-10

    pr = canonical.problem
    tbox = BoxConstraints(lower1=-0.3, upper1=0.3, lower2=-0.3, upper2=0.3)
    track = projected_gradient(pr.zero_control(), pr, tbox,
                               PgdOptions(max_iter=60, tol=5e-7))
    costs = [h["cost"] for h in track.history]
    monotone = all(b <= a + 1e-14 * max(1.0, abs(a))
                   for a, b in zip(costs, costs[1:]))
    g = track.gradient
    fp = project_admissible(Control(-g.d1 / pr.cost.b0, -g.d2 / pr.cost.b0),
                            tbox)
    gap = control_norm(pr.grid, pr.tgrid,
                       Control(track.control.u1 - fp.u1,
                               track.control.u2 - fp.u2))
    track_ok = monotone and track.stationarity <= 1e-6 and gap <= 1e-6

    _emit(9, "projected descent: projected origin, monotonicity, fixed point",
          pure_ok and track_ok,
          f"origin deviation = {dev:.3e}, stationarity = "
          f"{track.stationarity:.3e}, fixed point gap = {gap:.3e}")


def test_criterion_10_ssc_sampling(canonical):
    dec = make_problem(**DESK, coupling="none", b0=0.9, b1=0.0, b2=0.0,
                       tracking=False)
    box = BoxConstraints(lower1=0.0, upper1=0.5, lower2=-0.5, upper2=0.5)
    ubar = dec.zero_control()
    ctx = SecondOrderContext(dec, ubar)
    sets = strongly_active_sets(ctx.gradient, 0.0)
    rng = np.random.default_rng(1)
    shape = (dec.n_levels, dec.grid.n)
    worst = 0.0
    for _ in range(16):
        raw = Control(rng.standard_normal(shape), rng.standard_normal(shape))
        hdir = cone_project(raw, ubar, box, sets)
        nrm = control_norm(dec.grid, dec.tgrid, hdir)
        q = ctx.form(hdir, hdir) / nrm**2
        worst = max(worst, abs(q - 0.9) / 0.9)
    rep = ssc_certificate(ubar, None, 16, dec, box, seed=0, context=ctx)
    dec_ok = (worst <= 1e-12
              and abs(rep.min_rayleigh - 0.9) / 0.9 <= 1e-12)

    pr = canonical.problem
    a = ssc_certificate(canonical.initial_control, None, 64, pr,
                        canonical.box, seed=0)
    b = ssc_certificate(canonical.initial_control, None, 64, pr,
                        canonical.box, seed=0)
    canon_ok = (a.requested_samples == 64 and a.sample_count == 64
                and np.isfinite(a.min_rayleigh) and a == b)

    _emit(10, "sampled curvature certificate on the critical cone",
          dec_ok and canon_ok,
          f"decoupled Rayleigh dev = {worst:.3e}, canonical min = "
          f"{a.min_rayleigh:.6f} over {a.sample_count} samples, "
          f"reproducible = {a == b}")


def test_criterion_11_stability_ratios():
    pr = make_problem(**DESK)
    rep = check_stability_ratios(pr, n_pairs=2, seed=0)
    _emit(11, "empirical stability ratios under one (dt, h) refinement",
          rep.passed and rep.max_change_factor < 2.0,
          f"max change factor = {rep.max_change_factor:.3f}, "
          f"homogeneity = {rep.homogeneity_error:.1e}")
