"""Forward solver: invariants, reductions, and failure modes."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from tumoropt import (Control, CostSpec, InitialData, ModelParams,
                      SecondOrderContext, SeparationViolation, SolverError,
                      SolverOptions, TimeGrid, build_grid, bump_shape,
                      make_nonlinearity, potential_eval, ramp_shape,
                      regular_potential, solve_state)
from tumoropt import state
from tumoropt.problem import ControlProblem
from tumoropt.state import _newton_step
from tumoropt.stepper import Stepper

from _support import (energy_by_level, make_problem, mass_defect_by_level,
                      random_control, smooth_control)


def _with_zero_data(problem: ControlProblem) -> ControlProblem:
    n = problem.grid.n
    z = np.zeros(n)
    return dataclasses.replace(
        problem, init=InitialData(z.copy(), z.copy(), z.copy()),
        cost=CostSpec(b0=problem.cost.b0))


def test_zero_data_is_bitwise_fixed_point():
    # with chi = 0 and P = h = 0 the zero state solves every step exactly
    pr = _with_zero_data(make_problem(coupling="none", chi=0.0))
    traj = pr.solve(pr.zero_control())
    assert np.all(traj.mu == 0.0)
    assert np.all(traj.phi == 0.0)
    assert np.all(traj.sigma == 0.0)
    assert np.all(traj.newton_iters <= 1)


def test_chemotaxis_source_breaks_zero_fixed_point():
    # P(0) m(0) = P(0) chi != 0, so the zero state is not stationary
    pr = _with_zero_data(make_problem(chi=0.4))
    traj = pr.solve(pr.zero_control())
    assert np.abs(traj.phi[-1]).max() > 1e-8


@pytest.mark.parametrize("potential", ["regular", "logarithmic"])
def test_mass_identity_1d(potential, rng):
    pr = make_problem(potential=potential, steps=12)
    u = random_control(pr, seed=3, amp=0.2)
    traj = pr.solve(u)
    assert traj.mass_residual[1:].max() <= 1e-10


def test_mass_identity_2d():
    grid = build_grid(2, [9, 9], [1.0, 1.0])
    tgrid = TimeGrid(steps=6, t_final=0.3)
    params = ModelParams(alpha=1.0, beta=0.8, chi=0.3, T=0.3)
    nonlin = make_nonlinearity(bump_shape(0.5, 0.0, 1.0), ramp_shape())
    xy = grid.coordinates()
    init = InitialData(
        mu0=0.05 * np.cos(np.pi * xy[:, 0]),
        phi0=0.2 * np.cos(np.pi * xy[:, 0]) * np.cos(np.pi * xy[:, 1]),
        sigma0=np.full(grid.n, 0.1))
    rng = np.random.default_rng(7)
    u = Control(0.1 * rng.standard_normal((7, grid.n)),
                0.1 * rng.standard_normal((7, grid.n)))
    problem = ControlProblem(grid=grid, tgrid=tgrid, params=params,
                             potential=regular_potential(), nonlin=nonlin,
                             cost=CostSpec(b0=1.0), init=init)
    traj = solve_state(problem, u)
    assert traj.mass_residual[1:].max() <= 1e-10


def _constant_problem(potential: str, steps: int) -> ControlProblem:
    pr = make_problem(nodes=5, steps=steps, t_final=0.4, potential=potential,
                      alpha=1.2, beta=0.9, chi=0.3)
    n = pr.grid.n
    init = InitialData(mu0=np.full(n, 0.05), phi0=np.full(n, 0.2),
                       sigma0=np.full(n, 0.1))
    return dataclasses.replace(pr, init=init)


def _ode_reference(pr: ControlProblem, u1: float, u2: float) -> np.ndarray:
    """Space-constant fields reduce the scheme to a 3-component ODE."""
    pot, nl, p = pr.potential, pr.nonlin, pr.params

    def rhs(_t, y):
        mu, phi, sig = y
        m = sig + p.chi * (1.0 - phi) - mu
        r = np.array([phi])
        growth = float(nl.eval("P", r)[0]) * m
        dphi = (mu + p.chi * sig - float(potential_eval(pot, phi, 1))) / p.beta
        dmu = (growth - float(nl.eval("h", r)[0]) * u1 - dphi) / p.alpha
        dsig = -growth + u2
        return [dmu, dphi, dsig]

    sol = solve_ivp(rhs, (0.0, p.T), [0.05, 0.2, 0.1], rtol=1e-12, atol=1e-14,
                    dense_output=False, t_eval=[p.T])
    return sol.y[:, -1]


@pytest.mark.parametrize("potential", ["regular", "logarithmic"])
def test_constant_data_reduces_to_ode(potential):
    u1v, u2v = 0.15, -0.1
    finals = {}
    for steps in (64, 128):
        pr = _constant_problem(potential, steps)
        shape = (pr.n_levels, pr.grid.n)
        u = Control(np.full(shape, u1v), np.full(shape, u2v))
        traj = pr.solve(u)
        # spatial constancy is preserved (Laplacian of constants vanishes)
        assert max(np.ptp(traj.mu[-1]), np.ptp(traj.phi[-1]),
                   np.ptp(traj.sigma[-1])) < 1e-12
        finals[steps] = np.array([traj.mu[-1, 0], traj.phi[-1, 0],
                                  traj.sigma[-1, 0]])
    ref = _ode_reference(_constant_problem(potential, 64), u1v, u2v)
    err_coarse = np.abs(finals[64] - ref).max()
    err_fine = np.abs(finals[128] - ref).max()
    # first order in dt, so halving dt roughly halves the error
    assert 1.6 < err_coarse / err_fine < 2.4
    richardson = 2.0 * finals[128] - finals[64]
    assert np.abs(richardson - ref).max() < 1e-5


def test_separation_logarithmic(rng):
    pr = make_problem(potential="logarithmic", steps=10)
    traj = pr.solve(random_control(pr, seed=5, amp=0.3))
    lo, hi = traj.phi_min.min(), traj.phi_max.max()
    assert lo > -1.0
    assert hi < 1.0
    assert min(lo + 1.0, 1.0 - hi) > 1e-3
    assert traj.phi_min.shape == (pr.n_levels,)
    assert np.array_equal(traj.phi_min, traj.phi.min(axis=1))
    assert np.array_equal(traj.phi_max, traj.phi.max(axis=1))


def test_separation_report_zero_state():
    pr = _with_zero_data(make_problem(coupling="none", chi=0.0))
    traj = pr.solve(pr.zero_control())
    assert np.all(traj.phi_min == 0.0) and np.all(traj.phi_max == 0.0)


def test_initial_data_on_log_boundary_rejected():
    pr = make_problem(potential="logarithmic")
    n = pr.grid.n
    bad = InitialData(np.zeros(n), np.ones(n), np.zeros(n))
    with pytest.raises(SeparationViolation):
        dataclasses.replace(pr, init=bad).solve(pr.zero_control())


def test_initial_data_outside_obstacle_range_rejected():
    from tumoropt import obstacle_potential
    pr = make_problem(yosida_eps=0.1)
    pr = dataclasses.replace(
        pr, potential=obstacle_potential(),
        init=InitialData(np.zeros(pr.grid.n), np.full(pr.grid.n, 1.5),
                         np.zeros(pr.grid.n)))
    with pytest.raises(SeparationViolation):
        pr.solve(pr.zero_control())


@pytest.mark.parametrize("yosida_eps,ny", [(None, None), (0.1, None),
                                            (None, 5)],
                         ids=["exact", "yosida", "2d"])
def test_trajectory_energy_is_free_energy_per_level(yosida_eps, ny):
    # the history sums run in another order than one `inner` per level, and a
    # vectorized prox iterates until its worst entry converges: round-off only
    pr = make_problem(steps=6, yosida_eps=yosida_eps, ny=ny)
    u = smooth_control(pr)
    traj = pr.solve(u)
    assert traj.energy.shape == traj.mass_residual.shape == (pr.n_levels,)
    assert traj.mass_residual[0] == 0.0
    for k in range(pr.n_levels):
        ref = energy_by_level(pr.stepper, traj.x[k])
        assert abs(traj.energy[k] - ref) <= 1e-14 * max(abs(ref), 1.0)
    for k in range(1, pr.n_levels):
        ref = mass_defect_by_level(pr.stepper, traj, u, k)
        assert abs(traj.mass_residual[k] - ref) <= 1e-14


def test_trajectory_fields_are_views_of_the_stacked_histories():
    pr = make_problem(steps=4)
    ctx = SecondOrderContext(pr, smooth_control(pr))
    traj, adj = ctx.state, ctx.adjoint
    lin = ctx.linearize(smooth_control(pr, amp=0.5))
    n = pr.grid.n
    # level k is stacked as (mu, phi, sigma); level 0 is the initial data
    assert np.array_equal(traj.x[0], np.concatenate(
        [pr.init.mu0, pr.init.phi0, pr.init.sigma0]))
    assert np.array_equal(traj.phi_min, traj.x[:, n:2 * n].min(axis=1))
    for obj, stacked, names in ((traj, traj.x, ("mu", "phi", "sigma")),
                                (lin, lin.y, ("eta", "xi", "theta")),
                                (adj, adj.lam, ("p", "q", "r"))):
        assert stacked.shape == (pr.n_levels, 3 * n)
        for i, name in enumerate(names):
            view = getattr(obj, name)
            assert view.shape == (pr.n_levels, n)
            assert np.shares_memory(view, stacked)
            assert np.array_equal(view, stacked[:, i * n:(i + 1) * n])
    # a write through a view lands in the stacked history
    traj.sigma[2, 1] = 7.0
    assert traj.x[2, 2 * n + 1] == 7.0


def test_energy_blowup_raises_during_march():
    pr = make_problem(steps=6, energy_blowup_factor=1e-16)
    with pytest.raises(SolverError, match="energy"):
        pr.solve(smooth_control(pr))


def test_earlier_energy_blowup_wins_over_later_newton_failure(monkeypatch):
    newton = state._newton_step

    def failing_at_step_4(*args, **kwargs):
        if args[5] == 4:
            raise SolverError("step 4: Newton stalled")
        return newton(*args, **kwargs)

    monkeypatch.setattr(state, "_newton_step", failing_at_step_4)
    pr = make_problem(steps=6, energy_blowup_factor=1e-16)
    with pytest.raises(SolverError, match=r"energy .* at step 1 "):
        pr.solve(smooth_control(pr))


def test_self_convergence_first_order():
    errs = []
    runs = {}
    for steps in (8, 16, 32):
        pr = make_problem(steps=steps, t_final=0.5)
        runs[steps] = pr.solve(smooth_control(pr)).phi[-1]
    for steps in (8, 16):
        errs.append(np.abs(runs[steps] - runs[32]).max())
    # e(dt) ~ C dt against a common reference: ratio near (1/8)/(3/16) etc.
    # compare successive-difference ratio instead, which targets 2
    d1 = np.abs(runs[8] - runs[16]).max()
    d2 = np.abs(runs[16] - runs[32]).max()
    assert 1.6 < d1 / d2 < 2.6
    assert errs[0] > errs[1]


def test_newton_budget_exhaustion_raises():
    pr = make_problem(newton_max_iter=1, steps=4)
    with pytest.raises(SolverError, match="Newton"):
        pr.solve(smooth_control(pr, amp=0.5))


def _counting(monkeypatch, name):
    """Patch a Stepper method to log each call; returns the original and
    the call log."""
    original = getattr(Stepper, name)
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(None)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Stepper, name, counted)
    return original, calls


def test_polish_tries_the_full_step_once(monkeypatch):
    pr = make_problem(potential="logarithmic", steps=8)
    u = smooth_control(pr, amp=0.4)
    stepper = pr.stepper
    assert stepper.separation_guard
    residual, calls = _counting(monkeypatch, "residual")
    _, lu_calls = _counting(monkeypatch, "factorize")
    traj = pr.solve(u)
    for k in range(1, pr.n_levels):
        x_prev = traj.x[k - 1]
        runs = {}
        for polish in (0, 1, 4):
            calls.clear()
            lu_calls.clear()
            x, iters, lus = _newton_step(
                stepper, x_prev, u.u1[k], u.u2[k],
                SolverOptions(polish_steps=polish), k)
            assert lus == len(lu_calls)
            rnorm = np.abs(residual(stepper, x, x_prev, u.u1[k],
                                    u.u2[k])).max()
            runs[polish] = (len(calls), iters, rnorm, lus)
        calls0, iters0, rnorm0, lus0 = runs[0]
        assert runs[1][1] == iters0 + 1
        assert lus0 == iters0
        for polish in (1, 4):
            # each polish iteration costs exactly one residual evaluation
            assert runs[polish][0] - calls0 == runs[polish][1] - iters0
            # and no factorization: it reuses the last Newton LU
            assert runs[polish][3] == max(lus0, 1)
        assert runs[1][2] <= rnorm0
        # a start that already meets the tolerance factors once, to polish
        lu_calls.clear()
        _, iters, lus = _newton_step(stepper, x_prev, u.u1[k], u.u2[k],
                                     SolverOptions(polish_steps=4), k,
                                     start=traj.x[k])
        assert lus == len(lu_calls) == 1
        assert 1 <= iters <= 4
    assert traj.mass_residual.max() <= 1e-12


def _predictor_case(potential):
    """Problem, control, x_prev and k for a step in the middle of a run."""
    pr = make_problem(potential=potential, steps=8)
    u = smooth_control(pr, amp=0.4)
    k = 4
    return pr, u, pr.solve(u).x[k - 1], k


def _step_from(pr, u, x_prev, k, start):
    return _newton_step(pr.stepper, x_prev, u.u1[k], u.u2[k], pr.options, k,
                        start=start)


def test_predictor_outside_separation_interval_falls_back(monkeypatch):
    pr, u, x_prev, k = _predictor_case("logarithmic")
    assert pr.stepper.separation_guard
    _, hi = pr.potential.domain
    n = pr.grid.n
    guess = x_prev.copy()
    # one node inside (hi - margin, hi): admissible, but too close to +1
    guess[n + n // 2] = hi - 0.5 * pr.options.separation_margin
    _, calls = _counting(monkeypatch, "residual")
    x_ref, iters_ref, lus_ref = _step_from(pr, u, x_prev, k, None)
    ref_calls = len(calls)
    calls.clear()
    x, iters, lus = _step_from(pr, u, x_prev, k, guess)
    # the guess is dropped without a residual evaluation: same solve
    assert len(calls) == ref_calls
    assert (iters, lus) == (iters_ref, lus_ref)
    assert np.array_equal(x, x_ref)
    res = pr.stepper.residual(x, x_prev, u.u1[k], u.u2[k])
    assert np.abs(res).max() <= (pr.options.newton_tol * pr.stepper.coef_scale
                                 * (1.0 + np.abs(x).max()))


def test_predictor_with_non_finite_residual_falls_back(monkeypatch):
    pr, u, x_prev, k = _predictor_case("regular")
    assert not pr.stepper.separation_guard
    guess = x_prev.copy()
    guess[0] = np.nan
    _, calls = _counting(monkeypatch, "residual")
    x_ref, iters_ref, lus_ref = _step_from(pr, u, x_prev, k, None)
    ref_calls = len(calls)
    calls.clear()
    x, iters, lus = _step_from(pr, u, x_prev, k, guess)
    # one residual at the guess, then the solve from x_prev
    assert len(calls) == ref_calls + 1
    assert (iters, lus) == (iters_ref, lus_ref)
    assert np.array_equal(x, x_ref)


def _obstacle_yosida_problem() -> ControlProblem:
    from tumoropt import obstacle_potential
    pr = make_problem(steps=60, t_final=0.3, yosida_eps=0.05)
    return dataclasses.replace(pr, potential=obstacle_potential())


def _log_2d_problem() -> ControlProblem:
    from tumoropt import logarithmic_potential
    grid = build_grid(2, [9, 9], [1.0, 1.0])
    xy = grid.coordinates()
    init = InitialData(
        mu0=0.05 * np.cos(np.pi * xy[:, 0]),
        phi0=0.2 * np.cos(np.pi * xy[:, 0]) * np.cos(np.pi * xy[:, 1]),
        sigma0=np.full(grid.n, 0.1))
    return ControlProblem(
        grid=grid, tgrid=TimeGrid(steps=40, t_final=0.1),
        params=ModelParams(alpha=1.0, beta=0.8, chi=0.3, T=0.1),
        potential=logarithmic_potential(),
        nonlin=make_nonlinearity(bump_shape(0.5, 0.0, 1.0), ramp_shape()),
        cost=CostSpec(b0=1.0), init=init)


ORACLE_CASES = {
    "log-1d": lambda: make_problem(potential="logarithmic", steps=60,
                                   t_final=0.3),
    "regular-1d": lambda: make_problem(potential="regular", steps=60,
                                       t_final=0.3),
    "obstacle-yosida-1d": _obstacle_yosida_problem,
    "log-2d": _log_2d_problem,
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_predicted_march_matches_march_from_previous_level(case):
    pr = ORACLE_CASES[case]()
    u = smooth_control(pr, amp=0.4)
    traj = pr.solve(u)
    # oracle: every step starts Newton at the previous level
    x = pr.init.stacked()
    oracle = [x]
    oracle_iters = 0
    for k in range(1, pr.n_levels):
        x, iters, _ = _newton_step(pr.stepper, x, u.u1[k], u.u2[k],
                                   pr.options, k)
        oracle.append(x)
        oracle_iters += iters
    # the predictor is in play: it saves iterations over the oracle
    assert traj.newton_iters.sum() < oracle_iters
    oracle = np.stack(oracle)
    # both solves end at the round-off floor of the same step equations
    assert np.abs(traj.x - oracle).max() <= 1e-12 * np.abs(oracle).max()
    assert traj.mass_residual[1:].max() <= 1e-13
    assert np.all(traj.factorizations[1:] >= 1)
    assert traj.factorizations[0] == 0


def test_non_finite_control_is_solver_error():
    pr = make_problem(steps=4)
    u = smooth_control(pr)
    u.u1[2, 3] = np.nan
    with pytest.raises(SolverError, match="step 2: non-finite"):
        pr.solve(u)


def test_control_shape_mismatch_rejected():
    pr = make_problem()
    bad = Control(np.zeros((3, pr.grid.n)), np.zeros((3, pr.grid.n)))
    with pytest.raises(ValueError, match="control"):
        pr.solve(bad)


def test_newton_converges_fast_on_smooth_data():
    pr = make_problem(potential="logarithmic", steps=10)
    traj = pr.solve(smooth_control(pr))
    assert traj.newton_iters[1:].max() <= 8
    assert traj.mass_residual.max() <= 1e-10


def test_timegrid_validation():
    with pytest.raises(ValueError):
        TimeGrid(steps=0, t_final=1.0)
    with pytest.raises(ValueError):
        TimeGrid(steps=5, t_final=-1.0)
    tg = TimeGrid(steps=4, t_final=1.0)
    assert tg.dt == 0.25
    assert tg.weights().sum() == pytest.approx(1.0)
    assert tg.weights()[0] == pytest.approx(0.125)
