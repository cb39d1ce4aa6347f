"""Forward solver: invariants, reductions, and failure modes."""

import dataclasses
import hashlib
import re
import warnings

import numpy as np
import pytest

from tumoropt import (Control, CostSpec, InitialData, ModelParams,
                      SecondOrderContext, SeparationViolation, SolverError,
                      NonlinearitySpec, PotentialSpec, ScalarShape, TimeGrid,
                      build_grid, solve_state, solve_states)
from tumoropt import state
from tumoropt import stepper as stepper_module
from tumoropt.problem import ControlProblem
from tumoropt.stepper import Stepper

from _support import (CarriedLU, _inside_margin, energy_by_level, lu_at,
                      make_problem, mass_defect_by_level, newton_step,
                      ode_reduction_reference, random_control,
                      smooth_control, solve_states_per_member,
                      step_ceiling_two_pass)


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
    params = ModelParams(alpha=1.0, beta=0.8, chi=0.3)
    nonlin = NonlinearitySpec(
        ScalarShape("bump", scale=0.5, center=0.0, width=1.0),
        ScalarShape("ramp"))
    xy = grid.coordinates()
    init = InitialData(
        mu0=0.05 * np.cos(np.pi * xy[:, 0]),
        phi0=0.2 * np.cos(np.pi * xy[:, 0]) * np.cos(np.pi * xy[:, 1]),
        sigma0=np.full(grid.n, 0.1))
    rng = np.random.default_rng(7)
    u = Control([0.1 * rng.standard_normal((7, grid.n)),
                 0.1 * rng.standard_normal((7, grid.n))])
    problem = ControlProblem(grid=grid, tgrid=tgrid, params=params,
                             potential=PotentialSpec("regular"), nonlin=nonlin,
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


@pytest.mark.parametrize("potential", ["regular", "logarithmic"])
def test_constant_data_reduces_to_ode(potential):
    u1v, u2v = 0.15, -0.1
    finals = {}
    for steps in (64, 128):
        pr = _constant_problem(potential, steps)
        shape = (pr.n_levels, pr.grid.n)
        u = Control([np.full(shape, u1v), np.full(shape, u2v)])
        traj = pr.solve(u)
        # spatial constancy is preserved (Laplacian of constants vanishes)
        assert max(np.ptp(traj.mu[-1]), np.ptp(traj.phi[-1]),
                   np.ptp(traj.sigma[-1])) < 1e-12
        finals[steps] = np.array([traj.mu[-1, 0], traj.phi[-1, 0],
                                  traj.sigma[-1, 0]])
    ref = ode_reduction_reference(_constant_problem(potential, 64),
                                  lambda t: u1v, lambda t: u2v,
                                  rtol=1e-12, atol=1e-14)
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
    pr = make_problem(yosida_eps=0.1)
    pr = dataclasses.replace(
        pr, potential=PotentialSpec("obstacle", yosida_eps=0.1),
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


@pytest.mark.parametrize("dim", [1, 2])
def test_final_residual_is_the_residual_at_each_accepted_state(dim):
    pr = (make_problem(potential="logarithmic", steps=8) if dim == 1
          else _problem_2d("logarithmic", steps=8))
    u = smooth_control(pr, amp=0.4)
    traj = pr.solve(u)
    x, stepper = traj.x, pr.stepper
    assert traj.final_residual[0] == 0.0
    for k in range(1, pr.n_levels):
        res = stepper.residual(x[k], x[k - 1], u.u1[k], u.u2[k])
        assert traj.final_residual[k] == np.abs(res).max(), f"step {k}"


def test_energy_blowup_raises_during_march(monkeypatch):
    monkeypatch.setattr(state, "_ENERGY_BLOWUP_FACTOR", 1e-16)
    pr = make_problem(steps=6)
    with pytest.raises(SolverError, match="energy"):
        pr.solve(smooth_control(pr))


def test_earlier_energy_blowup_wins_over_later_newton_failure(monkeypatch):
    pr = make_problem(steps=6)
    u = smooth_control(pr)
    residual, fired = Stepper.residual, []

    def failing_at_step_4(self, x, x_prev, u1k, u2k):
        # every residual of step 4 is NaN, so its Newton step fails
        if np.array_equal(u1k, u.u1[4]):
            fired.append(None)
            return np.full_like(x, np.nan)
        return residual(self, x, x_prev, u1k, u2k)

    monkeypatch.setattr(Stepper, "residual", failing_at_step_4)
    # without the energy limit the injected failure is the error
    with pytest.raises(SolverError, match="^step 4: non-finite"):
        pr.solve(u)
    fired.clear()
    monkeypatch.setattr(state, "_ENERGY_BLOWUP_FACTOR", 1e-16)
    with pytest.raises(SolverError, match=r"energy .* at step 1 "):
        pr.solve(u)
    assert fired, "the step-4 failure was never injected"


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


def test_newton_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(state, "_NEWTON_MAX_ITER", 1)
    pr = make_problem(steps=4)
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
    assert stepper.potential.guarded
    residual, calls = _counting(monkeypatch, "residual")
    _, lu_calls = _counting(monkeypatch, "factorize")
    traj = pr.solve(u)
    for k in range(1, pr.n_levels):
        x_prev = traj.x[k - 1]
        runs = {}
        for polish in (0, 1, 4):
            calls.clear()
            lu_calls.clear()
            monkeypatch.setattr(state, "_POLISH_STEPS", polish)
            x, iters, lus = newton_step(stepper, x_prev, u.u1[k], u.u2[k], k)
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
        monkeypatch.setattr(state, "_POLISH_STEPS", 4)
        _, iters, lus = newton_step(stepper, x_prev, u.u1[k], u.u2[k], k,
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
    return newton_step(pr.stepper, x_prev, u.u1[k], u.u2[k], k, start=start)


def test_predictor_outside_separation_interval_falls_back(monkeypatch):
    pr, u, x_prev, k = _predictor_case("logarithmic")
    assert pr.stepper.potential.guarded
    _, hi = pr.potential.domain
    n = pr.grid.n
    guess = x_prev.copy()
    # one node inside (hi - margin, hi): admissible, but too close to +1
    guess[n + n // 2] = hi - 0.5 * state._SEPARATION_MARGIN
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
    assert np.abs(res).max() <= (state._NEWTON_TOL * pr.stepper.coef_scale
                                 * (1.0 + np.abs(x).max()))


def test_predictor_with_non_finite_residual_falls_back(monkeypatch):
    pr, u, x_prev, k = _predictor_case("regular")
    assert not pr.stepper.potential.guarded
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
    return make_problem(potential="obstacle", steps=60, t_final=0.3,
                        yosida_eps=0.05)


def _problem_2d(potential="logarithmic", yosida_eps=None,
                steps=40) -> ControlProblem:
    """9x9 problem on the unit square whose initial data vary in x and y."""
    grid = build_grid(2, [9, 9], [1.0, 1.0])
    xy = grid.coordinates()
    init = InitialData(
        mu0=0.05 * np.cos(np.pi * xy[:, 0]),
        phi0=0.2 * np.cos(np.pi * xy[:, 0]) * np.cos(np.pi * xy[:, 1]),
        sigma0=np.full(grid.n, 0.1))
    return ControlProblem(
        grid=grid, tgrid=TimeGrid(steps=steps, t_final=0.1),
        params=ModelParams(alpha=1.0, beta=0.8, chi=0.3),
        potential=PotentialSpec(potential, yosida_eps=yosida_eps),
        nonlin=NonlinearitySpec(
            ScalarShape("bump", scale=0.5, center=0.0, width=1.0),
            ScalarShape("ramp")),
        cost=CostSpec(b0=1.0), init=init)


ORACLE_CASES = {
    "log-1d": lambda: make_problem(potential="logarithmic", steps=60,
                                   t_final=0.3),
    "regular-1d": lambda: make_problem(potential="regular", steps=60,
                                       t_final=0.3),
    "obstacle-yosida-1d": _obstacle_yosida_problem,
    "log-2d": _problem_2d,
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_predicted_march_matches_march_from_previous_level(case):
    pr = ORACLE_CASES[case]()
    u = smooth_control(pr, amp=0.4)
    traj = pr.solve(u)
    # oracle: every step starts Newton at the previous level and factors at
    # every Newton iteration
    x = pr.init.stacked()
    oracle = [x]
    oracle_iters = oracle_lus = 0
    for k in range(1, pr.n_levels):
        x, iters, lus = newton_step(pr.stepper, x, u.u1[k], u.u2[k], k)
        oracle.append(x)
        oracle_iters += iters
        oracle_lus += lus
    if pr.stepper.superlu:
        # the 2-D march carries one LU across iterations and steps: it takes
        # more (chord) iterations but forms fewer LUs, and forms one on
        # step 1 at least, where there is no LU to carry yet
        assert traj.factorizations.sum() < oracle_lus
        assert traj.factorizations[1] >= 1
    else:
        # the predictor is in play: it saves iterations over the oracle
        assert traj.newton_iters.sum() < oracle_iters
        assert np.all(traj.factorizations[1:] >= 1)
    oracle = np.stack(oracle)
    # both solves end at the round-off floor of the same step equations
    assert np.abs(traj.x - oracle).max() <= 1e-12 * np.abs(oracle).max()
    assert traj.mass_residual[1:].max() <= 1e-13
    assert traj.factorizations[0] == 0


def _per_iteration_march(pr, u):
    """The march of `solve_state`, predictor included, with an LU at every
    Newton iteration and none carried between iterations or steps."""
    x = np.empty((pr.n_levels, 3 * pr.grid.n))
    iters = np.zeros(pr.n_levels, dtype=int)
    lus = np.zeros(pr.n_levels, dtype=int)
    x[0] = pr.init.stacked()
    for k in range(1, pr.n_levels):
        guess = None if k == 1 else 2.0 * x[k - 1] - x[k - 2]
        x[k], iters[k], lus[k] = newton_step(
            pr.stepper, x[k - 1], u.u1[k], u.u2[k], k, start=guess)
    return x, iters, lus


def _assert_levels_agree(x, ref, rtol=1e-12):
    """Every level of x within rtol of ref, relative to ref's largest entry;
    a failure names the first step off."""
    scale = np.abs(ref).max()
    for k in range(1, len(ref)):
        err = np.abs(x[k] - ref[k]).max()
        assert err <= rtol * scale, (
            f"step {k}: off by {err:.2e} relative to {scale:.2e}")


CHORD_CASES = {
    "regular": lambda: _problem_2d("regular", steps=20),
    "logarithmic": lambda: _problem_2d("logarithmic", steps=20),
    "obstacle-yosida": lambda: _problem_2d("obstacle", yosida_eps=0.05,
                                           steps=20),
}


@pytest.mark.parametrize("case", sorted(CHORD_CASES))
def test_2d_chord_march_matches_per_iteration_newton(case):
    pr = CHORD_CASES[case]()
    assert pr.stepper.superlu
    u = smooth_control(pr, amp=0.4)
    traj = pr.solve(u)
    ref, ref_iters, ref_lus = _per_iteration_march(pr, u)
    _assert_levels_agree(traj.x, ref)
    assert traj.mass_residual[1:].max() <= 1e-13
    # chord iterations replace LUs: one LU serves many steps
    assert 1 <= traj.factorizations.sum() < ref_lus.sum() // 4
    assert traj.newton_iters.sum() > ref_iters.sum()


def _polish_by_rule(stepper, x_prev, u1, u2, x, lu):
    """Chord steps with `lu` from the converged iterate x: a trial is kept
    if it lowers the residual, and followed by another only if it cut the
    residual to at most a quarter.  Returns the end point and the trials."""
    res = stepper.residual(x, x_prev, u1, u2)
    trials = 0
    while True:
        delta = lu.solve(-res)
        t = 1.0
        if stepper.potential.guarded:
            t = state._step_ceiling(stepper.split(x)[1],
                                    stepper.split(delta)[1],
                                    *stepper.potential.domain,
                                    state._SEPARATION_MARGIN)
        trial = x + t * delta
        res_trial = stepper.residual(trial, x_prev, u1, u2)
        trials += 1
        before, after = np.abs(res).max(), np.abs(res_trial).max()
        if not after < before:
            return x, trials
        x, res = trial, res_trial
        if not after <= state._CHORD_CONTRACTION * before:
            return x, trials


@pytest.mark.parametrize("case", sorted(CHORD_CASES))
def test_2d_chord_polish_stops_once_a_step_contracts_less_than_fourfold(
        monkeypatch, case):
    pr = dataclasses.replace(CHORD_CASES[case](),
                             tgrid=TimeGrid(steps=12, t_final=0.1))
    u = smooth_control(pr, amp=0.4)
    traj = pr.solve(u)
    stepper, x = pr.stepper, traj.x
    # the march of solve_state, step by step, with the LU it carries
    carried = CarriedLU()
    for k in range(1, pr.n_levels):
        guess = None if k == 1 else 2.0 * x[k - 1] - x[k - 2]
        lu_in = carried.lu
        xk, iters, lus = newton_step(stepper, x[k - 1], u.u1[k], u.u2[k], k,
                                     start=guess, carried=carried)
        assert xk.tobytes() == x[k].tobytes(), f"step {k}: march differs"
        assert (iters, lus) == (traj.newton_iters[k], traj.factorizations[k])
        # the same step stopped at the tolerance, then polished by the rule
        with monkeypatch.context() as patch:
            patch.setattr(state, "_POLISH_STEPS", 0)
            x0, iters0, _ = newton_step(stepper, x[k - 1], u.u1[k], u.u2[k],
                                        k, start=guess,
                                        carried=CarriedLU(lu_in))
        polished, trials = _polish_by_rule(stepper, x[k - 1], u.u1[k],
                                           u.u2[k], x0, carried.lu)
        assert polished.tobytes() == xk.tobytes(), f"step {k}: polish differs"
        assert iters == iters0 + trials
        # one more chord step would not cut the residual to a quarter
        res = stepper.residual(xk, x[k - 1], u.u1[k], u.u2[k])
        more = stepper.residual(xk + carried.lu.solve(-res), x[k - 1],
                                u.u1[k], u.u2[k])
        assert not (np.abs(more).max()
                    <= state._CHORD_CONTRACTION * np.abs(res).max()), (
            f"step {k}: the polish stopped while it still contracted")
    # every step ends at the round-off floor, far below its tolerance
    tol = (state._NEWTON_TOL * stepper.coef_scale
           * (1.0 + np.abs(x[1:]).max(axis=1)))
    assert np.all(traj.final_residual[1:] <= 1e-4 * tol)
    # no polish stops each step at the tolerance
    monkeypatch.setattr(state, "_POLISH_STEPS", 0)
    unpolished = pr.solve(u)
    assert unpolished.newton_iters.sum() < traj.newton_iters.sum()
    _assert_levels_agree(unpolished.x, traj.x, rtol=1e-8)


def _first_step(pr):
    u = smooth_control(pr, amp=0.4)
    return pr.stepper, pr.init.stacked(), u.u1[1], u.u2[1]


def _distant_lu(stepper, x, u1):
    """Step LU at x with phi moved near the barrier everywhere."""
    far = x.copy()
    stepper.split(far)[1][:] = 0.99
    return lu_at(stepper, far, u1)


def test_chord_step_refactors_when_the_carried_lu_does_not_contract():
    pr = _problem_2d(steps=4)
    stepper, x_prev, u1, u2 = _first_step(pr)
    # an LU carried from a distant state
    carried = CarriedLU(_distant_lu(stepper, x_prev, u1))
    stale = carried.lu
    res = stepper.residual(x_prev, x_prev, u1, u2)
    chord = x_prev + stale.solve(-res)
    # its full step does not cut the residual to a quarter
    assert (np.abs(stepper.residual(chord, x_prev, u1, u2)).max()
            > 0.25 * np.abs(res).max())
    x, iters, lus = newton_step(stepper, x_prev, u1, u2, 1, carried=carried)
    assert lus >= 1, "step 1: the stale LU was never replaced"
    assert carried.lu is not stale
    ref, _, _ = newton_step(stepper, x_prev, u1, u2, 1)
    _assert_levels_agree(np.stack([x_prev, x]), np.stack([x_prev, ref]))
    assert (np.abs(stepper.residual(x, x_prev, u1, u2)).max()
            <= state._NEWTON_TOL * stepper.coef_scale
            * (1.0 + np.abs(x).max()))


class _Reversed:
    """A factor whose solves point the opposite way to those of `lu`."""

    def __init__(self, lu):
        self.lu = lu

    def solve(self, b, trans="N"):
        return -self.lu.solve(b, trans)


def test_stale_chord_step_pinned_at_the_ceiling_factors_again():
    # one node of the initial phase field sits inside the separation margin
    pr = _problem_2d(steps=4)
    phi0 = pr.init.phi0.copy()
    phi0[pr.grid.n // 2] = 1.0 - 0.5 * state._SEPARATION_MARGIN
    pr = dataclasses.replace(pr, init=dataclasses.replace(pr.init,
                                                          phi0=phi0))
    stepper, x_prev, u1, u2 = _first_step(pr)
    assert stepper.potential.guarded
    fresh = lu_at(stepper, x_prev, u1)
    res = stepper.residual(x_prev, x_prev, u1, u2)
    lo, hi = pr.potential.domain
    margin = state._SEPARATION_MARGIN

    def ceiling(lu):
        delta = lu.solve(-res)
        return state._step_ceiling(stepper.split(x_prev)[1],
                                   stepper.split(delta)[1], lo, hi, margin)

    # the Newton step at x_prev moves that node inward, the carried one
    # outward: the ceiling pins the chord step at t = 0
    assert ceiling(fresh) > 0.0
    assert ceiling(_Reversed(fresh)) == 0.0
    carried = CarriedLU(_Reversed(fresh))
    x, iters, lus = newton_step(stepper, x_prev, u1, u2, 1, carried=carried)
    assert lus >= 1, "step 1: the pinned stale LU was never replaced"
    assert not isinstance(carried.lu, _Reversed)
    ref, _, _ = newton_step(stepper, x_prev, u1, u2, 1)
    _assert_levels_agree(np.stack([x_prev, x]), np.stack([x_prev, ref]))


# sha256 of StateTrajectory.x and the step counts of 1-D marches, recorded
# before the 2-D march learned to carry LUs: the band path keeps factoring
# at every Newton iteration, so not a bit of it may move
BAND_MARCH_DIGESTS = {
    ("logarithmic", None):
        "71b118a543d2257e68af3176c62f1ebb43a7a53faa5034634cf576555b0c7c48",
    ("regular", None):
        "670348df8bf0b93096c7ff09b2964bdda6a9ad80d585ef9314073f3d868f62bd",
    ("logarithmic", 0.05):
        "386033c3cdd0e93f65f40c367ccb81c88ff76f847ac87e7174f80e72287afcc5",
}


@pytest.mark.parametrize("potential,yosida_eps", sorted(
    BAND_MARCH_DIGESTS, key=str))
def test_1d_march_is_bitwise_the_per_iteration_newton(potential, yosida_eps):
    pr = make_problem(potential=potential, steps=12, yosida_eps=yosida_eps)
    assert not pr.stepper.superlu
    u = smooth_control(pr, amp=0.4)
    traj = pr.solve(u)
    ref, ref_iters, ref_lus = _per_iteration_march(pr, u)
    for k in range(1, pr.n_levels):
        assert traj.x[k].tobytes() == ref[k].tobytes(), f"step {k} moved"
    assert np.array_equal(traj.newton_iters, ref_iters)
    assert np.array_equal(traj.factorizations, ref_lus)
    assert traj.newton_iters.tolist() == [0] + [3] * 12
    assert traj.factorizations.tolist() == [0] + [2] * 12
    assert (hashlib.sha256(traj.x.tobytes()).hexdigest()
            == BAND_MARCH_DIGESTS[potential, yosida_eps])


def test_2d_newton_failures_name_the_step(monkeypatch):
    pr = _problem_2d(steps=4)
    u = smooth_control(pr, amp=0.4)
    with monkeypatch.context() as patch:
        patch.setattr(state, "_NEWTON_MAX_ITER", 1)
        with pytest.raises(SolverError,
                           match="^step 1: Newton did not converge"):
            pr.solve(u)
    bad = Control([u.u1.copy(), u.u2.copy()])
    bad.u1[3, 5] = np.nan
    # step 3 starts with an LU carried from the steps before it
    with pytest.raises(SolverError, match="^step 3: non-finite"):
        pr.solve(bad)
    # a refactor forced by a stale LU names its step when SuperLU fails
    stepper, x_prev, u1, u2 = _first_step(pr)
    carried = CarriedLU(_distant_lu(stepper, x_prev, u1))

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(stepper_module, "splu", singular)
    with pytest.raises(SolverError, match="^step 5: sparse LU failed"):
        newton_step(stepper, x_prev, u1, u2, 5, carried=carried)
    with pytest.raises(SolverError, match="^step 1: sparse LU failed"):
        pr.solve(u)


# ---------------------------------------------------------------------------
# batch marches


TRAJECTORY_FIELDS = ("x", "newton_iters", "factorizations", "final_residual",
                     "mass_residual", "energy", "phi_min", "phi_max")


def _assert_trajectories_equal(got, want):
    for name in TRAJECTORY_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def _shifted_u1(u, shift):
    return Control([u.u1 + shift, u.u2.copy()])


def _batch_controls(pr):
    """Five controls whose marches differ.  On the logarithmic line over
    [0, 3] the first one backtracks once, and the predictors of the first
    two leave the separation interval at some steps."""
    u = smooth_control(pr, amp=0.2)
    return [smooth_control(pr, amp=1.0), _shifted_u1(u, -4.0), u,
            _shifted_u1(u, 4.0), random_control(pr, seed=3, amp=0.5)]


BATCH_CASES = {
    "log-1d": lambda: make_problem(potential="logarithmic", steps=10,
                                   t_final=3.0),
    "regular-1d": lambda: make_problem(potential="regular", steps=10),
    "obstacle-yosida-1d": lambda: make_problem(potential="obstacle", steps=10,
                                               yosida_eps=0.05),
    "log-yosida-1d": lambda: make_problem(potential="logarithmic", steps=10,
                                          yosida_eps=0.05),
    "log-2d": lambda: _problem_2d(steps=12),
}


@pytest.mark.parametrize("m", [1, 2, 5])
@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_batch_march_is_bitwise_the_per_control_march(monkeypatch, case, m):
    pr = BATCH_CASES[case]()
    controls = _batch_controls(pr)[:m]
    _, residuals = _counting(monkeypatch, "residual")
    alone = []
    for u in controls:
        residuals.clear()
        alone.append((solve_state(pr, u), len(residuals)))
    batch = solve_states(pr, controls)
    assert len(batch) == m
    for traj, (ref, _) in zip(batch, alone):
        _assert_trajectories_equal(traj, ref)
        # each member owns its history: keeping one pins no other
        assert traj.x.flags.owndata
    if case == "log-1d" and m == 5:
        # the members differ in iterations, and in residuals beyond one per
        # iteration and step (backtracks)
        iters = [ref.newton_iters.sum() for ref, _ in alone]
        extra = [calls - ref.newton_iters.sum() for ref, calls in alone]
        assert len(set(iters)) > 1 and len(set(extra)) > 1
        leaves = [[k for k in range(2, pr.n_levels)
                   if not _inside_margin(
                       pr.stepper, 2.0 * ref.x[k - 1] - ref.x[k - 2],
                       state._SEPARATION_MARGIN)] for ref, _ in alone]
        assert leaves[0] and leaves[1] and not leaves[2]
    if pr.stepper.superlu:
        # one carried LU per member: the batch forms every member's LUs
        formed, splu = [], stepper_module.splu

        def counted_splu(*args, **kwargs):
            formed.append(None)
            return splu(*args, **kwargs)

        monkeypatch.setattr(stepper_module, "splu", counted_splu)
        solve_states(pr, controls)
        assert len(formed) == sum(ref.factorizations.sum()
                                  for ref, _ in alone) >= m


def _error_of(fn, *args):
    with pytest.raises(SolverError) as info:
        fn(*args)
    return str(info.value)


def test_batch_failure_is_the_lowest_member_at_the_first_failing_level():
    pr = make_problem(potential="logarithmic", steps=10)
    u = smooth_control(pr, amp=0.2)
    at_4, at_3 = _shifted_u1(u, -100.0), _shifted_u1(u, -200.0)
    nan_at_3 = Control([u.u1.copy(), u.u2.copy()])
    nan_at_3.u1[3, 4] = np.nan
    assert _error_of(solve_state, pr, at_4).startswith("step 4: ")
    for control in (at_3, nan_at_3):
        assert _error_of(solve_state, pr, control).startswith("step 3: ")
    # the first failing level wins over a lower member failing later
    assert (_error_of(solve_states, pr, [u, at_4, at_3, u])
            == _error_of(solve_state, pr, at_3))
    # at one level, the lowest failing member wins
    for first, second in ((at_3, nan_at_3), (nan_at_3, at_3)):
        assert (_error_of(solve_states, pr, [u, first, second])
                == _error_of(solve_state, pr, first))


def test_batch_failure_checks_the_energy_of_the_failing_member(monkeypatch):
    monkeypatch.setattr(state, "_ENERGY_BLOWUP_FACTOR", 1e-16)
    pr = make_problem(potential="logarithmic", steps=10)
    u = smooth_control(pr, amp=0.2)
    at_3 = _shifted_u1(u, -200.0)
    single = _error_of(solve_state, pr, at_3)
    assert single.startswith("energy ") and "at step 1 " in single
    assert _error_of(solve_states, pr, [u, at_3]) == single
    # with no Newton failure, the blow-up of the lowest member is reported
    other = _shifted_u1(u, -5.0)
    assert _error_of(solve_state, pr, u) != _error_of(solve_state, pr, other)
    for pair in ([u, other], [other, u]):
        assert (_error_of(solve_states, pr, pair)
                == _error_of(solve_state, pr, pair[0]))


def _poison(monkeypatch, marker, value=0.0):
    """Patch Stepper.jacobian_values to set every value of each state whose
    u1 is `marker` to `value`: with 0 the band LU of such a step is exactly
    singular, with NaN its Jacobian is not finite."""
    values = Stepper.jacobian_values

    def poisoned(self, x, u1k):
        out = values(self, x, u1k)
        rows = (out, u1k) if out.ndim == 2 else (out[None], u1k[None])
        for row, u1 in zip(*rows):
            if np.array_equal(u1, marker):
                row[:] = value
        return out

    monkeypatch.setattr(Stepper, "jacobian_values", poisoned)


def test_batch_factor_failure_meets_only_its_member(monkeypatch):
    pr = make_problem(potential="logarithmic", steps=6)
    u = smooth_control(pr, amp=0.2)
    marked = _shifted_u1(u, 0.5)
    # the marked member's step-3 Jacobian is singular
    _poison(monkeypatch, marked.u1[3])
    single = _error_of(solve_state, pr, marked)
    assert single == "step 3: band LU failed: exactly singular at column 1"
    assert _error_of(solve_states, pr, [u, marked, u]) == single
    assert _error_of(solve_states, pr, [marked, marked]) == single


def test_batch_member_that_cannot_be_factored_fails_alone(monkeypatch):
    # the marked member's step-3 Jacobian is not finite: it fails with the
    # error of its lone march, and every other LU of the batch is formed
    # once, as its member forms it alone
    pr = make_problem(potential="logarithmic", steps=6)
    u = smooth_control(pr, amp=0.2)
    marked, other = _shifted_u1(u, 0.5), _shifted_u1(u, -0.5)
    # LUs of the batch up to step 3: those of u and other alone, and those
    # of the marked member before it
    want = (solve_state(pr, u).factorizations[:4].sum()
            + solve_state(pr, other).factorizations[:4].sum()
            + solve_state(pr, marked).factorizations[:3].sum())
    _poison(monkeypatch, marked.u1[3], np.nan)
    single = _error_of(solve_state, pr, marked)
    assert single == "step 3: non-finite Jacobian entries"
    dgbtrf, formed = stepper_module.dgbtrf, []

    def counted(*args, **kwargs):
        formed.append(None)
        return dgbtrf(*args, **kwargs)

    monkeypatch.setattr(stepper_module, "dgbtrf", counted)
    assert _error_of(solve_states, pr, [u, marked, other]) == single
    assert len(formed) == want


def _shifted_batch(pr, m):
    """m controls, the smooth one with u1 shifted by m values over [-4, 4]."""
    u = smooth_control(pr, amp=0.2)
    return [_shifted_u1(u, shift) for shift in np.linspace(-4.0, 4.0, m)]


@pytest.mark.parametrize("m", [0, 1, 2, 5])
@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_lockstep_march_is_bitwise_the_per_member_oracle(case, m):
    # the oracle marches each control alone with the per-member Newton step
    # of tests/_support.py, a generator answered by one-level calls
    pr = BATCH_CASES[case]()
    controls = _batch_controls(pr)[:m]
    for traj, ref in zip(solve_states(pr, controls),
                         solve_states_per_member(pr, controls), strict=True):
        _assert_trajectories_equal(traj, ref)


def test_lockstep_march_of_54_members_is_bitwise_the_oracle():
    # the shape of the FD check of verify-coarse: 54 controls, 17 x 25
    pr = make_problem(potential="logarithmic", steps=25, t_final=3.0)
    controls = _shifted_batch(pr, 54)
    batch = solve_states(pr, controls)
    for traj, ref in zip(batch, solve_states_per_member(pr, controls),
                         strict=True):
        _assert_trajectories_equal(traj, ref)
    # the members take different iterations, so rounds hold some of them
    assert len({traj.newton_iters.sum() for traj in batch}) > 10


def _failing_batches(pr):
    """Batches of the failure-order tests: the lowest member at the first
    failing level, and an energy check before a Newton failure."""
    u = smooth_control(pr, amp=0.2)
    at_4, at_3 = _shifted_u1(u, -100.0), _shifted_u1(u, -200.0)
    nan_at_3 = Control([u.u1.copy(), u.u2.copy()])
    nan_at_3.u1[3, 4] = np.nan
    return [[u, at_4, at_3, u], [u, at_3, nan_at_3], [u, nan_at_3, at_3],
            [at_4, u]]


def test_lockstep_failures_are_those_of_the_per_member_oracle(monkeypatch):
    pr = make_problem(potential="logarithmic", steps=10)
    u = smooth_control(pr, amp=0.2)
    other = _shifted_u1(u, -5.0)
    for batch in _failing_batches(pr):
        assert (_error_of(solve_states, pr, batch)
                == _error_of(solve_states_per_member, pr, batch))
    with monkeypatch.context() as patch:
        # an energy limit that step 1 already exceeds
        patch.setattr(state, "_ENERGY_BLOWUP_FACTOR", 1e-16)
        for batch in _failing_batches(pr) + [[u, other], [other, u]]:
            assert (_error_of(solve_states, pr, batch)
                    == _error_of(solve_states_per_member, pr, batch))
    # a singular Jacobian met by one member of a stacked factorization
    marked = _shifted_u1(u, 0.5)
    _poison(monkeypatch, marked.u1[3])
    for batch in ([u, marked, u], [marked, marked], [marked]):
        assert (_error_of(solve_states, pr, batch)
                == _error_of(solve_states_per_member, pr, batch)
                == "step 3: band LU failed: exactly singular at column 1")


def _chord_fallbacks(monkeypatch):
    """Patch `_Lockstep` to count the chord steps that fall back to a fresh
    LU: those the separation ceiling pinned at t = 0 ("pinned") and those
    that did not contract ("stale")."""
    counts = {"pinned": 0, "stale": 0}
    direct, trial = state._Lockstep._direct, state._Lockstep._try

    def counted_direct(self, q, trials):
        refactor = direct(self, q, trials)
        counts["pinned"] += len(refactor)
        return refactor

    def counted_try(self, q, factor):
        before = len(factor)
        out = trial(self, q, factor)
        counts["stale"] += len(factor) - before
        return out

    monkeypatch.setattr(state._Lockstep, "_direct", counted_direct)
    monkeypatch.setattr(state._Lockstep, "_try", counted_try)
    return counts


def _pulse_2d(component, amp):
    """The 9x9 logarithmic problem over [0, 1] in 8 steps, driven by a pulse
    of one control component at level 4 alone."""
    pr = _problem_2d(steps=8)
    pr = dataclasses.replace(pr, tgrid=TimeGrid(steps=8, t_final=1.0))
    v = np.zeros((2, pr.n_levels, pr.grid.n))
    v[component, 4] = amp
    return pr, Control(v)


def test_lockstep_chord_step_that_does_not_contract_factors_again(
        monkeypatch):
    pr, u = _pulse_2d(0, 30.0)
    counts = _chord_fallbacks(monkeypatch)
    traj = solve_state(pr, u)
    assert counts == {"pinned": 0, "stale": 7}
    _assert_trajectories_equal(traj, solve_states_per_member(pr, [u])[0])


def test_lockstep_chord_step_pinned_at_the_ceiling_factors_again(
        monkeypatch):
    # one node of the initial phase field sits inside the separation margin,
    # and the LU carried into step 1 points the other way (as in
    # test_stale_chord_step_pinned_at_the_ceiling_factors_again)
    pr = _problem_2d(steps=4)
    phi0 = pr.init.phi0.copy()
    phi0[pr.grid.n // 2] = 1.0 - 0.5 * state._SEPARATION_MARGIN
    pr = dataclasses.replace(pr, init=dataclasses.replace(pr.init,
                                                          phi0=phi0))
    stepper, x_prev, u1, u2 = _first_step(pr)
    u = smooth_control(pr, amp=0.4)
    reversed_lu = _Reversed(lu_at(stepper, x_prev, u1))
    counts = _chord_fallbacks(monkeypatch)
    xs = [np.empty((pr.n_levels, 3 * pr.grid.n))]
    xs[0][0] = x_prev
    iters, lus = [np.zeros(pr.n_levels, dtype=int)], [
        np.zeros(pr.n_levels, dtype=int)]
    newton = state._Lockstep(stepper, xs, iters, lus, [u])
    newton.members[0].lu = reversed_lu
    assert newton.level(1) == {}
    assert counts["pinned"] == 1
    assert not isinstance(newton.members[0].lu, _Reversed)
    x, its, n_lu = newton_step(stepper, x_prev, u1, u2, 1,
                               carried=CarriedLU(reversed_lu))
    assert xs[0][1].tobytes() == x.tobytes()
    assert (iters[0][1], lus[0][1]) == (its, n_lu)
    # a march whose phase field presses on the margin: the pinned chord
    # step factors again, the fresh step is pinned too, and the march fails
    # as the per-member oracle does
    pr, u = _pulse_2d(1, 1000.0)
    counts["pinned"] = 0
    message = _error_of(solve_state, pr, u)
    assert counts["pinned"] == 1
    assert message.startswith("step 4: Newton update pinned")
    assert message == _error_of(solve_states_per_member, pr, [u])


@pytest.mark.parametrize("dim", [1, 2])
def test_lockstep_newton_stall_is_that_of_the_per_member_oracle(
        monkeypatch, dim):
    # a tolerance below round-off: Newton reaches the residual's floor, where
    # no Armijo trial lowers it
    pr = make_problem(steps=4) if dim == 1 else _problem_2d(steps=4)
    u = smooth_control(pr, amp=0.4)
    monkeypatch.setattr(state, "_NEWTON_TOL", 1e-20)
    message = _error_of(solve_state, pr, u)
    assert re.fullmatch(r"step 1: Newton stalled at residual \S+ after "
                        r"\d+ iterations", message)
    assert message == _error_of(solve_states_per_member, pr, [u])


def _counting_rows(monkeypatch):
    """Patch Stepper.residual, Stepper.jacobian_values and
    Stepper.factorize to count the rows they are called on (a `factorize`
    call takes one row of values); returns the counts by method name."""
    rows = {"residual": 0, "jacobian_values": 0, "factorize": 0}
    for name in rows:
        original = getattr(Stepper, name)

        def counted(self, x, *args, _name=name, _original=original):
            rows[_name] += 1 if x.ndim == 1 else len(x)
            return _original(self, x, *args)

        monkeypatch.setattr(Stepper, name, counted)
    return rows


@pytest.mark.parametrize("case", ["log-1d", "log-2d"])
def test_lockstep_batch_asks_for_what_its_members_ask_alone(monkeypatch,
                                                           case):
    # no hidden work: a member that finished or failed its step asks for
    # nothing more at that level, and no row is evaluated twice
    pr = BATCH_CASES[case]()
    controls = _batch_controls(pr)
    rows = _counting_rows(monkeypatch)
    # each member alone, by the lockstep march and by the per-member oracle
    alone = {march: dict.fromkeys(rows, 0)
             for march in (solve_states, solve_states_per_member)}
    for u in controls:
        for march, counts in alone.items():
            march(pr, [u])
            for name in counts:
                counts[name] += rows[name]
                rows[name] = 0
    solve_states(pr, controls)
    assert rows == alone[solve_states] == alone[solve_states_per_member]
    assert rows["factorize"] >= len(controls)


def test_nan_first_backtracking_trial_gives_way_to_a_finite_one(monkeypatch):
    pr = make_problem(potential="regular", steps=4)
    u = smooth_control(pr, amp=0.4)
    stepper, x0 = pr.stepper, pr.init.stacked()
    res0 = stepper.residual(x0, x0, u.u1[1], u.u2[1])
    delta = lu_at(stepper, x0, u.u1[1]).solve(-res0)
    residual, points = Stepper.residual, []

    def nan_at_first_trial(self, x, x_prev, u1k, u2k):
        # step 1 evaluates its start, then the full Newton step: NaN there
        points.append(x.copy())
        if len(points) == 2:
            return np.full_like(x, np.nan)
        return residual(self, x, x_prev, u1k, u2k)

    monkeypatch.setattr(Stepper, "residual", nan_at_first_trial)
    traj = solve_state(pr, u)
    assert points[1].tobytes() == (x0 + 1.0 * delta).tobytes()
    # the halved trial is kept: it meets the Armijo test
    assert points[2].tobytes() == (x0 + 0.5 * delta).tobytes()
    assert np.isfinite(traj.x).all()
    points.clear()
    _assert_trajectories_equal(traj, solve_states_per_member(pr, [u])[0])


def test_batch_member_with_non_finite_guess_residual_restarts(monkeypatch):
    # the start points of a batch share one stacked residual call; only the
    # member whose guess gives a residual that is not finite asks again,
    # at x_{k-1}, and every member keeps its lone march
    pr = make_problem(potential="regular", steps=4)
    controls = _batch_controls(pr)[:3]
    x = solve_state(pr, controls[1]).x
    bad = (2.0 * x[1] - x[0]).tobytes()
    residual, hits = Stepper.residual, []

    def nan_at_bad_guess(self, z, *args):
        out = residual(self, z, *args)
        for row, res in zip(np.atleast_2d(z), np.atleast_2d(out)):
            if row.tobytes() == bad:
                res[:] = np.nan
                hits.append(z.shape)
        return out

    monkeypatch.setattr(Stepper, "residual", nan_at_bad_guess)
    batch = solve_states(pr, controls)
    assert hits == [(3, x.shape[1])]
    hits.clear()
    for u, got in zip(controls, batch):
        _assert_trajectories_equal(got, solve_state(pr, u))
        _assert_trajectories_equal(got, solve_states_per_member(pr, [u])[0])
    assert hits == [x.shape[1:]] * 2


def test_non_finite_control_is_solver_error():
    pr = make_problem(steps=4)
    u = smooth_control(pr)
    u.u1[2, 3] = np.nan
    with pytest.raises(SolverError, match="step 2: non-finite"):
        pr.solve(u)


def test_control_shape_mismatch_rejected():
    pr = make_problem()
    bad = Control([np.zeros((3, pr.grid.n)), np.zeros((3, pr.grid.n))])
    with pytest.raises(ValueError, match="control"):
        pr.solve(bad)


def test_newton_converges_fast_on_smooth_data():
    pr = make_problem(potential="logarithmic", steps=10)
    traj = pr.solve(smooth_control(pr))
    assert traj.newton_iters[1:].max() <= 8
    assert traj.mass_residual.max() <= 1e-10


def _ceiling_cases(n, rng):
    """(phi, dphi, expected or None) cases for the separation ceiling."""
    cases = []
    for _ in range(200):
        phi = rng.uniform(-0.999, 0.999, n)
        dphi = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=n)
        dphi[rng.random(n) < 0.2] = 0.0
        cases.append((phi, dphi, None))
    phi = rng.uniform(-0.9, 0.9, n)
    up = rng.uniform(0.1, 2.0, n)
    cases += [(phi, np.zeros(n), 1.0), (phi, up, None), (phi, -up, None)]
    # pinned: an entry at the upper margin moving up, one past the lower
    # margin moving down
    pinned = phi.copy()
    pinned[3] = 1.0 - 1e-8
    cases.append((pinned, np.where(np.arange(n) == 3, 1.0, -up), 0.0))
    pinned = phi.copy()
    pinned[5] = -1.0
    cases.append((pinned, np.where(np.arange(n) == 5, -1.0, up), 0.0))
    # NaN entries in phi, on one side or both, and in dphi
    mixed = rng.normal(size=n)
    for where in ([2], [2, 7], list(range(n))):
        bad = phi.copy()
        bad[where] = np.nan
        cases += [(bad, mixed, None), (bad, up, None), (bad, -up, None)]
        bad_d = mixed.copy()
        bad_d[where] = np.nan
        cases += [(phi, bad_d, None), (bad, bad_d, None)]
    return cases


@pytest.mark.parametrize("n", [17, 129])
def test_step_ceiling_is_the_two_pass_reference(n):
    # one quotient array and one minimum give the float of the two masked
    # passes they replaced, alone or as rows, with no RuntimeWarning
    rng = np.random.default_rng(n)
    cases = _ceiling_cases(n, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for phi, dphi, expected in cases:
            got = state._step_ceiling(phi, dphi, -1.0, 1.0, 1e-8)
            ref = step_ceiling_two_pass(phi, dphi, -1.0, 1.0, 1e-8)
            assert type(got) is float
            assert got == ref, (phi, dphi)
            assert 0.0 <= got <= 1.0
            if expected is not None:
                assert got == expected
        # all cases as the rows of one call: each the float of its row
        rows = state._step_ceiling(np.array([c[0] for c in cases]),
                                   np.array([c[1] for c in cases]),
                                   -1.0, 1.0, 1e-8)
    assert rows == [step_ceiling_two_pass(phi, dphi, -1.0, 1.0, 1e-8)
                    for phi, dphi, _ in cases]
    assert all(type(t) is float for t in rows)


def test_solver_options_need_a_backtrack():
    # the backtrack budget is a constant that grants every damped Newton
    # step a trial, and no problem field
    assert state._MAX_BACKTRACKS >= 1
    with pytest.raises(TypeError, match="max_backtracks"):
        dataclasses.replace(make_problem(), max_backtracks=0)


def test_timegrid_validation():
    with pytest.raises(ValueError):
        TimeGrid(steps=0, t_final=1.0)
    with pytest.raises(ValueError):
        TimeGrid(steps=5, t_final=-1.0)
    tg = TimeGrid(steps=4, t_final=1.0)
    assert tg.dt == 0.25
    assert tg.weights().sum() == pytest.approx(1.0)
    assert tg.weights()[0] == pytest.approx(0.125)
