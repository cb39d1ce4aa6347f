"""Forward solver: invariants, reductions, and failure modes."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from tumoropt import (Control, CostSpec, InitialData, ModelParams,
                      SeparationViolation, SolverError, SolverOptions,
                      TimeGrid, build_grid, bump_shape, make_nonlinearity,
                      mass_balance_residual, potential_eval, ramp_shape,
                      regular_potential, solve_state)
from tumoropt.problem import ControlProblem
from tumoropt.state import _energy_value, _newton_step
from tumoropt.stepper import Stepper

from _support import make_problem, random_control, smooth_control


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
    res = mass_balance_residual(traj, u, pr.params, pr.nonlin, pr.grid,
                                pr.tgrid)
    assert res.max() <= 1e-10
    assert np.abs(traj.mass_residual[1:] - res).max() <= 1e-14


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
    res = mass_balance_residual(traj, u, params, nonlin, grid, tgrid)
    assert res.max() <= 1e-10


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


def test_trajectory_energy_is_free_energy_per_level():
    pr = make_problem(steps=6)
    traj = pr.solve(smooth_control(pr))
    assert traj.energy.shape == (pr.n_levels,)
    for k in range(pr.n_levels):
        assert traj.energy[k] == _energy_value(pr.grid, pr.params,
                                               pr.potential, None,
                                               traj.snapshot(k))


def test_energy_blowup_raises_during_march():
    pr = make_problem(steps=6, energy_blowup_factor=1e-16)
    with pytest.raises(SolverError, match="energy"):
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


def test_polish_tries_the_full_step_once(monkeypatch):
    pr = make_problem(potential="logarithmic", steps=8)
    u = smooth_control(pr, amp=0.4)
    stepper = pr.stepper
    lo, hi = pr.potential.domain
    residual = Stepper.residual
    calls = []

    def counted(self, *args):
        calls.append(None)
        return residual(self, *args)

    monkeypatch.setattr(Stepper, "residual", counted)
    traj = pr.solve(u)
    for k in range(1, pr.n_levels):
        x_prev = traj.snapshot(k - 1)
        runs = {}
        for polish in (0, 1, 4):
            calls.clear()
            x, iters = _newton_step(
                stepper, x_prev, u.u1[k], u.u2[k],
                SolverOptions(polish_steps=polish), True, lo, hi, k)
            rnorm = np.abs(residual(stepper, x, x_prev, u.u1[k],
                                    u.u2[k])).max()
            runs[polish] = (len(calls), iters, rnorm)
        calls0, iters0, rnorm0 = runs[0]
        assert runs[1][1] == iters0 + 1
        for polish in (1, 4):
            # each polish iteration costs exactly one residual evaluation
            assert runs[polish][0] - calls0 == runs[polish][1] - iters0
        assert runs[1][2] <= rnorm0
    assert traj.mass_residual.max() <= 1e-12


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
