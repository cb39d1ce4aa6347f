"""Shared builders for small test problems, and the test-only oracles."""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy.integrate import solve_ivp

from tumoropt import (Control, CostSpec, InitialData, ModelParams, SscReport,
                      TimeGrid, build_grid, bump_shape, cone_project,
                      constant_shape, control_norm, custom_polynomial_potential,
                      default_tau, logarithmic_potential, make_nonlinearity,
                      ramp_shape, regular_potential, strongly_active_sets)
from tumoropt.grid import inner
from tumoropt.problem import ControlProblem
from tumoropt.state import SolverOptions


def make_problem(nodes=17, steps=8, t_final=0.5, potential="regular",
                 alpha=1.0, beta=0.8, chi=0.4, b0=1.0, b1=2.0, b2=0.0,
                 coupling="full", tracking=True, yosida_eps=None, ny=None,
                 **solver_kwargs) -> ControlProblem:
    """1-D problem small enough for exhaustive checks.

    With `ny` set, the same data on the unit square with `nodes` x `ny`
    nodes: every field depends on x alone.

    coupling="full" uses a Gaussian proliferation bump and the smooth ramp;
    coupling="none" zeroes both shapes and switches to a quadratic potential,
    which makes the reduced cost exactly quadratic in the control.
    """
    if ny is None:
        grid = build_grid(1, [nodes], [1.0])
    else:
        grid = build_grid(2, [nodes, ny], [1.0, 1.0])
    tgrid = TimeGrid(steps=steps, t_final=t_final)
    params = ModelParams(alpha=alpha, beta=beta, chi=chi, T=t_final)
    kinds = {"regular": regular_potential, "logarithmic": logarithmic_potential}
    if coupling == "none":
        nonlin = make_nonlinearity(constant_shape(0.0), constant_shape(0.0))
        pot = custom_polynomial_potential([0.0, 0.0, 0.5])
    else:
        nonlin = make_nonlinearity(
            bump_shape(scale=0.6, center=0.1, width=0.8), ramp_shape())
        pot = kinds[potential]()
    x = grid.coordinates()[:, 0]
    n_levels = steps + 1
    target_q = (np.tile(0.3 * np.cos(np.pi * x), (n_levels, 1))
                if tracking else None)
    target_om = 0.1 * np.sin(np.pi * x) if (tracking and b2 != 0.0) else None
    cost = CostSpec(b0=b0, b1=b1, b2=b2, target_Q=target_q,
                    target_Omega=target_om)
    init = InitialData(mu0=0.05 * np.cos(np.pi * x),
                       phi0=0.2 * np.cos(np.pi * x),
                       sigma0=np.full(grid.n, 0.1))
    options = SolverOptions(yosida_eps=yosida_eps, **solver_kwargs)
    return ControlProblem(grid=grid, tgrid=tgrid, params=params,
                          potential=pot, nonlin=nonlin, cost=cost, init=init,
                          options=options)


def random_control(problem: ControlProblem, seed=0, amp=0.1) -> Control:
    rng = np.random.default_rng(seed)
    shape = (problem.n_levels, problem.grid.n)
    return Control(amp * rng.standard_normal(shape),
                   amp * rng.standard_normal(shape))


def smooth_control(problem: ControlProblem, amp=0.2) -> Control:
    x = problem.grid.coordinates()[:, 0][None, :]
    t = problem.tgrid.times[:, None]
    return Control(amp * np.cos(np.pi * x) * np.cos(2.0 * t),
                   0.5 * amp * np.sin(np.pi * x) * (1.0 + t))


def energy_by_level(stepper, x: np.ndarray) -> float:
    """Reference: free energy of one stacked state, one `inner` per term."""
    grid = stepper.grid
    mu, phi, sigma = stepper.split(x)
    grad_sq = -inner(grid, grid.lap @ phi, phi)
    fv = inner(grid, stepper.potential_eval(phi, 0), np.ones(stepper.n))
    return float(fv + 0.5 * grad_sq + 0.5 * inner(grid, sigma, sigma)
                 + 0.5 * stepper.params.alpha * inner(grid, mu, mu))


def mass_defect_by_level(stepper, traj, control: Control, k: int) -> float:
    """Reference: relative defect of the discrete mass identity over step k."""
    grid, n, dt = stepper.grid, stepper.n, stepper.dt
    alpha = stepper.params.alpha
    mass = [inner(grid, alpha * traj.mu[j] + traj.phi[j] + traj.sigma[j],
                  np.ones(n)) for j in (k - 1, k)]
    source = inner(grid, control.u2[k]
                   - stepper.nonlin.eval("h", traj.phi[k]) * control.u1[k],
                   np.ones(n))
    raw = (mass[1] - mass[0]) / dt - source
    return abs(raw) / max(1.0, abs(mass[1]) / dt, abs(source))


def ode_reduction_reference(problem: ControlProblem, u1_of_t, u2_of_t,
                            rtol: float = 1e-10, atol: float = 1e-12):
    """Adaptive high-order integration of the space-homogeneous reduction.

    For spatially constant data the three PDEs collapse to ODEs:

        beta phi' = -F'(phi) + mu + chi sigma
        alpha mu' = P(phi) m - h(phi) u1 - phi'
        sigma'    = -P(phi) m + u2,   m = sigma + chi (1 - phi) - mu

    Returns the (mu, phi, sigma) values at T.
    """
    pr = problem.params
    nl = problem.nonlin

    def rhs(t, y):
        mu, phi, sigma = y
        m = sigma + pr.chi * (1.0 - phi) - mu
        arr = np.array([phi])
        fp = float(problem.stepper.potential_eval(arr, 1)[0])
        pv = float(nl.eval("P", phi))
        hv = float(nl.eval("h", phi))
        dphi = (-fp + mu + pr.chi * sigma) / pr.beta
        dmu = (pv * m - hv * u1_of_t(t) - dphi) / pr.alpha
        dsigma = -pv * m + u2_of_t(t)
        return [dmu, dphi, dsigma]

    y0 = [float(f[0]) for f in problem.stepper.split(problem.init.stacked())]
    sol = solve_ivp(rhs, (0.0, pr.T), y0, method="RK45", rtol=rtol, atol=atol,
                    dense_output=False)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[:, -1]


def richardson_state_at_T(problem: ControlProblem, u1_of_t, u2_of_t):
    """Scheme values at T extrapolated over three time resolutions.

    Runs the stepper at N, 2N and 4N steps on spatially constant data and
    eliminates the first- and second-order error terms, exposing the
    scheme's continuum limit at T.
    """
    vals = []
    for factor in (1, 2, 4):
        tg = TimeGrid(problem.tgrid.steps * factor, problem.tgrid.t_final)
        n = problem.grid.n
        times = tg.times
        u = Control(
            np.repeat([[u1_of_t(t) for t in times]], n, axis=0).T.copy(),
            np.repeat([[u2_of_t(t) for t in times]], n, axis=0).T.copy())
        # no targets: they are shaped for the base grid, and no cost is taken
        traj = dataclasses.replace(
            problem, tgrid=tg, cost=CostSpec(b0=problem.cost.b0)).solve(u)
        vals.append(np.array([f[0] for f in problem.stepper.split(traj.x[-1])]))
    y1, y2, y3 = vals
    z12 = 2.0 * y2 - y1
    z23 = 2.0 * y3 - y2
    return (4.0 * z23 - z12) / 3.0


def ssc_certificate_per_direction(context, tau, n_samples, box, seed=0):
    """Reference: the sampled certificate one direction at a time.

    Each seeded draw is projected onto the cone and, if kept, linearized and
    formed on its own.  Returns the report and every kept Rayleigh quotient
    in draw order.
    """
    problem, ubar = context.problem, context.ubar
    if tau is None:
        tau = default_tau(context.gradient)
    sets = strongly_active_sets(context.gradient, tau)
    rng = np.random.default_rng(seed)
    grid, tgrid = problem.grid, problem.tgrid
    shape = (problem.n_levels, grid.n)
    quotients = []
    for _ in range(n_samples):
        raw = Control(rng.standard_normal(shape), rng.standard_normal(shape))
        hdir = cone_project(raw, ubar, box, sets)
        nrm = control_norm(grid, tgrid, hdir)
        if nrm <= 1e-12 * max(control_norm(grid, tgrid, raw), 1.0):
            continue
        quotients.append(context.form(hdir, hdir) / nrm**2)
    min_q = min(quotients)
    report = SscReport(tau=float(tau), seed=int(seed),
                       sample_count=len(quotients),
                       requested_samples=int(n_samples),
                       min_rayleigh=float(min_q), satisfied=bool(min_q > 0.0))
    return report, quotients


def dense_hessian_per_pair(context) -> np.ndarray:
    """Reference: the nodal Hessian, each basis direction linearized on its
    own and each entry of the upper triangle one form."""
    problem = context.problem
    size = problem.n_levels * problem.grid.n
    shape = (problem.n_levels, problem.grid.n)
    dirs = []
    for i in range(2 * size):
        flat = np.zeros(2 * size)
        flat[i] = 1.0
        dirs.append(Control(flat[:size].reshape(shape),
                            flat[size:].reshape(shape)))
    lins = [context.linearize(d) for d in dirs]
    hess = np.empty((2 * size, 2 * size))
    for a in range(2 * size):
        for b in range(a, 2 * size):
            hess[a, b] = hess[b, a] = context.form(
                dirs[a], dirs[b], lin_h=lins[a], lin_k=lins[b])
    return hess
