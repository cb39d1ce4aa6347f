"""Shared builders for small test problems, and the test-only oracles."""

from __future__ import annotations

import contextlib
import dataclasses
import os
import signal
from collections.abc import Generator
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from tumoropt import (Control, CostSpec, InitialData, ModelParams,
                      NonlinearitySpec, PotentialSpec, ScalarShape,
                      SecondOrderContext, SscReport, StabilityReport, TimeGrid,
                      build_grid, control_inner, control_norm, cost_eval,
                      default_tau, refine_problem, strongly_active_sets)
from tumoropt import state as state_module
from tumoropt.grid import inner
from tumoropt.optimize import _block_len
from tumoropt.problem import ControlProblem, st_inner
from tumoropt.errors import ConfigError, SolverError
from tumoropt.state import (_CHORD_CONTRACTION, StateTrajectory,
                            _check_energy, _step_ceiling, _step_diagnostics,
                            _validate_initial)
from tumoropt.stepper import Stepper
from tumoropt import verify as verify_module
from tumoropt.verify import (EPS_LADDER, FD_SEARCH_LADDER, STRONG_FORM_CUT,
                             AdjointResidualReport, _norm3, _random_direction,
                             _shifted, _smooth_random_control,
                             _strong_form_levels, make_slope_report)


def make_problem(nodes=17, steps=8, t_final=0.5, potential="regular",
                 alpha=1.0, beta=0.8, chi=0.4, b0=1.0, b1=2.0, b2=0.0,
                 coupling="full", tracking=True, yosida_eps=None,
                 ny=None) -> ControlProblem:
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
    params = ModelParams(alpha=alpha, beta=beta, chi=chi)
    if coupling == "none":
        zero = ScalarShape("constant", value=0.0)
        nonlin = NonlinearitySpec(zero, zero)
        pot = PotentialSpec("custom", coefficients=[0.0, 0.0, 0.5],
                            yosida_eps=yosida_eps)
    else:
        nonlin = NonlinearitySpec(
            ScalarShape("bump", scale=0.6, center=0.1, width=0.8),
            ScalarShape("ramp"))
        pot = PotentialSpec(potential, yosida_eps=yosida_eps)
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
    return ControlProblem(grid=grid, tgrid=tgrid, params=params,
                          potential=pot, nonlin=nonlin, cost=cost, init=init)


def random_control(problem: ControlProblem, seed=0, amp=0.1) -> Control:
    rng = np.random.default_rng(seed)
    shape = (problem.n_levels, problem.grid.n)
    return Control([amp * rng.standard_normal(shape),
                    amp * rng.standard_normal(shape)])


def smooth_control(problem: ControlProblem, amp=0.2) -> Control:
    x = problem.grid.coordinates()[:, 0][None, :]
    t = problem.tgrid.times[:, None]
    return Control([amp * np.cos(np.pi * x) * np.cos(2.0 * t),
                    0.5 * amp * np.sin(np.pi * x) * (1.0 + t)])


# ---------------------------------------------------------------------------
# the per-member Newton step: the oracle of the lockstep march


@dataclass(eq=False)
class CarriedLU:
    """The last step LU of a march, which later Newton iterations and steps
    may reuse (chord Newton); `lu` is None until the first factorization."""

    lu: object = None


def _newton_step(stepper: Stepper, x_prev: np.ndarray, k: int,
                 start: np.ndarray | None = None,
                 carried: CarriedLU | None = None
                 ) -> Generator[tuple[str, np.ndarray], object,
                                tuple[np.ndarray, int, int, float]]:
    """Solve step k from `start` (x_prev if None or unusable).

    A request loop: the step never calls the stepper for a residual or an
    LU.  It yields ("residual", x) and is sent the step residual at x
    (from x_prev and the step's control), or yields ("factor", x) and is
    sent the LU of the step Jacobian at x; a failed factorization is thrown
    into it as the stepper's SolverError (`_solve_alone` answers them).

    With `carried`, each iteration first tries a chord step with the LU of
    an earlier iterate, and `carried.lu` holds the last LU on return;
    without it every Newton iteration factors at its iterate.  Returns the
    state, the iterations (chord ones included), the LUs formed and the
    max norm of the residual at the state.  The solver constants are those
    of `tumoropt.state` when the step starts.
    """
    tol = state_module._NEWTON_TOL
    max_iter = state_module._NEWTON_MAX_ITER
    max_backtracks = state_module._MAX_BACKTRACKS
    margin = state_module._SEPARATION_MARGIN
    polish_steps = state_module._POLISH_STEPS
    res = None
    if start is not None and _inside_margin(stepper, start, margin):
        res = yield ("residual", start)
        x = start
    if res is None or not np.isfinite(res).all():
        x = x_prev.copy()
        res = yield ("residual", x)
    rnorm = float(np.abs(res).max())

    def tol_at(z: np.ndarray) -> float:
        return tol * stepper.coef_scale * (
            1.0 + float(np.abs(z).max()))

    lag = carried is not None
    lu = carried.lu if lag else None
    n_lu = 0

    def factor_at_x():
        nonlocal n_lu
        try:
            fac = yield ("factor", x)
        except SolverError as exc:
            raise SolverError(f"step {k}: {exc}") from None
        n_lu += 1
        return fac

    def direction(fac, may_pin: bool = False) -> tuple[np.ndarray, float]:
        """Newton direction of `fac` at x and the largest step fraction the
        separation ceiling allows; 0 when pinned, which raises unless
        `may_pin`."""
        delta = fac.solve(-res)
        t = 1.0
        if stepper.potential.guarded:
            t = _step_ceiling(stepper.split(x)[1], stepper.split(delta)[1],
                              *stepper.potential.domain, margin)
            if t <= 0.0 and not may_pin:
                raise SolverError(
                    f"step {k}: Newton update pinned at the separation "
                    "margin; reduce dt or start further from the potential "
                    "barrier")
        return delta, t

    # a lagged polish runs while it contracts, within the budget
    polish_left = max_iter if lag and polish_steps > 0 else polish_steps
    converged = rnorm <= tol_at(x)
    it = 0
    while it < max_iter:
        if converged and polish_left <= 0:
            break
        if converged:
            polish_left -= 1
        it += 1
        if not np.isfinite(rnorm):
            raise SolverError(f"step {k}: non-finite Newton residual")
        # the LU of an earlier iterate serves the polish and, when lagging,
        # a first chord trial of every iteration
        chord = lu is not None and (converged or lag)
        if not chord:
            lu = yield from factor_at_x()
        delta, t = direction(lu, may_pin=chord and lag)
        if t <= 0.0:
            # a lagged chord step pinned at the ceiling: factor afresh
            lu, chord = (yield from factor_at_x()), False
            delta, t = direction(lu)
        if converged or chord:
            # one trial of the full step
            x_new = x + t * delta
            res_new = yield ("residual", x_new)
            rnorm_new = float(np.abs(res_new).max())
            if converged:
                # polish: kept only if it helps, and followed by another
                # only if it contracts as a kept chord step does
                if not rnorm_new < rnorm:
                    break
                contracts = rnorm_new <= _CHORD_CONTRACTION * rnorm
                x, res, rnorm = x_new, res_new, rnorm_new
                if not contracts:
                    break
                continue
            # chord: kept if it contracts (False for a non-finite residual)
            if rnorm_new <= _CHORD_CONTRACTION * rnorm:
                x, res, rnorm = x_new, res_new, rnorm_new
                converged = rnorm <= tol_at(x)
                continue
            lu = yield from factor_at_x()
            delta, t = direction(lu)
        best = None
        for _ in range(max_backtracks):
            x_try = x + t * delta
            res_try = yield ("residual", x_try)
            rnorm_try = float(np.abs(res_try).max())
            # a finite trial replaces a non-finite best
            if best is None or rnorm_try < best[2] or (
                    not np.isfinite(best[2]) and np.isfinite(rnorm_try)):
                best = (x_try, res_try, rnorm_try)
            if rnorm_try <= (1.0 - 1e-4 * t) * rnorm:
                break
            t *= 0.5
        x_new, res_new, rnorm_new = best
        if rnorm_new >= rnorm:
            raise SolverError(
                f"step {k}: Newton stalled at residual {rnorm:.3e} "
                f"after {it} iterations")
        x, res, rnorm = x_new, res_new, rnorm_new
        converged = rnorm <= tol_at(x)
    if lag:
        carried.lu = lu
    if not converged:
        raise SolverError(
            f"step {k}: Newton did not converge within "
            f"{max_iter} iterations (residual {rnorm:.3e})")
    return x, it, n_lu, rnorm


def _inside_margin(stepper: Stepper, x: np.ndarray, margin: float) -> bool:
    """False when the separation guard is on and the phi of the stacked state
    x leaves (lo + margin, hi - margin)."""
    if not stepper.potential.guarded:
        return True
    lo, hi = stepper.potential.domain
    phi = stepper.split(x)[1]
    return bool(((phi > lo + margin) & (phi < hi - margin)).all())


def _solve_alone(step, stepper: Stepper, x_prev: np.ndarray,
                 u1k: np.ndarray, u2k: np.ndarray, answer=None,
                 error: SolverError | None = None
                 ) -> tuple[np.ndarray, int, int, float]:
    """Resume a Newton step with (answer, error) and run it to its end,
    answering its requests by one-level stepper calls; returns its result
    and raises its SolverError."""
    while True:
        try:
            kind, z = (step.throw(error) if error is not None
                       else step.send(answer))
        except StopIteration as done:
            return done.value
        answer, error = _answer(stepper, kind, z, x_prev, u1k, u2k)


def lu_at(stepper: Stepper, x: np.ndarray, u1k: np.ndarray):
    """The step LU at one state: `Stepper.factorize` of its
    `jacobian_values`."""
    return stepper.factorize(stepper.jacobian_values(x, u1k))


def _answer(stepper: Stepper, kind: str, z: np.ndarray, x_prev: np.ndarray,
            u1k: np.ndarray, u2k: np.ndarray) -> tuple:
    """(answer, error) for one request at state z by the one-level stepper
    call, error None on success."""
    try:
        if kind == "factor":
            return lu_at(stepper, z, u1k), None
        return stepper.residual(z, x_prev, u1k, u2k), None
    except SolverError as exc:
        return None, exc


def newton_step(stepper, x_prev, u1k, u2k, k, start=None, carried=None):
    """One step of the forward Newton on its own: the requests of
    `_newton_step` answered by one-level stepper calls.  Returns the state,
    the iterations and the LUs formed."""
    return _solve_alone(_newton_step(stepper, x_prev, k, start=start,
                                     carried=carried),
                        stepper, x_prev, u1k, u2k)[:3]


def _march_per_member(problem: ControlProblem, control: Control):
    """The march of one control with `newton_step`: (trajectory, None), or
    (None, (k, error)) for a failure, k the step where Newton failed
    (n_levels for an energy blow-up found after the march)."""
    stepper = problem.stepper
    n_levels = problem.n_levels
    x = np.empty((n_levels, 3 * problem.grid.n))
    iters = np.zeros(n_levels, dtype=int)
    lus = np.zeros(n_levels, dtype=int)
    final = np.zeros(n_levels)
    x[0] = problem.init.stacked()
    carried = CarriedLU() if stepper.superlu else None
    for k in range(1, n_levels):
        guess = None if k == 1 else 2.0 * x[k - 1] - x[k - 2]
        try:
            x[k], iters[k], lus[k], final[k] = _solve_alone(
                _newton_step(stepper, x[k - 1], k, start=guess,
                             carried=carried),
                stepper, x[k - 1], control.u1[k], control.u2[k])
        except SolverError as exc:
            try:
                _check_energy(_step_diagnostics(stepper, x[:k], control)[0])
            except SolverError as energy:
                return None, (k, energy)
            return None, (k, exc)
    energy, mass_rel = _step_diagnostics(stepper, x, control)
    try:
        _check_energy(energy)
    except SolverError as exc:
        return None, (n_levels, exc)
    return StateTrajectory(
        x=x, times=problem.tgrid.times, newton_iters=iters,
        factorizations=lus, final_residual=final, mass_residual=mass_rel,
        energy=energy), None


def solve_states_per_member(problem: ControlProblem, controls) -> list:
    """Reference for `solve_states`: each control marched alone by the
    per-member Newton step.  Raises the error the batch raises: that of
    the lowest-index control among those whose Newton fails first, else
    the energy blow-up of the lowest-index control."""
    _validate_initial(problem.potential, problem.init)
    results = [_march_per_member(problem, u) for u in controls]
    failed = [(fail[0], i, fail[1]) for i, (_, fail) in enumerate(results)
              if fail is not None]
    if failed:
        raise min(failed, key=lambda f: f[:2])[2]
    return [traj for traj, _ in results]


def step_ceiling_two_pass(phi: np.ndarray, dphi: np.ndarray, lo: float,
                          hi: float, margin: float) -> float:
    """Reference: the separation ceiling of Newton, one masked pass for the
    entries moving up and one for those moving down."""
    t = 1.0
    up = dphi > 0.0
    if np.any(up):
        t = min(t, 0.9 * np.min((hi - margin - phi[up]) / dphi[up]))
    dn = dphi < 0.0
    if np.any(dn):
        t = min(t, 0.9 * np.min((lo + margin - phi[dn]) / dphi[dn]))
    return max(t, 0.0)


def energy_by_level(stepper, x: np.ndarray) -> float:
    """Reference: free energy of one stacked state, one `inner` per term."""
    grid = stepper.grid
    mu, phi, sigma = stepper.split(x)
    grad_sq = -inner(grid, grid.lap @ phi, phi)
    fv = inner(grid, stepper.potential.eval(phi, 0), np.ones(stepper.n))
    return float(fv + 0.5 * grad_sq + 0.5 * inner(grid, sigma, sigma)
                 + 0.5 * stepper.params.alpha * inner(grid, mu, mu))


def mass_defect_by_level(stepper, traj, control: Control, k: int) -> float:
    """Reference: relative defect of the discrete mass identity over step k."""
    grid, n, dt = stepper.grid, stepper.n, stepper.dt
    alpha = stepper.params.alpha
    mass = [inner(grid, alpha * traj.mu[j] + traj.phi[j] + traj.sigma[j],
                  np.ones(n)) for j in (k - 1, k)]
    source = inner(grid, control.u2[k]
                   - stepper.nonlin.H.eval(traj.phi[k]) * control.u1[k],
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
        fp = float(problem.stepper.potential.eval(arr, 1)[0])
        pv = float(nl.P.eval(phi))
        hv = float(nl.H.eval(phi))
        dphi = (-fp + mu + pr.chi * sigma) / pr.beta
        dmu = (pv * m - hv * u1_of_t(t) - dphi) / pr.alpha
        dsigma = -pv * m + u2_of_t(t)
        return [dmu, dphi, dsigma]

    y0 = [float(f[0]) for f in problem.stepper.split(problem.init.stacked())]
    sol = solve_ivp(rhs, (0.0, problem.tgrid.t_final), y0, method="RK45",
                    rtol=rtol, atol=atol, dense_output=False)
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
        u = Control([
            np.repeat([[u1_of_t(t) for t in times]], n, axis=0).T.copy(),
            np.repeat([[u2_of_t(t) for t in times]], n, axis=0).T.copy()])
        # no targets: they are shaped for the base grid, and no cost is taken
        traj = dataclasses.replace(
            problem, tgrid=tg, cost=CostSpec(b0=problem.cost.b0)).solve(u)
        vals.append(np.array([f[0] for f in problem.stepper.split(traj.x[-1])]))
    y1, y2, y3 = vals
    z12 = 2.0 * y2 - y1
    z23 = 2.0 * y3 - y2
    return (4.0 * z23 - z12) / 3.0


def active_sets(context, tau=None):
    """The strongly active sets at the context's control for threshold tau,
    `default_tau` when None, as `analyze` forms them."""
    grad = context.gradient
    return strongly_active_sets(grad, default_tau(grad) if tau is None
                                else tau)


def cone_project(h: Control, ubar: Control, box, sets) -> Control:
    """Oracle of the certificate's projection onto the critical cone
    approximation, one direction and one component at a time.

    Zeroes the strongly active points and clips the sign where ubar sits on
    a bound (within 1e-9 of the box span): nonnegative at the lower bound,
    nonpositive at the upper one.
    """
    bound_tol = 1e-9 * box.span()
    v1 = np.where(sets.A1, 0.0, h.u1)
    v2 = np.where(sets.A2, 0.0, h.u2)
    at_lo1 = ubar.u1 <= np.asarray(box.lower1) + bound_tol
    at_hi1 = ubar.u1 >= np.asarray(box.upper1) - bound_tol
    at_lo2 = ubar.u2 <= np.asarray(box.lower2) + bound_tol
    at_hi2 = ubar.u2 >= np.asarray(box.upper2) - bound_tol
    v1 = np.where(at_lo1, np.maximum(v1, 0.0), v1)
    v1 = np.where(at_hi1, np.minimum(v1, 0.0), v1)
    v2 = np.where(at_lo2, np.maximum(v2, 0.0), v2)
    v2 = np.where(at_hi2, np.minimum(v2, 0.0), v2)
    return Control([v1, v2])


def ssc_certificate_full_levels(context, sets, n_samples, box, seed=0):
    """Oracle of `ssc_certificate`: the same blocks of draws, with every
    step on all levels.

    Each draw is projected by `cone_project` and kept by the norms of the
    whole projected and raw directions; the kept directions of a block are
    marched from level 1 and formed on every level.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    problem, ubar, tau = context.problem, context.ubar, sets.tau
    rng = np.random.default_rng(seed)
    grid, tgrid = problem.grid, problem.tgrid
    shape = (problem.n_levels, grid.n)
    kept = 0
    min_q = np.inf
    block = _block_len(problem)
    for start in range(0, n_samples, block):
        draws = rng.standard_normal((min(block, n_samples - start), 2) + shape)
        dirs, norms = [], []
        for raw in map(Control, draws):
            hdir = cone_project(raw, ubar, box, sets)
            nrm = control_norm(grid, tgrid, hdir)
            if nrm <= 1e-12 * max(control_norm(grid, tgrid, raw), 1.0):
                continue
            dirs.append(hdir)
            norms.append(nrm)
        if not dirs:
            continue
        kept += len(dirs)
        for hdir, nrm, lin in zip(dirs, norms, context.linearize(dirs)):
            val = context.form(hdir, hdir, lin_h=lin, lin_k=lin) / nrm**2
            if val < min_q:
                min_q = val
    if kept == 0:
        raise ConfigError(
            "every sampled direction projected to zero; the cone is trivial "
            f"at ssc.tau = {tau:g} (all points strongly active); raise it")
    return SscReport(tau=float(tau), seed=int(seed), sample_count=kept,
                     requested_samples=int(n_samples),
                     min_rayleigh=float(min_q),
                     satisfied=bool(min_q > 0.0))


def ssc_certificate_per_direction(context, tau, n_samples, box, seed=0):
    """Reference: the sampled certificate one direction at a time.

    Each seeded draw is projected onto the cone and, if kept, linearized and
    formed on its own.  Returns the report and every kept Rayleigh quotient
    in draw order.
    """
    problem, ubar = context.problem, context.ubar
    sets = active_sets(context, tau)
    tau = sets.tau
    rng = np.random.default_rng(seed)
    grid, tgrid = problem.grid, problem.tgrid
    shape = (problem.n_levels, grid.n)
    quotients = []
    for _ in range(n_samples):
        raw = Control([rng.standard_normal(shape), rng.standard_normal(shape)])
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


def quadratic_form_bilinear_route(context, h: Control, k: Control,
                                  lin_h=None, lin_k=None) -> float:
    """Oracle of `SecondOrderContext.form`: B(h, k) without the adjoint.

    Differentiates the reduced gradient along the bilinearized march: the
    control and tracking terms of the linearized states plus the misfits
    paired with the bilinearized phase component psi, b1 on every level and
    b2 at the final one.
    """
    problem, state = context.problem, context.state
    if lin_h is None:
        lin_h = context.linearize(h)
    if lin_k is None:
        lin_k = context.linearize(k) if k is not h else lin_h
    bilin = context.bilinearize(lin_h, lin_k, h, k)
    grid, tgrid = problem.grid, problem.tgrid
    cost = problem.cost
    total = cost.b0 * control_inner(grid, tgrid, h, k)
    total += cost.b1 * st_inner(grid, tgrid, lin_h.xi, lin_k.xi)
    misfit = state.phi - problem.target_q()
    total += cost.b1 * st_inner(grid, tgrid, misfit, bilin.xi)
    if cost.b2 != 0.0:
        total += cost.b2 * inner(grid, lin_h.xi[-1], lin_k.xi[-1])
        total += cost.b2 * inner(grid, state.phi[-1] - problem.target_omega(),
                                 bilin.xi[-1])
    return float(total)


def misfit_adjoint_per_level(factors) -> np.ndarray:
    """Reference: the multipliers of `misfit_adjoint`, (N_t+1, 3n), by a
    march of one vector per level from the last level down, each level with
    a zero right-hand side short-circuited to zero."""
    problem, state = factors.problem, factors.state
    cost, stepper = problem.cost, problem.stepper
    n_steps = problem.tgrid.steps
    wt = problem.tgrid.weights()
    sources = np.zeros_like(state.x)
    src_q = stepper.split(sources)[1]
    src_q[:] = (cost.b1 * wt)[:, None] * (state.phi - problem.target_q())
    src_q[n_steps] += cost.b2 * (state.phi[n_steps] - problem.target_omega())
    lam, raw = np.zeros_like(sources), np.zeros(sources.shape[1])
    for k in range(n_steps, 0, -1):
        rhs = stepper.transport.T @ raw + sources[k]
        raw = (stepper.solve_adjoint_step(factors.lu(k), rhs)
               if np.any(rhs) else np.zeros_like(rhs))
        lam[k] = raw / wt[k]
    return lam


def nodal_hessian_columns(context, columns) -> np.ndarray:
    """Columns of `dense_hessian` from Hessian-vector products: H e_i scaled
    by the space-time quadrature weights, since B(e_i, e_j) = <H e_i, e_j>."""
    problem = context.problem
    shape = (problem.n_levels, problem.grid.n)
    size = shape[0] * shape[1]
    weights = (problem.tgrid.weights()[:, None] * problem.grid.weights).ravel()
    out = []
    for i in columns:
        flat = np.zeros(2 * size)
        flat[i] = 1.0
        hh = context.hessian_product(
            Control(flat.reshape((2,) + shape)))
        out.append(np.concatenate([weights * hh.u1.ravel(),
                                   weights * hh.u2.ravel()]))
    return np.stack(out, axis=1)


def dense_hessian(context) -> np.ndarray:
    """Full Hessian matrix in the nodal basis at the context's control.

    Guarded to at most 400 space-time control unknowns; used as an eigenvalue
    cross-check of the sampled certificate.
    """
    problem = context.problem
    n_unknowns = 2 * problem.n_levels * problem.grid.n
    if n_unknowns > 400:
        raise ValueError(
            f"dense Hessian limited to 400 unknowns, got {n_unknowns}")
    shape = (problem.n_levels, problem.grid.n)
    size = problem.n_levels * problem.grid.n

    def basis(i: int) -> Control:
        flat = np.zeros(2 * size)
        flat[i] = 1.0
        return Control(flat.reshape((2,) + shape))

    dirs = [basis(i) for i in range(n_unknowns)]
    block = _block_len(problem)
    lins = [lin for start in range(0, n_unknowns, block)
            for lin in context.linearize(dirs[start:start + block])]
    hess = np.empty((n_unknowns, n_unknowns))
    for a in range(n_unknowns):
        for b in range(a, n_unknowns):
            val = context.form(dirs[a], dirs[b], lin_h=lins[a], lin_k=lins[b])
            hess[a, b] = val
            hess[b, a] = val
    return hess


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
        dirs.append(Control(flat.reshape((2,) + shape)))
    lins = [context.linearize(d) for d in dirs]
    hess = np.empty((2 * size, 2 * size))
    for a in range(2 * size):
        for b in range(a, 2 * size):
            hess[a, b] = hess[b, a] = context.form(
                dirs[a], dirs[b], lin_h=lins[a], lin_k=lins[b])
    return hess


def adjoint_residual_eliminated(context, cut=STRONG_FORM_CUT
                                ) -> AdjointResidualReport:
    """Oracle of `adjoint_continuous_residual`: the same centered strong-form
    assembly, with the nutrient diffusion of the first equation eliminated
    through the third.  The two first equations agree in the limit, so the
    residuals agree to leading order."""
    problem = context.problem
    levels = _strong_form_levels(problem.tgrid, cut)
    state, adj = context.state, context.adjoint
    pr = problem.params
    grid, dt, lap = problem.grid, problem.tgrid.dt, problem.grid.lap
    # the kept levels are consecutive: rows levels and levels + 1 together
    rows = slice(levels[0], levels[-1] + 2)
    P, dPm, dh_u, f2 = problem.stepper.reaction_terms(
        state.x[rows], context.ubar.u1[rows])
    p, q, r = adj.p[rows], adj.q[rows], adj.r[rows]
    mis = state.phi[rows] - problem.target_q()[rows]

    def avg(f):
        return 0.5 * (f[:-1] + f[1:])

    def ddt(f):
        return (f[1:] - f[:-1]) / dt

    def lap_of(f):
        return (lap @ f.T).T

    dtp, dtq, dtr = ddt(p), ddt(q), ddt(r)
    p_bar, q_bar, r_bar = avg(p), avg(q), avg(r)
    reactP_bar = avg(P * (p - r))
    hu_p = avg(dh_u * p)
    dPm_pmr = avg(dPm * (p - r))
    f2q = avg(f2 * q)
    src = problem.cost.b1 * avg(mis)
    # Delta r replaced through the third equation; the chi P (p - r)
    # contributions cancel and a chi^2 q term appears
    res1 = (-dtp - pr.beta * dtq - pr.chi * dtr - lap_of(q_bar)
            + f2q - pr.chi * pr.chi * q_bar + hu_p - dPm_pmr - src)
    res2 = -pr.alpha * dtp - lap_of(p_bar) - q_bar + reactP_bar
    res3 = -dtr - lap_of(r_bar) - pr.chi * q_bar - reactP_bar
    eq1, eq2, eq3 = (np.sqrt((res * res) @ grid.weights)
                     for res in (res1, res2, res3))

    aggregate = float(np.sqrt(dt * np.sum(eq1**2 + eq2**2 + eq3**2)))
    return AdjointResidualReport(levels=levels, eq1=eq1, eq2=eq2, eq3=eq3,
                                 aggregate=aggregate)


def gradient_fd_per_control(context, n_dirs=10, seed=0,
                            eps_values=EPS_LADDER,
                            search_values=FD_SEARCH_LADDER, slope_band=0.2):
    """Reference: `check_gradient_fd` with one solve per shifted control,
    each direction drawn just before its ladder."""
    problem, ubar = context.problem, context.ubar
    rng = np.random.default_rng(seed)
    grid, tgrid = problem.grid, problem.tgrid
    gc = context.gradient.grad
    all_eps = tuple(sorted(set(eps_values) | set(search_values), reverse=True))
    ladder_idx = [all_eps.index(e) for e in eps_values]
    errors = np.zeros((n_dirs, len(all_eps)))
    exact_vals = np.zeros(n_dirs)
    for d in range(n_dirs):
        v = _random_direction(problem, rng)
        exact = control_inner(grid, tgrid, gc, v)
        exact_vals[d] = exact
        for i, e in enumerate(all_eps):
            up, down = _shifted(ubar, v, e), _shifted(ubar, v, -e)
            jp = cost_eval(problem, problem.solve(up), up)
            jm = cost_eval(problem, problem.solve(down), down)
            fd = (jp - jm) / (2.0 * e)
            errors[d, i] = abs(fd - exact) / max(1.0, abs(exact))
    best = errors.min(axis=1)
    ladder_err = errors[:, ladder_idx].max(axis=0)
    return make_slope_report(
        np.asarray(eps_values), ladder_err, expected_slope=2.0,
        band=slope_band, details={
            "best_rel_error_per_dir": best.tolist(),
            "worst_best_rel_error": float(best.max()),
            "directional_derivatives": exact_vals.tolist(),
        })


def taylor_orders_per_control(context, v=None, h=None, eps_values=EPS_LADDER,
                              seed=0, slope_bands=(0.2, 0.2, 0.2)):
    """Reference: `check_taylor_orders` with one context, and so one solve,
    per shifted control."""
    problem, ubar = context.problem, context.ubar
    rng = np.random.default_rng(seed)
    if v is None:
        v = _random_direction(problem, rng)
    if h is None:
        h = _random_direction(problem, rng)
    grid, tgrid = problem.grid, problem.tgrid
    state = context.state
    lin_v, lin_h = context.linearize([v, h])
    bilin_vh = context.bilinearize(lin_v, lin_h, v, h)
    j0 = cost_eval(problem, state, ubar)
    slope_v = control_inner(grid, tgrid, context.gradient.grad, v)
    b_vv = context.form(v, v, lin_h=lin_v, lin_k=lin_v)
    err_state, err_ds, err_cost = [], [], []
    state_scale = max(_norm3(problem, lin_v.y), 1e-300)
    for e in eps_values:
        ctx_e = SecondOrderContext(problem, _shifted(ubar, v, e))
        state_e = ctx_e.state
        diff = _norm3(problem, state_e.x - state.x - e * lin_v.y)
        err_state.append(diff / state_scale)
        lin_h_e = ctx_e.linearize(h)
        rem = _norm3(problem, lin_h_e.y - lin_h.y - e * bilin_vh.y)
        err_ds.append(rem / max(_norm3(problem, lin_h.y), 1e-300))
        j_e = cost_eval(problem, state_e, ctx_e.ubar)
        r3 = j_e - j0 - e * slope_v - 0.5 * e * e * b_vv
        err_cost.append(abs(r3) / max(1.0, abs(j0)))
    return (make_slope_report(eps_values, err_state, 2.0, slope_bands[0]),
            make_slope_report(eps_values, err_ds, 2.0, slope_bands[1]),
            make_slope_report(eps_values, err_cost, 3.0, slope_bands[2]))


def stability_ratios_per_control(problem, n_pairs=2, seed=0, amp=0.3,
                                 factor_bound=2.0):
    """Reference: `check_stability_ratios` with one context, and so one
    solve, per drawn control."""
    fine = refine_problem(problem)
    rng_master = np.random.default_rng(seed)
    pair_seeds = rng_master.integers(0, 2**32 - 1, size=n_pairs)

    def ratios_at(pr, seeds):
        out = {"state": [], "ds": [], "d2s": []}
        for s in seeds:
            rng = np.random.default_rng(int(s))
            ua = _smooth_random_control(pr, rng, amp)
            ub = _smooth_random_control(pr, rng, amp)
            h = _smooth_random_control(pr, rng, amp)
            v = _smooth_random_control(pr, rng, amp)
            du = control_norm(pr.grid, pr.tgrid,
                              Control(ua.v - ub.v))
            nh = control_norm(pr.grid, pr.tgrid, h)
            nv = control_norm(pr.grid, pr.tgrid, v)
            if du == 0.0 or nh == 0.0 or nv == 0.0:
                continue
            ctx_a = SecondOrderContext(pr, ua)
            ctx_b = SecondOrderContext(pr, ub)
            out["state"].append(_norm3(pr, ctx_a.state.x - ctx_b.state.x)
                                / du)
            lin_ha, lin_va = ctx_a.linearize([h, v])
            lin_hb, lin_vb = ctx_b.linearize([h, v])
            out["ds"].append(_norm3(pr, lin_ha.y - lin_hb.y) / (du * nh))
            bil_a = ctx_a.bilinearize(lin_ha, lin_va, h, v)
            bil_b = ctx_b.bilinearize(lin_hb, lin_vb, h, v)
            out["d2s"].append(_norm3(pr, bil_a.y - bil_b.y)
                              / (du * nh * nv))
        return {k: float(np.max(vals)) if vals else 0.0
                for k, vals in out.items()}

    base = ratios_at(problem, pair_seeds)
    refined = ratios_at(fine, pair_seeds)
    factors = []
    for key in base:
        lo, hi = sorted((base[key], refined[key]))
        factors.append(hi / max(lo, 1e-300))
    max_factor = float(np.max(factors))
    rng = np.random.default_rng(int(pair_seeds[0]))
    ua = _smooth_random_control(problem, rng, amp)
    h = _smooth_random_control(problem, rng, amp)
    ctx = SecondOrderContext(problem, ua)
    lin1, lin2 = ctx.linearize([h, Control(2.0 * h.v)])
    hom = float(np.max(np.abs(lin2.y - 2.0 * lin1.y)))
    hom_rel = hom / max(_norm3(problem, lin1.y), 1e-300)
    passed = bool(max_factor < factor_bound and hom_rel < 1e-12)
    return StabilityReport(base_ratios=base, refined_ratios=refined,
                           max_change_factor=max_factor,
                           homogeneity_error=hom_rel, passed=passed)


# ---------------------------------------------------------------------------
# the forked tail of the verification battery


def force_tail_path(monkeypatch, fork: bool) -> list[int]:
    """Make `run_verification` fork its tail (`fork`) or run it inline, and
    record the pid `os.fork` returns to this process at each call."""
    forks: list[int] = []
    real_fork = os.fork

    def recorded_fork() -> int:
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded_fork)
    monkeypatch.setattr(verify_module, "_may_fork", lambda: fork)
    return forks


def in_forked_child(parent_pid: int, action):
    """A stand-in for a check of the battery's tail: it runs `action()` in
    a forked child, and refuses to run in the test's own process."""
    def check(*args, **kwargs):
        if os.getpid() == parent_pid:
            raise AssertionError("the tail ran in the test's process")
        return action()
    return check


@contextlib.contextmanager
def time_limit(seconds: int):
    """Fail the block with a TimeoutError once it has run `seconds`: a
    wait on a forked child that never ends fails instead of hanging."""
    def expire(*_):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_child_left() -> None:
    """This process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise AssertionError("a child process was left behind")
