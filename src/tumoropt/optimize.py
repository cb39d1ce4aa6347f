"""Reduced cost, projected gradient descent, and second-order analysis.

The reduced gradient combines the adjoint-derived field d = (-h(phi) p, r)
with the control-cost term b0 u; it is exact for the discrete problem, so
finite-difference checks agree to the differencing error alone.  The
quadratic form assembled here is the exact Hessian of the discrete reduced
cost (final-time tracking off), evaluated from first-order sensitivities of
two directions and the adjoint, and cross-checkable against a march of the
bilinearized system.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .adjoint import AdjointTrajectory, solve_adjoint
from .grid import Grid, inner
from .model import (BoxConstraints, Control, CostSpec, project_admissible)
from .problem import (ControlProblem, control_inner, control_norm, st_inner)
from .sensitivity import (LambdaFlags, LinearizedTrajectory, StepFactors,
                          solve_bilinearized, solve_generalized_linear)
from .state import StateTrajectory, TimeGrid


def cost_eval(state: StateTrajectory, u: Control, cost: CostSpec,
              grid: Grid, tgrid: TimeGrid) -> float:
    """Tracking plus control cost of a state/control pair."""
    n_steps = tgrid.steps
    n = grid.n
    target_q = (cost.target_Q if cost.target_Q is not None
                else np.zeros((n_steps + 1, n)))
    target_omega = (cost.target_Omega if cost.target_Omega is not None
                    else np.zeros(n))
    j = 0.5 * cost.b0 * (st_inner(grid, tgrid, u.u1, u.u1)
                         + st_inner(grid, tgrid, u.u2, u.u2))
    if cost.b1 != 0.0:
        mis = state.phi - target_q
        j += 0.5 * cost.b1 * st_inner(grid, tgrid, mis, mis)
    if cost.b2 != 0.0:
        mis_t = state.phi[n_steps] - target_omega
        j += 0.5 * cost.b2 * inner(grid, mis_t, mis_t)
    return float(j)


@dataclass(eq=False)
class GradientField:
    """Adjoint field d and full gradient grad = d + b0 u, both components."""

    d1: np.ndarray
    d2: np.ndarray
    grad1: np.ndarray
    grad2: np.ndarray

    def as_control(self) -> Control:
        return Control(self.grad1.copy(), self.grad2.copy())


def reduced_gradient(ubar: Control, problem: ControlProblem,
                     state: StateTrajectory | None = None) -> GradientField:
    """Gradient of the reduced cost at ubar in the space-time inner product."""
    return SecondOrderContext(problem, ubar, state).gradient


def stationarity_measure(ubar: Control, problem: ControlProblem,
                         box: BoxConstraints,
                         grad: GradientField | None = None) -> float:
    """Norm of ubar - proj(ubar - grad), zero exactly at a stationary point."""
    if grad is None:
        grad = reduced_gradient(ubar, problem)
    trial = project_admissible(
        Control(ubar.u1 - grad.grad1, ubar.u2 - grad.grad2), box)
    diff = Control(ubar.u1 - trial.u1, ubar.u2 - trial.u2)
    return control_norm(problem.grid, problem.tgrid, diff)


# ---------------------------------------------------------------------------
# projected gradient descent


@dataclass(frozen=True)
class PgdOptions:
    max_iter: int = 100
    tol: float = 1e-6
    initial_step: float = 1.0
    armijo_c: float = 1e-4
    shrink: float = 0.5
    max_backtracks: int = 40
    step_min: float = 1e-12
    step_max: float = 1e12


@dataclass(eq=False)
class PgdResult:
    control: Control
    cost: float
    stationarity: float
    converged: bool
    n_iter: int
    history: list[dict] = field(default_factory=list)
    gradient: GradientField | None = None


def projected_gradient(u0: Control, problem: ControlProblem,
                       box: BoxConstraints,
                       opts: PgdOptions | None = None) -> PgdResult:
    """Projected gradient descent with a Barzilai-Borwein step seed.

    Each iteration projects a gradient step onto the box and backtracks on
    the Armijo condition J(trial) <= J(u) - c <grad, u - trial>.  The BB1
    quotient <du, du> / <du, dg> seeds the step length; on a pure control
    cost it equals 1/b0 and the iteration lands on the projected origin.
    """
    opts = opts or PgdOptions()
    grid, tgrid = problem.grid, problem.tgrid
    u = project_admissible(u0, box)
    state = problem.solve(u)
    j = cost_eval(state, u, problem.cost, grid, tgrid)
    grad = reduced_gradient(u, problem, state=state)
    history: list[dict] = []
    step = opts.initial_step
    u_prev = None
    grad_prev = None
    converged = False
    it = 0

    for it in range(opts.max_iter + 1):
        stat = stationarity_measure(u, problem, box, grad=grad)
        history.append({"iteration": it, "cost": j, "stationarity": stat,
                        "step_size": step})
        if stat <= opts.tol:
            converged = True
            break
        if it == opts.max_iter:
            break
        if u_prev is not None:
            du = Control(u.u1 - u_prev.u1, u.u2 - u_prev.u2)
            dg = Control(grad.grad1 - grad_prev.grad1,
                         grad.grad2 - grad_prev.grad2)
            denom = control_inner(grid, tgrid, du, dg)
            if denom > 0.0:
                step = control_inner(grid, tgrid, du, du) / denom
        step = min(max(step, opts.step_min), opts.step_max)

        accepted = False
        t = step
        j_new = j
        state_new = state
        trial = u
        for _ in range(opts.max_backtracks):
            trial = project_admissible(
                Control(u.u1 - t * grad.grad1, u.u2 - t * grad.grad2), box)
            decrease = control_inner(
                grid, tgrid, grad.as_control(),
                Control(u.u1 - trial.u1, u.u2 - trial.u2))
            state_new = problem.solve(trial)
            j_new = cost_eval(state_new, trial, problem.cost, grid, tgrid)
            if j_new <= j - opts.armijo_c * decrease:
                accepted = True
                break
            t *= opts.shrink
        if not accepted:
            break
        u_prev, grad_prev = u, grad
        u, j, state, step = trial, j_new, state_new, t
        grad = reduced_gradient(u, problem, state=state)

    return PgdResult(control=u, cost=j,
                     stationarity=history[-1]["stationarity"],
                     converged=converged, n_iter=it, history=history,
                     gradient=grad)


# ---------------------------------------------------------------------------
# active sets, critical cone, curvature


@dataclass(eq=False)
class ActiveSets:
    """Strongly active masks for both control components, shape (N_t+1, n)."""

    A1: np.ndarray
    A2: np.ndarray
    tau: float


def strongly_active_sets(grad: GradientField, tau: float) -> ActiveSets:
    """Points where the gradient magnitude exceeds the threshold tau."""
    if tau < 0.0:
        raise ValueError("tau must be nonnegative")
    return ActiveSets(A1=np.abs(grad.grad1) > tau,
                      A2=np.abs(grad.grad2) > tau, tau=tau)


def default_tau(grad: GradientField) -> float:
    scale = max(float(np.max(np.abs(grad.grad1))),
                float(np.max(np.abs(grad.grad2))), 0.0)
    return 1e-3 * scale


def cone_project(h: Control, ubar: Control, box: BoxConstraints,
                 sets: ActiveSets, bound_tol: float | None = None) -> Control:
    """Project a direction onto the critical cone approximation.

    Zeroes the strongly active points and clips the sign where ubar sits on
    a bound (within bound_tol): nonnegative at the lower bound, nonpositive
    at the upper one.
    """
    if bound_tol is None:
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
    return Control(v1, v2)


class SecondOrderContext:
    """State, step factors and adjoint at one control, each built once.

    The gradient, the linearized and bilinearized marches and the exact
    Hessian form at `ubar` all reuse the one factor pass along the state.
    """

    def __init__(self, problem: ControlProblem, ubar: Control,
                 state: StateTrajectory | None = None):
        self.problem = problem
        self.ubar = ubar
        self.state = state if state is not None else problem.solve(ubar)

    @functools.cached_property
    def factors(self) -> StepFactors:
        return StepFactors(self.problem, self.state, self.ubar)

    @functools.cached_property
    def adjoint(self) -> AdjointTrajectory:
        return solve_adjoint(self.problem, self.state, self.ubar,
                             factors=self.factors)

    @functools.cached_property
    def gradient(self) -> GradientField:
        pr, adj = self.problem, self.adjoint
        d1 = np.zeros((pr.n_levels, pr.grid.n))
        d2 = np.zeros((pr.n_levels, pr.grid.n))
        for k in range(1, pr.n_levels):
            # 0.0 - x rather than -x: a negated zero field would leak -0.0
            d1[k] = 0.0 - pr.nonlin.eval("h", self.state.phi[k]) * adj.p[k]
            d2[k] = adj.r[k]
        b0 = pr.cost.b0
        return GradientField(d1=d1, d2=d2,
                             grad1=b0 * self.ubar.u1 + d1,
                             grad2=b0 * self.ubar.u2 + d2)

    def linearize(self, h: Control) -> LinearizedTrajectory:
        return solve_generalized_linear(self.problem, self.state, self.ubar,
                                        LambdaFlags(), h=h,
                                        factors=self.factors)

    def bilinearize(self, lin_h: LinearizedTrajectory,
                    lin_k: LinearizedTrajectory, h: Control,
                    k: Control) -> LinearizedTrajectory:
        return solve_bilinearized(self.problem, self.state, self.ubar,
                                  lin_h, lin_k, h, k, factors=self.factors)

    def form(self, h: Control, k: Control,
             lin_h: LinearizedTrajectory | None = None,
             lin_k: LinearizedTrajectory | None = None) -> float:
        """Exact Hessian form B(h, k) of the discrete reduced cost (b2 = 0)."""
        pr = self.problem
        if pr.cost.b2 != 0.0:
            raise ValueError(
                "final-time tracking must be disabled for second-order "
                "analysis (set b2 = 0)")
        if lin_h is None:
            lin_h = self.linearize(h)
        if lin_k is None:
            lin_k = self.linearize(k) if k is not h else lin_h
        cost = pr.cost
        stepper = pr.stepper
        state = self.state
        wt = pr.tgrid.weights()

        total = cost.b0 * control_inner(pr.grid, pr.tgrid, h, k)
        if cost.b1 != 0.0:
            total += cost.b1 * st_inner(pr.grid, pr.tgrid, lin_h.xi, lin_k.xi)

        # sum_j <lambda_j, S_j(h, k)>: each step multiplier paired with the
        # source of the bilinearized step
        acc = 0.0
        for j in range(1, pr.n_levels):
            src = stepper.second_order_source(
                state.mu[j], state.phi[j], state.sigma[j], self.ubar.u1[j],
                lin_h.snapshot(j), lin_k.snapshot(j), h.u1[j], k.u1[j])
            acc += float(np.dot(stepper.w3,
                                self.adjoint.multiplier(j, wt) * src))
        return float(total + acc)


def quadratic_form(ubar: Control, h: Control, k: Control,
                   problem: ControlProblem,
                   context: SecondOrderContext | None = None) -> float:
    """Second derivative of the reduced cost at ubar applied to (h, k)."""
    if context is None:
        context = SecondOrderContext(problem, ubar)
    return context.form(h, k)


@dataclass(frozen=True)
class SscReport:
    """Sampled curvature certificate over the critical cone."""

    tau: float
    seed: int
    sample_count: int
    requested_samples: int
    min_rayleigh: float
    satisfied: bool


def ssc_certificate(ubar: Control, tau: float | None, n_samples: int,
                    problem: ControlProblem, box: BoxConstraints,
                    seed: int = 0,
                    context: SecondOrderContext | None = None) -> SscReport:
    """Estimate the coercivity constant on the critical cone by sampling.

    Draws seeded Gaussian directions, projects them onto the cone (strongly
    active points zeroed, signs clipped at the bounds), and minimizes the
    Rayleigh quotient B(h, h)/|h|^2 over the retained samples.  Deterministic
    for a fixed seed.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if context is None:
        context = SecondOrderContext(problem, ubar)
    if tau is None:
        tau = default_tau(context.gradient)
    sets = strongly_active_sets(context.gradient, tau)
    rng = np.random.default_rng(seed)
    grid, tgrid = problem.grid, problem.tgrid
    shape = (problem.n_levels, grid.n)

    kept = 0
    min_q = np.inf
    for _ in range(n_samples):
        raw = Control(rng.standard_normal(shape), rng.standard_normal(shape))
        hdir = cone_project(raw, ubar, box, sets)
        nrm = control_norm(grid, tgrid, hdir)
        if nrm <= 1e-12 * max(control_norm(grid, tgrid, raw), 1.0):
            continue
        kept += 1
        val = context.form(hdir, hdir) / nrm**2
        if val < min_q:
            min_q = val
    if kept == 0:
        raise ValueError(
            "every sampled direction projected to zero; the cone is trivial "
            "at this tau (all points strongly active)")
    return SscReport(tau=float(tau), seed=int(seed), sample_count=kept,
                     requested_samples=int(n_samples),
                     min_rayleigh=float(min_q),
                     satisfied=bool(min_q > 0.0))


def dense_hessian(ubar: Control, problem: ControlProblem,
                  context: SecondOrderContext | None = None) -> np.ndarray:
    """Full Hessian matrix in the nodal basis, for tiny control spaces.

    Guarded to at most 400 space-time control unknowns; used as an eigenvalue
    cross-check of the sampled certificate.
    """
    n_unknowns = 2 * problem.n_levels * problem.grid.n
    if n_unknowns > 400:
        raise ValueError(
            f"dense Hessian limited to 400 unknowns, got {n_unknowns}")
    if context is None:
        context = SecondOrderContext(problem, ubar)
    shape = (problem.n_levels, problem.grid.n)
    size = problem.n_levels * problem.grid.n

    def basis(i: int) -> Control:
        flat = np.zeros(2 * size)
        flat[i] = 1.0
        return Control(flat[:size].reshape(shape), flat[size:].reshape(shape))

    dirs = [basis(i) for i in range(n_unknowns)]
    lins = [context.linearize(d) for d in dirs]
    hess = np.empty((n_unknowns, n_unknowns))
    for a in range(n_unknowns):
        for b in range(a, n_unknowns):
            val = context.form(dirs[a], dirs[b], lin_h=lins[a], lin_k=lins[b])
            hess[a, b] = val
            hess[b, a] = val
    return hess
