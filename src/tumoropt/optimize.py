"""Reduced cost, projected gradient descent, and second-order analysis.

The reduced gradient combines the adjoint-derived field d = (-h(phi) p, r)
with the control-cost term b0 u; it is exact for the discrete problem, so
finite-difference checks agree to the differencing error alone.  The
quadratic form assembled here is the exact Hessian of the discrete reduced
cost, evaluated from first-order sensitivities of two directions and the
adjoint, and cross-checkable against a march of the bilinearized system.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .adjoint import AdjointTrajectory, solve_adjoint
from .errors import ConfigError
from .grid import inner
from .model import (BoxConstraints, Control, check_ranges,
                    project_admissible)
from .problem import (ControlProblem, control_inner, control_norm, st_inner)
from .sensitivity import (LinearizedTrajectory, StepFactors,
                          solve_bilinearized, solve_generalized_linear)
from .state import StateTrajectory

# Bytes of linearized histories, (N_t+1) x 3n float64 values per direction,
# that one block march of curvature directions holds: 6 directions of a
# 129-node line over 200 steps, 5 of a 33x33 rectangle over 30.  A march
# holds its sources and draws beside them, so peak memory grows by about
# four times this; larger blocks measured no faster on either.
_BLOCK_BYTES = 4 * 2**20


def cost_eval(problem: ControlProblem, state: StateTrajectory,
              u: Control) -> float:
    """Tracking plus control cost of a state/control pair of `problem`."""
    grid, tgrid, cost = problem.grid, problem.tgrid, problem.cost
    j = 0.5 * cost.b0 * (st_inner(grid, tgrid, u.u1, u.u1)
                         + st_inner(grid, tgrid, u.u2, u.u2))
    if cost.b1 != 0.0:
        mis = state.phi - problem.target_q()
        j += 0.5 * cost.b1 * st_inner(grid, tgrid, mis, mis)
    if cost.b2 != 0.0:
        mis_t = state.phi[tgrid.steps] - problem.target_omega()
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
    """Gradient of the reduced cost at ubar in the space-time inner product.

    Its adjoint march uses each step factor once, so none is kept: each is
    dropped after its solve (`SecondOrderContext` keeps them for the
    curvature marches that reuse them).
    """
    if state is None:
        state = problem.solve(ubar)
    factors = StepFactors(problem, state, ubar, cache_bytes=0)
    return _gradient_field(factors, solve_adjoint(factors))


def _gradient_field(factors: StepFactors, adjoint: AdjointTrajectory
                    ) -> GradientField:
    """The gradient (-h(phi) p + b0 u1, r + b0 u2) from the adjoint at the
    linearization point of `factors`."""
    # level 0 of the multipliers is zero; 0.0 - x rather than -x keeps a
    # negated zero field from leaking -0.0
    d1 = 0.0 - factors.h_phi * adjoint.p
    d2 = adjoint.r.copy()
    b0, ubar = factors.problem.cost.b0, factors.ubar
    return GradientField(d1=d1, d2=d2, grad1=b0 * ubar.u1 + d1,
                         grad2=b0 * ubar.u2 + d2)


def stationarity_measure(ubar: Control, problem: ControlProblem,
                         box: BoxConstraints, grad: GradientField) -> float:
    """Norm of ubar - proj(ubar - grad), zero exactly at a stationary point."""
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

    def __post_init__(self):
        # every descent iteration takes at least one Armijo trial, each
        # backtrack shortens the step, and the Barzilai-Borwein step is
        # clamped into [step_min, step_max]
        check_ranges(self, positive=("tol", "initial_step", "armijo_c",
                                     "step_min", "step_max"),
                     at_least_one=("max_iter", "max_backtracks"))
        if not 0.0 < self.shrink < 1.0:
            raise ValueError(f"shrink must lie in (0, 1), got {self.shrink}")
        if self.step_min > self.step_max:
            raise ValueError(
                f"step_min must not exceed step_max, got {self.step_min} > "
                f"{self.step_max}")


@dataclass(eq=False)
class PgdResult:
    """Outcome of `projected_gradient`.

    `reason` says why it stopped: "converged" (stationarity within tol),
    "max_iter" (the iteration budget ran out) or "line_search_failed" (no
    Armijo trial was accepted within max_backtracks).
    """

    control: Control
    cost: float
    stationarity: float
    reason: str
    n_iter: int
    gradient: GradientField
    history: list[dict] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.reason == "converged"


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
    j = cost_eval(problem, state, u)
    grad = reduced_gradient(u, problem, state=state)
    history: list[dict] = []
    step = opts.initial_step
    u_prev = None
    grad_prev = None
    reason = "max_iter"
    it = 0

    for it in range(opts.max_iter + 1):
        stat = stationarity_measure(u, problem, box, grad)
        history.append({"iteration": it, "cost": j, "stationarity": stat,
                        "step_size": step})
        if stat <= opts.tol:
            reason = "converged"
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
            j_new = cost_eval(problem, state_new, trial)
            if j_new <= j - opts.armijo_c * decrease:
                accepted = True
                break
            t *= opts.shrink
        if not accepted:
            reason = "line_search_failed"
            break
        u_prev, grad_prev = u, grad
        u, j, state, step = trial, j_new, state_new, t
        grad = reduced_gradient(u, problem, state=state)

    return PgdResult(control=u, cost=j,
                     stationarity=history[-1]["stationarity"],
                     reason=reason, n_iter=it, history=history,
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
                 sets: ActiveSets) -> Control:
    """Project a direction onto the critical cone approximation.

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
        return solve_adjoint(self.factors)

    @functools.cached_property
    def gradient(self) -> GradientField:
        return _gradient_field(self.factors, self.adjoint)

    def linearize(self, h: Control | Sequence[Control]
                  ) -> LinearizedTrajectory | list[LinearizedTrajectory]:
        """`solve_generalized_linear` at this control: one trajectory for
        one Control, a list of them for a sequence marched as one block."""
        return solve_generalized_linear(self.factors, h)

    def bilinearize(self, lin_h: LinearizedTrajectory,
                    lin_k: LinearizedTrajectory, h: Control,
                    k: Control) -> LinearizedTrajectory:
        return solve_bilinearized(self.factors, lin_h, lin_k, h, k)

    def form(self, h: Control, k: Control,
             lin_h: LinearizedTrajectory | None = None,
             lin_k: LinearizedTrajectory | None = None) -> float:
        """Exact Hessian form B(h, k) of the discrete reduced cost."""
        pr = self.problem
        if lin_h is None:
            lin_h = self.linearize(h)
        if lin_k is None:
            lin_k = self.linearize(k) if k is not h else lin_h
        cost, adj = pr.cost, self.adjoint
        total = cost.b0 * control_inner(pr.grid, pr.tgrid, h, k)
        if cost.b1 != 0.0:
            total += cost.b1 * st_inner(pr.grid, pr.tgrid, lin_h.xi, lin_k.xi)
        if cost.b2 != 0.0:
            total += cost.b2 * inner(pr.grid, lin_h.xi[-1], lin_k.xi[-1])

        # sum_k <lambda_k, S_k(h, k)>: the step multipliers, wt_k (p, q, r)_k,
        # paired with the sources of the bilinearized steps 1..N_t
        s1, s2, s3 = pr.stepper.split(pr.stepper.second_order_source(
            self.factors.coefficients, lin_h.y[1:], lin_k.y[1:], h.u1[1:],
            k.u1[1:]))
        pairing = adj.p[1:] * s1 + adj.q[1:] * s2 + adj.r[1:] * s3
        acc = np.einsum("k,ki,i->", pr.tgrid.weights()[1:], pairing,
                        pr.grid.weights)
        return float(total + acc)


def _block_len(problem: ControlProblem, extra_bytes: int = 0) -> int:
    """Directions one block march takes within `_BLOCK_BYTES` (at least 1),
    each holding its history and `extra_bytes` beside it."""
    return max(1, _BLOCK_BYTES // (24 * problem.n_levels * problem.grid.n
                                   + extra_bytes))


@dataclass(frozen=True)
class SscReport:
    """Sampled curvature certificate over the critical cone."""

    tau: float
    seed: int
    sample_count: int
    requested_samples: int
    min_rayleigh: float
    satisfied: bool


def ssc_certificate(context: SecondOrderContext, tau: float | None,
                    n_samples: int, box: BoxConstraints,
                    seed: int = 0) -> SscReport:
    """Estimate the coercivity constant on the critical cone by sampling.

    Draws seeded Gaussian directions, projects them onto the cone (strongly
    active points zeroed, signs clipped at the bounds), and minimizes the
    Rayleigh quotient B(h, h)/|h|^2 over the retained samples at the
    context's control.  The draws come in blocks of `_block_len` directions,
    the same stream as one direction at a time, and the retained directions
    of a block are linearized in one march.  Deterministic for a fixed seed.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    problem, ubar = context.problem, context.ubar
    if tau is None:
        tau = default_tau(context.gradient)
    sets = strongly_active_sets(context.gradient, tau)
    rng = np.random.default_rng(seed)
    grid, tgrid = problem.grid, problem.tgrid
    shape = (problem.n_levels, grid.n)

    kept = 0
    min_q = np.inf
    block = _block_len(problem)
    for start in range(0, n_samples, block):
        draws = rng.standard_normal((min(block, n_samples - start), 2) + shape)
        dirs, norms = [], []
        for raw in map(Control, draws[:, 0], draws[:, 1]):
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
