"""Reduced cost, projected descent, and second-order analysis.

The reduced gradient combines the adjoint-derived field d = (-h(phi) p, r)
with the control-cost term b0 u; it is exact for the discrete problem, so
finite-difference checks agree to the differencing error alone.  The
quadratic form assembled here is the exact Hessian of the discrete reduced
cost, evaluated from first-order sensitivities of two directions and the
adjoint, and cross-checkable against a march of the bilinearized system;
its Hessian-vector products come from a second-order adjoint march.  The
descent takes Barzilai-Borwein gradient steps, then projected Newton-CG
steps on those products once a gradient step stalls.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .adjoint import AdjointTrajectory, misfit_adjoint, solve_adjoint
from .errors import ConfigError
from .grid import inner
from .model import (BoxConstraints, Control, check_ranges,
                    project_admissible)
from .problem import (ControlProblem, control_inner, control_norm,
                      st_integral, st_inner)
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
    mis = state.phi - problem.target_q()
    mis_t = state.phi[tgrid.steps] - problem.target_omega()
    return float(0.5 * cost.b0 * control_inner(grid, tgrid, u, u)
                 + 0.5 * cost.b1 * st_inner(grid, tgrid, mis, mis)
                 + 0.5 * cost.b2 * inner(grid, mis_t, mis_t))


@dataclass(eq=False)
class GradientField:
    """Adjoint field d and full gradient grad = d + b0 u, each a Control,
    and the adjoint they came from."""

    d: Control
    grad: Control
    adjoint: AdjointTrajectory


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
    return _gradient_field(factors, misfit_adjoint(factors))


def _gradient_field(factors: StepFactors, adjoint: AdjointTrajectory
                    ) -> GradientField:
    """The gradient (-h(phi) p + b0 u1, r + b0 u2) from the adjoint at the
    linearization point of `factors`."""
    # level 0 of the multipliers is zero; 0.0 - x rather than -x keeps a
    # negated zero field from leaking -0.0
    d = Control([0.0 - factors.h_phi * adjoint.p, adjoint.r])
    grad = Control(factors.problem.cost.b0 * factors.ubar.v + d.v)
    return GradientField(d=d, grad=grad, adjoint=adjoint)


def stationarity_measure(ubar: Control, problem: ControlProblem,
                         box: BoxConstraints, grad: GradientField) -> float:
    """Norm of ubar - proj(ubar - grad), zero exactly at a stationary point."""
    trial = project_admissible(Control(ubar.v - grad.grad.v), box)
    return control_norm(problem.grid, problem.tgrid, Control(ubar.v - trial.v))


# ---------------------------------------------------------------------------
# projected descent: gradient steps, then Newton-CG steps


@dataclass(frozen=True)
class PgdOptions:
    """The descent's budget and stopping tolerance on the stationarity
    measure."""

    max_iter: int = 100
    tol: float = 1e-6

    def __post_init__(self):
        check_ranges(self, positive=("tol",), at_least_one=("max_iter",))


@dataclass(eq=False)
class PgdResult:
    """Outcome of `projected_gradient`.

    `reason` says why it stopped: "converged" (stationarity within tol),
    "max_iter" (the iteration budget ran out) or "line_search_failed" (none
    of `_MAX_BACKTRACKS` Armijo trials was accepted).  Row i of `history`
    describes iterate i and the iteration that reached it: its cost and
    stationarity, the accepted step length (`step_size`), the Armijo trials
    taken, each one state solve (`solves`), and the Hessian-vector products
    of a Newton-CG step (`cg_iters`, 0 on a Barzilai-Borwein step).  Row 0
    holds `_INITIAL_STEP` and no trial.
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


# The Armijo line search of every iteration (Nocedal & Wright, Numerical
# Optimization, ch. 3): a trial u(t) is accepted once
# J(u(t)) <= J(u) - _ARMIJO_C <grad, u - u(t)>, and each rejected one halves
# t (`_SHRINK`), within `_MAX_BACKTRACKS` trials.
_ARMIJO_C = 1e-4
_SHRINK = 0.5
_MAX_BACKTRACKS = 40
# The length of the first gradient step, and the clamp of every
# Barzilai-Borwein step length.
_INITIAL_STEP = 1.0
_STEP_MIN = 1e-12
_STEP_MAX = 1e12
# A Barzilai-Borwein step that keeps more than this share of the stationarity
# measure hands the run to Newton-CG steps.  The first step kept 0.064 of it
# on desk-1d and 0.071 on rect-2d, which then converge at the next step, and
# 0.93 on track-1d, where gradient steps alone need 9 iterations.
_SWITCH_RATIO = 0.25
# Cap of the CG forcing term eta = min(cap, sqrt(|r0|)): CG stops once the
# residual falls below eta |r0|.  On track-1d a cap of 0.1 took 4 Newton
# iterations (0.154 s) where 0.01 took 3 (0.125 s); 0.001 took as many
# iterations and more products (0.129 s, and 0.252 s against 0.231 s at
# b0 = 1e-3).
_FORCING_CAP = 0.01
# A point within min(this, stationarity) of a bound, where the gradient
# pushes outward, is binding and takes a steepest-descent step (Bertsekas'
# projected Newton).  With bounds +-0.02 on track-1d (93-97 % of the
# points end on a bound at b0 = 1e-2 and 1e-3), every value from 0 to 1e-2
# took the same 3 and 4 iterations.
_BINDING_TOL = 1e-3
# Hessian-vector products one Newton-CG step may take.  No step took more
# than 5 on track-1d at b0 = 1e-2 and 1e-3 (any forcing cap above), its
# bound-active variants, or rect-2d at b0 = 1e-2.  20 products take about
# as long as 4 gradient steps on desk-1d (10.7 ms each, against 54 ms for a
# state solve and a gradient) and 1.5 on rect-2d (13 ms against 180 ms).
_CG_MAX_ITER = 20


def projected_gradient(u0: Control, problem: ControlProblem,
                       box: BoxConstraints,
                       opts: PgdOptions | None = None) -> PgdResult:
    """Projected descent: Barzilai-Borwein gradient steps, then projected
    Newton-CG steps once a gradient step stalls.

    Each iteration projects a step u - t s onto the box and backtracks on
    the Armijo condition J(trial) <= J(u) - c <grad, u - trial>.  A
    gradient step takes s = grad, its length t seeded by the BB1 quotient
    <du, du> / <du, dg> (on a pure control cost it equals 1/b0, and the
    iteration lands on the projected origin).  While each gradient step cuts
    the stationarity measure at least fourfold (`_SWITCH_RATIO`), the next
    is a gradient step too; from the first that does not, every iteration
    is a projected Newton-CG step (`_newton_direction`) with t = 1 first.
    Its gradient and Hessian-vector products share one
    `SecondOrderContext` of the iterate; at the switch the context takes the
    adjoint of the gradient already formed.  A table shape has no second
    derivative, so with one the run keeps gradient steps.
    """
    opts = opts or PgdOptions()
    grid, tgrid = problem.grid, problem.tgrid
    u = project_admissible(u0, box)
    state = problem.solve(u)
    j = cost_eval(problem, state, u)
    grad = reduced_gradient(u, problem, state)
    curved = "table" not in (problem.nonlin.P.kind, problem.nonlin.H.kind)
    history: list[dict] = []
    step = _INITIAL_STEP
    u_prev = None
    grad_prev = None
    stat_prev = None
    newton = False
    context = None      # the iterate's SecondOrderContext, in the Newton phase
    solves = cg_iters = 0
    reason = "max_iter"
    it = 0

    for it in range(opts.max_iter + 1):
        stat = stationarity_measure(u, problem, box, grad)
        history.append({"iteration": it, "cost": j, "stationarity": stat,
                        "step_size": step, "solves": solves,
                        "cg_iters": cg_iters})
        if stat <= opts.tol:
            reason = "converged"
            break
        if it == opts.max_iter:
            break
        if u_prev is not None:
            du = Control(u.v - u_prev.v)
            dg = Control(grad.grad.v - grad_prev.grad.v)
            denom = control_inner(grid, tgrid, du, dg)
            if denom > 0.0:
                step = control_inner(grid, tgrid, du, du) / denom
        step = min(max(step, _STEP_MIN), _STEP_MAX)

        if (not newton and curved and stat_prev is not None
                and stat > _SWITCH_RATIO * stat_prev):
            newton = True
            context = SecondOrderContext(problem, u, state, grad.adjoint)
        stat_prev = stat
        s, t = grad.grad, step
        cg_iters = 0
        if newton:
            d, cg_iters = _newton_direction(context, grad, box, stat)
            # drop the factors before the trials solve states
            context = None
            if d is not None:
                s, t = d, 1.0

        for solves in range(1, _MAX_BACKTRACKS + 1):
            trial = project_admissible(Control(u.v - t * s.v), box)
            decrease = control_inner(grid, tgrid, grad.grad,
                                     Control(u.v - trial.v))
            state_new = problem.solve(trial)
            j_new = cost_eval(problem, state_new, trial)
            if j_new <= j - _ARMIJO_C * decrease:
                break
            t *= _SHRINK
        else:
            reason = "line_search_failed"
            break
        u_prev, grad_prev = u, grad
        u, j, state, step = trial, j_new, state_new, t
        if newton:
            context = SecondOrderContext(problem, u, state)
            grad = context.gradient
        else:
            grad = reduced_gradient(u, problem, state)

    return PgdResult(control=u, cost=j,
                     stationarity=history[-1]["stationarity"],
                     reason=reason, n_iter=it, history=history,
                     gradient=grad)


def _newton_direction(context: SecondOrderContext, grad: GradientField,
                      box: BoxConstraints, stat: float
                      ) -> tuple[Control | None, int]:
    """The projected Newton-CG step s at the context's control, taken as
    u - t s, and the Hessian-vector products it took.

    A point within min(`_BINDING_TOL`, stat) of a bound, where the gradient
    pushes outward, is binding: s is the gradient there.  On the free
    points s = -d, with d from CG on H d = -grad restricted to them, in the
    space-time control inner product, stopped once the residual falls by
    the forcing term min(`_FORCING_CAP`, sqrt(|r0|)) or at `_CG_MAX_ITER`
    products; curvature <= 0 stops it with the d reached so far.  None
    comes back in place of s when the first product meets curvature <= 0.
    """
    problem, u = context.problem, context.ubar
    wts = problem.tgrid.weights()[:, None] * problem.grid.weights

    def dot(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.sum(wts * (a * b).sum(axis=0)))

    eps = min(_BINDING_TOL, stat)
    g = grad.grad.v
    near_lower = u.v - box.lower <= eps
    near_upper = box.upper - u.v <= eps
    free = ~((near_lower & (g > 0.0)) | (near_upper & (g < 0.0)))
    r = np.where(free, -g, 0.0)
    rr = dot(r, r)
    stop = min(_FORCING_CAP, np.sqrt(np.sqrt(rr))) * np.sqrt(rr)
    d = np.zeros_like(r)
    p = r
    n_products = 0
    while n_products < _CG_MAX_ITER and np.sqrt(rr) > stop:
        hp = context.hessian_product(Control(p))
        n_products += 1
        hp = np.where(free, hp.v, 0.0)
        curv = dot(p, hp)
        if curv <= 0.0:
            if n_products == 1:
                return None, n_products
            break
        alpha = rr / curv
        d = d + alpha * p
        r = r - alpha * hp
        rr, rr_old = dot(r, r), rr
        p = r + (rr / rr_old) * p
    return Control(np.where(free, -d, g)), n_products


# ---------------------------------------------------------------------------
# active sets, critical cone, curvature


@dataclass(eq=False)
class ActiveSets:
    """Strongly active mask of both control components, stacked as
    `Control.v` stacks them, (2, N_t+1, n); `A1` and `A2` view its rows."""

    A: np.ndarray
    tau: float

    A1 = property(lambda self: self.A[0])
    A2 = property(lambda self: self.A[1])


def strongly_active_sets(grad: GradientField, tau: float) -> ActiveSets:
    """Points where the gradient magnitude exceeds the threshold tau."""
    if tau < 0.0:
        raise ValueError("tau must be nonnegative")
    return ActiveSets(A=np.abs(grad.grad.v) > tau, tau=tau)


def default_tau(grad: GradientField) -> float:
    return 1e-3 * max(float(np.max(np.abs(grad.grad.v))), 0.0)


def _cone_masks(ubar: Control, box: BoxConstraints, sets: ActiveSets
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The masks of the critical cone approximation at ubar, each stacked
    over both components, (2, N_t+1, n): the strongly active points, and
    the points where ubar sits on the lower and on the upper bound (within
    1e-9 of the box span)."""
    bound_tol = 1e-9 * box.span()
    return (sets.A, ubar.v <= box.lower + bound_tol,
            ubar.v >= box.upper - bound_tol)


def _cone_clip(v: np.ndarray, masks: tuple[np.ndarray, ...]) -> np.ndarray:
    """Project stacked direction components v onto the cone by its
    `_cone_masks` (which broadcast against v): zero at the strongly active
    points, nonnegative at the lower bound, nonpositive at the upper one."""
    active, at_lo, at_hi = masks
    v = np.where(active, 0.0, v)
    v = np.where(at_lo, np.maximum(v, 0.0), v)
    return np.where(at_hi, np.minimum(v, 0.0), v)


class SecondOrderContext:
    """State, step factors and adjoint at one control, each built once;
    a state or adjoint already formed at the control may be handed in.

    The gradient, the linearized and bilinearized marches, the exact
    Hessian form and the Hessian-vector products at `ubar` all reuse the one
    factor pass along the state.
    """

    def __init__(self, problem: ControlProblem, ubar: Control,
                 state: StateTrajectory | None = None,
                 adjoint: AdjointTrajectory | None = None):
        self.problem = problem
        self.ubar = ubar
        self.state = state if state is not None else problem.solve(ubar)
        if adjoint is not None:
            self.adjoint = adjoint

    @functools.cached_property
    def factors(self) -> StepFactors:
        return StepFactors(self.problem, self.state, self.ubar)

    @functools.cached_property
    def adjoint(self) -> AdjointTrajectory:
        return misfit_adjoint(self.factors)

    @functools.cached_property
    def gradient(self) -> GradientField:
        return _gradient_field(self.factors, self.adjoint)

    def linearize(self, h: Control | Sequence[Control], start: int = 1
                  ) -> LinearizedTrajectory | list[LinearizedTrajectory]:
        """`solve_generalized_linear` at this control: one trajectory for
        one Control, a list of them for a sequence marched as one block."""
        return solve_generalized_linear(self.factors, h, start)

    def bilinearize(self, lin_h: LinearizedTrajectory,
                    lin_k: LinearizedTrajectory, h: Control,
                    k: Control) -> LinearizedTrajectory:
        return solve_bilinearized(self.factors, lin_h, lin_k, h, k)

    def form(self, h: Control, k: Control,
             lin_h: LinearizedTrajectory | None = None,
             lin_k: LinearizedTrajectory | None = None,
             hk: float | None = None) -> float:
        """Exact Hessian form B(h, k) of the discrete reduced cost.

        `hk`, when given, is <h, k> in the control inner product.  The
        state terms vanish before the level where the earlier of the two
        trajectories starts (`LinearizedTrajectory.start`), so they are
        formed from there on only; each is summed over every level, and the
        value is bitwise that of whole histories.
        """
        pr = self.problem
        if lin_h is None:
            lin_h = self.linearize(h)
        if lin_k is None:
            lin_k = self.linearize(k) if k is not h else lin_h
        cost, adj = pr.cost, self.adjoint
        if hk is None:
            hk = control_inner(pr.grid, pr.tgrid, h, k)
        first = min(lin_h.start, lin_k.start)
        track = np.zeros((pr.n_levels, pr.grid.n))
        track[first:] = lin_h.xi[first:] * lin_k.xi[first:]
        total = (cost.b0 * hk
                 + cost.b1 * st_integral(pr.grid, pr.tgrid, track)
                 + cost.b2 * inner(pr.grid, lin_h.xi[-1], lin_k.xi[-1]))

        # sum_k <lambda_k, S_k(h, k)>: the step multipliers, wt_k (p, q, r)_k,
        # paired with the sources of the bilinearized steps 1..N_t
        coef = self.factors.coefficients
        s1, s2, s3 = pr.stepper.split(pr.stepper.second_order_source(
            coef._make(c[first - 1:] for c in coef), lin_h.y[first:],
            lin_k.y[first:], h.u1[first:], k.u1[first:]))
        pairing = np.zeros((pr.tgrid.steps, pr.grid.n))
        pairing[first - 1:] = (adj.p[first:] * s1 + adj.q[first:] * s2
                               + adj.r[first:] * s3)
        acc = np.einsum("k,ki,i->", pr.tgrid.weights()[1:], pairing,
                        pr.grid.weights)
        return float(total + acc)

    def hessian_product(self, h: Control | Sequence[Control]
                        ) -> Control | list[Control]:
        """Riesz representative H h of the Hessian form in the space-time
        control inner product, <H h, k> = B(h, k) for every k.

        A second-order adjoint: one linearized march of the directions, then
        one backward march (`solve_adjoint`) whose source is the derivative
        of the form in its second direction's state, and
        H h = (b0 h1 - h(phi) p~ - p h'(phi) xi_h, b0 h2 + r~) with (p~, r~)
        the march's multipliers and p the adjoint's; the march's source and
        -p h'(phi) xi_h are the two parts that
        `Stepper.second_order_source_adjoint` returns.  One Control gives one
        product; a sequence is marched as one block and gives a list.
        """
        single = isinstance(h, Control)
        dirs = [h] if single else list(h)
        pr, coef = self.problem, self.factors.coefficients
        stepper, cost, wt = pr.stepper, pr.cost, pr.tgrid.weights()
        lins = self.linearize(dirs)
        y = np.stack([lin.y for lin in lins])
        hv = np.stack([d.v for d in dirs])
        xi = stepper.split(y)[1]
        sources = np.zeros_like(y)
        state_part, u1_part = stepper.second_order_source_adjoint(
            coef, self.adjoint.lam[1:], y[:, 1:], hv[:, 0, 1:])
        sources[:, 1:] = wt[1:, None] * state_part
        src_q = stepper.split(sources)[1]
        src_q += (cost.b1 * wt)[:, None] * xi
        src_q[:, -1] += cost.b2 * xi[:, -1]
        p_h, _, r_h = stepper.split(solve_adjoint(self.factors, sources))
        out = cost.b0 * hv
        out[:, 0] -= self.factors.h_phi * p_h
        out[:, 0, 1:] += u1_part
        out[:, 1] += r_h
        prods = [Control(v) for v in out]
        return prods[0] if single else prods


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


def ssc_certificate(context: SecondOrderContext, sets: ActiveSets,
                    n_samples: int, box: BoxConstraints,
                    seed: int = 0) -> SscReport:
    """Estimate the coercivity constant on the critical cone by sampling.

    Draws seeded Gaussian directions, projects them onto the cone (the
    points strongly active in `sets` zeroed, signs clipped at the bounds),
    and minimizes the Rayleigh quotient B(h, h)/|h|^2 over the retained
    samples at the context's control.  The draws come in blocks of
    `_block_len` directions, the same stream as one direction at a time, and
    the retained directions of a block are linearized in one march.
    Deterministic for a fixed seed.

    A cone direction vanishes on every level where each point is strongly
    active, so the work after the draws runs on the other levels only (the
    window): the projection, the linearized march from the window's first
    level >= 1, and the form's second-order terms.  The norms and the form
    are still summed over every level, so the report is bitwise that of
    directions worked on whole.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    problem, ubar, tau = context.problem, context.ubar, sets.tau
    grid, tgrid = problem.grid, problem.tgrid
    masks = _cone_masks(ubar, box, sets)
    window = np.flatnonzero(~masks[0].all(axis=(0, 2)))
    masks = tuple(mask[:, window] for mask in masks)
    start = next((int(k) for k in window if k > 0), problem.n_levels)
    # a draw's norm is at most sqrt(w_max |draw|^2), w_max the largest
    # space-time weight: a projection longer than 1e-12 times twice that
    # (room for the rounding of both sums) is kept without the draw's norm
    w_max = tgrid.weights().max() * grid.weights.max()

    rng = np.random.default_rng(seed)
    block = _block_len(problem)
    shape = (min(block, n_samples), 2, problem.n_levels, grid.n)
    draws = np.empty(shape)
    # the projected draws and their squares: only window rows are written,
    # so the others stay zero
    cone = np.zeros(shape)
    squares = np.zeros(shape)
    kept = 0
    min_q = np.inf
    for begin in range(0, n_samples, block):
        raw = draws[:min(block, n_samples - begin)]
        rng.standard_normal(out=raw)
        v = _cone_clip(raw[:, :, window], masks)
        cone[:len(raw), :, window] = v
        squares[:len(raw), :, window] = v * v
        flat = raw.reshape(len(raw), -1)
        bounds = 2.0 * np.sqrt(w_max * np.einsum("mj,mj->m", flat, flat))
        dirs, hhs, norms = [], [], []
        for h, sq, r, bound in zip(cone, squares, raw, bounds):
            # control_inner(hdir, hdir), from the squares
            hh = (st_integral(grid, tgrid, sq[0])
                  + st_integral(grid, tgrid, sq[1]))
            nrm = float(np.sqrt(hh))
            if (nrm <= 1e-12 * max(bound, 1.0) and nrm <= 1e-12 * max(
                    control_norm(grid, tgrid, Control(r)), 1.0)):
                continue
            dirs.append(Control(h))
            hhs.append(hh)
            norms.append(nrm)
        if not dirs:
            continue
        kept += len(dirs)
        lins = context.linearize(dirs, start)
        for hdir, hh, nrm, lin in zip(dirs, hhs, norms, lins):
            val = context.form(hdir, hdir, lin_h=lin, lin_k=lin,
                               hk=hh) / nrm**2
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
