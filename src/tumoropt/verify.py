"""Independent oracles and convergence regressions.

Most checks here exercise a code path against an implementation it does not
share: finite differences of the cost against the adjoint gradient, and a
centered strong-form assembly against the transposed recursion.

The bilinearized march and the adjoint-weighted quadratic form share the
pointwise second-order terms (`Stepper.second_order_source`), so comparing
the two routes checks the adjoint pairing but not those terms.  The
independent oracles for them difference the cost or the linearized map:
the cubic cost remainder and the quadratic DS-increment remainder of
`check_taylor_orders`.

Every check at the verified control takes one `SecondOrderContext` there:
`run_verification` builds it once, so the battery solves the state at that
control once and factors its step operators once, and the mass check reads
the per-step residual `solve_state` stored with that state.  The FD, Taylor
and stability checks march the controls they shift or draw as batches
(`solve_states`, at most `_batch_len` controls a batch) and give each
state its own context; the refinement check solves one control per finer
problem.  Every solve of a problem shares its `ControlProblem.stepper`.

The battery's tail, the stability and strong-form checks, reads no result
of another check.  After the mass and duality checks have formed the state,
step factors and adjoint at ubar, `run_verification` forks once and a child
runs the tail on the context it inherited, while the parent runs the FD and
Taylor checks.  It forks only where `os.fork` exists, two CPUs are usable
and no other thread is alive; in 2-D the look-ahead LU pool's threads are
alive by then, so 2-D runs serially.  The report and the errors it raises,
their order included, are those of a serial run.
"""

from __future__ import annotations

import itertools
import os
import pickle
import signal
import threading
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SolverError
from .grid import build_grid, inner
from .model import Control, CostSpec
from .optimize import SecondOrderContext, _block_len, cost_eval
from .problem import ControlProblem, control_inner, control_norm, st_inner
from .sensitivity import factor_bytes, usable_cpus
from .state import InitialData, StateTrajectory, TimeGrid, solve_states

EPS_LADDER = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
FD_SEARCH_LADDER = EPS_LADDER + (3e-4, 1e-4, 3e-5, 1e-5)
# share of [0, T] cut off at each end of the adjoint strong-form window
STRONG_FORM_CUT = 0.1
# amplitude of the smooth random controls of the stability check
STABILITY_AMP = 0.3

# every bound the verification gate applies
THRESHOLDS = {
    "duality": 1e-10,
    "hessian_duality": 1e-10,
    "fd_agreement": 1e-8,
    "slope_band": 0.2,
    "stability_factor": 2.0,
    "homogeneity": 1e-12,
    "mass_residual": 1e-10,
    "adjoint_residual_order": 0.8,
}


@dataclass(eq=False)
class SlopeReport:
    """Log-log regression of an error against a decreasing epsilon ladder."""

    eps_values: np.ndarray
    error_values: np.ndarray
    fitted_slope: float
    expected_slope: float
    passed: bool
    details: dict = field(default_factory=dict)


def fit_slope(eps_values, error_values) -> float:
    """Least-squares slope of log(error) vs log(eps); zero errors are skipped."""
    eps = np.asarray(eps_values, dtype=float)
    err = np.asarray(error_values, dtype=float)
    keep = err > 0.0
    if keep.sum() < 2:
        return np.nan
    coeffs = np.polyfit(np.log(eps[keep]), np.log(err[keep]), 1)
    return float(coeffs[0])


def make_slope_report(eps_values, error_values, expected_slope: float,
                      band: float, details: dict | None = None) -> SlopeReport:
    eps = np.asarray(eps_values, dtype=float)
    err = np.asarray(error_values, dtype=float)
    if eps.size < 3 or np.any(np.diff(eps) >= 0.0):
        raise ValueError("need at least 3 strictly decreasing epsilon values")
    if np.all(err == 0.0):
        # exactly zero errors mean the identity holds beyond differencing
        return SlopeReport(eps, err, fitted_slope=expected_slope,
                           expected_slope=expected_slope, passed=True,
                           details=details or {"note": "errors identically zero"})
    slope = fit_slope(eps, err)
    passed = bool(np.isfinite(slope) and abs(slope - expected_slope) <= band)
    return SlopeReport(eps, err, fitted_slope=slope,
                       expected_slope=expected_slope, passed=passed,
                       details=details or {})


def _random_direction(problem: ControlProblem, rng: np.random.Generator) -> Control:
    """Unit-norm band-limited random direction.

    White noise is useless for remainder regressions on fine grids: the
    parabolic smoothing damps it so hard that the excited remainders sink
    below the cost evaluation round-off floor and the fitted slopes measure
    noise.  Low-frequency directions keep every ladder rung above the floor.
    """
    h = _smooth_random_control(problem, rng, amp=1.0)
    nrm = control_norm(problem.grid, problem.tgrid, h)
    return Control(h.v / nrm)


def _shifted(u: Control, v: Control, t: float) -> Control:
    return Control(u.v + t * v.v)


def _batch_len(problem: ControlProblem) -> int:
    """Controls one `solve_states` batch takes within `_BLOCK_BYTES`.

    Each holds its history and, in 2-D, the SuperLU factor its march
    carries from step to step (chord Newton): about 2.4 MB on a 33x33
    rectangle, three times a 30-step history.  That factor is counted by
    `factor_bytes`, as `StepFactors` counts it, of one LU of the step
    Jacobian at the initial state.
    """
    if not problem.stepper.superlu:
        return _block_len(problem)
    stepper = problem.stepper
    lu = stepper.factorize(stepper.jacobian_values(problem.init.stacked(),
                                                   np.zeros(problem.grid.n)))
    return _block_len(problem, factor_bytes(lu))


def _marched(problem: ControlProblem, controls: Iterable[Control]
             ) -> Iterator[tuple[Control, StateTrajectory]]:
    """Each control with its state, in order.  The controls are drawn and
    marched in batches of at most `_batch_len` controls, so only one batch
    is held at a time."""
    controls, size = iter(controls), _batch_len(problem)
    while batch := list(itertools.islice(controls, size)):
        yield from zip(batch, solve_states(problem, batch))


# ---------------------------------------------------------------------------
# gradient and duality


def check_gradient_fd(context: SecondOrderContext,
                      n_dirs: int = 10, seed: int = 0,
                      eps_values=EPS_LADDER,
                      search_values=FD_SEARCH_LADDER) -> SlopeReport:
    """Central differences of the cost against the adjoint gradient.

    Fits the truncation slope (expected 2, within THRESHOLDS["slope_band"])
    on `eps_values` and records, per direction, the best relative agreement
    over the wider `search_values` ladder at the context's control;
    `details` carries those optima.
    """
    problem, ubar = context.problem, context.ubar
    rng = np.random.default_rng(seed)
    grid, tgrid = problem.grid, problem.tgrid
    gc = context.gradient.grad

    all_eps = tuple(sorted(set(eps_values) | set(search_values), reverse=True))
    ladder_idx = [all_eps.index(e) for e in eps_values]
    dirs = [_random_direction(problem, rng) for _ in range(n_dirs)]
    exact_vals = np.array([control_inner(grid, tgrid, gc, v) for v in dirs])
    # the +e and -e shift of every direction and rung, marched in batches
    shifted = (_shifted(ubar, v, t) for v in dirs for e in all_eps
               for t in (e, -e))
    costs = np.array([cost_eval(problem, state, u)
                      for u, state in _marched(problem, shifted)])
    jp, jm = costs.reshape(n_dirs, len(all_eps), 2).transpose(2, 0, 1)
    fd = (jp - jm) / (2.0 * np.array(all_eps))
    errors = (np.abs(fd - exact_vals[:, None])
              / np.maximum(1.0, np.abs(exact_vals))[:, None])
    best = errors.min(axis=1)
    ladder_err = errors[:, ladder_idx].max(axis=0)
    report = make_slope_report(
        np.asarray(eps_values), ladder_err, expected_slope=2.0,
        band=THRESHOLDS["slope_band"],
        details={
            "best_rel_error_per_dir": best.tolist(),
            "worst_best_rel_error": float(best.max()),
            "directional_derivatives": exact_vals.tolist(),
        })
    return report


def check_duality(context: SecondOrderContext, h: Control | None = None,
                  seed: int = 0) -> float:
    """Relative residual of the linearized/adjoint duality identity.

    LHS pairs the adjoint field d of the reduced gradient with the control
    direction, RHS pairs the tracking misfits with the linearized state;
    both sides are assembled from different solves and must agree to
    round-off.
    """
    problem = context.problem
    if h is None:
        h = _random_direction(problem, np.random.default_rng(seed))
    grid, tgrid = problem.grid, problem.tgrid
    state, lin = context.state, context.linearize(h)
    lhs = control_inner(grid, tgrid, context.gradient.d, h)
    cost = problem.cost
    misfit = state.phi - problem.target_q()
    rhs = (cost.b1 * st_inner(grid, tgrid, misfit, lin.xi)
           + cost.b2 * inner(grid, state.phi[-1] - problem.target_omega(),
                             lin.xi[-1]))
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


def check_hessian_duality(context: SecondOrderContext,
                          seed: int = 0) -> tuple[float, float]:
    """Relative residuals of the Hessian-vector product against the Hessian
    form, |<Hh, k> - B(h, k)| / |B|, and against its own transpose,
    |<Hh, k> - <h, Hk>| / |B|.

    h and k are two directions drawn from a fresh generator of `seed`, and
    their products come from one block `hessian_product`; the form and the
    products come from different marches and must agree to round-off.
    """
    problem = context.problem
    rng = np.random.default_rng(seed)
    h, k = (_random_direction(problem, rng) for _ in range(2))
    hess_h, hess_k = context.hessian_product([h, k])
    lin_h, lin_k = context.linearize([h, k])
    form = context.form(h, k, lin_h=lin_h, lin_k=lin_k)
    grid, tgrid = problem.grid, problem.tgrid
    hh_k = control_inner(grid, tgrid, hess_h, k)
    scale = abs(form) if form else 1.0
    return (abs(hh_k - form) / scale,
            abs(hh_k - control_inner(grid, tgrid, h, hess_k)) / scale)


# ---------------------------------------------------------------------------
# Taylor regressions


def _norm3(problem: ControlProblem, y: np.ndarray) -> float:
    """Space-time norm of a stacked (N_t+1, 3n) history, summed by field."""
    return float(np.sqrt(sum(st_inner(problem.grid, problem.tgrid, d, d)
                             for d in problem.stepper.split(y))))


def check_taylor_orders(context: SecondOrderContext,
                        v: Control | None = None, h: Control | None = None,
                        seed: int = 0) -> tuple[SlopeReport, SlopeReport, SlopeReport]:
    """Three remainder regressions in one sweep over `EPS_LADDER`.

    1. state remainder   |S(u+ev) - S(u) - e DS(u)v|            -> slope 2
    2. DS increment      |DS(u+ev)h - DS(u)h - e D2S(u)(v,h)|   -> slope 2
    3. cost remainder    |J(u+ev) - J(u) - e<g,v> - e^2/2 B(v,v)| -> slope 3

    u is the context's control; the shifted controls are marched together
    (`solve_states`), and each gets its own context.  Each fitted slope
    passes within THRESHOLDS["slope_band"] of its expected one.
    """
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

    err_state = []
    err_ds = []
    err_cost = []
    state_scale = max(_norm3(problem, lin_v.y), 1e-300)
    shifted = (_shifted(ubar, v, e) for e in EPS_LADDER)
    for e, (u_e, state_e) in zip(EPS_LADDER, _marched(problem, shifted)):
        ctx_e = SecondOrderContext(problem, u_e, state=state_e)
        # 1: state remainder
        diff = _norm3(problem, state_e.x - state.x - e * lin_v.y)
        err_state.append(diff / state_scale)
        # 2: DS increment remainder
        lin_h_e = ctx_e.linearize(h)
        rem = _norm3(problem, lin_h_e.y - lin_h.y - e * bilin_vh.y)
        err_ds.append(rem / max(_norm3(problem, lin_h.y), 1e-300))
        # 3: cost remainder
        j_e = cost_eval(problem, state_e, ctx_e.ubar)
        r3 = j_e - j0 - e * slope_v - 0.5 * e * e * b_vv
        err_cost.append(abs(r3) / max(1.0, abs(j0)))

    band = THRESHOLDS["slope_band"]
    return (
        make_slope_report(EPS_LADDER, err_state, 2.0, band),
        make_slope_report(EPS_LADDER, err_ds, 2.0, band),
        make_slope_report(EPS_LADDER, err_cost, 3.0, band),
    )


# ---------------------------------------------------------------------------
# stability ratios under refinement


@dataclass(eq=False)
class StabilityReport:
    """Empirical Lipschitz-type ratios at two resolutions plus homogeneity."""

    base_ratios: dict
    refined_ratios: dict
    max_change_factor: float
    homogeneity_error: float
    passed: bool


def _refine_nested(values: np.ndarray, shape) -> np.ndarray:
    """Nodal values on the nested refinement of a tensor grid of `shape`.

    Every axis of m nodes becomes one of 2m - 1: the old nodes keep their
    values and each new midpoint is the average of its two neighbours.  A
    leading axis of `values` is time and is refined after the space axes.
    """
    a = values.reshape(values.shape[:-1] + tuple(shape))
    lead = a.ndim - len(shape)
    for axis in list(range(lead, a.ndim)) + list(range(lead)):
        a = np.moveaxis(a, axis, 0)
        fine = np.empty((2 * a.shape[0] - 1,) + a.shape[1:])
        fine[0::2] = a
        fine[1::2] = 0.5 * (a[:-1] + a[1:])
        a = np.moveaxis(fine, 0, axis)
    return a.reshape(a.shape[:lead] + (-1,))


def refine_problem(problem: ControlProblem) -> ControlProblem:
    """Nested refinement: doubled steps, midpoint-added nodes, data interpolated."""
    g = problem.grid
    fine_shape = [2 * m - 1 for m in g.shape]
    fine_grid = build_grid(g.dim, fine_shape, list(g.lengths))
    fine_tgrid = TimeGrid(2 * problem.tgrid.steps, problem.tgrid.t_final)
    init = InitialData(
        mu0=_refine_nested(problem.init.mu0, g.shape),
        phi0=_refine_nested(problem.init.phi0, g.shape),
        sigma0=_refine_nested(problem.init.sigma0, g.shape))
    cost = problem.cost
    target_q = None
    if cost.target_Q is not None:
        target_q = _refine_nested(cost.target_Q, g.shape)
    target_omega = None
    if cost.target_Omega is not None:
        target_omega = _refine_nested(cost.target_Omega, g.shape)
    fine_cost = CostSpec(b0=cost.b0, b1=cost.b1, b2=cost.b2,
                         target_Q=target_q, target_Omega=target_omega)
    return ControlProblem(grid=fine_grid, tgrid=fine_tgrid,
                          params=problem.params, potential=problem.potential,
                          nonlin=problem.nonlin, cost=fine_cost, init=init)


def refine_control(u: Control, problem: ControlProblem) -> Control:
    """Transfer a control of `problem` to `refine_problem(problem)`."""
    return Control([_refine_nested(c, problem.grid.shape) for c in u.v])


def _smooth_random_control(problem: ControlProblem,
                           rng: np.random.Generator, amp: float) -> Control:
    """Low-frequency random field, transferable across nested grids."""
    coords = problem.grid.coordinates()
    times = problem.tgrid.times
    comps = np.zeros((2, problem.n_levels, problem.grid.n))
    for fld in comps:
        for jx in range(3):
            cx = np.cos(jx * np.pi * coords[:, 0] / problem.grid.lengths[0])
            if problem.grid.dim == 2:
                jy = rng.integers(0, 3)
                cx = cx * np.cos(jy * np.pi * coords[:, 1]
                                 / problem.grid.lengths[1])
            c0, c1 = rng.normal(size=2)
            tmod = c0 + c1 * np.cos((jx + 1) * np.pi * times
                                    / problem.tgrid.t_final)
            fld += np.outer(tmod, cx)
    return Control(amp * comps / 3.0)


def check_stability_ratios(problem: ControlProblem, n_pairs: int = 2,
                           seed: int = 0) -> StabilityReport:
    """Empirical stability/Lipschitz ratios at two nested resolutions.

    Ratios estimated per random pair of smooth controls:

    * state:   |S(u) - S(u')| / |u - u'|
    * ds:      |(DS(u) - DS(u')) h| / (|u - u'| |h|)
    * d2s:     |(D2S(u) - D2S(u'))(v, h)| / (|u - u'| |h| |v|)

    The controls are drawn with amplitude `STABILITY_AMP`.  Passes when
    every ratio changes by a factor below THRESHOLDS["stability_factor"]
    under one simultaneous (dt, h) refinement, and directional homogeneity
    holds (doubling h doubles DS(u)h within THRESHOLDS["homogeneity"]).
    Homogeneity is tested at the ua of the first kept base pair in the
    direction of its ub, on that pair's context, so the check solves no
    control of its own.
    """
    fine = refine_problem(problem)
    rng_master = np.random.default_rng(seed)
    pair_seeds = rng_master.integers(0, 2**32 - 1, size=n_pairs)

    def ratios_at(pr: ControlProblem, seeds) -> tuple[dict, tuple]:
        """The ratios at `pr`, and the context at ua and the ub of its
        first kept pair."""
        out = {"state": [], "ds": [], "d2s": []}
        first = None
        pairs = []
        for s in seeds:
            rng = np.random.default_rng(int(s))
            ua = _smooth_random_control(pr, rng, STABILITY_AMP)
            ub = _smooth_random_control(pr, rng, STABILITY_AMP)
            h = _smooth_random_control(pr, rng, STABILITY_AMP)
            v = _smooth_random_control(pr, rng, STABILITY_AMP)
            du = control_norm(pr.grid, pr.tgrid, Control(ua.v - ub.v))
            nh = control_norm(pr.grid, pr.tgrid, h)
            nv = control_norm(pr.grid, pr.tgrid, v)
            if du == 0.0 or nh == 0.0 or nv == 0.0:
                continue  # coincident draw: the ratio is undefined, skip it
            pairs.append((ua, ub, h, v, du, nh, nv))
        # the (ua, ub) controls of every kept pair, marched in batches
        states = _marched(pr, (u for pair in pairs for u in pair[:2]))
        for ua, ub, h, v, du, nh, nv in pairs:
            (_, state_a), (_, state_b) = next(states), next(states)
            ctx_a = SecondOrderContext(pr, ua, state=state_a)
            ctx_b = SecondOrderContext(pr, ub, state=state_b)
            out["state"].append(_norm3(pr, ctx_a.state.x - ctx_b.state.x)
                                / du)
            lin_ha, lin_va = ctx_a.linearize([h, v])
            lin_hb, lin_vb = ctx_b.linearize([h, v])
            out["ds"].append(_norm3(pr, lin_ha.y - lin_hb.y) / (du * nh))
            bil_a = ctx_a.bilinearize(lin_ha, lin_va, h, v)
            bil_b = ctx_b.bilinearize(lin_hb, lin_vb, h, v)
            out["d2s"].append(_norm3(pr, bil_a.y - bil_b.y)
                              / (du * nh * nv))
            first = first or (ctx_a, ub)
        return ({k: float(np.max(vals)) if vals else 0.0
                 for k, vals in out.items()}, first)

    base, (ctx, h) = ratios_at(problem, pair_seeds)
    # homogeneity: doubling the direction doubles the linearized response
    lin1, lin2 = ctx.linearize([h, Control(2.0 * h.v)])
    hom = float(np.max(np.abs(lin2.y - 2.0 * lin1.y)))
    hom_rel = hom / max(_norm3(problem, lin1.y), 1e-300)
    del ctx     # its step factors, before the finer pass
    refined, _ = ratios_at(fine, pair_seeds)

    factors = []
    for key in base:
        lo, hi = sorted((base[key], refined[key]))
        factors.append(hi / max(lo, 1e-300))
    max_factor = float(np.max(factors))

    passed = bool(max_factor < THRESHOLDS["stability_factor"]
                  and hom_rel < THRESHOLDS["homogeneity"])
    return StabilityReport(base_ratios=base, refined_ratios=refined,
                           max_change_factor=max_factor,
                           homogeneity_error=hom_rel, passed=passed)


# ---------------------------------------------------------------------------
# continuous-residual diagnostic for the adjoint


@dataclass(eq=False)
class AdjointResidualReport:
    """Strong-form residual norms of the adjoint samples, interior levels."""

    levels: np.ndarray
    eq1: np.ndarray
    eq2: np.ndarray
    eq3: np.ndarray
    aggregate: float


def _strong_form_levels(tgrid: TimeGrid, cut: float) -> np.ndarray:
    """Levels k whose pair (k, k+1) has its midpoint in [cut*T, (1-cut)*T],
    the last pair (N_t - 1, N_t) left out: level N_t carries the half-weight
    misfit and the final-time tracking source."""
    t_mid = 0.5 * (tgrid.times[:-1] + tgrid.times[1:])
    lo, hi = cut * tgrid.t_final, (1.0 - cut) * tgrid.t_final
    pairs = np.arange(1, tgrid.steps - 1)
    levels = pairs[(t_mid[pairs] >= lo) & (t_mid[pairs] <= hi)]
    if levels.size < 2:
        raise ConfigError(
            "window too narrow: fewer than two level pairs kept at "
            f"time.steps = {tgrid.steps}; use more time steps")
    return levels


def adjoint_continuous_residual(context: SecondOrderContext,
                                cut: float = STRONG_FORM_CUT) -> AdjointResidualReport:
    """Plug the transpose multipliers into a centered strong-form assembly.

    The backward-Euler form of the strong equations reproduces the transpose
    recursion identically, so this diagnostic uses a different consistent
    discretization: half-level differences with level-averaged reaction,
    diffusion and source terms.  The residual then measures the first-order
    consistency gap and must shrink under refinement.  Level pairs are kept
    only on the fixed window [cut*T, (1-cut)*T] so that runs at different
    resolutions integrate the residual over the same time interval.  The
    pair ending at level N_t, where the half-weight misfit and the
    final-time tracking source enter the adjoint, is never kept.  The state
    and adjoint are the context's, and every pair of the window is
    assembled at once.
    """
    problem = context.problem
    if not 0.0 <= cut < 0.5:
        raise ValueError("cut must lie in [0, 0.5)")
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
    res1 = (-dtp - pr.beta * dtq - lap_of(q_bar) + pr.chi * lap_of(r_bar)
            + f2q + hu_p - dPm_pmr + pr.chi * reactP_bar - src)
    res2 = -pr.alpha * dtp - lap_of(p_bar) - q_bar + reactP_bar
    res3 = -dtr - lap_of(r_bar) - pr.chi * q_bar - reactP_bar
    eq1, eq2, eq3 = (np.sqrt((res * res) @ grid.weights)
                     for res in (res1, res2, res3))

    aggregate = float(np.sqrt(dt * np.sum(eq1**2 + eq2**2 + eq3**2)))
    return AdjointResidualReport(levels=levels, eq1=eq1, eq2=eq2, eq3=eq3,
                                 aggregate=aggregate)


# ---------------------------------------------------------------------------
# aggregated report


def _may_fork() -> bool:
    """Whether the battery's tail may run in a forked child: the platform
    forks, a second CPU can run it, and no other thread is alive.  A child
    forked beside the look-ahead LU pool would wait on workers it lacks."""
    return (hasattr(os, "fork") and usable_cpus() >= 2
            and threading.active_count() == 1)


class _Forked:
    """`fn()` run in a forked child, which pickles its result or exception
    into a pipe and exits."""

    def __init__(self, fn):
        read, write = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
        if self.pid == 0:
            code = 1
            try:
                os.close(read)
                try:
                    out = (True, fn())
                except BaseException as exc:
                    out = (False, exc)
                with open(write, "wb") as pipe:
                    pipe.write(pickle.dumps(out))
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        self._pipe = open(read, "rb")

    def result(self):
        """The child's result, or its exception raised again here; read to
        the end of the pipe before the child is reaped."""
        try:
            data = self._pipe.read()
        except BaseException:
            self.kill()
            raise
        self._pipe.close()
        code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        if not data:
            how = (f"was killed by {signal.Signals(-code).name}" if code < 0
                   else f"exited with status {code}")
            raise SolverError("the child running the stability and "
                              f"strong-form checks {how} without a result")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    def kill(self) -> None:
        """Stop the child and reap it."""
        os.kill(self.pid, signal.SIGKILL)
        self._pipe.close()
        os.waitpid(self.pid, 0)


def run_verification(problem: ControlProblem, ubar: Control,
                     seed: int = 0, n_dirs: int = 3,
                     n_pairs: int = 2) -> dict:
    """Run every check on one problem and collect a report.

    Returns a dict with one entry per check (name, description, metrics,
    passed) and an overall gate flag.
    """
    # the strong-form check runs last; reject its window before any solve
    _strong_form_levels(problem.tgrid, STRONG_FORM_CUT)
    checks: list[dict] = []

    def add(name: str, description: str, metrics: dict, passed: bool):
        checks.append({"name": name, "description": description,
                       "metrics": metrics, "passed": bool(passed)})

    context = SecondOrderContext(problem, ubar)
    worst_mass = float(np.max(context.state.mass_residual[1:]))
    add("mass_identity",
        "per-step relative residual of the discrete mass balance",
        {"max_relative_residual": worst_mass},
        worst_mass <= THRESHOLDS["mass_residual"])

    dual = check_duality(context, seed=seed)
    add("duality",
        "linearized/adjoint pairing identity, relative residual",
        {"relative_residual": dual}, dual <= THRESHOLDS["duality"])

    form_gap, symmetry_gap = check_hessian_duality(context, seed=seed)
    add("hessian_duality",
        "Hessian-vector products against the Hessian form and their own "
        "transpose, relative residuals",
        {"form_relative_residual": form_gap,
         "symmetry_relative_residual": symmetry_gap},
        max(form_gap, symmetry_gap) <= THRESHOLDS["hessian_duality"])

    def tail() -> tuple[StabilityReport, list[float]]:
        stability = check_stability_ratios(problem, n_pairs=n_pairs,
                                           seed=seed)
        fine = refine_problem(problem)
        finer = refine_problem(fine)
        u_fine = refine_control(ubar, problem)
        return stability, [
            adjoint_continuous_residual(context).aggregate,
            adjoint_continuous_residual(
                SecondOrderContext(fine, u_fine)).aggregate,
            adjoint_continuous_residual(SecondOrderContext(
                finer, refine_control(u_fine, fine))).aggregate]

    child = None
    if _may_fork():
        try:
            child = _Forked(tail)
        except OSError:     # no process to spare: the tail runs here
            pass
    try:
        gradient = check_gradient_fd(context, n_dirs=n_dirs, seed=seed)
        taylor = check_taylor_orders(context, seed=seed)
    except BaseException:
        if child is not None:
            child.kill()
        raise
    stability, aggregates = tail() if child is None else child.result()

    worst_best = gradient.details["worst_best_rel_error"]
    add("gradient_fd",
        "central differences of the cost against the adjoint gradient",
        {"fitted_slope": gradient.fitted_slope,
         "worst_best_rel_error": worst_best},
        gradient.passed and worst_best <= THRESHOLDS["fd_agreement"])

    names = ("taylor_state", "taylor_ds_increment", "taylor_cost")
    descriptions = (
        "first-order state remainder, expected quadratic decay",
        "first-order remainder of the linearized map, expected quadratic decay",
        "second-order cost remainder, expected cubic decay")
    for rep, nm, desc in zip(taylor, names, descriptions):
        add(nm, desc, {"fitted_slope": rep.fitted_slope,
                       "expected_slope": rep.expected_slope}, rep.passed)

    add("stability_ratios",
        "state/first/second sensitivity ratios stable under refinement",
        {"base": stability.base_ratios, "refined": stability.refined_ratios,
         "max_change_factor": stability.max_change_factor,
         "homogeneity_error": stability.homogeneity_error},
        stability.passed)

    if max(aggregates) == 0.0:
        order = np.inf
        passed = True
    else:
        # gate on the finer pair; the coarsest one is pre-asymptotic
        order = float(np.log2(aggregates[1] / max(aggregates[2], 1e-300)))
        passed = order >= THRESHOLDS["adjoint_residual_order"]
    add("adjoint_strong_form",
        "centered strong-form residual of the adjoint, decay order",
        {"aggregates": aggregates, "order": order}, passed)

    return {"checks": checks,
            "all_passed": bool(all(c["passed"] for c in checks))}
