"""Independent oracles and convergence regressions.

Most checks here exercise a code path against an implementation it does not
share: finite differences of the cost against the adjoint gradient, an
adaptive ODE integrator against the time stepper on spatially constant data,
and a centered strong-form assembly against the transposed recursion.

The bilinearized march and the adjoint-weighted quadratic form share the
pointwise second-order terms (`Stepper.second_order_source`), so comparing
the two routes checks the adjoint pairing but not those terms.  The
independent oracles for them difference the cost or the linearized map:
the cubic cost remainder and the quadratic DS-increment remainder of
`check_taylor_orders`.

Each check takes the state, step factors and adjoint at a control from one
`SecondOrderContext` there, and every solve of a problem shares its
`ControlProblem.stepper`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .grid import build_grid, inner, norm
from .model import Control, CostSpec
from .optimize import SecondOrderContext, cost_eval, reduced_gradient
from .problem import ControlProblem, control_inner, control_norm, st_inner
from .sensitivity import LinearizedTrajectory
from .state import (InitialData, StateTrajectory, TimeGrid,
                    mass_balance_residual)

EPS_LADDER = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
FD_SEARCH_LADDER = EPS_LADDER + (3e-4, 1e-4, 3e-5, 1e-5)


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
    return Control(h.u1 / nrm, h.u2 / nrm)


def _shifted(u: Control, v: Control, t: float) -> Control:
    return Control(u.u1 + t * v.u1, u.u2 + t * v.u2)


# ---------------------------------------------------------------------------
# gradient and duality


def check_gradient_fd(problem: ControlProblem, ubar: Control,
                      n_dirs: int = 10, seed: int = 0,
                      eps_values=EPS_LADDER,
                      search_values=FD_SEARCH_LADDER,
                      slope_band: float = 0.2) -> SlopeReport:
    """Central differences of the cost against the adjoint gradient.

    Fits the truncation slope (expected 2) on `eps_values` and records, per
    direction, the best relative agreement over the wider `search_values`
    ladder; `details` carries those optima.
    """
    rng = np.random.default_rng(seed)
    grid, tgrid = problem.grid, problem.tgrid
    grad = reduced_gradient(ubar, problem)
    gc = grad.as_control()

    all_eps = tuple(sorted(set(eps_values) | set(search_values), reverse=True))
    ladder_idx = [all_eps.index(e) for e in eps_values]
    errors = np.zeros((n_dirs, len(all_eps)))
    exact_vals = np.zeros(n_dirs)
    for d in range(n_dirs):
        v = _random_direction(problem, rng)
        exact = control_inner(grid, tgrid, gc, v)
        exact_vals[d] = exact
        for i, e in enumerate(all_eps):
            jp = cost_eval(problem.solve(_shifted(ubar, v, e)),
                           _shifted(ubar, v, e), problem.cost, grid, tgrid)
            jm = cost_eval(problem.solve(_shifted(ubar, v, -e)),
                           _shifted(ubar, v, -e), problem.cost, grid, tgrid)
            fd = (jp - jm) / (2.0 * e)
            errors[d, i] = abs(fd - exact) / max(1.0, abs(exact))
    best = errors.min(axis=1)
    ladder_err = errors[:, ladder_idx].max(axis=0)
    report = make_slope_report(
        np.asarray(eps_values), ladder_err, expected_slope=2.0, band=slope_band,
        details={
            "best_rel_error_per_dir": best.tolist(),
            "worst_best_rel_error": float(best.max()),
            "directional_derivatives": exact_vals.tolist(),
        })
    return report


def check_duality(problem: ControlProblem, ubar: Control,
                  h: Control | None = None, seed: int = 0) -> float:
    """Relative residual of the linearized/adjoint duality identity.

    LHS pairs the adjoint field with the control direction, RHS pairs the
    tracking misfits with the linearized state; both sides are assembled
    from different solves and must agree to round-off.
    """
    if h is None:
        h = _random_direction(problem, np.random.default_rng(seed))
    grid, tgrid = problem.grid, problem.tgrid
    ctx = SecondOrderContext(problem, ubar)
    state, adj, lin = ctx.state, ctx.adjoint, ctx.linearize(h)
    wt = tgrid.weights()
    lhs = 0.0
    for k in range(1, problem.n_levels):
        hv = problem.nonlin.eval("h", state.phi[k])
        lhs += wt[k] * (inner(grid, -hv * adj.p[k], h.u1[k])
                        + inner(grid, adj.r[k], h.u2[k]))
    cost = problem.cost
    misfit = state.phi - problem.target_q()
    rhs = cost.b1 * st_inner(grid, tgrid, misfit, lin.xi)
    if cost.b2 != 0.0:
        rhs += cost.b2 * inner(grid,
                               state.phi[-1] - problem.target_omega(),
                               lin.xi[-1])
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


# ---------------------------------------------------------------------------
# Taylor regressions


def _fields(t: LinearizedTrajectory | StateTrajectory) -> tuple:
    """The three field histories of a linearized or a state trajectory."""
    if isinstance(t, LinearizedTrajectory):
        return t.eta, t.xi, t.theta
    return t.mu, t.phi, t.sigma


def _norm3(problem: ControlProblem, fields) -> float:
    """Space-time norm of three (N_t+1, n) field histories taken together."""
    return float(np.sqrt(sum(st_inner(problem.grid, problem.tgrid, d, d)
                             for d in fields)))


def check_taylor_orders(problem: ControlProblem, ubar: Control,
                        v: Control | None = None, h: Control | None = None,
                        eps_values=EPS_LADDER, seed: int = 0,
                        slope_bands=(0.2, 0.2, 0.2)) -> tuple[SlopeReport, SlopeReport, SlopeReport]:
    """Three remainder regressions in one sweep over the epsilon ladder.

    1. state remainder   |S(u+ev) - S(u) - e DS(u)v|            -> slope 2
    2. DS increment      |DS(u+ev)h - DS(u)h - e D2S(u)(v,h)|   -> slope 2
    3. cost remainder    |J(u+ev) - J(u) - e<g,v> - e^2/2 B(v,v)| -> slope 3
    """
    rng = np.random.default_rng(seed)
    if v is None:
        v = _random_direction(problem, rng)
    if h is None:
        h = _random_direction(problem, rng)
    grid, tgrid = problem.grid, problem.tgrid

    ctx = SecondOrderContext(problem, ubar)
    state = ctx.state
    lin_v = ctx.linearize(v)
    lin_h = ctx.linearize(h)
    bilin_vh = ctx.bilinearize(lin_v, lin_h, v, h)
    j0 = cost_eval(state, ubar, problem.cost, grid, tgrid)
    slope_v = control_inner(grid, tgrid, ctx.gradient.as_control(), v)
    # curvature via the adjoint-weighted form when b2 = 0, else bilinearized route
    if problem.cost.b2 == 0.0:
        b_vv = ctx.form(v, v, lin_h=lin_v, lin_k=lin_v)
    else:
        b_vv = _second_derivative_from_bilinear(
            problem, state, lin_v, lin_v, ctx.bilinearize(lin_v, lin_v, v, v),
            v, v)

    err_state = []
    err_ds = []
    err_cost = []
    state_scale = max(_norm3(problem, _fields(lin_v)), 1e-300)
    for e in eps_values:
        ctx_e = SecondOrderContext(problem, _shifted(ubar, v, e))
        state_e = ctx_e.state
        # 1: state remainder
        diff = _norm3(problem, (a - b - e * c for a, b, c in zip(
            _fields(state_e), _fields(state), _fields(lin_v))))
        err_state.append(diff / state_scale)
        # 2: DS increment remainder
        lin_h_e = ctx_e.linearize(h)
        rem = _norm3(problem, (a - b - e * c for a, b, c in zip(
            _fields(lin_h_e), _fields(lin_h), _fields(bilin_vh))))
        err_ds.append(rem / max(_norm3(problem, _fields(lin_h)), 1e-300))
        # 3: cost remainder
        j_e = cost_eval(state_e, ctx_e.ubar, problem.cost, grid, tgrid)
        r3 = j_e - j0 - e * slope_v - 0.5 * e * e * b_vv
        err_cost.append(abs(r3) / max(1.0, abs(j0)))

    return (
        make_slope_report(eps_values, err_state, 2.0, slope_bands[0]),
        make_slope_report(eps_values, err_ds, 2.0, slope_bands[1]),
        make_slope_report(eps_values, err_cost, 3.0, slope_bands[2]),
    )


def _second_derivative_from_bilinear(problem, state, lin_h, lin_k, bilin,
                                     h: Control, k: Control) -> float:
    """Independent route to B(h,k): differentiate the reduced gradient.

    Uses b1 <misfit, psi> with psi the bilinearized phase component, plus the
    first-order tracking and control terms; valid for b2 = 0 and b2 != 0.
    """
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


def quadratic_form_bilinear_route(ubar: Control, h: Control, k: Control,
                                  problem: ControlProblem) -> float:
    """B(h,k) assembled without the adjoint: cross-check of quadratic_form."""
    ctx = SecondOrderContext(problem, ubar)
    lin_h, lin_k = ctx.linearize(h), ctx.linearize(k)
    return _second_derivative_from_bilinear(
        problem, ctx.state, lin_h, lin_k, ctx.bilinearize(lin_h, lin_k, h, k),
        h, k)


# ---------------------------------------------------------------------------
# ODE reduction oracle


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
        fp = float(problem.stepper.fprime(arr)[0])
        pv = float(nl.eval("P", phi))
        hv = float(nl.eval("h", phi))
        dphi = (-fp + mu + pr.chi * sigma) / pr.beta
        dmu = (pv * m - hv * u1_of_t(t) - dphi) / pr.alpha
        dsigma = -pv * m + u2_of_t(t)
        return [dmu, dphi, dsigma]

    y0 = [float(problem.init.mu0[0]), float(problem.init.phi0[0]),
          float(problem.init.sigma0[0])]
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
        vals.append(np.array([traj.mu[-1][0], traj.phi[-1][0],
                              traj.sigma[-1][0]]))
    y1, y2, y3 = vals
    z12 = 2.0 * y2 - y1
    z23 = 2.0 * y3 - y2
    return (4.0 * z23 - z12) / 3.0


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
                          nonlin=problem.nonlin, cost=fine_cost, init=init,
                          options=problem.options)


def refine_control(u: Control, problem: ControlProblem) -> Control:
    """Transfer a control of `problem` to `refine_problem(problem)`."""
    return Control(_refine_nested(u.u1, problem.grid.shape),
                   _refine_nested(u.u2, problem.grid.shape))


def _smooth_random_control(problem: ControlProblem,
                           rng: np.random.Generator, amp: float) -> Control:
    """Low-frequency random field, transferable across nested grids."""
    coords = problem.grid.coordinates()
    times = problem.tgrid.times
    comps = []
    for _ in range(2):
        fld = np.zeros((problem.n_levels, problem.grid.n))
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
        comps.append(amp * fld / 3.0)
    return Control(comps[0], comps[1])


def check_stability_ratios(problem: ControlProblem, n_pairs: int = 2,
                           seed: int = 0, amp: float = 0.3,
                           factor_bound: float = 2.0) -> StabilityReport:
    """Empirical stability/Lipschitz ratios at two nested resolutions.

    Ratios estimated per random pair of smooth controls:

    * state:   |S(u) - S(u')| / |u - u'|
    * ds:      |(DS(u) - DS(u')) h| / (|u - u'| |h|)
    * d2s:     |(D2S(u) - D2S(u'))(v, h)| / (|u - u'| |h| |v|)

    Passes when no ratio grows or shrinks by more than `factor_bound` under
    one simultaneous (dt, h) refinement, and directional homogeneity holds
    (doubling h doubles DS(u)h to round-off).
    """
    fine = refine_problem(problem)
    rng_master = np.random.default_rng(seed)
    pair_seeds = rng_master.integers(0, 2**32 - 1, size=n_pairs)

    def ratios_at(pr: ControlProblem, seeds) -> dict:
        out = {"state": [], "ds": [], "d2s": []}
        for s in seeds:
            rng = np.random.default_rng(int(s))
            ua = _smooth_random_control(pr, rng, amp)
            ub = _smooth_random_control(pr, rng, amp)
            h = _smooth_random_control(pr, rng, amp)
            v = _smooth_random_control(pr, rng, amp)
            du = control_norm(pr.grid, pr.tgrid,
                              Control(ua.u1 - ub.u1, ua.u2 - ub.u2))
            nh = control_norm(pr.grid, pr.tgrid, h)
            nv = control_norm(pr.grid, pr.tgrid, v)
            if du == 0.0 or nh == 0.0 or nv == 0.0:
                continue  # coincident draw: the ratio is undefined, skip it
            ctx_a = SecondOrderContext(pr, ua)
            ctx_b = SecondOrderContext(pr, ub)
            out["state"].append(_norm3(pr, (a - b for a, b in zip(
                _fields(ctx_a.state), _fields(ctx_b.state)))) / du)
            lin_ha, lin_hb = ctx_a.linearize(h), ctx_b.linearize(h)
            out["ds"].append(_norm3(pr, (a - b for a, b in zip(
                _fields(lin_ha), _fields(lin_hb)))) / (du * nh))
            bil_a = ctx_a.bilinearize(lin_ha, ctx_a.linearize(v), h, v)
            bil_b = ctx_b.bilinearize(lin_hb, ctx_b.linearize(v), h, v)
            out["d2s"].append(_norm3(pr, (a - b for a, b in zip(
                _fields(bil_a), _fields(bil_b)))) / (du * nh * nv))
        return {k: float(np.max(vals)) if vals else 0.0
                for k, vals in out.items()}

    base = ratios_at(problem, pair_seeds)
    refined = ratios_at(fine, pair_seeds)

    factors = []
    for key in base:
        lo, hi = sorted((base[key], refined[key]))
        factors.append(hi / max(lo, 1e-300))
    max_factor = float(np.max(factors))

    # homogeneity: doubling the direction doubles the linearized response
    rng = np.random.default_rng(int(pair_seeds[0]))
    ua = _smooth_random_control(problem, rng, amp)
    h = _smooth_random_control(problem, rng, amp)
    ctx = SecondOrderContext(problem, ua)
    lin1 = ctx.linearize(h)
    lin2 = ctx.linearize(Control(2.0 * h.u1, 2.0 * h.u2))
    hom = 0.0
    scale = max(_norm3(problem, _fields(lin1)), 1e-300)
    for a, b in zip(_fields(lin2), _fields(lin1)):
        hom = max(hom, float(np.max(np.abs(a - 2.0 * b))))
    hom_rel = hom / scale

    passed = bool(max_factor < factor_bound and hom_rel < 1e-12)
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
    form: str


def adjoint_continuous_residual(problem: ControlProblem, ubar: Control,
                                form: str = "primal",
                                cut: float = 0.1) -> AdjointResidualReport:
    """Plug the transpose multipliers into a centered strong-form assembly.

    The backward-Euler form of the strong equations reproduces the transpose
    recursion identically, so this diagnostic uses a different consistent
    discretization: half-level differences with level-averaged reaction,
    diffusion and source terms.  The residual then measures the first-order
    consistency gap and must shrink under refinement.  `form` selects either
    the primal first equation or the equivalent one with the nutrient
    diffusion eliminated through the third equation.  Level pairs are kept
    only on the fixed window [cut*T, (1-cut)*T] so that runs at different
    resolutions integrate the residual over the same time interval.
    """
    if problem.cost.b2 != 0.0:
        raise ValueError(
            "the strong-form diagnostic needs final-time tracking disabled "
            "(set b2 = 0)")
    if form not in ("primal", "eliminated"):
        raise ValueError(f"unknown form {form!r}")
    if not 0.0 <= cut < 0.5:
        raise ValueError("cut must lie in [0, 0.5)")
    ctx = SecondOrderContext(problem, ubar)
    state, adj = ctx.state, ctx.adjoint
    pr = problem.params
    grid, tgrid = problem.grid, problem.tgrid
    dt = tgrid.dt
    lap = grid.lap
    target = problem.target_q()
    n_steps = tgrid.steps

    t_mid = 0.5 * (tgrid.times[:-1] + tgrid.times[1:])  # pair (k, k+1) midpoints
    lo, hi = cut * tgrid.t_final, (1.0 - cut) * tgrid.t_final
    pairs = np.arange(1, n_steps)
    keep = (t_mid[pairs] >= lo) & (t_mid[pairs] <= hi)
    levels = pairs[keep]
    if levels.size < 2:
        raise ValueError("window too narrow: fewer than two level pairs kept")
    eq1 = np.zeros(levels.size)
    eq2 = np.zeros(levels.size)
    eq3 = np.zeros(levels.size)

    def fields_at(k):
        pv, dpm, hpu, f2 = problem.stepper.reaction_terms(
            state.mu[k], state.phi[k], state.sigma[k], ubar.u1[k])
        return {"p": adj.p[k], "q": adj.q[k], "r": adj.r[k], "P": pv,
                "dP": dpm, "dh_u": hpu, "f2": f2,
                "mis": state.phi[k] - target[k]}

    for i, k in enumerate(levels):
        a = fields_at(k)
        b = fields_at(k + 1)

        def avg(key):
            return 0.5 * (a[key] + b[key])

        dtp = (b["p"] - a["p"]) / dt
        dtq = (b["q"] - a["q"]) / dt
        dtr = (b["r"] - a["r"]) / dt
        p_bar, q_bar, r_bar = avg("p"), avg("q"), avg("r")
        reactP_bar = 0.5 * (a["P"] * (a["p"] - a["r"])
                            + b["P"] * (b["p"] - b["r"]))
        hu_p = 0.5 * (a["dh_u"] * a["p"] + b["dh_u"] * b["p"])
        dPm_pmr = 0.5 * (a["dP"] * (a["p"] - a["r"])
                         + b["dP"] * (b["p"] - b["r"]))
        f2q = 0.5 * (a["f2"] * a["q"] + b["f2"] * b["q"])
        src = problem.cost.b1 * avg("mis")
        if form == "primal":
            res1 = (-dtp - pr.beta * dtq - lap @ q_bar + pr.chi * (lap @ r_bar)
                    + f2q + hu_p - dPm_pmr + pr.chi * reactP_bar - src)
        else:
            # Delta r replaced through the third equation; the chi P (p - r)
            # contributions cancel and a chi^2 q term appears
            res1 = (-dtp - pr.beta * dtq - pr.chi * dtr - lap @ q_bar
                    + f2q - pr.chi * pr.chi * q_bar + hu_p - dPm_pmr - src)
        res2 = -pr.alpha * dtp - lap @ p_bar - q_bar + reactP_bar
        res3 = -dtr - lap @ r_bar - pr.chi * q_bar - reactP_bar
        eq1[i] = norm(grid, res1)
        eq2[i] = norm(grid, res2)
        eq3[i] = norm(grid, res3)

    aggregate = float(np.sqrt(dt * np.sum(eq1**2 + eq2**2 + eq3**2)))
    return AdjointResidualReport(levels=levels, eq1=eq1, eq2=eq2, eq3=eq3,
                                 aggregate=aggregate, form=form)


# ---------------------------------------------------------------------------
# aggregated report


THRESHOLDS = {
    "duality": 1e-10,
    "fd_agreement": 1e-8,
    "slope_band": 0.2,
    "stability_factor": 2.0,
    "mass_residual": 1e-10,
    "adjoint_residual_order": 0.8,
}


def run_verification(problem: ControlProblem, ubar: Control,
                     seed: int = 0, n_dirs: int = 3,
                     n_pairs: int = 2) -> dict:
    """Run every applicable check on one problem and collect a report.

    Returns a dict with one entry per check (name, description, metrics,
    passed) and an overall gate flag.
    """
    checks: list[dict] = []

    def add(name: str, description: str, metrics: dict, passed: bool,
            skipped: bool = False):
        checks.append({"name": name, "description": description,
                       "metrics": metrics, "passed": bool(passed),
                       "skipped": bool(skipped)})

    state = problem.solve(ubar)
    mass = mass_balance_residual(state, ubar, problem.params, problem.nonlin,
                                 problem.grid, problem.tgrid)
    worst_mass = float(np.max(mass)) if mass.size else 0.0
    add("mass_identity",
        "per-step relative residual of the discrete mass balance",
        {"max_relative_residual": worst_mass},
        worst_mass <= THRESHOLDS["mass_residual"])

    dual = check_duality(problem, ubar, seed=seed)
    add("duality",
        "linearized/adjoint pairing identity, relative residual",
        {"relative_residual": dual}, dual <= THRESHOLDS["duality"])

    gradient = check_gradient_fd(problem, ubar, n_dirs=n_dirs, seed=seed)
    worst_best = gradient.details["worst_best_rel_error"]
    add("gradient_fd",
        "central differences of the cost against the adjoint gradient",
        {"fitted_slope": gradient.fitted_slope,
         "worst_best_rel_error": worst_best},
        gradient.passed and worst_best <= THRESHOLDS["fd_agreement"])

    taylor = check_taylor_orders(problem, ubar, seed=seed)
    names = ("taylor_state", "taylor_ds_increment", "taylor_cost")
    descriptions = (
        "first-order state remainder, expected quadratic decay",
        "first-order remainder of the linearized map, expected quadratic decay",
        "second-order cost remainder, expected cubic decay")
    for rep, nm, desc in zip(taylor, names, descriptions):
        add(nm, desc, {"fitted_slope": rep.fitted_slope,
                       "expected_slope": rep.expected_slope}, rep.passed)

    stability = check_stability_ratios(problem, n_pairs=n_pairs, seed=seed)
    add("stability_ratios",
        "state/first/second sensitivity ratios stable under refinement",
        {"base": stability.base_ratios, "refined": stability.refined_ratios,
         "max_change_factor": stability.max_change_factor,
         "homogeneity_error": stability.homogeneity_error},
        stability.passed)

    if problem.cost.b2 == 0.0:
        fine = refine_problem(problem)
        finer = refine_problem(fine)
        u_fine = refine_control(ubar, problem)
        aggregates = [adjoint_continuous_residual(problem, ubar).aggregate,
                      adjoint_continuous_residual(fine, u_fine).aggregate,
                      adjoint_continuous_residual(
                          finer, refine_control(u_fine, fine)).aggregate]
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
    else:
        add("adjoint_strong_form",
            "skipped: final-time tracking active (b2 != 0)", {}, True,
            skipped=True)

    return {"checks": checks,
            "all_passed": bool(all(c["passed"] for c in checks))}
