"""Forward solver for the coupled phase-field / nutrient system.

Time stepping is implicit (backward Euler) with a damped Newton method per
step.  For singular potentials evaluated exactly, the damping enforces a
separation margin that keeps the phase field strictly inside the potential's
domain; with a Yosida parameter set, the regularized potential is defined on
the whole line and no ceiling is needed.  The Newton solutions, stacked
levels (mu, phi, sigma), are the rows of one (N_t+1, 3n) history.

The Newton step of one level asks for its residuals and LUs instead of
calling the stepper, so `solve_states` marches many controls level by level
and answers the requests of all of them with one stacked stepper call.
"""

from __future__ import annotations

from collections.abc import Generator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import SeparationViolation, SolverError
from .model import Control
from .stepper import Stepper

if TYPE_CHECKING:
    from .problem import ControlProblem


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into `steps` backward Euler steps."""

    steps: int
    t_final: float

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("need at least one time step")
        if self.t_final <= 0.0:
            raise ValueError("final time must be positive")

    @property
    def dt(self) -> float:
        return self.t_final / self.steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.steps + 1)

    def weights(self) -> np.ndarray:
        """Trapezoid weights in time, length steps + 1."""
        w = np.full(self.steps + 1, self.dt)
        w[0] = w[-1] = 0.5 * self.dt
        return w


@dataclass(eq=False)
class InitialData:
    mu0: np.ndarray
    phi0: np.ndarray
    sigma0: np.ndarray

    def __post_init__(self):
        self.mu0 = np.asarray(self.mu0, dtype=float)
        self.phi0 = np.asarray(self.phi0, dtype=float)
        self.sigma0 = np.asarray(self.sigma0, dtype=float)
        if not (self.mu0.shape == self.phi0.shape == self.sigma0.shape):
            raise ValueError("initial fields must share one shape")
        if not np.all(np.isfinite(self.stacked())):
            raise ValueError("initial fields must be finite")

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.mu0, self.phi0, self.sigma0])


@dataclass(frozen=True)
class SolverOptions:
    """Knobs of the per-step Newton solve.

    From the second step on, Newton starts at the linear extrapolation
    2 x_{k-1} - x_{k-2} of the two previous levels; it starts at x_{k-1}
    instead on the first step, when the guess leaves the separation interval
    (lo + separation_margin, hi - separation_margin) of an exact logarithmic
    potential, or when the step residual at the guess is not finite.
    newton_tol is relative to the natural residual scale (coefficient
    magnitudes times field size).  A Newton iteration factors the Jacobian
    at the iterate and backtracks (Armijo, at most `max_backtracks`
    halvings).  After meeting the tolerance the solver polishes with chord
    iterations: each reuses an LU formed at an earlier iterate (it factors
    only when there is none), tries the full step once (shortened only by
    the separation ceiling) and keeps it only if the residual strictly
    drops; the first one that does not help ends the polish, and
    `polish_steps = 0` turns it off.

    How far the LU of an earlier iterate is trusted depends on the LU
    backend.  A 1-D band LU costs about one residual: every Newton iteration
    factors, and the polish takes at most `polish_steps` chord iterations
    with the LU of the last one.  A 2-D SuperLU factor costs far more, so
    the march carries the last LU across iterations and steps (chord
    Newton): each iteration first tries the full chord step with it and
    keeps that step when the residual stays finite and falls to at most
    0.25 of its value; otherwise, or when the separation ceiling pins the
    chord step at t = 0, it factors at the iterate and takes the damped
    Newton step.  The 2-D polish runs while the residual strictly falls,
    within `newton_max_iter` iterations, so most 2-D steps form no LU.

    The options hold for each control of a batch march (`solve_states`)
    as for a lone one: every control runs its own Newton step, with its own
    carried LU, and only the residuals and LUs it asks for are evaluated
    together with those of the other controls.
    """

    newton_tol: float = 1e-12
    newton_max_iter: int = 30
    max_backtracks: int = 40
    separation_margin: float = 1e-8
    yosida_eps: float | None = None
    polish_steps: int = 1
    energy_blowup_factor: float = 1e8

    def __post_init__(self):
        # every damped Newton step takes at least one trial
        if self.max_backtracks < 1:
            raise ValueError(
                f"max_backtracks must be at least 1, got {self.max_backtracks}")


@dataclass(eq=False)
class StateTrajectory:
    """Stacked states (mu, phi, sigma) of all time levels plus diagnostics."""

    x: np.ndarray       # (N_t+1, 3n)
    times: np.ndarray   # (N_t+1,)
    newton_iters: np.ndarray
    factorizations: np.ndarray  # Jacobian LUs formed per step, entry 0 is 0
    mass_residual: np.ndarray   # relative, entry k for step k, entry 0 is 0
    energy: np.ndarray
    phi_min: np.ndarray
    phi_max: np.ndarray

    mu = property(lambda self: Stepper.split(self.x)[0])
    phi = property(lambda self: Stepper.split(self.x)[1])
    sigma = property(lambda self: Stepper.split(self.x)[2])

    @property
    def n_levels(self) -> int:
        return self.x.shape[0]


def _validate_initial(stepper: Stepper, init: InitialData) -> None:
    lo, hi = stepper.potential.domain
    if not np.isfinite(lo):
        return
    phimin, phimax = float(np.min(init.phi0)), float(np.max(init.phi0))
    if stepper.separation_guard:
        if phimin <= lo or phimax >= hi:
            raise SeparationViolation(
                f"initial phase field must lie strictly inside ({lo}, {hi}); "
                f"got range [{phimin}, {phimax}]")
    elif phimin < lo or phimax > hi:
        raise SeparationViolation(
            f"initial phase field must lie inside [{lo}, {hi}]; "
            f"got range [{phimin}, {phimax}]")


def _step_ceiling(phi: np.ndarray, dphi: np.ndarray, lo: float, hi: float,
                  margin: float) -> float:
    """Largest step fraction keeping phi + t*dphi inside (lo+margin, hi-margin).

    One quotient per moving entry, toward the bound it moves to, and one
    minimum over them all; 0.9 times the minimum is the minimum of 0.9
    times each, as rounding is monotone.
    """
    up = dphi > 0.0
    gap = np.where(up, hi - margin, lo + margin) - phi
    q = np.divide(gap, dphi, out=np.full_like(dphi, np.inf),
                  where=up | (dphi < 0.0))
    t = float(q.min())
    if t != t:
        # a NaN phi voids only the minimum of its own side, dphi > 0 or < 0
        sides = (float(q[s].min(initial=np.inf)) for s in (up, dphi < 0.0))
        t = min((m for m in sides if m == m), default=np.inf)
    return max(min(1.0, 0.9 * t), 0.0)


def solve_state(problem: ControlProblem, control: Control) -> StateTrajectory:
    """March the implicit scheme of `problem` over all time steps.

    Raises
    ------
    SolverError
        If a Newton solve stalls or diverges (reduce dt or soften data), or
        the free energy grows past `energy_blowup_factor` x max(|E_0|, 1).
    SeparationViolation
        If initial data sit outside the potential's admissible interval.
    """
    return solve_states(problem, [control])[0]


def solve_states(problem: ControlProblem, controls: Sequence[Control]
                 ) -> list[StateTrajectory]:
    """March the implicit scheme of `problem` for every control at once.

    Each control gets its own Newton step (`_newton_step`) at every level,
    and every round of the level answers the pending requests of one kind
    for all controls in one stacked call of the stepper; once one control
    is left solving, it is answered by one-level calls.  Every trajectory
    is bitwise the one `solve_state` gives for its control alone, and owns
    its arrays.

    Raises the errors of `solve_state`.  When Newton fails for some control,
    the error is that of the lowest-index control failing at the first
    level where any fails (after the energy check on the levels it had
    marched); an energy blow-up alone is reported for the lowest-index
    control it happens to, once the march is done.
    """
    tgrid, init, opts = problem.tgrid, problem.init, problem.options
    n = problem.grid.n
    n_levels = tgrid.steps + 1
    for control in controls:
        if control.shape != (n_levels, n):
            raise ValueError(f"control has shape {control.shape}, "
                             f"expected ({n_levels}, {n})")
    stepper = problem.stepper
    _validate_initial(stepper, init)

    members = range(len(controls))
    xs = [np.empty((n_levels, 3 * n)) for _ in members]
    iters = [np.zeros(n_levels, dtype=int) for _ in members]
    lus = [np.zeros(n_levels, dtype=int) for _ in members]
    for x in xs:
        x[0] = init.stacked()
    # a SuperLU factor costs far more than a residual, so each march
    # carries one from iteration to iteration and step to step (chord Newton)
    carried = [CarriedLU() if stepper.superlu else None for _ in members]
    for k in range(1, n_levels):
        failures = _march_level(stepper, opts, k, xs, iters, lus, carried,
                                controls)
        if failures:
            # an energy blow-up on a level already marched is the earlier
            # failure
            i = min(failures)
            _check_energy(
                _step_diagnostics(stepper, xs[i][:k], controls[i])[0], opts)
            raise failures[i]

    trajectories = []
    for x, its, factorizations, control in zip(xs, iters, lus, controls):
        energy, mass_rel = _step_diagnostics(stepper, x, control)
        _check_energy(energy, opts)
        phi = stepper.split(x)[1]
        trajectories.append(StateTrajectory(
            x=x, times=tgrid.times, newton_iters=its,
            factorizations=factorizations, mass_residual=mass_rel,
            energy=energy, phi_min=phi.min(axis=1), phi_max=phi.max(axis=1)))
    return trajectories


def _march_level(stepper: Stepper, opts: SolverOptions, k: int,
                 xs: list, iters: list, lus: list, carried: list,
                 controls: Sequence[Control]) -> dict[int, SolverError]:
    """Solve step k of every march: x[k], its iterations and LUs go into
    xs[i], iters[i] and lus[i].  Returns the SolverError of each member
    whose step failed."""
    x_prev = [x[k - 1] for x in xs]
    u1 = [c.u1[k] for c in controls]
    u2 = [c.u2[k] for c in controls]
    steps, failures = [], {}
    for i, x in enumerate(xs):
        # linear extrapolation of the last two levels predicts the step
        guess = None if k == 1 else 2.0 * x[k - 1] - x[k - 2]
        steps.append(_newton_step(stepper, x_prev[i], opts, k, start=guess,
                                  carried=carried[i]))

    def resume(i, answer, error):
        """Send member i its answer (or throw its error in); returns its
        next request, or None once its step is solved or has failed."""
        try:
            return (steps[i].throw(error) if error is not None
                    else steps[i].send(answer))
        except StopIteration as done:
            xs[i][k], iters[i][k], lus[i][k] = done.value
        except SolverError as exc:
            failures[i] = exc
        return None

    # (member, answer, error) to resume each member with; None starts it
    replies = [(i, None, None) for i in range(len(steps))]
    while len(replies) > 1:
        asked = {}
        for i, answer, error in replies:
            request = resume(i, answer, error)
            if request is not None:
                asked.setdefault(request[0], []).append((i, request[1]))
        replies = []
        for kind, batch in asked.items():
            replies += _answers(stepper, kind, batch, x_prev, u1, u2)
    # the one member still solving is answered alone to the end of its step
    for i, answer, error in replies:
        try:
            xs[i][k], iters[i][k], lus[i][k] = _solve_alone(
                steps[i], stepper, x_prev[i], u1[i], u2[i], answer, error)
        except SolverError as exc:
            failures[i] = exc
    return failures


def _solve_alone(step, stepper: Stepper, x_prev: np.ndarray,
                 u1k: np.ndarray, u2k: np.ndarray, answer=None,
                 error: SolverError | None = None
                 ) -> tuple[np.ndarray, int, int]:
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


def _answers(stepper: Stepper, kind: str, batch: list, x_prev: list,
             u1: list, u2: list) -> list:
    """(member, answer, error) for each (member, state) request of `kind`
    in `batch`, by one stepper call on their stacked rows; x_prev, u1 and
    u2 hold each member's previous level and control components.  When the
    stacked factorization fails, each member is answered alone, to meet its
    own error."""
    who = [i for i, _ in batch]
    # np.array stacks equal-length rows as np.stack does, at less overhead
    rows = np.array([z for _, z in batch])
    u1_rows = np.array([u1[i] for i in who])
    try:
        answers = (stepper.factorize(rows, u1_rows) if kind == "factor"
                   else stepper.residual(
                       rows, np.array([x_prev[i] for i in who]), u1_rows,
                       np.array([u2[i] for i in who])))
    except SolverError:
        return [(i, *_answer(stepper, kind, z, x_prev[i], u1[i], u2[i]))
                for i, z in batch]
    return [(i, answer, None) for i, answer in zip(who, answers)]


def _answer(stepper: Stepper, kind: str, z: np.ndarray, x_prev: np.ndarray,
            u1k: np.ndarray, u2k: np.ndarray) -> tuple:
    """(answer, error) for one request at state z by the one-level stepper
    call, error None on success."""
    try:
        if kind == "factor":
            return stepper.factorize(z, u1k), None
        return stepper.residual(z, x_prev, u1k, u2k), None
    except SolverError as exc:
        return None, exc


def _step_diagnostics(stepper: Stepper, x: np.ndarray, control: Control
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Free energy of every level and relative mass defect of every step
    (entry 0 is 0) over the (L, 3n) history of the first L levels.

    The energy is int F(phi) + |grad phi|^2/2 + sigma^2/2 + alpha mu^2/2; the
    mass identity says int alpha mu + phi + sigma changes over step k by dt
    times the source int u2 - h(phi) u1 at level k.
    """
    w, dt, alpha = stepper.grid.weights, stepper.dt, stepper.params.alpha
    mu, phi, sigma = stepper.split(x)
    grad_sq = -((stepper.grid.lap @ phi.T).T * phi) @ w
    energy = (stepper.potential_eval(phi, 0) @ w + 0.5 * grad_sq
              + 0.5 * ((sigma * sigma) @ w) + 0.5 * alpha * ((mu * mu) @ w))
    mass = (alpha * mu + phi + sigma) @ w
    u1, u2 = control.u1[1:len(phi)], control.u2[1:len(phi)]
    source = (u2 - stepper.nonlin.H.eval(phi[1:]) * u1) @ w
    raw = (mass[1:] - mass[:-1]) / dt - source
    scale = np.maximum(np.maximum(1.0, np.abs(mass[1:]) / dt), np.abs(source))
    return energy, np.concatenate([[0.0], np.abs(raw) / scale])


def _check_energy(energy: np.ndarray, opts: SolverOptions) -> None:
    """Raise SolverError naming the first level past the blow-up limit."""
    factor = opts.energy_blowup_factor
    past = np.flatnonzero(np.abs(energy[1:]) > factor * max(abs(energy[0]), 1.0))
    if past.size:
        k = int(past[0]) + 1
        raise SolverError(f"energy grew past {factor:g} x initial "
                          f"at step {k} (E = {energy[k]:.3e})")


# a chord step with a carried LU is kept when it cuts the residual to this
# fraction of its value; a weaker one means the LU has gone stale
_CHORD_CONTRACTION = 0.25


@dataclass(eq=False)
class CarriedLU:
    """The last step LU of a march, which later Newton iterations and steps
    may reuse (chord Newton); `lu` is None until the first factorization."""

    lu: object = None


def _newton_step(stepper: Stepper, x_prev: np.ndarray, opts: SolverOptions,
                 k: int, start: np.ndarray | None = None,
                 carried: CarriedLU | None = None
                 ) -> Generator[tuple[str, np.ndarray], object,
                                tuple[np.ndarray, int, int]]:
    """Solve step k from `start` (x_prev if None or unusable).

    A request loop: the step never calls the stepper for a residual or an
    LU.  It yields ("residual", x) and is sent the step residual at x
    (from x_prev and the step's control), or yields ("factor", x) and is
    sent the LU of the step Jacobian at x; a failed factorization is thrown
    into it as the stepper's SolverError.  So one driver (`_march_level`)
    can answer the requests of many steps in one stacked call.

    With `carried`, each iteration first tries a chord step with the LU of
    an earlier iterate, and `carried.lu` holds the last LU on return;
    without it every Newton iteration factors at its iterate.  Returns the
    state, the iterations (chord ones included) and the LUs formed.
    """
    res = None
    if start is not None and _inside_margin(stepper, start, opts):
        res = yield ("residual", start)
        x = start
    if res is None or not np.isfinite(res).all():
        x = x_prev.copy()
        res = yield ("residual", x)
    rnorm = float(np.abs(res).max())

    def tol_at(z: np.ndarray) -> float:
        return opts.newton_tol * stepper.coef_scale * (
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
        if stepper.separation_guard:
            t = _step_ceiling(stepper.split(x)[1], stepper.split(delta)[1],
                              *stepper.potential.domain,
                              opts.separation_margin)
            if t <= 0.0 and not may_pin:
                raise SolverError(
                    f"step {k}: Newton update pinned at the separation "
                    "margin; reduce dt or start further from the potential "
                    "barrier")
        return delta, t

    # a lagged polish runs while the residual falls, within the budget
    polish_left = (opts.newton_max_iter if lag and opts.polish_steps > 0
                   else opts.polish_steps)
    converged = rnorm <= tol_at(x)
    it = 0
    while it < opts.newton_max_iter:
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
                # polish: kept only if it helps
                if not rnorm_new < rnorm:
                    break
                x, res, rnorm = x_new, res_new, rnorm_new
                continue
            # chord: kept if it contracts (False for a non-finite residual)
            if rnorm_new <= _CHORD_CONTRACTION * rnorm:
                x, res, rnorm = x_new, res_new, rnorm_new
                converged = rnorm <= tol_at(x)
                continue
            lu = yield from factor_at_x()
            delta, t = direction(lu)
        best = None
        for _ in range(opts.max_backtracks):
            x_try = x + t * delta
            res_try = yield ("residual", x_try)
            rnorm_try = float(np.abs(res_try).max())
            if best is None or rnorm_try < best[2]:
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
            f"{opts.newton_max_iter} iterations (residual {rnorm:.3e})")
    return x, it, n_lu


def _inside_margin(stepper: Stepper, x: np.ndarray,
                   opts: SolverOptions) -> bool:
    """False when the separation guard is on and the phi of the stacked state
    x leaves (lo + separation_margin, hi - separation_margin)."""
    if not stepper.separation_guard:
        return True
    lo, hi = stepper.potential.domain
    phi = stepper.split(x)[1]
    margin = opts.separation_margin
    return bool(((phi > lo + margin) & (phi < hi - margin)).all())
