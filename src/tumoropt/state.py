"""Forward solver for the coupled phase-field / nutrient system.

Time stepping is implicit (backward Euler) with a damped Newton method per
step.  For singular potentials evaluated exactly, the damping enforces a
separation margin that keeps the phase field strictly inside the potential's
domain; with a Yosida parameter set, the regularized potential is defined on
the whole line and no ceiling is needed.  The Newton solutions, stacked
levels (mu, phi, sigma), are the rows of one (N_t+1, 3n) history.

`solve_states` marches many controls level by level in lockstep: their
iterates are the rows of one array, and each round of Newton evaluates the
residuals or LUs they ask for in one stacked stepper call.  A lone march
is the batch of one.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import SeparationViolation, SolverError
from .model import Control, check_ranges
from .stepper import Stepper

if TYPE_CHECKING:
    from .problem import ControlProblem


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into `steps` backward Euler steps."""

    steps: int
    t_final: float

    def __post_init__(self):
        check_ranges(self, at_least_one=("steps",))
        if not self.t_final > 0.0:
            raise ValueError(f"t_final (the final time) must be positive, "
                             f"got {self.t_final}")

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


# The per-step Newton solve meets this tolerance relative to the natural
# residual scale: the coefficient magnitudes times the field size,
# `Stepper.coef_scale` (1 + max |x|).
_NEWTON_TOL = 1e-12
# Newton iterations one step may take, chord and polish iterations included.
_NEWTON_MAX_ITER = 30
# Armijo trials of one damped Newton step, each at half the step fraction
# t of the one before.  A trial is kept once the residual falls to
# (1 - 1e-4 t) of its value; after the last one the best trial is kept,
# and the step fails if even that does not lower the residual.
_MAX_BACKTRACKS = 40
# Width of the separation band (lo + margin, hi - margin) inside the domain
# of an exact logarithmic potential; the separation ceiling keeps every
# Newton iterate in it.
_SEPARATION_MARGIN = 1e-8
# Chord iterations after meeting the tolerance (the polish).  Each reuses an
# LU formed at an earlier iterate (it factors only when there is none), tries
# the full step once, shortened only by the separation ceiling, and keeps it
# only if the residual strictly drops; the first one that does not help ends
# the polish, and 0 turns it off.  A march that carries its LU (`_Lockstep`)
# polishes while the residual falls, within `_NEWTON_MAX_ITER`.
_POLISH_STEPS = 1
# A march fails once the free energy of a level exceeds this factor times
# max(|E_0|, 1).
_ENERGY_BLOWUP_FACTOR = 1e8


@dataclass(eq=False)
class StateTrajectory:
    """Stacked states (mu, phi, sigma) of all time levels plus diagnostics."""

    x: np.ndarray       # (N_t+1, 3n)
    times: np.ndarray   # (N_t+1,)
    newton_iters: np.ndarray
    factorizations: np.ndarray  # Jacobian LUs formed per step, entry 0 is 0
    mass_residual: np.ndarray   # relative, entry k for step k, entry 0 is 0
    energy: np.ndarray

    mu = property(lambda self: Stepper.split(self.x)[0])
    phi = property(lambda self: Stepper.split(self.x)[1])
    sigma = property(lambda self: Stepper.split(self.x)[2])
    phi_min = property(lambda self: self.phi.min(axis=1))
    phi_max = property(lambda self: self.phi.max(axis=1))

    @property
    def n_levels(self) -> int:
        return self.x.shape[0]


def _validate_initial(stepper: Stepper, init: InitialData) -> None:
    lo, hi = stepper.potential.domain
    if not np.isfinite(lo):
        return
    phimin, phimax = float(np.min(init.phi0)), float(np.max(init.phi0))
    if stepper.potential.guarded:
        if phimin <= lo or phimax >= hi:
            raise SeparationViolation(
                f"initial phase field must lie strictly inside ({lo}, {hi}); "
                f"got range [{phimin}, {phimax}]")
    elif phimin < lo or phimax > hi:
        raise SeparationViolation(
            f"initial phase field must lie inside [{lo}, {hi}]; "
            f"got range [{phimin}, {phimax}]")


def _step_ceiling(phi: np.ndarray, dphi: np.ndarray, lo: float, hi: float,
                  margin: float):
    """Largest step fraction keeping phi + t*dphi inside (lo+margin, hi-margin).

    One quotient per moving entry, toward the bound it moves to, and one
    minimum over them all; 0.9 times the minimum is the minimum of 0.9
    times each, as rounding is monotone.  Rows (m, n) of phi and dphi give
    a list of m fractions, each the float of its row alone.
    """
    up = dphi > 0.0
    down = dphi < 0.0
    gap = np.where(up, hi - margin, lo + margin) - phi
    # a NaN dphi passes the mask; its NaN quotient is left out by
    # `_least_side`, as is every entry neither up nor down
    q = np.empty_like(dphi)
    q.fill(np.inf)
    np.divide(gap, dphi, out=q, where=dphi != 0.0)
    if q.ndim == 1:
        t = float(q.min())
        return _fraction(t if t == t else _least_side(q, up, down))
    return [_fraction(t if t == t else _least_side(q[i], up[i], down[i]))
            for i, t in enumerate(q.min(axis=1).tolist())]


def _least_side(q: np.ndarray, up: np.ndarray, down: np.ndarray) -> float:
    """Least quotient of one row whose quotients q hold a NaN: a NaN phi
    voids only the minimum of its own side, dphi > 0 or < 0."""
    sides = (float(q[s].min(initial=np.inf)) for s in (up, down))
    return min((m for m in sides if m == m), default=np.inf)


def _fraction(t: float) -> float:
    """The step fraction of a least quotient t: 0.9 t within [0, 1]."""
    return max(min(1.0, 0.9 * t), 0.0)


def solve_state(problem: ControlProblem, control: Control) -> StateTrajectory:
    """March the implicit scheme of `problem` over all time steps.

    Raises
    ------
    SolverError
        If a Newton solve stalls or diverges (reduce dt or soften data), or
        the free energy grows past `_ENERGY_BLOWUP_FACTOR` x max(|E_0|, 1).
    SeparationViolation
        If initial data sit outside the potential's admissible interval.
    """
    return solve_states(problem, [control])[0]


def solve_states(problem: ControlProblem, controls: Sequence[Control]
                 ) -> list[StateTrajectory]:
    """March the implicit scheme of `problem` for every control at once.

    The controls solve each level in lockstep (`_Lockstep`): each round of
    the damped Newton method evaluates the residuals, or the LUs, that its
    controls ask for in one stacked stepper call.  Every trajectory is
    bitwise the one `solve_state` gives for its control alone, and owns its
    arrays.

    Raises the errors of `solve_state`.  When Newton fails for some control,
    the error is that of the lowest-index control failing at the first
    level where any fails (after the energy check on the levels it had
    marched); an energy blow-up alone is reported for the lowest-index
    control it happens to, once the march is done.
    """
    tgrid, init = problem.tgrid, problem.init
    n = problem.grid.n
    n_levels = tgrid.steps + 1
    for control in controls:
        if control.shape != (n_levels, n):
            raise ValueError(f"control has shape {control.shape}, "
                             f"expected ({n_levels}, {n})")
    stepper = problem.stepper
    _validate_initial(stepper, init)
    if not controls:
        return []

    xs = [np.empty((n_levels, 3 * n)) for _ in controls]
    iters = [np.zeros(n_levels, dtype=int) for _ in controls]
    lus = [np.zeros(n_levels, dtype=int) for _ in controls]
    for x in xs:
        x[0] = init.stacked()
    newton = _Lockstep(stepper, xs, iters, lus, controls)
    for k in range(1, n_levels):
        failures = newton.level(k)
        if failures:
            # an energy blow-up on a level already marched is the earlier
            # failure
            i = min(failures)
            _check_energy(
                _step_diagnostics(stepper, xs[i][:k], controls[i])[0])
            raise failures[i]

    trajectories = []
    for x, its, factorizations, control in zip(xs, iters, lus, controls):
        energy, mass_rel = _step_diagnostics(stepper, x, control)
        _check_energy(energy)
        trajectories.append(StateTrajectory(
            x=x, times=tgrid.times, newton_iters=its,
            factorizations=factorizations, mass_residual=mass_rel,
            energy=energy))
    return trajectories


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
    energy = (stepper.potential.eval(phi, 0) @ w + 0.5 * grad_sq
              + 0.5 * ((sigma * sigma) @ w) + 0.5 * alpha * ((mu * mu) @ w))
    mass = (alpha * mu + phi + sigma) @ w
    u1, u2 = control.u1[1:len(phi)], control.u2[1:len(phi)]
    source = (u2 - stepper.nonlin.H.eval(phi[1:]) * u1) @ w
    raw = (mass[1:] - mass[:-1]) / dt - source
    scale = np.maximum(np.maximum(1.0, np.abs(mass[1:]) / dt), np.abs(source))
    return energy, np.concatenate([[0.0], np.abs(raw) / scale])


def _check_energy(energy: np.ndarray) -> None:
    """Raise SolverError naming the first level past the blow-up limit."""
    factor = _ENERGY_BLOWUP_FACTOR
    past = np.flatnonzero(np.abs(energy[1:]) > factor * max(abs(energy[0]), 1.0))
    if past.size:
        k = int(past[0]) + 1
        raise SolverError(f"energy grew past {factor:g} x initial "
                          f"at step {k} (E = {energy[k]:.3e})")


# a chord step with a carried LU is kept when it cuts the residual to this
# fraction of its value; a weaker one means the LU has gone stale
_CHORD_CONTRACTION = 0.25


def _rows(arrays: list) -> np.ndarray:
    """One array as it is, or several stacked as the rows of one (np.array
    stacks equal-length rows as np.stack does, at less overhead)."""
    return arrays[0] if len(arrays) == 1 else np.array(arrays)


class _Member:
    """Newton state of one control of a lockstep march at the level being
    solved: its iterate x with residual `res` (norm `rnorm`), iterations,
    LUs formed, the current LU and direction, and its pending trial."""

    __slots__ = ("i", "prev", "u1", "u2", "x", "res", "rnorm", "converged",
                 "polish_left", "it", "n_lu", "lu", "chord", "delta", "t",
                 "backtracks", "best")

    def __init__(self, i: int):
        self.i = i
        self.lu = None


class _Lockstep:
    """Damped Newton for one level of many marches at once.

    Every control of the march is a member, and all members solve a level
    together in rounds.  A round takes each member one step further in its
    own Newton iteration: past the iteration's budget and convergence
    tests, then to an LU at its iterate if it needs one, a direction and
    its separation ceiling, and a trial residual.  The LUs of a round are
    formed, and its trial residuals evaluated, in one stacked stepper call
    each; the norms, tolerances, ceilings and trial points x + t delta in
    one array operation over the rows of the members in that phase.  A
    phase that holds one member makes one-level calls.  What follows from
    each value, the polish, chord and Armijo tests, backtracks, pinning
    and failures, is decided per member on Python floats, so each member
    takes the iterations and forms the LUs it would alone, bitwise.

    How far the LU of an earlier iterate is trusted depends on the LU
    backend.  A 1-D band LU costs about one residual: every Newton
    iteration factors at its iterate, and the polish takes at most
    `_POLISH_STEPS` chord iterations with the LU of the last one.  A 2-D
    SuperLU factor costs far more, so each member carries its last LU from
    iteration to iteration and step to step (chord Newton): an iteration
    first tries the full chord step with it and keeps that step when the
    residual stays finite and falls to at most `_CHORD_CONTRACTION` of its
    value; otherwise, or when the separation ceiling pins the chord step at
    t = 0, it factors at the iterate and takes the damped Newton step.  The
    2-D polish runs while the residual strictly falls, within
    `_NEWTON_MAX_ITER` iterations, so most 2-D steps form no LU.
    """

    def __init__(self, stepper: Stepper, xs: list, iters: list, lus: list,
                 controls: Sequence[Control]):
        self.stepper = stepper
        self.xs, self.iters, self.lus = xs, iters, lus
        self.controls = controls
        self.members = [_Member(i) for i in range(len(controls))]
        self.lag = stepper.superlu
        self.guard = stepper.potential.guarded
        n = stepper.n
        self.phi = slice(n, 2 * n)
        lo, hi = stepper.potential.domain
        margin = _SEPARATION_MARGIN
        self.ceiling_args = (lo, hi, margin)
        self.band = (lo + margin, hi - margin)
        self.tol_scale = _NEWTON_TOL * stepper.coef_scale
        # a lagged polish runs while the residual falls, within the budget
        self.polish = (_NEWTON_MAX_ITER if self.lag and _POLISH_STEPS > 0
                       else _POLISH_STEPS)

    def level(self, k: int) -> dict[int, SolverError]:
        """Solve step k of every member: x[k], its iterations and LUs go
        into the histories.  Returns the SolverError of each member whose
        step failed."""
        self.k, self.failures = k, {}
        members = self.members
        for s, c in zip(members, self.controls):
            s.prev, s.u1, s.u2 = self.xs[s.i][k - 1], c.u1[k], c.u2[k]
        top = self._start(members)
        factor, trials = [], []
        while top or factor or trials:
            direct = []
            if top:
                self._iterate(top, factor, direct)
            if factor:
                self._factor(factor, direct)
            factor = self._direct(direct, trials) if direct else []
            top, trials = self._try(trials, factor) if trials else ([], [])
        return self.failures

    def _start(self, members: list) -> list:
        """Each member's first iterate, residual and convergence test.

        From the second step on, Newton starts at the linear extrapolation
        2 x_{k-1} - x_{k-2} of the two previous levels, unless it leaves
        the separation band or its residual is not finite; else at x_{k-1}.
        """
        prev = _rows([s.prev for s in members])
        guessed = [False] * len(members)
        if self.k > 1:
            guess = 2.0 * prev - _rows([x[self.k - 2] for x in self.xs])
            guessed = self._inside(guess)
        # one stacked residual call at the start points, then one at x_{k-1}
        # for the members whose guess gave a residual that is not finite;
        # the points are new arrays, as no iterate may alias a history row
        if all(guessed):
            z = guess
        elif any(guessed):
            z = np.where(np.array(guessed)[:, None], guess, prev)
        else:
            z = prev.copy()
        self._begin(members, z)
        retry = [s for s, ok in zip(members, guessed)
                 if ok and not math.isfinite(s.rnorm)]
        if retry:
            self._begin(retry, _rows([s.prev for s in retry]).copy())
        self._test(members)
        for s in members:
            s.polish_left, s.it, s.n_lu = self.polish, 0, 0
            if not self.lag:
                s.lu = None
        return members

    def _begin(self, q: list, z: np.ndarray) -> None:
        """Put the members of q at the rows of z, with their residuals."""
        for s, x, res, rnorm in zip(q, [z] if z.ndim == 1 else z,
                                    *self._residuals(q, z)):
            s.x, s.res, s.rnorm = x, res, rnorm

    def _inside(self, x: np.ndarray) -> list:
        """Whether the phi of each row of x lies inside the separation band
        (lo + _SEPARATION_MARGIN, hi - _SEPARATION_MARGIN); all True without
        the separation guard.  A NaN phi lies outside."""
        if not self.guard:
            return [True] * (1 if x.ndim == 1 else len(x))
        phi = x[..., self.phi]
        lo, hi = self.band
        if x.ndim == 1:
            return [float(phi.min()) > lo and float(phi.max()) < hi]
        return ((phi.min(axis=1) > lo) & (phi.max(axis=1) < hi)).tolist()

    def _residuals(self, q: list, z: np.ndarray) -> tuple[list, list]:
        """Step residuals at the points z of the members q (one row each)
        and their max norms."""
        if len(q) == 1:
            s = q[0]
            res = self.stepper.residual(z, s.prev, s.u1, s.u2)
            return [res], [float(np.abs(res).max())]
        res = self.stepper.residual(z, np.array([s.prev for s in q]),
                                    np.array([s.u1 for s in q]),
                                    np.array([s.u2 for s in q]))
        return list(res), np.abs(res).max(axis=1).tolist()

    def _test(self, q: list) -> None:
        """Convergence test of each member of q at its iterate."""
        if len(q) == 1:
            sizes = [float(np.abs(q[0].x).max())]
        else:
            sizes = np.abs(np.array([s.x for s in q])).max(axis=1).tolist()
        for s, size in zip(q, sizes):
            s.converged = s.rnorm <= self.tol_scale * (1.0 + size)

    def _iterate(self, q: list, factor: list, direct: list) -> None:
        """The top of a Newton iteration for each member of q: end its
        step, or count the iteration and queue the member for an LU or,
        with the LU of an earlier iterate (chord), for its direction."""
        max_iter, lag = _NEWTON_MAX_ITER, self.lag
        for s in q:
            if s.it >= max_iter or (s.converged and s.polish_left <= 0):
                self._end(s)
                continue
            if s.converged:
                s.polish_left -= 1
            s.it += 1
            if not math.isfinite(s.rnorm):
                self._fail(s, "non-finite Newton residual")
                continue
            # the LU of an earlier iterate serves the polish and, when
            # lagging, a first chord trial of every iteration
            s.chord = s.lu is not None and (s.converged or lag)
            (direct if s.chord else factor).append(s)

    def _factor(self, q: list, direct: list) -> None:
        """The step LU at the iterate of each member of q; those that get
        one go on to their direction.  When the stacked factorization
        fails, each member is factored alone, to meet its own error."""
        stepper = self.stepper
        if len(q) == 1:
            lus = [self._factor_one(q[0])]
        else:
            try:
                lus = stepper.factorize(np.array([s.x for s in q]),
                                        np.array([s.u1 for s in q]))
            except SolverError:
                lus = [self._factor_one(s) for s in q]
        for s, lu in zip(q, lus):
            if isinstance(lu, SolverError):
                self._fail(s, str(lu))
            else:
                s.lu = lu
                s.n_lu += 1
                direct.append(s)

    def _factor_one(self, s: _Member):
        try:
            return self.stepper.factorize(s.x, s.u1)
        except SolverError as exc:
            return exc

    def _direct(self, q: list, trials: list) -> list:
        """The Newton direction of each member of q with its LU, and the
        largest step fraction the separation ceiling allows; queues each
        member's trial.  Returns the members whose lagged chord step the
        ceiling pinned at t = 0, to factor afresh; any other pinned
        member fails."""
        for s in q:
            s.delta = s.lu.solve(-s.res)
        if not self.guard:
            steps = [1.0] * len(q)
        elif len(q) == 1:
            s = q[0]
            steps = [_step_ceiling(s.x[self.phi], s.delta[self.phi],
                                   *self.ceiling_args)]
        else:
            phi = self.phi
            steps = _step_ceiling(np.array([s.x[phi] for s in q]),
                                  np.array([s.delta[phi] for s in q]),
                                  *self.ceiling_args)
        refactor = []
        for s, t in zip(q, steps):
            if t <= 0.0:
                if s.chord and self.lag:
                    s.chord = False
                    refactor.append(s)
                else:
                    self._fail(s, "Newton update pinned at the separation "
                               "margin; reduce dt or start further from the "
                               "potential barrier")
                continue
            s.t = t
            if not (s.converged or s.chord):
                s.best, s.backtracks = None, _MAX_BACKTRACKS
            trials.append(s)
        return refactor

    def _try(self, q: list, factor: list) -> tuple[list, list]:
        """Trial residual at x + t delta for each member of q, and what it
        decides: a converged member keeps its polish step if it helps, a
        chord step is kept if it contracts, and a Newton step backtracks
        (Armijo).  Returns the members back at the top of an iteration and
        those that backtrack further; a chord step that does not contract
        queues its member in `factor`."""
        if len(q) == 1:
            s = q[0]
            z = s.x + s.t * s.delta
            rows = [z]
        else:
            z = (np.array([s.x for s in q])
                 + np.array([s.t for s in q])[:, None]
                 * np.array([s.delta for s in q]))
            rows = list(z)
        top, again, moved = [], [], []
        for s, x, res, rnorm in zip(q, rows, *self._residuals(q, z)):
            if s.converged:
                # polish: kept only if it helps
                if rnorm < s.rnorm:
                    s.x, s.res, s.rnorm = x, res, rnorm
                    top.append(s)
                else:
                    self._end(s)
            elif s.chord:
                # chord: kept if it contracts (False for a non-finite
                # residual); else the damped Newton step from a fresh LU
                if rnorm <= _CHORD_CONTRACTION * s.rnorm:
                    s.x, s.res, s.rnorm = x, res, rnorm
                    moved.append(s)
                else:
                    s.chord = False
                    factor.append(s)
            else:
                best = s.best
                # a finite trial replaces a non-finite best
                if best is None or rnorm < best[2] or (
                        best[2] != best[2] and rnorm < math.inf):
                    s.best = (x, res, rnorm)
                s.backtracks -= 1
                if (rnorm <= (1.0 - 1e-4 * s.t) * s.rnorm
                        or s.backtracks == 0):
                    x, res, rnorm = s.best
                    if rnorm >= s.rnorm:
                        self._fail(s, f"Newton stalled at residual "
                                   f"{s.rnorm:.3e} after {s.it} iterations")
                        continue
                    s.x, s.res, s.rnorm = x, res, rnorm
                    moved.append(s)
                else:
                    s.t *= 0.5
                    again.append(s)
        if moved:
            self._test(moved)
            top += moved
        return top, again

    def _end(self, s: _Member) -> None:
        """The end of a member's step: its result, or its failure if it did
        not converge."""
        if not s.converged:
            self._fail(s, f"Newton did not converge within "
                       f"{_NEWTON_MAX_ITER} iterations "
                       f"(residual {s.rnorm:.3e})")
            return
        i, k = s.i, self.k
        self.xs[i][k], self.iters[i][k], self.lus[i][k] = s.x, s.it, s.n_lu

    def _fail(self, s: _Member, message: str) -> None:
        self.failures[s.i] = SolverError(f"step {self.k}: {message}")
