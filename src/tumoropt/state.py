"""Forward solver for the coupled phase-field / nutrient system.

Time stepping is implicit (backward Euler) with a damped Newton method per
step.  For singular potentials evaluated exactly, the damping enforces a
separation margin that keeps the phase field strictly inside the potential's
domain; with a Yosida parameter set, the regularized potential is defined on
the whole line and no ceiling is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import SeparationViolation, SolverError
from .grid import Grid, inner
from .model import (Control, ModelParams, NonlinearitySpec, PotentialSpec,
                    _f1_eval, _f2_eval, prox_f1)
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

    newton_tol is relative to the natural residual scale (coefficient
    magnitudes times field size); iterations before it is met backtrack
    (Armijo, at most `max_backtracks` halvings).  After meeting it the solver
    applies up to `polish_steps` extra iterations, each of which tries the
    full Newton step once (shortened only by the separation ceiling of the
    logarithmic potential) and keeps it only if the residual strictly drops;
    the first one that does not help ends the polish.  This drives the
    residual to its round-off floor.
    """

    newton_tol: float = 1e-12
    newton_max_iter: int = 30
    max_backtracks: int = 40
    separation_margin: float = 1e-8
    yosida_eps: float | None = None
    polish_steps: int = 1
    energy_blowup_factor: float = 1e8


@dataclass(eq=False)
class StateTrajectory:
    """Snapshots of (mu, phi, sigma) on all time levels plus step diagnostics."""

    mu: np.ndarray      # (N_t+1, n)
    phi: np.ndarray
    sigma: np.ndarray
    times: np.ndarray   # (N_t+1,)
    newton_iters: np.ndarray
    mass_residual: np.ndarray   # relative, entry k for step k, entry 0 is 0
    energy: np.ndarray
    phi_min: np.ndarray
    phi_max: np.ndarray

    @property
    def n_levels(self) -> int:
        return self.mu.shape[0]

    def snapshot(self, k: int) -> np.ndarray:
        return np.concatenate([self.mu[k], self.phi[k], self.sigma[k]])


def _validate_initial(init: InitialData, potential: PotentialSpec,
                      yosida_eps: float | None) -> None:
    lo, hi = potential.domain
    if not np.isfinite(lo):
        return
    phimin, phimax = float(np.min(init.phi0)), float(np.max(init.phi0))
    if potential.kind == "logarithmic" and yosida_eps is None:
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
    """Largest step fraction keeping phi + t*dphi inside (lo+margin, hi-margin)."""
    t = 1.0
    up = dphi > 0.0
    if np.any(up):
        t = min(t, 0.9 * np.min((hi - margin - phi[up]) / dphi[up]))
    dn = dphi < 0.0
    if np.any(dn):
        t = min(t, 0.9 * np.min((lo + margin - phi[dn]) / dphi[dn]))
    return max(t, 0.0)


def solve_state(problem: ControlProblem, control: Control) -> StateTrajectory:
    """March the implicit scheme of `problem` over all time steps.

    Raises
    ------
    SolverError
        If a Newton solve stalls or diverges (reduce dt or soften data).
    SeparationViolation
        If initial data sit outside the potential's admissible interval.
    """
    grid, tgrid, params = problem.grid, problem.tgrid, problem.params
    potential, nonlin, init = problem.potential, problem.nonlin, problem.init
    opts = problem.options
    n = grid.n
    n_levels = tgrid.steps + 1
    if control.shape != (n_levels, n):
        raise ValueError(
            f"control has shape {control.shape}, expected ({n_levels}, {n})")
    _validate_initial(init, potential, opts.yosida_eps)

    stepper = problem.stepper
    guard = potential.kind == "logarithmic" and opts.yosida_eps is None
    lo, hi = potential.domain

    mu = np.empty((n_levels, n))
    phi = np.empty((n_levels, n))
    sigma = np.empty((n_levels, n))
    iters = np.zeros(n_levels, dtype=int)
    mass_rel = np.zeros(n_levels)
    energy = np.empty(n_levels)
    mu[0], phi[0], sigma[0] = init.mu0, init.phi0, init.sigma0

    x = init.stacked()
    energy[0] = _energy_value(grid, params, potential, opts.yosida_eps, x)
    e_limit = opts.energy_blowup_factor * max(abs(energy[0]), 1.0)
    mass_prev = _total_mass(grid, params, x)

    for k in range(1, n_levels):
        x_prev = x
        u1k, u2k = control.u1[k], control.u2[k]
        x, n_it = _newton_step(stepper, x_prev, u1k, u2k, opts, guard, lo, hi, k)
        mu[k], phi[k], sigma[k] = stepper.split(x)
        iters[k] = n_it
        mass_rel[k], mass_prev = _mass_defect(grid, params, nonlin, tgrid.dt,
                                              mass_prev, x, u1k, u2k)
        energy[k] = _energy_value(grid, params, potential, opts.yosida_eps, x)
        if abs(energy[k]) > e_limit:
            raise SolverError(
                f"energy grew past {opts.energy_blowup_factor:g} x initial "
                f"at step {k} (E = {energy[k]:.3e})")

    return StateTrajectory(
        mu=mu, phi=phi, sigma=sigma, times=tgrid.times,
        newton_iters=iters, mass_residual=mass_rel, energy=energy,
        phi_min=phi.min(axis=1), phi_max=phi.max(axis=1))


def _newton_step(stepper: Stepper, x_prev: np.ndarray, u1k, u2k,
                 opts: SolverOptions, guard: bool, lo: float, hi: float,
                 k: int) -> tuple[np.ndarray, int]:
    x = x_prev.copy()
    res = stepper.residual(x, x_prev, u1k, u2k)
    rnorm = float(np.max(np.abs(res)))

    def tol_at(z: np.ndarray) -> float:
        return opts.newton_tol * stepper.coef_scale * (
            1.0 + float(np.max(np.abs(z))))

    polish_left = opts.polish_steps
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
        mu, phi, sigma = stepper.split(x)
        try:
            lu = stepper.factorize(mu, phi, sigma, u1k)
        except SolverError as exc:
            raise SolverError(f"step {k}: {exc}") from None
        delta = lu.solve(-res)
        t = 1.0
        if guard:
            dphi = stepper.split(delta)[1]
            t = _step_ceiling(phi, dphi, lo, hi, opts.separation_margin)
            if t <= 0.0:
                raise SolverError(
                    f"step {k}: Newton update pinned at the separation margin; "
                    "reduce dt or start further from the potential barrier")
        if converged:
            # polish: one trial of the full step, kept only if it helps
            x_new = x + t * delta
            res_new = stepper.residual(x_new, x_prev, u1k, u2k)
            rnorm_new = float(np.max(np.abs(res_new)))
            if not rnorm_new < rnorm:
                break
            x, res, rnorm = x_new, res_new, rnorm_new
            continue
        best = None
        for _ in range(opts.max_backtracks):
            x_try = x + t * delta
            res_try = stepper.residual(x_try, x_prev, u1k, u2k)
            rnorm_try = float(np.max(np.abs(res_try)))
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
    if not converged:
        raise SolverError(
            f"step {k}: Newton did not converge within "
            f"{opts.newton_max_iter} iterations (residual {rnorm:.3e})")
    return x, it


def _total_mass(grid: Grid, params: ModelParams, x: np.ndarray) -> float:
    n = grid.n
    combo = params.alpha * x[:n] + x[n:2 * n] + x[2 * n:]
    return inner(grid, combo, np.ones(n))


def _mass_defect(grid: Grid, params: ModelParams, nonlin: NonlinearitySpec,
                 dt: float, mass_prev: float, x: np.ndarray, u1k: np.ndarray,
                 u2k: np.ndarray) -> tuple[float, float]:
    """Relative defect of the discrete mass identity over one step ending at
    the stacked state x, and the total mass of x."""
    n = grid.n
    mass = _total_mass(grid, params, x)
    pointwise = inner(grid, u2k - nonlin.eval("h", x[n:2 * n]) * u1k,
                      np.ones(n))
    raw = (mass - mass_prev) / dt - pointwise
    return abs(raw) / max(1.0, abs(mass) / dt, abs(pointwise)), mass


def _potential_value(potential: PotentialSpec, yosida_eps: float | None,
                     phi: np.ndarray) -> np.ndarray:
    if yosida_eps is None:
        return _f1_eval(potential, phi, 0) + _f2_eval(potential, phi, 0)
    s = prox_f1(potential, yosida_eps, phi)
    envelope = _f1_eval(potential, s, 0) + (phi - s) ** 2 / (2.0 * yosida_eps)
    return envelope + _f2_eval(potential, phi, 0)


def _energy_value(grid: Grid, params: ModelParams, potential: PotentialSpec,
                  yosida_eps: float | None, x: np.ndarray) -> float:
    n = grid.n
    mu, phi, sigma = x[:n], x[n:2 * n], x[2 * n:]
    grad_sq = -inner(grid, grid.lap @ phi, phi)
    fv = inner(grid, _potential_value(potential, yosida_eps, phi), np.ones(n))
    return float(fv + 0.5 * grad_sq + 0.5 * inner(grid, sigma, sigma)
                 + 0.5 * params.alpha * inner(grid, mu, mu))


def mass_balance_residual(traj: StateTrajectory, control: Control,
                          params: ModelParams, nonlin: NonlinearitySpec,
                          grid: Grid, tgrid: TimeGrid) -> np.ndarray:
    """Relative residual of the discrete mass identity, one entry per step.

    The identity states that the weighted total of alpha*mu + phi + sigma
    changes per step exactly by the integral of u2 - h(phi) u1.
    """
    out = np.zeros(tgrid.steps)
    mass_prev = _total_mass(grid, params, traj.snapshot(0))
    for k in range(1, tgrid.steps + 1):
        out[k - 1], mass_prev = _mass_defect(
            grid, params, nonlin, tgrid.dt, mass_prev, traj.snapshot(k),
            control.u1[k], control.u2[k])
    return out
