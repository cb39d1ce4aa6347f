"""Linearized and bilinearized sensitivities along a state trajectory.

The generalized linear system marches the exact Jacobian of the implicit
step, with four switches: l1 scales the reaction/coupling entries, l2 the
control-direction sources, l3 arbitrary sources, l4 the initial data.
With the default (1, 1, 0, 0) it is the derivative of the control-to-state
map.  The bilinearized (second derivative) fields do not go through the
switches: `solve_bilinearized` runs the same recursion (`_march`) directly,
with the second-order sources of the step residual and zero initial data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SolverError
from .model import Control
from .problem import ControlProblem
from .state import InitialData, StateTrajectory

# factorizations along a 200-step 1-D trajectory are small; 2-D ones are not
_CACHE_MAX_DOF = 1500


@dataclass(frozen=True)
class LambdaFlags:
    """Switches of the generalized linear step: reaction, control sources,
    general sources, initial data."""

    l1: int = 1
    l2: int = 1
    l3: int = 0
    l4: int = 0

    def __post_init__(self):
        for name in ("l1", "l2", "l3", "l4"):
            if getattr(self, name) not in (0, 1):
                raise ValueError(f"flag {name} must be 0 or 1")


@dataclass(eq=False)
class LinearizedTrajectory:
    """Directional state sensitivities (eta, xi, theta) on all time levels."""

    eta: np.ndarray
    xi: np.ndarray
    theta: np.ndarray


class StepFactors:
    """LU factorizations of the linearized step operators along a trajectory.

    One instance is the linearization point (problem, state S(ubar), ubar) of
    every first- and second-order solve: the linearized and bilinearized
    marches (direct solves) and the adjoint march (transpose solves) share
    its single assembly pass per step.  Factors are cached when the stacked
    dimension is small, otherwise rebuilt on demand.
    """

    def __init__(self, problem: ControlProblem, state: StateTrajectory,
                 ubar: Control):
        self.problem = problem
        self.state = state
        self.ubar = ubar
        self._cache_all = 3 * problem.grid.n <= _CACHE_MAX_DOF
        self._lus: dict[int, object] = {}

    def lu(self, k: int):
        hit = self._lus.get(k)
        if hit is not None:
            return hit
        try:
            fac = self.problem.stepper.factorize(
                self.state.mu[k], self.state.phi[k], self.state.sigma[k],
                self.ubar.u1[k])
        except SolverError as exc:
            raise SolverError(f"step {k}: {exc}") from None
        if self._cache_all:
            self._lus[k] = fac
        return fac


def _march(problem: ControlProblem, lu_at: Callable[[int], object],
           sources: np.ndarray | None, y0: np.ndarray) -> LinearizedTrajectory:
    """Run the linear recursion A_k y^k = B y^{k-1} + S^k from y^0 = y0.

    `lu_at(k)` gives the LU of A_k.  `sources` holds the stacked S^k as one
    (N_t+1, 3n) array, level 0 unused, or is None for a source-free march.
    """
    stepper = problem.stepper
    n = stepper.n
    n_levels = problem.n_levels
    eta = np.zeros((n_levels, n))
    xi = np.zeros((n_levels, n))
    theta = np.zeros((n_levels, n))
    y = y0
    eta[0], xi[0], theta[0] = stepper.split(y0)
    for k in range(1, n_levels):
        rhs = stepper.transport(y)
        if sources is not None:
            rhs = rhs + sources[k]
        if np.any(rhs):
            y = lu_at(k).solve(rhs)
        else:
            y = np.zeros(3 * n)
        eta[k], xi[k], theta[k] = stepper.split(y)
    return LinearizedTrajectory(eta=eta, xi=xi, theta=theta)


def solve_generalized_linear(factors: StepFactors, flags: LambdaFlags,
                             h: Control | None = None,
                             f: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
                             init: InitialData | None = None) -> LinearizedTrajectory:
    """Solve the switched linear system at the linearization point `factors`.

    The sources of every level are built once, as whole histories, before
    the march.  With flags.l1 = 0 every step shares one reaction-free
    operator, factored once per call.

    Parameters
    ----------
    h : Control, optional
        Control direction; enters as (-h(phi) h1, 0, h2) on every level,
        scaled by flags.l2.
    f : triple of (N_t+1, n) arrays, optional
        General sources per equation, scaled by flags.l3; level 0 unused.
    init : InitialData, optional
        Initial snapshot, scaled by flags.l4.
    """
    problem, state = factors.problem, factors.state
    lu_at = factors.lu
    if not flags.l1:
        fixed = problem.stepper.factorize(
            state.mu[1], state.phi[1], state.sigma[1], factors.ubar.u1[1],
            lam1=0.0)
        lu_at = lambda k: fixed

    sources = None
    if flags.l2 and h is not None:
        hv = problem.nonlin.eval("h", state.phi)
        sources = np.concatenate([-hv * h.u1, np.zeros_like(hv), h.u2], axis=1)
    if flags.l3 and f is not None:
        extra = np.concatenate(f, axis=1)
        sources = extra if sources is None else sources + extra

    if flags.l4 and init is not None:
        y0 = init.stacked()
    else:
        y0 = np.zeros(3 * problem.grid.n)
    return _march(problem, lu_at, sources, y0)


def solve_bilinearized(factors: StepFactors, lin_h: LinearizedTrajectory,
                       lin_k: LinearizedTrajectory, h: Control,
                       k: Control) -> LinearizedTrajectory:
    """Second directional derivative of the control-to-state map.

    Marches the linearized operator (reaction on, zero initial data) with
    the sources produced by differentiating the step residual twice, mixing
    the first-order fields of the two directions.
    """
    problem, state, ubar = factors.problem, factors.state, factors.ubar
    sources = problem.stepper.second_order_source(
        state.mu, state.phi, state.sigma, ubar.u1,
        (lin_h.eta, lin_h.xi, lin_h.theta), (lin_k.eta, lin_k.xi, lin_k.theta),
        h.u1, k.u1)
    return _march(problem, factors.lu, np.concatenate(sources, axis=1),
                  np.zeros(3 * problem.grid.n))
