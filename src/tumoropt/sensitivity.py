"""Linearized and bilinearized sensitivities along a state trajectory.

The generalized linear system marches the exact Jacobian of the implicit
step, with four switches: lam1 scales the reaction/coupling entries, lam2
the control-direction sources, lam3 arbitrary sources, lam4 the initial
data.  With (1, 1, 0, 0) it is the derivative of the control-to-state map;
with (1, 0, 1, 0) and second-order sources it yields the bilinearized
(second derivative) fields.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def snapshot(self, k: int) -> np.ndarray:
        return np.concatenate([self.eta[k], self.xi[k], self.theta[k]])


class StepFactors:
    """LU factorizations of the linearized step operators along a trajectory.

    The same factors serve the linearized and bilinearized marches (direct
    solves) and the adjoint march (transpose solves), so a single assembly
    pass per step covers every first- and second-order quantity.  Factors are
    cached when the stacked dimension is small, otherwise rebuilt on demand.
    """

    def __init__(self, problem: ControlProblem, state: StateTrajectory,
                 ubar: Control, lam1: int = 1):
        self.stepper = problem.stepper
        self.state = state
        self.ubar = ubar
        self.lam1 = lam1
        self.n_steps = problem.tgrid.steps
        self._cache_all = 3 * problem.grid.n <= _CACHE_MAX_DOF
        self._lus: dict[int, object] = {}
        self._constant_lu = None
        if lam1 == 0:
            # reaction switched off: every step shares one operator
            self._constant_lu = self.stepper.factorize(
                state.mu[1], state.phi[1], state.sigma[1], ubar.u1[1], lam1=0.0)

    def lu(self, k: int):
        if self._constant_lu is not None:
            return self._constant_lu
        hit = self._lus.get(k)
        if hit is not None:
            return hit
        try:
            fac = self.stepper.factorize(self.state.mu[k], self.state.phi[k],
                                         self.state.sigma[k], self.ubar.u1[k],
                                         lam1=float(self.lam1))
        except SolverError as exc:
            raise SolverError(f"step {k}: {exc}") from None
        if self._cache_all:
            self._lus[k] = fac
        return fac


def _march(factors: StepFactors, sources, y0: np.ndarray) -> LinearizedTrajectory:
    """Run the linear recursion A_k y^k = B y^{k-1} + S^k from y^0 = y0."""
    stepper = factors.stepper
    n = stepper.n
    n_levels = factors.n_steps + 1
    eta = np.zeros((n_levels, n))
    xi = np.zeros((n_levels, n))
    theta = np.zeros((n_levels, n))
    y = y0
    eta[0], xi[0], theta[0] = stepper.split(y0)
    for k in range(1, n_levels):
        rhs = stepper.transport(y)
        src = sources(k)
        if src is not None:
            rhs = rhs + src
        if np.any(rhs):
            y = factors.lu(k).solve(rhs)
        else:
            y = np.zeros(3 * n)
        eta[k], xi[k], theta[k] = stepper.split(y)
    return LinearizedTrajectory(eta=eta, xi=xi, theta=theta)


def solve_generalized_linear(problem: ControlProblem, state: StateTrajectory,
                             ubar: Control, flags: LambdaFlags,
                             h: Control | None = None,
                             f: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
                             init: InitialData | None = None,
                             factors: StepFactors | None = None) -> LinearizedTrajectory:
    """Solve the switched linear system along `state`.

    Parameters
    ----------
    h : Control, optional
        Control direction; enters step k as (-h(phi_k) h1_k, 0, h2_k),
        scaled by flags.l2.
    f : triple of (N_t+1, n) arrays, optional
        General sources per equation, scaled by flags.l3; level 0 unused.
    init : InitialData, optional
        Initial snapshot, scaled by flags.l4.
    factors : StepFactors, optional
        Reused factorizations; must match (state, ubar, flags.l1).
    """
    if factors is None:
        factors = StepFactors(problem, state, ubar, lam1=flags.l1)
    elif factors.lam1 != flags.l1:
        raise ValueError("supplied factors were built for a different l1 flag")
    n = problem.grid.n

    hshape = problem.nonlin

    def sources(k: int):
        parts = None
        if flags.l2 and h is not None:
            hv = hshape.eval("h", state.phi[k])
            parts = np.concatenate([-hv * h.u1[k], np.zeros(n), h.u2[k]])
        if flags.l3 and f is not None:
            extra = np.concatenate([f[0][k], f[1][k], f[2][k]])
            parts = extra if parts is None else parts + extra
        return parts

    if flags.l4 and init is not None:
        y0 = init.stacked()
    else:
        y0 = np.zeros(3 * n)
    return _march(factors, sources, y0)


def solve_bilinearized(problem: ControlProblem, state: StateTrajectory,
                       ubar: Control, lin_h: LinearizedTrajectory,
                       lin_k: LinearizedTrajectory, h: Control, k: Control,
                       factors: StepFactors | None = None) -> LinearizedTrajectory:
    """Second directional derivative of the control-to-state map.

    Marches the linearized operator (reaction on, zero initial data) with
    the sources produced by differentiating the step residual twice, mixing
    the first-order fields of the two directions.
    """
    if factors is None:
        factors = StepFactors(problem, state, ubar, lam1=1)
    elif factors.lam1 != 1:
        raise ValueError("bilinearized march needs factors with l1 = 1")
    stepper = factors.stepper

    def sources(j: int):
        return stepper.second_order_source(
            state.mu[j], state.phi[j], state.sigma[j], ubar.u1[j],
            lin_h.snapshot(j), lin_k.snapshot(j), h.u1[j], k.u1[j])

    return _march(factors, sources, np.zeros(3 * problem.grid.n))
