"""Linearized and bilinearized sensitivities along a state trajectory.

Both march the exact Jacobian of the implicit step from zero initial data.
The linearized system, the derivative of the control-to-state map, takes
the sources of one control direction; the bilinearized system (the second
derivative) takes the second-order sources of the step residual, which mix
the first-order fields of two directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .model import Control
from .problem import ControlProblem
from .state import StateTrajectory

# Bytes of step factors one StepFactors keeps, counted as 12 bytes (a float64
# value and an int32 index) per nonzero of L + U.  The 30 steps of a 33x33
# rectangle take about 78 MB; all 200 steps of a 129-node line about 8 MB.
_CACHE_BYTES = 128 * 2**20


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
    its single assembly pass per step.  Each factor is kept while the bytes
    of all kept factors stay within `_CACHE_BYTES`; a factor past the budget
    is formed again on each request.
    """

    def __init__(self, problem: ControlProblem, state: StateTrajectory,
                 ubar: Control):
        self.problem = problem
        self.state = state
        self.ubar = ubar
        self._lus: dict[int, object] = {}
        self._cached_bytes = 0

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
        # SuperLU's own count: `fac.L` and `fac.U` would build CSC copies
        size = 12 * fac.nnz
        if self._cached_bytes + size <= _CACHE_BYTES:
            self._lus[k] = fac
            self._cached_bytes += size
        return fac


def _march(factors: StepFactors, sources: np.ndarray) -> LinearizedTrajectory:
    """Run the linear recursion A_k y^k = B y^{k-1} + S^k from y^0 = 0.

    A_k is the step Jacobian of `factors` at level k.  `sources` holds the
    stacked S^k as one (N_t+1, 3n) array, level 0 unused.
    """
    stepper = factors.problem.stepper
    n = stepper.n
    n_levels = factors.problem.n_levels
    eta = np.zeros((n_levels, n))
    xi = np.zeros((n_levels, n))
    theta = np.zeros((n_levels, n))
    y = np.zeros(3 * n)
    for k in range(1, n_levels):
        rhs = stepper.transport(y) + sources[k]
        if np.any(rhs):
            y = factors.lu(k).solve(rhs)
        else:
            y = np.zeros(3 * n)
        eta[k], xi[k], theta[k] = stepper.split(y)
    return LinearizedTrajectory(eta=eta, xi=xi, theta=theta)


def solve_generalized_linear(factors: StepFactors,
                             h: Control) -> LinearizedTrajectory:
    """Derivative of the control-to-state map at `factors` in direction `h`.

    The direction enters as the source (-h(phi) h1, 0, h2) on every level,
    built once as whole histories before the march.
    """
    hv = factors.problem.nonlin.eval("h", factors.state.phi)
    sources = np.concatenate([-hv * h.u1, np.zeros_like(hv), h.u2], axis=1)
    return _march(factors, sources)


def solve_bilinearized(factors: StepFactors, lin_h: LinearizedTrajectory,
                       lin_k: LinearizedTrajectory, h: Control,
                       k: Control) -> LinearizedTrajectory:
    """Second directional derivative of the control-to-state map.

    Marches the linearized operator from zero initial data with the sources
    produced by differentiating the step residual twice, mixing the
    first-order fields of the two directions.
    """
    problem, state, ubar = factors.problem, factors.state, factors.ubar
    sources = problem.stepper.second_order_source(
        state.mu, state.phi, state.sigma, ubar.u1,
        (lin_h.eta, lin_h.xi, lin_h.theta), (lin_k.eta, lin_k.xi, lin_k.theta),
        h.u1, k.u1)
    return _march(factors, np.concatenate(sources, axis=1))
