"""Linearized and bilinearized sensitivities along a state trajectory.

Both march the exact Jacobian of the implicit step from zero initial data,
y^k = A_k^-1 (B y^{k-1} + S^k) with B the step's `transport`, on stacked
(N_t+1, 3n) histories.  The linearized system, the derivative of the
control-to-state map, takes the sources of one control direction; the
bilinearized system (the second derivative) takes the second-order sources
of the step residual, which mix the first-order fields of two directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .model import Control
from .problem import ControlProblem
from .state import StateTrajectory
from .stepper import Stepper

# Bytes of step factors one StepFactors keeps, counted as 12 bytes per stored
# entry (`nnz`) of a factor: a float64 value and an int32 index of SuperLU's
# L + U in 2-D, or a float64 band entry in 1-D, which it over-counts.  The
# 30 steps of a 33x33 rectangle take about 78 MB; all 200 steps of a 129-node
# line about 11 MB.
_CACHE_BYTES = 128 * 2**20


@dataclass(eq=False)
class LinearizedTrajectory:
    """Directional state sensitivities (eta, xi, theta), stacked per level."""

    y: np.ndarray   # (N_t+1, 3n)

    eta = property(lambda self: Stepper.split(self.y)[0])
    xi = property(lambda self: Stepper.split(self.y)[1])
    theta = property(lambda self: Stepper.split(self.y)[2])


class StepFactors:
    """LU factorizations of the linearized step operators along a trajectory.

    One instance is the linearization point (problem, state S(ubar), ubar) of
    every first- and second-order solve: the linearized and bilinearized
    marches (direct solves) and the adjoint march (transpose solves) share
    its single assembly pass per step.  Each factor is kept while the bytes
    of all kept factors stay within `cache_bytes` (`_CACHE_BYTES` when
    None); a factor past the budget is formed again on each request.  A
    single march that uses each factor once (the adjoint of a gradient)
    passes `cache_bytes=0` and keeps none.
    """

    def __init__(self, problem: ControlProblem, state: StateTrajectory,
                 ubar: Control, cache_bytes: int | None = None):
        self.problem = problem
        self.state = state
        self.ubar = ubar
        self._lus: dict[int, object] = {}
        self._cached_bytes = 0
        self._cache_bytes = (_CACHE_BYTES if cache_bytes is None
                             else cache_bytes)

    def lu(self, k: int):
        hit = self._lus.get(k)
        if hit is not None:
            return hit
        try:
            fac = self.problem.stepper.factorize(self.state.x[k],
                                                 self.ubar.u1[k])
        except SolverError as exc:
            raise SolverError(f"step {k}: {exc}") from None
        size = 12 * fac.nnz
        if self._cached_bytes + size <= self._cache_bytes:
            self._lus[k] = fac
            self._cached_bytes += size
        return fac


def _march(factors: StepFactors, sources: np.ndarray) -> LinearizedTrajectory:
    """Run the linear recursion A_k y^k = B y^{k-1} + S^k from y^0 = 0.

    A_k is the step Jacobian of `factors` at level k and B the step's
    `transport`.  `sources` is the stacked history of S^k, level 0 unused.
    """
    transport = factors.problem.stepper.transport
    y = np.zeros_like(sources)
    for k in range(1, len(y)):
        rhs = transport @ y[k - 1] + sources[k]
        if np.any(rhs):
            y[k] = factors.lu(k).solve(rhs)
    return LinearizedTrajectory(y)


def solve_generalized_linear(factors: StepFactors,
                             h: Control) -> LinearizedTrajectory:
    """Derivative of the control-to-state map at `factors` in direction `h`.

    The direction enters as the source (-h(phi) h1, 0, h2) on every level,
    built once as a whole history before the march.
    """
    sources = np.zeros_like(factors.state.x)
    s1, _, s3 = Stepper.split(sources)
    s1[:] = -factors.problem.nonlin.eval("h", factors.state.phi) * h.u1
    s3[:] = h.u2
    return _march(factors, sources)


def solve_bilinearized(factors: StepFactors, lin_h: LinearizedTrajectory,
                       lin_k: LinearizedTrajectory, h: Control,
                       k: Control) -> LinearizedTrajectory:
    """Second directional derivative of the control-to-state map.

    Marches the linearized operator from zero initial data with the sources
    produced by differentiating the step residual twice, mixing the
    first-order fields of the two directions.
    """
    return _march(factors, factors.problem.stepper.second_order_source(
        factors.state.x, factors.ubar.u1, lin_h.y, lin_k.y, h.u1, k.u1))
