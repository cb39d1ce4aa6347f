"""Linearized and bilinearized sensitivities along a state trajectory.

Both march the exact Jacobian of the implicit step from zero initial data,
y^k = A_k^-1 (B y^{k-1} + S^k) with B the step's `transport`, on stacked
(N_t+1, 3n) histories.  The linearized system, the derivative of the
control-to-state map, takes the sources of control directions, a block of
them in one march; the bilinearized system (the second derivative) takes
the second-order sources of the step residual, which mix the first-order
fields of two directions.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .model import Control
from .problem import ControlProblem
from .state import StateTrajectory
from .stepper import SecondOrderCoefficients, Stepper

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

    @functools.cached_property
    def h_phi(self) -> np.ndarray:
        """h(phi) on every level: the factor of u1 in the linearized source."""
        return self.problem.nonlin.eval("h", self.state.phi)

    @functools.cached_property
    def coefficients(self) -> SecondOrderCoefficients:
        """`Stepper.second_order_coefficients` on levels 1..N_t, shared by
        every bilinearized march and Hessian form at this point."""
        return self.problem.stepper.second_order_coefficients(
            self.state.x[1:], self.ubar.u1[1:])


def _march(factors: StepFactors, sources: np.ndarray) -> np.ndarray:
    """Run A_k y^k = B y^{k-1} + S^k from y^0 = 0 for a block of directions.

    A_k is the step Jacobian of `factors` at level k and B the step's
    `transport`.  `sources` stacks the histories of S^k of m directions,
    (m, N_t+1, 3n) with level 0 unused, and so does the result.  Each level
    takes one solve of a (3n, m) block; the march starts at the first level
    where a source of the block is nonzero, and the levels before it stay
    exactly zero and request no factor.  A direction whose own sources start
    later is solved as a zero column until then, which may leave -0.0.
    """
    transport = factors.problem.stepper.transport
    y = np.zeros_like(sources)
    live = np.flatnonzero(np.any(sources[:, 1:], axis=(0, 2)))
    if live.size:
        for k in range(live[0] + 1, y.shape[1]):
            rhs = transport @ y[:, k - 1].T + sources[:, k].T
            y[:, k] = factors.lu(k).solve(rhs).T
    return y


def solve_generalized_linear(
        factors: StepFactors, h: Control | Sequence[Control]
) -> LinearizedTrajectory | list[LinearizedTrajectory]:
    """Derivative of the control-to-state map at `factors` in direction `h`.

    `h` is one Control, which gives one trajectory, or a sequence of them,
    which are marched as one block and give a list of trajectories in the
    same order.  Each direction enters as the source (-h(phi) h1, 0, h2) on
    every level, built once as a whole history before the march.
    """
    single = isinstance(h, Control)
    dirs = [h] if single else list(h)
    sources = np.zeros((len(dirs),) + factors.state.x.shape)
    s1, _, s3 = Stepper.split(sources)
    s1[:] = -factors.h_phi * np.stack([d.u1 for d in dirs])
    s3[:] = np.stack([d.u2 for d in dirs])
    lins = [LinearizedTrajectory(y) for y in _march(factors, sources)]
    return lins[0] if single else lins


def solve_bilinearized(factors: StepFactors, lin_h: LinearizedTrajectory,
                       lin_k: LinearizedTrajectory, h: Control,
                       k: Control) -> LinearizedTrajectory:
    """Second directional derivative of the control-to-state map.

    Marches the linearized operator from zero initial data with the sources
    produced by differentiating the step residual twice, mixing the
    first-order fields of the two directions.
    """
    sources = np.zeros((1,) + lin_h.y.shape)
    sources[0, 1:] = factors.problem.stepper.second_order_source(
        factors.coefficients, lin_h.y[1:], lin_k.y[1:], h.u1[1:], k.u1[1:])
    return LinearizedTrajectory(_march(factors, sources)[0])
