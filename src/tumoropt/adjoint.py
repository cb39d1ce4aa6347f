"""Discrete adjoint: exact transpose of the linearized time stepping.

The stacked multiplier (p, q, r) of the step-k residual is computed by
marching backwards, lam^k = A_k*^-1 (B^T lam^{k+1} + S^k), with A_k* the
step operator transposed in the trapezoid-weighted inner product, B the
step's `transport` and S a given source history (`solve_adjoint`): the
tracking misfits for the gradient (`misfit_adjoint`), the derivative of the
Hessian pairing for a Hessian-vector product.
The stored snapshots are rescaled by the time quadrature weights so
that the reduced gradient reads pointwise as (-h(phi) p + b0 u1, r + b0 u2);
with this convention the duality identity between the linearized and adjoint
solves holds to round-off by construction.

Terminal data are kept in a dedicated stacked level: p(T) = 0, r(T) = 0
and q(T) = b2 (phi(T) - target) / beta, so (p + beta q)(T) matches the
tracking misfit exactly and vanishes when b2 = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sensitivity import StepFactors
from .stepper import Stepper


@dataclass(eq=False)
class AdjointTrajectory:
    """Adjoint snapshots plus the exact terminal-time level.

    Row k of `lam` is the stacked step-k multiplier (p, q, r) divided by the
    time quadrature weight of its level, on levels 1..N_t; level 0 is zero
    (no step residual pairs with it).  The raw step-k multiplier is
    wt_k lam[k].  `terminal` holds the discrete terminal conditions at T.
    """

    lam: np.ndarray         # (N_t+1, 3n)
    terminal: np.ndarray    # (3n,)

    p = property(lambda self: Stepper.split(self.lam)[0])
    q = property(lambda self: Stepper.split(self.lam)[1])
    r = property(lambda self: Stepper.split(self.lam)[2])


def solve_adjoint(factors: StepFactors, sources: np.ndarray) -> np.ndarray:
    """Run A_k* lam^k = B^T lam^{k+1} + S^k from lam^{N_t+1} = 0 for a block
    of source histories.

    The mirror of `sensitivity._march`: `sources` stacks the histories of
    S^k of m right-hand sides, (m, N_t+1, 3n) with level 0 unused, each
    S^k paired with the step-k state in the grid-weighted inner product.
    The result has the same shape and holds each multiplier divided by the
    time weight of its level (level 0 is zero).  Each level takes one
    transpose solve of a (3n, m) block; the march starts at the last level
    where a source of the block is nonzero, and a level whose right-hand
    sides are all zero is zero without a solve, so zero sources
    short-circuit to exactly zero multipliers.  A zero right-hand side in
    a block with nonzero ones is solved as a zero column, which may leave
    -0.0.
    """
    stepper = factors.problem.stepper
    wt = factors.problem.tgrid.weights()
    back = stepper.transport.T
    lam = np.zeros_like(sources)
    live = np.flatnonzero(np.any(sources[:, 1:], axis=(0, 2)))
    if live.size:
        levels = range(live[-1] + 1, 0, -1)
        raw = np.zeros((sources.shape[2], sources.shape[0]))
        with factors.ahead(levels):
            for k in levels:
                rhs = back @ raw + sources[:, k].T
                raw = (stepper.solve_adjoint_step(factors.lu(k), rhs)
                       if np.any(rhs) else np.zeros_like(rhs))
                lam[:, k] = raw.T / wt[k]
    return lam


def misfit_adjoint(factors: StepFactors) -> AdjointTrajectory:
    """The adjoint of the tracking cost at `factors`, whose reduced gradient
    it gives.

    The sources are the tracking misfits of the factors' problem cost: b1
    w_k (phi_k - target_Q_k) on every level and additionally b2 (phi_N -
    target_Omega) at the final one.
    """
    problem, state = factors.problem, factors.state
    cost = problem.cost
    n_steps = problem.tgrid.steps
    wt = problem.tgrid.weights()

    misfit_T = state.phi[n_steps] - problem.target_omega()
    sources = np.zeros((1,) + state.x.shape)
    src_q = Stepper.split(sources[0])[1]
    src_q[:] = (cost.b1 * wt)[:, None] * (state.phi - problem.target_q())
    src_q[n_steps] += cost.b2 * misfit_T

    terminal = np.zeros(state.x.shape[1])
    Stepper.split(terminal)[1][:] = cost.b2 * misfit_T / problem.params.beta
    return AdjointTrajectory(lam=solve_adjoint(factors, sources)[0],
                             terminal=terminal)
