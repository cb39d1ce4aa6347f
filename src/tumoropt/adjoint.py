"""Discrete adjoint: exact transpose of the linearized time stepping.

The stacked multiplier (p, q, r) of the step-k residual is computed by
marching backwards, lam^k = A_k*^-1 (B^T lam^{k+1} + S^k), with A_k* the
step operator transposed in the trapezoid-weighted inner product, B the
step's `transport` and S the misfit sources, one (N_t+1, 3n) history.
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


def solve_adjoint(factors: StepFactors) -> AdjointTrajectory:
    """Backward march of the transposed linearized system at `factors`.

    The sources are the tracking misfits of the factors' problem cost: b1
    w_k (phi_k - target_Q_k) on every level and additionally b2 (phi_N -
    target_Omega) at the final one.  Zero sources short-circuit to exactly
    zero multipliers.
    """
    problem, state = factors.problem, factors.state
    cost, stepper = problem.cost, problem.stepper
    n_steps = problem.tgrid.steps
    wt = problem.tgrid.weights()

    misfit_T = state.phi[n_steps] - problem.target_omega()
    sources = np.zeros_like(state.x)
    src_q = stepper.split(sources)[1]
    src_q[:] = (cost.b1 * wt)[:, None] * (state.phi - problem.target_q())
    src_q[n_steps] += cost.b2 * misfit_T
    back = stepper.transport.T
    lam, raw = np.zeros_like(sources), np.zeros(sources.shape[1])
    # the march solves from the last level with a source down to level 1
    top = n_steps
    while top and not np.any(sources[top]):
        top -= 1
    with factors.ahead(range(top, 0, -1)):
        for k in range(n_steps, 0, -1):
            rhs = back @ raw + sources[k]
            raw = (stepper.solve_adjoint_step(factors.lu(k), rhs)
                   if np.any(rhs) else np.zeros_like(rhs))
            lam[k] = raw / wt[k]

    terminal = np.zeros_like(raw)
    stepper.split(terminal)[1][:] = cost.b2 * misfit_T / problem.params.beta
    return AdjointTrajectory(lam=lam, terminal=terminal)
