"""Discrete adjoint: exact transpose of the linearized time stepping.

The multiplier of the step-k residual is computed by marching backwards,
transposing each step operator in the trapezoid-weighted inner product and
transporting the next multiplier with the transposed coupling between
levels.  The stored snapshots are rescaled by the time quadrature weights so
that the reduced gradient reads pointwise as (-h(phi) p + b0 u1, r + b0 u2);
with this convention the duality identity between the linearized and adjoint
solves holds to round-off by construction.

Terminal data are kept in dedicated fields: p(T) = 0, r(T) = 0 and
q(T) = b2 (phi(T) - target) / beta, so (p + beta q)(T) matches the tracking
misfit exactly and vanishes when b2 = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sensitivity import StepFactors


@dataclass(eq=False)
class AdjointTrajectory:
    """Adjoint snapshots (p, q, r) plus exact terminal-time fields.

    p, q, r hold the step multipliers divided by the time quadrature weight
    of their level, on levels 1..N_t; level 0 is zero (no step residual
    pairs with it).  The raw step-k multiplier is wt_k (p_k, q_k, r_k).
    terminal_p/q/r carry the discrete terminal conditions at t = T.
    """

    p: np.ndarray
    q: np.ndarray
    r: np.ndarray
    terminal_p: np.ndarray
    terminal_q: np.ndarray
    terminal_r: np.ndarray


def solve_adjoint(factors: StepFactors) -> AdjointTrajectory:
    """Backward march of the transposed linearized system at `factors`.

    The sources are the tracking misfits of the factors' problem cost: b1
    w_k (phi_k - target_Q_k) on every level and additionally b2 (phi_N -
    target_Omega) at the final one.  Zero sources short-circuit to exactly
    zero multipliers.
    """
    problem, state = factors.problem, factors.state
    cost, stepper = problem.cost, problem.stepper
    n = problem.grid.n
    n_steps = problem.tgrid.steps
    wt = problem.tgrid.weights()

    p = np.zeros((n_steps + 1, n))
    q = np.zeros((n_steps + 1, n))
    r = np.zeros((n_steps + 1, n))

    misfit_T = state.phi[n_steps] - problem.target_omega()
    src_q = (cost.b1 * wt)[:, None] * (state.phi - problem.target_q())
    src_q[n_steps] = src_q[n_steps] + cost.b2 * misfit_T
    lam_next = np.zeros(3 * n)
    zeros = np.zeros(n)
    for k in range(n_steps, 0, -1):
        rhs = np.concatenate([zeros, src_q[k], zeros])
        rhs = rhs + stepper.transport_adjoint(lam_next)
        if np.any(rhs):
            lam = stepper.solve_adjoint_step(factors.lu(k), rhs)
        else:
            lam = np.zeros(3 * n)
        p[k], q[k], r[k] = stepper.split(lam / wt[k])
        lam_next = lam

    return AdjointTrajectory(
        p=p, q=q, r=r,
        terminal_p=np.zeros(n),
        terminal_q=cost.b2 * misfit_T / problem.params.beta,
        terminal_r=np.zeros(n))
