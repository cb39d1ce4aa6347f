"""Bundled optimal control problem and space-time quadrature helpers.

The control inner product is the trapezoid rule in time composed with the
trapezoid rule in space; every gradient, stationarity measure and quadratic
form in the package is taken with respect to this product.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .grid import Grid
from .model import (Control, CostSpec, ModelParams, NonlinearitySpec,
                    PotentialSpec, zero_control)
from .state import InitialData, StateTrajectory, TimeGrid, solve_state
from .stepper import Stepper


def st_inner(grid: Grid, tgrid: TimeGrid, a: np.ndarray, b: np.ndarray) -> float:
    """L2(Q) inner product of space-time fields shaped (N_t+1, n)."""
    return st_integral(grid, tgrid, a * b)


def st_integral(grid: Grid, tgrid: TimeGrid, f: np.ndarray) -> float:
    """Space-time quadrature of a field shaped (N_t+1, n)."""
    return float(np.einsum("k,ki,i->", tgrid.weights(), f, grid.weights))


def control_inner(grid: Grid, tgrid: TimeGrid, u: Control, v: Control) -> float:
    return (st_inner(grid, tgrid, u.u1, v.u1)
            + st_inner(grid, tgrid, u.u2, v.u2))


def control_norm(grid: Grid, tgrid: TimeGrid, u: Control) -> float:
    return float(np.sqrt(max(control_inner(grid, tgrid, u, u), 0.0)))


@dataclass(frozen=True, eq=False)
class ControlProblem:
    """Everything needed to evaluate the reduced cost and its derivatives;
    frozen, so `stepper` is built once (derive variants with `replace`)."""

    grid: Grid
    tgrid: TimeGrid
    params: ModelParams
    potential: PotentialSpec
    nonlin: NonlinearitySpec
    cost: CostSpec
    init: InitialData

    def __post_init__(self):
        n = self.grid.n
        n_levels = self.tgrid.steps + 1
        if self.init.phi0.shape != (n,):
            raise ValueError(f"initial fields must have shape ({n},)")
        if self.cost.target_Q is not None and self.cost.target_Q.shape != (n_levels, n):
            raise ValueError(
                f"target_Q must have shape ({n_levels}, {n}), "
                f"got {self.cost.target_Q.shape}")
        if self.cost.target_Omega is not None and self.cost.target_Omega.shape != (n,):
            raise ValueError(f"target_Omega must have shape ({n},)")

    @functools.cached_property
    def stepper(self) -> Stepper:
        """The backward Euler step operator every solve of this problem uses."""
        return Stepper(self.grid, self.params, self.potential, self.nonlin,
                       self.tgrid.dt)

    @property
    def n_levels(self) -> int:
        return self.tgrid.steps + 1

    def zero_control(self) -> Control:
        return zero_control(self.n_levels, self.grid.n)

    def target_q(self) -> np.ndarray:
        if self.cost.target_Q is None:
            return np.zeros((self.n_levels, self.grid.n))
        return self.cost.target_Q

    def target_omega(self) -> np.ndarray:
        if self.cost.target_Omega is None:
            return np.zeros(self.grid.n)
        return self.cost.target_Omega

    def solve(self, u: Control) -> StateTrajectory:
        return solve_state(self, u)
