"""Workloads of the tumoropt benchmark.

Every workload is a list of CLI subcommands run on the shipped
`configs/canonical_1d.yaml` with `--set` overrides, so the benchmark adds no
config to the repository.  Why each workload exists is recorded next to it
and in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass

CONFIG = "configs/canonical_1d.yaml"

# Relative tolerance on the optimized cost against the value recorded at the
# commit that introduced the benchmark.  PGD stops at stationarity <= 1e-6,
# where the cost is flat to second order, so round-off-level changes to the
# solvers move it by far less; a wrong solve moves it by far more.
COST_RTOL = 1e-6

# simulate's diagnostics.csv must keep the discrete mass identity this well
MASS_RESIDUAL_MAX = 1e-10


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[str, ...]
    sets: tuple[str, ...]
    # optimize cost recorded at the commit that introduced the benchmark;
    # None where the workload does not optimize (or in the self-test)
    reference_cost: float | None
    why: str


WORKLOADS = {w.name: w for w in (
    Workload(
        name="desk-1d",
        commands=("simulate", "optimize", "analyze"),
        sets=(),
        reference_cost=0.006406416335961835,
        why="the shipped 129x200 run; bound by Jacobian assembly, and every "
            "step LU fits the StepFactors cache"),
    Workload(
        name="rect-2d",
        commands=("simulate", "optimize", "analyze"),
        sets=("grid.dim=2", "grid.shape=[33,33]", "grid.lengths=[1.0,1.0]",
              "time.steps=30", "ssc.n_samples=4",
              # above every gradient entry: no point is strongly active, so
              # each curvature sample marches (and refactors) every step
              "ssc.tau=1.0"),
        reference_cost=0.006540678917769745,
        why="the paper's rectangle, 33x33x30; bound by sparse LU and past the "
            "StepFactors size limit, so every curvature sample refactors"),
    Workload(
        name="verify-coarse",
        commands=("verify",),
        sets=("grid.shape=[17]", "time.steps=25"),
        reference_cost=None,
        why="the full verification battery at 17 nodes x 25 steps; many small "
            "solves, so per-call overhead dominates"),
    Workload(
        name="track-1d",
        commands=("optimize",),
        sets=("grid.shape=[65]", "time.steps=100", "cost.b0=0.01"),
        reference_cost=0.0027666321273955726,
        why="a weak control cost makes PGD take 9 iterations, so the adjoint "
            "march and the gradient carry the run"),
)}
