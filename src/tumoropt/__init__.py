"""Optimal control of a viscous Cahn-Hilliard tumor-growth model.

Finite-difference state solver, linearized/bilinearized sensitivities,
transpose-exact adjoint and gradient, projected gradient and Newton-CG
descent under box constraints, and second-order analysis on the critical
cone, with a verification harness covering each identity.
"""

from .adjoint import AdjointTrajectory, misfit_adjoint, solve_adjoint
from .config import RunConfig, RunSetup, build_setup, compile_expression
from .errors import ConfigError, SeparationViolation, SolverError
from .grid import Grid, build_grid, inner
from .model import (BoxConstraints, Control, CostSpec, ModelParams,
                    NonlinearitySpec, PotentialSpec, ScalarShape,
                    project_admissible, prox_f1, yosida_eval, zero_control)
from .optimize import (ActiveSets, GradientField, PgdOptions, PgdResult,
                       SecondOrderContext, SscReport, cost_eval,
                       default_tau, projected_gradient, reduced_gradient,
                       ssc_certificate, stationarity_measure,
                       strongly_active_sets)
from .problem import ControlProblem, control_inner, control_norm, st_inner
from .sensitivity import (LinearizedTrajectory, StepFactors,
                          solve_bilinearized, solve_generalized_linear)
from .state import (InitialData, StateTrajectory, TimeGrid, solve_state,
                    solve_states)
from .stepper import Stepper
from .verify import (SlopeReport, StabilityReport, adjoint_continuous_residual,
                     check_duality, check_gradient_fd, check_hessian_duality,
                     check_stability_ratios, check_taylor_orders, fit_slope,
                     refine_control, refine_problem, run_verification)

__version__ = "0.1.0"
