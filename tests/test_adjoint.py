"""Backward multiplier march and its duality with the linearized solve."""

import dataclasses
import os
import pathlib

import numpy as np
import pytest

from tumoropt import (Control, CostSpec, SecondOrderContext, StepFactors,
                      reduced_gradient, solve_adjoint)
from tumoropt.stepper import Stepper
from tumoropt.verify import check_duality

from _support import make_problem, random_control, smooth_control


def test_terminal_fields_without_final_tracking():
    pr = make_problem(b1=2.0, b2=0.0)
    u = smooth_control(pr)
    adj = solve_adjoint(StepFactors(pr, pr.solve(u), u))
    assert adj.terminal.shape == (3 * pr.grid.n,)
    assert np.all(adj.terminal == 0.0)
    assert np.abs(adj.q[1:]).max() > 0.0
    # level 0 pairs with no step residual
    assert np.all(adj.p[0] == 0.0) and np.all(adj.q[0] == 0.0)


def test_terminal_condition_with_final_tracking():
    pr = make_problem(b1=0.0, b2=1.5)
    u = smooth_control(pr)
    state = pr.solve(u)
    adj = solve_adjoint(StepFactors(pr, state, u))
    misfit = state.phi[-1] - pr.target_omega()
    expected = 1.5 * misfit / pr.params.beta
    terminal_p, terminal_q, terminal_r = Stepper.split(adj.terminal)
    assert np.abs(terminal_q - expected).max() == 0.0
    assert np.all(terminal_p == 0.0)
    assert np.all(terminal_r == 0.0)


def test_zero_cost_gives_bitwise_zero_multipliers():
    pr = make_problem()
    u = smooth_control(pr)
    state = pr.solve(u)
    free = dataclasses.replace(pr, cost=CostSpec(b0=1.0, b1=0.0, b2=0.0))
    adj = solve_adjoint(StepFactors(free, state, u))
    assert np.all(adj.p == 0.0)
    assert np.all(adj.q == 0.0)
    assert np.all(adj.r == 0.0)
    assert np.all(adj.terminal == 0.0)


def test_adjoint_is_linear_in_tracking_weights():
    pr = make_problem(b1=0.7, b2=0.3)
    u = smooth_control(pr)
    state = pr.solve(u)
    base = solve_adjoint(StepFactors(pr, state, u))
    doubled_pr = dataclasses.replace(
        pr, cost=dataclasses.replace(pr.cost, b1=1.4, b2=0.6))
    doubled = solve_adjoint(StepFactors(doubled_pr, state, u))
    for name in ("p", "q", "r"):
        a, b = getattr(base, name), getattr(doubled, name)
        assert np.abs(b - 2.0 * a).max() < 1e-14 * max(np.abs(a).max(), 1.0)


def test_none_target_means_zero_target():
    pr = make_problem(tracking=False)
    assert pr.cost.target_Q is None
    u = smooth_control(pr)
    state = pr.solve(u)
    implicit = solve_adjoint(StepFactors(pr, state, u))
    zeros_pr = dataclasses.replace(pr, cost=CostSpec(
        b0=pr.cost.b0, b1=pr.cost.b1, b2=pr.cost.b2,
        target_Q=np.zeros((pr.n_levels, pr.grid.n))))
    explicit = solve_adjoint(StepFactors(zeros_pr, state, u))
    assert np.array_equal(implicit.q, explicit.q)
    assert np.array_equal(implicit.p, explicit.p)


@pytest.mark.parametrize("potential,b1,b2", [
    ("regular", 2.0, 0.0),
    ("regular", 1.0, 0.5),
    ("logarithmic", 2.0, 0.0),
])
def test_duality_identity(potential, b1, b2):
    pr = make_problem(potential=potential, b1=b1, b2=b2)
    u = smooth_control(pr)
    assert check_duality(SecondOrderContext(pr, u),
                         h=random_control(pr, seed=11)) <= 1e-10


def test_duality_linear_in_direction(rng):
    # both pairings scale linearly with the direction, so the relative
    # residual is invariant under scaling h
    pr = make_problem()
    u = smooth_control(pr)
    h = random_control(pr, seed=2)
    big = Control(10.0 * h.u1, 10.0 * h.u2)
    ctx = SecondOrderContext(pr, u)
    r1 = check_duality(ctx, h=h)
    r2 = check_duality(ctx, h=big)
    assert r1 <= 1e-10 and r2 <= 1e-10



def _rss_bytes() -> int:
    """Resident set size of this process now."""
    pages = int(pathlib.Path("/proc/self/statm").read_text().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="needs /proc/self/statm")
def test_2d_gradients_release_their_factors():
    # a 2-D factor formed on a worker thread and freed on another one stays
    # resident: ten gradients would keep their 100 factors, about 60 MiB
    # here (12 bytes per stored entry), where freed on their own threads
    # they keep none
    pr = make_problem(nodes=17, ny=17, steps=10)
    u = smooth_control(pr)
    state = pr.solve(u)
    nnz = StepFactors(pr, state, u).lu(1).nnz
    reduced_gradient(u, pr, state=state)
    before = _rss_bytes()
    for _ in range(10):
        reduced_gradient(u, pr, state=state)
    assert _rss_bytes() - before < 0.25 * 10 * pr.tgrid.steps * 12 * nnz
