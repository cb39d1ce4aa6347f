"""Backward multiplier march and its duality with the linearized solve."""

import dataclasses
import os
import pathlib

import numpy as np
import pytest

from tumoropt import (Control, CostSpec, SecondOrderContext, StepFactors,
                      misfit_adjoint, reduced_gradient, solve_adjoint)
from tumoropt.stepper import Stepper
from tumoropt.verify import check_duality

from _support import (make_problem, misfit_adjoint_per_level,
                      random_control, smooth_control)


def test_terminal_fields_without_final_tracking():
    pr = make_problem(b1=2.0, b2=0.0)
    u = smooth_control(pr)
    adj = misfit_adjoint(StepFactors(pr, pr.solve(u), u))
    assert adj.terminal.shape == (3 * pr.grid.n,)
    assert np.all(adj.terminal == 0.0)
    assert np.abs(adj.q[1:]).max() > 0.0
    # level 0 pairs with no step residual
    assert np.all(adj.p[0] == 0.0) and np.all(adj.q[0] == 0.0)


def test_terminal_condition_with_final_tracking():
    pr = make_problem(b1=0.0, b2=1.5)
    u = smooth_control(pr)
    state = pr.solve(u)
    adj = misfit_adjoint(StepFactors(pr, state, u))
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
    adj = misfit_adjoint(StepFactors(free, state, u))
    assert np.all(adj.p == 0.0)
    assert np.all(adj.q == 0.0)
    assert np.all(adj.r == 0.0)
    assert np.all(adj.terminal == 0.0)


def test_adjoint_is_linear_in_tracking_weights():
    pr = make_problem(b1=0.7, b2=0.3)
    u = smooth_control(pr)
    state = pr.solve(u)
    base = misfit_adjoint(StepFactors(pr, state, u))
    doubled_pr = dataclasses.replace(
        pr, cost=dataclasses.replace(pr.cost, b1=1.4, b2=0.6))
    doubled = misfit_adjoint(StepFactors(doubled_pr, state, u))
    for name in ("p", "q", "r"):
        a, b = getattr(base, name), getattr(doubled, name)
        assert np.abs(b - 2.0 * a).max() < 1e-14 * max(np.abs(a).max(), 1.0)


def test_none_target_means_zero_target():
    pr = make_problem(tracking=False)
    assert pr.cost.target_Q is None
    u = smooth_control(pr)
    state = pr.solve(u)
    implicit = misfit_adjoint(StepFactors(pr, state, u))
    zeros_pr = dataclasses.replace(pr, cost=CostSpec(
        b0=pr.cost.b0, b1=pr.cost.b1, b2=pr.cost.b2,
        target_Q=np.zeros((pr.n_levels, pr.grid.n))))
    explicit = misfit_adjoint(StepFactors(zeros_pr, state, u))
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
    big = Control(10.0 * h.v)
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


@pytest.mark.parametrize("case", [
    dict(), dict(b2=0.5, potential="logarithmic"), dict(b1=0.0, b2=1.0),
    dict(ny=5, nodes=7, b2=0.5)])
def test_misfit_adjoint_is_bitwise_the_per_level_march(case):
    pr = make_problem(**case)
    u = smooth_control(pr)
    state = pr.solve(u)
    ref = misfit_adjoint_per_level(StepFactors(pr, state, u))
    assert misfit_adjoint(StepFactors(pr, state, u)).lam.tobytes() == \
        ref.tobytes()
    # and so is the gradient built from it
    grad = reduced_gradient(u, pr, state=state)
    factors = StepFactors(pr, state, u)
    want_u1 = 0.0 - factors.h_phi * Stepper.split(ref)[0]
    assert grad.d.u1.tobytes() == want_u1.tobytes()
    assert grad.d.u2.tobytes() == Stepper.split(ref)[2].tobytes()


@pytest.mark.parametrize("ny", [None, 5])
def test_backward_march_of_a_block_is_bitwise_each_source(ny):
    pr = make_problem(nodes=9, steps=6, ny=ny)
    u = smooth_control(pr)
    factors = StepFactors(pr, pr.solve(u), u)
    rng = np.random.default_rng(4)
    sources = rng.standard_normal((3,) + factors.state.x.shape)
    # the last source starts below the top level, the middle one is zero
    sources[2, 4:] = 0.0
    sources[1] = 0.0
    block = solve_adjoint(factors, sources)
    alone = [solve_adjoint(factors, src[None])[0] for src in sources]
    assert block[0].tobytes() == alone[0].tobytes()
    # a right-hand side solved as a zero column may leave -0.0
    for got, ref in zip(block, alone):
        assert np.array_equal(got, ref)
    assert np.all(block[:, 0] == 0.0)
    assert np.all(block[1] == 0.0)


def test_zero_sources_request_no_factor(monkeypatch):
    pr = make_problem(steps=5)
    u = smooth_control(pr)
    factors = StepFactors(pr, pr.solve(u), u)
    sources = np.zeros((2,) + factors.state.x.shape)
    sources[0, 3] = 1.0
    requested = []
    lu = StepFactors.lu
    monkeypatch.setattr(StepFactors, "lu",
                        lambda self, k: requested.append(k) or lu(self, k))
    lam = solve_adjoint(factors, sources)
    # the march starts at the last level with a source
    assert requested == [3, 2, 1]
    assert np.all(lam[:, 4:] == 0.0) and np.all(lam[1] == 0.0)
    requested.clear()
    assert not np.any(solve_adjoint(factors, np.zeros_like(sources)))
    assert requested == []
