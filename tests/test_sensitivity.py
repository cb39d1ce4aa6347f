"""Linearized system and the bilinearized second derivative."""

import sys
import threading
import time

import numpy as np
import pytest

import tumoropt.sensitivity as sensitivity_module
from tumoropt import (Control, SecondOrderContext, SolverError, StepFactors,
                      misfit_adjoint, reduced_gradient, solve_bilinearized,
                      solve_generalized_linear)
from tumoropt.stepper import Stepper

from _support import make_problem, random_control, smooth_control


def _state_err(a, b):
    return max(np.abs(a.eta - b.eta).max(), np.abs(a.xi - b.xi).max(),
               np.abs(a.theta - b.theta).max())


def test_superposition_of_directions():
    pr = make_problem()
    u = smooth_control(pr)
    factors = StepFactors(pr, pr.solve(u), u)
    h1 = random_control(pr, seed=2)
    h2 = random_control(pr, seed=3)
    both = Control(h1.v + h2.v)
    a = solve_generalized_linear(factors, h1)
    b = solve_generalized_linear(factors, h2)
    c = solve_generalized_linear(factors, both)
    gap = max(np.abs(c.eta - a.eta - b.eta).max(),
              np.abs(c.xi - a.xi - b.xi).max(),
              np.abs(c.theta - a.theta - b.theta).max())
    assert gap < 1e-13


def test_factor_reuse_matches_fresh_build():
    pr = make_problem()
    u = smooth_control(pr)
    state = pr.solve(u)
    h = random_control(pr, seed=4)
    fresh = solve_generalized_linear(StepFactors(pr, state, u), h)
    factors = StepFactors(pr, state, u)
    # a first march with another direction fills the cache
    solve_generalized_linear(factors, random_control(pr))
    reused = solve_generalized_linear(factors, h)
    assert np.array_equal(fresh.xi, reused.xi)
    assert np.array_equal(fresh.eta, reused.eta)


def test_march_starts_at_zero_and_skips_source_free_levels(monkeypatch):
    # a direction that vanishes before level 3 leaves levels 0-2 at zero and
    # factors no step Jacobian there
    pr = make_problem(steps=6)
    u = smooth_control(pr)
    factors = StepFactors(pr, pr.solve(u), u)
    h = random_control(pr, seed=8)
    h.u1[:3] = 0.0
    h.u2[:3] = 0.0
    requested, lu = [], StepFactors.lu

    def count_lu(self, k):
        requested.append(k)
        return lu(self, k)

    monkeypatch.setattr(StepFactors, "lu", count_lu)
    out = solve_generalized_linear(factors, h)
    for field in (out.eta, out.xi, out.theta):
        assert np.all(field[:3] == 0.0)
    assert np.all(np.abs(out.xi[3:]).max(axis=1) > 0.0)
    assert requested == [3, 4, 5, 6]


def _march_one_direction(factors, sources):
    """Reference: the march of one direction's (N_t+1, 3n) sources, level by
    level with vector solves, skipping every level whose right-hand side
    vanishes."""
    transport = factors.problem.stepper.transport
    y = np.zeros_like(sources)
    for k in range(1, len(y)):
        rhs = transport @ y[k - 1] + sources[k]
        if np.any(rhs):
            y[k] = factors.lu(k).solve(rhs)
    return y


def _staggered_sources(pr, starts, seed=1):
    """Random sources of len(starts) directions, direction j zero on the
    levels before starts[j]."""
    rng = np.random.default_rng(seed)
    sources = rng.standard_normal((len(starts), pr.n_levels, 3 * pr.grid.n))
    for src, start in zip(sources, starts):
        src[:start] = 0.0
    return sources


@pytest.mark.parametrize("dim", [1, 2])
def test_block_march_matches_one_direction_at_a_time(dim):
    pr = (make_problem(steps=6) if dim == 1
          else make_problem(nodes=9, ny=7, steps=5))
    u = smooth_control(pr)
    factors = StepFactors(pr, pr.solve(u), u)
    starts = [3, 1, 5, 3, 2]
    sources = _staggered_sources(pr, starts)

    def assert_matches(out, ref):
        if dim == 1:
            # the band LU solves a (3n, m) block column by column; a
            # direction's levels before its own first source are solved as
            # zero columns and may hold -0.0, which + 0.0 makes +0.0
            assert (out + 0.0).tobytes() == (ref + 0.0).tobytes()
        else:
            # SuperLU may order a block solve's arithmetic otherwise
            assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max()

    block = sensitivity_module._march(factors, sources[:, 1:], 1)
    assert block.shape == sources.shape
    for out, src, start in zip(block, sources, starts):
        assert np.all(out[:start] == 0.0)
        assert_matches(out, _march_one_direction(factors, src))
    # a sequence of directions is one block, returned in order
    hs = [random_control(pr, seed=s) for s in (1, 2, 3)]
    for h, lin in zip(hs, solve_generalized_linear(factors, hs)):
        assert_matches(lin.y, solve_generalized_linear(factors, h).y)


def test_block_march_starts_at_the_first_source_of_the_block(monkeypatch):
    # a block whose every source vanishes before level 3 requests one factor
    # per level from there and leaves levels 0-2 exactly zero
    pr = make_problem(steps=6)
    u = smooth_control(pr)
    factors = StepFactors(pr, pr.solve(u), u)
    sources = _staggered_sources(pr, [4, 3, 5])
    requested, lu = [], StepFactors.lu

    def count_lu(self, k):
        requested.append(k)
        return lu(self, k)

    monkeypatch.setattr(StepFactors, "lu", count_lu)
    out = sensitivity_module._march(factors, sources[:, 1:], 1)
    assert requested == [3, 4, 5, 6]
    assert out[:, :3].tobytes() == bytes(out[:, :3].nbytes)
    assert np.all(np.abs(out[1, 3:]).max(axis=1) > 0.0)


def _count_lus(monkeypatch):
    """A list that gains one entry per step LU formed (`Stepper.factorize`,
    on this thread or on the look-ahead pool)."""
    calls, factorize = [], Stepper.factorize

    def count(self, values):
        calls.append(None)
        return factorize(self, values)

    monkeypatch.setattr(Stepper, "factorize", count)
    return calls


def test_2d_factors_are_cached(monkeypatch):
    # 3n = 1587 unknowns per step: 2-D factors fit the byte budget too
    pr = make_problem(nodes=23, ny=23, steps=4)
    u = smooth_control(pr)
    factors = StepFactors(pr, pr.solve(u), u)
    calls = _count_lus(monkeypatch)
    solve_generalized_linear(factors, random_control(pr, seed=1))
    solve_generalized_linear(factors, random_control(pr, seed=2))
    misfit_adjoint(factors)
    assert len(calls) == pr.tgrid.steps
    assert sorted(factors._lus) == list(range(1, pr.n_levels))


def test_factors_past_the_byte_budget_are_formed_again(monkeypatch):
    pr = make_problem(steps=6)
    u = smooth_control(pr)
    state = pr.solve(u)
    h = random_control(pr, seed=9)
    full = StepFactors(pr, state, u)
    ref = solve_generalized_linear(full, h)
    # room for exactly the first two steps
    monkeypatch.setattr(sensitivity_module, "_CACHE_BYTES",
                        12 * (full.lu(1).nnz + full.lu(2).nnz))
    factors = StepFactors(pr, state, u)
    calls = _count_lus(monkeypatch)
    first = solve_generalized_linear(factors, h)
    second = solve_generalized_linear(factors, h)
    assert sorted(factors._lus) == [1, 2]
    assert len(calls) == 2 + 2 * (pr.tgrid.steps - 2)
    for out in (first, second):
        for field in ("eta", "xi", "theta"):
            assert getattr(out, field).tobytes() == getattr(ref, field).tobytes()


@pytest.mark.parametrize("potential", [
    dict(potential="regular"), dict(potential="logarithmic"),
    dict(potential="logarithmic", yosida_eps=0.05),
    dict(potential="logarithmic", nodes=9, ny=7)])
def test_chunked_factor_pass_is_bitwise_one_level_at_a_time(monkeypatch,
                                                             potential):
    # in 2-D with more than one CPU the LUs are formed on the look-ahead
    # pool, from the same chunks
    pr = make_problem(steps=7, **potential)
    u = smooth_control(pr)
    state = pr.solve(u)
    hs = [random_control(pr, seed=s) for s in (1, 2)]
    rhs = np.random.default_rng(3).standard_normal((3 * pr.grid.n, 2))

    def outputs(chunk_levels=None):
        if chunk_levels:
            monkeypatch.setattr(sensitivity_module, "_CHUNK_BYTES",
                                chunk_levels * pr.stepper.values_nbytes)
        ctx = SecondOrderContext(pr, u, state=state)
        lean = StepFactors(pr, state, u, cache_bytes=0)
        out = [reduced_gradient(u, pr, state=state).grad.v,
               ctx.gradient.grad.v, ctx.hessian_product(hs[0]).v,
               *(lin.y for lin in ctx.linearize(hs)),
               *(lin.y for lin in solve_generalized_linear(lean, hs))]
        kept = [ctx.factors.lu(k) for k in range(1, pr.n_levels)]
        out += [fac.solve(rhs, trans) for fac in kept for trans in "NT"]
        if not pr.stepper.superlu:
            for fac in kept:
                # it holds its own values, not a view of its chunk
                owner = fac._lu if fac._lu.base is None else fac._lu.base
                assert owner.nbytes == fac._lu.nbytes
            out += [a for fac in kept for a in (fac._lu, fac._ipiv)]
        return [a.tobytes() for a in out]

    # the default bound holds all 7 steps in one chunk, 3 levels split
    # them, and one level per chunk is a pass level by level
    assert sensitivity_module._CHUNK_BYTES >= 7 * pr.stepper.values_nbytes
    whole = outputs()
    assert outputs(3) == whole
    assert outputs(1) == whole


def _held_factors() -> int:
    """Factors the look-ahead workers hold now (0 without a pool)."""
    pool = sensitivity_module._factor_pool()
    return sum(len(w.held) for w in pool.workers) if pool else 0


def _wait_for_held(count: int) -> None:
    """Wait up to 5 s for the workers to hold at most `count` factors;
    releases reach them as messages."""
    deadline = time.monotonic() + 5.0
    while _held_factors() > count and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _held_factors() <= count


def test_factor_failure_names_the_step():
    pr = make_problem(steps=4)
    u = smooth_control(pr)
    state = pr.solve(u)
    state.phi[3, 2] = np.nan
    with pytest.raises(SolverError, match="step 3: non-finite Jacobian"):
        StepFactors(pr, state, u).lu(3)
    # inside a chunk, after its first level: the adjoint march (4, 3, ...)
    # and a block march (1, 2, 3, ...) each evaluate all four levels at
    # their first request, factor (and keep) the levels before step 3, and
    # raise when they request it
    for march, kept in ((misfit_adjoint, [4]),
                        (lambda f: solve_generalized_linear(
                            f, [random_control(pr, seed=s) for s in (1, 2)]),
                         [1, 2])):
        factors = StepFactors(pr, state, u)
        with pytest.raises(SolverError,
                           match=r"^step 3: non-finite Jacobian entries$"):
            march(factors)
        assert sorted(factors._lus) == kept
        assert factors._chunks == factors._chunk == {}
    # in 2-D the adjoint march queues steps 5, 4 and 3 before it solves;
    # step 3 fails on a worker and raises when the march reaches it, and
    # the march leaves nothing running and no factor held
    pr = make_problem(nodes=9, ny=7, steps=5)
    u = smooth_control(pr)
    state = pr.solve(u)
    state.phi[3, 2] = np.nan
    held = _held_factors()
    for cache_bytes in (0, None):
        factors = StepFactors(pr, state, u, cache_bytes=cache_bytes)
        with pytest.raises(SolverError, match="step 3: non-finite Jacobian"):
            misfit_adjoint(factors)
        assert factors._ahead == {} and not factors._todo
        del factors
        _wait_for_held(held)


def test_look_ahead_is_bitwise_the_serial_march(monkeypatch):
    pr = make_problem(nodes=11, ny=9, steps=7)
    u = smooth_control(pr)
    state = pr.solve(u)
    hs = [random_control(pr, seed=s) for s in (1, 2, 3)]

    def outputs():
        lean = StepFactors(pr, state, u, cache_bytes=0)
        ctx = SecondOrderContext(pr, u, state=state)
        lins = ctx.linearize(hs)
        return [misfit_adjoint(lean).lam,
                *(lin.y for lin in solve_generalized_linear(lean, hs)),
                ctx.adjoint.lam, *(lin.y for lin in lins),
                np.float64(ctx.form(hs[0], hs[1], lin_h=lins[0],
                                    lin_k=lins[1]))]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = [outputs() for _ in range(3)]
    finally:
        sys.setswitchinterval(switch)
    # no pool: every factor forms on this thread, as in a 1-D march
    monkeypatch.setattr(sensitivity_module, "_factor_pool", lambda: None)
    serial = outputs()
    for got in pooled:
        assert [a.tobytes() for a in got] == [a.tobytes() for a in serial]


def test_look_ahead_pool_is_small_and_1d_marches_start_none(monkeypatch):
    asked, pool = [], sensitivity_module._factor_pool
    monkeypatch.setattr(sensitivity_module, "_factor_pool",
                        lambda: asked.append(None) or pool())
    threads = threading.active_count()
    pr = make_problem(steps=4)
    u = smooth_control(pr)
    factors = StepFactors(pr, pr.solve(u), u, cache_bytes=0)
    misfit_adjoint(factors)
    solve_generalized_linear(factors, random_control(pr))
    assert asked == [] and threading.active_count() == threads

    pr = make_problem(nodes=9, ny=7, steps=4)
    u = smooth_control(pr)
    misfit_adjoint(StepFactors(pr, pr.solve(u), u))
    assert asked
    workers = [t for t in threading.enumerate() if t.name == "tumoropt-lu"]
    assert len(workers) <= 2
    assert pool() is None or set(pool().workers) == set(workers)


@pytest.mark.parametrize("potential", ["regular", "logarithmic"])
def test_linearization_is_first_derivative(potential):
    pr = make_problem(potential=potential)
    u = smooth_control(pr, amp=0.1)
    state = pr.solve(u)
    h = smooth_control(pr, amp=0.05)
    lin = solve_generalized_linear(StepFactors(pr, state, u), h)

    def remainder(eps):
        pert = pr.solve(Control(u.v + eps * h.v))
        return max(np.abs(pert.mu - state.mu - eps * lin.eta).max(),
                   np.abs(pert.phi - state.phi - eps * lin.xi).max(),
                   np.abs(pert.sigma - state.sigma - eps * lin.theta).max())

    r1, r2 = remainder(2e-2), remainder(1e-2)
    assert 3.4 < r1 / r2 < 4.6


def test_bilinearized_symmetry():
    pr = make_problem()
    u = smooth_control(pr)
    factors = StepFactors(pr, pr.solve(u), u)
    h = random_control(pr, seed=5)
    k = random_control(pr, seed=6)
    lh = solve_generalized_linear(factors, h)
    lk = solve_generalized_linear(factors, k)
    hk = solve_bilinearized(factors, lh, lk, h, k)
    kh = solve_bilinearized(factors, lk, lh, k, h)
    # sources are symmetric up to re-association of triple products
    assert _state_err(hk, kh) < 1e-18


def test_bilinearized_is_derivative_increment():
    # lin at u + eps h minus lin at u, applied to h, grows like eps B(h, h)
    pr = make_problem()
    u = smooth_control(pr, amp=0.1)
    factors = StepFactors(pr, pr.solve(u), u)
    h = smooth_control(pr, amp=0.05)
    lin = solve_generalized_linear(factors, h)
    bil = solve_bilinearized(factors, lin, lin, h, h)

    def remainder(eps):
        up = Control(u.v + eps * h.v)
        lp = solve_generalized_linear(StepFactors(pr, pr.solve(up), up), h)
        return max(np.abs(lp.eta - lin.eta - eps * bil.eta).max(),
                   np.abs(lp.xi - lin.xi - eps * bil.xi).max(),
                   np.abs(lp.theta - lin.theta - eps * bil.theta).max())

    r1, r2 = remainder(2e-2), remainder(1e-2)
    assert 3.4 < r1 / r2 < 4.6


def test_second_order_taylor_expansion():
    pr = make_problem()
    u = smooth_control(pr, amp=0.1)
    state = pr.solve(u)
    h = smooth_control(pr, amp=0.05)
    factors = StepFactors(pr, state, u)
    lin = solve_generalized_linear(factors, h)
    bil = solve_bilinearized(factors, lin, lin, h, h)

    def remainder(eps):
        pert = pr.solve(Control(u.v + eps * h.v))
        half = 0.5 * eps * eps
        return max(
            np.abs(pert.mu - state.mu - eps * lin.eta - half * bil.eta).max(),
            np.abs(pert.phi - state.phi - eps * lin.xi - half * bil.xi).max(),
            np.abs(pert.sigma - state.sigma - eps * lin.theta
                   - half * bil.theta).max())

    r1, r2 = remainder(2e-2), remainder(1e-2)
    assert 6.5 < r1 / r2 < 9.5
