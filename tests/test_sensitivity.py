"""Switched linearized system and the bilinearized second derivative."""

import numpy as np
import pytest

from tumoropt import (Control, InitialData, LambdaFlags, SolverError,
                      StepFactors, solve_bilinearized,
                      solve_generalized_linear)

from _support import make_problem, random_control, smooth_control


def _state_err(a, b):
    return max(np.abs(a.eta - b.eta).max(), np.abs(a.xi - b.xi).max(),
               np.abs(a.theta - b.theta).max())


def test_flag_validation():
    with pytest.raises(ValueError):
        LambdaFlags(l1=2)
    with pytest.raises(ValueError):
        LambdaFlags(l2=-1)


def test_control_sources_off_gives_zero():
    pr = make_problem()
    u = smooth_control(pr)
    state = pr.solve(u)
    h = random_control(pr, seed=1)
    out = solve_generalized_linear(pr, state, u, LambdaFlags(1, 0, 0, 0), h=h)
    assert np.all(out.eta == 0.0)
    assert np.all(out.xi == 0.0)
    assert np.all(out.theta == 0.0)


def test_initial_data_flag_is_bitwise(rng):
    pr = make_problem()
    u = smooth_control(pr)
    state = pr.solve(u)
    n = pr.grid.n
    init = InitialData(rng.standard_normal(n), rng.standard_normal(n),
                       rng.standard_normal(n))
    out = solve_generalized_linear(pr, state, u, LambdaFlags(1, 0, 0, 1),
                                   init=init)
    assert np.array_equal(out.eta[0], init.mu0)
    assert np.array_equal(out.xi[0], init.phi0)
    assert np.array_equal(out.theta[0], init.sigma0)
    assert np.abs(out.xi[-1]).max() > 0.0  # the data propagates
    off = solve_generalized_linear(pr, state, u, LambdaFlags(1, 0, 0, 0),
                                   init=init)
    assert _state_err(off, off) == 0.0 and np.all(off.xi == 0.0)


def test_general_sources_flag(rng):
    pr = make_problem()
    u = smooth_control(pr)
    state = pr.solve(u)
    shape = (pr.n_levels, pr.grid.n)
    f = tuple(rng.standard_normal(shape) for _ in range(3))
    on = solve_generalized_linear(pr, state, u, LambdaFlags(1, 0, 1, 0), f=f)
    assert np.abs(on.xi).max() > 0.0
    off = solve_generalized_linear(pr, state, u, LambdaFlags(1, 0, 0, 0), f=f)
    assert np.all(off.eta == 0.0) and np.all(off.theta == 0.0)


def test_superposition_of_directions():
    pr = make_problem()
    u = smooth_control(pr)
    state = pr.solve(u)
    flags = LambdaFlags()
    factors = StepFactors(pr, state, u, lam1=1)
    h1 = random_control(pr, seed=2)
    h2 = random_control(pr, seed=3)
    both = Control(h1.u1 + h2.u1, h1.u2 + h2.u2)
    a = solve_generalized_linear(pr, state, u, flags, h=h1, factors=factors)
    b = solve_generalized_linear(pr, state, u, flags, h=h2, factors=factors)
    c = solve_generalized_linear(pr, state, u, flags, h=both, factors=factors)
    gap = max(np.abs(c.eta - a.eta - b.eta).max(),
              np.abs(c.xi - a.xi - b.xi).max(),
              np.abs(c.theta - a.theta - b.theta).max())
    assert gap < 1e-13


def test_factor_reuse_matches_fresh_build():
    pr = make_problem()
    u = smooth_control(pr)
    state = pr.solve(u)
    h = random_control(pr, seed=4)
    fresh = solve_generalized_linear(pr, state, u, LambdaFlags(), h=h)
    factors = StepFactors(pr, state, u, lam1=1)
    reused = solve_generalized_linear(pr, state, u, LambdaFlags(), h=h,
                                      factors=factors)
    assert np.array_equal(fresh.xi, reused.xi)
    assert np.array_equal(fresh.eta, reused.eta)


def test_factor_flag_mismatch_rejected():
    pr = make_problem()
    u = smooth_control(pr)
    state = pr.solve(u)
    factors = StepFactors(pr, state, u, lam1=0)
    with pytest.raises(ValueError):
        solve_generalized_linear(pr, state, u, LambdaFlags(), factors=factors)
    with pytest.raises(ValueError):
        lin = solve_generalized_linear(pr, state, u, LambdaFlags(l1=0),
                                       h=random_control(pr), factors=factors)
        solve_bilinearized(pr, state, u, lin, lin, random_control(pr),
                           random_control(pr), factors=factors)


def test_factor_failure_names_the_step():
    pr = make_problem(steps=4)
    u = smooth_control(pr)
    state = pr.solve(u)
    state.phi[3, 2] = np.nan
    with pytest.raises(SolverError, match="step 3: non-finite Jacobian"):
        StepFactors(pr, state, u).lu(3)


def test_reaction_off_march_ignores_linearization_point(rng):
    # with l1 = 0 the step operator has no state-dependent entries
    pr = make_problem()
    ua, ub = smooth_control(pr), random_control(pr, seed=9, amp=0.3)
    shape = (pr.n_levels, pr.grid.n)
    f = tuple(rng.standard_normal(shape) for _ in range(3))
    flags = LambdaFlags(1 - 1, 0, 1, 0)
    out_a = solve_generalized_linear(pr, pr.solve(ua), ua, flags, f=f)
    out_b = solve_generalized_linear(pr, pr.solve(ub), ub, flags, f=f)
    assert np.array_equal(out_a.xi, out_b.xi)
    assert np.array_equal(out_a.eta, out_b.eta)
    assert np.array_equal(out_a.theta, out_b.theta)


@pytest.mark.parametrize("potential", ["regular", "logarithmic"])
def test_linearization_is_first_derivative(potential):
    pr = make_problem(potential=potential)
    u = smooth_control(pr, amp=0.1)
    state = pr.solve(u)
    h = smooth_control(pr, amp=0.05)
    lin = solve_generalized_linear(pr, state, u, LambdaFlags(), h=h)

    def remainder(eps):
        pert = pr.solve(Control(u.u1 + eps * h.u1, u.u2 + eps * h.u2))
        return max(np.abs(pert.mu - state.mu - eps * lin.eta).max(),
                   np.abs(pert.phi - state.phi - eps * lin.xi).max(),
                   np.abs(pert.sigma - state.sigma - eps * lin.theta).max())

    r1, r2 = remainder(2e-2), remainder(1e-2)
    assert 3.4 < r1 / r2 < 4.6


def test_bilinearized_symmetry():
    pr = make_problem()
    u = smooth_control(pr)
    state = pr.solve(u)
    factors = StepFactors(pr, state, u, lam1=1)
    h = random_control(pr, seed=5)
    k = random_control(pr, seed=6)
    lh = solve_generalized_linear(pr, state, u, LambdaFlags(), h=h,
                                  factors=factors)
    lk = solve_generalized_linear(pr, state, u, LambdaFlags(), h=k,
                                  factors=factors)
    hk = solve_bilinearized(pr, state, u, lh, lk, h, k, factors=factors)
    kh = solve_bilinearized(pr, state, u, lk, lh, k, h, factors=factors)
    # sources are symmetric up to re-association of triple products
    assert _state_err(hk, kh) < 1e-18


def test_bilinearized_is_derivative_increment():
    # lin at u + eps h minus lin at u, applied to h, grows like eps B(h, h)
    pr = make_problem()
    u = smooth_control(pr, amp=0.1)
    state = pr.solve(u)
    h = smooth_control(pr, amp=0.05)
    lin = solve_generalized_linear(pr, state, u, LambdaFlags(), h=h)
    bil = solve_bilinearized(pr, state, u, lin, lin, h, h)

    def remainder(eps):
        up = Control(u.u1 + eps * h.u1, u.u2 + eps * h.u2)
        sp = pr.solve(up)
        lp = solve_generalized_linear(pr, sp, up, LambdaFlags(), h=h)
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
    lin = solve_generalized_linear(pr, state, u, LambdaFlags(), h=h)
    bil = solve_bilinearized(pr, state, u, lin, lin, h, h)

    def remainder(eps):
        pert = pr.solve(Control(u.u1 + eps * h.u1, u.u2 + eps * h.u2))
        half = 0.5 * eps * eps
        return max(
            np.abs(pert.mu - state.mu - eps * lin.eta - half * bil.eta).max(),
            np.abs(pert.phi - state.phi - eps * lin.xi - half * bil.xi).max(),
            np.abs(pert.sigma - state.sigma - eps * lin.theta
                   - half * bil.theta).max())

    r1, r2 = remainder(2e-2), remainder(1e-2)
    assert 6.5 < r1 / r2 < 9.5
