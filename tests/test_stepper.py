"""Step operator: Jacobian assembly and second-order sources against the
block-matrix and inline references they replaced."""

import numpy as np
import pytest
import scipy.sparse as sps
from scipy.sparse.linalg import splu

import tumoropt.stepper as stepper_module
from tumoropt import (Control, ModelParams, SecondOrderContext, SolverError,
                      build_grid, bump_shape, constant_shape, control_inner,
                      logarithmic_potential, make_nonlinearity,
                      obstacle_potential, ramp_shape, regular_potential,
                      st_inner)
from tumoropt.stepper import Stepper

from _support import make_problem, smooth_control

POTENTIALS = {
    "regular": (regular_potential, None),
    "logarithmic": (logarithmic_potential, None),
    "yosida-obstacle": (obstacle_potential, 0.05),
}


def _reference_jacobian(st: Stepper, mu, phi, sigma, u1k):
    """The step Jacobian built block by block with scipy.sparse.bmat."""
    eye = sps.identity(st.n, format="csr")
    lap = st.grid.lap
    prm, dt = st.params, st.dt
    transport = sps.bmat([
        [prm.alpha / dt * eye - lap, 1.0 / dt * eye, None],
        [-eye, prm.beta / dt * eye - lap, None],
        [None, prm.chi * lap, 1.0 / dt * eye - lap],
    ], format="csc")
    m = st.m_field(mu, phi, sigma)
    pv = st.nonlin.eval("P", phi)
    dpm = st.nonlin.eval("P", phi, 1) * m
    hpu = st.nonlin.eval("h", phi, 1) * u1k
    dg = sps.diags
    ones = np.ones(st.n)
    d = sps.bmat([
        [dg(pv), dg(-dpm + st.chi * pv + hpu), dg(-pv)],
        [None, dg(st.potential_eval(phi, 2)), dg(-st.chi * ones)],
        [dg(-pv), dg(dpm - st.chi * pv), dg(pv)],
    ], format="csc")
    return (transport + d).tocsc()


def _stepper(potential, dim, coupling):
    grid = build_grid(dim, [33] if dim == 1 else [9, 9], [1.0] * dim)
    if coupling == "full":
        chi = 0.3
        nonlin = make_nonlinearity(bump_shape(0.6, 0.1, 0.8), ramp_shape())
    else:
        # chi = 0 and P = h = 0: whole reaction blocks vanish
        chi = 0.0
        nonlin = make_nonlinearity(constant_shape(0.0), constant_shape(0.0))
    params = ModelParams(alpha=1.0, beta=0.8, chi=chi, T=1.0)
    make, eps = POTENTIALS[potential]
    return Stepper(grid, params, make(), nonlin, 0.02, yosida_eps=eps)


def _state(st: Stepper, seed):
    rng = np.random.default_rng(seed)
    n = st.n
    return (0.1 * rng.standard_normal(n),
            np.clip(0.4 * rng.standard_normal(n), -0.9, 0.9),
            0.2 + 0.1 * rng.standard_normal(n),
            0.3 * rng.standard_normal(n))


@pytest.mark.parametrize("coupling", ["full", "vanishing"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("potential", sorted(POTENTIALS))
def test_assembly_matches_block_reference(potential, dim, coupling):
    st = _stepper(potential, dim, coupling)
    state = _state(st, seed=dim)
    assert np.any(state[3] != 0.0)
    ref = _reference_jacobian(st, *state)
    jac = st.assemble(*state)
    assert jac.format == "csc"
    assert jac.toarray().tobytes() == ref.toarray().tobytes()
    # same stored layout, so SuperLU sees the same matrix
    assert np.array_equal(jac.indptr, ref.indptr)
    assert np.array_equal(jac.indices, ref.indices)
    assert jac.data.tobytes() == ref.data.tobytes()
    rhs = np.random.default_rng(3).standard_normal(3 * st.n)
    lu, lu_ref = splu(jac), splu(ref)
    for trans in ("N", "T"):
        assert (lu.solve(rhs, trans=trans).tobytes()
                == lu_ref.solve(rhs, trans=trans).tobytes())


@pytest.mark.parametrize("dim", [1, 2])
def test_assembly_pattern_is_shared_across_calls(dim):
    st = _stepper("logarithmic", dim, "full")
    first = st.assemble(*_state(st, seed=0))
    second = st.assemble(*_state(st, seed=1))
    assert not np.array_equal(first.data, second.data)
    assert np.array_equal(first.indptr, second.indptr)
    assert np.array_equal(first.indices, second.indices)
    assert np.shares_memory(first.indices, second.indices)
    assert not first.indices.flags.writeable
    assert not first.indptr.flags.writeable


def test_factorize_rejects_non_finite_jacobian():
    st = _stepper("regular", 1, "full")
    mu, phi, sigma, u1 = _state(st, seed=0)
    u1[4] = np.nan
    with pytest.raises(SolverError, match="non-finite Jacobian"):
        st.factorize(mu, phi, sigma, u1)


def test_factorize_turns_lu_failure_into_solver_error(monkeypatch):
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(stepper_module, "splu", singular)
    st = _stepper("regular", 1, "full")
    with pytest.raises(SolverError, match="exactly singular"):
        st.factorize(*_state(st, seed=0))


@pytest.mark.parametrize("potential", sorted(POTENTIALS))
def test_factorize_1d_is_plain_splu(potential):
    # 1-D keeps SuperLU's default order, so its factors are bitwise unchanged
    st = _stepper(potential, 1, "full")
    state = _state(st, seed=4)
    lu, ref = st.factorize(*state), splu(st.assemble(*state))
    assert lu.nnz == ref.nnz
    assert np.array_equal(lu.perm_c, ref.perm_c)
    assert np.array_equal(lu.perm_r, ref.perm_r)
    rhs = np.random.default_rng(5).standard_normal(3 * st.n)
    for trans in ("N", "T"):
        assert (lu.solve(rhs, trans=trans).tobytes()
                == ref.solve(rhs, trans=trans).tobytes())


@pytest.mark.parametrize("potential", sorted(POTENTIALS))
def test_factorize_2d_solves_match_colamd_lu(potential):
    # the minimum-degree order moves 2-D solves at round-off only
    st = _stepper(potential, 2, "full")
    state = _state(st, seed=6)
    jac = st.assemble(*state)
    lu, ref = st.factorize(*state), splu(jac, permc_spec="COLAMD")
    assert lu.nnz < ref.nnz
    rhs = np.random.default_rng(7).standard_normal(3 * st.n)
    for trans in ("N", "T"):
        x, x_ref = lu.solve(rhs, trans=trans), ref.solve(rhs, trans=trans)
        assert np.abs(x - x_ref).max() <= 1e-13 * np.abs(x_ref).max()


def _reference_source(st: Stepper, mu, phi, sigma, u1k, dh, dk, h1, k1):
    """The bilinearized source as the march once wrote it inline."""
    nl, chi = st.nonlin, st.params.chi
    m = st.m_field(mu, phi, sigma)
    (eta_h, xih, theta_h), (eta_k, xik, theta_k) = dh, dk
    mh = theta_h - chi * xih - eta_h
    mk = theta_k - chi * xik - eta_k
    dp = nl.eval("P", phi, 1)
    ddp = nl.eval("P", phi, 2)
    dhv = nl.eval("h", phi, 1)
    ddh = nl.eval("h", phi, 2)
    reaction = ddp * xih * xik * m + dp * (xih * mk + xik * mh)
    s1 = (reaction - ddh * xih * xik * u1k
          - dhv * (xih * k1 + xik * h1))
    s2 = -st.potential_eval(phi, 3) * xih * xik
    s3 = -reaction
    return np.concatenate([s1, s2, s3])


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("potential", sorted(POTENTIALS))
def test_second_order_source_matches_inline_reference(potential, dim):
    st = _stepper(potential, dim, "full")
    state = _state(st, seed=dim)
    rng = np.random.default_rng(7)
    dh, dk = (tuple(rng.standard_normal((3, st.n))) for _ in range(2))
    h1, k1 = rng.standard_normal((2, st.n))
    ref = _reference_source(st, *state, dh, dk, h1, k1)
    src = st.second_order_source(*state, dh, dk, h1, k1)
    assert np.concatenate(src).tobytes() == ref.tobytes()
    # whole histories shaped (levels, n) give the reference level by level
    levels = 5
    hist = tuple(np.stack(f) for f in zip(*(_state(st, seed=10 + j)
                                             for j in range(levels))))
    dh, dk = (tuple(rng.standard_normal((3, levels, st.n))) for _ in range(2))
    h1, k1 = rng.standard_normal((2, levels, st.n))
    src = st.second_order_source(*hist, dh, dk, h1, k1)
    for j in range(levels):
        ref = _reference_source(st, *(f[j] for f in hist),
                                tuple(d[j] for d in dh),
                                tuple(d[j] for d in dk), h1[j], k1[j])
        assert np.concatenate([s[j] for s in src]).tobytes() == ref.tobytes()


def test_form_is_multiplier_weighted_sum_of_sources():
    pr = make_problem(steps=6)
    ubar = smooth_control(pr, amp=0.3)
    ctx = SecondOrderContext(pr, ubar)
    h = smooth_control(pr, amp=0.5)
    k = Control(np.sin(h.u1), -0.5 * h.u2)
    lin_h, lin_k = ctx.linearize(h), ctx.linearize(k)
    st, state, adj = ctx.problem.stepper, ctx.state, ctx.adjoint
    wt, w = pr.tgrid.weights(), pr.grid.weights
    expected = (pr.cost.b0 * control_inner(pr.grid, pr.tgrid, h, k)
                + pr.cost.b1 * st_inner(pr.grid, pr.tgrid, lin_h.xi, lin_k.xi))
    for j in range(1, pr.n_levels):
        s1, s2, s3 = st.split(_reference_source(
            st, state.mu[j], state.phi[j], state.sigma[j], ubar.u1[j],
            (lin_h.eta[j], lin_h.xi[j], lin_h.theta[j]),
            (lin_k.eta[j], lin_k.xi[j], lin_k.theta[j]), h.u1[j], k.u1[j]))
        expected += wt[j] * (np.dot(w, adj.p[j] * s1)
                             + np.dot(w, adj.q[j] * s2)
                             + np.dot(w, adj.r[j] * s3))
    assert ctx.form(h, k, lin_h=lin_h, lin_k=lin_k) == pytest.approx(
        expected, rel=1e-13, abs=0.0)
