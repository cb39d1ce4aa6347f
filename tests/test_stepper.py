"""Step operator: Jacobian assembly, second-order sources and the level
transport against the block-matrix and per-field references they replaced."""

import numpy as np
import pytest
import scipy.sparse as sps
from scipy.sparse.linalg import splu

import tumoropt.stepper as stepper_module
from tumoropt import (Control, ModelParams, SecondOrderContext, SolverError,
                      NonlinearitySpec, PotentialSpec, ScalarShape,
                      StepFactors, build_grid, control_inner, solve_state,
                      st_inner)
from tumoropt.stepper import Stepper

from _support import make_problem, smooth_control

POTENTIALS = {
    "regular": ("regular", None),
    "logarithmic": ("logarithmic", None),
    "yosida-obstacle": ("obstacle", 0.05),
}


def _reference_jacobian(st: Stepper, x, u1k):
    """The step Jacobian built block by block with scipy.sparse.bmat."""
    mu, phi, sigma = st.split(x)
    eye = sps.identity(st.n, format="csr")
    lap = st.grid.lap
    prm, dt = st.params, st.dt
    transport = sps.bmat([
        [prm.alpha / dt * eye - lap, 1.0 / dt * eye, None],
        [-eye, prm.beta / dt * eye - lap, None],
        [None, prm.chi * lap, 1.0 / dt * eye - lap],
    ], format="csc")
    m = st.m_field(mu, phi, sigma)
    pv = st.nonlin.P.eval(phi)
    dpm = st.nonlin.P.eval(phi, 1) * m
    hpu = st.nonlin.H.eval(phi, 1) * u1k
    dg = sps.diags
    ones = np.ones(st.n)
    d = sps.bmat([
        [dg(pv), dg(-dpm + st.chi * pv + hpu), dg(-pv)],
        [None, dg(st.potential.eval(phi, 2)), dg(-st.chi * ones)],
        [dg(-pv), dg(dpm - st.chi * pv), dg(pv)],
    ], format="csc")
    return (transport + d).tocsc()


def _stepper(potential, dim, coupling):
    grid = build_grid(dim, [33] if dim == 1 else [9, 9], [1.0] * dim)
    if coupling == "full":
        chi = 0.3
        nonlin = NonlinearitySpec(
            ScalarShape("bump", scale=0.6, center=0.1, width=0.8),
            ScalarShape("ramp"))
    else:
        # chi = 0 and P = h = 0: whole reaction blocks vanish
        chi = 0.0
        zero = ScalarShape("constant", value=0.0)
        nonlin = NonlinearitySpec(zero, zero)
    params = ModelParams(alpha=1.0, beta=0.8, chi=chi)
    kind, eps = POTENTIALS[potential]
    return Stepper(grid, params, PotentialSpec(kind, yosida_eps=eps), nonlin,
                   0.02)


def _state(st: Stepper, seed):
    """A stacked state (mu, phi, sigma) and a control level u1."""
    rng = np.random.default_rng(seed)
    n = st.n
    x = np.concatenate([0.1 * rng.standard_normal(n),
                        np.clip(0.4 * rng.standard_normal(n), -0.9, 0.9),
                        0.2 + 0.1 * rng.standard_normal(n)])
    return x, 0.3 * rng.standard_normal(n)


@pytest.mark.parametrize("coupling", ["full", "vanishing"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("potential", sorted(POTENTIALS))
def test_assembly_matches_block_reference(potential, dim, coupling):
    st = _stepper(potential, dim, coupling)
    state = _state(st, seed=dim)
    assert np.any(state[1] != 0.0)
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
    x, u1 = _state(st, seed=0)
    u1[4] = np.nan
    with pytest.raises(SolverError, match="non-finite Jacobian"):
        st.factorize(x, u1)


def test_factorize_turns_lu_failure_into_solver_error(monkeypatch):
    # the 2-D sparse path
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(stepper_module, "splu", singular)
    st = _stepper("regular", 2, "full")
    with pytest.raises(SolverError, match="exactly singular"):
        st.factorize(*_state(st, seed=0))
    x, u1 = _state(st, seed=0)
    u1[4] = np.inf
    with pytest.raises(SolverError, match="non-finite Jacobian"):
        st.factorize(x, u1)


def test_factorize_turns_band_lu_failure_into_solver_error(monkeypatch):
    pr = make_problem(steps=4)
    ubar = smooth_control(pr, amp=0.3)
    state = solve_state(pr, ubar)

    def singular(ab, kl, ku, **kwargs):
        return ab, np.arange(1, ab.shape[1] + 1, dtype=np.int32), 7

    monkeypatch.setattr(stepper_module, "dgbtrf", singular)
    st = _stepper("regular", 1, "full")
    with pytest.raises(SolverError, match="exactly singular at column 7"):
        st.factorize(*_state(st, seed=0))
    # both callers name the step
    with pytest.raises(SolverError, match="^step 1: band LU failed"):
        solve_state(pr, ubar)
    with pytest.raises(SolverError, match="^step 3: band LU failed"):
        StepFactors(pr, state, ubar).lu(3)


@pytest.mark.parametrize("coupling", ["full", "vanishing"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("potential", sorted(POTENTIALS))
def test_stacked_rows_are_bitwise_the_one_level_calls(potential, dim,
                                                      coupling):
    st = _stepper(potential, dim, coupling)
    states = [_state(st, seed=s) for s in range(3)]
    x = np.stack([z for z, _ in states])
    u1 = np.stack([u for _, u in states])
    x_prev = np.stack([_state(st, seed=10 + s)[0] for s in range(3)])
    u2 = 0.1 * np.random.default_rng(8).standard_normal(u1.shape)
    res = st.residual(x, x_prev, u1, u2)
    assert res.shape == x.shape
    for i in range(3):
        one = st.residual(x[i], x_prev[i], u1[i], u2[i])
        assert np.array_equal(res[i], one) and res[i].tobytes() == one.tobytes()
    factors = st.factorize(x, u1)
    jacs = st.assemble(x, u1)
    assert len(factors) == len(jacs) == 3
    rhs = np.random.default_rng(9).standard_normal((3 * st.n, 2))
    for i, (fac, jac) in enumerate(zip(factors, jacs)):
        alone = st.assemble(x[i], u1[i])
        assert jac.data.tobytes() == alone.data.tobytes()
        assert jac.indices.tobytes() == alone.indices.tobytes()
        one = st.factorize(x[i], u1[i])
        for trans in ("N", "T"):
            assert (fac.solve(rhs, trans=trans).tobytes()
                    == one.solve(rhs, trans=trans).tobytes())
    # a row that cannot be factored fails the whole call
    x[1, st.n] = np.nan
    with pytest.raises(SolverError, match="non-finite Jacobian entries"):
        st.factorize(x, u1)


@pytest.mark.parametrize("potential", sorted(POTENTIALS))
def test_factorize_1d_band_solves_match_splu(potential):
    # the band LU pivots differently from SuperLU, so its solves move at
    # round-off only
    st = _stepper(potential, 1, "full")
    state = _state(st, seed=4)
    lu, ref = st.factorize(*state), splu(st.assemble(*state))
    # 4 subdiagonals (chi Lap in the sigma row) and 3 superdiagonals
    assert (lu.kl, lu.ku) == (4, 3)
    assert lu.nnz == (2 * 4 + 3 + 1) * 3 * st.n
    block = np.random.default_rng(5).standard_normal((3 * st.n, 8))
    for trans in ("N", "T"):
        for rhs in (block[:, 0], block):
            x, x_ref = lu.solve(rhs, trans=trans), ref.solve(rhs, trans=trans)
            assert x.shape == rhs.shape
            assert np.abs(x - x_ref).max() <= 1e-13 * np.abs(x_ref).max()


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
    """The bilinearized source as the march once wrote it inline, from the
    separate fields of one level and the (eta, xi, theta) triples dh, dk."""
    nl, chi = st.nonlin, st.params.chi
    m = st.m_field(mu, phi, sigma)
    (eta_h, xih, theta_h), (eta_k, xik, theta_k) = dh, dk
    mh = theta_h - chi * xih - eta_h
    mk = theta_k - chi * xik - eta_k
    dp = nl.P.eval(phi, 1)
    ddp = nl.P.eval(phi, 2)
    dhv = nl.H.eval(phi, 1)
    ddh = nl.H.eval(phi, 2)
    reaction = ddp * xih * xik * m + dp * (xih * mk + xik * mh)
    s1 = (reaction - ddh * xih * xik * u1k
          - dhv * (xih * k1 + xik * h1))
    s2 = -st.potential.eval(phi, 3) * xih * xik
    s3 = -reaction
    return np.concatenate([s1, s2, s3])


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("potential", sorted(POTENTIALS))
def test_second_order_source_matches_inline_reference(potential, dim):
    st = _stepper(potential, dim, "full")
    x, u1 = _state(st, seed=dim)
    rng = np.random.default_rng(7)
    yh, yk = rng.standard_normal((2, 3 * st.n))
    h1, k1 = rng.standard_normal((2, st.n))
    ref = _reference_source(st, *st.split(x), u1, st.split(yh), st.split(yk),
                            h1, k1)
    src = st.second_order_source(st.second_order_coefficients(x, u1), yh,
                                 yk, h1, k1)
    assert src.shape == (3 * st.n,)
    assert src.tobytes() == ref.tobytes()
    # whole stacked histories (levels, 3n) give the reference level by level
    levels = 5
    xs, u1s = (np.stack(f) for f in zip(*(_state(st, seed=10 + j)
                                          for j in range(levels))))
    yh, yk = rng.standard_normal((2, levels, 3 * st.n))
    h1, k1 = rng.standard_normal((2, levels, st.n))
    src = st.second_order_source(st.second_order_coefficients(xs, u1s), yh,
                                 yk, h1, k1)
    assert src.shape == (levels, 3 * st.n)
    for j in range(levels):
        ref = _reference_source(st, *st.split(xs[j]), u1s[j], st.split(yh[j]),
                                st.split(yk[j]), h1[j], k1[j])
        assert src[j].tobytes() == ref.tobytes()


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("potential", sorted(POTENTIALS))
def test_second_order_source_adjoint_is_the_pairing_derivative(potential,
                                                               dim):
    # pointwise, <lam, S(h, k)> is linear in (yk, k1): the state part paired
    # with yk plus the u1 part paired with k1, at one level and on histories
    st = _stepper(potential, dim, "full")
    rng = np.random.default_rng(11)
    for levels in (None, 4):
        states = [_state(st, seed=20 + j) for j in range(levels or 1)]
        x, u1 = (np.stack(f) if levels else f[0] for f in zip(*states))
        lead = x.shape[:-1]
        lam, yh, yk = rng.standard_normal((3,) + lead + (3 * st.n,))
        h1, k1 = rng.standard_normal((2,) + lead + (st.n,))
        coef = st.second_order_coefficients(x, u1)
        state_part, u1_part = st.second_order_source_adjoint(coef, lam, yh,
                                                             h1)
        assert state_part.shape == yk.shape and u1_part.shape == k1.shape
        src = st.second_order_source(coef, yh, yk, h1, k1)
        want = sum(a * b for a, b in zip(st.split(lam), st.split(src)))
        got = sum(a * b for a, b in zip(st.split(state_part),
                                        st.split(yk))) + u1_part * k1
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("dim", [1, 2])
def test_transport_matches_per_field_formula(dim):
    st = _stepper("regular", dim, "full")
    rng = np.random.default_rng(11)
    y, lam = rng.standard_normal((2, 3 * st.n))
    mu, phi, sigma = st.split(y)
    ref = np.concatenate([st.s_a * mu + st.s * phi, st.s_b * phi,
                          st.s * sigma])
    assert (st.transport @ y).tobytes() == ref.tobytes()
    # the adjoint march transports with the transpose
    l1, l2, l3 = st.split(lam)
    ref_t = np.concatenate([st.s_a * l1, st.s * l1 + st.s_b * l2, st.s * l3])
    assert (st.transport.T @ lam).tobytes() == ref_t.tobytes()
    # a (3n, m) block, as a march of m directions would pass, is transported
    # column by column
    block = rng.standard_normal((3 * st.n, 4))
    out = st.transport @ block
    for j in range(4):
        assert out[:, j].tobytes() == (st.transport @ block[:, j]).tobytes()


def _reference_residual(st: Stepper, x, x_prev, u1k, u2k):
    """The step residual field by field, time differences written out."""
    (mu, phi, sigma), (mu0, phi0, sigma0) = st.split(x), st.split(x_prev)
    lap = st.grid.lap
    m = st.m_field(mu, phi, sigma)
    pv, hv = st.nonlin.P.eval(phi), st.nonlin.H.eval(phi)
    lphi = lap @ phi
    r1 = (st.s_a * (mu - mu0) + st.s * (phi - phi0)
          - lap @ mu - pv * m + hv * u1k)
    r2 = (st.s_b * (phi - phi0) - lphi + st.potential.eval(phi, 1)
          - mu - st.chi * sigma)
    r3 = (st.s * (sigma - sigma0) - lap @ sigma + st.chi * lphi
          + pv * m - u2k)
    return np.concatenate([r1, r2, r3])


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("potential", sorted(POTENTIALS))
def test_residual_matches_per_field_reference(potential, dim):
    st = _stepper(potential, dim, "full")
    (x, u1), (x_prev, u2) = _state(st, seed=dim), _state(st, seed=5)
    ref = _reference_residual(st, x, x_prev, u1, u2)
    assert st.residual(x, x_prev, u1, u2).tobytes() == ref.tobytes()


@pytest.mark.parametrize("rows", [None, 3])
@pytest.mark.parametrize("dim", [1, 2])
def test_residual_leaves_its_inputs_alone(dim, rows):
    # the terms are added in place into a fresh array: the inputs keep
    # their bytes and the result shares memory with none of them
    st = _stepper("logarithmic", dim, "full")
    seeds = range(rows or 1)
    x = np.stack([_state(st, seed=s)[0] for s in seeds])
    u1 = np.stack([_state(st, seed=s)[1] for s in seeds])
    x_prev = np.stack([_state(st, seed=10 + s)[0] for s in seeds])
    u2 = 0.1 * np.random.default_rng(8).standard_normal(u1.shape)
    inputs = (x, x_prev, u1, u2) if rows else (x[0], x_prev[0], u1[0], u2[0])
    before = [a.tobytes() for a in inputs]
    res = st.residual(*inputs)
    assert res.shape == inputs[0].shape
    assert [a.tobytes() for a in inputs] == before
    assert not any(np.shares_memory(res, a) for a in inputs)


@pytest.mark.parametrize("dim", [1, 2])
def test_split_gives_views_of_levels_and_histories(dim):
    st = _stepper("regular", dim, "full")
    x = np.arange(2 * 3 * st.n, dtype=float).reshape(2, 3 * st.n)
    for level in (x, x[1]):
        fields = st.split(level)
        assert [f.shape[-1] for f in fields] == [st.n] * 3
        assert all(np.shares_memory(f, level) for f in fields)
        assert np.array_equal(np.concatenate(fields, axis=-1), level)


def test_form_is_multiplier_weighted_sum_of_sources():
    pr = make_problem(steps=6)
    ubar = smooth_control(pr, amp=0.3)
    ctx = SecondOrderContext(pr, ubar)
    h = smooth_control(pr, amp=0.5)
    k = Control([np.sin(h.u1), -0.5 * h.u2])
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
