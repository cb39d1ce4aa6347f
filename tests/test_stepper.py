"""Step Jacobian: fixed-pattern assembly against the block-matrix reference."""

import numpy as np
import pytest
import scipy.sparse as sps
from scipy.sparse.linalg import splu

import tumoropt.stepper as stepper_module
from tumoropt import (ModelParams, SolverError, build_grid, bump_shape,
                      constant_shape, logarithmic_potential,
                      make_nonlinearity, obstacle_potential, ramp_shape,
                      regular_potential)
from tumoropt.stepper import Stepper

POTENTIALS = {
    "regular": (regular_potential, None),
    "logarithmic": (logarithmic_potential, None),
    "yosida-obstacle": (obstacle_potential, 0.05),
}


def _reference_jacobian(st: Stepper, mu, phi, sigma, u1k, lam1):
    """The step Jacobian built block by block with scipy.sparse.bmat."""
    if lam1 == 0.0:
        return st._K.copy()
    m = st.m_field(mu, phi, sigma)
    pv = st.nonlin.eval("P", phi)
    dpm = st.nonlin.eval("P", phi, 1) * m
    hpu = st.nonlin.eval("h", phi, 1) * u1k
    dg = sps.diags
    ones = np.ones(st.n)
    d = sps.bmat([
        [dg(pv), dg(-dpm + st.chi * pv + hpu), dg(-pv)],
        [None, dg(st.fsecond(phi)), dg(-st.chi * ones)],
        [dg(-pv), dg(dpm - st.chi * pv), dg(pv)],
    ], format="csc")
    return (st._K + lam1 * d).tocsc()


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


@pytest.mark.parametrize("lam1", [0.0, 1.0])
@pytest.mark.parametrize("coupling", ["full", "vanishing"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("potential", sorted(POTENTIALS))
def test_assembly_matches_block_reference(potential, dim, coupling, lam1):
    st = _stepper(potential, dim, coupling)
    state = _state(st, seed=dim)
    assert np.any(state[3] != 0.0)
    ref = _reference_jacobian(st, *state, lam1)
    jac = st.assemble(*state, lam1=lam1)
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
    def singular(_matrix):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(stepper_module, "splu", singular)
    st = _stepper("regular", 1, "full")
    with pytest.raises(SolverError, match="exactly singular"):
        st.factorize(*_state(st, seed=0))
