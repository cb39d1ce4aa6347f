"""Grid construction, quadrature, and Neumann Laplacian invariants."""

import numpy as np
import pytest

from tumoropt import build_grid, inner


def test_1d_spacing_and_weights():
    g = build_grid(1, [5], [1.0])
    assert g.spacing == (0.25,)
    assert g.n == 5
    # trapezoid: half weights at the two boundary nodes
    assert np.allclose(g.weights, [0.125, 0.25, 0.25, 0.25, 0.125])
    assert g.weights.sum() == pytest.approx(1.0)


def test_2d_weights_sum_to_area():
    g = build_grid(2, [3, 3], [1.0, 2.0])
    assert g.n == 9
    assert g.weights.sum() == pytest.approx(2.0)


def test_too_few_nodes_rejected():
    with pytest.raises(ValueError):
        build_grid(1, [2], [1.0])


def test_non_integral_boolean_or_non_finite_entries_rejected():
    bad = [([9.5], [1.0]), ([True], [1.0]), ([9], [True]),
           ([np.inf], [1.0]), ([9], [np.inf]), ([9], [np.nan])]
    for shape, lengths in bad:
        with pytest.raises(ValueError):
            build_grid(1, shape, lengths)
    assert build_grid(1, [9.0], [1.0]).shape == (9,)


def test_bad_dimension_rejected():
    with pytest.raises(ValueError):
        build_grid(3, [5, 5, 5], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        build_grid(2, [5], [1.0, 1.0])
    with pytest.raises(ValueError):
        build_grid(1, [5], [-1.0])


def test_coordinates_span_the_box():
    g = build_grid(2, [4, 5], [2.0, 3.0])
    c = g.coordinates()
    assert c.shape == (20, 2)
    assert c[:, 0].min() == 0.0 and c[:, 0].max() == pytest.approx(2.0)
    assert c[:, 1].min() == 0.0 and c[:, 1].max() == pytest.approx(3.0)


def test_quadrature_constants_exact():
    g = build_grid(1, [33], [1.0])
    one = np.ones(g.n)
    assert inner(g, one, one) == pytest.approx(1.0, abs=1e-15)


def test_quadrature_x_squared():
    # trapezoid error for f = x^2 on 257 nodes is h^2/6 ~ 2.5e-6
    g = build_grid(1, [257], [1.0])
    x = g.coordinates()[:, 0]
    assert inner(g, x, x) == pytest.approx(1.0 / 3.0, abs=1e-4)


def test_inner_rejects_fields_of_another_shape():
    grid = build_grid(1, [5], [1.0])
    for v, w in ((np.zeros(4), np.zeros(5)), (np.zeros(5), np.zeros((1, 5)))):
        with pytest.raises(ValueError) as info:
            inner(grid, v, w)
        assert str(info.value) == "fields must have shape (5,)"


def test_norm_nonnegative_definite(rng):
    g = build_grid(1, [17], [1.0])
    v = rng.standard_normal(g.n)
    zero = np.zeros(g.n)
    assert inner(g, v, v) > 0.0
    assert inner(g, zero, zero) == 0.0


@pytest.mark.parametrize("dim,shape,lengths", [
    (1, [21], [1.0]),
    (2, [7, 9], [1.0, 2.0]),
])
def test_laplacian_annihilates_constants(dim, shape, lengths):
    g = build_grid(dim, shape, lengths)
    out = g.lap @ np.ones(g.n)
    assert np.abs(out).max() < 1e-13


@pytest.mark.parametrize("dim,shape,lengths", [
    (1, [21], [1.0]),
    (2, [7, 9], [1.0, 2.0]),
])
def test_laplacian_conserves_weighted_sum(dim, shape, lengths, rng):
    g = build_grid(dim, shape, lengths)
    v = rng.standard_normal(g.n)
    assert abs(np.dot(g.weights, g.lap @ v)) < 1e-12


@pytest.mark.parametrize("dim,shape,lengths", [
    (1, [21], [1.0]),
    (2, [7, 9], [1.0, 2.0]),
])
def test_laplacian_weighted_symmetry(dim, shape, lengths, rng):
    g = build_grid(dim, shape, lengths)
    for _ in range(5):
        v = rng.standard_normal(g.n)
        w = rng.standard_normal(g.n)
        lhs = inner(g, g.lap @ v, w)
        rhs = inner(g, v, g.lap @ w)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_laplacian_negative_semidefinite(rng):
    g = build_grid(2, [7, 7], [1.0, 1.0])
    for _ in range(10):
        v = rng.standard_normal(g.n)
        assert inner(g, g.lap @ v, v) <= 1e-12


def test_neumann_eigenfunction_second_order():
    # v = cos(pi x) satisfies the homogeneous Neumann condition; mirrored
    # stencil error decays at second order under mesh halving
    errs = []
    for m in (17, 33, 65, 129):
        g = build_grid(1, [m], [1.0])
        x = g.coordinates()[:, 0]
        v = np.cos(np.pi * x)
        err = g.lap @ v + np.pi**2 * v
        errs.append(np.sqrt(inner(g, err, err)))
    slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(slopes - 2.0) < 0.1)


def test_2d_kron_splits_separable_fields(rng):
    # L(v (x) w) = (Lx v) (x) w + v (x) (Ly w) holds exactly for the sum
    gx = build_grid(1, [9], [1.0])
    gy = build_grid(1, [7], [2.0])
    g2 = build_grid(2, [9, 7], [1.0, 2.0])
    v = rng.standard_normal(9)
    w = rng.standard_normal(7)
    field = np.outer(v, w).ravel()
    lhs = g2.lap @ field
    rhs = (np.outer(gx.lap @ v, w)
           + np.outer(v, gy.lap @ w)).ravel()
    assert np.abs(lhs - rhs).max() < 1e-12


def test_grid_arrays_read_only():
    g = build_grid(1, [5], [1.0])
    with pytest.raises(ValueError):
        g.weights[0] = 7.0


def test_grids_compare_and_hash_by_identity():
    # array fields make a field-wise == ambiguous and the grid unhashable
    a, b = build_grid(1, [5], [1.0]), build_grid(1, [5], [1.0])
    assert a == a and a != b
    assert len({a, b, a}) == 2
