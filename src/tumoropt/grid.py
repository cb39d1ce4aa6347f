"""Uniform vertex-centered grids with Neumann structure.

Fields are flat numpy arrays with one value per node (C order for 2-D).
The Laplacian uses the standard second-order stencil with mirror reflection
across the boundary, which makes it symmetric in the trapezoid-weighted
inner product, conservative, and exact on constants.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform grid on a 1-D interval or 2-D rectangle.

    Attributes
    ----------
    dim : int
        Spatial dimension, 1 or 2.
    shape : tuple of int
        Nodes per axis (>= 3 each).
    lengths : tuple of float
        Domain extent per axis.
    spacing : tuple of float
        Mesh width per axis, lengths[i] / (shape[i] - 1).
    weights : ndarray
        Trapezoid quadrature weight per node, flat, C order.
    """

    dim: int
    shape: tuple[int, ...]
    lengths: tuple[float, ...]
    spacing: tuple[float, ...]
    weights: np.ndarray
    lap: sps.csr_matrix = field(repr=False)

    @functools.cached_property
    def n(self) -> int:
        return int(np.prod(self.shape))

    def coordinates(self) -> np.ndarray:
        """Node coordinates as an (n, dim) array, C-order flattening."""
        axes = [np.linspace(0.0, l, m) for m, l in zip(self.shape, self.lengths)]
        if self.dim == 1:
            return axes[0][:, None]
        xg, yg = np.meshgrid(axes[0], axes[1], indexing="ij")
        return np.column_stack([xg.ravel(), yg.ravel()])


def _lap_1d(m: int, h: float) -> sps.csr_matrix:
    a = 1.0 / (h * h)
    main = np.full(m, -2.0 * a)
    off = np.full(m - 1, a)
    lap = sps.diags([off, main, off], [-1, 0, 1], format="lil")
    # mirror reflection: ghost node equals first interior neighbor
    lap[0, 1] = 2.0 * a
    lap[m - 1, m - 2] = 2.0 * a
    return lap.tocsr()


def build_grid(dim: int, shape: list[int] | tuple[int, ...],
               lengths: list[float] | tuple[float, ...]) -> Grid:
    """Construct a uniform grid with quadrature weights and Laplacian.

    Parameters
    ----------
    dim : int
        1 or 2.
    shape : sequence of int
        Node count per axis, each >= 3.
    lengths : sequence of float
        Positive domain extent per axis.
    """
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    if any(isinstance(v, bool) for v in (*shape, *lengths)):
        raise ValueError(
            f"shape and lengths must hold numbers, got {list(shape)} and "
            f"{list(lengths)}")
    if not all(float(m).is_integer() for m in shape):
        raise ValueError(f"shape must hold integers, got {list(shape)}")
    shape = tuple(int(m) for m in shape)
    lengths = tuple(float(l) for l in lengths)
    if len(shape) != dim or len(lengths) != dim:
        raise ValueError(
            f"shape and lengths must have {dim} entries, got {len(shape)} and {len(lengths)}")
    for m in shape:
        if m < 3:
            raise ValueError(f"shape needs at least 3 nodes per axis, got {m}")
    for l in lengths:
        if not (math.isfinite(l) and l > 0.0):
            raise ValueError(
                f"lengths must be positive and finite, got {l}")

    spacing = tuple(l / (m - 1) for m, l in zip(shape, lengths))

    def axis_weights(m: int, h: float) -> np.ndarray:
        w = np.full(m, h)
        w[0] = w[-1] = 0.5 * h
        return w

    if dim == 1:
        weights = axis_weights(shape[0], spacing[0])
        lap = _lap_1d(shape[0], spacing[0])
    else:
        wx = axis_weights(shape[0], spacing[0])
        wy = axis_weights(shape[1], spacing[1])
        weights = np.outer(wx, wy).ravel()
        lx = _lap_1d(shape[0], spacing[0])
        ly = _lap_1d(shape[1], spacing[1])
        ix = sps.identity(shape[0], format="csr")
        iy = sps.identity(shape[1], format="csr")
        lap = (sps.kron(lx, iy) + sps.kron(ix, ly)).tocsr()

    weights.setflags(write=False)
    return Grid(dim=dim, shape=shape, lengths=lengths, spacing=spacing,
                weights=weights, lap=lap)


def inner(grid: Grid, v: np.ndarray, w: np.ndarray) -> float:
    """Trapezoid-weighted L2 inner product of two nodal fields."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if v.shape != (grid.n,) or w.shape != (grid.n,):
        raise ValueError(f"fields must have shape ({grid.n},)")
    return float(np.dot(grid.weights, v * w))
