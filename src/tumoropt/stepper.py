"""Shared assembly for one implicit time step and its linearizations.

The backward Euler step for the three coupled fields x = (mu, phi, sigma)
solves R(x; x_prev, u) = 0 with

    R1 = a/dt (mu-mu-) + 1/dt (phi-phi-) - Lap mu - P(phi) m + h(phi) u1
    R2 = b/dt (phi-phi-) - Lap phi + F'(phi) - mu - chi sigma
    R3 = 1/dt (sigma-sigma-) - Lap sigma + chi Lap phi + P(phi) m - u2

where m = sigma + chi (1 - phi) - mu.  The Jacobian of R at a state snapshot
doubles as the step operator of the linearized, bilinearized and adjoint
systems, all coupled between levels by one matrix B (`Stepper.transport`).
A level of any of them is stacked (length 3n), a history is (N_t+1, 3n),
and `Stepper.split` gives the three fields of either as views.

All inner products are trapezoid-weighted, and every Jacobian block is
self-adjoint with respect to those weights.  The adjoint step can therefore
reuse a factorization of the forward Jacobian: solving A* y = s amounts to
y = W^-1 A^-T (W s), which every step factor provides via trans="T".  A 1-D
Jacobian is a narrow band and is factored by LAPACK (`BandLU`); a 2-D one
by SuperLU.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.sparse as sps
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.sparse.linalg import splu

from .errors import SolverError
from .grid import Grid
from .model import ModelParams, NonlinearitySpec, PotentialSpec

# (row, column) blocks of the Jacobian that carry a reaction diagonal
_REACTION_BLOCKS = ((0, 0), (0, 1), (0, 2), (1, 1),
                    (2, 0), (2, 1), (2, 2))
# the one constant reaction diagonal, -chi of the sigma term of R2
_CONSTANT_BLOCK = (1, 2)

# LAPACK's `trans` argument for SuperLU's trans="N" and "T"
_LAPACK_TRANS = {"N": 0, "T": 1}


class BandLU:
    """LAPACK band LU (dgbtrf) of a 1-D step Jacobian.

    The factor holds the Jacobian in node-interleaved order (mu_i, phi_i,
    sigma_i), in which every entry lies at most `kl` rows below and `ku`
    rows above the diagonal.  `solve` takes and returns the stacked order
    (mu, phi, sigma) with SuperLU's protocol: b of shape (3n,) or (3n, m),
    trans "N" for A x = b and "T" for A^T x = b.  `nnz` counts the stored
    band entries.
    """

    def __init__(self, lu: np.ndarray, ipiv: np.ndarray, kl: int, ku: int,
                 perm: np.ndarray, inv_perm: np.ndarray):
        self._lu = lu
        self._ipiv = ipiv
        self.kl = kl
        self.ku = ku
        self._perm = perm           # stacked index of each interleaved one
        self._inv_perm = inv_perm   # interleaved index of each stacked one
        self.nnz = lu.size

    def solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        x, _ = dgbtrs(self._lu, self.kl, self.ku, b[self._perm], self._ipiv,
                      trans=_LAPACK_TRANS[trans], overwrite_b=True)
        return x[self._inv_perm]


class SecondOrderCoefficients(NamedTuple):
    """Pointwise factors of the bilinearized step source that depend only on
    the state and control: m, P'(phi), P''(phi), h'(phi), h''(phi), F'''(phi)
    and u1, each shaped like the phi field they were evaluated on."""

    m: np.ndarray
    dp: np.ndarray
    ddp: np.ndarray
    dh: np.ndarray
    ddh: np.ndarray
    d3f: np.ndarray
    u1: np.ndarray


class Stepper:
    """Residuals, Jacobians and transport for one backward Euler step."""

    def __init__(self, grid: Grid, params: ModelParams, potential: PotentialSpec,
                 nonlin: NonlinearitySpec, dt: float):
        if dt <= 0.0:
            raise ValueError("time step must be positive")
        self.grid = grid
        self.params = params
        self.potential = potential
        self.nonlin = nonlin
        self.dt = float(dt)
        # a 2-D step LU goes to SuperLU and costs far more than a residual;
        # a 1-D band LU costs about as much as one
        self.superlu = grid.dim == 2

        n = grid.n
        self.n = n
        self.s_a = params.alpha / dt
        self.s_b = params.beta / dt
        self.s = 1.0 / dt
        self.chi = params.chi

        eye = sps.identity(n, format="csr")
        lap = grid.lap
        # the Laplacian of each field of a stacked level in one product; its
        # rows are those of `lap`, so each sums in the same order
        self._lap3 = sps.block_diag([lap] * 3, format="csr")
        # coupling of consecutive levels: (s_a mu + s phi, s_b phi, s sigma)
        self.transport = sps.bmat([
            [self.s_a * eye, self.s * eye, None],
            [None, self.s_b * eye, None],
            [None, None, self.s * eye],
        ], format="csr")
        # state-independent transport and diffusion part of the Jacobian
        base = sps.bmat([
            [self.s_a * eye - lap, self.s * eye, None],
            [-eye, self.s_b * eye - lap, None],
            [None, self.chi * lap, self.s * eye - lap],
        ], format="csc")
        # Fixed CSC pattern of the full Jacobian: `base` plus the reaction
        # diagonals of the blocks in _REACTION_BLOCKS and _CONSTANT_BLOCK,
        # duplicates summed and indices sorted.  `_base_data` holds base's
        # values on that pattern, the constant diagonal added, and
        # `_diag_slots` maps each state-dependent diagonal entry to its slot
        # in the data array.
        size = 3 * n
        node = np.arange(n)
        blocks = _REACTION_BLOCKS + (_CONSTANT_BLOCK,)
        diag_rows = np.concatenate([i * n + node for i, _ in blocks])
        diag_cols = np.concatenate([j * n + node for _, j in blocks])
        base_coo = base.tocoo()
        full = sps.csc_matrix(
            (np.concatenate([base_coo.data, np.zeros(diag_rows.size)]),
             (np.concatenate([base_coo.row, diag_rows]),
              np.concatenate([base_coo.col, diag_cols]))), shape=(size, size))
        full.sum_duplicates()
        # (column, row) keys of the pattern, ascending in CSC order
        keys = (np.repeat(np.arange(size), np.diff(full.indptr)) * size
                + full.indices)
        slots = np.searchsorted(keys, diag_cols * size + diag_rows)
        # -chi added to the pattern's zero, as a sparse sum adds it: chi = 0
        # leaves +0.0 there
        full.data[slots[-n:]] += -self.chi
        self._base_data = full.data
        self._diag_slots = slots[:-n]
        if not self.superlu:
            self._init_band(full.indices, keys // size)
        # the base and slots of `jacobian_values`, and the bytes of one row
        self._values = ((self._base_data, self._diag_slots) if self.superlu
                        else (self._band_base, self._band_slots))
        self.values_nbytes = self._values[0].nbytes
        self._indices = full.indices
        self._indptr = full.indptr
        # shared by every assembled matrix, so no caller may edit them in place
        self._indices.setflags(write=False)
        self._indptr.setflags(write=False)
        self.w3 = np.concatenate([grid.weights] * 3)
        # scale of residual entries, used for convergence thresholds
        row_abs = np.abs(lap).sum(axis=1).max()
        self.coef_scale = float((params.alpha + params.beta + 1.0) / dt
                                + 3.0 * row_abs
                                + nonlin.sup_P * (1.0 + params.chi)
                                + nonlin.sup_H)

    def _init_band(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """LAPACK band storage of the 1-D Jacobian pattern.

        `rows` and `cols` are the stacked indices of the pattern's slots.  In
        node-interleaved order the three-point stencil keeps every entry
        within kl rows below and ku rows above the diagonal (kl = 4 from
        chi Lap in the sigma row, ku = 3).  `_band_base` holds `_base_data`
        in dgbtrf's (2 kl + ku + 1, 3n) Fortran-ordered storage, flattened,
        and `_band_slots` maps each reaction-diagonal entry to its position
        there.
        """
        stacked = np.arange(3 * self.n)
        # interleaved index of each stacked one, and the stacked index of
        # each interleaved one
        self._band_inv_perm = 3 * (stacked % self.n) + stacked // self.n
        self._band_perm = np.argsort(self._band_inv_perm)
        rows = self._band_inv_perm[rows]
        cols = self._band_inv_perm[cols]
        self._kl = int(np.max(rows - cols))
        self._ku = int(np.max(cols - rows))
        self._ldab = 2 * self._kl + self._ku + 1
        pos = self._kl + self._ku + rows - cols + self._ldab * cols
        self._band_base = np.zeros(self._ldab * stacked.size)
        self._band_base[pos] = self._base_data
        self._band_slots = pos[self._diag_slots]

    # -- residual and Jacobian ---------------------------------------------

    @staticmethod
    def split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Views of the three fields of a level (3n,) or history (L, 3n)."""
        n = x.shape[-1] // 3
        return x[..., :n], x[..., n:2 * n], x[..., 2 * n:]

    def m_field(self, mu, phi, sigma) -> np.ndarray:
        return sigma + self.chi * (1.0 - phi) - mu

    def reaction_terms(self, x: np.ndarray, u1: np.ndarray):
        """Pointwise first-order reaction coefficients at a stacked state.

        Returns (P, P' m, h' u1, F'') evaluated at phi, with m the field of
        `m_field`: the values that fill the reaction diagonals of the step
        Jacobian and the reaction terms of the adjoint equations.
        """
        mu, phi, sigma = self.split(x)
        m = self.m_field(mu, phi, sigma)
        p, dp = self.nonlin.P.eval_orders(phi, (0, 1))
        return (p, dp * m, self.nonlin.H.eval(phi, 1) * u1,
                self.potential.eval(phi, 2))

    def second_order_coefficients(self, x: np.ndarray,
                                  u1: np.ndarray) -> SecondOrderCoefficients:
        """The state-only factors of `second_order_source` at a state `x`
        and control component `u1`: one level or whole histories."""
        mu, phi, sigma = self.split(x)
        dp, ddp = self.nonlin.P.eval_orders(phi, (1, 2))
        dh, ddh = self.nonlin.H.eval_orders(phi, (1, 2))
        return SecondOrderCoefficients(
            m=self.m_field(mu, phi, sigma), dp=dp, ddp=ddp, dh=dh, ddh=ddh,
            d3f=self.potential.eval(phi, 3), u1=u1)

    def second_order_source(self, coef: SecondOrderCoefficients,
                            yh: np.ndarray, yk: np.ndarray,
                            h1: np.ndarray, k1: np.ndarray) -> np.ndarray:
        """Source S(h, k) of the bilinearized step, pointwise in space and time.

        The second derivative of the step residual, moved to the right-hand
        side, applied to the first-order fields of two control directions.
        `coef` holds the factors at the state and control
        (`second_order_coefficients`), `yh` and `yk` the linearized states of
        the two directions and `h1`, `k1` their u1 components: one level or
        whole histories.  Paired with the step multipliers the stacked source
        gives the adjoint term of the Hessian form.
        """
        eta_h, xih, theta_h = self.split(yh)
        eta_k, xik, theta_k = self.split(yk)
        mh = theta_h - self.chi * xih - eta_h
        mk = theta_k - self.chi * xik - eta_k
        reaction = (coef.ddp * xih * xik * coef.m
                    + coef.dp * (xih * mk + xik * mh))
        s1 = (reaction - coef.ddh * xih * xik * coef.u1
              - coef.dh * (xih * k1 + xik * h1))
        s2 = -coef.d3f * xih * xik
        return np.concatenate([s1, s2, -reaction], axis=-1)

    def second_order_source_adjoint(self, coef: SecondOrderCoefficients,
                                    lam: np.ndarray, yh: np.ndarray,
                                    h1: np.ndarray
                                    ) -> tuple[np.ndarray, np.ndarray]:
        """Derivatives of the pairing <lam, S(h, k)> in the linearized state
        yk and in the u1 component k1 of the second direction, pointwise in
        space and time.

        `lam` holds stacked multipliers (p, q, r) and the rest is as in
        `second_order_source`, whose pairing with `lam` is the stacked state
        part paired with yk plus the u1 part, -p h'(phi) xih, paired with k1:
        the source of the backward march of a Hessian-vector product and
        the reaction term of the product itself.
        """
        p, q, r = self.split(lam)
        eta_h, xih, theta_h = self.split(yh)
        mh = theta_h - self.chi * xih - eta_h
        # the reaction term enters s1 and -s3, so it pairs with p - r
        pr = p - r
        react = pr * coef.dp * xih
        d_xi = (pr * (coef.ddp * xih * coef.m + coef.dp * mh)
                - self.chi * react
                - p * (coef.ddh * xih * coef.u1 + coef.dh * h1)
                - q * coef.d3f * xih)
        return (np.concatenate([-react, d_xi, react], axis=-1),
                -p * coef.dh * xih)

    def residual(self, x: np.ndarray, x_prev: np.ndarray,
                 u1k: np.ndarray, u2k: np.ndarray) -> np.ndarray:
        """Step residual at a stacked state x (3n,), or at rows (m, 3n) of
        them with rows of x_prev, u1k and u2k: row i is the residual of row
        i, bitwise as if it were evaluated alone."""
        mu, phi, sigma = self.split(x)
        pm = self.nonlin.P.eval(phi) * self.m_field(mu, phi, sigma)
        # .T leaves one level as it is: a level and stacked rows share a path
        lap = (self._lap3 @ x.T).T
        # the time differences are the transport of x - x_prev; the terms
        # are then added in place, in the order of the formulas above
        res = (self.transport @ (x - x_prev).T).T
        res -= lap
        r1, r2, r3 = self.split(res)
        r1 -= pm
        r1 += self.nonlin.H.eval(phi) * u1k
        r2 += self.potential.eval(phi, 1)
        r2 -= mu
        r2 -= self.chi * sigma
        r3 += self.chi * self.split(lap)[1]
        r3 += pm
        r3 -= u2k
        return res

    def _jacobian_data(self, x: np.ndarray, u1k: np.ndarray) -> np.ndarray:
        """Values of the Jacobian's reaction diagonals at a stacked state,
        one block of _REACTION_BLOCKS after another."""
        pv, dpm, hpu, f2 = self.reaction_terms(x, u1k)
        return np.concatenate([
            pv, -dpm + self.chi * pv + hpu, -pv, f2,
            -pv, dpm - self.chi * pv, pv,
        ], axis=-1)

    def _with_reaction(self, base: np.ndarray, slots: np.ndarray,
                       x: np.ndarray, u1k: np.ndarray) -> np.ndarray:
        """A copy of `base` per state, the reaction diagonals of the
        Jacobian at that state added at `slots`: (len(base),) for one
        state x (3n,), (m, len(base)) for rows (m, 3n)."""
        data = self._jacobian_data(x, u1k)
        if x.ndim == 1:
            values = base.copy()
            values[slots] += data
        else:
            values = np.repeat(base[None], len(x), axis=0)
            values[:, slots] += data
        return values

    def assemble(self, x: np.ndarray, u1k: np.ndarray) -> sps.csc_matrix:
        """Jacobian of the step residual at a stacked state `x` (3n,).

        The values are written into the sparsity pattern fixed at
        construction (the transport and diffusion part plus all reaction
        diagonals).  When no entry vanishes the result uses that pattern as
        is, and its index arrays are shared between calls and read-only;
        entries that vanish are dropped from a private copy of the pattern.
        """
        return self._csc(self._with_reaction(self._base_data,
                                             self._diag_slots, x, u1k))

    def _csc(self, data: np.ndarray) -> sps.csc_matrix:
        size = 3 * self.n
        if data.all():
            return sps.csc_matrix((data, self._indices, self._indptr),
                                  shape=(size, size), copy=False)
        # Vanished entries (chi = 0, P = 0, ...) are dropped, as a sparse sum
        # drops them: explicit zeros would change SuperLU's column ordering.
        jac = sps.csc_matrix((data, self._indices.copy(), self._indptr.copy()),
                             shape=(size, size), copy=False)
        jac.eliminate_zeros()
        return jac

    def jacobian_values(self, x: np.ndarray, u1k: np.ndarray) -> np.ndarray:
        """The Jacobian values `factorize` takes (the fixed CSC pattern's
        data in 2-D, band storage in 1-D) at a stacked state x (3n,), or at
        rows (m, 3n) of them with rows (m, n) of u1k, row i bitwise that of
        state i alone."""
        return self._with_reaction(*self._values, x, u1k)

    def factorize(self, values: np.ndarray):
        """LU of the step Jacobian from one row of its `jacobian_values`;
        SolverError if it cannot be formed.

        Either factor solves `solve(b, trans="N"|"T")` in the stacked order
        and counts its stored entries in `nnz`.  A 1-D Jacobian is factored
        in its band storage by LAPACK (`BandLU`), in place, so the factor
        holds `values`; no sparse matrix is formed.  A 2-D Jacobian goes to
        SuperLU with minimum degree on A^T + A: the matrix is structurally
        symmetric, and that order leaves far less fill than COLAMD (204k
        against 354k nonzeros in L + U on a 33x33 grid), so both its factor
        and its solves are faster.
        """
        if not np.isfinite(values).all():
            raise SolverError("non-finite Jacobian entries")
        if self.superlu:
            try:
                return splu(self._csc(values), permc_spec="MMD_AT_PLUS_A")
            except RuntimeError as exc:
                raise SolverError(f"sparse LU failed: {exc}") from None
        # the (ldab, 3n) Fortran-ordered view dgbtrf factors in place
        lu, ipiv, info = dgbtrf(values.reshape(-1, self._ldab).T, self._kl,
                                self._ku, overwrite_ab=True)
        if info > 0:
            raise SolverError(
                f"band LU failed: exactly singular at column {info}")
        return BandLU(lu, ipiv, self._kl, self._ku, self._band_perm,
                      self._band_inv_perm)

    def solve_adjoint_step(self, lu, rhs: np.ndarray) -> np.ndarray:
        """Solve A* y = rhs where A* is the weighted-inner-product transpose,
        for rhs of shape (3n,) or a block (3n, m)."""
        w3 = self.w3 if rhs.ndim == 1 else self.w3[:, None]
        return lu.solve(w3 * rhs, trans="T") / w3
