"""Model data: parameters, double-well potentials, nonlinearities, cost, controls.

Potentials are split as F = F1 + F2 with F1 convex (lower semicontinuous,
F1(0) = 0) and F2 a smooth perturbation.  The convex part can be replaced by
its Moreau-Yosida regularization, whose derivative is
F1_eps'(r) = (r - prox_{eps F1}(r)) / eps.  Supported kinds:

* ``regular``      F1 = r^4/4,                    F2 = 1/4 - r^2/2
* ``logarithmic``  F1 = (1+r)ln(1+r)+(1-r)ln(1-r), F2 = -k1 r^2
* ``obstacle``     F1 = indicator of [-1, 1],      F2 = k2 (1 - r^2)
* ``custom``       F1 = 0,                         F2 = polynomial
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def check_ranges(obj, *, positive=(), nonnegative=(), at_least_one=()):
    """Raise a ValueError, starting with the field name, for the first named
    field of `obj` outside its range: a `positive` field must exceed 0, a
    `nonnegative` one must not fall below it and an `at_least_one` count
    must be 1 or more.  A NaN lies outside every range."""
    for names, inside, rule in (
            (positive, lambda v: v > 0, "positive"),
            (nonnegative, lambda v: v >= 0, "nonnegative"),
            (at_least_one, lambda v: v >= 1, "at least 1")):
        for name in names:
            value = getattr(obj, name)
            if not inside(value):
                raise ValueError(f"{name} must be {rule}, got {value}")


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters: viscosities alpha, beta and chemotaxis chi."""

    alpha: float
    beta: float
    chi: float

    def __post_init__(self):
        check_ranges(self, positive=("alpha", "beta"))


_POTENTIAL_KINDS = ("regular", "logarithmic", "obstacle", "custom")


@dataclass(frozen=True, eq=False)
class PotentialSpec:
    """The double well F of one of the kinds above.  The logarithmic kind
    needs k1 > 1 and the obstacle k2 > 0; the custom kind takes the
    coefficients of F2 by increasing degree, kept as a read-only array.

    A positive `yosida_eps` steps the potential with F1 replaced by its
    Yosida regularization F1_eps, defined on the whole line; None steps the
    exact F1.  The obstacle has no classical derivative, so it needs one.
    """

    kind: str
    k1: float = 2.0
    k2: float = 1.0
    coefficients: np.ndarray | None = None
    yosida_eps: float | None = None

    def __post_init__(self):
        if self.kind not in _POTENTIAL_KINDS:
            raise ValueError(f"kind must be one of {list(_POTENTIAL_KINDS)}, "
                             f"got {self.kind!r}")
        if self.kind == "logarithmic" and not self.k1 > 1.0:
            raise ValueError(f"k1 must exceed 1 for the logarithmic kind, "
                             f"got {self.k1}")
        if self.kind == "obstacle" and not self.k2 > 0.0:
            raise ValueError(f"k2 must be positive for the obstacle kind, "
                             f"got {self.k2}")
        if self.yosida_eps is not None and not self.yosida_eps > 0.0:
            raise ValueError(f"yosida_eps must be positive or None, got "
                             f"{self.yosida_eps}")
        if self.kind == "obstacle" and self.yosida_eps is None:
            raise ValueError(
                "yosida_eps must be set for the obstacle kind, which can "
                "only be stepped through its Yosida regularization")
        if self.kind == "custom":
            coeffs = np.array(self.coefficients, dtype=float)
            if coeffs.ndim != 1 or coeffs.size < 1:
                raise ValueError("coefficients must be a non-empty 1-D "
                                 "sequence for the custom kind")
            coeffs.setflags(write=False)
            object.__setattr__(self, "coefficients", coeffs)

    @property
    def domain(self) -> tuple[float, float]:
        """The interval where F is finite: [-1, 1] for the logarithmic and
        obstacle kinds, the whole line otherwise."""
        if self.kind in ("logarithmic", "obstacle"):
            return (-1.0, 1.0)
        return (-np.inf, np.inf)

    @property
    def guarded(self) -> bool:
        """Whether Newton must keep phi strictly inside the separation band
        of the domain: the derivatives of an exact logarithmic potential
        blow up at +-1."""
        return self.kind == "logarithmic" and self.yosida_eps is None

    def eval(self, r: np.ndarray, order: int) -> np.ndarray:
        """The potential a step uses (order 0) or one of its derivatives.

        That is F1 + F2, with the Yosida regularization F1_eps in place of F1
        when `yosida_eps` is set.  There is no domain check: for a `guarded`
        potential the separation ceiling of Newton keeps phi strictly inside
        (-1, 1).
        """
        if self.yosida_eps is None:
            f1 = _f1_eval(self, r, order)
        else:
            f1 = yosida_eval(self, r, order)
        return f1 + _f2_eval(self, r, order)


def _f1_eval(spec: PotentialSpec, r: np.ndarray, order: int) -> np.ndarray:
    """Convex part F1 and derivatives; the caller keeps r in the domain,
    strictly inside it for logarithmic derivatives."""
    if spec.kind == "regular":
        if order == 0:
            return 0.25 * r**4
        if order == 1:
            return r**3
        if order == 2:
            return 3.0 * r**2
        return 6.0 * r
    if spec.kind == "logarithmic":
        if order == 0:
            # r log r -> 0 at r = 0 keeps endpoints finite
            with np.errstate(divide="ignore", invalid="ignore"):
                term_p = np.where(1.0 + r > 0.0, (1.0 + r) * np.log1p(r), 0.0)
                term_m = np.where(1.0 - r > 0.0, (1.0 - r) * np.log1p(-r), 0.0)
            return term_p + term_m
        if order == 1:
            return np.log1p(r) - np.log1p(-r)
        if order == 2:
            return 1.0 / (1.0 + r) + 1.0 / (1.0 - r)
        return -1.0 / (1.0 + r) ** 2 + 1.0 / (1.0 - r) ** 2
    if spec.kind == "obstacle":
        if order == 0:
            inside = (r >= -1.0) & (r <= 1.0)
            return np.where(inside, 0.0, np.inf)
        raise ValueError(
            "obstacle potential has no classical derivatives; "
            "use the Yosida regularization")
    # custom: convex part is identically zero
    return np.zeros_like(r)


def _f2_eval(spec: PotentialSpec, r: np.ndarray, order: int) -> np.ndarray:
    if spec.kind == "regular":
        if order == 0:
            return 0.25 - 0.5 * r**2
        if order == 1:
            return -r
        if order == 2:
            return np.full_like(r, -1.0)
        return np.zeros_like(r)
    if spec.kind == "logarithmic":
        if order == 0:
            return -spec.k1 * r**2
        if order == 1:
            return -2.0 * spec.k1 * r
        if order == 2:
            return np.full_like(r, -2.0 * spec.k1)
        return np.zeros_like(r)
    if spec.kind == "obstacle":
        if order == 0:
            return spec.k2 * (1.0 - r**2)
        if order == 1:
            return -2.0 * spec.k2 * r
        if order == 2:
            return np.full_like(r, -2.0 * spec.k2)
        return np.zeros_like(r)
    c = spec.coefficients
    if order == 0:
        return np.polynomial.polynomial.polyval(r, c)
    dc = np.polynomial.polynomial.polyder(c, order)
    return np.polynomial.polynomial.polyval(r, dc)


def prox_f1(spec: PotentialSpec, r):
    """Proximal map of eps * F1, solved per component, with eps the spec's
    `yosida_eps` (a ValueError when it is None).

    For the regular kind this is the real root of eps s^3 + s = r, for the
    logarithmic kind the root of eps ln((1+s)/(1-s)) + s = r in (-1, 1),
    for the obstacle kind the clamp onto [-1, 1], and the identity for the
    custom kind (F1 = 0).  Smooth kinds use a safeguarded Newton iteration
    driven to round-off.  Each row along the last axis iterates until all
    of its components meet the tolerance, so the rows of a stack come out
    bitwise as if each were mapped alone.
    """
    eps = _yosida_eps(spec)
    arr = np.atleast_1d(np.asarray(r, dtype=float))
    if spec.kind == "obstacle":
        out = np.clip(arr, -1.0, 1.0)
    elif spec.kind == "custom":
        out = arr.copy()
    elif spec.kind == "regular":
        s = arr / (1.0 + eps)
        for _ in range(60):
            g = eps * s**3 + s - arr
            live = ~np.all(np.abs(g) <= 1e-16 * (1.0 + np.abs(arr)), axis=-1)
            if not live.any():
                break
            s = np.where(live[..., None], s - g / (3.0 * eps * s**2 + 1.0), s)
        out = s
    else:  # logarithmic
        # bracket strictly inside (-1, 1); for |r| so large that the root is
        # closer to +-1 than one ulp the endpoint is the representable answer
        edge = np.nextafter(1.0, 0.0)
        lo = np.full_like(arr, -edge)
        hi = np.full_like(arr, edge)
        s = np.clip(arr, -1.0 + 1e-6, 1.0 - 1e-6)
        done = np.zeros(arr.shape[:-1], dtype=bool)
        for _ in range(200):
            g = eps * (np.log1p(s) - np.log1p(-s)) + s - arr
            done |= np.all(np.abs(g) <= 1e-16 * (1.0 + np.abs(arr)), axis=-1)
            if done.all():
                break
            hi = np.where(g > 0.0, s, hi)
            lo = np.where(g < 0.0, s, lo)
            done |= np.all(hi - lo <= 0.0, axis=-1)
            if done.all():
                break
            dg = eps * (1.0 / (1.0 + s) + 1.0 / (1.0 - s)) + 1.0
            step = s - g / dg
            # fall back to bisection when Newton leaves the bracket
            bad = (step <= lo) | (step >= hi)
            s = np.where(done[..., None], s,
                         np.where(bad, 0.5 * (lo + hi), step))
        out = s
    return out if np.ndim(r) else float(out[0])


def _yosida_eps(spec: PotentialSpec) -> float:
    if spec.yosida_eps is None:
        raise ValueError(f"the {spec.kind} potential has no yosida_eps")
    return spec.yosida_eps


def yosida_eval(spec: PotentialSpec, r, order: int = 1):
    """Yosida-regularized convex part F1_eps (order 0) or its k-th
    derivative, with eps the spec's `yosida_eps` (a ValueError when it is
    None).

    Every order is computed from one point s = prox_{eps F1}(r): the envelope
    F1(s) + (r - s)^2 / (2 eps), its derivative (r - s)/eps, then
    f1''(s) / (1 + eps f1''(s)) and f1'''(s) / (1 + eps f1''(s))^3.  For the
    obstacle the second derivative is 0 inside [-1, 1] and 1/eps outside (the
    a.e. derivative of the clamp), and the third is 0.
    """
    if order not in (0, 1, 2, 3):
        raise ValueError(f"order must be in 0..3, got {order}")
    eps = _yosida_eps(spec)
    arr = np.atleast_1d(np.asarray(r, dtype=float))
    s = prox_f1(spec, arr)
    if order == 0:
        out = _f1_eval(spec, s, 0) + (arr - s) ** 2 / (2.0 * eps)
    elif order == 1:
        out = (arr - s) / eps
    elif spec.kind == "obstacle" and order == 2:
        outside = (arr < -1.0) | (arr > 1.0)
        out = np.where(outside, 1.0 / eps, 0.0)
    elif spec.kind in ("obstacle", "custom"):
        out = np.zeros_like(arr)
    else:
        f2nd = _f1_eval(spec, s, 2)
        out = (f2nd / (1.0 + eps * f2nd) if order == 2
               else _f1_eval(spec, s, 3) / (1.0 + eps * f2nd) ** 3)
    return out if np.ndim(r) else float(out[0])


# ---------------------------------------------------------------------------
# proliferation / distribution shapes


_SHAPE_KINDS = ("bump", "constant", "ramp", "table")


@dataclass(frozen=True, eq=False)
class ScalarShape:
    """Scalar function of the phase variable with derivatives up to order 2.

    A bump needs scale >= 0 and width > 0; a table holds at least 2 points,
    with strictly increasing `xs`, as read-only arrays."""

    kind: str
    value: float = 0.0
    scale: float = 1.0
    center: float = 0.0
    width: float = 1.0
    xs: np.ndarray | None = None
    ys: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _SHAPE_KINDS:
            raise ValueError(f"kind must be one of {list(_SHAPE_KINDS)}, "
                             f"got {self.kind!r}")
        if self.kind == "bump":
            check_ranges(self, positive=("width",), nonnegative=("scale",))
        if self.kind == "table":
            xs = np.array(self.xs, dtype=float)
            ys = np.array(self.ys, dtype=float)
            if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
                raise ValueError("xs and ys must be matching 1-D sequences "
                                 "of at least 2 points")
            if np.any(np.diff(xs) <= 0.0):
                raise ValueError("xs must be strictly increasing")
            for name, values in (("xs", xs), ("ys", ys)):
                values.setflags(write=False)
                object.__setattr__(self, name, values)

    def eval(self, r, order: int = 0):
        if order not in (0, 1, 2):
            raise ValueError(f"order must be in 0..2, got {order}")
        arr = np.asarray(r, dtype=float)
        if self.kind == "constant":
            out = np.full_like(arr, self.value) if order == 0 else np.zeros_like(arr)
        elif self.kind == "ramp":
            out = _ramp_eval(arr, order)
        elif self.kind == "bump":
            out, = _bump_eval(self, arr, (order,))
        else:
            out = _table_eval(self.xs, self.ys, arr, order)
        return out if np.ndim(r) else float(out)

    def eval_orders(self, r: np.ndarray, orders: tuple[int, ...]
                    ) -> tuple[np.ndarray, ...]:
        """`eval(r, k)` of an array r for each k in `orders`, bitwise; a
        bump evaluates its Gaussian once for all of them."""
        if self.kind == "bump":
            return _bump_eval(self, np.asarray(r, dtype=float), orders)
        return tuple(self.eval(r, k) for k in orders)


def _bump_eval(shape: ScalarShape, r: np.ndarray, orders) -> tuple:
    z = (r - shape.center) / shape.width
    g = np.exp(-z * z)
    out = []
    for order in orders:
        if order == 0:
            out.append(shape.scale * g)
        elif order == 1:
            out.append(shape.scale * (-2.0 * z / shape.width) * g)
        elif order == 2:
            out.append(shape.scale * (4.0 * z * z - 2.0) / shape.width**2 * g)
        else:
            raise ValueError(f"order must be in 0..2, got {order}")
    return tuple(out)


def _ramp_eval(r: np.ndarray, order: int) -> np.ndarray:
    # C^3 polynomial step: 0 for r <= -1, 1 for r >= 1
    x = np.minimum(np.maximum(0.5 * (r + 1.0), 0.0), 1.0)
    if order == 0:
        # x^4 (35 - 84 x + 70 x^2 - 20 x^3) by Horner, bitwise as polyval
        p = 70.0 - 20.0 * x
        p = -84.0 + p * x
        p = 35.0 + p * x
        return p * x * x * x * x
    if order == 1:
        return 0.5 * 140.0 * x**3 * (1.0 - x) ** 3
    return 0.25 * 420.0 * x**2 * (1.0 - x) ** 2 * (1.0 - 2.0 * x)


def _table_eval(xs: np.ndarray, ys: np.ndarray, r: np.ndarray, order: int) -> np.ndarray:
    if order == 0:
        return np.interp(r, xs, ys)
    if order == 2:
        raise ValueError("table shapes carry no second derivatives; "
                         "use a smooth shape where curvature is required")
    slopes = np.diff(ys) / np.diff(xs)
    idx = np.clip(np.searchsorted(xs, r, side="right") - 1, 0, len(slopes) - 1)
    out = slopes[idx]
    return np.where((r < xs[0]) | (r > xs[-1]), 0.0, out)


# the phase values on which the shapes are checked and their sups taken
_PHI_SAMPLE = np.linspace(-2.0, 2.0, 401)


@dataclass(frozen=True, eq=False)
class NonlinearitySpec:
    """Shapes P (proliferation) and H (source), both nonnegative, with their
    sups on [-2, 2]."""

    P: ScalarShape
    H: ScalarShape

    def __post_init__(self):
        for name in ("P", "H"):
            # a NaN fails the test as well
            if not np.all(getattr(self, name).eval(_PHI_SAMPLE) >= -1e-12):
                raise ValueError(f"{name} must be nonnegative on [-2, 2]")

    sup_P = property(lambda self: float(np.abs(self.P.eval(_PHI_SAMPLE)).max()))
    sup_H = property(lambda self: float(np.abs(self.H.eval(_PHI_SAMPLE)).max()))


# ---------------------------------------------------------------------------
# cost, controls, box constraints


@dataclass(frozen=True, eq=False)
class CostSpec:
    """Tracking weights and targets for the reduced cost."""

    b0: float
    b1: float = 0.0
    b2: float = 0.0
    target_Q: np.ndarray | None = None       # (N_t+1, n) space-time target
    target_Omega: np.ndarray | None = None   # (n,) final-time target

    def __post_init__(self):
        for name in ("b0", "b1", "b2", "target_Q", "target_Omega"):
            value = getattr(self, name)
            if value is not None and not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
        check_ranges(self, positive=("b0",), nonnegative=("b1", "b2"))


@dataclass(eq=False)
class Control:
    """Pair of space-time control fields, stacked as the two rows of one
    (2, N_t+1, n) array `v`; `u1` and `u2` are views of the rows, so
    `Control([u1, u2])` builds one from two fields."""

    v: np.ndarray

    u1 = property(lambda self: self.v[0])
    u2 = property(lambda self: self.v[1])
    shape = property(lambda self: self.v.shape[1:])

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=float)
        if self.v.ndim != 3 or len(self.v) != 2:
            raise ValueError("u1 and u2 must share a (N_t+1, n) shape")
        if not np.all(np.isfinite(self.v)):
            raise ValueError("u1 and u2 must be finite")

    def copy(self) -> "Control":
        return Control(self.v.copy())


def zero_control(n_levels: int, n_nodes: int) -> Control:
    return Control(np.zeros((2, n_levels, n_nodes)))


@dataclass(frozen=True, eq=False)
class BoxConstraints:
    """Pointwise bounds for both control components; entries may be +-inf,
    but a lower bound of +inf or an upper bound of -inf admits no control.
    `lower` and `upper` stack the bounds of both components as `Control.v`
    stacks the components, each bound a number or a field."""

    lower1: np.ndarray | float = -np.inf
    upper1: np.ndarray | float = np.inf
    lower2: np.ndarray | float = -np.inf
    upper2: np.ndarray | float = np.inf
    lower: np.ndarray = field(init=False, repr=False)
    upper: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for tag in ("1", "2"):
            lo = np.asarray(getattr(self, "lower" + tag))
            hi = np.asarray(getattr(self, "upper" + tag))
            # a NaN fails both comparisons
            if not np.all(lo < np.inf):
                raise ValueError(f"lower{tag} must be below +inf and not NaN")
            if not np.all(hi > -np.inf):
                raise ValueError(f"upper{tag} must be above -inf and not NaN")
            if np.any(lo > hi):
                raise ValueError(f"lower{tag} must not exceed upper{tag}")
        for side in ("lower", "upper"):
            pair = [np.asarray(getattr(self, side + tag), dtype=float)
                    for tag in "12"]
            object.__setattr__(self, side, np.stack(
                [np.atleast_2d(b) for b in np.broadcast_arrays(*pair)]))

    def span(self) -> float:
        """Largest finite bound magnitude, used to scale boundary tolerances."""
        flat = np.concatenate([self.lower.ravel(), self.upper.ravel()])
        flat = flat[np.isfinite(flat)]
        return float(np.max(np.abs(flat))) if flat.size else 1.0


def project_admissible(u: Control, box: BoxConstraints) -> Control:
    """Pointwise projection onto the admissible box."""
    return Control(np.minimum(np.maximum(u.v, box.lower), box.upper))
