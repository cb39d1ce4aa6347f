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

_RAMP_COEFFS = np.array([0.0, 0.0, 0.0, 0.0, 35.0, -84.0, 70.0, -20.0])


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters: viscosities alpha, beta, chemotaxis chi, horizon T."""

    alpha: float
    beta: float
    chi: float
    T: float

    def __post_init__(self):
        if self.alpha <= 0.0 or self.beta <= 0.0:
            raise ValueError("alpha and beta must be positive")
        if self.T <= 0.0:
            raise ValueError("final time T must be positive")


@dataclass(frozen=True, eq=False)
class PotentialSpec:
    kind: str
    k1: float = 2.0
    k2: float = 1.0
    domain: tuple[float, float] = (-np.inf, np.inf)
    coefficients: np.ndarray | None = None

    @property
    def singular(self) -> bool:
        """True when the potential confines r to a bounded interval."""
        return self.kind in ("logarithmic", "obstacle")


def regular_potential() -> PotentialSpec:
    return PotentialSpec(kind="regular")


def logarithmic_potential(k1: float = 2.0) -> PotentialSpec:
    if k1 <= 1.0:
        raise ValueError("logarithmic potential needs k1 > 1")
    return PotentialSpec(kind="logarithmic", k1=k1, domain=(-1.0, 1.0))


def obstacle_potential(k2: float = 1.0) -> PotentialSpec:
    if k2 <= 0.0:
        raise ValueError("obstacle potential needs k2 > 0")
    return PotentialSpec(kind="obstacle", k2=k2, domain=(-1.0, 1.0))


def custom_polynomial_potential(coefficients) -> PotentialSpec:
    coeffs = np.asarray(coefficients, dtype=float)
    if coeffs.ndim != 1 or coeffs.size < 1:
        raise ValueError("coefficients must be a non-empty 1-D sequence")
    coeffs = coeffs.copy()
    coeffs.setflags(write=False)
    return PotentialSpec(kind="custom", coefficients=coeffs)


def _f1_eval(spec: PotentialSpec, r: np.ndarray, order: int) -> np.ndarray:
    """Convex part F1 and derivatives; r is assumed domain-checked."""
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


def _check_domain(spec: PotentialSpec, r: np.ndarray, order: int) -> None:
    lo, hi = spec.domain
    if not np.isfinite(lo):
        return
    if spec.kind == "logarithmic" and order >= 1:
        # derivatives blow up at the endpoints
        if np.any(r <= lo) or np.any(r >= hi):
            raise ValueError(
                "logarithmic potential derivatives need values strictly inside (-1, 1)")
    elif spec.kind == "logarithmic":
        if np.any(r < lo) or np.any(r > hi):
            raise ValueError("logarithmic potential is undefined outside [-1, 1]")
    # obstacle order 0 returns inf outside instead of raising


def potential_eval(spec: PotentialSpec, r, order: int = 0):
    """Evaluate F = F1 + F2 or one of its first three derivatives.

    Parameters
    ----------
    spec : PotentialSpec
    r : array_like
        Evaluation points.
    order : int
        0..3; order k returns the k-th derivative.
    """
    if order not in (0, 1, 2, 3):
        raise ValueError(f"order must be in 0..3, got {order}")
    arr = np.asarray(r, dtype=float)
    _check_domain(spec, arr, order)
    out = _f1_eval(spec, arr, order) + _f2_eval(spec, arr, order)
    return out if np.ndim(r) else float(out)


def prox_f1(spec: PotentialSpec, eps: float, r):
    """Proximal map of eps * F1, solved per component.

    For the regular kind this is the real root of eps s^3 + s = r, for the
    logarithmic kind the root of eps ln((1+s)/(1-s)) + s = r in (-1, 1),
    for the obstacle kind the clamp onto [-1, 1], and the identity for the
    custom kind (F1 = 0).  Smooth kinds use a safeguarded Newton iteration
    driven to round-off.
    """
    if eps <= 0.0:
        raise ValueError("Yosida parameter eps must be positive")
    arr = np.atleast_1d(np.asarray(r, dtype=float))
    if spec.kind == "obstacle":
        out = np.clip(arr, -1.0, 1.0)
    elif spec.kind == "custom":
        out = arr.copy()
    elif spec.kind == "regular":
        s = arr / (1.0 + eps)
        for _ in range(60):
            g = eps * s**3 + s - arr
            if np.all(np.abs(g) <= 1e-16 * (1.0 + np.abs(arr))):
                break
            s = s - g / (3.0 * eps * s**2 + 1.0)
        out = s
    elif spec.kind == "logarithmic":
        # bracket strictly inside (-1, 1); for |r| so large that the root is
        # closer to +-1 than one ulp the endpoint is the representable answer
        edge = np.nextafter(1.0, 0.0)
        lo = np.full_like(arr, -edge)
        hi = np.full_like(arr, edge)
        s = np.clip(arr, -1.0 + 1e-6, 1.0 - 1e-6)
        for _ in range(200):
            g = eps * (np.log1p(s) - np.log1p(-s)) + s - arr
            if np.all(np.abs(g) <= 1e-16 * (1.0 + np.abs(arr))):
                break
            hi = np.where(g > 0.0, s, hi)
            lo = np.where(g < 0.0, s, lo)
            if np.all(hi - lo <= 0.0):
                break
            dg = eps * (1.0 / (1.0 + s) + 1.0 / (1.0 - s)) + 1.0
            step = s - g / dg
            # fall back to bisection when Newton leaves the bracket
            bad = (step <= lo) | (step >= hi)
            s = np.where(bad, 0.5 * (lo + hi), step)
        out = s
    else:
        raise ValueError(f"unknown potential kind {spec.kind!r}")
    return out if np.ndim(r) else float(out[0])


def yosida_derivative(spec: PotentialSpec, eps: float, r):
    """Derivative of the Yosida-regularized convex part, (r - prox)/eps."""
    arr = np.asarray(r, dtype=float)
    out = (arr - prox_f1(spec, eps, arr)) / eps
    return out if np.ndim(r) else float(out)


def yosida_second(spec: PotentialSpec, eps: float, r):
    """Second derivative of the regularized convex part.

    Equals f1''(s) / (1 + eps f1''(s)) at s = prox(r); for the obstacle this
    is 0 inside [-1, 1] and 1/eps outside (the a.e. derivative of the clamp).
    """
    arr = np.atleast_1d(np.asarray(r, dtype=float))
    if spec.kind == "obstacle":
        outside = (arr < -1.0) | (arr > 1.0)
        out = np.where(outside, 1.0 / eps, 0.0)
    elif spec.kind == "custom":
        out = np.zeros_like(arr)
    else:
        s = prox_f1(spec, eps, arr)
        f2nd = _f1_eval(spec, s, 2)
        out = f2nd / (1.0 + eps * f2nd)
    return out if np.ndim(r) else float(out[0])


def yosida_third(spec: PotentialSpec, eps: float, r):
    """Third derivative of the regularized convex part, f1'''(s)/(1+eps f1''(s))^3."""
    arr = np.atleast_1d(np.asarray(r, dtype=float))
    if spec.kind in ("obstacle", "custom"):
        out = np.zeros_like(arr)
    else:
        s = prox_f1(spec, eps, arr)
        f2nd = _f1_eval(spec, s, 2)
        f3rd = _f1_eval(spec, s, 3)
        out = f3rd / (1.0 + eps * f2nd) ** 3
    return out if np.ndim(r) else float(out[0])


# ---------------------------------------------------------------------------
# proliferation / distribution shapes


@dataclass(frozen=True, eq=False)
class ScalarShape:
    """Scalar function of the phase variable with derivatives up to order 2."""

    kind: str
    value: float = 0.0
    scale: float = 1.0
    center: float = 0.0
    width: float = 1.0
    xs: np.ndarray | None = None
    ys: np.ndarray | None = None

    def eval(self, r, order: int = 0):
        if order not in (0, 1, 2):
            raise ValueError(f"order must be in 0..2, got {order}")
        arr = np.asarray(r, dtype=float)
        if self.kind == "constant":
            out = np.full_like(arr, self.value) if order == 0 else np.zeros_like(arr)
        elif self.kind == "ramp":
            out = _ramp_eval(arr, order)
        elif self.kind == "bump":
            z = (arr - self.center) / self.width
            g = np.exp(-z * z)
            if order == 0:
                out = self.scale * g
            elif order == 1:
                out = self.scale * (-2.0 * z / self.width) * g
            else:
                out = self.scale * (4.0 * z * z - 2.0) / self.width**2 * g
        elif self.kind == "table":
            out = _table_eval(self.xs, self.ys, arr, order)
        else:
            raise ValueError(f"unknown shape kind {self.kind!r}")
        return out if np.ndim(r) else float(out)

    @property
    def smooth(self) -> bool:
        return self.kind != "table"


def _ramp_eval(r: np.ndarray, order: int) -> np.ndarray:
    # C^3 polynomial step: 0 for r <= -1, 1 for r >= 1
    x = np.clip(0.5 * (r + 1.0), 0.0, 1.0)
    if order == 0:
        return np.polynomial.polynomial.polyval(x, _RAMP_COEFFS)
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


def constant_shape(value: float) -> ScalarShape:
    return ScalarShape(kind="constant", value=float(value))


def ramp_shape() -> ScalarShape:
    return ScalarShape(kind="ramp")


def bump_shape(scale: float = 1.0, center: float = 0.0, width: float = 1.0) -> ScalarShape:
    if scale < 0.0 or width <= 0.0:
        raise ValueError("bump shape needs scale >= 0 and width > 0")
    return ScalarShape(kind="bump", scale=float(scale), center=float(center),
                       width=float(width))


def table_shape(xs, ys) -> ScalarShape:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
        raise ValueError("table shape needs matching 1-D xs, ys with >= 2 points")
    if np.any(np.diff(xs) <= 0.0):
        raise ValueError("table abscissae must be strictly increasing")
    xs.setflags(write=False)
    ys.setflags(write=False)
    return ScalarShape(kind="table", xs=xs, ys=ys)


@dataclass(frozen=True, eq=False)
class NonlinearitySpec:
    """Proliferation shape P and source distribution shape H with sup bounds."""

    P: ScalarShape
    H: ScalarShape
    sup_P: float = field(default=0.0)
    sup_H: float = field(default=0.0)

    def eval(self, which: str, r, order: int = 0):
        if which not in ("P", "h"):
            raise ValueError(f"which must be 'P' or 'h', got {which!r}")
        shape = self.P if which == "P" else self.H
        return shape.eval(r, order)


def make_nonlinearity(P: ScalarShape, H: ScalarShape) -> NonlinearitySpec:
    """Bundle P and H, recording sup bounds and self-checking derivatives."""
    sample = np.linspace(-2.0, 2.0, 401)
    bounds = []
    for shape, name in ((P, "P"), (H, "H")):
        vals = shape.eval(sample, 0)
        if np.any(vals < -1e-12):
            raise ValueError(f"shape {name} must be nonnegative")
        bounds.append(float(np.max(np.abs(vals))))
        if shape.smooth:
            _fd_consistency(shape, name)
    return NonlinearitySpec(P=P, H=H, sup_P=bounds[0], sup_H=bounds[1])


def _fd_consistency(shape: ScalarShape, name: str, tol: float = 1e-5) -> None:
    # derivative evaluators must agree with central differences at sample points
    pts = np.array([-0.83, -0.31, 0.0, 0.27, 0.52, 0.9])
    d = 1e-5
    for order in (1, 2):
        fd = (shape.eval(pts + d, order - 1) - shape.eval(pts - d, order - 1)) / (2.0 * d)
        an = shape.eval(pts, order)
        scale = 1.0 + np.max(np.abs(an))
        if np.max(np.abs(fd - an)) > tol * scale:
            raise ValueError(
                f"shape {name}: order-{order} derivative disagrees with finite differences")


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
        if not np.all(np.isfinite([self.b0, self.b1, self.b2])):
            raise ValueError("cost weights b0, b1, b2 must be finite")
        for name in ("target_Q", "target_Omega"):
            target = getattr(self, name)
            if target is not None and not np.all(np.isfinite(target)):
                raise ValueError(f"{name} must be finite")
        if self.b0 <= 0.0:
            raise ValueError("control cost weight b0 must be positive")
        if self.b1 < 0.0 or self.b2 < 0.0:
            raise ValueError("tracking weights b1, b2 must be nonnegative")


@dataclass(eq=False)
class Control:
    """Pair of space-time control fields, shape (N_t+1, n) each."""

    u1: np.ndarray
    u2: np.ndarray

    def __post_init__(self):
        self.u1 = np.asarray(self.u1, dtype=float)
        self.u2 = np.asarray(self.u2, dtype=float)
        if self.u1.shape != self.u2.shape or self.u1.ndim != 2:
            raise ValueError("u1 and u2 must share a (N_t+1, n) shape")
        if not (np.all(np.isfinite(self.u1)) and np.all(np.isfinite(self.u2))):
            raise ValueError("u1 and u2 must be finite")

    def copy(self) -> "Control":
        return Control(self.u1.copy(), self.u2.copy())

    @property
    def shape(self) -> tuple[int, int]:
        return self.u1.shape


def zero_control(n_levels: int, n_nodes: int) -> Control:
    return Control(np.zeros((n_levels, n_nodes)), np.zeros((n_levels, n_nodes)))


@dataclass(frozen=True, eq=False)
class BoxConstraints:
    """Pointwise bounds for both control components; entries may be +-inf."""

    lower1: np.ndarray | float = -np.inf
    upper1: np.ndarray | float = np.inf
    lower2: np.ndarray | float = -np.inf
    upper2: np.ndarray | float = np.inf

    def __post_init__(self):
        for lo, hi, tag in ((self.lower1, self.upper1, "1"),
                            (self.lower2, self.upper2, "2")):
            if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
                raise ValueError(f"component {tag}: bounds must not be NaN")
            if np.any(np.asarray(lo) > np.asarray(hi)):
                raise ValueError(f"component {tag}: lower bound exceeds upper bound")

    def span(self) -> float:
        """Largest finite bound magnitude, used to scale boundary tolerances."""
        parts = [np.atleast_1d(np.asarray(b, dtype=float)).ravel()
                 for b in (self.lower1, self.upper1, self.lower2, self.upper2)]
        flat = np.concatenate(parts)
        flat = flat[np.isfinite(flat)]
        return float(np.max(np.abs(flat))) if flat.size else 1.0


def unbounded_box() -> BoxConstraints:
    return BoxConstraints()


def project_admissible(u: Control, box: BoxConstraints) -> Control:
    """Pointwise projection onto the admissible box."""
    v1 = np.minimum(np.maximum(u.u1, box.lower1), box.upper1)
    v2 = np.minimum(np.maximum(u.u2, box.lower2), box.upper2)
    return Control(v1, v2)
