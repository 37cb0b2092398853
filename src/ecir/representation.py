"""Continuous per-pixel intensity representation.

A pixel's intensity over the exposure interval is a polynomial whose
derivative interpolates values pinned at n keypoint timestamps. The
derivative is a degree-(n-1) Lagrange interpolant; integrating it once and
adding a constant gives the intensity curve, and the constant is fixed by
requiring the curve's temporal average to match the blurry measurement.

All polynomial arithmetic runs over normalized time tau = 2(t - t_start)/T - 1
in [-1, 1]; raw-second arithmetic at n ~ 10 over a ~100 ms window is badly
conditioned. Lagrange bases are invariant under this affine change of
variable, so basis values agree with the raw-time definition exactly.
Integration is exact: derivative values are converted to monomial
coefficients through Newton divided differences and integrated analytically,
never by quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .types import ExposureInterval

__all__ = [
    "SingularBasisError",
    "KeypointSet",
    "IntensityPoly",
    "MonomialPoly",
    "PolyGrid",
    "lagrange_basis",
    "eval_derivative",
    "eval_primitive",
    "solve_constant",
    "to_monomial",
    "render_frame",
]


class SingularBasisError(ValueError):
    """Raised when interpolation nodes coincide and the basis degenerates."""


# ---------------------------------------------------------------------------
# low-level polynomial kernels (batched over arbitrary leading axes)
# ---------------------------------------------------------------------------

def _check_nodes(nodes: np.ndarray) -> None:
    if nodes.shape[-1] >= 2 and np.any(np.diff(nodes, axis=-1) == 0.0):
        raise SingularBasisError("duplicate keypoint timestamps")


def newton_coefficients(nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Divided-difference coefficients of the interpolant through (nodes, values).

    ``nodes`` and ``values`` are (..., n); returns (..., n) Newton
    coefficients ordered by increasing depth.
    """
    _check_nodes(nodes)
    n = nodes.shape[-1]
    coef = np.array(values, dtype=np.float64, copy=True)
    for j in range(1, n):
        coef[..., j:] = (coef[..., j:] - coef[..., j - 1 : n - 1]) / (
            nodes[..., j:] - nodes[..., : n - j]
        )
    return coef


def newton_to_monomial(nodes: np.ndarray, newton: np.ndarray) -> np.ndarray:
    """Expand a Newton-form polynomial into monomial coefficients (low order first)."""
    n = nodes.shape[-1]
    mono = np.zeros_like(newton)
    mono[..., 0] = newton[..., n - 1]
    deg = 0
    for j in range(n - 2, -1, -1):
        node = nodes[..., j]
        # multiply by (x - node), then add the next Newton coefficient
        mono[..., 1 : deg + 2] = mono[..., 0 : deg + 1] - node[..., None] * mono[..., 1 : deg + 2]
        mono[..., 0] = newton[..., j] - node * mono[..., 0]
        deg += 1
    return mono


def horner(coeffs: np.ndarray, x) -> np.ndarray:
    """Evaluate monomial polynomials (..., k) at ``x`` (scalar or matching batch)."""
    x = np.asarray(x, dtype=np.float64)
    k = coeffs.shape[-1]
    out = np.broadcast_to(coeffs[..., k - 1], np.broadcast_shapes(coeffs.shape[:-1], x.shape)).copy()
    for j in range(k - 2, -1, -1):
        out = out * x + coeffs[..., j]
    return out


def antiderivative_coeffs(deriv_mono: np.ndarray, half_length: float) -> np.ndarray:
    """Monomial coefficients of the zero-constant antiderivative in tau.

    The interpolant approximates dL/dt in per-second units while tau runs over
    [-1, 1], so the tau-domain antiderivative is scaled by T/2.
    """
    n = deriv_mono.shape[-1]
    out = np.zeros(deriv_mono.shape[:-1] + (n + 1,), dtype=np.float64)
    # in place, in the order of half_length * deriv_mono / arange: no (..., n) temporaries
    np.multiply(half_length, deriv_mono, out=out[..., 1:])
    out[..., 1:] /= np.arange(1, n + 1, dtype=np.float64)
    return out


def _primitive_coefficients(interval, keypoints, derivatives, constants) -> np.ndarray:
    """Monomial coefficients (..., n+1) over tau of intensity curves.

    ``keypoints`` and ``derivatives`` are (..., n), ``constants`` broadcasts
    to (...). Newton divided differences, expanded to monomials, integrated
    exactly, plus the constant.
    """
    nodes = interval.normalize(keypoints)
    mono = newton_to_monomial(nodes, newton_coefficients(nodes, derivatives))
    coeffs = antiderivative_coeffs(mono, interval.length / 2.0)
    coeffs[..., 0] += constants
    return coeffs


def mean_over_unit_interval(coeffs: np.ndarray) -> np.ndarray:
    """Average value of monomial polynomials (..., k) over tau in [-1, 1]."""
    k = coeffs.shape[-1]
    weights = np.zeros(k)
    weights[0::2] = 1.0 / np.arange(1, k + 1, 2, dtype=np.float64)
    return coeffs @ weights


def lagrange_basis_values(nodes: np.ndarray, tau) -> np.ndarray:
    """All n Lagrange basis polynomials over ``nodes`` evaluated at ``tau``.

    ``nodes`` is (n,), ``tau`` scalar or (m,); result is (n,) or (m, n).
    Uses the direct product form, which keeps the Kronecker property exact
    at the nodes.
    """
    nodes = np.asarray(nodes, dtype=np.float64)
    _check_nodes(nodes)
    tau = np.atleast_1d(np.asarray(tau, dtype=np.float64))
    n = nodes.shape[0]
    diff = tau[:, None] - nodes[None, :]  # (m, n)
    out = np.empty((tau.shape[0], n))
    for i in range(n):
        mask = np.ones(n, dtype=bool)
        mask[i] = False
        numer = np.prod(diff[:, mask], axis=1)
        denom = np.prod(nodes[i] - nodes[mask])
        out[:, i] = numer / denom
    return out


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KeypointSet:
    """Strictly increasing timestamps inside one exposure interval."""

    timestamps: np.ndarray
    interval: ExposureInterval

    def __post_init__(self) -> None:
        ts = np.asarray(self.timestamps, dtype=np.float64)
        object.__setattr__(self, "timestamps", ts)
        if ts.ndim != 1 or ts.shape[0] < 1:
            raise ValueError("keypoints must be a non-empty 1-d array")
        if np.any(np.diff(ts) <= 0):
            raise ValueError("keypoints must be strictly increasing")
        if not self.interval.contains(ts):
            raise ValueError("keypoints fall outside the exposure interval")

    @property
    def n(self) -> int:
        return int(self.timestamps.shape[0])

    @property
    def normalized(self) -> np.ndarray:
        return self.interval.normalize(self.timestamps)


@dataclass
class MonomialPoly:
    """Polynomial in the standard monomial basis over normalized time."""

    coefficients: np.ndarray

    def __post_init__(self) -> None:
        self.coefficients = np.asarray(self.coefficients, dtype=np.float64)

    @property
    def degree(self) -> int:
        return int(self.coefficients.shape[0]) - 1

    def __call__(self, tau):
        return horner(self.coefficients, tau)


@dataclass
class IntensityPoly:
    """One pixel's intensity curve: keypoints, derivative values, constant."""

    keypoints: KeypointSet
    derivative_values: np.ndarray
    integration_constant: float = 0.0

    def __post_init__(self) -> None:
        self.derivative_values = np.asarray(self.derivative_values, dtype=np.float64)
        if self.derivative_values.shape != (self.keypoints.n,):
            raise ValueError(
                f"expected {self.keypoints.n} derivative values, "
                f"got shape {self.derivative_values.shape}"
            )

    @property
    def interval(self) -> ExposureInterval:
        return self.keypoints.interval

    def primitive_coefficients(self) -> np.ndarray:
        """Monomial coefficients of L over tau, including the constant term."""
        return _primitive_coefficients(
            self.interval,
            self.keypoints.timestamps,
            self.derivative_values,
            self.integration_constant,
        )

    def blur_value(self) -> float:
        """Temporal average of L over the exposure interval (exact)."""
        return float(mean_over_unit_interval(self.primitive_coefficients()))


def lagrange_basis(keypoints: KeypointSet, i: int, t) -> np.ndarray | float:
    """Value of the i-th (0-based) Lagrange basis at time ``t`` (seconds)."""
    if not 0 <= i < keypoints.n:
        raise ValueError(f"basis index {i} out of range for {keypoints.n} keypoints")
    vals = lagrange_basis_values(keypoints.normalized, keypoints.interval.normalize(t))
    out = vals[:, i]
    return float(out[0]) if np.isscalar(t) or np.asarray(t).ndim == 0 else out


def eval_derivative(poly: IntensityPoly, t) -> np.ndarray | float:
    """dL/dt at ``t``: the Lagrange combination of the pinned derivative values."""
    tau = poly.interval.normalize(t)
    vals = lagrange_basis_values(poly.keypoints.normalized, tau) @ poly.derivative_values
    return float(vals[0]) if np.asarray(t).ndim == 0 else vals


def eval_primitive(poly: IntensityPoly, t) -> np.ndarray | float:
    """L(t): exact antiderivative of the interpolated derivative plus the constant."""
    out = horner(poly.primitive_coefficients(), poly.interval.normalize(t))
    return float(out) if np.asarray(t).ndim == 0 else out


def solve_constant(poly: IntensityPoly, blurry_value: float) -> float:
    """The constant making the curve's temporal average equal ``blurry_value``."""
    if not np.isfinite(blurry_value):
        raise ValueError("blurry value must be finite")
    shifted = IntensityPoly(poly.keypoints, poly.derivative_values, 0.0)
    return float(blurry_value) - shifted.blur_value()


def to_monomial(poly: IntensityPoly) -> MonomialPoly:
    """The intensity curve in the standard basis over normalized time."""
    return MonomialPoly(poly.primitive_coefficients())


# ---------------------------------------------------------------------------
# per-pixel grids
# ---------------------------------------------------------------------------

@dataclass
class PolyGrid:
    """An h x w field of intensity polynomials sharing one exposure interval.

    ``keypoints`` and ``derivatives`` are (h, w, n); ``constants`` is (h, w).
    The primitive's monomial coefficients are cached after first use, both
    as (h, w, k) and as a plane-major (k, h, w) copy that rendering reads
    one contiguous plane per Horner step.
    """

    keypoints: np.ndarray
    derivatives: np.ndarray
    constants: np.ndarray
    interval: ExposureInterval
    fit_warning: bool = False
    _primitive: np.ndarray | None = field(default=None, repr=False, compare=False)
    _planes: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.keypoints = np.asarray(self.keypoints, dtype=np.float64)
        self.derivatives = np.asarray(self.derivatives, dtype=np.float64)
        self.constants = np.asarray(self.constants, dtype=np.float64)
        if self.keypoints.ndim != 3 or self.keypoints.shape != self.derivatives.shape:
            raise ValueError("keypoints and derivatives must both be (h, w, n)")
        if self.constants.shape != self.keypoints.shape[:2]:
            raise ValueError("constants must be (h, w)")

    @property
    def shape(self) -> tuple[int, int]:
        return self.keypoints.shape[:2]

    @property
    def n(self) -> int:
        return int(self.keypoints.shape[2])

    def primitive_coefficients(self) -> np.ndarray:
        if self._primitive is None:
            self._primitive = _primitive_coefficients(
                self.interval, self.keypoints, self.derivatives, self.constants
            )
        return self._primitive

    def intensity_at(self, t: float) -> np.ndarray:
        """Latent frame at ``t``, unclamped."""
        if self._planes is None:
            self._planes = np.ascontiguousarray(np.moveaxis(self.primitive_coefficients(), -1, 0))
        # an (h, w, k) view of the planes: horner's arithmetic, contiguous reads
        return horner(np.moveaxis(self._planes, 0, -1), self.interval.normalize(t))

    def blur(self) -> np.ndarray:
        """Exact per-pixel temporal average over the exposure interval."""
        return mean_over_unit_interval(self.primitive_coefficients())

    def with_constants_from_blur(self, blurry_values: np.ndarray) -> "PolyGrid":
        """Re-solve every constant so the per-pixel blur matches ``blurry_values``."""
        blurry_values = np.asarray(blurry_values, dtype=np.float64)
        if blurry_values.shape != self.shape:
            raise ValueError("blur target shape mismatch")
        base = PolyGrid(self.keypoints, self.derivatives, np.zeros(self.shape), self.interval)
        return PolyGrid(
            self.keypoints,
            self.derivatives,
            blurry_values - base.blur(),
            self.interval,
            fit_warning=self.fit_warning,
        )

    def pixel(self, y: int, x: int) -> IntensityPoly:
        return IntensityPoly(
            KeypointSet(self.keypoints[y, x], self.interval),
            self.derivatives[y, x],
            float(self.constants[y, x]),
        )


def render_frame(polys: PolyGrid, t: float) -> np.ndarray:
    """Latent frame at ``t``. Raises if ``t`` is outside the exposure interval."""
    if not polys.interval.contains(t):
        raise ValueError(
            f"render time {t} outside exposure interval "
            f"[{polys.interval.t_start}, {polys.interval.t_end}]"
        )
    return polys.intensity_at(t)
