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

The kernels run plane-major: a polynomial's n nodes or coefficients lead,
(n, ...), so every step reads whole contiguous planes; one pixel is the (n,)
case. ``PolyGrid`` holds (n, h, w) planes and shows (h, w, n) views of them,
the layout ``horner`` and ``antiderivative_coeffs`` take.

Frames are rendered on one path, ``_render_frames``: :func:`render_frame`
takes its first frame, and ``ecir render`` hands all of them to the writer.
A grid whose polynomials overflow is the same ValueError on both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import ExposureInterval, _increasing, _raising

__all__ = [
    "SingularBasisError", "KeypointSet", "IntensityPoly", "MonomialPoly", "PolyGrid",
    "lagrange_basis", "eval_derivative", "eval_primitive", "solve_constant", "to_monomial",
    "render_frame",
]


# bytes of the float64 block of frames _render_frames runs one Horner pass
# over: 4 frames of 180x240. Median ms of 64 frames of a 180x240 n=10 grid,
# each cast to float32 as the writer does (2 vCPU, 15 alternating rounds): a
# (64, h, w) stack, one frame at a time, 26.8; blocks of 1: 24.9, 2: 20.5,
# 4: 18.7, 8: 27.2, 16: 28.5. A block past the cache loses more than the
# pass saves.
RENDER_BLOCK_BYTES = 4 * 180 * 240 * 8


class SingularBasisError(ValueError):
    """Raised when interpolation nodes coincide and the basis degenerates."""


# ---------------------------------------------------------------------------
# polynomial kernels on (n, ...) planes
# ---------------------------------------------------------------------------

def _check_nodes(nodes: np.ndarray) -> None:
    if nodes.shape[0] >= 2 and np.any(np.diff(nodes, axis=0) == 0.0):
        raise SingularBasisError("duplicate keypoint timestamps")


def newton_coefficients(nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Divided-difference coefficients of the interpolant through (nodes, values).

    ``nodes`` and ``values`` are (n, ...) planes of one shape; returns (n, ...)
    coefficients by increasing depth. Each depth is formed in place from the
    top plane down, so a plane still holds the last depth when the one above reads it.
    """
    _check_nodes(nodes)
    shape, n = np.shape(values), nodes.shape[0]
    coef = np.array(values, dtype=np.float64, order="C").reshape(n, -1)
    nodes = np.reshape(nodes, coef.shape)
    gap = np.empty(coef.shape[1:])
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            np.subtract(nodes[i], nodes[i - j], out=gap)
            coef[i] -= coef[i - 1]
            coef[i] /= gap
    return coef.reshape(shape)


def newton_to_monomial(nodes: np.ndarray, newton: np.ndarray) -> np.ndarray:
    """Expand Newton-form planes (n, ...) into monomial planes, low order first."""
    shape, n = np.shape(newton), nodes.shape[0]
    newton, nodes = np.reshape(newton, (n, -1)), np.reshape(nodes, (n, -1))
    mono = np.zeros(newton.shape)
    mono[0] = newton[n - 1]
    for deg, j in enumerate(range(n - 2, -1, -1)):
        # times (x - node), top plane down, plus newton[j] in the constant
        for i in range(deg + 1, -1, -1):
            mono[i] *= nodes[j]
            np.subtract(mono[i - 1] if i else newton[j], mono[i], out=mono[i])
    return mono.reshape(shape)


def horner(coeffs: np.ndarray, x) -> np.ndarray:
    """Evaluate monomial polynomials (..., k) at ``x`` (scalar or matching batch).

    In place over the (k, ...) planes of ``coeffs``: out *= x; out += plane.
    """
    planes, x = np.moveaxis(np.asarray(coeffs), -1, 0), np.asarray(x, dtype=np.float64)
    out = np.empty(np.broadcast_shapes(planes.shape[1:], x.shape),
                   dtype=np.result_type(planes.dtype, x.dtype))
    out[...] = planes[-1]
    for plane in planes[-2::-1]:
        out *= x
        out += plane
    return out if out.ndim else out[()]


def _antiderivative_planes(mono: np.ndarray, half_length: float) -> np.ndarray:
    """Monomial planes (n+1, ...) of the zero-constant antiderivative in tau.

    dL/dt is per second while tau spans [-1, 1], so it is scaled by T/2.
    """
    n = mono.shape[0]
    out = np.zeros((n + 1,) + mono.shape[1:])
    # in place, in the order of half_length * mono / arange: no (n, ...) temporaries
    np.multiply(half_length, mono, out=out[1:])
    out[1:] /= np.arange(1, n + 1, dtype=np.float64).reshape((n,) + (1,) * (mono.ndim - 1))
    return out


def antiderivative_coeffs(deriv_mono: np.ndarray, half_length: float) -> np.ndarray:
    """Coefficients (..., n+1) of the zero-constant antiderivative of (..., n)."""
    planes = _antiderivative_planes(np.moveaxis(np.asarray(deriv_mono), -1, 0), half_length)
    return np.moveaxis(planes, 0, -1)


def _primitive_planes(interval, keypoints, derivatives, constants) -> np.ndarray:
    """Monomial planes (n+1, ...) over tau of intensity curves: Newton divided
    differences of (n, ...) planes, expanded to monomials, integrated exactly,
    plus ``constants`` (broadcast to (...))."""
    nodes = interval.normalize(keypoints)
    mono = newton_to_monomial(nodes, newton_coefficients(nodes, derivatives))
    coeffs = _antiderivative_planes(mono, interval.length / 2.0)
    coeffs[0] += constants
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
        _increasing(ts, "keypoints")
        self.interval.require(ts, "keypoints")

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
        return _primitive_planes(self.interval, self.keypoints.timestamps,
                                 self.derivative_values, self.integration_constant)

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

class PolyGrid:
    """An h x w field of intensity polynomials sharing one exposure interval.

    Built from (h, w, n) ``keypoints`` and ``derivatives`` and (h, w)
    ``constants``, it holds the first two as contiguous (n, h, w) planes;
    ``keypoints``, ``derivatives`` and :meth:`primitive_coefficients` are
    (h, w, ...) views. Its one cache is the primitive's (n+1, h, w) planes,
    built on first use, which rendering evaluates in blocks of frames.
    """

    def __init__(self, keypoints, derivatives, constants, interval, fit_warning=False):
        keypoints = np.asarray(keypoints, dtype=np.float64)
        derivatives = np.asarray(derivatives, dtype=np.float64)
        self.constants = np.asarray(constants, dtype=np.float64)
        if keypoints.ndim != 3 or keypoints.shape != derivatives.shape:
            raise ValueError("keypoints and derivatives must both be (h, w, n)")
        if self.constants.shape != keypoints.shape[:2]:
            raise ValueError("constants must be (h, w)")
        # the planes of an (h, w, n) view of planes, like the grid's own, are not copied
        self._keypoints = np.ascontiguousarray(np.moveaxis(keypoints, -1, 0))
        self._derivatives = np.ascontiguousarray(np.moveaxis(derivatives, -1, 0))
        self.interval = interval
        self.fit_warning = fit_warning
        self._primitive = None

    @property
    def keypoints(self) -> np.ndarray:
        return np.moveaxis(self._keypoints, 0, -1)

    @property
    def derivatives(self) -> np.ndarray:
        return np.moveaxis(self._derivatives, 0, -1)

    @property
    def shape(self) -> tuple[int, int]:
        return self._keypoints.shape[1:]

    @property
    def n(self) -> int:
        return int(self._keypoints.shape[0])

    def primitive_coefficients(self) -> np.ndarray:
        """(h, w, n+1) view of the cached primitive planes."""
        if self._primitive is None:
            self._primitive = _primitive_planes(
                self.interval, self._keypoints, self._derivatives, self.constants
            )
        return np.moveaxis(self._primitive, 0, -1)

    def intensity_at(self, t) -> np.ndarray:
        """Latent frame at ``t``, unclamped: Horner on the cached planes.

        An array of times broadcasts against the (h, w) planes: a (G, 1, 1)
        block gives G frames, each bitwise the frame of its one time.
        """
        return horner(self.primitive_coefficients(), self.interval.normalize(t))

    def blur(self) -> np.ndarray:
        """Exact per-pixel temporal average over the exposure interval."""
        # a BLAS product rounds by layout: the (h, w, k) copy keeps its bytes
        return mean_over_unit_interval(np.ascontiguousarray(self.primitive_coefficients()))

    def with_constants_from_blur(self, blurry_values: np.ndarray) -> "PolyGrid":
        """Re-solve every constant so the per-pixel blur matches ``blurry_values``."""
        blurry_values = np.asarray(blurry_values, dtype=np.float64)
        if blurry_values.shape != self.shape:
            raise ValueError("blur target shape mismatch")
        base = PolyGrid(self.keypoints, self.derivatives, np.zeros(self.shape), self.interval)
        return PolyGrid(self.keypoints, self.derivatives, blurry_values - base.blur(),
                        self.interval, fit_warning=self.fit_warning)

    def pixel(self, y: int, x: int) -> IntensityPoly:
        ks = KeypointSet(self._keypoints[:, y, x], self.interval)
        return IntensityPoly(ks, self._derivatives[:, y, x], float(self.constants[y, x]))


def render_frame(polys: PolyGrid, t: float) -> np.ndarray:
    """Latent frame at ``t``, the first of :func:`_render_frames`.

    Raises if ``t`` is outside the exposure interval, or if the
    polynomials overflow there.
    """
    polys.interval.require(t, f"render time {t}")
    return next(_render_frames(polys, np.array([t], dtype=np.float64)))


def _render_frames(grid: PolyGrid, times: np.ndarray):
    """The frames at ``times``, one at a time, each block of frames one Horner pass.

    A (G, 1, 1) block of times broadcasts against the grid's planes, and every
    element gets the multiply-adds a one-frame call gives it, so the frames
    are bitwise the per-frame ones. Each block is computed under
    :func:`~ecir.types._raising`, left before its frames are yielded: a grid
    of finite values whose polynomial overflows is a ValueError, not a
    frame of NaN or inf.
    """
    h, w = grid.shape
    block = max(1, RENDER_BLOCK_BYTES // max(8 * h * w, 1))
    for lo in range(0, times.shape[0], block):
        with _raising("rendered frames are not finite: the fitted polynomials overflow"):
            frames = grid.intensity_at(times[lo : lo + block, None, None])
        yield from frames
        del frames  # not held while the next block is computed
