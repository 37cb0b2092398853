"""Lagrange bases, derivative/primitive evaluation, and the blur constant."""

import numpy as np
import pytest

from ecir import (
    ExposureInterval,
    IntensityPoly,
    KeypointSet,
    PolyGrid,
    SingularBasisError,
    eval_derivative,
    eval_primitive,
    lagrange_basis,
    render_frame,
    solve_constant,
    to_monomial,
)
from ecir.representation import antiderivative_coeffs, horner

UNIT = ExposureInterval(-1.0, 1.0)
EXPOSURE_120MS = ExposureInterval(-0.06, 0.06)


def random_keypoints(rng, n, interval, min_gap=0.0):
    """Sorted uniform draws; optionally re-drawn until gaps exceed min_gap * T."""
    while True:
        ts = np.sort(rng.uniform(interval.t_start, interval.t_end, n))
        if n == 1 or np.min(np.diff(ts)) > min_gap * interval.length:
            return KeypointSet(ts, interval)


def jittered_pivot_keypoints(rng, n, interval):
    """Cell midpoints with up to 30% cell jitter: the spacing selection produces."""
    step = interval.length / n
    base = interval.t_start + (np.arange(n) + 0.5) * step
    return KeypointSet(base + rng.uniform(-0.3, 0.3, n) * step, interval)


def gauss_primitive(poly, t, order=20):
    """Independent primitive: Gauss-Legendre integral of the Lagrange-form derivative.

    The constant is anchored at the interval midpoint (the representation's
    zero-constant antiderivative vanishes there), so integrate from the
    midpoint. The integrand is a polynomial of degree n-1 <= 9, so a 20-node
    rule is exact up to roundoff; this never touches the divided-difference
    path.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    a = 0.5 * (poly.interval.t_start + poly.interval.t_end)
    b = t
    mapped = 0.5 * (b - a) * nodes + 0.5 * (a + b)
    integral = 0.5 * (b - a) * np.sum(weights * eval_derivative(poly, mapped))
    return integral + poly.integration_constant


class TestLagrangeBasis:
    def test_kronecker_property(self):
        rng = np.random.default_rng(7)
        for n in range(2, 11):
            ks = random_keypoints(rng, n, EXPOSURE_120MS)
            for i in range(n):
                for j in range(n):
                    expected = 1.0 if i == j else 0.0
                    got = lagrange_basis(ks, i, float(ks.timestamps[j]))
                    assert abs(got - expected) <= 1e-12

    def test_two_point_basis_at_midpoint(self):
        ks = KeypointSet(np.array([-1.0, 1.0]), UNIT)
        assert lagrange_basis(ks, 0, 0.0) == pytest.approx(0.5, abs=1e-15)
        assert lagrange_basis(ks, 1, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_partition_of_unity(self):
        rng = np.random.default_rng(11)
        for n in range(2, 11):
            ks = random_keypoints(rng, n, EXPOSURE_120MS)
            for t in rng.uniform(-0.06, 0.06, 20):
                total = sum(lagrange_basis(ks, i, float(t)) for i in range(n))
                assert abs(total - 1.0) < 1e-9

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError):
            KeypointSet(np.array([0.0, 0.0, 0.5]), UNIT)
        from ecir.representation import lagrange_basis_values

        with pytest.raises(SingularBasisError):
            lagrange_basis_values(np.array([0.0, 0.0, 0.5]), 0.3)

    def test_index_out_of_range(self):
        ks = KeypointSet(np.array([-1.0, 1.0]), UNIT)
        with pytest.raises(ValueError):
            lagrange_basis(ks, 2, 0.0)


class TestEvalDerivative:
    def test_zero_values_zero_everywhere(self):
        rng = np.random.default_rng(3)
        ks = random_keypoints(rng, 6, UNIT)
        poly = IntensityPoly(ks, np.zeros(6))
        for t in rng.uniform(-1, 1, 10):
            assert eval_derivative(poly, float(t)) == 0.0

    def test_two_point_interpolant(self):
        ks = KeypointSet(np.array([-1.0, 1.0]), UNIT)
        poly = IntensityPoly(ks, np.array([0.0, 2.0]))
        assert eval_derivative(poly, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_passes_through_keypoints(self):
        rng = np.random.default_rng(5)
        for n in (2, 5, 10):
            ks = random_keypoints(rng, n, EXPOSURE_120MS)
            values = rng.uniform(-5, 5, n)
            poly = IntensityPoly(ks, values)
            for i in range(n):
                got = eval_derivative(poly, float(ks.timestamps[i]))
                assert abs(got - values[i]) < 1e-10


class TestEvalPrimitive:
    def test_constant_intensity(self):
        ks = KeypointSet(np.array([-0.5, 0.5]), UNIT)
        poly = IntensityPoly(ks, np.zeros(2), integration_constant=0.5)
        for t in (-1.0, -0.3, 0.0, 0.9):
            assert eval_primitive(poly, t) == pytest.approx(0.5, abs=1e-15)

    def test_linear_ramp_derivative(self):
        # derivative(t) = t over [-1, 1]; constant solved for blur 0.5 is 1/3
        ks = KeypointSet(np.array([-1.0, 1.0]), UNIT)
        base = IntensityPoly(ks, np.array([-1.0, 1.0]))
        a = solve_constant(base, 0.5)
        assert a == pytest.approx(1.0 / 3.0, abs=1e-12)
        poly = IntensityPoly(ks, np.array([-1.0, 1.0]), a)
        for t in np.linspace(-1, 1, 9):
            assert eval_primitive(poly, float(t)) == pytest.approx(
                t * t / 2.0 + 1.0 / 3.0, abs=1e-12
            )

    def test_against_gauss_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            ks = random_keypoints(rng, 10, EXPOSURE_120MS, min_gap=0.02)
            poly = IntensityPoly(ks, rng.uniform(-10, 10, 10), rng.uniform(-1, 1))
            for t in rng.uniform(-0.06, 0.06, 5):
                assert eval_primitive(poly, float(t)) == pytest.approx(
                    gauss_primitive(poly, float(t)), abs=1e-8
                )


class TestSolveConstant:
    def test_zero_derivative(self):
        ks = KeypointSet(np.array([-0.5, 0.5]), UNIT)
        poly = IntensityPoly(ks, np.zeros(2))
        assert solve_constant(poly, 0.7) == pytest.approx(0.7, abs=1e-15)

    def test_odd_primitive_mean_vanishes(self):
        # derivative 3*tau^2 integrates to tau^3, odd over the symmetric interval
        ks = KeypointSet(np.array([-1.0, 0.0, 1.0]), UNIT)
        poly = IntensityPoly(ks, np.array([3.0, 0.0, 3.0]))
        assert solve_constant(poly, 0.25) == pytest.approx(0.25, abs=1e-14)

    def test_blur_constraint_holds_after_solving(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(2, 11))
            ks = random_keypoints(rng, n, EXPOSURE_120MS, min_gap=0.01)
            base = IntensityPoly(ks, rng.uniform(-10, 10, n))
            target = float(rng.uniform(0, 1))
            a = solve_constant(base, target)
            poly = IntensityPoly(ks, base.derivative_values, a)
            assert abs(poly.blur_value() - target) < 1e-9

    def test_blur_matches_dense_trapezoid(self):
        rng = np.random.default_rng(29)
        iv = EXPOSURE_120MS
        ts = np.linspace(iv.t_start, iv.t_end, 10_000)
        for _ in range(20):
            n = int(rng.integers(2, 11))
            ks = jittered_pivot_keypoints(rng, n, iv)
            base = IntensityPoly(ks, rng.uniform(-5, 5, n))
            target = float(rng.uniform(0, 1))
            poly = IntensityPoly(ks, base.derivative_values, solve_constant(base, target))
            quad = np.trapezoid(eval_primitive(poly, ts), ts) / iv.length
            assert abs(quad - target) < 1e-6

    def test_rejects_non_finite_target(self):
        ks = KeypointSet(np.array([-0.5, 0.5]), UNIT)
        poly = IntensityPoly(ks, np.zeros(2))
        with pytest.raises(ValueError):
            solve_constant(poly, float("nan"))


class TestToMonomial:
    def test_zero_derivative_constant_poly(self):
        ks = KeypointSet(np.array([-0.4, 0.1, 0.5]), UNIT)
        poly = IntensityPoly(ks, np.zeros(3), integration_constant=0.8)
        coeffs = to_monomial(poly).coefficients
        assert coeffs[0] == pytest.approx(0.8, abs=1e-15)
        assert np.all(np.abs(coeffs[1:]) < 1e-15)

    def test_two_point_expansion(self):
        # derivative values (0, 2) at nodes (-1, 1) integrate to tau^2/2 + tau + a
        ks = KeypointSet(np.array([-1.0, 1.0]), UNIT)
        poly = IntensityPoly(ks, np.array([0.0, 2.0]), integration_constant=0.25)
        coeffs = to_monomial(poly).coefficients
        assert coeffs == pytest.approx([0.25, 1.0, 0.5], abs=1e-14)

    def test_roundtrip_against_gauss_oracle(self):
        rng = np.random.default_rng(31)
        ks = random_keypoints(rng, 10, EXPOSURE_120MS, min_gap=0.02)
        poly = IntensityPoly(ks, rng.uniform(-8, 8, 10), 0.3)
        mono = to_monomial(poly)
        for t in rng.uniform(-0.06, 0.06, 100):
            tau = poly.interval.normalize(float(t))
            assert mono(tau) == pytest.approx(gauss_primitive(poly, float(t)), abs=1e-8)


class TestAntiderivativeCoeffs:
    @pytest.mark.parametrize("shape", [(1,), (7,), (3, 4, 10), (0, 5)])
    def test_bitwise_equal_to_reference_expression(self, shape):
        rng = np.random.default_rng(977)
        deriv_mono = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
        n = shape[-1]
        expected = np.zeros(shape[:-1] + (n + 1,))
        expected[..., 1:] = 0.06 * deriv_mono / np.arange(1, n + 1, dtype=np.float64)
        assert antiderivative_coeffs(deriv_mono, 0.06).tobytes() == expected.tobytes()


class TestRenderFrame:
    @staticmethod
    def constant_grid(h, w, n, value, interval):
        keypoints = np.broadcast_to(
            np.linspace(interval.t_start + 0.01, interval.t_end - 0.01, n), (h, w, n)
        )
        return PolyGrid(
            keypoints.copy(),
            np.zeros((h, w, n)),
            np.full((h, w), value),
            interval,
        )

    def test_constant_polys_render_constant(self):
        grid = self.constant_grid(4, 5, 3, 0.6, UNIT)
        frame = render_frame(grid, 0.2)
        assert frame.shape == (4, 5)
        assert np.allclose(frame, 0.6, atol=1e-14)

    def test_render_is_deterministic(self):
        rng = np.random.default_rng(37)
        h, w, n = 6, 7, 5
        base = np.linspace(-0.05, 0.05, n)
        grid = PolyGrid(
            np.broadcast_to(base, (h, w, n)).copy(),
            rng.uniform(-5, 5, (h, w, n)),
            rng.uniform(0, 1, (h, w)),
            EXPOSURE_120MS,
        )
        one = render_frame(grid, 0.01)
        two = render_frame(grid, 0.01)
        assert np.array_equal(one, two)

    def test_out_of_range_time_rejected(self):
        grid = self.constant_grid(3, 3, 2, 0.5, UNIT)
        with pytest.raises(ValueError):
            render_frame(grid, 1.5)

    def test_grid_pixel_matches_scalar_path(self):
        rng = np.random.default_rng(41)
        h, w, n = 3, 4, 6
        keypoints = np.empty((h, w, n))
        for y in range(h):
            for x in range(w):
                keypoints[y, x] = np.sort(rng.uniform(-0.055, 0.055, n))
        grid = PolyGrid(
            keypoints,
            rng.uniform(-5, 5, (h, w, n)),
            rng.uniform(0, 1, (h, w)),
            EXPOSURE_120MS,
        )
        t = 0.017
        frame = render_frame(grid, t)
        for y in range(h):
            for x in range(w):
                assert frame[y, x] == pytest.approx(
                    eval_primitive(grid.pixel(y, x), t), abs=1e-12
                )
                assert np.array_equal(
                    grid.pixel(y, x).primitive_coefficients(),
                    grid.primitive_coefficients()[y, x],
                )


    def test_render_matches_horner_on_cached_primitive_bitwise(self):
        from scenes import random_poly_grid

        grid = random_poly_grid(np.random.default_rng(47), 7, 9, 10, EXPOSURE_120MS)
        for t in np.linspace(EXPOSURE_120MS.t_start, EXPOSURE_120MS.t_end, 13):
            expected = horner(grid.primitive_coefficients(), EXPOSURE_120MS.normalize(t))
            assert render_frame(grid, t).tobytes() == expected.tobytes()
        assert grid.primitive_coefficients().shape == (7, 9, 11)


class TestGridBlur:
    def test_with_constants_from_blur(self):
        rng = np.random.default_rng(43)
        h, w, n = 5, 4, 8
        keypoints = np.empty((h, w, n))
        for y in range(h):
            for x in range(w):
                keypoints[y, x] = np.sort(rng.uniform(-0.05, 0.05, n))
        grid = PolyGrid(
            keypoints, rng.uniform(-6, 6, (h, w, n)), np.zeros((h, w)), EXPOSURE_120MS
        )
        target = rng.uniform(0.1, 0.9, (h, w))
        solved = grid.with_constants_from_blur(target)
        assert np.max(np.abs(solved.blur() - target)) < 1e-9
