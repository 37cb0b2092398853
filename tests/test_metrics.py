"""Quality metrics and loss functionals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecir import (
    LossConfig,
    loss_derivative,
    loss_primitive,
    loss_refinement,
    loss_residual,
    loss_total,
    mse,
    psnr,
    ssim,
)
from ecir.metrics import SSIM_K1, SSIM_K2, SSIM_SIGMA, SSIM_WINDOW

from oracles import oracle_ssim_2d


def oracle_ssim(a, b):
    """Direct windowed reference: explicit loops over all valid 11x11 windows."""
    half = (SSIM_WINDOW - 1) // 2
    ax = np.arange(SSIM_WINDOW) - half
    g1 = np.exp(-(ax * ax) / (2.0 * SSIM_SIGMA**2))
    win = np.outer(g1, g1)
    win /= win.sum()
    c1, c2 = SSIM_K1**2, SSIM_K2**2
    h, w = a.shape
    vals = []
    for y in range(h - SSIM_WINDOW + 1):
        for x in range(w - SSIM_WINDOW + 1):
            pa = a[y : y + SSIM_WINDOW, x : x + SSIM_WINDOW]
            pb = b[y : y + SSIM_WINDOW, x : x + SSIM_WINDOW]
            mu_a = float((win * pa).sum())
            mu_b = float((win * pb).sum())
            va = float((win * pa * pa).sum()) - mu_a * mu_a
            vb = float((win * pb * pb).sum()) - mu_b * mu_b
            cov = float((win * pa * pb).sum()) - mu_a * mu_b
            vals.append(
                ((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                / ((mu_a**2 + mu_b**2 + c1) * (va + vb + c2))
            )
    return float(np.mean(vals))


class TestMse:
    def test_identical(self):
        a = np.random.default_rng(307).uniform(0, 1, (9, 9))
        assert mse(a, a) == 0.0

    def test_full_scale(self):
        assert mse(np.zeros((4, 4)), np.ones((4, 4))) == 1.0

    def test_hand_case(self):
        assert mse(np.array([[0.0, 0.5]]), np.array([[0.5, 0.5]])) == pytest.approx(
            0.125, abs=1e-15
        )

    def test_symmetry_and_shape_check(self):
        rng = np.random.default_rng(311)
        a, b = rng.uniform(0, 1, (6, 7)), rng.uniform(0, 1, (6, 7))
        assert mse(a, b) == mse(b, a)
        with pytest.raises(ValueError):
            mse(a, b.T)


class TestPsnr:
    def test_definition(self):
        a = np.zeros((10, 10))
        b = np.full((10, 10), 0.1)
        assert psnr(a, b) == pytest.approx(20.0, abs=1e-9)

    def test_identical_capped(self):
        a = np.full((5, 5), 0.3)
        assert psnr(a, a) == 100.0

    def test_reported_scale_mismatch_case(self):
        # an MSE of 0.114 converts to about 9.43 dB under peak-1 normalization
        err = math.sqrt(0.114)
        a = np.zeros((8, 8))
        b = np.full((8, 8), err)
        assert psnr(a, b) == pytest.approx(10.0 * math.log10(1.0 / 0.114), abs=1e-9)
        assert psnr(a, b) == pytest.approx(9.43, abs=5e-3)

    def test_strictly_decreasing_in_mse(self):
        values = [psnr(np.zeros((4, 4)), np.full((4, 4), e)) for e in (0.05, 0.1, 0.2, 0.4)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestSsim:
    def test_identical_is_one(self):
        a = np.random.default_rng(313).uniform(0, 1, (16, 16))
        assert ssim(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_constant_frames_against_oracle(self):
        a = np.full((16, 16), 0.2)
        b = np.full((16, 16), 0.8)
        expected = oracle_ssim(a, b)
        assert ssim(a, b) == pytest.approx(expected, abs=1e-12)
        # frozen value of the windowed reference for the constant pair
        assert expected == pytest.approx(0.32009999999 / 0.68009999999, abs=1e-9)

    def test_random_frames_against_oracle(self):
        rng = np.random.default_rng(317)
        a = rng.uniform(0, 1, (14, 17))
        b = np.clip(a + rng.normal(0, 0.1, a.shape), 0, 1)
        assert ssim(a, b) == pytest.approx(oracle_ssim(a, b), abs=1e-9)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(331)
        a = rng.uniform(0, 1, (12, 12))
        b = rng.uniform(0, 1, (12, 12))
        assert ssim(a, b) == ssim(b, a)

    def test_bounded(self):
        rng = np.random.default_rng(337)
        for _ in range(5):
            a = rng.uniform(0, 1, (12, 12))
            b = rng.uniform(0, 1, (12, 12))
            assert -1.0 <= ssim(a, b) <= 1.0

    def test_small_frames_rejected(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((10, 12)), np.zeros((10, 12)))


@st.composite
def ssim_pairs(draw):
    """Frame pairs from 11x11 to 40x60: constant, independent random, near-identical."""
    h, w = draw(st.integers(11, 40)), draw(st.integers(11, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["constant", "random", "near"]))
    if kind == "constant":
        return np.full((h, w), rng.uniform(0, 1)), np.full((h, w), rng.uniform(0, 1))
    a = rng.uniform(0, 1, (h, w))
    if kind == "random":
        return a, rng.uniform(0, 1, (h, w))
    return a, np.clip(a + rng.normal(0, 1e-6, (h, w)), 0, 1)


@settings(max_examples=200, deadline=None)
@given(ssim_pairs())
def test_separable_ssim_matches_tensordot_form(pair):
    a, b = pair
    if np.all(a == a[0, 0]) and np.all(b == b[0, 0]):
        # the 2-d form itself strays up to ~1.3e-12 from the exact value on
        # flat frames (E[x^2] - E[x]^2 rounding times 1 / c2), so constant
        # pairs are held to the same 1e-12 against the closed form
        va, vb = a[0, 0], b[0, 0]
        c1 = SSIM_K1 * SSIM_K1
        expected = (2.0 * va * vb + c1) / (va * va + vb * vb + c1)
    else:
        expected = oracle_ssim_2d(a, b)
    assert abs(ssim(a, b) - expected) <= 1e-12


class TestLosses:
    def test_derivative_loss(self):
        rng = np.random.default_rng(347)
        gt = rng.uniform(-2, 2, (4, 5, 5))
        assert loss_derivative(gt, gt) == 0.0
        assert loss_derivative(np.zeros((3, 2, 2)), np.full((3, 2, 2), 0.5)) == 0.5
        pred = rng.uniform(-2, 2, (4, 5, 5))
        naive = float(np.sum(np.abs(gt - pred))) / gt.size
        assert loss_derivative(gt, pred) == pytest.approx(naive, rel=1e-15)

    def test_primitive_loss(self):
        rng = np.random.default_rng(349)
        gt = rng.uniform(0, 1, (6, 4, 4))
        assert loss_primitive(gt, gt) == 0.0
        assert loss_primitive(gt, gt + 0.1) == pytest.approx(0.1, abs=1e-12)
        pred = rng.uniform(0, 1, (6, 4, 4))
        naive = float(np.mean(np.abs(gt - pred)))
        assert loss_primitive(gt, pred) == pytest.approx(naive, rel=1e-15)

    def test_refinement_loss_sums_over_time(self):
        gt = np.zeros((2, 3, 3))
        pred = np.full((2, 3, 3), 0.1)
        assert loss_refinement(gt, pred) == pytest.approx(0.2, abs=1e-14)
        d = 5
        gt = np.zeros((d, 2, 2))
        pred = np.full((d, 2, 2), 0.25)
        assert loss_refinement(gt, pred) == pytest.approx(
            d * loss_primitive(gt, pred), rel=1e-12
        )

    def test_residual_loss(self):
        # plain L1 when the reference residual is zero
        gt = np.zeros((3, 4, 4))
        pred = np.full((3, 4, 4), 0.2)
        assert loss_residual(gt, pred, rho=5.0) == pytest.approx(3 * 0.2, rel=1e-12)
        # scalar weighted case: exp(5 * 0.2) * 0.2
        got = loss_residual(np.array([[[0.2]]]), np.array([[[0.0]]]), rho=5.0)
        assert got == pytest.approx(math.e * 0.2, abs=1e-9)
        assert loss_residual(np.full((2, 2, 2), 0.3), np.full((2, 2, 2), 0.3), 5.0) == 0.0

    def test_total_with_reference_weights(self):
        cfg = LossConfig()
        assert (cfg.lambda_d, cfg.lambda_p, cfg.lambda_ref, cfg.lambda_res) == (
            1.0,
            10.0,
            10.0,
            0.5,
        )
        assert cfg.rho == 5.0
        assert loss_total(1.0, 1.0, 1.0, 1.0, cfg) == 21.5
        assert loss_total(0.0, 0.0, 0.0, 0.0, cfg) == 0.0
        zero = LossConfig(0.0, 0.0, 0.0, 0.0)
        assert loss_total(3.0, 4.0, 5.0, 6.0, zero) == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            loss_total(float("inf"), 0.0, 0.0, 0.0)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            LossConfig(lambda_d=-1.0)
