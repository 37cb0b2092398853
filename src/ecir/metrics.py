"""Image quality metrics and the training-loss functionals as plain numbers.

All reductions run in fixed raster order so repeated evaluation of the same
inputs is bitwise reproducible.

SSIM follows Wang et al. (IEEE TIP 2004) with the 11x11 Gaussian window.
That window is the outer product of one normalized 1-d Gaussian, so each
local mean is filtered along columns and then along rows, one shifted
multiply-add per tap, without materializing the 11x11 patches. Both passes
run over the flat, C-ordered frame: the column pass shifts by whole rows,
the row pass by single pixels, and the sums that wrap into the next row are
cut off. The index reads the two local variances only as their sum, so four
filters cover it: the means of the two frames, of the sum of their squares
and of their product. Local moments are taken of each frame minus its mean,
which leaves them unchanged in exact arithmetic. The sums run in a
different order than a direct 2-d window product; ``ssim`` agrees with the
direct form to within 1e-12 on non-constant frames and with the closed form
to within 1e-12 on constant ones, the tolerances its tests pin, and gives
the same value for a frame in any memory layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LossConfig",
    "mse",
    "psnr",
    "ssim",
    "loss_derivative",
    "loss_primitive",
    "loss_refinement",
    "loss_residual",
    "loss_total",
]

PSNR_CAP_DB = 100.0
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


@dataclass(frozen=True)
class LossConfig:
    """Trade-off weights of the combined training objective."""

    lambda_d: float = 1.0
    lambda_p: float = 10.0
    lambda_ref: float = 10.0
    lambda_res: float = 0.5
    rho: float = 5.0

    def __post_init__(self) -> None:
        for name in ("lambda_d", "lambda_p", "lambda_ref", "lambda_res"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


def _check_shapes(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a, b


def mse(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared difference over all pixels."""
    a, b = _check_shapes(a, b)
    d = a - b
    return float(np.mean(d * d))


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB with peak 1; identical inputs cap at 100."""
    return _psnr_of_mse(mse(a, b))


def _psnr_of_mse(err: float) -> float:
    """The PSNR of a mean squared error, for callers that already hold it."""
    if err == 0.0:
        return PSNR_CAP_DB
    return min(PSNR_CAP_DB, float(10.0 * np.log10(1.0 / err)))


def _gaussian_taps() -> np.ndarray:
    """The normalized 1-d Gaussian whose outer product is the SSIM window."""
    half = (SSIM_WINDOW - 1) / 2.0
    x = np.arange(SSIM_WINDOW) - half
    g = np.exp(-(x * x) / (2.0 * SSIM_SIGMA * SSIM_SIGMA))
    return g / g.sum()


def _windowed_mean(img: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Gaussian-weighted mean of every full window of a C-ordered frame.

    The column pass shifts the flat frame by whole rows; the row pass shifts
    that flat result by single pixels, so the last k - 1 sums of each row
    wrap into the next row, and they are cut off.
    """
    k = taps.shape[0]
    rows, cols = img.shape
    flat = img.ravel()
    span = (rows - k + 1) * cols  # the column pass's output, flat
    vert = taps[0] * flat[:span]
    for i in range(1, k):
        vert += taps[i] * flat[i * cols : i * cols + span]
    out = np.empty(span)
    n = span - (k - 1)
    np.multiply(taps[0], vert[:n], out=out[:n])
    for j in range(1, k):
        out[:n] += taps[j] * vert[j : j + n]
    return out.reshape(rows - k + 1, cols)[:, : cols - k + 1]


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean local structural similarity with the standard Gaussian window.

    11x11 window, sigma 1.5, K1 = 0.01, K2 = 0.03, dynamic range 1. Only
    windows fully inside the frame contribute, so both dimensions must be at
    least 11.
    """
    a, b = _check_shapes(a, b)
    if a.ndim != 2 or min(a.shape) < SSIM_WINDOW:
        raise ValueError(f"frames must be 2-d with min dimension >= {SSIM_WINDOW}")
    # every layout reduces and filters in the same order as a C-ordered frame
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    taps = _gaussian_taps()
    # moments of frames centered on their means: E[x^2] - E[x]^2 then cancels
    # on the deviations, not on the intensities, which c2 would amplify ~1e3x
    shift_a, shift_b = a.mean(), b.mean()
    da, db = a - shift_a, b - shift_b
    dmu_a = _windowed_mean(da, taps)
    dmu_b = _windowed_mean(db, taps)
    squares = da * da
    squares += db * db
    # var_a + var_b, the only way the index reads the two variances
    var_sum = _windowed_mean(squares, taps) - dmu_a * dmu_a - dmu_b * dmu_b
    cov = _windowed_mean(da * db, taps) - dmu_a * dmu_b
    mu_a = dmu_a + shift_a
    mu_b = dmu_b + shift_b
    c1 = SSIM_K1 * SSIM_K1
    c2 = SSIM_K2 * SSIM_K2
    s = ((2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)) / (
        (mu_a * mu_a + mu_b * mu_b + c1) * (var_sum + c2)
    )
    return float(np.mean(s))


def loss_derivative(gt: np.ndarray, pred: np.ndarray) -> float:
    """Mean absolute difference between derivative stacks."""
    gt, pred = _check_shapes(gt, pred)
    return float(np.mean(np.abs(gt - pred)))


def loss_primitive(gt: np.ndarray, pred: np.ndarray) -> float:
    """Mean absolute difference between intensity stacks."""
    return loss_derivative(gt, pred)


def loss_refinement(gt: np.ndarray, pred: np.ndarray) -> float:
    """Sum over timestamps of the per-frame mean absolute difference."""
    gt, pred = _check_shapes(gt, pred)
    if gt.ndim < 1:
        raise ValueError("expected a stack of frames")
    per_frame = np.abs(gt - pred).reshape(gt.shape[0], -1).mean(axis=1)
    return float(per_frame.sum())


def loss_residual(gt: np.ndarray, pred: np.ndarray, rho: float = LossConfig.rho) -> float:
    """Sum over residuals of the mean exp-weighted absolute difference.

    Sparse ground-truth residuals get weight exp(rho * |R|) so the few pixels
    that do change dominate.
    """
    gt, pred = _check_shapes(gt, pred)
    weighted = np.exp(rho * np.abs(gt)) * np.abs(gt - pred)
    if gt.ndim == 0:
        return float(weighted)
    per_residual = weighted.reshape(gt.shape[0], -1).mean(axis=1)
    return float(per_residual.sum())


def loss_total(
    l_d: float, l_p: float, l_ref: float, l_res: float, cfg: LossConfig = LossConfig()
) -> float:
    """Weighted sum of the four loss components."""
    for v in (l_d, l_p, l_ref, l_res):
        if not np.isfinite(v):
            raise ValueError("loss components must be finite")
    return float(
        cfg.lambda_d * l_d
        + cfg.lambda_p * l_p
        + cfg.lambda_ref * l_ref
        + cfg.lambda_res * l_res
    )
