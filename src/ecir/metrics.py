"""Image quality metrics and the training-loss functionals as plain numbers.

All reductions run in fixed raster order so repeated evaluation of the same
inputs is bitwise reproducible.
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
    err = mse(a, b)
    if err == 0.0:
        return PSNR_CAP_DB
    return min(PSNR_CAP_DB, float(10.0 * np.log10(1.0 / err)))


def _gaussian_window() -> np.ndarray:
    half = (SSIM_WINDOW - 1) / 2.0
    x = np.arange(SSIM_WINDOW) - half
    g = np.exp(-(x * x) / (2.0 * SSIM_SIGMA * SSIM_SIGMA))
    win = np.outer(g, g)
    return win / win.sum()


def _windowed_mean(img: np.ndarray, win: np.ndarray) -> np.ndarray:
    views = np.lib.stride_tricks.sliding_window_view(img, win.shape)
    return np.tensordot(views, win, axes=([2, 3], [0, 1]))


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean local structural similarity with the standard Gaussian window.

    11x11 window, sigma 1.5, K1 = 0.01, K2 = 0.03, dynamic range 1. Only
    windows fully inside the frame contribute, so both dimensions must be at
    least 11.
    """
    a, b = _check_shapes(a, b)
    if a.ndim != 2 or min(a.shape) < SSIM_WINDOW:
        raise ValueError(f"frames must be 2-d with min dimension >= {SSIM_WINDOW}")
    win = _gaussian_window()
    mu_a = _windowed_mean(a, win)
    mu_b = _windowed_mean(b, win)
    var_a = _windowed_mean(a * a, win) - mu_a * mu_a
    var_b = _windowed_mean(b * b, win) - mu_b * mu_b
    cov = _windowed_mean(a * b, win) - mu_a * mu_b
    c1 = SSIM_K1 * SSIM_K1
    c2 = SSIM_K2 * SSIM_K2
    s = ((2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)) / (
        (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
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


def loss_residual(gt: np.ndarray, pred: np.ndarray, rho: float = 5.0) -> float:
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
