"""Event-based continuous intensity recovery.

A blurry frame plus the events recorded during its exposure determine, per
pixel, a polynomial intensity curve: keypoints aligned with the events pin
the derivative, integration recovers the curve, and the blurry measurement
fixes the constant. The package bundles the representation, an event
simulator for synthesizing test data, least-squares fitting, the analytic
double-integral baseline, residual-flow refinement, and quality metrics.
"""

from .fitting import edi_reconstruct, edi_video, fit_polys
from .keypoints import keypoint_grid, pivots, select_keypoints
from .metrics import (
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
from .refinement import (
    DivergenceError,
    RefineProblem,
    default_step,
    descend,
    gradient,
    objective,
    refine,
    surrogate_residuals,
    tridiagonal_solve,
)
from .representation import (
    IntensityPoly,
    KeypointSet,
    MonomialPoly,
    PolyGrid,
    SingularBasisError,
    eval_derivative,
    eval_primitive,
    lagrange_basis,
    render_frame,
    solve_constant,
    to_monomial,
)
from .simulation import (
    EventHistogram,
    ThresholdConfig,
    polarity,
    signed_count_between,
    simulate_events,
    synthesize_blur,
    voxelize,
)
from .types import BlurryFrame, Event, EventStream, ExposureInterval, SharpVideo

__version__ = "0.1.0"

__all__ = [
    "BlurryFrame",
    "DivergenceError",
    "Event",
    "EventHistogram",
    "EventStream",
    "ExposureInterval",
    "IntensityPoly",
    "KeypointSet",
    "LossConfig",
    "MonomialPoly",
    "PolyGrid",
    "RefineProblem",
    "SharpVideo",
    "SingularBasisError",
    "ThresholdConfig",
    "default_step",
    "descend",
    "edi_reconstruct",
    "edi_video",
    "eval_derivative",
    "eval_primitive",
    "fit_polys",
    "gradient",
    "keypoint_grid",
    "lagrange_basis",
    "loss_derivative",
    "loss_primitive",
    "loss_refinement",
    "loss_residual",
    "loss_total",
    "mse",
    "objective",
    "pivots",
    "polarity",
    "psnr",
    "refine",
    "render_frame",
    "select_keypoints",
    "signed_count_between",
    "simulate_events",
    "solve_constant",
    "ssim",
    "surrogate_residuals",
    "synthesize_blur",
    "to_monomial",
    "tridiagonal_solve",
    "voxelize",
]
