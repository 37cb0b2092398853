"""Refinement of an initial frame stack along the event residual flow.

The refined frames minimize a convex quadratic: consecutive frames should
differ by the predicted residuals, and no frame should stray far from its
initialization. Residual prediction is analytic here: the event model says
intensity scales by exp(c * signed count) between two timestamps, which
linearizes to an additive residual R_i = L_i * (exp(c * S_i) - 1).

Every pixel shares the objective's d x d Hessian, 2(lambda I + D^T D) with
D the forward difference, whose eigenvectors are the DCT-II basis. So both
solvers are one closed-form d x (d-1) operator on the initial residual flow
of all pixels, with one filter on the eigenvalues each: the exact minimizer
(``tridiagonal_solve``, solver ``tridiag``) and ``i_max`` fixed gradient
steps at a cost independent of ``i_max`` (``descend``, solver ``gd``). The
two share one formula: the exact filter is the gradient filter at
``i_max = inf``, bit for bit, from the default step whatever step the
problem holds.
``RefineProblem`` rejects a step at or past the exact stability limit, and
``surrogate_residuals`` a threshold ``c`` whose exp(c * signed count)
overflows. Frames holding NaN or inf are refused as frames, in
``RefineProblem``'s words, by ``surrogate_residuals`` and ``refine`` alike.
:data:`SOLVERS` names the solvers, the default first; ``refine``'s default
and ``cli``'s ``--solver`` read it.

``surrogate_residuals`` writes every window's counts into its output
first, and exponentiates only the pixels whose count is nonzero in some
window. Every other pixel has expm1(c * 0) = 0.0 in every window, so its
residual is ``initial[i] * 0.0``: the product, not a literal 0, keeps the
sign of zero. With such a count on every pixel the index is a full slice,
a view, so nothing is gathered.

``refine`` holds one (d, ...) buffer beside its input: the residuals fill
its first d-1 rows, the flow is formed there, and the frames are written
over it one block of columns at a time, each block one GEMM call into a
block-wide buffer. The blocks follow ``_column_blocks``, so each is bitwise
the single product's columns at the process's BLAS thread count.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .simulation import window_counts
from .types import EventStream, _active_columns, _finite, _increasing, _raising, _threshold

__all__ = [
    "DivergenceError",
    "RefineProblem",
    "default_step",
    "surrogate_residuals",
    "objective",
    "gradient",
    "descend",
    "tridiagonal_solve",
    "refine",
]

DEFAULT_LAMBDA = 1.0
DEFAULT_ITERATIONS = 50
# refine's solvers, the default first: the exact minimizer and i_max gradient steps
SOLVERS = ("tridiag", "gd")
# the narrowest block of columns refine's product takes in one GEMM call, in
# columns and in multiply-adds (see _column_blocks). Measured with OpenBLAS
# 0.3.31 on AVX-512 (2 vCPU): blocks of this rule were bitwise equal to the
# single product on all 3762 cases tried (d = 2..100 frames, both solvers,
# 19 widths each from 1 to 100003), at 1 and at 2 threads. Blocks of a fixed
# 4096 columns missed on 13 of 552 cases at 1 thread, of 2048 on 11 at 2
# threads, and blocks of 320 columns at d = 64 missed at 2 threads.
PRODUCT_BLOCK_COLUMNS = 4096
PRODUCT_BLOCK_MADDS = 1 << 20


class DivergenceError(RuntimeError):
    """A solve would return non-finite frames.

    Steps are stable and inputs finite, so this happens only when the
    initial residual flow, or that flow times the solve operator, overflows.
    """


def default_step(lam: float) -> float:
    """0.9 of the stability limit 2 / L, with L = 2(4 + lambda) bounding the Hessian."""
    return 0.9 * 2.0 / (2.0 * (4.0 + lam))


@dataclass
class RefineProblem:
    """Inputs of the refinement objective.

    ``initial`` is (d, ...) with d >= 2 frames; ``residuals`` is (d-1, ...).
    Trailing axes are per-pixel and fully independent.
    """

    initial: np.ndarray
    residuals: np.ndarray
    lam: float = DEFAULT_LAMBDA
    i_max: int = DEFAULT_ITERATIONS
    step: float | None = None

    def __post_init__(self) -> None:
        self.initial = np.asarray(self.initial, dtype=np.float64)
        self.residuals = np.asarray(self.residuals, dtype=np.float64)
        d = self.initial.shape[0]
        if d < 2:
            raise ValueError("need at least 2 frames")
        if self.residuals.shape != (d - 1,) + self.initial.shape[1:]:
            raise ValueError("residual stack must be (d-1, ...) matching the frames")
        _finite(self.initial, "initial frames")
        _finite(self.residuals, "residuals")
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lambda must be finite and non-negative, got {self.lam}")
        try:
            self.i_max = operator.index(self.i_max)
        except TypeError:
            raise ValueError(f"i_max must be an integer, got {self.i_max!r}") from None
        if self.i_max < 0:
            raise ValueError(f"i_max must be non-negative, got {self.i_max}")
        if self.step is None:
            self.step = default_step(self.lam)
        if not (np.isfinite(self.step) and self.step > 0):
            raise ValueError(f"step must be finite and positive, got {self.step}")
        # 2 / lambda_max, with lambda_max = 2(lambda + 2 + 2 cos(pi / d))
        limit = 1.0 / (self.lam + 2.0 + 2.0 * math.cos(math.pi / d))
        if self.step >= limit:
            raise ValueError(f"step {self.step} is not below the stability limit {limit}")

    @property
    def frame_count(self) -> int:
        return int(self.initial.shape[0])


def surrogate_residuals(
    initial: np.ndarray,
    events: EventStream,
    c: float,
    schedule: np.ndarray,
) -> np.ndarray:
    """Event-derived additive residuals between consecutive scheduled frames.

    Frames holding NaN or inf, and a ``c`` so large that exp(c * signed
    count) overflows, are a ValueError.
    """
    initial = np.asarray(initial, dtype=np.float64)
    _finite(initial, "initial frames")
    return _residuals(initial, events, c, schedule, initial.shape[0] - 1)


def _residuals(
    initial: np.ndarray, events: EventStream, c: float, schedule: np.ndarray, rows: int
) -> np.ndarray:
    """A new (rows, ...) array whose first d-1 rows hold the surrogate residuals.

    ``initial`` is float64; any row past the residuals is left unset. Its
    values are checked only if a floating-point flag is raised: an inf at a
    pixel without events sets one (inf * 0.0), and is refused as a frame
    value, not as an overflow. A NaN sets none and passes through.
    """
    _threshold(c)
    schedule = np.asarray(schedule, dtype=np.float64)
    d = initial.shape[0]
    if schedule.shape != (d,):
        raise ValueError("schedule must hold one timestamp per frame")
    _increasing(schedule, "schedule")
    events.interval.require(schedule, "schedule")
    shape = initial.shape[1:]
    out = np.empty((rows,) + shape)
    # every window's counts first, in the output's rows, and the pixels
    # whose count is nonzero in some window
    residuals = out[: d - 1].reshape(d - 1, math.prod(shape))
    moved = np.zeros(residuals.shape[1], dtype=bool)
    for row, counts in zip(residuals, window_counts(events, schedule, shape)):
        row[:] = counts.reshape(-1)
        np.logical_or(moved, row, out=moved)
    cols = _active_columns(moved)
    # off the active columns every count is 0, and expm1(c * 0) is 0.0
    level = np.zeros(residuals.shape[1])
    # with a finite c and finite frames, these flags are set only when
    # exp(c * signed count) overflows
    try:
        with _raising(f"residuals are not finite at c={c}: exp(c * signed count) overflows"):
            for i, row in enumerate(residuals):
                level[cols] = np.expm1(c * row[cols])
                np.multiply(initial[i].reshape(-1), level, out=row)
    except ValueError:
        _finite(initial, "initial frames")
        raise
    return out


def objective(problem: RefineProblem, frames: np.ndarray) -> float:
    """Squared residual-flow mismatch plus lambda times squared anchor distance."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.shape != problem.initial.shape:
        raise ValueError("frame stack shape mismatch")
    flow = frames[:-1] + problem.residuals - frames[1:]
    anchor = frames - problem.initial
    return float(np.sum(flow * flow) + problem.lam * np.sum(anchor * anchor))


def gradient(problem: RefineProblem, frames: np.ndarray) -> np.ndarray:
    """Partial derivatives of the objective with respect to every frame."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.shape != problem.initial.shape:
        raise ValueError("frame stack shape mismatch")
    flow = frames[:-1] + problem.residuals - frames[1:]
    grad = 2.0 * problem.lam * (frames - problem.initial)
    grad[:-1] += 2.0 * flow
    grad[1:] -= 2.0 * flow
    return grad


def descend(problem: RefineProblem) -> np.ndarray:
    """Run ``i_max`` fixed-step gradient iterations from the initial frames.

    The displacement ``frames - initial`` starts at zero, and each step
    updates it by the same linear map plus a fixed linear function of the
    initial flow ``initial[:-1] + residuals - initial[1:]``. So on the
    (d, pixels) stack the iterations are ``initial + Q @ flow`` for one
    d x (d-1) matrix Q, built in closed form by ``_operator``. Applying Q to
    the flow, rather than an operator to the raw frames, keeps the frames'
    common level out of the product, where it would cancel. The result
    equals stepping ``frames -= step * gradient(problem, frames)`` over the
    stack to within rounding, not bitwise.

    ``DivergenceError`` is raised iff a returned frame would be non-finite.
    """
    return _apply(problem, _operator(problem, "gd"), _with_residuals(problem))


def tridiagonal_solve(problem: RefineProblem) -> np.ndarray:
    """Exact minimizer, for lambda > 0: ``descend``'s operator with ``i_max`` at infinity.

    Stationarity is a symmetric tridiagonal system per pixel, the Hessian's,
    inverted in closed form. ``DivergenceError`` is raised iff a returned
    frame would be non-finite.
    """
    return _apply(problem, _operator(problem, "tridiag"), _with_residuals(problem))


def _operator(problem: RefineProblem, solver: str) -> np.ndarray:
    """The d x (d-1) matrix Q of ``solver``: its frames are ``initial + Q @ flow``.

    From a zero displacement, i steps reach H^-1 (I - (I - step H)^i) 2 D^T
    flow, and the exact solve H^-1 2 D^T flow, for H = 2(lambda I + D^T D).
    H = V diag(w) V^T with V the DCT-II basis and w_k = 2 lambda +
    8 sin^2(pi k / 2d), so Q = V diag(g) (D V)^T 2 with the filter g = 1 / w,
    or (1 - (1 - step w)^i) / w. Column 0 of D V, the difference of the
    constant vector, is zero, so the sums start at k = 1.
    """
    d = problem.frame_count
    half = np.pi / (2 * d) * np.arange(1, d)
    scale = math.sqrt(2.0 / d)
    basis = scale * np.cos(np.outer(np.arange(1, 2 * d, 2), half))
    sine = np.sin(half)
    # v_k[j + 1] - v_k[j] = -2 sqrt(2 / d) sin(pi k / 2d) sin(pi k (j + 1) / d)
    differences = (-2.0 * scale) * sine * np.sin(np.outer(np.arange(2, 2 * d, 2), half))
    half_w = problem.lam + 4.0 * sine * sine
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r} (expected {' or '.join(map(repr, SOLVERS))})")
    if solver == "tridiag":
        if problem.lam <= 0:
            raise ValueError("the exact solve needs lambda > 0 for strict convexity")
        # i = inf from any stable step; the default one keeps the rate below
        # 1.8, clear of a step so near the limit that its rate rounds to 2
        step, steps = default_step(problem.lam), math.inf
    else:
        # an i_max past the float range has converged like any huge one
        step, steps = problem.step, float(min(problem.i_max, sys.float_info.max))
    rate = 2.0 * step * half_w  # step w, below 2 for a stable step
    # 1 - (1 - rate)^i; where 1 - rate > 0.5 the power would lose the digits
    # that matter, and log1p with expm1 keeps them. At i = inf both read 1.0
    # exactly, so the exact solve's gain is 1 / half_w bit for bit.
    done = 1.0 - (1.0 - rate) ** steps
    slow = rate < 0.5
    done[slow] = -np.expm1(steps * np.log1p(-rate[slow]))
    return (basis * (done / half_w)) @ differences.T


def _with_residuals(problem: RefineProblem) -> np.ndarray:
    """A new buffer for :func:`_apply`: the problem's residuals in its first d-1 rows."""
    buf = np.empty(problem.initial.shape)
    buf[:-1] = problem.residuals
    return buf


def _column_blocks(width: int, d: int) -> list[tuple[int, int]]:
    """The column ranges of the (d, width) product that refine takes one GEMM call each.

    Blocks are ``b`` columns, a multiple of 64, and the last one takes the
    remainder, so no block is narrower than ``b``. Only a wide block was
    measured bitwise equal to the single product's columns: OpenBLAS sends a
    call of at most about 10^6 multiply-adds to its small-matrix kernel, and
    narrow calls missed at 2 threads too, each in the last partial group of
    8 columns. So ``b`` is at least PRODUCT_BLOCK_COLUMNS columns and
    PRODUCT_BLOCK_MADDS multiply-adds.
    """
    b = max(PRODUCT_BLOCK_COLUMNS, -(-PRODUCT_BLOCK_MADDS // (d * (d - 1))))
    b = -(-b // 64) * 64
    edges = [i * b for i in range(max(1, width // b))] + [width]
    return list(zip(edges[:-1], edges[1:]))


def _apply(problem: RefineProblem, q: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """``initial + q @ flow`` in ``buf``, a new (d, ...) array holding the residuals in d-1 rows.

    The flow is formed in those rows, and the frames are written over it one
    block of columns at a time (:func:`_column_blocks`), through one
    block-wide buffer. So the solve holds the problem's frames, ``buf`` and
    a block, and the problem's frames are never written.
    """
    d = problem.frame_count
    initial = problem.initial.reshape(d, -1)
    frames = buf.reshape(d, -1)
    flow = frames[:-1]
    blocks = _column_blocks(frames.shape[1], d)
    product = np.empty((d, max(hi - lo for lo, hi in blocks)))
    # overflow is reported through DivergenceError, not numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        flow += initial[:-1]
        flow -= initial[1:]
        for lo, hi in blocks:
            block = product[:, : hi - lo]
            np.matmul(q, flow[:, lo:hi], out=block)
            np.add(block, initial[:, lo:hi], out=frames[:, lo:hi])
    if not np.all(np.isfinite(frames)):
        raise DivergenceError(
            "refined frames are not finite: the residual flow, or its product "
            "with the solve operator, overflows"
        )
    return buf


def refine(
    initial: np.ndarray,
    events: EventStream,
    c: float,
    schedule: np.ndarray,
    lam: float = DEFAULT_LAMBDA,
    i_max: int = DEFAULT_ITERATIONS,
    solver: str = SOLVERS[0],
) -> np.ndarray:
    """Full refinement pass: surrogate residuals, solve, clamp to [0, 1].

    ``solver`` is one of :data:`SOLVERS`: ``"tridiag"``, the exact
    minimizer, or ``"gd"``, ``i_max`` gradient steps. One (d, ...) buffer
    serves the whole pass: the residuals fill its first d-1 rows, the solve
    forms its flow there and writes the frames over it, and the frames are
    clamped in place. ``initial`` is never written.
    """
    initial = np.asarray(initial, dtype=np.float64)
    buf = _residuals(initial, events, c, schedule, initial.shape[0])
    problem = RefineProblem(initial, buf[:-1], lam=lam, i_max=i_max)
    frames = _apply(problem, _operator(problem, solver), buf)
    return np.clip(frames, 0.0, 1.0, out=frames)
