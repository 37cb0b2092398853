"""Refinement of an initial frame stack along the event residual flow.

The refined frames minimize a convex quadratic: consecutive frames should
differ by the predicted residuals, and no frame should stray far from its
initialization. Residual prediction is analytic here: the event model says
intensity scales by exp(c * signed count) between two timestamps, which
linearizes to an additive residual R_i = L_i * (exp(c * S_i) - 1).

Two solvers are provided. Plain gradient descent mirrors the iterative
update structure with a step size guaranteed by the Hessian bound; the
per-pixel tridiagonal solve gives the exact minimizer in closed form and
serves as both the fast path and the oracle for the iterative one.

Every pixel shares the objective's d x d Hessian, 2(lambda I + D^T D) with
D the forward difference, so ``i_max`` fixed-step iterations are one affine
map of the inputs. ``descend`` builds that map once per call by stepping
``gradient`` on unit inputs and applies it to all pixels as one matrix
product; it equals the plain ``gradient`` loop to within rounding, not
bitwise. ``surrogate_residuals`` rejects a threshold ``c`` whose
exp(c * signed count) overflows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simulation import window_counts
from .types import EventStream

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


class DivergenceError(RuntimeError):
    """Descent would return non-finite frames.

    Raised when the step is past the stability limit, 2 / lambda_max of the
    Hessian, for long enough that ``descend``'s step response overflows, or
    when the data times that response overflows.
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
        if not np.all(np.isfinite(self.initial)):
            raise ValueError("initial frames must be finite")
        if not np.all(np.isfinite(self.residuals)):
            raise ValueError("residuals must be finite")
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lambda must be finite and non-negative, got {self.lam}")
        if self.i_max < 0:
            raise ValueError(f"i_max must be non-negative, got {self.i_max}")
        if self.step is None:
            self.step = default_step(self.lam)
        if not (np.isfinite(self.step) and self.step > 0):
            raise ValueError(f"step must be finite and positive, got {self.step}")

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

    A ``c`` so large that exp(c * signed count) overflows is a ValueError.
    """
    if not (np.isfinite(c) and c > 0):
        raise ValueError(f"threshold c must be finite and positive, got {c}")
    initial = np.asarray(initial, dtype=np.float64)
    schedule = np.asarray(schedule, dtype=np.float64)
    d = initial.shape[0]
    if schedule.shape != (d,):
        raise ValueError("schedule must hold one timestamp per frame")
    if np.any(np.diff(schedule) <= 0):
        raise ValueError("schedule must be strictly increasing")
    if not events.interval.contains(schedule):
        raise ValueError("schedule falls outside the exposure interval")
    shape = initial.shape[1:]
    out = np.empty((d - 1,) + shape)
    try:
        # with a finite c and finite frames, these flags are set only when
        # exp(c * signed count) overflows
        with np.errstate(over="raise", invalid="raise"):
            for i, counts in enumerate(window_counts(events, schedule, shape)):
                out[i] = initial[i] * np.expm1(c * counts)
    except FloatingPointError:
        raise ValueError(
            f"residuals are not finite at c={c}: exp(c * signed count) overflows"
        ) from None
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
    d x (d-1) matrix Q.
    Column j of Q is the response to unit flow j: ``gradient`` stepped
    ``i_max`` times on one problem whose initial frames are zero and whose
    residuals are the identity. Applying Q to the flow, rather than an
    operator to the raw frames, keeps the frames' common level out of the
    product, where it would cancel. The result equals stepping
    ``frames -= step * gradient(problem, frames)`` over the stack to within
    rounding, not bitwise.

    ``DivergenceError`` is raised iff the returned stack would hold a
    non-finite value. That happens when the step is past the stability limit
    2 / lambda_max of the Hessian and |1 - step * lambda_max| ** i_max
    overflows Q, or when the flow times Q overflows.
    """
    return _descend(problem, problem.residuals.copy())


def _descend(problem: RefineProblem, flow: np.ndarray) -> np.ndarray:
    """``descend``, forming the flow in ``flow``: residuals it may overwrite."""
    d = problem.frame_count
    basis = RefineProblem(
        np.zeros((d, d - 1)),
        np.eye(d - 1),
        lam=problem.lam,
        i_max=problem.i_max,
        step=problem.step,
    )
    response = np.zeros((d, d - 1))
    initial = problem.initial.reshape(d, -1)
    # overflow is reported through DivergenceError, not numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(problem.i_max):
            response -= problem.step * gradient(basis, response)
        frames = np.empty_like(initial)
        flow = flow.reshape(d - 1, -1)
        flow += initial[:-1]
        flow -= initial[1:]
        np.matmul(response, flow, out=frames)
        frames += initial
    if not np.all(np.isfinite(frames)):
        raise DivergenceError(
            f"descent diverged to non-finite frames at step {problem.step}"
        )
    return frames.reshape(problem.initial.shape)


def tridiagonal_solve(problem: RefineProblem) -> np.ndarray:
    """Exact minimizer via the per-pixel symmetric tridiagonal normal equations.

    Stationarity couples each frame to its neighbors with unit off-diagonals
    and diagonal 1 + lambda at the ends, 2 + lambda inside; the system is
    strictly diagonally dominant for lambda > 0. Solved by forward
    elimination and back substitution along the frame axis, vectorized over
    pixels.
    """
    if problem.lam <= 0:
        raise ValueError("tridiagonal solve needs lambda > 0 for strict convexity")
    d = problem.frame_count
    lam = problem.lam
    r = problem.residuals
    init = problem.initial

    diag = np.full(d, 2.0 + lam)
    diag[0] = diag[-1] = 1.0 + lam

    rhs = lam * init
    rhs[0] -= r[0]
    rhs[-1] += r[-1]
    for i in range(1, d - 1):
        rhs[i] += r[i - 1] - r[i]

    # Thomas algorithm with constant off-diagonal -1; both sweeps overwrite
    # rhs, which holds the forward sweep's values and then the solution
    gamma = np.empty(d)
    beta = diag[0]
    rhs[0] /= beta
    for i in range(1, d):
        gamma[i - 1] = -1.0 / beta
        beta = diag[i] + gamma[i - 1]
        rhs[i] += rhs[i - 1]
        rhs[i] /= beta
    for i in range(d - 2, -1, -1):
        rhs[i] -= gamma[i] * rhs[i + 1]
    return rhs


def refine(
    initial: np.ndarray,
    events: EventStream,
    c: float,
    schedule: np.ndarray,
    lam: float = DEFAULT_LAMBDA,
    i_max: int = DEFAULT_ITERATIONS,
    solver: str = "tridiag",
    step: float | None = None,
) -> np.ndarray:
    """Full refinement pass: surrogate residuals, solve, clamp to [0, 1].

    The residuals are this call's own, so descent forms its flow in them,
    and the solution is clamped in place.
    """
    residuals = surrogate_residuals(initial, events, c, schedule)
    problem = RefineProblem(initial, residuals, lam=lam, i_max=i_max, step=step)
    if solver == "tridiag":
        frames = tridiagonal_solve(problem)
    elif solver == "gd":
        frames = _descend(problem, residuals)
    else:
        raise ValueError(f"unknown solver {solver!r} (expected 'tridiag' or 'gd')")
    return np.clip(frames, 0.0, 1.0, out=frames)
