"""
Residual-flow refinement
========================

Given an initial frame stack, the events between consecutive timestamps
predict how each frame should flow into the next. Refinement minimizes a
convex quadratic: follow that residual flow, but stay near the
initialization. Every pixel shares one Hessian, so both solvers are one
closed-form operator on the residual flow with a different filter on its
eigenvalues: the exact minimizer, and ``i_max`` gradient steps at a step
below the exact stability limit, which converge to the same answer.
"""

import numpy as np

from ecir import (
    EventStream,
    ExposureInterval,
    RefineProblem,
    descend,
    objective,
    refine,
    surrogate_residuals,
    tridiagonal_solve,
)

interval = ExposureInterval(0.0, 0.12)
rng = np.random.default_rng(17)

# A toy stack: d frames of one drifting pixel, initialization corrupted by
# noise in the middle frames.
d = 8
schedule = np.linspace(interval.t_start, interval.t_end, d)
truth = np.linspace(0.3, 0.7, d)[:, None, None] * np.ones((1, 4, 4))
initial = truth.copy()
initial[2:6] += rng.normal(0, 0.05, (4, 4, 4))

# Threshold-faithful events for the true drift: each pixel rises by the same
# log amount; the surrogate converts them into additive residuals.
k = 300
t = np.sort(rng.uniform(interval.t_start, interval.t_end, k))
stream = EventStream(
    rng.integers(0, 4, k), rng.integers(0, 4, k), t, np.ones(k, dtype=np.int64), interval
)
residuals = surrogate_residuals(initial, stream, 0.01, schedule)
problem = RefineProblem(initial, residuals, lam=1.0, i_max=50)

print(f"objective at initialization: {objective(problem, initial):.6f}")
exact = tridiagonal_solve(problem)
print(f"objective at closed-form optimum: {objective(problem, exact):.6f}")
iterated = descend(problem)
print(f"objective after 50 gradient steps: {objective(problem, iterated):.6f}")
print(f"max gap between solvers: {np.abs(exact - iterated).max():.2e}")

# The one-call pass: residual prediction, solve, clamp to [0, 1].
refined = refine(initial, stream, 0.01, schedule, solver="tridiag")
print(f"\nrefined frames stay in [0, 1]: min {refined.min():.3f}, max {refined.max():.3f}")

# Large anchor weight pins the solution to the initialization.
pinned = RefineProblem(initial, residuals, lam=1e4)
print(
    "distance to initialization at lambda=1e4:",
    f"{np.abs(tridiagonal_solve(pinned) - initial).max():.2e}",
)
