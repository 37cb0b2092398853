"""Residual-flow refinement: objective, gradient, descent, exact solve, step limit."""

import dataclasses
import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecir import (
    DivergenceError,
    EventStream,
    ExposureInterval,
    RefineProblem,
    default_step,
    descend,
    gradient,
    objective,
    refine,
    surrogate_residuals,
    tridiagonal_solve,
)
from ecir.refinement import (
    PRODUCT_BLOCK_COLUMNS, PRODUCT_BLOCK_MADDS, SOLVERS, _column_blocks, _operator,
)

IV = ExposureInterval(-0.06, 0.06)


def scalar_problem(initial, residuals, lam=1.0, **kw):
    return RefineProblem(
        np.asarray(initial, dtype=float)[:, None, None],
        np.asarray(residuals, dtype=float)[:, None, None],
        lam=lam,
        **kw,
    )


def random_problem(rng, d, h=3, w=4, lam=None):
    lam = lam if lam is not None else float(rng.uniform(0.2, 3.0))
    return RefineProblem(
        rng.uniform(0, 1, (d, h, w)),
        rng.uniform(-0.3, 0.3, (d - 1, h, w)),
        lam=lam,
    )


class OracleDivergence(Exception):
    def __init__(self, iteration):
        super().__init__(f"objective diverged at iteration {iteration}")
        self.iteration = iteration


def oracle_descend(problem):
    """The gradient/objective loop: full gradient, step, objective check."""
    frames = problem.initial.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(problem.i_max):
            frames -= problem.step * gradient(problem, frames)
            if not np.isfinite(objective(problem, frames)):
                raise OracleDivergence(k)
    return frames


def assert_matches_oracle(got, expected):
    """descend and the loop round differently: 1e-13 of the frames' scale."""
    assert got.shape == expected.shape
    scale = max(1.0, float(np.max(np.abs(expected), initial=0.0)))
    assert float(np.max(np.abs(got - expected), initial=0.0)) <= 1e-13 * scale


class TestSurrogateResiduals:
    def test_no_events_means_zero_residual(self):
        initial = np.full((3, 2, 2), 0.4)
        schedule = np.linspace(IV.t_start, IV.t_end, 3)
        res = surrogate_residuals(initial, EventStream.empty(IV), 0.2, schedule)
        assert res.shape == (2, 2, 2)
        assert not np.any(res)

    def test_single_event_scales_intensity(self):
        initial = np.full((2, 1, 1), 0.4)
        stream = EventStream(
            np.array([0]), np.array([0]), np.array([0.0]), np.array([1]), IV
        )
        schedule = np.array([IV.t_start, IV.t_end])
        res = surrogate_residuals(initial, stream, math.log(2.0), schedule)
        assert res[0, 0, 0] == pytest.approx(0.4, abs=1e-12)

    def test_cancelling_pair_gives_zero(self):
        initial = np.full((2, 1, 1), 0.7)
        stream = EventStream(
            np.array([0, 0]),
            np.array([0, 0]),
            np.array([-0.01, 0.01]),
            np.array([1, -1]),
            IV,
        )
        schedule = np.array([IV.t_start, IV.t_end])
        res = surrogate_residuals(initial, stream, 0.3, schedule)
        assert res[0, 0, 0] == 0.0

    @pytest.mark.parametrize("c", [math.inf, math.nan, 0.0, -0.2, 1e300])
    def test_bad_threshold_rejected(self, c):
        # 1e300 is finite, but exp(c * 2) overflows at the pixel with two events
        initial = np.full((2, 1, 2), 0.4)
        stream = EventStream(
            np.array([1, 1]), np.array([0, 0]), np.array([-0.01, 0.01]), np.array([1, 1]), IV
        )
        schedule = np.array([IV.t_start, IV.t_end])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"threshold c|at c="):
                surrogate_residuals(initial, stream, c, schedule)

    def test_bad_schedule_rejected(self):
        initial = np.zeros((3, 1, 1))
        with pytest.raises(ValueError):
            surrogate_residuals(initial, EventStream.empty(IV), 0.2, np.array([0.0, 0.0, 0.01]))

    @pytest.mark.parametrize("run", [surrogate_residuals, refine])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("x", [0, 1], ids=["event-free", "with-events"])
    def test_non_finite_frame_refused_as_a_frame(self, run, bad, x):
        """RefineProblem's refusal, not an overflow at c: an inf at a quiet pixel sets a flag."""
        initial = np.full((3, 1, 2), 0.4)
        initial[0, 0, x] = bad
        stream = EventStream(
            np.array([1, 1]), np.array([0, 0]), np.array([-0.05, 0.01]), np.array([1, -1]), IV
        )
        schedule = np.linspace(IV.t_start, IV.t_end, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^initial frames holds NaN or infinite values$"):
                run(initial, stream, 0.2, schedule)
        with pytest.raises(ValueError, match="^initial frames holds NaN or infinite values$"):
            RefineProblem(initial, np.zeros((2, 1, 2)))


class TestObjective:
    def test_zero_at_consistent_configuration(self):
        rng = np.random.default_rng(223)
        initial = rng.uniform(0, 1, (5, 3, 3))
        residuals = initial[1:] - initial[:-1]
        problem = RefineProblem(initial, residuals, lam=1.0)
        assert objective(problem, initial) == 0.0

    def test_two_frame_scalar_case(self):
        problem = scalar_problem([0.0, 1.0], [0.5], lam=1.0)
        assert objective(problem, problem.initial) == pytest.approx(0.25, abs=1e-15)

    def test_zero_frames_leave_anchor_term(self):
        rng = np.random.default_rng(227)
        initial = rng.uniform(0, 1, (4, 2, 2))
        problem = RefineProblem(initial, np.zeros((3, 2, 2)), lam=2.0)
        got = objective(problem, np.zeros_like(initial))
        assert got == pytest.approx(2.0 * float(np.sum(initial * initial)), rel=1e-12)

    def test_convex_along_segments(self):
        rng = np.random.default_rng(229)
        problem = random_problem(rng, 6)
        a = rng.uniform(-1, 2, problem.initial.shape)
        b = rng.uniform(-1, 2, problem.initial.shape)
        f0 = objective(problem, a)
        f1 = objective(problem, b)
        fm = objective(problem, 0.5 * (a + b))
        assert fm <= 0.5 * f0 + 0.5 * f1 + 1e-9


class TestGradient:
    def test_zero_at_global_minimum(self):
        rng = np.random.default_rng(233)
        initial = rng.uniform(0, 1, (4, 2, 3))
        residuals = initial[1:] - initial[:-1]
        problem = RefineProblem(initial, residuals, lam=0.7)
        assert np.max(np.abs(gradient(problem, initial))) == 0.0

    def test_two_frame_hand_derivation(self):
        problem = scalar_problem([0.0, 1.0], [0.5], lam=1.0)
        grad = gradient(problem, problem.initial)
        assert grad[0, 0, 0] == pytest.approx(-1.0, abs=1e-15)
        assert grad[1, 0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(239)
        h = 1e-5
        for _ in range(100):
            d = int(rng.integers(2, 7))
            problem = RefineProblem(
                rng.uniform(0, 1, (d, 1, 1)),
                rng.uniform(-0.5, 0.5, (d - 1, 1, 1)),
                lam=float(rng.uniform(0.1, 3.0)),
            )
            frames = rng.uniform(-0.5, 1.5, (d, 1, 1))
            grad = gradient(problem, frames)
            for i in range(d):
                bumped = frames.copy()
                bumped[i] += h
                up = objective(problem, bumped)
                bumped[i] -= 2 * h
                down = objective(problem, bumped)
                fd = (up - down) / (2 * h)
                scale = max(1.0, abs(fd))
                assert abs(grad[i, 0, 0] - fd) / scale < 1e-5


class TestDescend:
    def test_negative_iteration_count_rejected(self):
        initial = np.zeros((3, 1, 1))
        residuals = np.full((2, 1, 1), 0.1)
        with pytest.raises(ValueError, match="i_max"):
            RefineProblem(initial, residuals, i_max=-3)
        problem = RefineProblem(initial, residuals, i_max=0)
        assert np.array_equal(descend(problem), initial)

    def test_fixed_point_at_minimum(self):
        rng = np.random.default_rng(241)
        initial = rng.uniform(0, 1, (5, 2, 2))
        residuals = initial[1:] - initial[:-1]
        problem = RefineProblem(initial, residuals, lam=1.0, i_max=25)
        assert_matches_oracle(descend(problem), initial)

    @pytest.mark.parametrize("step", [math.inf, math.nan, 0.0, -0.1])
    def test_bad_step_rejected(self, step):
        with pytest.raises(ValueError, match="step"):
            RefineProblem(np.zeros((3, 1, 1)), np.zeros((2, 1, 1)), step=step)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_initial_rejected(self, bad):
        initial = np.full((3, 1, 2), 0.5)
        initial[-1, 0, 1] = bad
        with pytest.raises(ValueError, match="initial"):
            RefineProblem(initial, np.zeros((2, 1, 2)))
        # the last frame does not enter the residuals, so only the frame
        # check stops the solve from returning it
        schedule = np.linspace(IV.t_start, IV.t_end, 3)
        with pytest.raises(ValueError, match="initial"):
            refine(initial, EventStream.empty(IV), 0.2, schedule)

    def test_two_frame_convergence(self):
        problem = scalar_problem([0.0, 1.0], [0.5], lam=1.0, i_max=200, step=0.1)
        frames = descend(problem)
        assert frames[0, 0, 0] == pytest.approx(1.0 / 6.0, abs=1e-4)
        assert frames[1, 0, 0] == pytest.approx(5.0 / 6.0, abs=1e-4)

    def test_monotone_objective_at_guaranteed_step(self):
        rng = np.random.default_rng(251)
        problem = random_problem(rng, 9)
        assert problem.step == pytest.approx(default_step(problem.lam))
        values = []
        for k in range(12):
            trial = RefineProblem(
                problem.initial, problem.residuals, lam=problem.lam, i_max=k
            )
            values.append(objective(problem, descend(trial)))
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_reaches_closed_form_optimum(self):
        rng = np.random.default_rng(257)
        for _ in range(10):
            problem = random_problem(rng, 14)
            exact = tridiagonal_solve(problem)
            long_run = RefineProblem(
                problem.initial, problem.residuals, lam=problem.lam, i_max=500
            )
            assert np.max(np.abs(descend(long_run) - exact)) < 1e-6
            # any number of steps costs one closed-form operator
            for i_max in (3_000_000, 10**400):
                converged = dataclasses.replace(long_run, i_max=i_max)
                assert np.max(np.abs(descend(converged) - exact)) < 1e-13

    def test_divergence_detected(self):
        """A step past the stability limit is refused up front, not left to diverge."""
        rng = np.random.default_rng(263)
        with pytest.raises(ValueError, match="stability limit"):
            RefineProblem(
                rng.uniform(0, 1, (6, 2, 2)),
                rng.uniform(-0.5, 0.5, (5, 2, 2)),
                lam=1.0,
                i_max=4000,
                step=0.75,  # above 2 / lambda_max for lambda = 1
            )

    @pytest.mark.parametrize("i_max", [2.5, 50.0, "50", None])
    def test_non_integral_iteration_count_rejected(self, i_max):
        with pytest.raises(ValueError, match="i_max"):
            RefineProblem(np.zeros((3, 1, 1)), np.zeros((2, 1, 1)), i_max=i_max)
        problem = RefineProblem(np.zeros((3, 1, 1)), np.zeros((2, 1, 1)), i_max=np.int64(7))
        assert problem.i_max == 7 and type(problem.i_max) is int


def hessian(d, lam):
    """The objective's per-pixel Hessian, 2(lambda I + D^T D)."""
    diff = np.diff(np.eye(d), axis=0)
    return 2.0 * (lam * np.eye(d) + diff.T @ diff)


class TestDefaultStep:
    """The CLI's gd refine runs at default_step, which must stay stable."""

    def test_below_the_exact_stability_limit(self):
        for d in range(2, 65):
            for lam in np.linspace(0.0, 5.0, 21):
                limit = 2.0 / np.linalg.eigvalsh(hessian(d, lam))[-1]
                assert default_step(lam) < limit, (d, lam)

    @pytest.mark.parametrize("d", [2, 14, 64])
    @pytest.mark.parametrize("lam", [0.0, 1.0, 5.0])
    def test_long_descent_stays_finite(self, d, lam):
        rng = np.random.default_rng(d)
        problem = RefineProblem(
            rng.uniform(-1, 1, (d, 3, 2)),
            rng.uniform(-1, 1, (d - 1, 3, 2)),
            lam=lam,
            i_max=4000,
        )
        frames = descend(problem)
        assert np.all(np.isfinite(frames))
        assert objective(problem, frames) <= objective(problem, problem.initial)


def stability_limit(d, lam):
    """2 / lambda_max of the Hessian, from the eigensolver."""
    return 2.0 / np.linalg.eigvalsh(hessian(d, lam))[-1]


class TestStabilityLimit:
    """RefineProblem's step limit is the eigensolver's 2 / lambda_max.

    The eigensolver's own limit is within 8 ulps of the true one, so the
    boundary is pinned to within 1e-14 (about 45 ulps) of it on both sides.
    """

    @pytest.mark.parametrize("d", range(2, 65))
    def test_limit_matches_eigensolver(self, d):
        initial, residuals = np.zeros((d, 1)), np.zeros((d - 1, 1))
        for lam in (0.0, 1e-6, 0.3, 1.0, 1.7, 5.0, 1e3):
            limit = stability_limit(d, lam)
            RefineProblem(initial, residuals, lam=lam)  # default_step
            RefineProblem(initial, residuals, lam=lam, step=limit * (1 - 1e-14))
            with pytest.raises(ValueError, match="stability limit"):
                RefineProblem(initial, residuals, lam=lam, step=limit * (1 + 1e-14))


@st.composite
def descent_problems(draw):
    """Small stacks with random lambda, steps up to 0.999 of the stability limit."""
    d = draw(st.integers(2, 8))
    h, w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 1e100, 1e150]))
    lam = draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0)))
    fraction = draw(st.one_of(st.none(), st.floats(1e-3, 0.999)))
    step = None if fraction is None else fraction * stability_limit(d, lam)
    return RefineProblem(
        scale * rng.uniform(-1, 1, (d, h, w)),
        scale * rng.uniform(-0.5, 0.5, (d - 1, h, w)),
        lam=lam,
        i_max=draw(st.integers(0, 60)),
        step=step,
    )


@settings(max_examples=300, deadline=None)
@given(descent_problems(), st.floats(1.0 + 1e-12, 60.0))
def test_descend_matches_oracle_loop(problem, unstable):
    assert_matches_oracle(descend(problem), oracle_descend(problem))
    # a step past the limit is refused before any solve
    d = problem.frame_count
    with pytest.raises(ValueError, match="stability limit"):
        dataclasses.replace(problem, step=unstable * stability_limit(d, problem.lam))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 64), st.floats(1e-3, 5.0), st.integers(0, 2**32 - 1),
       st.sampled_from([1.0, 1e100]))
def test_exact_solve_matches_dense_solver(d, lam, seed, scale):
    """The exact path against LU on the normal equations (lambda I + D^T D) x = b.

    LU loses about cond = 4 / lambda ulps, 6e-11 at lambda = 1e-6 against a
    40-digit solve that the operator meets to 1e-14, so lambda starts at 1e-3.
    """
    rng = np.random.default_rng(seed)
    problem = RefineProblem(
        scale * rng.uniform(0, 1, (d, 3)), scale * rng.uniform(-0.3, 0.3, (d - 1, 3)), lam=lam
    )
    diff = np.diff(np.eye(d), axis=0)
    rhs = lam * problem.initial + diff.T @ problem.residuals
    expected = np.linalg.solve(hessian(d, lam) / 2.0, rhs)
    got = tridiagonal_solve(problem)
    frames_scale = max(1.0, float(np.max(np.abs(expected))))
    assert float(np.max(np.abs(got - expected))) <= 1e-12 * frames_scale


def stack_problem(rng, d, shape, lam=1.0, step=None, i_max=50):
    return RefineProblem(
        rng.uniform(0, 1, (d,) + shape),
        rng.uniform(-0.3, 0.3, (d - 1,) + shape),
        lam=lam,
        i_max=i_max,
        step=step,
    )


class TestDescendTiles:
    """Edge shapes of the pixel stack: a long stack, no pixel axes, one outlier pixel."""

    def test_long_stack(self):
        rng = np.random.default_rng(311)
        problem = stack_problem(rng, 300, (17,), lam=0.6)
        assert_matches_oracle(descend(problem), oracle_descend(problem))

    def test_stack_without_pixel_axes(self):
        rng = np.random.default_rng(313)
        problem = stack_problem(rng, 9, (), lam=1.3)
        out = descend(problem)
        assert out.shape == (9,)
        assert_matches_oracle(out, oracle_descend(problem))

    def test_one_huge_pixel_diverges(self):
        rng = np.random.default_rng(317)
        # consecutive frames at +-1e308 make the flow, and so that pixel's
        # frames, overflow; the other pixels stay finite
        problem = stack_problem(rng, 6, (2, 5), i_max=250)
        problem.initial[:, 1, 2] = 1e308 * (-1.0) ** np.arange(6)
        with pytest.raises(DivergenceError, match="not finite"):
            descend(problem)
        tame = dataclasses.replace(problem, initial=np.delete(problem.initial, 1, axis=1),
                                   residuals=np.delete(problem.residuals, 1, axis=1))
        assert np.all(np.isfinite(descend(tame)))


class TestTridiagonalSolve:
    def test_two_frame_exact_solution(self):
        problem = scalar_problem([0.0, 1.0], [0.5], lam=1.0)
        frames = tridiagonal_solve(problem)
        assert frames[0, 0, 0] == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert frames[1, 0, 0] == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_consistent_residuals_return_initial(self):
        rng = np.random.default_rng(269)
        initial = rng.uniform(0, 1, (7, 3, 2))
        residuals = initial[1:] - initial[:-1]
        problem = RefineProblem(initial, residuals, lam=0.9)
        assert np.max(np.abs(tridiagonal_solve(problem) - initial)) < 1e-10

    def test_first_order_optimality(self):
        rng = np.random.default_rng(271)
        for d in (2, 5, 14):
            problem = random_problem(rng, d)
            solution = tridiagonal_solve(problem)
            assert np.max(np.abs(gradient(problem, solution))) < 1e-10

    def test_matches_dense_solver(self):
        rng = np.random.default_rng(277)
        d = 9
        problem = random_problem(rng, d, h=1, w=1, lam=1.7)
        matrix = np.zeros((d, d))
        lam = problem.lam
        for i in range(d):
            matrix[i, i] = (2.0 + lam) if 0 < i < d - 1 else (1.0 + lam)
            if i + 1 < d:
                matrix[i, i + 1] = -1.0
                matrix[i + 1, i] = -1.0
        r = problem.residuals[:, 0, 0]
        rhs = lam * problem.initial[:, 0, 0].copy()
        rhs[0] -= r[0]
        rhs[-1] += r[-1]
        rhs[1:-1] += r[:-1] - r[1:]
        expected = np.linalg.solve(matrix, rhs)
        got = tridiagonal_solve(problem)[:, 0, 0]
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_large_lambda_pins_solution_to_initial(self):
        rng = np.random.default_rng(281)
        problem = random_problem(rng, 8, lam=1e4)
        solution = tridiagonal_solve(problem)
        assert np.max(np.abs(solution - problem.initial)) < 1e-3

    @pytest.mark.parametrize("d", [2, 3, 5, 14, 48, 64, 200])
    @pytest.mark.parametrize("lam", [1e-6, 0.01, 1.0, 3.7, 1e4])
    def test_independent_of_the_problem_step(self, d, lam):
        """The exact solve is gd's filter at i = inf, whatever step the problem holds.

        A step one ulp below the stability limit can make step * w round to
        2, where (1 - 2)^inf is 1 and the filter would read 0.
        """
        rng = np.random.default_rng(d)
        initial, residuals = rng.uniform(0, 1, (d, 3)), rng.uniform(-0.3, 0.3, (d - 1, 3))
        limit = 1.0 / (lam + 2.0 + 2.0 * math.cos(math.pi / d))
        expected = tridiagonal_solve(RefineProblem(initial, residuals, lam=lam)).tobytes()
        for step in (np.nextafter(limit, 0.0), 1e-300):
            problem = RefineProblem(initial, residuals, lam=lam, step=float(step))
            assert tridiagonal_solve(problem).tobytes() == expected

    def test_flow_overflow_diverges(self):
        # finite frames whose flow 1e308 - (-1e308) overflows
        problem = scalar_problem([1e308, -1e308, 1e308], [0.0, 0.0], lam=1.0)
        with pytest.raises(DivergenceError, match="not finite"):
            tridiagonal_solve(problem)

    def test_lambda_validation(self):
        initial = np.zeros((3, 1, 1))
        residuals = np.full((2, 1, 1), 0.1)
        with pytest.raises(ValueError):
            RefineProblem(initial, residuals, lam=-0.5)
        for lam in (math.nan, math.inf):
            with pytest.raises(ValueError, match="lambda"):
                RefineProblem(initial, residuals, lam=lam)
        problem = RefineProblem(initial, residuals, lam=0.0)
        with pytest.raises(ValueError):
            tridiagonal_solve(problem)


class TestRefinePass:
    def test_solver_routes_agree(self):
        rng = np.random.default_rng(283)
        d, h, w = 6, 4, 4
        initial = rng.uniform(0.1, 0.9, (d, h, w))
        schedule = np.linspace(IV.t_start, IV.t_end, d)
        k = 60
        t = np.sort(rng.uniform(IV.t_start, IV.t_end, k))
        stream = EventStream(
            rng.integers(0, w, k), rng.integers(0, h, k), t, rng.choice([-1, 1], k), IV
        )
        a = refine(initial, stream, 0.2, schedule, solver="tridiag")
        b = refine(initial, stream, 0.2, schedule, solver="gd", i_max=500)
        assert np.max(np.abs(a - b)) < 1e-6

    def test_output_clamped(self):
        rng = np.random.default_rng(293)
        initial = rng.uniform(0.8, 1.0, (4, 3, 3))
        schedule = np.linspace(IV.t_start, IV.t_end, 4)
        k = 40
        t = np.sort(rng.uniform(IV.t_start, IV.t_end, k))
        stream = EventStream(
            rng.integers(0, 3, k), rng.integers(0, 3, k), t,
            np.ones(k, dtype=np.int64), IV,
        )
        out = refine(initial, stream, 0.5, schedule)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError):
            refine(
                np.zeros((2, 1, 1)),
                EventStream.empty(IV),
                0.2,
                np.array([IV.t_start, IV.t_end]),
                solver="newton",
            )


class TestSolverNames:
    def test_refinement_owns_them_default_first(self):
        assert SOLVERS == ("tridiag", "gd")
        assert inspect.signature(refine).parameters["solver"].default == SOLVERS[0]

    def test_unknown_solver_names_the_solvers(self):
        problem = scalar_problem([0.2, 0.4], [0.1])
        with pytest.raises(ValueError,
                           match=r"^unknown solver 'newton' \(expected 'tridiag' or 'gd'\)$"):
            _operator(problem, "newton")


def narrowest_block(d):
    """The block width below which a (d, width) product is not split."""
    b = max(PRODUCT_BLOCK_COLUMNS, -(-PRODUCT_BLOCK_MADDS // (d * (d - 1))))
    return -(-b // 64) * 64


def single_product(problem, solver):
    """``initial + Q @ flow`` as one GEMM over every column, the flow formed as ``_apply`` does."""
    d = problem.frame_count
    initial = problem.initial.reshape(d, -1)
    flow = problem.residuals.reshape(d - 1, -1) + initial[:-1]
    flow -= initial[1:]
    q = _operator(problem, solver)
    out = np.matmul(q, flow)
    out += initial
    return out.reshape(problem.initial.shape)


class TestColumnBlocks:
    """The solve writes its frames over their flow one block of columns at a time.

    Blocks are bitwise the single product only at the BLAS thread count the
    process runs with, so CI runs this class at one thread as well.
    """

    @pytest.mark.parametrize("d", [2, 8, 17, 64, 200])
    @pytest.mark.parametrize("width", [0, 1, 63, 4095, 43195, 43200, 10**6 + 1])
    def test_blocks_tile_the_columns(self, d, width):
        blocks = _column_blocks(width, d)
        assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]
        assert blocks[-1][1] == width
        b = blocks[0][1] if len(blocks) > 1 else None
        if b is not None:
            # equal blocks of a multiple of 64 columns, the last one wider
            assert b == narrowest_block(d) and b % 64 == 0
            assert all(hi - lo == b for lo, hi in blocks[:-1])
            assert b <= blocks[-1][1] - blocks[-1][0] < 2 * b

    @pytest.mark.parametrize("d", [8, 17, 64])
    def test_narrowest_block(self, d):
        b = narrowest_block(d)
        assert _column_blocks(2 * b - 1, d) == [(0, 2 * b - 1)]
        assert _column_blocks(2 * b, d) == [(0, b), (b, 2 * b)]

    @pytest.mark.parametrize("solver", ["gd", "tridiag"])
    @pytest.mark.parametrize("d", [8, 17, 64])
    def test_blocked_product_is_the_single_product(self, solver, d):
        b = narrowest_block(d)
        rng = np.random.default_rng(d)
        solve = descend if solver == "gd" else tridiagonal_solve
        for width in (1, b - 1, b, b + 1, 2 * b + 1, 1201, 43195, 43200):
            problem = stack_problem(rng, d, (width,))
            expected = single_product(problem, solver)
            assert solve(problem).tobytes() == expected.tobytes(), width

    @pytest.mark.parametrize("solver", ["gd", "tridiag"])
    def test_refine_leaves_initial_unmodified(self, solver):
        rng = np.random.default_rng(331)
        d, h, w = 16, 60, 150  # two blocks of columns
        assert len(_column_blocks(h * w, d)) > 1
        initial = rng.uniform(0.1, 0.9, (d, h, w))
        before = initial.copy()
        schedule = np.linspace(IV.t_start, IV.t_end, d)
        k = 500
        stream = EventStream(rng.integers(0, w, k), rng.integers(0, h, k),
                             np.sort(rng.uniform(IV.t_start, IV.t_end, k)),
                             rng.choice([-1, 1], k), IV)
        out = refine(initial, stream, 0.2, schedule, solver=solver)
        assert initial.tobytes() == before.tobytes()
        assert not np.shares_memory(out, initial)
        problem = RefineProblem(before, surrogate_residuals(before, stream, 0.2, schedule))
        expected = np.clip(single_product(problem, solver), 0.0, 1.0)
        assert out.tobytes() == expected.tobytes()
