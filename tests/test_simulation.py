"""Contrast-threshold event synthesis, blur synthesis, and voxelization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecir import (
    BlurryFrame,
    EventStream,
    ExposureInterval,
    SharpVideo,
    ThresholdConfig,
    edi_video,
    keypoint_grid,
    polarity,
    signed_count_between,
    simulate_events,
    surrogate_residuals,
    synthesize_blur,
    voxelize,
)
from ecir.simulation import _event_order, window_counts

from oracles import oracle_signed_count, oracle_voxelize, tie_heavy_streams

IV = ExposureInterval(-0.06, 0.06)


def log_ramp_video(rise, k=12, start_intensity=0.2, interval=IV):
    """Single-pixel video whose log intensity rises linearly by ``rise``."""
    times = np.linspace(interval.t_start, interval.t_end, k)
    lnvals = math.log(start_intensity) + rise * (times - interval.t_start) / interval.length
    return SharpVideo(times, np.exp(lnvals)[:, None, None], interval)


def oracle_step_through(times, ln_values, c_plus, c_minus):
    """Scalar reference simulator: walk gaps, emit one crossing at a time."""
    ref = ln_values[0]
    out = []
    for g in range(len(times) - 1):
        l0, l1 = ln_values[g], ln_values[g + 1]
        t0, t1 = times[g], times[g + 1]
        while True:
            if l1 - ref >= c_plus:
                level = ref + c_plus
                p = 1
            elif l1 - ref <= c_minus:
                level = ref + c_minus
                p = -1
            else:
                break
            frac = (level - l0) / (l1 - l0)
            out.append((t0 + frac * (t1 - t0), p))
            ref = level
    return out


class TestPolarity:
    def test_boundaries_inclusive(self):
        assert polarity(0.2, 0.2, -0.2) == 1
        assert polarity(-0.2, 0.2, -0.2) == -1

    def test_dead_zone(self):
        assert polarity(0.19, 0.2, -0.2) == 0
        assert polarity(-0.19, 0.2, -0.2) == 0
        assert polarity(0.0, 0.2, -0.2) == 0

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            polarity(0.1, -0.2, -0.2)
        with pytest.raises(ValueError):
            ThresholdConfig(c_plus=0.2, c_minus=0.2)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("c_plus", math.nan),
            ("c_plus", math.inf),
            ("c_minus", math.nan),
            ("c_minus", -math.inf),
            ("sigma", math.nan),
            ("sigma", math.inf),
        ],
    )
    def test_non_finite_thresholds_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ThresholdConfig(**{field: value})


# thresholds at and around every edge of the signed-pair rule, and any float
EDGE_THRESHOLDS = st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0, 0.2, -0.2])


@settings(max_examples=300, deadline=None)
@given(delta_ln=st.floats(), c_plus=EDGE_THRESHOLDS | st.floats(),
       c_minus=EDGE_THRESHOLDS | st.floats())
def test_polarity_refuses_exactly_what_threshold_config_refuses(delta_ln, c_plus, c_minus):
    """polarity holds its pair to ThresholdConfig's rule and words a refusal as it does."""
    try:
        ThresholdConfig(c_plus, c_minus)
    except ValueError as exc:
        with pytest.raises(ValueError) as refused:
            polarity(delta_ln, c_plus, c_minus)
        assert str(refused.value) == str(exc)
    else:
        expected = 1 if delta_ln >= c_plus else -1 if delta_ln <= c_minus else 0
        assert polarity(delta_ln, c_plus, c_minus) == expected


def test_polarity_refuses_an_infinite_threshold():
    # the rule it once stated itself, c_plus > 0 > c_minus, let these through
    with pytest.raises(ValueError, match="c_plus must be positive and finite"):
        polarity(5.0, math.inf, -0.2)
    with pytest.raises(ValueError, match="c_minus must be negative and finite"):
        polarity(-5.0, 0.2, -math.inf)


class TestSimulateEvents:
    def test_constant_video_is_silent(self):
        times = np.linspace(IV.t_start, IV.t_end, 8)
        video = SharpVideo(times, np.full((8, 4, 4), 0.37), IV)
        assert len(simulate_events(video, ThresholdConfig())) == 0

    def test_three_threshold_steps(self):
        # rise of exactly 3 c_plus: three positive events at 1/3, 2/3, 3/3
        c = 0.25
        video = log_ramp_video(3 * c)
        events = simulate_events(video, ThresholdConfig(c_plus=c, c_minus=-c))
        assert len(events) == 3
        assert np.all(events.p == 1)
        fracs = (events.t - IV.t_start) / IV.length
        assert fracs == pytest.approx([1 / 3, 2 / 3, 1.0], abs=1e-9)

    def test_matches_step_through_oracle(self):
        rng = np.random.default_rng(79)
        for _ in range(50):
            k = int(rng.integers(3, 16))
            times = np.linspace(IV.t_start, IV.t_end, k)
            # smooth random walk in log space, bounded away from the floor
            lnvals = np.cumsum(rng.uniform(-0.5, 0.5, k)) + math.log(0.3)
            video = SharpVideo(times, np.exp(lnvals)[:, None, None], IV)
            cfg = ThresholdConfig(
                c_plus=float(rng.uniform(0.08, 0.4)),
                c_minus=-float(rng.uniform(0.08, 0.4)),
            )
            events = simulate_events(video, cfg)
            expected = oracle_step_through(times, lnvals, cfg.c_plus, cfg.c_minus)
            assert len(events) == len(expected)
            for got_t, got_p, (exp_t, exp_p) in zip(events.t, events.p, expected):
                assert abs(got_t - exp_t) < 1e-12
                assert got_p == exp_p

    def test_count_law_for_monotone_ramps(self):
        rng = np.random.default_rng(83)
        for _ in range(100):
            rise = float(rng.uniform(0.05, 3.0))
            c = float(rng.uniform(0.05, 0.5))
            video = log_ramp_video(rise, k=int(rng.integers(3, 20)))
            events = simulate_events(video, ThresholdConfig(c_plus=c, c_minus=-c))
            assert len(events) == math.floor(rise / c)

    def test_polarity_symmetry(self):
        video_up = log_ramp_video(0.9)
        down = np.exp(2 * math.log(0.2) - np.log(video_up.frames))  # mirrored ramp
        video_down = SharpVideo(video_up.times, down, IV)
        cfg = ThresholdConfig(c_plus=0.2, c_minus=-0.2)
        up = simulate_events(video_up, cfg)
        dn = simulate_events(video_down, cfg)
        assert len(up) == len(dn)
        assert np.allclose(up.t, dn.t, atol=1e-12)
        assert np.array_equal(up.p, -dn.p)

    def test_bitwise_determinism(self):
        rng = np.random.default_rng(89)
        times = np.linspace(IV.t_start, IV.t_end, 10)
        frames = np.clip(rng.uniform(0.1, 0.9, (10, 8, 8)), 0.05, None)
        video = SharpVideo(times, frames, IV)
        cfg = ThresholdConfig(sigma=0.05, seed=42)
        one = simulate_events(video, cfg)
        two = simulate_events(video, cfg)
        assert np.array_equal(one.t, two.t)
        assert np.array_equal(one.x, two.x)
        assert np.array_equal(one.y, two.y)
        assert np.array_equal(one.p, two.p)

    def test_sorted_with_deterministic_ties(self):
        rng = np.random.default_rng(97)
        times = np.linspace(IV.t_start, IV.t_end, 6)
        ramp = np.linspace(0, 1, 6)[:, None, None]
        frames = 0.2 * np.exp(ramp * rng.uniform(0.5, 1.5, (1, 5, 5)))
        video = SharpVideo(times, frames, IV)
        events = simulate_events(video, ThresholdConfig(c_plus=0.1, c_minus=-0.1))
        assert len(events) > 0
        keys = list(zip(events.t, events.y, events.x, events.p))
        assert keys == sorted(keys)

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_order_is_lexsort_on_ulp_spaced_frames(self, seed):
        # frames one ulp apart round every crossing time onto a frame time,
        # so a pixel that rises into a frame time and falls out of it emits
        # two events with equal (t, y, x) and opposite p
        rng = np.random.default_rng(seed)
        t0, k = 2.0**20, 12
        times = t0 + np.arange(k) * np.spacing(t0)
        steps = rng.choice([-1, 1], (k, 3, 4)) * rng.uniform(0.3, 0.9, (k, 3, 4))
        ln = np.log(0.3) + np.cumsum(steps, axis=0)
        video = SharpVideo(times, np.exp(ln), ExposureInterval(times[0], times[-1]))
        ev = simulate_events(video, ThresholdConfig(c_plus=0.2, c_minus=-0.2))
        same = (ev.t[1:] == ev.t[:-1]) & (ev.x[1:] == ev.x[:-1]) & (ev.y[1:] == ev.y[:-1])
        assert np.any(same & (ev.p[1:] != ev.p[:-1]))
        assert np.array_equal(np.lexsort((ev.p, ev.x, ev.y, ev.t)), np.arange(len(ev)))

    def test_order_is_lexsort_on_identical_and_mirrored_pixels(self):
        # copies of one log-intensity walk fire at the same times on several
        # pixels; its mirror image fires the opposite polarity at those times
        rng = np.random.default_rng(101)
        times = np.linspace(IV.t_start, IV.t_end, 9)
        walk = np.log(0.3) + np.cumsum(rng.uniform(-0.6, 0.6, 9))
        mirror = 2 * walk[0] - walk
        frames = np.exp(np.stack([walk, mirror, walk, mirror, walk, walk], axis=1)).reshape(9, 2, 3)
        ev = simulate_events(SharpVideo(times, frames, IV), ThresholdConfig(c_plus=0.2, c_minus=-0.2))
        tied = ev.t[1:] == ev.t[:-1]
        assert np.any(tied & (ev.p[1:] != ev.p[:-1]))
        assert np.array_equal(np.lexsort((ev.p, ev.x, ev.y, ev.t)), np.arange(len(ev)))

    def test_non_finite_input_rejected(self):
        times = np.linspace(IV.t_start, IV.t_end, 3)
        frames = np.full((3, 2, 2), 0.5)
        frames[1, 0, 0] = np.nan
        with pytest.raises(ValueError):
            simulate_events(SharpVideo(times, frames, IV), ThresholdConfig())


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_event_order_matches_four_key_lexsort(data):
    """A stable time sort with tied runs re-sorted is the (t, y, x, p) lexsort."""
    k = data.draw(st.integers(0, 60))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    pool = np.array([-1.5, -0.0, 0.0, 1e-300, 0.25, 0.25 + 2**-54, 3.0])
    t = rng.choice(pool[: data.draw(st.integers(1, pool.shape[0]))], k)
    side = data.draw(st.integers(1, 3))
    y, x = rng.integers(0, side, k), rng.integers(0, side, k)
    p = rng.choice([-1, 1], k)
    assert np.array_equal(_event_order(t, y, x, p), np.lexsort((p, x, y, t)))


class TestSynthesizeBlur:
    def test_constant_video(self):
        times = np.linspace(IV.t_start, IV.t_end, 7)
        video = SharpVideo(times, np.full((7, 3, 3), 0.42), IV)
        blur = synthesize_blur(video)
        assert np.allclose(blur.values, 0.42, atol=1e-15)

    def test_symmetric_ramp_averages_to_half(self):
        times = np.linspace(IV.t_start, IV.t_end, 9)
        ramp = np.linspace(0.0, 1.0, 9)[:, None, None] * np.ones((1, 2, 2))
        blur = synthesize_blur(SharpVideo(times, ramp, IV))
        assert np.allclose(blur.values, 0.5, atol=1e-12)

    def test_blur_of_polynomial_scene_at_960fps_density(self):
        from scenes import random_monomial_scene, render_scene, scene_blur

        rng = np.random.default_rng(211)
        times = np.linspace(IV.t_start, IV.t_end, 116)  # 960 fps over 120 ms
        coeffs = random_monomial_scene(rng, 6, 6, 10, taper=0.55)
        video = SharpVideo(times, render_scene(coeffs, IV, times), IV)
        gap = np.abs(synthesize_blur(video).values - scene_blur(coeffs))
        assert np.max(gap) < 1e-4

    def test_matches_dense_quadrature_of_linear_interpolant(self):
        rng = np.random.default_rng(101)
        times = np.sort(rng.uniform(IV.t_start, IV.t_end, 8))
        times[0], times[-1] = IV.t_start, IV.t_end
        frames = rng.uniform(0, 1, (8, 4, 3))
        video = SharpVideo(times, frames, IV)
        blur = synthesize_blur(video)
        # include the kink timestamps so the trapezoid oracle is exact for a
        # piecewise-linear interpolant
        dense_t = np.union1d(np.linspace(IV.t_start, IV.t_end, 10_000), times)
        dense = np.stack([video.frame_at(float(t)) for t in dense_t])
        oracle = np.trapezoid(dense, dense_t, axis=0) / IV.length
        assert np.max(np.abs(blur.values - oracle)) < 1e-9


class TestVoxelize:
    def test_single_midpoint_event(self):
        stream = EventStream(
            np.array([1]), np.array([0]), np.array([0.0]), np.array([1]), IV
        )
        hist = voxelize(stream, 40, (2, 3))
        assert hist.bins.shape == (40, 2, 3)
        assert hist.bins[20, 0, 1] == 1.0
        assert hist.bins.sum() == 1.0

    def test_end_of_interval_clamps_to_last_bin(self):
        stream = EventStream(
            np.array([0]), np.array([0]), np.array([IV.t_end]), np.array([-1]), IV
        )
        hist = voxelize(stream, 40, (1, 1))
        assert hist.bins[39, 0, 0] == -1.0

    def test_empty_stream(self):
        hist = voxelize(EventStream.empty(IV), 8, (4, 4))
        assert not np.any(hist.bins)

    def test_conservation_of_signed_counts(self):
        rng = np.random.default_rng(103)
        k = 1000
        t = np.sort(rng.uniform(IV.t_start, IV.t_end, k))
        x = rng.integers(0, 6, k)
        y = rng.integers(0, 5, k)
        p = rng.choice([-1, 1], k)
        stream = EventStream(x, y, t, p, IV)
        hist = voxelize(stream, 40, (5, 6))
        per_pixel = hist.bins.sum(axis=0)
        expected = np.zeros((5, 6))
        np.add.at(expected, (y, x), p.astype(float))
        assert np.array_equal(per_pixel, expected)
        abs_hist = voxelize(
            EventStream(x, y, t, np.ones(k, dtype=np.int64), IV), 40, (5, 6)
        )
        assert abs_hist.bins.sum() == k

    def test_invalid_bin_count(self):
        with pytest.raises(ValueError):
            voxelize(EventStream.empty(IV), 0, (1, 1))

    def test_out_of_bounds_coordinates_rejected(self):
        stream = EventStream(
            np.array([5]), np.array([0]), np.array([0.0]), np.array([1]), IV
        )
        with pytest.raises(ValueError):
            voxelize(stream, 4, (2, 2))
        with pytest.raises(ValueError):
            signed_count_between(stream, IV.t_start, IV.t_end, (2, 2))


@settings(max_examples=300, deadline=None)
@given(case=tie_heavy_streams(), m=st.integers(1, 50))
def test_voxelize_matches_scatter_oracle_bitwise(case, m):
    stream, shape, _ = case
    bins = voxelize(stream, m, shape).bins
    expected = oracle_voxelize(stream, m, shape)
    assert bins.dtype == expected.dtype and bins.shape == expected.shape
    assert bins.tobytes() == expected.tobytes()


@settings(max_examples=300, deadline=None)
@given(case=tie_heavy_streams(), data=st.data())
def test_signed_count_matches_scatter_oracle_bitwise(case, data):
    stream, shape, pool = case
    ends = st.sampled_from(list(pool) + [IV.t_start - 1.0, 0.0])
    t_a, t_b = sorted((data.draw(ends), data.draw(ends)))  # t_a == t_b: empty window
    got = signed_count_between(stream, t_a, t_b, shape)
    expected = oracle_signed_count(stream, t_a, t_b, shape)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=300, deadline=None)
@given(case=tie_heavy_streams(), data=st.data())
def test_window_counts_match_scatter_oracle_bitwise(case, data):
    """Repeated edges and edges on event times included."""
    stream, shape, pool = case
    ends = st.sampled_from(list(pool) + [IV.t_start - 1.0, 0.0])
    edges = sorted(data.draw(st.lists(ends, min_size=1, max_size=8)))
    windows = list(window_counts(stream, edges, shape))
    assert len(windows) == len(edges) - 1
    for t_a, t_b, got in zip(edges[:-1], edges[1:], windows):
        expected = oracle_signed_count(stream, t_a, t_b, shape)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


SHAPE = (2, 2)
EVENT_CONSUMERS = {
    "voxelize": lambda s: voxelize(s, 4, SHAPE),
    "signed_count_between": lambda s: signed_count_between(s, IV.t_start, IV.t_end, SHAPE),
    "edi_video": lambda s: edi_video(BlurryFrame(np.full(SHAPE, 0.5), IV), s, 0.2, [0.0]),
    "surrogate_residuals": lambda s: surrogate_residuals(
        np.full((2, *SHAPE), 0.5), s, 0.2, np.array([IV.t_start, IV.t_end])),
    "keypoint_grid": lambda s: keypoint_grid(s, IV, 3, SHAPE),
}


# x = 2 on row 0 of a 2x2 grid has id 2, the id of pixel (x=0, y=1): without
# the check it would count silently for the wrong pixel
@pytest.mark.parametrize("x, y", [(2, 0), (0, 2), (7, 5)],
                         ids=["aliases_next_row", "row_off_grid", "both_off_grid"])
@pytest.mark.parametrize("consumer", sorted(EVENT_CONSUMERS))
def test_every_event_consumer_rejects_off_grid_events(consumer, x, y):
    stream = EventStream(np.array([1, x]), np.array([1, y]), np.array([-0.01, 0.01]),
                         np.array([1, -1]), IV)
    with pytest.raises(ValueError, match="exceed the requested grid shape"):
        EVENT_CONSUMERS[consumer](stream)


class TestSignedCountBetween:
    @staticmethod
    def naive(stream, t_a, t_b, shape):
        out = np.zeros(shape)
        for e in stream:
            if t_a < e.t <= t_b:
                out[e.y, e.x] += e.p
        return out

    def test_empty_window(self):
        rng = np.random.default_rng(107)
        t = np.sort(rng.uniform(IV.t_start, IV.t_end, 50))
        stream = EventStream(
            rng.integers(0, 4, 50), rng.integers(0, 4, 50), t, rng.choice([-1, 1], 50), IV
        )
        assert not np.any(signed_count_between(stream, 0.01, 0.01, (4, 4)))

    def test_full_interval_matches_histogram_sum(self):
        rng = np.random.default_rng(109)
        k = 300
        t = np.sort(rng.uniform(IV.t_start, IV.t_end, k))
        stream = EventStream(
            rng.integers(0, 7, k), rng.integers(0, 6, k), t, rng.choice([-1, 1], k), IV
        )
        total = signed_count_between(stream, IV.t_start - 1e-12, IV.t_end, (6, 7))
        hist = voxelize(stream, 40, (6, 7))
        assert np.array_equal(total, hist.bins.sum(axis=0))

    def test_random_windows_match_naive_loop(self):
        rng = np.random.default_rng(113)
        k = 200
        t = np.sort(rng.uniform(IV.t_start, IV.t_end, k))
        stream = EventStream(
            rng.integers(0, 5, k), rng.integers(0, 5, k), t, rng.choice([-1, 1], k), IV
        )
        for _ in range(25):
            a, b = np.sort(rng.uniform(IV.t_start, IV.t_end, 2))
            got = signed_count_between(stream, float(a), float(b), (5, 5))
            assert np.array_equal(got, self.naive(stream, a, b, (5, 5)))

    def test_reversed_window_rejected(self):
        with pytest.raises(ValueError):
            signed_count_between(EventStream.empty(IV), 0.02, -0.02, (1, 1))
        with pytest.raises(ValueError, match="non-decreasing"):
            list(window_counts(EventStream.empty(IV), [-0.01, 0.02, 0.01], (1, 1)))


class TestThresholdJitter:
    def test_sigma_zero_is_uniform(self):
        cp, cm = ThresholdConfig(c_plus=0.3, c_minus=-0.25).per_pixel((4, 4))
        assert np.all(cp == 0.3) and np.all(cm == -0.25)

    def test_jitter_is_seeded_and_sign_safe(self):
        cfg = ThresholdConfig(sigma=0.5, seed=7)
        a_p, a_m = cfg.per_pixel((16, 16))
        b_p, b_m = cfg.per_pixel((16, 16))
        assert np.array_equal(a_p, b_p) and np.array_equal(a_m, b_m)
        assert np.all(a_p > 0) and np.all(a_m < 0)
        other_p, _ = ThresholdConfig(sigma=0.5, seed=8).per_pixel((16, 16))
        assert not np.array_equal(a_p, other_p)
