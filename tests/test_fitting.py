"""Least-squares polynomial fitting and the double-integral baseline."""

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
    edi_reconstruct,
    edi_video,
    fit_polys,
    render_frame,
    synthesize_blur,
)
from ecir.fitting import _edi_factors, _edi_frames
from ecir.keypoints import pivots

from oracles import oracle_edi_factors, oracle_signed_count, tie_heavy_streams
from scenes import random_poly_grid

IV = ExposureInterval(-0.06, 0.06)


def grid_video(grid, count):
    times = np.linspace(grid.interval.t_start, grid.interval.t_end, count)
    frames = np.stack([grid.intensity_at(float(t)) for t in times])
    return SharpVideo(times, frames, grid.interval)


def random_stream(rng, k, shape, interval=IV):
    h, w = shape
    t = np.sort(rng.uniform(interval.t_start, interval.t_end, k))
    return EventStream(
        rng.integers(0, w, k), rng.integers(0, h, k), t, rng.choice([-1, 1], k), interval
    )


def oracle_edi_frame(blurry, events, c, t):
    """EDI frame at ``t`` from a fresh scatter-add count over (t_start, t]."""
    iv = events.interval
    h, w = blurry.shape
    integral = oracle_edi_factors(blurry, events, c).reshape(h, w)
    level = np.exp(c * oracle_signed_count(events, iv.t_start, float(t), (h, w)))
    return blurry.values * iv.length * level / integral


def oracle_edi_pixel(b, times, pols, interval, c, t):
    """Piecewise-constant double-integral reconstruction for one pixel."""
    bounds = [interval.t_start] + list(times) + [interval.t_end]
    levels = [1.0]
    for p in pols:
        levels.append(levels[-1] * math.exp(c * p))
    integral = sum(
        (bounds[j + 1] - bounds[j]) * levels[j] for j in range(len(levels))
    )
    signed = sum(p for tt, p in zip(times, pols) if tt <= t)
    return b * interval.length * math.exp(c * signed) / integral


class TestFitPolys:
    def test_recovers_frames_from_own_representation(self):
        rng = np.random.default_rng(127)
        grid = random_poly_grid(rng, 8, 9, 10, IV)
        video = grid_video(grid, 16)
        blurry = BlurryFrame(grid.blur(), IV)
        fitted = fit_polys(video, pivots(IV, 10), blurry)
        worst_rms = 0.0
        for t in video.times:
            err = fitted.intensity_at(float(t)) - grid.intensity_at(float(t))
            worst_rms = max(worst_rms, float(np.sqrt(np.mean(err * err))))
        assert worst_rms < 1e-6

    def test_constant_video(self):
        times = np.linspace(IV.t_start, IV.t_end, 12)
        video = SharpVideo(times, np.full((12, 4, 4), 0.61), IV)
        blurry = BlurryFrame(np.full((4, 4), 0.61), IV)
        fitted = fit_polys(video, pivots(IV, 6), blurry)
        assert np.max(np.abs(fitted.derivatives)) < 1e-6
        assert np.allclose(fitted.constants, 0.61, atol=1e-9)

    def test_blur_constraint_is_exact(self):
        rng = np.random.default_rng(131)
        grid = random_poly_grid(rng, 6, 6, 8, IV)
        video = grid_video(grid, 20)
        target = rng.uniform(0.2, 0.8, (6, 6))
        fitted = fit_polys(video, pivots(IV, 8), BlurryFrame(target, IV))
        assert np.max(np.abs(fitted.blur() - target)) < 1e-9

    def test_fitted_blur_near_trapezoid_blur(self):
        # 116 frames over 120 ms is the 960 fps sampling regime
        rng = np.random.default_rng(137)
        grid = random_poly_grid(rng, 5, 5, 10, IV, deriv_scale=1.5)
        video = grid_video(grid, 116)
        fitted = fit_polys(video, pivots(IV, 10), BlurryFrame(grid.blur(), IV))
        approx = synthesize_blur(video)
        assert np.max(np.abs(fitted.blur() - approx.values)) < 1e-3

    def test_per_pixel_keypoints(self):
        rng = np.random.default_rng(139)
        grid = random_poly_grid(rng, 4, 7, 6, IV)
        video = grid_video(grid, 12)
        keypoints = random_poly_grid(rng, 4, 7, 6, IV).keypoints
        fitted = fit_polys(video, keypoints, BlurryFrame(grid.blur(), IV))
        t = 0.013
        err = np.abs(fitted.intensity_at(t) - grid.intensity_at(t))
        assert np.max(err) < 1e-6

    def test_rank_deficient_design_warns_but_solves(self):
        rng = np.random.default_rng(149)
        grid = random_poly_grid(rng, 3, 3, 6, IV)
        video = grid_video(grid, 6)  # 6 samples, 7 unknowns
        with pytest.warns(RuntimeWarning):
            fitted = fit_polys(video, pivots(IV, 6), BlurryFrame(grid.blur(), IV))
        assert fitted.fit_warning
        assert np.all(np.isfinite(fitted.derivatives))

    def test_too_few_frames_rejected(self):
        rng = np.random.default_rng(151)
        grid = random_poly_grid(rng, 2, 2, 6, IV)
        video = grid_video(grid, 4)
        with pytest.raises(ValueError):
            fit_polys(video, pivots(IV, 6), BlurryFrame(grid.blur(), IV))

    def test_bitwise_reproducible(self):
        rng = np.random.default_rng(157)
        grid = random_poly_grid(rng, 5, 4, 7, IV)
        video = grid_video(grid, 14)
        blurry = BlurryFrame(grid.blur(), IV)
        one = fit_polys(video, pivots(IV, 7), blurry)
        two = fit_polys(video, pivots(IV, 7), blurry)
        assert np.array_equal(one.derivatives, two.derivatives)
        assert np.array_equal(one.constants, two.constants)

    def test_render_roundtrip_at_fourteen_timestamps(self):
        rng = np.random.default_rng(167)
        grid = random_poly_grid(rng, 6, 6, 10, IV)
        video = grid_video(grid, 16)
        fitted = fit_polys(video, pivots(IV, 10), BlurryFrame(grid.blur(), IV))
        for t in np.linspace(IV.t_start, IV.t_end, 14):
            err = render_frame(fitted, float(t)) - grid.intensity_at(float(t))
            assert np.max(np.abs(err)) < 1e-6


class TestEdi:
    def test_no_events_returns_blur(self):
        blurry = BlurryFrame(np.full((3, 4), 0.55), IV)
        frame = edi_reconstruct(blurry, EventStream.empty(IV), 0.2, 0.01)
        assert np.allclose(frame, 0.55, atol=1e-15)

    def test_single_event_hand_case(self):
        iv = ExposureInterval(-1.0, 1.0)
        blurry = BlurryFrame(np.full((1, 1), 0.6), iv)
        stream = EventStream(
            np.array([0]), np.array([0]), np.array([0.0]), np.array([1]), iv
        )
        c = math.log(2.0)
        before = edi_reconstruct(blurry, stream, c, -0.5)
        at = edi_reconstruct(blurry, stream, c, 0.0)
        after = edi_reconstruct(blurry, stream, c, 0.5)
        assert before[0, 0] == pytest.approx(0.4, abs=1e-12)
        assert at[0, 0] == pytest.approx(0.8, abs=1e-12)
        assert after[0, 0] == pytest.approx(0.8, abs=1e-12)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(173)
        h, w = 16, 16
        blurry = BlurryFrame(rng.uniform(0.1, 0.9, (h, w)), IV)
        stream = random_stream(rng, 100, (h, w))
        c = 0.2
        for t in (-0.05, 0.0, 0.031, IV.t_end):
            got = edi_reconstruct(blurry, stream, c, t)
            for y in range(h):
                for x in range(w):
                    mask = (stream.x == x) & (stream.y == y)
                    expected = oracle_edi_pixel(
                        blurry.values[y, x],
                        stream.t[mask],
                        stream.p[mask],
                        IV,
                        c,
                        t,
                    )
                    assert abs(got[y, x] - expected) < 1e-6

    def test_temporal_average_equals_blur(self):
        rng = np.random.default_rng(179)
        h, w = 6, 5
        blurry = BlurryFrame(rng.uniform(0.1, 0.9, (h, w)), IV)
        stream = random_stream(rng, 120, (h, w))
        c = 0.25
        # integrate the piecewise-constant reconstruction exactly, pixel by pixel
        for y in range(h):
            for x in range(w):
                mask = (stream.x == x) & (stream.y == y)
                ts = list(stream.t[mask])
                bounds = [IV.t_start] + ts + [IV.t_end]
                total = 0.0
                for j in range(len(bounds) - 1):
                    mid = 0.5 * (bounds[j] + bounds[j + 1])
                    val = edi_reconstruct(blurry, stream, c, mid)[y, x]
                    total += (bounds[j + 1] - bounds[j]) * val
                assert abs(total / IV.length - blurry.values[y, x]) < 1e-9

    def test_positive_whenever_blur_positive(self):
        rng = np.random.default_rng(181)
        blurry = BlurryFrame(rng.uniform(0.01, 1.0, (8, 8)), IV)
        stream = random_stream(rng, 400, (8, 8))
        frames = edi_video(blurry, stream, 0.3, np.linspace(IV.t_start, IV.t_end, 9))
        assert np.all(frames > 0)

    def test_video_matches_single_frames(self):
        rng = np.random.default_rng(191)
        blurry = BlurryFrame(rng.uniform(0.2, 0.8, (5, 5)), IV)
        stream = random_stream(rng, 60, (5, 5))
        c = 0.2
        uniform = np.linspace(IV.t_start, IV.t_end, 7)
        cases = (
            uniform,
            rng.permutation(uniform),
            np.concatenate([uniform[[3, 0, 3]], stream.t[[5, 5]], uniform[[6, 6]]]),
        )
        for times in cases:
            stack = edi_video(blurry, stream, c, times)
            for i, t in enumerate(times):
                assert np.array_equal(stack[i], oracle_edi_frame(blurry, stream, c, t))

    @settings(max_examples=200, deadline=None)
    @given(case=tie_heavy_streams(), data=st.data())
    def test_video_matches_single_frames_property(self, case, data):
        """The running count is bitwise equal to a fresh count per frame."""
        stream, (h, w), grid = case
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        blurry = BlurryFrame(rng.uniform(0.05, 0.95, (h, w)), IV)
        c = data.draw(st.floats(0.01, 1.0))
        # frames land on event times as well as between them
        pool = np.concatenate([grid, rng.uniform(IV.t_start, IV.t_end, 4)])
        times = rng.choice(pool, data.draw(st.integers(1, 12)))
        stack = edi_video(blurry, stream, c, times)
        for i, t in enumerate(times):
            assert stack[i].tobytes() == oracle_edi_frame(blurry, stream, c, t).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(case=tie_heavy_streams(), c=st.floats(0.01, 2.0))
    def test_factors_match_scatter_oracle_property(self, case, c):
        """Each pixel sums ((T + s1) + s2) + ... as the scatter-add does."""
        stream, shape, _ = case
        blurry = BlurryFrame(np.full(shape, 0.5), IV)
        got, touched = _edi_factors(blurry, stream, c, stream.pixel_ids(shape))
        assert got.tobytes() == oracle_edi_factors(blurry, stream, c).tobytes()
        ids = stream.y.astype(np.int64) * shape[1] + stream.x
        assert np.array_equal(touched, np.bincount(ids, minlength=got.size) > 0)

    # 256 pixels key on uint8, 257 and 65,536 on uint16, 70,000 on uint32
    @pytest.mark.parametrize("shape", [(16, 16), (1, 257), (256, 256), (1, 70000)],
                             ids=["uint8", "uint16_min", "uint16_max", "uint32"])
    def test_factors_match_int64_sort_oracle_on_every_key_width(self, shape):
        h, w = shape
        rng = np.random.default_rng(h * w)
        edges = np.array([0, 1, 255, 256, 65535, 65536, h * w - 1])
        ids = np.concatenate([edges[edges < h * w], rng.integers(0, h * w, 60)])
        ids = np.concatenate([ids, ids[rng.integers(0, ids.shape[0], 40)]])  # repeats
        k = ids.shape[0]
        stream = EventStream(ids % w, ids // w, np.sort(rng.uniform(IV.t_start, IV.t_end, k)),
                             rng.choice([-1, 1], k), IV)
        blurry = BlurryFrame(np.full(shape, 0.5), IV)
        got, touched = _edi_factors(blurry, stream, 0.3, stream.pixel_ids(shape))
        assert got.tobytes() == oracle_edi_factors(blurry, stream, 0.3).tobytes()
        assert np.array_equal(touched, np.bincount(ids, minlength=h * w) > 0)

    def test_invalid_inputs(self):
        blurry = BlurryFrame(np.full((2, 2), 0.5), IV)
        with pytest.raises(ValueError):
            edi_reconstruct(blurry, EventStream.empty(IV), -0.1, 0.0)
        with pytest.raises(ValueError):
            edi_reconstruct(blurry, EventStream.empty(IV), 0.2, 1.0)
        for c in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                edi_reconstruct(blurry, EventStream.empty(IV), c, 0.0)

    def test_stream_is_the_stack(self):
        rng = np.random.default_rng(197)
        blurry = BlurryFrame(rng.uniform(0.2, 0.8, (6, 7)), IV)
        stream = random_stream(rng, 80, (6, 7))
        times = np.sort(np.concatenate([rng.uniform(IV.t_start, IV.t_end, 6), stream.t[[3, 3]]]))
        stack = edi_video(blurry, stream, 0.25, times)
        frames = list(_edi_frames(blurry, stream, 0.25, times))
        assert len(frames) == len(times)
        for frame, expected in zip(frames, stack):
            assert frame.tobytes() == expected.tobytes()
        # each frame is its own array, free of the stream's state
        assert not any(np.shares_memory(a, b) for a, b in zip(frames, frames[1:]))

    def test_stream_leaves_numpy_error_state_alone(self):
        rng = np.random.default_rng(199)
        blurry = BlurryFrame(rng.uniform(0.2, 0.8, (4, 5)), IV)
        stream = random_stream(rng, 40, (4, 5))
        before = np.geterr()
        frames = _edi_frames(blurry, stream, 0.3, np.linspace(IV.t_start, IV.t_end, 5))
        next(frames)
        assert np.geterr() == before
        with np.errstate(all="warn"):
            next(frames)
            assert np.geterr() == {k: "warn" for k in before}
        assert np.geterr() == before
        frames.close()
        assert np.geterr() == before

    def test_overflow_on_a_later_frame_is_the_one_value_error(self):
        # scaled * exp(c) overflows once the event is counted; the
        # normalizer, about 0.07 * exp(c), stays finite
        blurry = BlurryFrame(np.full((2, 2), 1e6), IV)
        stream = EventStream([1], [0], [0.0], [1], IV)
        frames = _edi_frames(blurry, stream, 700.0, [-0.05, 0.05])
        assert np.all(np.isfinite(next(frames)))
        with pytest.raises(ValueError, match="edi frames are not finite at c=700.0"):
            next(frames)

    def test_overflowing_threshold_rejected(self):
        blurry = BlurryFrame(np.full((2, 2), 0.5), IV)
        stream = EventStream(
            np.array([1, 1]), np.array([0, 0]), np.array([-0.01, 0.02]), np.array([1, 1]), IV
        )
        times = np.array([-0.05, 0.0, 0.05])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            with pytest.raises(ValueError, match="overflows"):
                edi_video(blurry, stream, 1e300, times)
            # a large c that stays finite is still a valid reconstruction
            assert np.all(np.isfinite(edi_video(blurry, stream, 300.0, times)))
