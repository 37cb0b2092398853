"""Keypoint selection: pivots, nearest-event claims, dedup, adversarial inputs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecir import ExposureInterval, SharpVideo, fit_polys, select_keypoints, synthesize_blur
from ecir.keypoints import _dedup_increasing, keypoint_grid, pivots
from ecir.simulation import simulate_events, ThresholdConfig
from ecir.types import EventStream

from scenes import random_monomial_scene, render_scene

HALF_UNIT = ExposureInterval(-0.5, 0.5)


def loop_select(event_times, interval, n):
    """Reference for the vectorized search: one argmin per pivot, one pixel at a time."""
    base = pivots(interval, n)
    times = np.asarray(event_times, dtype=np.float64)
    if times.size == 0:
        return base
    chosen = base.copy()
    claimed = np.zeros(times.shape[0], dtype=bool)
    for i, pivot in enumerate(base):
        j = int(np.argmin(np.abs(times - pivot)))  # ties go to the earlier event
        if not claimed[j]:
            claimed[j] = True
            chosen[i] = times[j]
    return _dedup_increasing(chosen, interval)


def loop_keypoint_grid(events, interval, n, shape):
    """Reference for ``keypoint_grid``: ``loop_select`` on every pixel.

    Pixels with events are found by an int64 stable argsort of their ids;
    the rest keep the pivot row.
    """
    h, w = shape
    grid = np.broadcast_to(pivots(interval, n), (h * w, n)).copy()
    ids = events.y.astype(np.int64) * w + events.x
    order = np.argsort(ids, kind="stable")
    pixels, firsts = np.unique(ids[order], return_index=True)
    for pixel, times in zip(pixels, np.split(events.t[order], firsts[1:])):
        grid[pixel] = loop_select(times, interval, n)
    return grid.reshape(h, w, n)


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def oracle_select(event_times, interval, n):
    """Independent restatement of the selection rules.

    Pivots are cell midpoints taken left to right; each shifts to the nearest
    event overall (ties to the earlier event) unless that event is claimed,
    in which case it stays. The result is sorted; duplicates are pushed up by
    T * 1e-9 (or down from the end if that would escape the interval), and
    by one ulp where T * 1e-9 is below the float spacing.
    """
    step = interval.length / n
    base = [interval.t_start + (i + 0.5) * step for i in range(n)]
    events = list(event_times)
    claimed = set()
    out = []
    for pivot in base:
        if not events:
            out.append(pivot)
            continue
        best = min(range(len(events)), key=lambda j: (abs(events[j] - pivot), j))
        if best in claimed:
            out.append(pivot)
        else:
            claimed.add(best)
            out.append(events[best])
    out.sort()
    eps = interval.length * 1e-9
    for i in range(1, n):
        if out[i] <= out[i - 1]:
            out[i] = max(out[i - 1] + eps, math.nextafter(out[i - 1], math.inf))
    if out[-1] > interval.t_end:
        out[-1] = interval.t_end
        for i in range(n - 2, -1, -1):
            if out[i] >= out[i + 1]:
                out[i] = min(out[i + 1] - eps, math.nextafter(out[i + 1], -math.inf))
    return np.array(out)


class TestPivots:
    def test_midpoints(self):
        got = pivots(HALF_UNIT, 5)
        assert got == pytest.approx([-0.4, -0.2, 0.0, 0.2, 0.4], abs=1e-15)

    def test_no_events_keeps_pivots(self):
        ks = select_keypoints(np.array([]), HALF_UNIT, 5)
        assert ks.timestamps == pytest.approx([-0.4, -0.2, 0.0, 0.2, 0.4], abs=1e-15)

    def test_events_at_pivots_are_fixed_point(self):
        events = np.array([-0.4, -0.2, 0.0, 0.2, 0.4])
        ks = select_keypoints(events, HALF_UNIT, 5)
        assert ks.timestamps == pytest.approx(events, abs=0)

    def test_too_few_keypoints_rejected(self):
        with pytest.raises(ValueError):
            select_keypoints(np.array([]), HALF_UNIT, 1)

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            ExposureInterval(0.5, 0.5)

    @pytest.mark.parametrize(
        "bounds", [(-np.inf, 0.1), (0.0, np.inf), (-np.inf, np.inf)], ids=["-inf", "inf", "both"]
    )
    def test_non_finite_interval_rejected(self, bounds):
        with pytest.raises(ValueError, match="finite"):
            ExposureInterval(*bounds)


class TestClaims:
    def test_spec_example_against_oracle(self):
        events = np.array([-0.45, -0.44, 0.31])
        expected = oracle_select(events, HALF_UNIT, 5)
        # frozen oracle output: -0.44 claimed by the first pivot, 0.31 claimed
        # by the middle pivot, the rest stay; then sorted
        assert expected == pytest.approx([-0.44, -0.2, 0.2, 0.31, 0.4], abs=1e-15)
        got = select_keypoints(events, HALF_UNIT, 5)
        assert got.timestamps == pytest.approx(expected, abs=0)

    def test_random_streams_match_oracle(self):
        rng = np.random.default_rng(59)
        for _ in range(300):
            n = int(rng.integers(2, 11))
            k = int(rng.integers(0, 12))
            events = np.sort(rng.uniform(-0.5, 0.5, k))
            got = select_keypoints(events, HALF_UNIT, n).timestamps
            expected = oracle_select(events, HALF_UNIT, n)
            assert np.array_equal(got, expected)

    def test_each_keypoint_is_event_or_pivot(self):
        rng = np.random.default_rng(61)
        base = pivots(HALF_UNIT, 7)
        for _ in range(100):
            events = np.sort(rng.uniform(-0.5, 0.5, int(rng.integers(1, 9))))
            got = select_keypoints(events, HALF_UNIT, 7).timestamps
            for t in got:
                near_event = np.any(np.abs(events - t) < 1e-12)
                near_pivot = np.any(np.abs(base - t) < 1e-12)
                assert near_event or near_pivot

    def test_unsorted_events_rejected(self):
        with pytest.raises(ValueError):
            select_keypoints(np.array([0.3, -0.1]), HALF_UNIT, 3)

    def test_repeat_claim_after_a_different_nearest_event(self):
        # Nearest events by pivot, ties to the earliest: [1, 1, 1, 0, 0, 1].
        # At 0.11, 0.11 - 2**-57 lies halfway between two doubles and rounds
        # to the even one below 0.11, so event 1 is nearest again, two pivots
        # after its last taker; comparing each pivot with its left neighbour
        # alone would hand it out twice.
        interval = ExposureInterval(0.0, 0.12)
        times = np.array([0.0, 2.0**-57])
        expected = [0.0, 2.0**-57, 0.03, 0.05, 0.09, 0.11]
        assert np.array_equal(bits(oracle_select(times, interval, 6)), bits(expected))
        stream = EventStream(np.zeros(2), np.zeros(2), times, np.ones(2), interval)
        grid = keypoint_grid(stream, interval, 6, (1, 1))
        assert np.array_equal(bits(grid), bits(loop_keypoint_grid(stream, interval, 6, (1, 1))))
        assert np.array_equal(bits(grid[0, 0]), bits(expected))


class TestDedup:
    def test_duplicate_event_timestamps(self):
        # two entries at the same instant can both be claimed; dedup must split them
        events = np.array([0.0, 0.0])
        ks = select_keypoints(events, HALF_UNIT, 2)
        assert ks.timestamps[1] > ks.timestamps[0]

    def test_duplicates_at_interval_end(self):
        events = np.array([0.5, 0.5, 0.5])
        ks = select_keypoints(events, HALF_UNIT, 3)
        assert np.all(np.diff(ks.timestamps) > 0)
        assert ks.timestamps[-1] <= 0.5

    def test_strictly_increasing_for_adversarial_inputs(self):
        rng = np.random.default_rng(67)
        for _ in range(200):
            n = int(rng.integers(2, 11))
            k = int(rng.integers(1, 15))
            # heavy duplication: few distinct values, many repeats
            pool = rng.uniform(-0.5, 0.5, max(1, k // 3 + 1))
            events = np.sort(rng.choice(pool, k))
            ks = select_keypoints(events, HALF_UNIT, n)
            assert np.all(np.diff(ks.timestamps) > 0)
            assert ks.timestamps[0] >= -0.5 and ks.timestamps[-1] <= 0.5


    def test_past_end_tail_steps_back_from_the_end(self):
        # three duplicates at the end: the forward pass runs past t_end,
        # so the tail is pinned there and each earlier entry steps back
        eps = HALF_UNIT.length * 1e-9
        out = _dedup_increasing(np.array([0.5, 0.5, 0.5, -0.1]), HALF_UNIT)
        assert np.array_equal(bits(out), bits([-0.1, 0.5 - eps - eps, 0.5 - eps, 0.5]))

    def test_duplicates_at_epoch_seconds(self):
        # T * 1e-9 is 1.2e-10 s, far below the float spacing of 2.4e-7 s at 1.6e9 s
        interval = ExposureInterval(1.6e9, 1.6e9 + 0.12)
        events = np.array([pivots(interval, 10)[5]])
        ks = select_keypoints(events, interval, 10)
        assert np.all(np.diff(ks.timestamps) > 0)
        assert np.array_equal(bits(ks.timestamps), bits(oracle_select(events, interval, 10)))

    def test_past_end_tail_at_epoch_seconds(self):
        interval = ExposureInterval(1.6e9, 1.6e9 + 0.12)
        out = _dedup_increasing(np.full(4, interval.t_end), interval)
        ulps = [np.nextafter(interval.t_end, -np.inf)]
        for _ in range(2):
            ulps.insert(0, np.nextafter(ulps[0], -np.inf))
        assert np.array_equal(bits(out), bits(ulps + [interval.t_end]))


class TestKeypointGrid:
    def test_empty_stream_gives_pivot_rows(self):
        grid = keypoint_grid(EventStream.empty(HALF_UNIT), HALF_UNIT, 5, (3, 4))
        assert grid.shape == (3, 4, 5)
        assert np.allclose(grid, pivots(HALF_UNIT, 5))

    def test_matches_per_pixel_selection(self):
        from ecir.types import SharpVideo

        rng = np.random.default_rng(71)
        h, w, k = 6, 5, 9
        times = np.linspace(-0.5, 0.5, k)
        frames = np.clip(rng.uniform(0.2, 0.8, (1, h, w))
                         + np.linspace(0, 1, k)[:, None, None]
                         * rng.uniform(-0.5, 0.5, (h, w)), 0.05, 0.95)
        video = SharpVideo(times, frames)
        events = simulate_events(video, ThresholdConfig(c_plus=0.1, c_minus=-0.1))
        assert len(events) > 0
        grid = keypoint_grid(events, HALF_UNIT, 4, (h, w))
        for y in range(h):
            for x in range(w):
                expected = select_keypoints(events.pixel_times(x, y), HALF_UNIT, 4)
                assert np.array_equal(grid[y, x], expected.timestamps)
        assert np.array_equal(bits(grid), bits(loop_keypoint_grid(events, HALF_UNIT, 4, (h, w))))

    def test_out_of_range_coordinates_rejected(self):
        stream = EventStream(
            np.array([9]), np.array([0]), np.array([0.0]), np.array([1]), HALF_UNIT
        )
        with pytest.raises(ValueError):
            keypoint_grid(stream, HALF_UNIT, 3, (2, 2))

    # 256 touched pixels key the sort on uint8, 257 and 65,536 on uint16,
    # 70,000 on uint32
    @pytest.mark.parametrize("shape", [(16, 16), (1, 257), (256, 256), (1, 70000)],
                             ids=["uint8", "uint16_min", "uint16_max", "uint32"])
    def test_matches_int64_sort_oracle_on_every_key_width(self, shape):
        h, w = shape
        rng = np.random.default_rng(h * w)
        ids = np.concatenate([np.arange(h * w), rng.integers(0, h * w, 200)])  # repeats
        k = ids.shape[0]
        t = np.sort(rng.uniform(-0.5, 0.5, k))
        stream = EventStream(ids % w, ids // w, t, np.ones(k), HALF_UNIT)
        grid = keypoint_grid(stream, HALF_UNIT, 2, shape)
        assert np.array_equal(bits(grid), bits(loop_keypoint_grid(stream, HALF_UNIT, 2, shape)))

    def test_events_outside_interval_rejected(self):
        stream = EventStream(
            np.array([0]), np.array([0]), np.array([0.4]), np.array([1]), HALF_UNIT
        )
        with pytest.raises(ValueError, match=r"^event times outside the exposure interval "
                                             r"\[-0.5, 0.3\]$"):
            keypoint_grid(stream, ExposureInterval(-0.5, 0.3), 3, (1, 1))


# intervals whose pivots sit near 0, on binary fractions, and far from both
PROPERTY_INTERVALS = [
    HALF_UNIT,
    ExposureInterval(0.0, 0.12),
    ExposureInterval(-1e-3, 2e-3),
]


@st.composite
def tie_heavy_streams(draw):
    """Small sensors whose events sit where the nearest-event rule can tie."""
    interval = draw(st.sampled_from(PROPERTY_INTERVALS))
    n = draw(st.integers(2, 12))
    h, w = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    base = pivots(interval, n)
    step = interval.length / n
    special = [interval.t_start, interval.t_end, 0.0, -0.0, 1e-20, 2e-20, -1e-20, 5e-324]
    special += [2.0**-57, 2.0**-58]  # offsets that break the nearest index's order
    for b in base:
        special += [b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf)]
        special += [b - step / 4, b + step / 4, b + step / 2]  # equidistant pairs
    special = [float(t) for t in special if interval.t_start <= t <= interval.t_end]
    times = draw(
        st.lists(
            st.one_of(
                st.sampled_from(special),
                st.floats(interval.t_start, interval.t_end),
            ),
            max_size=40,
        )
    )
    times.sort()
    k = len(times)
    pixel = draw(st.lists(st.integers(0, h * w - 1), min_size=k, max_size=k))
    pixel = np.array(pixel, dtype=np.int64)
    stream = EventStream(pixel % w, pixel // w, np.array(times), np.ones(k), interval)
    return stream, interval, n, (h, w)


@settings(max_examples=300, deadline=None)
@given(tie_heavy_streams())
def test_grid_matches_loop_oracle_bitwise(case):
    stream, interval, n, shape = case
    grid = keypoint_grid(stream, interval, n, shape)
    assert np.array_equal(bits(grid), bits(loop_keypoint_grid(stream, interval, n, shape)))
    h, w = shape
    for y in range(h):
        for x in range(w):
            one = select_keypoints(stream.pixel_times(x, y), interval, n).timestamps
            assert np.array_equal(bits(one), bits(grid[y, x]))


@st.composite
def drawn_scenes(draw):
    """A small polynomial video, its simulated events and its blurry frame, and n."""
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    n = draw(st.integers(2, 10))
    k = draw(st.integers(n + 1, 3 * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = random_monomial_scene(rng, h, w, draw(st.integers(0, n)))
    times = np.linspace(HALF_UNIT.t_start, HALF_UNIT.t_end, k)
    video = SharpVideo(times, render_scene(coeffs, HALF_UNIT, times))
    c = draw(st.sampled_from([0.02, 0.05, 0.2]))
    events = simulate_events(video, ThresholdConfig(c, -c))
    return video, events, synthesize_blur(video), n


@settings(max_examples=60, deadline=None)
@given(drawn_scenes())
def test_keypoints_do_not_change_the_fit(scene):
    """Event-aligned keypoints and even pivots render the same fitted curves.

    The least-squares fit never reads the keypoints; it only samples its
    fitted derivative there. So the keypoints parameterize the curve, and
    the renders of the two fits agree to rounding.
    """
    video, events, blurry, n = scene
    interval = video.interval
    snapped = fit_polys(video, keypoint_grid(events, interval, n, video.shape), blurry)
    even = fit_polys(video, pivots(interval, n), blurry)
    at = np.linspace(interval.t_start, interval.t_end, 9)[:, None, None]
    assert np.max(np.abs(snapped.intensity_at(at) - even.intensity_at(at))) <= 1e-9
