"""Event kernels restricted to the pixels that fire or hold events.

``simulation._crossings``, ``edi_video`` and ``surrogate_residuals`` run
their per-gap or per-window arithmetic only on the pixels that can have
events and fill the rest from a closed form. These tests hold each of them
to its full-grid oracle bit for bit, dtypes included, on scenes where no
pixel, one pixel, a patch or every pixel is active.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecir import (
    BlurryFrame,
    EventStream,
    SharpVideo,
    ThresholdConfig,
    edi_video,
    refine,
    simulate_events,
    surrogate_residuals,
)
from ecir import simulation
from ecir.simulation import INTENSITY_FLOOR, _crossings, _event_order
from ecir.types import _active_columns

from oracles import IV, oracle_crossings, oracle_edi_video, oracle_surrogate_residuals

KINDS = ["none", "one", "patch", "all"]


def active_mask(kind, h, w, rng):
    """Which pixels of an (h, w) grid are active: none, one, a patch or all."""
    mask = np.zeros((h, w), dtype=bool)
    if kind == "one":
        mask[rng.integers(h), rng.integers(w)] = True
    elif kind == "patch":
        y0, x0 = rng.integers(h), rng.integers(w)
        mask[y0 : y0 + rng.integers(1, h + 1), x0 : x0 + rng.integers(1, w + 1)] = True
    elif kind == "all":
        mask[:] = True
    return mask


def same_pieces(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def same_gap_pieces(got, expected, w):
    """Each gap's piece of both polarities equals the oracle's up and down pieces of that gap.

    ``got`` holds the simulator's per-gap pixel id, t and p pieces; ``expected``
    the oracle's x, y, t and p pieces, up then down within a gap, and none for
    a polarity without events. A gap's oracle pieces are therefore the next one
    or two whose sizes add up to its piece's. Within a piece the events are
    pixel-major, so a stable sort putting up before down gives the oracle's
    order, and every column must match it bit for bit, dtypes included.
    """
    ids, ts, ps = got
    xs, ys, tso, pso = expected
    k = 0
    for gid, gt, gp in zip(ids, ts, ps):
        first, size = k, 0
        while size < gid.shape[0]:
            size += xs[k].shape[0]
            k += 1
        assert size == gid.shape[0] and k - first <= 2
        order = np.lexsort((-gp,))
        y, x = np.divmod(gid[order], w)
        same_pieces([x, y, gt[order], gp[order]],
                    [np.concatenate(column[first:k]) for column in (xs, ys, tso, pso)])
    assert k == len(xs)


@st.composite
def sparse_videos(draw):
    """A small video whose active pixels wander in log intensity and the rest hold still.

    Returns the video, its threshold config and the active mask. Some base
    intensities lie below the simulator's floor.
    """
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    k = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    moving = active_mask(draw(st.sampled_from(KINDS)), h, w, rng)
    times = np.linspace(IV.t_start, IV.t_end, k)
    times[1:-1] += rng.uniform(-0.3, 0.3, k - 2) * (IV.length / (k - 1))
    base = rng.uniform(INTENSITY_FLOOR / 2, 1.0, (h, w))
    walk = rng.uniform(-1.5, 1.5, (k, h, w)).cumsum(axis=0)
    walk[0] = 0.0
    frames = base * np.exp(np.where(moving, walk, 0.0))
    cfg = ThresholdConfig(
        c_plus=draw(st.floats(0.05, 0.5)),
        c_minus=-draw(st.floats(0.05, 0.5)),
        sigma=draw(st.sampled_from([0.0, 0.1])),
        seed=draw(st.integers(0, 2**16)),
    )
    return SharpVideo(times, frames, IV), cfg, moving


@settings(max_examples=300, deadline=None)
@given(case=sparse_videos())
def test_crossings_match_full_grid_oracle(case):
    video, cfg, _ = case
    got = _crossings(video, cfg)
    expected = oracle_crossings(video, cfg)
    same_gap_pieces(got, expected, video.shape[1])
    stream = simulate_events(video, cfg)
    if expected[0]:
        x, y, t, p = (np.concatenate(pieces) for pieces in expected)
        order = _event_order(t, y, x, p)
        x, y, t, p = x[order], y[order], t[order], p[order]
    else:
        x = y = t = p = np.zeros(0)
    want = EventStream(x, y, t, p, IV)
    same_pieces([stream.x, stream.y, stream.t, stream.p], [want.x, want.y, want.t, want.p])


def gap_kernel_shapes(monkeypatch):
    """Record the shapes of the per-pixel arrays every gap hands ``_emit_for_gap``."""
    shapes = []
    real = simulation._emit_for_gap

    def spy(ref, q, threshold, l0, l1, t0, t1):
        shapes.append({a.shape for a in (ref, q, threshold, l0, l1)})
        return real(ref, q, threshold, l0, l1, t0, t1)

    monkeypatch.setattr(simulation, "_emit_for_gap", spy)
    return shapes


def patch_video(h, w, patch, k=9, rise=1.0):
    """Pixels inside ``patch`` (a mask) ramp up by ``rise`` in log; the rest hold still."""
    times = np.linspace(IV.t_start, IV.t_end, k)
    ramp = np.exp(rise * np.linspace(0.0, 1.0, k))[:, None, None]
    return SharpVideo(times, 0.3 * np.where(patch, ramp, 1.0), IV)


class TestGapKernelSeesActivePixels:
    def test_sparse_scene_passes_only_the_firing_columns(self, monkeypatch):
        h, w = 12, 16
        patch = np.zeros((h, w), dtype=bool)
        patch[4:7, 5:9] = True
        shapes = gap_kernel_shapes(monkeypatch)
        events = simulate_events(patch_video(h, w, patch), ThresholdConfig(0.2, -0.2))
        assert len(events) > 0
        assert np.array_equal(np.unique(events.y * w + events.x), np.flatnonzero(patch))
        # one call a gap for both polarities, on the 12 patch pixels, not h * w
        assert len(shapes) == 8
        assert all(s == {(int(patch.sum()),)} for s in shapes)

    def test_scene_firing_everywhere_passes_the_whole_grid(self, monkeypatch):
        h, w = 5, 7
        shapes = gap_kernel_shapes(monkeypatch)
        simulate_events(patch_video(h, w, np.ones((h, w), dtype=bool)), ThresholdConfig(0.2, -0.2))
        assert shapes and all(s == {(h * w,)} for s in shapes)

    def test_silent_scene_passes_no_columns(self, monkeypatch):
        shapes = gap_kernel_shapes(monkeypatch)
        video = patch_video(3, 4, np.zeros((3, 4), dtype=bool))
        assert len(simulate_events(video, ThresholdConfig())) == 0
        assert shapes and all(s == {(0,)} for s in shapes)


def log_step_video(second):
    """A 1x2 video: pixel 0 steps from 1.0 to ``second``, pixel 1 holds 1.0."""
    frames = np.array([[[1.0, 1.0]], [[second, 1.0]]])
    return SharpVideo(np.array([IV.t_start, IV.t_end]), frames, IV)


@pytest.mark.parametrize("ulps_short, events", [(0, 1), (1, 0)], ids=["exactly_c_plus", "ulp_short"])
def test_rise_on_the_threshold(monkeypatch, ulps_short, events):
    """A log rise of exactly c_plus (ratio 1.0) fires once; one a ulp short never does.

    Both rises come within the candidates' margin, so the gap kernel sees the
    stepping pixel either way and its own counts decide.
    """
    video = log_step_video(1.5)
    ln = np.log(np.maximum(video.frames, INTENSITY_FLOOR))
    c_plus = float(ln[1, 0, 0] - ln[0, 0, 0])  # the rise, as the simulator forms it
    for _ in range(ulps_short):
        c_plus = math.nextafter(c_plus, math.inf)
    cfg = ThresholdConfig(c_plus=c_plus, c_minus=-1.0)
    shapes = gap_kernel_shapes(monkeypatch)
    got = _crossings(video, cfg)
    same_gap_pieces(got, oracle_crossings(video, cfg), video.shape[1])
    assert sum(piece.shape[0] for piece in got[0]) == events
    assert shapes == [{(1,)}]


def test_pixel_crossing_only_downward(monkeypatch):
    h, w = 3, 3
    patch = np.zeros((h, w), dtype=bool)
    patch[1, 2] = True
    video = patch_video(h, w, patch, rise=-1.3)
    cfg = ThresholdConfig(0.2, -0.2, sigma=0.1, seed=4)
    shapes = gap_kernel_shapes(monkeypatch)
    got = _crossings(video, cfg)
    same_gap_pieces(got, oracle_crossings(video, cfg), video.shape[1])
    p = np.concatenate(got[2])
    assert p.shape[0] >= 5 and np.all(p == -1)
    assert len(shapes) == video.frame_count - 1 and all(s == {(1,)} for s in shapes)


@st.composite
def sparse_streams(draw):
    """Events on the pixels of one active mask, with timestamps shared from a pool.

    Returns the stream, its shape and the pool (interval ends included), so
    frame times and schedules can fall exactly on event times. The "none"
    mask gives an empty stream; "all" puts an event on every pixel.
    """
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = np.flatnonzero(active_mask(draw(st.sampled_from(KINDS)), h, w, rng))
    pool = np.concatenate([rng.uniform(IV.t_start, IV.t_end, draw(st.integers(1, 8))),
                           [IV.t_start, IV.t_end]])
    if ids.size:
        ids = np.concatenate([ids, rng.choice(ids, draw(st.integers(0, 30)))])
    k = ids.size
    stream = EventStream(ids % w, ids // w, np.sort(rng.choice(pool, k)),
                         rng.choice([-1, 1], k), IV)
    return stream, (h, w), pool


@settings(max_examples=300, deadline=None)
@given(case=sparse_streams(), c=st.floats(0.01, 2.0), data=st.data())
def test_edi_video_matches_full_grid_oracle(case, c, data):
    stream, shape, pool = case
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    blurry = BlurryFrame(rng.uniform(-0.5, 1.5, shape), IV)
    times = np.array(data.draw(st.lists(st.sampled_from(list(pool)), max_size=6)))
    got = edi_video(blurry, stream, c, times)
    expected = oracle_edi_video(blurry, stream, c, times)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=300, deadline=None)
@given(case=sparse_streams(), c=st.floats(0.01, 2.0), data=st.data())
def test_surrogate_residuals_match_full_grid_oracle(case, c, data):
    """Frames hold negative values, 0.0 and -0.0; an event-free pixel keeps its zero's sign.

    A one-entry schedule gives an empty (0, h, w) stack.
    """
    stream, shape, pool = case
    schedule = np.unique(data.draw(st.lists(st.sampled_from(list(pool)), min_size=1, max_size=6)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    initial = rng.uniform(-1.0, 1.0, (schedule.shape[0],) + shape)
    initial[rng.random(initial.shape) < 0.2] = -0.0
    initial[rng.random(initial.shape) < 0.1] = 0.0
    got = surrogate_residuals(initial, stream, c, schedule)
    expected = oracle_surrogate_residuals(initial, stream, c, schedule)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


class TestEmptyStream:
    def test_edi_video(self):
        blurry = BlurryFrame(np.array([[0.25, -0.5], [0.0, 1.0]]), IV)
        times = np.array([0.01, IV.t_start, IV.t_end, 0.01])
        got = edi_video(blurry, EventStream.empty(IV), 0.2, times)
        expected = oracle_edi_video(blurry, EventStream.empty(IV), 0.2, times)
        assert got.tobytes() == expected.tobytes()

    def test_surrogate_residuals(self):
        initial = np.array([[[0.5, -0.0]], [[-0.25, 0.0]], [[1.0, -1.0]]])
        schedule = np.array([IV.t_start, 0.0, IV.t_end])
        got = surrogate_residuals(initial, EventStream.empty(IV), 0.2, schedule)
        assert got.tobytes() == oracle_surrogate_residuals(
            initial, EventStream.empty(IV), 0.2, schedule).tobytes()
        assert np.array_equal(np.signbit(got), np.signbit(initial[:-1]))


def one_busy_pixel(h=3, w=4, y=1, x=2, k=3):
    """``k`` positive events on pixel (y, x) of an (h, w) grid, none elsewhere."""
    t = np.linspace(-0.03, 0.03, k)
    return EventStream(np.full(k, x), np.full(k, y), t, np.ones(k, dtype=int), IV), (h, w)


def test_refine_on_one_frame_stops_at_the_frame_count():
    stream, shape = one_busy_pixel()
    with pytest.raises(ValueError, match="need at least 2 frames"):
        refine(np.full((1,) + shape, 0.5), stream, 0.2, np.array([0.0]))


class TestOverflowOnATouchedPixel:
    C = 400.0  # exp(400 * 3) overflows; exp(400 * 0) on the quiet pixels does not

    def test_edi_video(self):
        stream, shape = one_busy_pixel()
        blurry = BlurryFrame(np.full(shape, 0.5), IV)
        times = np.array([0.0, IV.t_end])
        for fn in (edi_video, oracle_edi_video):
            with pytest.raises(ValueError, match="not finite"):
                fn(blurry, stream, self.C, times)

    def test_surrogate_residuals(self):
        stream, shape = one_busy_pixel()
        initial = np.full((2,) + shape, 0.5)
        schedule = np.array([IV.t_start, IV.t_end])
        for fn in (surrogate_residuals, oracle_surrogate_residuals):
            with pytest.raises(ValueError, match="not finite"):
                fn(initial, stream, self.C, schedule)


class TestActiveColumns:
    def test_every_column_is_the_full_slice(self):
        mask = np.ones(6, dtype=bool)
        cols = _active_columns(mask)
        assert cols == slice(None)
        data = np.arange(6.0)
        assert np.shares_memory(data[cols], data)

    def test_some_columns_are_their_indices(self):
        cols = _active_columns(np.array([False, True, False, True]))
        assert np.array_equal(cols, [1, 3])

    def test_no_column(self):
        assert _active_columns(np.zeros(3, dtype=bool)).size == 0
