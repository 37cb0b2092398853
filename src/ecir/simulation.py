"""Event synthesis from sharp video, blur synthesis, and event voxelization.

The simulator follows the standard contrast-threshold model: a pixel fires
when its log-intensity has moved by at least c+ (or at most c-) since the
reference level set by its last event. Frames are linearly interpolated in
log space between timestamps, so events get sub-frame crossing times; a gap
large enough for several threshold steps emits several events.

Each gap between two frames is one emission for both polarities: a
pixel's threshold is c+ where its log level rose past its reference and c-
elsewhere, and its quotient rise / threshold counts its events either way.
The gaps yield pieces of int32 pixel ids, times and polarities; x and y come
from one ``divmod`` of the joined ids.

The per-event kernels avoid scatter-adds and wide sorts. :func:`voxelize` and
:func:`window_counts`, the signed-count kernel every consumer reads, sum
polarities with one ``np.bincount`` over a flat bin or pixel index; the sums
are of integers held in floats, so they are exact and equal to the
scatter-add form bit for bit in any order. :func:`simulate_events` orders
its events with a stable sort on time alone and re-sorts only the runs of
equal timestamps by (y, x, p), which is the permutation of a full
(t, y, x, p) lexicographic sort.

The event kernels run their per-gap or per-window arithmetic only on the
pixels that can have events. A pixel's reference level is ``ln[0]`` until
it fires, and rounded subtraction and division by a threshold are
monotone, so the pixel ever fires iff ``(max_g ln - ln[0]) / c+ >= 1`` or
``(min_g ln - ln[0]) / c- >= 1``, in the float operations of the gap loop
(``floor(x) >= 1`` exactly when ``x >= 1``). :func:`simulate_events`
applies that test, with a margin far above the error of ``np.log``, to
three logs a pixel, and runs its gaps only on the columns that pass, in
pixel order. Every pixel that fires passes; one that passes but never fires
counts 0 in every gap, emits nothing and keeps its reference, so the pieces
are the full grid's. When every pixel passes the index is a full slice and
nothing is gathered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .types import BlurryFrame, EventStream, ExposureInterval, SharpVideo
from .types import _active_columns, _finite

__all__ = [
    "ThresholdConfig",
    "EventHistogram",
    "polarity",
    "simulate_events",
    "synthesize_blur",
    "voxelize",
    "signed_count_between",
    "window_counts",
]

# intensities are floored before the log so dark pixels stay finite
INTENSITY_FLOOR = 1e-3
DEFAULT_CONTRAST = 0.2
DEFAULT_BINS = 40


@dataclass(frozen=True)
class ThresholdConfig:
    """Contrast thresholds with optional per-pixel jitter."""

    c_plus: float = DEFAULT_CONTRAST
    c_minus: float = -DEFAULT_CONTRAST
    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.c_plus < np.inf:
            raise ValueError("c_plus must be positive and finite")
        if not -np.inf < self.c_minus < 0:
            raise ValueError("c_minus must be negative and finite")
        if not 0 <= self.sigma < np.inf:
            raise ValueError("sigma must be non-negative and finite")

    def per_pixel(self, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        """Per-pixel thresholds drawn once per sequence: c * (1 + N(0, sigma))."""
        if self.sigma == 0.0:
            return (
                np.full(shape, self.c_plus),
                np.full(shape, self.c_minus),
            )
        rng = np.random.default_rng(self.seed)
        jitter_p = 1.0 + self.sigma * rng.standard_normal(shape)
        jitter_m = 1.0 + self.sigma * rng.standard_normal(shape)
        # keep magnitudes at least 1% of nominal so thresholds never flip sign
        cp = self.c_plus * np.maximum(jitter_p, 0.01)
        cm = self.c_minus * np.maximum(jitter_m, 0.01)
        return cp, cm


@dataclass
class EventHistogram:
    """Signed per-bin event counts, shape (m, h, w)."""

    bins: np.ndarray
    interval: ExposureInterval

    def __post_init__(self) -> None:
        self.bins = np.asarray(self.bins, dtype=np.float64)
        if self.bins.ndim != 3:
            raise ValueError("histogram must be (m, h, w)")


def polarity(delta_ln: float, c_plus: float, c_minus: float) -> int:
    """Sign of an intensity change under the threshold rule; 0 means no event.

    The pair is held to :class:`ThresholdConfig`'s rule, the one rule on a
    signed pair of thresholds.
    """
    ThresholdConfig(c_plus, c_minus)
    if delta_ln >= c_plus:
        return 1
    if delta_ln <= c_minus:
        return -1
    return 0


def _emit_for_gap(ref, q, threshold, l0, l1, t0, t1):
    """Crossing times of every pixel whose quotient ``q`` reaches 1 in this gap.

    ``q`` is each pixel's rise over its threshold, so a pixel with q >= 1
    crosses floor(q) levels, each one threshold past the last, whichever
    way it moves.
    """
    idx = np.flatnonzero(q >= 1.0)
    if idx.size == 0:
        return None
    reps = q[idx].astype(np.int64)  # truncation is the floor of q >= 1
    pix = np.repeat(idx, reps)
    # per-pixel crossing ranks 1..count, integers held exactly in floats
    offs = np.cumsum(reps)
    offs -= reps
    rank = np.arange(1.0, pix.shape[0] + 1.0)
    rank -= np.repeat(offs, reps)
    # levels = ref + rank * threshold, frac = (levels - l0) / (l1 - l0) and
    # times = t0 + frac * (t1 - t0), each formed in place; a rounded sum or
    # product does not depend on its operands' order, so the bits are these
    times = threshold[pix]
    times *= rank
    times += ref[pix]
    base = l0[pix]
    times -= base
    span = l1[pix]
    span -= base
    times /= span
    times *= t1 - t0
    times += t0
    # t0 + 1.0 * (t1 - t0) can round past t1; keep crossings inside the gap
    np.clip(times, t0, t1, out=times)
    return idx, reps, pix, times


def simulate_events(video: SharpVideo, cfg: ThresholdConfig) -> EventStream:
    """Generate the event stream a contrast-threshold sensor would produce.

    Deterministic for fixed inputs and seed. Output sorted by t with ties
    broken by (t, y, x, p).
    """
    _finite(video.frames, "video frames")
    columns = _crossings(video, cfg)
    if not columns[0]:
        return EventStream.empty(video.interval)
    # each column's per-gap pieces are freed once joined, and the order is
    # applied to one column at a time
    ids, t, p = (_join(pieces) for pieces in columns)
    y, x = np.divmod(ids, video.shape[1])
    del ids
    order = _event_order(t, y, x, p)
    x = x[order]
    y = y[order]
    t = t[order]
    p = p[order]
    return EventStream(x, y, t, p, video.interval)


def _crossings(video: SharpVideo, cfg: ThresholdConfig) -> tuple[list, list, list]:
    """Per-gap pixel id, t and p pieces of every event, in gap order.

    Each gap is one emission for both polarities: a pixel's threshold is c+
    where its log level rose past its reference and c- elsewhere, so its
    quotient is rise / c+ or rise / c-, and a zero rise gives -0.0 and no
    event. Within a piece the events are pixel-major; ids are row-major
    ``y * w + x``. The gaps run on the columns of the pixels that may fire
    (see :func:`_may_fire`), in pixel order, so every piece is the full
    grid's.
    """
    h, w = video.shape
    cp, cm = cfg.per_pixel((h, w))
    cols, ln, cp_f, cm_f = _may_fire(video.frames.reshape(video.frame_count, h * w),
                                     cp.ravel(), cm.ravel())

    # each pixel's reference log level, reset to the crossed level on each event
    ref = ln[0].copy()

    # pixel ids in the stream's int32 coordinates when the frame allows
    pixels = np.arange(h * w, dtype=np.int32 if h * w < 2**31 else np.int64)[cols]
    rise = np.empty_like(ref)
    up = np.empty(ref.shape, dtype=bool)
    down = np.empty(ref.shape, dtype=bool)
    threshold = np.empty_like(ref)
    q = np.empty_like(ref)
    all_ids, all_t, all_p = [], [], []

    for g in range(video.frame_count - 1):
        l0, l1 = ln[g], ln[g + 1]
        t0, t1 = float(video.times[g]), float(video.times[g + 1])
        np.subtract(l1, ref, out=rise)
        # threshold = where(rise > 0, c+, c-) with no branch per pixel: one
        # product is exactly the threshold and the other a zero, so the sum
        # is exact
        np.greater(rise, 0.0, out=up)
        np.logical_not(up, out=down)
        np.multiply(up, cp_f, out=threshold)
        np.multiply(down, cm_f, out=q)
        threshold += q
        np.divide(rise, threshold, out=q)
        emitted = _emit_for_gap(ref, q, threshold, l0, l1, t0, t1)
        if emitted is None:
            continue
        idx, reps, pix, times = emitted
        all_ids.append(pixels[pix])
        all_t.append(times)
        # a pixel's polarity is the sign of its rise: 2 * up - 1
        pol = up[idx].view(np.int8) * np.int8(2)
        pol -= np.int8(1)
        all_p.append(np.repeat(pol, reps))
        # the last crossing per pixel becomes the new reference
        ref[idx] += reps * threshold[idx]
    return all_ids, all_t, all_p


# the candidates' margin in log units: far above any error of np.log, so
# the three-log test below misses no pixel that fires
_LOG_SLACK = 1e-9


def _may_fire(frames: np.ndarray, cp: np.ndarray, cm: np.ndarray):
    """The columns of a (k, pixels) intensity stack whose pixels may fire.

    Returns the columns (indices, or a full slice), their (k, columns) log
    stack and their thresholds.

    Until its first event a pixel's reference is ``ln[0]``, and a gap ending
    at frame g fires it up iff floor((ln[g] - ln[0]) / cp) >= 1, that is iff
    (ln[g] - ln[0]) / cp >= 1. Rounded subtraction and division by cp > 0
    are monotone, so the largest such quotient is at the highest level: the
    pixel fires up iff (max_g ln - ln[0]) / cp >= 1. Division by cm < 0
    reverses the order: it fires down iff (min_g ln - ln[0]) / cm >= 1.

    Three logs a pixel give its first, highest and lowest log level to
    within the error of np.log, far below ``_LOG_SLACK``, so every pixel
    that fires comes within the slack of a threshold and is kept. A kept
    pixel that never fires counts 0 in every gap, emits nothing and keeps
    its reference, so the gap loop is itself the exact test.
    """
    first = np.log(np.maximum(frames[0], INTENSITY_FLOOR))
    top = np.log(np.maximum(frames.max(axis=0), INTENSITY_FLOOR))
    bottom = np.log(np.maximum(frames.min(axis=0), INTENSITY_FLOOR))
    top -= first
    bottom -= first
    near = top >= cp - _LOG_SLACK * (1.0 + cp)
    near |= bottom <= cm + _LOG_SLACK * (1.0 - cm)
    cols = _active_columns(near)
    ln = np.maximum(frames[:, cols], INTENSITY_FLOOR)
    np.log(ln, out=ln)
    return cols, ln, cp[cols], cm[cols]


def _join(pieces: list) -> np.ndarray:
    """Concatenate ``pieces`` and empty the list, so the pieces can be freed."""
    joined = np.concatenate(pieces)
    pieces.clear()
    return joined


def _event_order(t, y, x, p) -> np.ndarray:
    """The stable permutation that sorts events by (t, y, x, p).

    numpy's default sort on t alone is fast but not stable, so each run of
    equal timestamps is sorted again by (t, y, x, p, original index). That
    gives the same permutation as one stable lexicographic sort over every
    event, at the cost of the (few) tied events only.
    """
    order = np.argsort(t)
    ts = t[order]
    tied = np.flatnonzero(ts[1:] == ts[:-1])
    if tied.size:
        at = np.union1d(tied, tied + 1)  # positions inside runs of equal t
        run = order[at]
        order[at] = run[np.lexsort((run, p[run], x[run], y[run], ts[at]))]
    return order


def synthesize_blur(video: SharpVideo) -> BlurryFrame:
    """Trapezoidal temporal average of the frames over the exposure interval."""
    dt = np.diff(video.times)
    mids = video.frames[:-1] + video.frames[1:]
    mids *= 0.5
    total = np.tensordot(dt, mids, axes=(0, 0))
    return BlurryFrame(total / video.interval.length, video.interval)


def voxelize(events: EventStream, m: int, shape: tuple[int, int]) -> EventHistogram:
    """Bin polarities into an (m, h, w) histogram over the exposure interval.

    Bin index is floor((t - t_start) / T * m); an event exactly at t_end goes
    in the last bin. One ``np.bincount`` over the flat (bin, y, x) index sums
    the polarities; integer sums are exact, so the histogram equals an
    unbuffered scatter-add of p at (bin, y, x) bit for bit.
    """
    if m < 1:
        raise ValueError("bin count must be >= 1")
    h, w = shape
    ids = events.pixel_ids(shape)
    iv = events.interval
    scaled = events.t - iv.t_start
    scaled /= iv.length
    scaled *= m
    idx = np.floor(scaled, out=scaled).astype(np.int64)
    del scaled
    np.clip(idx, 0, m - 1, out=idx)
    idx *= h * w
    idx += ids
    del ids
    bins = np.bincount(idx, weights=events.p, minlength=m * h * w)
    return EventHistogram(bins.reshape(m, h, w), iv)


def window_counts(events: EventStream, edges, shape: tuple[int, int]) -> Iterator[np.ndarray]:
    """Per-pixel polarity sums, one (h, w) array per window (edges[i], edges[i+1]].

    Edges must be non-decreasing. Pixel ids are formed once per call; each
    window is one ``np.bincount`` of its slice, yielded alone, never stacked.
    """
    yield from _window_counts(events, events.pixel_ids(shape), edges, shape)


def _window_counts(events: EventStream, ids: np.ndarray, edges, shape: tuple[int, int]):
    """:func:`window_counts` on the events' pixel ids ``ids``, formed by the caller."""
    edges = np.asarray(edges, dtype=np.float64)
    if np.any(np.diff(edges) < 0):
        raise ValueError(f"window edges must be non-decreasing, got {edges}")
    h, w = shape
    cuts = np.searchsorted(events.t, edges, side="right")
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        counts = np.bincount(ids[lo:hi], weights=events.p[lo:hi], minlength=h * w)
        yield counts.reshape(h, w).astype(np.float64, copy=False)  # no events: int zeros


def signed_count_between(
    events: EventStream, t_a: float, t_b: float, shape: tuple[int, int]
) -> np.ndarray:
    """Per-pixel sum of polarities with t in the half-open window (t_a, t_b]."""
    return next(window_counts(events, [t_a, t_b], shape))
