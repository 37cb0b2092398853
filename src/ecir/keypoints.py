"""Keypoint selection: event-aligned pivots for the derivative interpolant.

Pivots are the n cell midpoints of the exposure interval. Each pivot, taken
left to right, shifts to the globally nearest event timestamp unless that
event was already claimed by an earlier pivot, in which case the pivot stays
put; unclaimed pivots give the representation support where the pixel saw no
events. The result is sorted and any duplicates are nudged apart so the
Lagrange nodes stay distinct.

:func:`keypoint_grid` selects for every pixel at once. One pass over the
time-sorted stream counts each pixel's events before each pivot, which places
every (pixel, pivot) pair between its two neighbouring events; the nearer
neighbour wins, ties going to the earliest equally distant event. Claims
are compared on contiguous per-pivot planes of the chosen events: pivot i
is claimed where its plane equals any earlier pivot's, pairwise, so a
repeat after a different event still counts. Only rows that need nudging
run the scalar dedup. :func:`select_keypoints` is the one-pixel case of the same search; the
per-pixel argmin loop lives on in the tests as the oracle both are held to.
Events are grouped pixel-major by :func:`ecir.types.key_groups`, and per-row
event counts are bincounts, never scatter-adds.
"""

from __future__ import annotations

import numpy as np

from .representation import KeypointSet
from .types import EventStream, ExposureInterval, key_groups

__all__ = ["pivots", "select_keypoints", "keypoint_grid"]

# duplicate keypoints are separated by this fraction of the interval length
DEDUP_STEP = 1e-9


def pivots(interval: ExposureInterval, n: int) -> np.ndarray:
    """The n evenly spaced cell midpoints t_start + (i + 1/2) * T / n."""
    if n < 2:
        raise ValueError("need at least 2 keypoints")
    step = interval.length / n
    return interval.t_start + (np.arange(n) + 0.5) * step


def _dedup_increasing(ts: np.ndarray, interval: ExposureInterval) -> np.ndarray:
    """Sort and push duplicates apart by T * 1e-9 while staying in the interval.

    Each step is at least one ulp, so duplicates part even where T * 1e-9
    is below the float spacing (at Unix-epoch seconds, say); elsewhere the
    step is T * 1e-9.
    """
    out = np.sort(ts)
    eps = interval.length * DEDUP_STEP
    for i in range(1, out.shape[0]):
        if out[i] <= out[i - 1]:
            out[i] = max(out[i - 1] + eps, np.nextafter(out[i - 1], np.inf))
    if out[-1] > interval.t_end:
        # ran past the end: pin the tail and step backwards instead
        out[-1] = interval.t_end
        for i in range(out.shape[0] - 2, -1, -1):
            if out[i] >= out[i + 1]:
                out[i] = min(out[i + 1] - eps, np.nextafter(out[i + 1], -np.inf))
    return out


def select_keypoints(
    event_times: np.ndarray, interval: ExposureInterval, n: int
) -> KeypointSet:
    """Choose n strictly increasing keypoints for one pixel.

    ``event_times`` are the pixel's event timestamps, sorted, inside the
    interval. With no events every pivot stays where it is.
    """
    base = pivots(interval, n)
    times = np.asarray(event_times, dtype=np.float64)
    if np.any(np.diff(times) < 0):
        raise ValueError("event times must be sorted")
    interval.require(times, "event times")
    if times.size == 0:
        return KeypointSet(base, interval)
    rows = _select_rows(times, np.zeros(times.shape[0], dtype=np.int64), 1, base, interval)
    return KeypointSet(rows[0], interval)


def keypoint_grid(
    events: EventStream,
    interval: ExposureInterval,
    n: int,
    shape: tuple[int, int],
) -> np.ndarray:
    """Per-pixel keypoints for a whole sensor, shape (h, w, n).

    Pixels without events share the pivot row.
    """
    h, w = shape
    base = pivots(interval, n)
    grid = np.broadcast_to(base, (h, w, n)).copy()
    if len(events) == 0:
        return grid

    ids = events.pixel_ids(shape)
    interval.require(events.t, "event times")
    touched = np.zeros(h * w, dtype=bool)
    touched[ids] = True
    pixels = np.flatnonzero(touched)
    # row ids in the narrowest type holding them; the pixel ids go once they exist
    row_ids = np.cumsum(touched) - 1
    row_of_event = row_ids.astype(np.min_scalar_type(pixels.shape[0] - 1))[ids]
    del ids, row_ids
    rows = _select_rows(events.t, row_of_event, pixels.shape[0], base, interval)
    grid.reshape(h * w, n)[pixels] = rows
    return grid


def _distances(t: np.ndarray, at: np.ndarray, base: np.ndarray) -> np.ndarray:
    """``|t[at] - base|``, formed in the gathered array."""
    d = t[at]
    d -= base
    return np.abs(d, out=d)


def _select_rows(
    times: np.ndarray,
    row_of_event: np.ndarray,
    m: int,
    base: np.ndarray,
    interval: ExposureInterval,
) -> np.ndarray:
    """Keypoints, shape (m, n), for m pixels that each own at least one event.

    ``times`` is sorted; ``row_of_event`` gives each event's pixel row.
    """
    n = base.shape[0]
    order, start, end = key_groups(row_of_event, m)  # pixel-major, time order kept
    t = times[order]
    del order

    # right[r, i]: the row's first event at or after pivot i. The events before
    # a pivot are a prefix of the sorted stream, counted per row incrementally.
    right = np.empty((m, n), dtype=np.int64)
    before = np.zeros(m, dtype=np.int64)
    done = 0
    for i, pivot in enumerate(base):
        upto = int(np.searchsorted(times, pivot, side="left"))
        before += np.bincount(row_of_event[done:upto], minlength=m)
        done = upto
        right[:, i] = start + before

    # fl(t - pivot) is monotone in t, so distances fall up to the left
    # neighbour and rise from the right one; ties go to the earliest event
    d_right = _distances(t, np.minimum(right, t.shape[0] - 1), base)
    d_right[right >= end[:, None]] = np.inf
    d_left = _distances(t, np.maximum(right - 1, 0), base)
    d_left[right <= start[:, None]] = np.inf
    go_left = d_left <= d_right
    del d_right
    nearest = right
    nearest -= go_left  # the left neighbour is the event before the right one

    # walk left winners back over every earlier event equally far from the
    # pivot: equal times, or distinct times whose distances round alike
    flat, d_flat = nearest.reshape(-1), d_left.reshape(-1)
    pairs = np.flatnonzero(go_left)
    while pairs.size:
        prev = flat[pairs] - 1
        tied = (prev >= start[pairs // n]) & (np.abs(t[prev] - base[pairs % n]) == d_flat[pairs])
        pairs = pairs[tied]
        flat[pairs] = prev[tied]
    del d_left, d_flat, go_left

    # a pivot whose event an earlier pivot of the row already took stays put;
    # the claims compare contiguous (n, m) planes of the nearest events
    chosen = t[nearest]
    del t
    planes = np.ascontiguousarray(nearest.T)
    del nearest, flat
    claimed = np.empty(m, dtype=bool)
    same = np.empty(m, dtype=bool)
    for i in range(1, n):
        np.equal(planes[0], planes[i], out=claimed)
        for j in range(1, i):
            np.equal(planes[j], planes[i], out=same)
            claimed |= same
        np.copyto(chosen[:, i], base[i], where=claimed)
    del planes
    rows = np.sort(chosen, axis=1)
    for r in np.flatnonzero(np.any(rows[:, 1:] <= rows[:, :-1], axis=1)):
        rows[r] = _dedup_increasing(chosen[r], interval)
    return rows
