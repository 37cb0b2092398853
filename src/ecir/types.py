"""Shared domain containers: exposure intervals, events, videos, blurry frames.

Frames are plain ``(h, w)`` float64 arrays with intensities nominally in
[0, 1]. Intermediate values are never clamped; clamping happens only when a
frame is exported to an 8-bit format (see :mod:`ecir.io`).

The time rules every stage shares are stated here once. An exposure
interval is closed, and a NaN lies outside it: :meth:`ExposureInterval.require`
is the one membership refusal, worded ``"<what> outside the exposure
interval [t_start, t_end]"`` for every caller. ``_increasing`` is the one
strict-order refusal, along the last axis, worded ``"<what> must be strictly
increasing"``; event streams keep their own non-decreasing rule.
:attr:`ExposureInterval.tolerance` is the one slack between a bound and a
frame time: :class:`SharpVideo` checks that its frames span its interval
with the very comparisons :meth:`SharpVideo.window` makes, so a window whose
bound rounds just past the video (0.02 + 0.1 past 0.12) ends on the video's
last frame and keeps the requested bound, and every window it cuts is a
valid video.

The value rules are stated here once too. ``_finite`` is the one array-level
refusal of NaN and inf, worded ``"<what> holds NaN or infinite values"``:
readers apply it where a file's floats arrive, writers before they write,
and the stages to the arrays they are handed. ``_raising`` is the one place
numpy's floating-point flags (overflow, invalid, divide) become errors: a
``FloatingPointError`` inside it leaves as a ValueError with the caller's
message. A generator enters it once per step and never across a ``yield``,
since numpy's error state is a context variable that a suspended generator
would leave set for its caller. ``_threshold`` is the one rule on a contrast
threshold ``c``: finite and positive. The rule on a signed pair of
thresholds belongs to :class:`~ecir.simulation.ThresholdConfig`, and
:func:`~ecir.simulation.polarity` holds its pair to it by making one.

The event rules are stated once, in :class:`EventStream`, which checks
membership, then order, then polarity, then coordinates, so a NaN or
infinite time always gets the membership wording. A refusal of a record
is a :class:`RecordError`, raised through ``_refuse``: a ValueError with the
usual message whose ``index`` is the flat index of the first record that
breaks the rule. ``ExposureInterval.require``, ``_increasing`` and
``_finite`` raise it too, finding the index only once the check has failed,
so valid input costs no extra pass. A parser turns the index into a place
(:mod:`ecir.io` names a text file's line or a container's event) and so
restates no rule.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

__all__ = [
    "ExposureInterval",
    "Event",
    "EventStream",
    "BlurryFrame",
    "SharpVideo",
    "key_groups",
]

_INT32 = np.iinfo(np.int32)


class RecordError(ValueError):
    """A rule broken by records; ``index`` is the flat index of the first that breaks it."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def _refuse(bad, message: str, offset: int = 0) -> None:
    """``RecordError(message)`` at ``bad``'s first true entry, if any: flat index + ``offset``."""
    if np.any(bad):
        raise RecordError(message, int(np.argmax(bad)) + offset)


@dataclass(frozen=True)
class ExposureInterval:
    """Time window [t_start, t_end] over which the conventional sensor integrates."""

    t_start: float
    t_end: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise ValueError(
                f"exposure interval bounds must be finite, got [{self.t_start}, {self.t_end}]"
            )
        if not (self.t_end > self.t_start):
            raise ValueError(
                f"degenerate exposure interval [{self.t_start}, {self.t_end}]"
            )

    @property
    def length(self) -> float:
        return self.t_end - self.t_start

    @property
    def tolerance(self) -> float:
        """How far a frame time may sit from a bound and still stand for it.

        1e-9 of the length, and at least 1e-9 s: room for the rounding of a
        bound computed as a sum, such as ``t0 + exposure``.
        """
        return 1e-9 * max(1.0, self.length)

    def contains(self, t) -> bool:
        """Whether every value of ``t`` lies in the closed interval; a NaN does not."""
        return bool(np.all(self._inside(t)))

    def require(self, t, what: str) -> None:
        """The one membership refusal: a :class:`RecordError` unless :meth:`contains` holds."""
        if not self.contains(t):
            bounds = f"[{self.t_start}, {self.t_end}]"
            _refuse(~self._inside(t), f"{what} outside the exposure interval {bounds}")

    def _inside(self, t) -> np.ndarray:
        t = np.asarray(t)
        return (t >= self.t_start) & (t <= self.t_end)

    def normalize(self, t):
        """Map absolute seconds to the normalized domain [-1, 1]."""
        return 2.0 * (np.asarray(t, dtype=np.float64) - self.t_start) / self.length - 1.0

    def uniform_times(self, count: int) -> np.ndarray:
        """``count`` timestamps spanning the interval inclusively."""
        if count < 1:
            raise ValueError("count must be >= 1")
        if count == 1:
            return np.array([0.5 * (self.t_start + self.t_end)])
        return np.linspace(self.t_start, self.t_end, count)


def _increasing(t, what: str) -> None:
    """The one strict-order refusal, along the last axis; a NaN fails it too.

    A RecordError whose index is the flat index of the first value that is
    not above the one before it.
    """
    rises = np.diff(t) > 0
    if not np.all(rises):
        # the first value of each row has no value before it
        _refuse(np.insert(~rises, 0, False, axis=-1), f"{what} must be strictly increasing")


def _finite(values, what: str) -> None:
    """The one array-level non-finite refusal: a RecordError if ``values`` holds NaN or inf."""
    if not np.all(np.isfinite(values)):
        _refuse(~np.isfinite(values), f"{what} holds NaN or infinite values")


@contextmanager
def _raising(message: str):
    """Overflow, invalid and divide flags in the block as one ``ValueError(message)``."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError:
        raise ValueError(message) from None


def _threshold(c: float) -> None:
    """The one rule on a contrast threshold: finite and positive."""
    if not (np.isfinite(c) and c > 0):
        raise ValueError(f"threshold c must be finite and positive, got {c}")


@dataclass(frozen=True)
class Event:
    """A single intensity-change record, as iterating an :class:`EventStream` yields it.

    The stream states the event rules; a record restates none of them.
    """

    x: int
    y: int
    t: float
    p: int


@dataclass
class EventStream:
    """Events sorted by time, all inside one exposure interval.

    Stored as structure-of-arrays for vectorized processing, in the binary
    container's widths: ``t`` float64 seconds, ``p`` int8 in {-1, +1}, and
    ``x``/``y`` int32 pixel indices, 17 bytes an event. A coordinate column
    stays int64 when one of its values lies outside the int32 range (a text
    file may hold any integer); every value is checked before a cast, so no
    cast wraps. Arithmetic on coordinates goes through :meth:`pixel_ids`,
    which forms int64 ids.
    """

    x: np.ndarray
    y: np.ndarray
    t: np.ndarray
    p: np.ndarray
    interval: ExposureInterval

    def __post_init__(self) -> None:
        self.x = _coordinates(self.x)
        self.y = _coordinates(self.y)
        self.t = np.asarray(self.t, dtype=np.float64)
        p = np.asarray(self.p)
        if p.dtype != np.int8:
            p = np.asarray(p, dtype=np.int64)
        n = self.t.shape[0]
        if not (self.x.shape == self.y.shape == p.shape == (n,)):
            raise ValueError("event component arrays must share one length")
        # membership first: a NaN or infinite time fails it, whatever its order
        self.interval.require(self.t, "event timestamps")
        _refuse(self.t[1:] < self.t[:-1], "event timestamps must be sorted non-decreasing", 1)
        _refuse((p != 1) & (p != -1), "polarities must be -1 or +1")
        if np.any(self.x < 0) or np.any(self.y < 0):
            _refuse((self.x < 0) | (self.y < 0), "pixel indices must be non-negative")
        self.p = p.astype(np.int8, copy=False)  # every value is -1 or +1 by now

    @classmethod
    def empty(cls, interval: ExposureInterval) -> "EventStream":
        z = np.zeros(0)
        return cls(z, z, z, z, interval)

    def __len__(self) -> int:
        return int(self.t.shape[0])

    def __iter__(self) -> Iterator[Event]:
        for x, y, t, p in zip(self.x, self.y, self.t, self.p):
            yield Event(int(x), int(y), float(t), int(p))

    def require_grid(self, shape: tuple[int, int]) -> None:
        """Refuse an event off the (h, w) grid, as a RecordError at the first one."""
        h, w = shape
        if np.any(self.x >= w) or np.any(self.y >= h):
            _refuse((self.x >= w) | (self.y >= h),
                    f"event coordinates exceed the requested grid shape {(h, w)}")

    def pixel_ids(self, shape: tuple[int, int]) -> np.ndarray:
        """Row-major int64 ``y * w + x`` per event; off-grid events (aliasing ids) raise."""
        self.require_grid(shape)
        return self.y.astype(np.int64, copy=False) * shape[1] + self.x

    def pixel_times(self, x: int, y: int) -> np.ndarray:
        """Timestamps of this pixel's events, in time order."""
        mask = (self.x == x) & (self.y == y)
        return self.t[mask]


def _coordinates(values) -> np.ndarray:
    """A coordinate column as int32 when every value fits, else as int64."""
    a = np.asarray(values)
    if a.dtype == np.int32:
        return a
    a = np.asarray(a, dtype=np.int64)
    if a.size and (a.min() < _INT32.min or a.max() > _INT32.max):
        # a strided column of a parsed table would keep the whole table alive
        return np.ascontiguousarray(a)
    return a.astype(np.int32)


def key_groups(keys: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable key-major order of ``keys`` in [0, m), and each key's [start, end).

    Key k's entries are ``order[start[k]:end[k]]``, in input order. One
    in-place sort of the packed int64 ``(key << b) | index``, b the bit
    length of n - 1, orders by key and then by index; the packed values are
    unique, so the permutation read back from the low b bits is the stable
    sort's. Keys whose packing needs more than 63 bits are refused before
    anything stream-sized is allocated. Group sizes are one ``np.bincount``,
    never a scatter-add.
    """
    n = keys.shape[0]
    b = max(n - 1, 0).bit_length()
    if max(m - 1, 0).bit_length() + b > 63:
        raise ValueError(
            f"cannot pack {n} indices with keys below {m} into 63 bits"
        )
    order = keys.astype(np.int64)
    order <<= b
    order |= np.arange(n)
    order.sort()
    order &= (1 << b) - 1
    counts = np.bincount(keys, minlength=m)
    end = np.cumsum(counts)
    return order, end - counts, end


def _active_columns(mask: np.ndarray) -> np.ndarray | slice:
    """Indices of ``mask``'s true entries, or ``slice(None)`` when all are true.

    Indexing with the full slice is a view, so a kernel restricted to the
    active columns gathers and copies nothing when every column is active.
    """
    cols = np.flatnonzero(mask)
    return slice(None) if cols.size == mask.size else cols


@dataclass
class BlurryFrame:
    """Temporal average of the latent intensity over the exposure interval."""

    values: np.ndarray
    interval: ExposureInterval

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("blurry frame must be a 2-d array")
        _finite(self.values, "blurry frame")

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass
class SharpVideo:
    """Timestamped stack of sharp frames spanning an exposure interval."""

    times: np.ndarray
    frames: np.ndarray
    interval: ExposureInterval = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=np.float64)
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 3 or self.times.ndim != 1:
            raise ValueError("expected times (k,) and frames (k, h, w)")
        if self.times.shape[0] != self.frames.shape[0]:
            raise ValueError("frame count and timestamp count differ")
        if self.times.shape[0] < 2:
            raise ValueError("a video needs at least 2 frames")
        _increasing(self.times, "timestamps")
        if self.interval is None:
            self.interval = ExposureInterval(float(self.times[0]), float(self.times[-1]))
        # the comparisons window() makes, so every window it cuts passes here
        first, last, tol = self.times[0], self.times[-1], self.interval.tolerance
        if not (first - tol <= self.interval.t_start <= first + tol
                and last - tol <= self.interval.t_end <= last + tol):
            raise ValueError("frame timestamps must span the exposure interval")

    @property
    def frame_count(self) -> int:
        return int(self.times.shape[0])

    @property
    def shape(self) -> tuple[int, int]:
        return self.frames.shape[1], self.frames.shape[2]

    def frame_at(self, t: float) -> np.ndarray:
        """Linear interpolation between the two frames straddling ``t``.

        ``t`` may lie in the video's interval or in its frame span, which
        differ by at most the tolerance; past the frame span the end frame
        stands, so a video answers for its own first and last frames.
        """
        first, last = float(self.times[0]), float(self.times[-1])
        span = ExposureInterval(min(first, self.interval.t_start), max(last, self.interval.t_end))
        span.require(t, f"t={t}")
        j = int(np.searchsorted(self.times, t, side="right"))
        if j >= self.frame_count:
            return self.frames[-1].copy()
        if j == 0:
            return self.frames[0].copy()
        t0, t1 = self.times[j - 1], self.times[j]
        w = (t - t0) / (t1 - t0)
        return (1.0 - w) * self.frames[j - 1] + w * self.frames[j]

    def window(self, interval: ExposureInterval) -> "SharpVideo":
        """Cut the video down to ``interval``, interpolating boundary frames.

        A bound up to ``interval.tolerance`` past the video's first or last
        frame stands for that frame, the tolerance by which the result's
        frame times may miss its bounds; the result keeps ``interval``. When
        both bounds are frame times the result is a slice of this video: its
        frames are a view of this stack, not a copy.
        """
        tol = interval.tolerance
        if interval.t_start < self.times[0] - tol or interval.t_end > self.times[-1] + tol:
            raise ValueError("requested window extends beyond the video")
        t_start = max(interval.t_start, float(self.times[0]))
        t_end = min(interval.t_end, float(self.times[-1]))
        lo, hi = np.searchsorted(self.times, [t_start, t_end])
        if hi < self.frame_count and self.times[lo] == t_start and self.times[hi] == t_end:
            return SharpVideo(self.times[lo : hi + 1], self.frames[lo : hi + 1], interval)
        inside = (self.times > t_start) & (self.times < t_end)
        times = [t_start]
        frames = [self.frame_at(t_start)]
        for t, f in zip(self.times[inside], self.frames[inside]):
            times.append(float(t))
            frames.append(f)
        times.append(t_end)
        frames.append(self.frame_at(t_end))
        return SharpVideo(np.array(times), np.stack(frames), interval)
