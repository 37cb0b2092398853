"""Least-squares coefficient fitting and the double-integral analytic baseline.

``fit_polys`` is the supervision-target generator: given a sharp video and a
blurry frame, it recovers each pixel's intensity polynomial. The solve runs
once for the whole image because the sample timestamps are shared: the
intensity curve is linear in the derivative's monomial coefficients plus a
constant, so one ridge operator, the (n+1) x k solution of the regularized
normal equations against the design's transpose, maps the k frames to every
pixel's coefficients in a single matrix product. Derivative values at each
pixel's keypoints are then read off the fitted derivative, which reproduces
the same polynomial exactly, and the constant is re-solved so the blur
constraint holds to machine accuracy rather than in the least-squares sense.

``edi_video`` is the event-only analytic baseline: intensity follows
exp(c * signed event count) from an unknown starting level, and the blurry
measurement pins that level through the temporal-average constraint. It
visits its timestamps in increasing order and adds each window's signed
count to a running total, so the event stream is scanned once however many
frames are asked for. The counts are integers held in floats, so the running
total is exact. The frames come from one generator, ``_edi_frames``, one at
a time in time order: ``edi_video`` collects them into its stack, the ``edi``
command hands them straight to the frame writer, so it never holds more than
the frame being written, and ``edi_reconstruct`` takes the first.
The EDI kernels use no scatter-add: the window counts come from
:func:`ecir.simulation.window_counts`, and the normalizer groups events with
:func:`ecir.types.key_groups` and sums them with one bincount whose per-pixel
order is the scatter-add's, so both are bitwise equal to the scatter-add
forms the tests keep as oracles. The events' pixel ids are formed once per
call and serve both. The frames are exponentiated only on the
pixels that hold events, which the normalizer's groups already give: a
pixel without events keeps a count of 0, and exp(c * 0) is 1, so its frame
is ``scaled / integral`` at every time, computed once. With events on every
pixel the index is a full slice, a view, so nothing is gathered.
"""

from __future__ import annotations

import warnings

import numpy as np

from .representation import PolyGrid, horner
from .simulation import _window_counts
from .types import BlurryFrame, EventStream, SharpVideo, key_groups
from .types import _active_columns, _raising, _threshold

__all__ = ["fit_polys", "edi_reconstruct", "edi_video"]

RIDGE = 1e-8


def fit_polys(video: SharpVideo, keypoints: np.ndarray, blurry: BlurryFrame) -> PolyGrid:
    """Fit one intensity polynomial per pixel to the video frames.

    ``keypoints`` is (h, w, n) or (n,) shared across pixels. Needs at least
    n frames. A rank-deficient design flags ``fit_warning`` on the result
    and falls back on the ridge term instead of failing.
    """
    h, w = video.shape
    keypoints = np.asarray(keypoints, dtype=np.float64)
    if keypoints.ndim == 1:
        keypoints = np.broadcast_to(keypoints, (h, w, keypoints.shape[0]))
    if keypoints.shape[:2] != (h, w):
        raise ValueError("keypoint grid does not match the video resolution")
    n = keypoints.shape[2]
    if video.frame_count < n:
        raise ValueError(f"need at least {n} frames to fit {n} derivative values")
    if blurry.shape != (h, w):
        raise ValueError("blurry frame does not match the video resolution")

    interval = video.interval
    half = interval.length / 2.0
    tau = interval.normalize(video.times)  # (k,)

    # Columns j < n are integrated Legendre polynomials of the derivative,
    # mean-centered (the constant column absorbs the shift, and its
    # coefficient is re-solved from the blur anyway) and equilibrated to
    # unit norm. Near-orthogonal unit columns keep the fixed 1e-8 ridge
    # negligible; undoing the equilibration recovers (T/2) times the
    # derivative's Legendre coefficients.
    design = np.empty((tau.shape[0], n + 1))
    leg_to_mono = np.zeros((n, n))
    for j in range(n):
        unit = np.zeros(j + 1)
        unit[j] = 1.0
        design[:, j] = np.polynomial.legendre.legval(tau, np.polynomial.legendre.legint(unit))
        leg_to_mono[j, : j + 1] = np.polynomial.legendre.leg2poly(unit)
    design[:, :n] -= design[:, :n].mean(axis=0)
    design[:, n] = 1.0
    col_norms = np.linalg.norm(design, axis=0)
    degenerate = col_norms == 0.0
    col_norms[degenerate] = 1.0
    design = design / col_norms

    gram = design.T @ design + RIDGE * np.eye(n + 1)
    rank = np.linalg.matrix_rank(design)
    warn = rank < n + 1 or bool(np.any(degenerate))
    if warn:
        warnings.warn(
            "rank-deficient fit design; ridge term is doing the disambiguation",
            RuntimeWarning,
            stacklevel=2,
        )

    # the ridge operator (n+1, k), formed once: a triangular solve against
    # one right-hand side per pixel is slow on that many columns, one GEMM is not
    operator = np.linalg.solve(gram, design.T)
    theta = operator @ video.frames.reshape(video.frame_count, -1)  # (n+1, pixels)
    theta /= col_norms[:, None]
    # the product in the layout it always had (a GEMM rounds by layout), then
    # its transpose: the planes (n, h, w) of each derivative's coefficients
    deriv_mono = np.ascontiguousarray(((theta[:n].T / half) @ leg_to_mono).T).reshape(n, h, w)
    del theta
    # each derivative at its own keypoints: Horner over an (h, w, n) view of
    # (n, 1, h, w) coefficient planes against the (n, h, w) keypoint planes
    keypoints = np.ascontiguousarray(np.moveaxis(keypoints, -1, 0))
    derivs = horner(np.moveaxis(deriv_mono[:, None], 0, -1), interval.normalize(keypoints))
    del deriv_mono

    # views of planes, which the grid holds without a copy
    grid = PolyGrid(
        np.moveaxis(keypoints, 0, -1), np.moveaxis(derivs, 0, -1), np.zeros((h, w)), interval,
        fit_warning=warn,
    )
    return grid.with_constants_from_blur(blurry.values)


def _edi_factors(
    blurry: BlurryFrame, events: EventStream, c: float, ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel integral of exp(c*S) over the interval, and the pixels with events.

    ``ids`` are the events' pixel ids on the blurry frame's grid. Both
    results are flattened to (h*w,); the second is a mask, read off the
    groups of ``key_groups``. The integral is the normalizer of the double-integral
    model. One ``np.bincount`` sums each pixel's segments, in time order,
    after a leading weight of T per pixel, so every pixel accumulates
    ``((T + s1) + s2) + ...``, the sums a scatter-add of the segments onto a
    T-filled array performs, and the result is bitwise equal to it. A pixel
    without events keeps exactly T.
    """
    h, w = blurry.shape
    iv = events.interval
    if len(events) == 0:
        return np.full(h * w, iv.length), np.zeros(h * w, dtype=bool)

    hw = h * w
    order, start, end = key_groups(ids, hw)
    # the bincount's keys and weights: every pixel once (weight T), then the
    # events pixel-major (weight: their segment), each filled in place
    keys = np.empty(hw + len(events), dtype=np.int64)
    keys[:hw] = np.arange(hw)
    gid = keys[hw:]
    gid[:] = np.repeat(keys[:hw], end - start)  # the pixel-major ids

    cum = np.cumsum(events.p[order])
    # within-pixel running count: subtract the total of the pixels before
    prior = cum[start - 1]
    prior[start == 0] = 0
    cum -= prior[gid]
    levels = np.multiply(c, cum)
    del cum
    np.exp(levels, out=levels)

    # segment from each event to the next event of the same pixel (or t_end)
    gt = events.t[order]
    del order
    has = end > start
    first_t = gt[start[has]]
    weights = np.empty(hw + len(events))
    weights[:hw] = iv.length
    seg = weights[hw:]
    seg[:-1] = gt[1:]
    seg[end[has] - 1] = iv.t_end
    seg -= gt
    del gt
    seg *= levels
    del levels

    integral = np.bincount(keys, weights=weights, minlength=hw)
    integral[has] += (first_t - iv.t_start) - iv.length
    return integral, has


def edi_reconstruct(
    blurry: BlurryFrame, events: EventStream, c: float, t: float
) -> np.ndarray:
    """Sharp frame at ``t`` from the blurry frame and exponentiated event counts."""
    return next(_edi_frames(blurry, events, c, [t]))


def edi_video(
    blurry: BlurryFrame, events: EventStream, c: float, times: np.ndarray
) -> np.ndarray:
    """Frames at ``times`` (any order, repeats allowed).

    One normalizer and one pass over the events serve every frame: the
    stream of :func:`_edi_frames` over the sorted times, each frame put in
    its time's place. A ``c`` so large that exp(c * signed count) overflows
    is a ValueError.
    """
    times = np.asarray(times, dtype=np.float64)
    h, w = blurry.shape
    out = np.empty((times.shape[0], h, w))
    order = np.argsort(times, kind="stable")
    # the stream first: it checks the inputs even when there are no times
    for frame, i in zip(_edi_frames(blurry, events, c, times[order]), order):
        out[i] = frame
    return out


def _edi_frames(blurry: BlurryFrame, events: EventStream, c: float, times: np.ndarray):
    """The frames at non-decreasing ``times``, one new (h, w) array at a time.

    The inputs are checked, and the normalizer formed, when the first frame
    is asked for. A frame is kept apart from the stream's own state, so a
    writer may drop each one as it goes. Each step enters
    :func:`~ecir.types._raising` for its own arithmetic and leaves it before
    it yields. With finite inputs its flags are set only when exp(c * count)
    or the normalizer overflows, which leaves no meaningful frame.
    """
    _threshold(c)
    overflow = f"edi frames are not finite at c={c}: exp(c * signed count) overflows"
    iv = events.interval
    times = np.asarray(times, dtype=np.float64)
    iv.require(times, "timestamps")
    h, w = blurry.shape
    ids = events.pixel_ids((h, w))  # one array serves the normalizer and the windows
    windows = _window_counts(events, ids, np.r_[iv.t_start, times], (h, w))
    with _raising(overflow):
        integral, touched = _edi_factors(blurry, events, c, ids)
        scaled = blurry.values.reshape(h * w) * iv.length
        # an event-free pixel's count stays 0 and exp(c * 0) is 1, so its
        # frame is scaled / integral at every time
        quiet = np.zeros(h * w)
        np.divide(scaled, integral, out=quiet, where=~touched)
    cols = _active_columns(touched)
    scaled, integral = scaled[cols], integral[cols]
    count = np.zeros(integral.shape)
    level = np.empty(integral.shape)
    for window in windows:
        count += window.reshape(h * w)[cols]
        with _raising(overflow):
            np.multiply(c, count, out=level)
            np.exp(level, out=level)
            np.multiply(scaled, level, out=level)
            level /= integral
        frame = quiet.copy()
        frame[cols] = level
        yield frame.reshape(h, w)

