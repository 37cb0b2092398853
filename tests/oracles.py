"""Reference forms of kernels the library computes another way, and inputs to check them on.

The per-event oracles are the straightforward ``np.add.at`` forms of kernels
the library computes with one ``np.bincount`` over a flat index or a
narrow-key radix sort. The full-grid oracles run the event kernels'
arithmetic on every pixel, where the library runs it only on the pixels
that fire or hold events. The polynomial oracles are the last-axis (..., n)
forms of the kernels the library runs on (n, ...) planes: each step slices
the last axis, with a stride of n elements. The tests hold the library to
these bit for bit. The frame-kernel oracles are forms the library computed
before, and the tests hold it to them within named tolerances: SSIM's
five windowed means of 2-d patches, and the ridge fit's solve against one
right-hand side per pixel.
"""

import numpy as np
from hypothesis import strategies as st

from ecir import EventStream, ExposureInterval, PolyGrid
from ecir.fitting import RIDGE
from ecir.metrics import SSIM_K1, SSIM_K2, SSIM_SIGMA, SSIM_WINDOW
from ecir.simulation import INTENSITY_FLOOR

IV = ExposureInterval(-0.06, 0.06)


@st.composite
def tie_heavy_streams(draw):
    """Small sensors, repeated pixels, both polarities, shared timestamps.

    Returns the stream over ``IV``, its shape and the timestamp pool the
    events use, so windows and frames can fall exactly on event times.
    """
    h, w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    k = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.uniform(IV.t_start, IV.t_end, draw(st.integers(1, 8)))
    pool = np.concatenate([pool, [IV.t_start, IV.t_end]])
    stream = EventStream(
        rng.integers(0, w, k), rng.integers(0, h, k), np.sort(rng.choice(pool, k)),
        rng.choice([-1, 1], k), IV,
    )
    return stream, (h, w), pool


def oracle_voxelize(events, m, shape):
    """(m, h, w) histogram: each polarity added at (bin, y, x), one at a time."""
    h, w = shape
    bins = np.zeros((m, h, w))
    if len(events):
        iv = events.interval
        idx = np.floor((events.t - iv.t_start) / iv.length * m).astype(np.int64)
        idx = np.clip(idx, 0, m - 1)
        np.add.at(bins, (idx, events.y, events.x), events.p.astype(np.float64))
    return bins


def oracle_signed_count(events, t_a, t_b, shape):
    """Per-pixel sum of the polarities with t in (t_a, t_b]."""
    out = np.zeros(shape)
    lo = int(np.searchsorted(events.t, t_a, side="right"))
    hi = int(np.searchsorted(events.t, t_b, side="right"))
    np.add.at(out, (events.y[lo:hi], events.x[lo:hi]), events.p[lo:hi].astype(np.float64))
    return out


def oracle_edi_factors(blurry, events, c):
    """EDI normalizer: segments scatter-added onto T, grouped by an int64 sort."""
    h, w = blurry.shape
    iv = events.interval
    integral = np.full(h * w, iv.length)
    if len(events) == 0:
        return integral
    ids = events.y.astype(np.int64) * w + events.x
    order = np.argsort(ids, kind="stable")
    gid = ids[order]
    gt = events.t[order]
    gp = events.p[order]

    starts = np.flatnonzero(np.r_[True, np.diff(gid) != 0])
    group_of = np.cumsum(np.r_[True, np.diff(gid) != 0]) - 1
    cum = np.cumsum(gp)
    base = np.r_[0, cum[starts[1:] - 1]] if starts.shape[0] > 1 else np.zeros(1)
    levels = np.exp(c * (cum - base[group_of]))

    next_t = np.empty_like(gt)
    next_t[:-1] = gt[1:]
    is_last = np.zeros(gt.shape[0], dtype=bool)
    is_last[starts - 1] = True
    is_last[-1] = True
    next_t[is_last] = iv.t_end

    np.add.at(integral, gid, (next_t - gt) * levels)
    integral[gid[starts]] += (gt[starts] - iv.t_start) - iv.length
    return integral


def oracle_crossings(video, cfg):
    """Per-gap x, y, t and p pieces of every event, each gap run on every pixel."""
    ln = np.maximum(video.frames, INTENSITY_FLOOR)
    np.log(ln, out=ln)
    h, w = video.shape
    cp, cm = cfg.per_pixel((h, w))
    cp_f, cm_f = cp.ravel(), cm.ravel()
    ref = ln[0].ravel().copy()
    ys, xs = np.divmod(np.arange(h * w, dtype=np.int32 if h * w < 2**31 else np.int64), w)
    all_x, all_y, all_t, all_p = [], [], [], []
    for g in range(video.frame_count - 1):
        l0, l1 = ln[g].ravel(), ln[g + 1].ravel()
        t0, t1 = float(video.times[g]), float(video.times[g + 1])
        rise = l1 - ref
        n_pos = np.where(rise > 0, np.floor(rise / cp_f), 0.0).astype(np.int64)
        n_neg = np.where(rise < 0, np.floor(rise / cm_f), 0.0).astype(np.int64)
        for count, threshold, pol in ((n_pos, cp_f, 1), (n_neg, cm_f, -1)):
            idx = np.flatnonzero(count > 0)
            if idx.size == 0:
                continue
            reps = count[idx]
            pix = np.repeat(idx, reps)
            offs = np.concatenate(([0], np.cumsum(reps)))[:-1]
            rank = np.arange(pix.shape[0]) - np.repeat(offs, reps) + 1.0
            levels = ref[pix] + rank * threshold[pix]
            frac = (levels - l0[pix]) / (l1[pix] - l0[pix])
            all_x.append(xs[pix])
            all_y.append(ys[pix])
            all_t.append(np.clip(t0 + frac * (t1 - t0), t0, t1))
            all_p.append(np.full(pix.shape[0], pol, dtype=np.int8))
            ref[idx] += reps * threshold[idx]
    return all_x, all_y, all_t, all_p


def oracle_edi_video(blurry, events, c, times):
    """EDI frames at ``times``, every pixel's level exponentiated at every frame."""
    iv = events.interval
    times = np.asarray(times, dtype=np.float64)
    h, w = blurry.shape
    out = np.empty((times.shape[0], h, w))
    count = np.zeros((h, w))
    level = np.empty((h, w))
    order = np.argsort(times, kind="stable")
    edges = np.r_[iv.t_start, times[order]]
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            integral = oracle_edi_factors(blurry, events, c).reshape(h, w)
            scaled = blurry.values * iv.length
            for i, t_a, t_b in zip(order, edges[:-1], edges[1:]):
                count += oracle_signed_count(events, t_a, t_b, (h, w))
                np.multiply(c, count, out=level)
                np.exp(level, out=level)
                np.multiply(scaled, level, out=out[i])
                out[i] /= integral
    except FloatingPointError:
        raise ValueError("edi frames are not finite") from None
    return out


def oracle_surrogate_residuals(initial, events, c, schedule):
    """Residuals ``initial[i] * expm1(c * count)`` on every pixel of every window."""
    initial = np.asarray(initial, dtype=np.float64)
    d = initial.shape[0]
    shape = initial.shape[1:]
    out = np.empty((d - 1,) + shape)
    try:
        with np.errstate(over="raise", invalid="raise"):
            for i in range(d - 1):
                counts = oracle_signed_count(events, schedule[i], schedule[i + 1], shape)
                out[i] = initial[i] * np.expm1(c * counts)
    except FloatingPointError:
        raise ValueError("residuals are not finite") from None
    return out


def oracle_newton_coefficients(nodes, values):
    """Divided differences over the last axis, one depth per whole-slice step."""
    n = nodes.shape[-1]
    coef = np.array(values, dtype=np.float64, copy=True)
    for j in range(1, n):
        coef[..., j:] = (coef[..., j:] - coef[..., j - 1 : n - 1]) / (
            nodes[..., j:] - nodes[..., : n - j]
        )
    return coef


def oracle_newton_to_monomial(nodes, newton):
    """Newton form to monomials (low order first) over the last axis."""
    n = nodes.shape[-1]
    mono = np.zeros_like(newton)
    mono[..., 0] = newton[..., n - 1]
    deg = 0
    for j in range(n - 2, -1, -1):
        node = nodes[..., j]
        mono[..., 1 : deg + 2] = mono[..., 0 : deg + 1] - node[..., None] * mono[..., 1 : deg + 2]
        mono[..., 0] = newton[..., j] - node * mono[..., 0]
        deg += 1
    return mono


def oracle_horner(coeffs, x):
    """Monomials (..., k) at ``x``, one new array a step."""
    x = np.asarray(x, dtype=np.float64)
    k = coeffs.shape[-1]
    out = np.broadcast_to(coeffs[..., k - 1], np.broadcast_shapes(coeffs.shape[:-1], x.shape)).copy()
    for j in range(k - 2, -1, -1):
        out = out * x + coeffs[..., j]
    return out


def oracle_antiderivative_coeffs(deriv_mono, half_length):
    """Zero-constant antiderivative (..., n+1) of monomials (..., n) in tau."""
    n = deriv_mono.shape[-1]
    out = np.zeros(deriv_mono.shape[:-1] + (n + 1,), dtype=np.float64)
    np.multiply(half_length, deriv_mono, out=out[..., 1:])
    out[..., 1:] /= np.arange(1, n + 1, dtype=np.float64)
    return out


def oracle_primitive(interval, keypoints, derivatives, constants):
    """Primitive coefficients (..., n+1) of (..., n) keypoints and derivatives."""
    nodes = interval.normalize(keypoints)
    mono = oracle_newton_to_monomial(nodes, oracle_newton_coefficients(nodes, derivatives))
    coeffs = oracle_antiderivative_coeffs(mono, interval.length / 2.0)
    coeffs[..., 0] += constants
    return coeffs


def oracle_fit_polys(video, keypoints, blurry):
    """``fit_polys`` in its two-step form: the normal equations' right-hand
    sides for every pixel, then one ``np.linalg.solve`` against all of them."""
    h, w = video.shape
    keypoints = np.asarray(keypoints, dtype=np.float64)
    if keypoints.ndim == 1:
        keypoints = np.broadcast_to(keypoints, (h, w, keypoints.shape[0]))
    n = keypoints.shape[2]
    interval = video.interval
    tau = interval.normalize(video.times)
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
    warn = np.linalg.matrix_rank(design) < n + 1 or bool(np.any(degenerate))

    rhs = design.T @ video.frames.reshape(video.frame_count, -1)
    theta = np.linalg.solve(gram, rhs) / col_norms[:, None]
    deriv_mono = ((theta[:n].T / (interval.length / 2.0)) @ leg_to_mono).T.reshape(n, h, w)
    nodes = interval.normalize(np.moveaxis(keypoints, -1, 0))
    derivs = oracle_horner(np.moveaxis(deriv_mono[:, None], 0, -1), nodes)  # (n, h, w)
    grid = PolyGrid(keypoints, np.moveaxis(derivs, 0, -1), np.zeros((h, w)), interval,
                    fit_warning=warn)
    return grid.with_constants_from_blur(blurry.values)


def oracle_ssim_2d(a, b):
    """SSIM in its 2-d window form: every 11x11 patch contracted with the outer-product
    window, five windowed means."""
    half = (SSIM_WINDOW - 1) / 2.0
    x = np.arange(SSIM_WINDOW) - half
    g = np.exp(-(x * x) / (2.0 * SSIM_SIGMA * SSIM_SIGMA))
    win = np.outer(g, g)
    win = win / win.sum()

    def windowed_mean(img):
        views = np.lib.stride_tricks.sliding_window_view(img, win.shape)
        return np.tensordot(views, win, axes=([2, 3], [0, 1]))

    mu_a = windowed_mean(a)
    mu_b = windowed_mean(b)
    var_a = windowed_mean(a * a) - mu_a * mu_a
    var_b = windowed_mean(b * b) - mu_b * mu_b
    cov = windowed_mean(a * b) - mu_a * mu_b
    c1 = SSIM_K1 * SSIM_K1
    c2 = SSIM_K2 * SSIM_K2
    s = ((2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)) / (
        (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    )
    return float(np.mean(s))
