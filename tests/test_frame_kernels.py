"""The frame kernels against the forms they replaced.

SSIM runs four column-first flat filters, ``fit_polys`` applies one ridge
operator, ``render`` runs Horner over blocks of frames and the event sort
re-sorts the tied runs of an unstable time sort. Each is held here to its
oracle: the 2-d window SSIM within 1e-12, the two-step ridge solve within
the named tolerances below, the per-frame render byte for byte and the
stable lexicographic sort exactly.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ecir.cli
import ecir.representation
from ecir import BlurryFrame, ExposureInterval, SharpVideo, fit_polys, ssim
from ecir.io import load_polys, save_polys, write_frame
from ecir.keypoints import pivots
from ecir.metrics import SSIM_K1, SSIM_WINDOW
from ecir.simulation import _event_order

from oracles import oracle_fit_polys, oracle_ssim_2d
from scenes import random_poly_grid

IV = ExposureInterval(-0.06, 0.06)

# largest |library - oracle| over a grid, relative to the oracle's largest
# magnitude there (see constant_gap for the constants). Measured on 400 grids
# of this file's kind: derivatives 3.4e-14, constants 4.8e-15; on the
# 180x240 bench scenes (seeds 7 and 23) the derivatives 3.6e-14 and the
# constants, against their own largest magnitude, 6.5e-12.
FULL_RANK_TOL = 1e-12
# with no more frames than derivative values the ridge term decides the fit,
# and the regularized Gram matrix's condition number (about 1e8) scales the
# rounding: measured up to 4.8e-8 (derivatives) and 8.3e-9 (constants) on 300
# such grids
RANK_DEFICIENT_TOL = 1e-6


# ---------------------------------------------------------------------------
# SSIM
# ---------------------------------------------------------------------------

LAYOUTS = ["C", "F", "strided", "transposed"]


def laid_out(frame, layout):
    """``frame``'s values in the given memory layout."""
    if layout == "C":
        return np.ascontiguousarray(frame)
    if layout == "F":
        return np.asfortranarray(frame)
    if layout == "strided":
        wide = np.zeros((frame.shape[0], 2 * frame.shape[1]))
        wide[:, ::2] = frame
        return wide[:, ::2]
    return np.ascontiguousarray(frame.T).T


@st.composite
def frame_pairs(draw):
    """Pairs from 11x11 upward, square or not: constant, random or near-identical."""
    h, w = draw(st.integers(11, 48)), draw(st.integers(11, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["constant", "random", "near"]))
    if kind == "constant":
        return np.full((h, w), rng.uniform(0, 1)), np.full((h, w), rng.uniform(0, 1))
    a = rng.uniform(0, 1, (h, w))
    if kind == "random":
        return a, rng.uniform(0, 1, (h, w))
    return a, np.clip(a + rng.normal(0, 1e-3, (h, w)), 0, 1)


@settings(max_examples=150, deadline=None)
@given(frame_pairs(), st.sampled_from(LAYOUTS), st.sampled_from(LAYOUTS))
def test_ssim_matches_2d_window_oracle_in_every_layout(pair, layout_a, layout_b):
    a, b = pair
    got = ssim(laid_out(a, layout_a), laid_out(b, layout_b))
    # the same value whatever the layout, bit for bit
    assert got == ssim(a, b)
    if np.all(a == a[0, 0]) and np.all(b == b[0, 0]):
        # the 2-d form strays about 1e-12 on flat frames, so these are held to
        # the closed form
        va, vb, c1 = a[0, 0], b[0, 0], SSIM_K1 * SSIM_K1
        expected = (2.0 * va * vb + c1) / (va * va + vb * vb + c1)
    else:
        expected = oracle_ssim_2d(a, b)
    assert abs(got - expected) <= 1e-12


@pytest.mark.parametrize("shape", [(11, 11), (11, 12), (12, 11), (11, 200), (180, 240)])
def test_ssim_on_window_sized_and_bench_frames(shape):
    rng = np.random.default_rng(401)
    a = rng.uniform(0, 1, shape)
    b = np.clip(a + rng.normal(0, 0.05, shape), 0, 1)
    assert abs(ssim(a, b) - oracle_ssim_2d(a, b)) <= 1e-12
    assert ssim(laid_out(a, "F"), laid_out(b, "strided")) == ssim(a, b)


def test_ssim_of_one_window_is_its_only_index():
    rng = np.random.default_rng(409)
    a, b = rng.uniform(0, 1, (2, SSIM_WINDOW, SSIM_WINDOW))
    assert abs(ssim(a, b) - oracle_ssim_2d(a, b)) <= 1e-12


# ---------------------------------------------------------------------------
# ridge fit
# ---------------------------------------------------------------------------

def grid_video(grid, count, noise_rng=None):
    times = np.linspace(grid.interval.t_start, grid.interval.t_end, count)
    frames = np.stack([grid.intensity_at(float(t)) for t in times])
    if noise_rng is not None:
        frames += noise_rng.normal(0, 1e-3, frames.shape)
    return SharpVideo(times, frames, grid.interval)


def fit_both(video, keypoints, blurry):
    """(library fit, oracle fit); the library warns exactly when the oracle flags the design."""
    with warnings.catch_warnings(record=True) as got_warned:
        warnings.simplefilter("always")
        got = fit_polys(video, keypoints, blurry)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = oracle_fit_polys(video, keypoints, blurry)
    assert bool(got_warned) == want.fit_warning
    return got, want


def scaled_gap(got, want, floor=0.0):
    """max |got - want| over the larger of max |want| and ``floor``."""
    return float(np.max(np.abs(got - want))) / max(float(np.max(np.abs(want))), floor, 1e-300)


def constant_gap(got, want, blurry):
    """The constants' gap, over at least the terms they are the remainder of.

    A constant is the blurry value minus the average of the primitive, whose
    terms are about T times a derivative, so it is held to their scale.
    """
    scale = max(float(np.max(np.abs(blurry.values))),
                IV.length * float(np.max(np.abs(want.derivatives))))
    return scaled_gap(got.constants, want.constants, scale)


@settings(max_examples=80, deadline=None)
@given(
    h=st.integers(1, 6), w=st.integers(1, 6), n=st.integers(2, 10),
    extra=st.integers(1, 40), per_pixel=st.booleans(), noisy=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_matches_two_step_solve(h, w, n, extra, per_pixel, noisy, seed):
    rng = np.random.default_rng(seed)
    grid = random_poly_grid(rng, h, w, n, IV)
    video = grid_video(grid, n + extra, rng if noisy else None)
    keypoints = random_poly_grid(rng, h, w, n, IV).keypoints if per_pixel else pivots(IV, n)
    blurry = BlurryFrame(grid.blur(), IV)
    got, want = fit_both(video, keypoints, blurry)
    assert got.fit_warning == want.fit_warning
    assert np.array_equal(got.keypoints, want.keypoints)
    assert scaled_gap(got.derivatives, want.derivatives) <= FULL_RANK_TOL
    assert constant_gap(got, want, blurry) <= FULL_RANK_TOL


@settings(max_examples=40, deadline=None)
@given(h=st.integers(1, 6), w=st.integers(1, 6), n=st.integers(2, 10),
       seed=st.integers(0, 2**32 - 1))
def test_rank_deficient_fit_matches_two_step_solve(h, w, n, seed):
    rng = np.random.default_rng(seed)
    grid = random_poly_grid(rng, h, w, n, IV)
    video = grid_video(grid, n)  # n samples, n + 1 unknowns
    blurry = BlurryFrame(grid.blur(), IV)
    got, want = fit_both(video, pivots(IV, n), blurry)
    assert got.fit_warning and want.fit_warning
    assert scaled_gap(got.derivatives, want.derivatives) <= RANK_DEFICIENT_TOL
    assert constant_gap(got, want, blurry) <= RANK_DEFICIENT_TOL


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------

@pytest.fixture
def saved_grid(tmp_path):
    grid = random_poly_grid(np.random.default_rng(431), 9, 13, 10, IV)
    save_polys(tmp_path / "polys.npz", grid)
    return tmp_path / "polys.npz"


def per_frame_tree(tmp_path, polys, times, fmt):
    """Each frame's bytes from a fresh grid's one-time ``intensity_at``."""
    grid = load_polys(polys)
    out = {}
    for i, t in enumerate(times):
        path = tmp_path / f"ref_{i}.{fmt}"
        write_frame(path, grid.intensity_at(float(t)))
        out[f"frame_{i:05d}.{fmt}"] = path.read_bytes()
    out["timestamps.txt"] = "".join(f"{float(t)!r}\n" for t in times).encode("ascii")
    return out


def rendered_tree(d):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@pytest.mark.parametrize("block", [1, 4, None])
@pytest.mark.parametrize("count", [1, 3, 4, 5, 14, 64])
def test_render_blocks_equal_per_frame_bytes(tmp_path, monkeypatch, saved_grid, count, block):
    if block is not None:
        monkeypatch.setattr(ecir.representation, "RENDER_BLOCK_BYTES", block * 9 * 13 * 8)
    argv = ["render", "--polys", str(saved_grid), "--count", str(count), "--out",
            str(tmp_path / "pred")]
    assert ecir.cli.main(argv) == 0
    times = IV.uniform_times(count)
    assert rendered_tree(tmp_path / "pred") == per_frame_tree(tmp_path, saved_grid, times, "f32")


@pytest.mark.parametrize("fmt", ["f32", "pgm"])
def test_render_timestamp_list_equals_per_frame_bytes(tmp_path, monkeypatch, saved_grid, fmt):
    monkeypatch.setattr(ecir.representation, "RENDER_BLOCK_BYTES", 4 * 9 * 13 * 8)
    times = [-0.06, -0.0123, 0.0, 1e-9, 0.031, 0.0599, 0.06]
    argv = ["render", "--polys", str(saved_grid), "--timestamps=" + ",".join(map(repr, times)),
            "--out", str(tmp_path / "pred"), "--format", fmt]
    assert ecir.cli.main(argv) == 0
    assert rendered_tree(tmp_path / "pred") == per_frame_tree(tmp_path, saved_grid, times, fmt)


def test_block_of_times_equals_one_time_frames():
    grid = random_poly_grid(np.random.default_rng(433), 7, 5, 8, IV)
    times = np.linspace(IV.t_start, IV.t_end, 11)
    block = grid.intensity_at(times[:, None, None])
    assert block.shape == (11, 7, 5)
    for t, frame in zip(times, block):
        assert frame.tobytes() == grid.intensity_at(float(t)).tobytes()


# ---------------------------------------------------------------------------
# event order
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_event_order_matches_lexsort_with_duplicated_rows(data):
    """Many ties and whole rows repeated, on arrays long enough for a SIMD sort."""
    k = data.draw(st.integers(0, 3000))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    distinct_t = data.draw(st.integers(1, 50))
    pool = np.sort(rng.uniform(-0.06, 0.06, distinct_t))
    side = data.draw(st.integers(1, 4))
    rows = data.draw(st.integers(1, max(k, 1)))
    t = rng.choice(pool, rows)
    y, x = rng.integers(0, side, rows), rng.integers(0, side, rows)
    p = rng.choice(np.array([-1, 1], dtype=np.int8), rows)
    pick = rng.integers(0, rows, k)  # every row repeated about k / rows times
    t, y, x, p = t[pick], y[pick], x[pick], p[pick]
    assert np.array_equal(_event_order(t, y, x, p), np.lexsort((p, x, y, t)))


def test_event_order_of_one_repeated_event_is_the_identity():
    k = 5000
    t, y, x, p = np.full(k, 0.01), np.zeros(k, np.int32), np.ones(k, np.int32), np.ones(k, np.int8)
    assert np.array_equal(_event_order(t, y, x, p), np.arange(k))

