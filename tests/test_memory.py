"""Peak-memory budgets of the per-event and per-frame paths.

Each test runs one function on a fixed seeded scene and reads, with
``tracemalloc`` (numpy reports its array buffers to it), the peak of traced
memory above the heap at the call. Per-event paths are held to bytes per
event, per-frame paths to frame stacks, where a stack is the scene's
float64 frames, and per-pixel polynomial paths to "planes" of one (h, w, n)
float64 array each (n of the (h, w) planes a grid holds); the render and
edi commands are also held to the same peak whatever their frame count,
and refine on a frame wider than its product's blocks to one stack and a
block. A budget
is the value measured when it was set plus 25% for numpy-version drift,
below every value measured before, so a change that brings back a wide
per-event temporary or a second stack fails here.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from ecir import (
    EventStream,
    ExposureInterval,
    PolyGrid,
    SharpVideo,
    ThresholdConfig,
    edi_video,
    fit_polys,
    keypoint_grid,
    refine,
    simulate_events,
    synthesize_blur,
)
from ecir.cli import build_parser, cmd_edi, cmd_render
from ecir.io import (
    read_events,
    read_video_dir,
    save_polys,
    write_events,
    write_f32,
    write_video_dir,
)
from ecir.refinement import _column_blocks
from ecir.representation import RENDER_BLOCK_BYTES, antiderivative_coeffs

from scenes import random_monomial_scene, random_poly_grid, render_scene

IV = ExposureInterval(0.0, 0.12)
H, W, FRAMES = 48, 64, 32
C = 0.1
N = 10  # keypoints a pixel
STACK = FRAMES * H * W * 8  # bytes of the scene's float64 frame stack
PLANE = H * W * N * 8  # bytes of one (h, w, n) float64 array
MARGIN = 1.25
RENDERED = 8  # frames a render test draws; the first builds the primitive's planes

# Peaks measured on this scene when the budgets were set (numpy 2.4, Python
# 3.11), and before, when per-event temporaries were wide and frames were
# re-stacked. Bytes an event for the per-event paths, planes for fit_polys,
# stacks for the rest.
MEASURED = {
    "simulate_events": 34.1,  # before: 125.7
    "keypoint_grid": 27.3,  # before: 62.4
    # before: 75.0, when x, y and p were copied out of loadtxt's table as
    # int64 before the stream narrowed them
    "read_events_text": 51.0,
    # before: 85.8. With numpy 2.4.6 it measured 46.4 until the normalizer
    # held at most two 8-byte arrays an event besides the pixel ids; since
    # then 31.1. The budget stays where it was set.
    "edi_video": 38.9,
    "read_video_dir": 1.14,  # before: 2.03
    # the edi command at every --count from 1 to 64, bytes an event. Before:
    # 60.0 at --count 1 and 77.9 at --count 64, when it stacked the frames.
    # 44.4 at every count since the normalizer's narrower arrays (numpy 2.4.6).
    "edi_command": 59.7,
    # this scene's 3072 columns are one block of refine's product, so the
    # block is a whole stack. With numpy 2.4.6 refine measures 2.14 since
    # the blocks and 2.11 before them (one frame row more: the buffer's
    # last row); the budgets stay where they were set.
    "refine_tridiag": 2.01,  # before: 4.04
    "refine_gd": 2.13,  # before: 3.10
    # a 180x240 frame of 16 frames, 9 blocks: the buffer, one block and
    # the residuals' per-window arrays. Before: 2.06, the flow and the
    # product's output beside the input.
    "refine_wide": 1.31,
    # before: 6.62, when antiderivative_coeffs made two planes of temporaries.
    # Since the kernels run in place on (n, h, w) planes it measures 5.56,
    # the grid's keypoints and derivatives plus the primitive's nodes,
    # monomials and output; the budget stays where it was set.
    "fit_polys": 6.32,
    # RENDERED frames of a fresh grid, the first of which builds the
    # primitive's planes. Before: 5.08, when the grid cached the primitive
    # twice, as (h, w, k) and as (k, h, w), and its kernels sliced the last
    # axis into temporaries.
    "render": 3.31,
    # the render command on a 180x240 grid (n = 10), in planes of that grid,
    # at every --count from 1 to 64: loading the grid and building the
    # primitive's planes. Before: 11.60 at --count 64, when it stacked the frames.
    "render_command": 5.22,
}


def traced_peak(fn, *args, **kwargs):
    """(result, peak bytes traced above the heap at the call)."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="module")
def scene():
    coeffs = random_monomial_scene(np.random.default_rng(2027), H, W, 10, taper=0.6)
    times = np.linspace(IV.t_start, IV.t_end, FRAMES)
    video = SharpVideo(times, render_scene(coeffs, IV, times), IV)
    events = simulate_events(video, ThresholdConfig(C, -C))
    return video, events


def test_scene_is_event_dominated(scene):
    # the per-event budgets mean something only if events outweigh pixels
    _, events = scene
    assert len(events) > 20 * H * W


def test_simulate_events_per_event(scene):
    video, events = scene
    _, peak = traced_peak(simulate_events, video, ThresholdConfig(C, -C))
    assert peak / len(events) <= MARGIN * MEASURED["simulate_events"]


def test_keypoint_grid_per_event(scene):
    video, events = scene
    _, peak = traced_peak(keypoint_grid, events, IV, 10, video.shape)
    assert peak / len(events) <= MARGIN * MEASURED["keypoint_grid"]


def test_read_events_text_per_event(scene, tmp_path):
    _, events = scene
    write_events(tmp_path / "events.txt", events)
    back, peak = traced_peak(read_events, tmp_path / "events.txt", IV)
    assert back.t.tobytes() == events.t.tobytes()
    assert peak / len(events) <= MARGIN * MEASURED["read_events_text"]


def test_edi_video_per_event(scene):
    video, events = scene
    blurry = synthesize_blur(video)
    times = IV.uniform_times(14)
    _, peak = traced_peak(edi_video, blurry, events, C, times)
    assert peak / len(events) <= MARGIN * MEASURED["edi_video"]


def test_fit_polys_per_plane(scene):
    video, events = scene
    keypoints = keypoint_grid(events, IV, N, video.shape)
    blurry = synthesize_blur(video)
    # the first call imports numpy.polynomial, a cost no later call pays
    fit_polys(video, keypoints, blurry)
    _, peak = traced_peak(fit_polys, video, keypoints, blurry)
    assert peak / PLANE <= MARGIN * MEASURED["fit_polys"]


def fresh_grid(scene):
    """The fitted scene as a grid that has built nothing yet."""
    video, events = scene
    keypoints = keypoint_grid(events, IV, N, video.shape)
    fitted = fit_polys(video, keypoints, synthesize_blur(video))
    return PolyGrid(fitted.keypoints, fitted.derivatives, fitted.constants, IV)


def render(grid, times):
    for t in times:
        grid.intensity_at(t)


def test_first_render_per_plane(scene):
    grid = fresh_grid(scene)
    _, peak = traced_peak(render, grid, np.linspace(IV.t_start, IV.t_end, RENDERED))
    assert peak / PLANE <= MARGIN * MEASURED["render"]


def test_grid_holds_one_coefficient_cache(scene):
    grid = fresh_grid(scene)
    render(grid, np.linspace(IV.t_start, IV.t_end, RENDERED))
    grid.blur()
    held = [v for v in vars(grid).values() if isinstance(v, np.ndarray)]
    # keypoints and derivatives (n planes each), constants (one), and the
    # primitive's n+1 planes, once
    assert sum(a.nbytes for a in held) == (2 * N + 1 + (N + 1)) * H * W * 8
    assert np.shares_memory(grid.primitive_coefficients(), grid.primitive_coefficients())


def test_render_command_flat_in_frame_count(tmp_path, capsys):
    # the bench's frame, on which a block of RENDER_BLOCK_BYTES is 4 frames
    h, w = 180, 240
    frame, plane = h * w * 8, h * w * N * 8
    save_polys(tmp_path / "polys.npz", random_poly_grid(np.random.default_rng(2029), h, w, N, IV))
    peaks = {}
    for count in (1, 4, 14, 64):
        args = build_parser().parse_args(["render", "--polys", str(tmp_path / "polys.npz"),
                                          "--count", str(count), "--out", str(tmp_path / "pred")])
        _, peaks[count] = traced_peak(cmd_render, args)
    for count, peak in peaks.items():
        assert peak / plane <= MARGIN * MEASURED["render_command"], count
        # one block and the frame being written above a one-frame render
        assert peak - peaks[1] <= RENDER_BLOCK_BYTES + frame, count


def test_edi_command_flat_in_frame_count(scene, tmp_path, capsys):
    video, events = scene
    write_f32(tmp_path / "blurry.f32", synthesize_blur(video).values)
    write_events(tmp_path / "events.evt", events)
    peaks = {}
    for count in (1, 14, 64):
        args = build_parser().parse_args([
            "edi", "--t-start", str(IV.t_start), "--t-end", str(IV.t_end),
            "--blurry", str(tmp_path / "blurry.f32"), "--events", str(tmp_path / "events.evt"),
            "--c", str(C), "--count", str(count), "--out", str(tmp_path / "edi")])
        _, peaks[count] = traced_peak(cmd_edi, args)
    for count, peak in peaks.items():
        assert peak / len(events) <= MARGIN * MEASURED["edi_command"], count
        # the frame being written above a one-frame run
        assert peak - peaks[1] <= H * W * 8, count


def test_antiderivative_coeffs_in_place():
    # the dense bench's grid: numpy's fixed iterator buffers (about 200 KB)
    # are small against its 3.8 MB output
    deriv_mono = np.random.default_rng(5).standard_normal((180, 240, N))
    out, peak = traced_peak(antiderivative_coeffs, deriv_mono, 0.06)
    # the output plus those buffers (measured: 1.05 outputs; before, with
    # two (h, w, n) temporaries: 2.84)
    assert peak <= MARGIN * out.nbytes


def test_read_video_dir_per_frame(scene, tmp_path):
    video, _ = scene
    write_video_dir(tmp_path / "video", video.times, video.frames)
    back, peak = traced_peak(read_video_dir, tmp_path / "video")
    assert np.array_equal(back.frames, video.frames.astype(np.float32))
    assert peak / STACK <= MARGIN * MEASURED["read_video_dir"]


def test_window_on_frame_times_per_frame(scene):
    video, _ = scene
    window = ExposureInterval(float(video.times[3]), float(video.times[-5]))
    cut, peak = traced_peak(video.window, window)
    assert np.shares_memory(cut.frames, video.frames)
    # a slice copies nothing (measured: 0.004 stacks; before: 1.58), so the
    # budget is one frame
    assert peak <= STACK / FRAMES


@pytest.mark.parametrize("solver", ["tridiag", "gd"])
def test_refine_per_frame(scene, solver):
    video, events = scene
    _, peak = traced_peak(refine, video.frames, events, C, video.times, solver=solver)
    assert peak / STACK <= MARGIN * MEASURED[f"refine_{solver}"]


@pytest.mark.parametrize("solver", ["tridiag", "gd"])
def test_refine_wide_frame_per_frame(solver):
    rng = np.random.default_rng(2031)
    d, h, w, k = 16, 180, 240, 50_000
    assert len(_column_blocks(h * w, d)) == 9
    frames = rng.uniform(0.1, 0.9, (d, h, w))
    events = EventStream(rng.integers(0, w, k), rng.integers(0, h, k),
                         np.sort(rng.uniform(IV.t_start, IV.t_end, k)), rng.choice([-1, 1], k), IV)
    schedule = np.linspace(IV.t_start, IV.t_end, d)
    _, peak = traced_peak(refine, frames, events, C, schedule, solver=solver)
    assert peak / frames.nbytes <= MARGIN * MEASURED["refine_wide"]
