"""The time rules, each stated once in ``ecir.types``.

``ExposureInterval.require`` is the one membership refusal, with one wording
for every caller; ``types._increasing`` is the one strict-order refusal; and
``ExposureInterval.tolerance`` is the one slack between a bound and a frame
time, for both ``SharpVideo``'s span check and ``SharpVideo.window``.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecir import (
    BlurryFrame,
    EventStream,
    ExposureInterval,
    KeypointSet,
    SharpVideo,
    edi_video,
    keypoint_grid,
    render_frame,
    select_keypoints,
    surrogate_residuals,
)
from ecir.cli import main
from ecir.io import load_polys, save_polys, write_video_dir
from ecir.types import RecordError, _increasing

from scenes import random_poly_grid

IV = ExposureInterval(0.0, 0.12)
LATE = 0.5  # a time past IV


def run_main(*args):
    """In-process CLI call: (exit code, stderr lines)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in args])
    return code, [line for line in err.getvalue().splitlines() if line.strip()]


def video(times, h=2, w=3):
    rng = np.random.default_rng(len(times))
    return SharpVideo(np.asarray(times, dtype=np.float64), rng.uniform(0.0, 1.0, (len(times), h, w)))


# ---------------------------------------------------------------------------
# membership: one refusal, one wording
# ---------------------------------------------------------------------------

def _render_command(tmp_path):
    save_polys(tmp_path / "polys.npz", random_poly_grid(np.random.default_rng(7), 2, 3, 4, IV))
    code, lines = run_main("render", "--polys", tmp_path / "polys.npz",
                           "--timestamps", f"0.01,{LATE}", "--out", tmp_path / "frames")
    assert code == 2 and len(lines) == 1
    assert not (tmp_path / "frames").exists()
    prefix = "ecir render: error: "
    assert lines[0].startswith(prefix)
    raise ValueError(lines[0][len(prefix):])


MEMBERSHIP_CALLERS = {
    "cmd_render": (_render_command, "render timestamps"),
    "edi_video": (lambda _: edi_video(BlurryFrame(np.full((2, 2), 0.5), IV), EventStream.empty(IV),
                                      0.2, [0.01, LATE]), "timestamps"),
    "surrogate_residuals": (lambda _: surrogate_residuals(np.zeros((2, 2, 2)),
                                                          EventStream.empty(IV), 0.2,
                                                          [0.0, LATE]), "schedule"),
    "KeypointSet": (lambda _: KeypointSet([0.01, LATE], IV), "keypoints"),
    "render_frame": (lambda _: render_frame(random_poly_grid(np.random.default_rng(5), 2, 2, 3, IV),
                                            LATE), f"render time {LATE}"),
    "select_keypoints": (lambda _: select_keypoints([0.01, LATE], IV, 3), "event times"),
    "keypoint_grid": (lambda _: keypoint_grid(
        EventStream([0], [0], [LATE], [1], ExposureInterval(0.0, 1.0)), IV, 3, (1, 1)),
        "event times"),
    "SharpVideo.frame_at": (lambda _: video(np.linspace(IV.t_start, IV.t_end, 3)).frame_at(LATE),
                            f"t={LATE}"),
    "EventStream": (lambda _: EventStream([0, 1], [0, 0], [0.01, LATE], [1, -1], IV),
                    "event timestamps"),
}


@pytest.mark.parametrize("caller", sorted(MEMBERSHIP_CALLERS))
def test_membership_refusal_has_one_wording(tmp_path, caller):
    call, what = MEMBERSHIP_CALLERS[caller]
    with pytest.raises(ValueError) as info:
        call(tmp_path)
    assert str(info.value) == f"{what} outside the exposure interval [0.0, 0.12]"


@pytest.mark.parametrize("t", [np.nan, -1e-300, np.nextafter(0.12, 1.0), [0.0, np.nan]])
def test_require_refuses_what_contains_refuses(t):
    """The interval is closed; a NaN lies outside it."""
    assert not IV.contains(t)
    with pytest.raises(ValueError, match=r"^x outside the exposure interval \[0.0, 0.12\]$"):
        IV.require(t, "x")
    IV.require([0.0, 0.06, 0.12], "x")


# ---------------------------------------------------------------------------
# strict order: one refusal, the old wording
# ---------------------------------------------------------------------------

def _write_video_dir(tmp_path):
    write_video_dir(tmp_path / "vid", [0.0, 0.06, 0.06], np.zeros((3, 2, 2)))


def _load_polys(tmp_path):
    grid = random_poly_grid(np.random.default_rng(11), 2, 2, 3, IV)
    grid.keypoints[1, 0, 2] = grid.keypoints[1, 0, 1]
    save_polys(tmp_path / "polys.npz", grid)
    load_polys(tmp_path / "polys.npz")


def _render_timestamps(tmp_path):
    save_polys(tmp_path / "polys.npz", random_poly_grid(np.random.default_rng(13), 2, 2, 3, IV))
    code, lines = run_main("render", "--polys", tmp_path / "polys.npz",
                           "--timestamps", "0.06,0.01", "--out", tmp_path / "frames")
    assert code == 2 and len(lines) == 1
    raise ValueError(lines[0])


ORDER_CALLERS = {
    "SharpVideo": (lambda _: video([0.0, 0.06, 0.06]), "timestamps"),
    "KeypointSet": (lambda _: KeypointSet([0.01, 0.01], IV), "keypoints"),
    "surrogate_residuals": (lambda _: surrogate_residuals(np.zeros((2, 2, 2)),
                                                          EventStream.empty(IV), 0.2,
                                                          [0.06, 0.01]), "schedule"),
    "write_video_dir": (_write_video_dir, "{tmp}/vid: timestamps"),
    "load_polys": (_load_polys, "{tmp}/polys.npz: keypoints"),
    "cli --timestamps": (_render_timestamps, "ecir render: error: timestamps"),
}


@pytest.mark.parametrize("caller", sorted(ORDER_CALLERS))
def test_order_refusal_has_one_wording(tmp_path, caller):
    call, what = ORDER_CALLERS[caller]
    with pytest.raises(ValueError) as info:
        call(tmp_path)
    assert str(info.value) == what.format(tmp=tmp_path) + " must be strictly increasing"


@pytest.mark.parametrize("t, index", [
    ([0.0, 0.06, 0.06], 2),
    ([0.06, 0.0, 0.12], 1),
    ([0.0, np.nan, 0.12], 1),
    # along the last axis, flat in row-major order: row 1's third value
    ([[0.0, 0.01, 0.02], [0.0, 0.01, 0.01]], 5),
])
def test_order_refusal_names_the_first_value_that_does_not_rise(t, index):
    with pytest.raises(RecordError) as info:
        _increasing(np.array(t), "times")
    assert (str(info.value), info.value.index) == ("times must be strictly increasing", index)


# ---------------------------------------------------------------------------
# the frame-time tolerance
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(
    t0=st.floats(-1e3, 1e3),
    gaps=st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=5),
    past=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    inner=st.tuples(st.booleans(), st.booleans()),
)
def test_window_bound_within_tolerance_is_the_end_frame(t0, gaps, past, inner):
    """A bound up to the tolerance past either end cuts the frames the end frame does."""
    times = t0 + np.cumsum([0.0, *gaps])
    v = video(times)
    # an inner bound is a point inside the first or the last gap
    start = (times[0] + times[1]) / 2 if inner[0] and len(gaps) > 1 else times[0]
    end = (times[-2] + times[-1]) / 2 if inner[1] and len(gaps) > 1 else times[-1]
    exact = v.window(ExposureInterval(float(start), float(end)))
    # the tolerance of the exact window; the requested one is longer, so no smaller
    tol = 1e-9 * max(1.0, float(end - start))
    requested = ExposureInterval(float(start - past[0] * tol * (start == times[0])),
                                 float(end + past[1] * tol * (end == times[-1])))
    got = v.window(requested)
    assert got.interval == requested
    assert got.times.tobytes() == exact.times.tobytes()
    assert got.frames.tobytes() == exact.frames.tobytes()


def test_window_bound_past_the_tolerance_is_refused():
    v = video(np.linspace(IV.t_start, IV.t_end, 4))
    tol = IV.tolerance
    assert tol == 1e-9
    v.window(ExposureInterval(IV.t_start - tol, IV.t_end + tol))
    for bounds in ((IV.t_start - 3 * tol, IV.t_end), (IV.t_start, IV.t_end + 3 * tol)):
        with pytest.raises(ValueError, match="requested window extends beyond the video"):
            v.window(ExposureInterval(*bounds))


def test_video_answers_for_its_own_end_frames():
    """An interval within the tolerance inside the frame span still reaches the end frames."""
    frames = np.random.default_rng(3).uniform(0.0, 1.0, (3, 2, 3))
    v = SharpVideo([0.0, 0.06, 0.12], frames, ExposureInterval(1e-10, 0.12 - 1e-10))
    assert v.frame_at(0.0).tobytes() == frames[0].tobytes()
    assert v.frame_at(0.12).tobytes() == frames[2].tobytes()
    cut = v.window(ExposureInterval(0.0, 0.1))
    assert cut.times.tolist() == [0.0, 0.06, 0.1]
    assert cut.frames[0].tobytes() == frames[0].tobytes()
    # past both the frame span and the interval is still refused
    with pytest.raises(ValueError, match=r"^t=-1e-09 outside the exposure interval \[0.0, 0.12\]$"):
        v.frame_at(-1e-9)


def test_window_past_by_rounding_is_a_slice():
    """0.02 + 0.1 rounds past a video ending at 0.12: the window ends on that frame."""
    times = np.array([round(0.02 + 0.01 * i, 2) for i in range(11)])
    v = video(times)
    requested = ExposureInterval(0.02, 0.02 + 0.1)
    assert requested.t_end > times[-1]
    cut = v.window(requested)
    assert cut.interval == requested
    assert np.shares_memory(cut.frames, v.frames)
    assert cut.times.tobytes() == times.tobytes()


def test_simulate_exposure_past_by_rounding(tmp_path):
    """The window's bound is the manifest's, and every --manifest command accepts it."""
    times = [round(0.02 + 0.01 * i, 2) for i in range(11)]
    rng = np.random.default_rng(17)
    frames = 0.5 + 0.2 * np.sin(np.arange(11)[:, None, None] * 0.4 + rng.uniform(0, 6, (1, 6, 7)))
    write_video_dir(tmp_path / "video", times, frames)
    manifest = tmp_path / "sim" / "manifest.json"
    steps = [
        ("simulate", "--video", tmp_path / "video", "--out", tmp_path / "sim",
         "--exposure-ms", "100"),
        ("fit", "--manifest", manifest, "--gt-video", tmp_path / "video", "--n", "4",
         "--out", tmp_path / "polys.npz"),
        ("render", "--polys", tmp_path / "polys.npz", "--count", "5", "--out", tmp_path / "frames"),
        ("edi", "--manifest", manifest, "--count", "5", "--out", tmp_path / "edi"),
        ("refine", "--manifest", manifest, "--frames", tmp_path / "frames",
         "--out", tmp_path / "refined"),
        ("refine", "--manifest", manifest, "--frames", tmp_path / "video",
         "--out", tmp_path / "refined_gt"),
        ("voxelize", "--manifest", manifest, "--out", tmp_path / "hist.h32"),
    ]
    for args in steps:
        assert run_main(*args) == (0, []), args[0]
    assert load_polys(tmp_path / "polys.npz").interval == ExposureInterval(0.02, 0.02 + 0.1)


# ---------------------------------------------------------------------------
# the writer keeps the readers' rule
# ---------------------------------------------------------------------------

def _tree(d):
    return {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in sorted(d.iterdir())}


@pytest.mark.parametrize("times", [[0.0, 0.06, 0.06], [0.06, 0.0, 0.12], [0.0, np.nan, 0.12]])
def test_write_video_dir_refuses_non_increasing_times_untouched(tmp_path, times):
    d = tmp_path / "vid"
    write_video_dir(d, np.linspace(IV.t_start, IV.t_end, 4), np.full((4, 2, 3), 0.25), fmt="pgm")
    before = _tree(d)
    for target in (d, tmp_path / "new"):
        with pytest.raises(ValueError, match=f"^{target}: timestamps must be strictly increasing$"):
            write_video_dir(target, times, np.zeros((3, 2, 3)))
    assert _tree(d) == before
    assert not (tmp_path / "new").exists()
