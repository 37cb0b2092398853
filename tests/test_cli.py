"""End-to-end command-line pipeline tests."""

import contextlib
import io
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ecir import ExposureInterval, PolyGrid
from ecir.cli import _rendered, main
from ecir.io import (
    FormatError,
    Manifest,
    load_manifest,
    load_polys,
    read_events,
    read_f32,
    read_histogram,
    read_video_dir,
    save_polys,
    write_events,
    write_f32,
    write_histogram,
    write_video_dir,
)
from ecir.simulation import EventHistogram
from ecir.types import EventStream

from raw_files import write_raw_f32
from scenes import random_monomial_scene, random_poly_grid, render_scene

IV = ExposureInterval(0.0, 0.12)


def run_cli(*args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "ecir", *[str(a) for a in args]],
        capture_output=True,
        text=True,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed: {proc.stderr}\n{proc.stdout}")
    return proc


def make_scene_fixture(tmp_path, seed=421, h=24, w=32, k=48, taper=0.6):
    rng = np.random.default_rng(seed)
    coeffs = random_monomial_scene(rng, h, w, 10, taper=taper)
    times = np.linspace(IV.t_start, IV.t_end, k)
    frames = render_scene(coeffs, IV, times)
    write_video_dir(tmp_path / "video", times, frames)
    return coeffs, times


def write_small_exposure(tmp_path):
    """A 4x5 blurry frame, three events, a manifest and a three-frame stack."""
    write_f32(tmp_path / "blurry.f32", np.full((4, 5), 0.5))
    (tmp_path / "events.txt").write_text("0.01 1 1 1\n0.02 1 1 1\n0.05 2 3 -1\n")
    Manifest(t_start=IV.t_start, t_end=IV.t_end, blurry="blurry.f32",
             events="events.txt").save(tmp_path / "manifest.json")
    write_video_dir(tmp_path / "frames", np.linspace(IV.t_start, IV.t_end, 3),
                    np.full((3, 4, 5), 0.5))
    return tmp_path / "manifest.json"


def stderr_lines(proc):
    return [ln for ln in proc.stderr.splitlines() if ln.strip()]


def report_value(report_path, key):
    for line in report_path.read_text().splitlines():
        if line.startswith(key + "="):
            return float(line.split("=", 1)[1])
    raise KeyError(key)


class TestSimulate:
    def test_constant_video_empty_events_blurry_equals_input(self, tmp_path):
        times = np.linspace(IV.t_start, IV.t_end, 6)
        frames = np.full((6, 5, 7), 0.44)
        write_video_dir(tmp_path / "video", times, frames)
        run_cli("simulate", "--video", tmp_path / "video", "--out", tmp_path / "sim")
        assert (tmp_path / "sim" / "events.txt").read_text() == ""
        assert len(read_events(tmp_path / "sim" / "events.evt", IV)) == 0
        blurry = read_f32(tmp_path / "sim" / "blurry.f32")
        assert np.allclose(blurry, 0.44, atol=1e-7)
        manifest = load_manifest(tmp_path / "sim" / "manifest.json")
        assert manifest.interval.t_start == pytest.approx(0.0)
        assert manifest.interval.t_end == pytest.approx(0.12)

    def test_deterministic_output_bytes(self, tmp_path):
        make_scene_fixture(tmp_path)
        run_cli("simulate", "--video", tmp_path / "video", "--out", tmp_path / "a",
                "--sigma", "0.03", "--seed", "5")
        run_cli("simulate", "--video", tmp_path / "video", "--out", tmp_path / "b",
                "--sigma", "0.03", "--seed", "5")
        assert (tmp_path / "a" / "events.txt").read_bytes() == (
            tmp_path / "b" / "events.txt"
        ).read_bytes()
        assert (tmp_path / "a" / "blurry.f32").read_bytes() == (
            tmp_path / "b" / "blurry.f32"
        ).read_bytes()
        assert (tmp_path / "a" / "events.evt").read_bytes() == (
            tmp_path / "b" / "events.evt"
        ).read_bytes()
        # the manifest names the container, which holds the text file's events
        manifest = load_manifest(tmp_path / "a" / "manifest.json")
        assert manifest.events == "events.evt"
        text = read_events(tmp_path / "a" / "events.txt", manifest.interval)
        assert len(text) > 0
        container = read_events(manifest.resolve("events"), manifest.interval)
        for name in ("t", "x", "y", "p"):
            assert getattr(container, name).tobytes() == getattr(text, name).tobytes()

    def test_exposure_window_shorter_than_video(self, tmp_path):
        make_scene_fixture(tmp_path)
        run_cli("simulate", "--video", tmp_path / "video", "--out", tmp_path / "sim",
                "--exposure-ms", "60")
        manifest = load_manifest(tmp_path / "sim" / "manifest.json")
        assert manifest.interval.t_end == pytest.approx(0.06)


class TestFullPipeline:
    def test_simulate_fit_render_eval_psnr(self, tmp_path):
        coeffs, _ = make_scene_fixture(tmp_path)
        run_cli("simulate", "--video", tmp_path / "video", "--out", tmp_path / "sim")
        manifest_path = tmp_path / "sim" / "manifest.json"
        run_cli("fit", "--manifest", manifest_path, "--gt-video", tmp_path / "video",
                "--out", tmp_path / "polys.npz")
        run_cli("render", "--polys", tmp_path / "polys.npz", "--count", "14",
                "--out", tmp_path / "pred")
        manifest = load_manifest(manifest_path)
        gt_times = np.linspace(manifest.t_start, manifest.t_end, 14)
        write_video_dir(tmp_path / "gt", gt_times, render_scene(coeffs, IV, gt_times))
        run_cli("eval", "--pred", tmp_path / "pred", "--gt", tmp_path / "gt",
                "--report", tmp_path / "report.txt")
        assert report_value(tmp_path / "report.txt", "psnr_mean") > 50.0
        assert (tmp_path / "report.csv").exists()

    def test_fit_out_without_suffix_is_the_path_render_reads(self, tmp_path):
        make_scene_fixture(tmp_path, seed=439, h=8, w=10, k=16)
        run_cli("simulate", "--video", tmp_path / "video", "--out", tmp_path / "sim")
        proc = run_cli("fit", "--manifest", tmp_path / "sim" / "manifest.json",
                       "--gt-video", tmp_path / "video", "--n", "6", "--out", tmp_path / "polys")
        assert proc.stdout.rstrip().endswith(f"-> {tmp_path / 'polys'}")
        assert not (tmp_path / "polys.npz").exists()
        proc = run_cli("render", "--polys", tmp_path / "polys", "--count", "3",
                       "--out", tmp_path / "frames")
        assert proc.returncode == 0
        assert len(read_video_dir(tmp_path / "frames").times) == 3

    def test_eval_reports_are_byte_stable(self, tmp_path):
        coeffs, times = make_scene_fixture(tmp_path, seed=431, h=16, w=20, k=12)
        write_video_dir(tmp_path / "gt", times[:4], render_scene(coeffs, IV, times[:4]))
        write_video_dir(
            tmp_path / "pred", times[:4],
            render_scene(coeffs, IV, times[:4]) + 0.01,
        )
        run_cli("eval", "--pred", tmp_path / "pred", "--gt", tmp_path / "gt",
                "--report", tmp_path / "r1.txt")
        run_cli("eval", "--pred", tmp_path / "pred", "--gt", tmp_path / "gt",
                "--report", tmp_path / "r2.txt")
        assert (tmp_path / "r1.txt").read_bytes() == (tmp_path / "r2.txt").read_bytes()
        assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()
        lines = (tmp_path / "r1.txt").read_text().splitlines()
        assert lines[0] == "frames=4"
        assert any(line.startswith("frame_0000_mse=") for line in lines)
        assert any(line.startswith("ssim_mean=") for line in lines)


class TestEdiAndRefine:
    @pytest.fixture()
    def pipeline(self, tmp_path):
        make_scene_fixture(tmp_path, seed=433)
        run_cli("simulate", "--video", tmp_path / "video", "--out", tmp_path / "sim")
        run_cli("fit", "--manifest", tmp_path / "sim" / "manifest.json",
                "--gt-video", tmp_path / "video", "--out", tmp_path / "polys.npz")
        run_cli("render", "--polys", tmp_path / "polys.npz", "--count", "8",
                "--out", tmp_path / "initial")
        return tmp_path

    def test_edi_runs_and_is_blur_consistent(self, pipeline):
        tmp_path = pipeline
        run_cli("edi", "--manifest", tmp_path / "sim" / "manifest.json",
                "--count", "8", "--out", tmp_path / "edi")
        video = read_video_dir(tmp_path / "edi")
        assert video.frames.shape[0] == 8
        assert np.all(video.frames > 0)

    def test_edi_command_writes_the_edi_video_stack(self, pipeline, monkeypatch):
        import ecir.io
        from ecir import BlurryFrame, edi_video

        tmp_path = pipeline
        manifest = load_manifest(tmp_path / "sim" / "manifest.json")
        written = []
        write_frame = ecir.io.write_frame

        def recording(path, frame):
            written.append(np.array(frame, dtype=np.float64))
            write_frame(path, frame)

        monkeypatch.setattr(ecir.io, "write_frame", recording)
        assert run_main("edi", "--manifest", tmp_path / "sim" / "manifest.json",
                        "--c", "0.15", "--count", "9", "--out", tmp_path / "edi")[0] == 0
        interval = manifest.interval
        stack = edi_video(BlurryFrame(read_f32(manifest.resolve("blurry")), interval),
                          read_events(manifest.resolve("events"), interval), 0.15,
                          interval.uniform_times(9))
        assert len(written) == 9
        for frame, expected in zip(written, stack):
            assert frame.tobytes() == expected.tobytes()

    def test_refine_solvers_agree_in_reports(self, pipeline):
        tmp_path = pipeline
        manifest = tmp_path / "sim" / "manifest.json"
        for solver in ("tridiag", "gd"):
            run_cli("refine", "--frames", tmp_path / "initial", "--manifest", manifest,
                    "--solver", solver, "--out", tmp_path / f"ref_{solver}")
        a = read_video_dir(tmp_path / "ref_tridiag").frames
        b = read_video_dir(tmp_path / "ref_gd").frames
        assert float(np.mean((a - b) ** 2)) < 1e-6
        gt = read_video_dir(tmp_path / "initial")
        for solver in ("tridiag", "gd"):
            run_cli("eval", "--pred", tmp_path / f"ref_{solver}", "--gt",
                    tmp_path / "initial", "--report", tmp_path / f"rep_{solver}.txt")
        mse_a = report_value(tmp_path / "rep_tridiag.txt", "mse_mean")
        mse_b = report_value(tmp_path / "rep_gd.txt", "mse_mean")
        assert abs(mse_a - mse_b) < 1e-6

    def test_refine_gd_cost_independent_of_imax(self, pipeline):
        # three million steps converge to the exact solve's frames
        tmp_path = pipeline
        manifest = tmp_path / "sim" / "manifest.json"
        for solver, extra in (("tridiag", ()), ("gd", ("--imax", "3000000"))):
            run_cli("refine", "--frames", tmp_path / "initial", "--manifest", manifest,
                    "--solver", solver, *extra, "--out", tmp_path / f"ref_{solver}")
        a = read_video_dir(tmp_path / "ref_tridiag").frames
        b = read_video_dir(tmp_path / "ref_gd").frames
        assert float(np.max(np.abs(a - b))) <= np.finfo(np.float32).eps


class TestVoxelize:
    def test_conserves_signed_counts(self, tmp_path):
        rng = np.random.default_rng(439)
        k = 500
        t = np.sort(rng.uniform(IV.t_start, IV.t_end, k))
        stream = EventStream(
            rng.integers(0, 10, k), rng.integers(0, 8, k), t, rng.choice([-1, 1], k), IV
        )
        write_events(tmp_path / "events.txt", stream)
        run_cli("voxelize", "--events", tmp_path / "events.txt",
                "--t-start", IV.t_start, "--t-end", IV.t_end,
                "--width", "10", "--height", "8", "--out", tmp_path / "hist.h32")
        hist = read_histogram(tmp_path / "hist.h32", IV)
        assert hist.bins.shape == (40, 8, 10)  # default bin count
        assert hist.bins.sum() == float(stream.p.sum())

    def test_bins_flag(self, tmp_path):
        write_events(tmp_path / "events.txt", EventStream.empty(IV))
        run_cli("voxelize", "--events", tmp_path / "events.txt",
                "--t-start", IV.t_start, "--t-end", IV.t_end,
                "--bins", "12", "--width", "4", "--height", "4",
                "--out", tmp_path / "hist.h32")
        assert read_histogram(tmp_path / "hist.h32", IV).bins.shape == (12, 4, 4)


class TestErrorHandling:
    def test_missing_file_one_line_diagnostic(self, tmp_path):
        proc = run_cli("fit", "--blurry", tmp_path / "nope.f32",
                       "--events", tmp_path / "nope.txt",
                       "--gt-video", tmp_path / "novideo",
                       "--t-start", "0", "--t-end", "0.1",
                       "--out", tmp_path / "p.npz", check=False)
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
        assert len([ln for ln in proc.stderr.splitlines() if ln.strip()]) == 1

    def test_malformed_events_diagnostic_has_line_number(self, tmp_path):
        (tmp_path / "events.txt").write_text("0.0 1 1 1\nbroken line\n")
        proc = run_cli("voxelize", "--events", tmp_path / "events.txt",
                       "--t-start", "0", "--t-end", "0.1",
                       "--width", "4", "--height", "4",
                       "--out", tmp_path / "h.h32", check=False)
        assert proc.returncode == 2
        assert ":2:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_unknown_solver_rejected_by_parser(self, tmp_path):
        proc = run_cli("refine", "--frames", tmp_path, "--events", tmp_path / "e.txt",
                       "--solver", "magic", "--out", tmp_path / "o", check=False)
        assert proc.returncode == 2

    def test_corrupt_polys_one_line_diagnostic(self, tmp_path):
        make_scene_fixture(tmp_path, seed=467, h=16, w=16, k=12)
        run_cli("simulate", "--video", tmp_path / "video", "--out", tmp_path / "sim")
        run_cli("fit", "--manifest", tmp_path / "sim" / "manifest.json",
                "--gt-video", tmp_path / "video", "--out", tmp_path / "polys.npz")
        raw = (tmp_path / "polys.npz").read_bytes()
        (tmp_path / "corrupt.npz").write_bytes(raw[: len(raw) // 2])
        proc = run_cli("render", "--polys", tmp_path / "corrupt.npz",
                       "--out", tmp_path / "frames", check=False)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = [ln for ln in proc.stderr.splitlines() if ln.strip()]
        assert len(lines) == 1
        assert "corrupt.npz" in lines[0]

    def test_mismatched_frame_shapes_one_line_diagnostic(self, tmp_path):
        manifest = write_small_exposure(tmp_path)
        write_f32(tmp_path / "frames" / "frame_00002.f32", np.full((5, 4), 0.5))
        proc = run_cli("refine", "--frames", tmp_path / "frames", "--manifest", manifest,
                       "--out", tmp_path / "refined", check=False)
        assert proc.returncode == 2
        assert stderr_lines(proc) == [
            f"ecir refine: error: {tmp_path / 'frames' / 'frame_00002.f32'}: "
            "frame shape (5, 4) differs from frame_00000.f32's (4, 5)"
        ]

    def test_polys_not_an_archive_one_line_diagnostic(self, tmp_path):
        manifest = write_small_exposure(tmp_path)
        proc = run_cli("render", "--polys", manifest, "--out", tmp_path / "frames_out",
                       check=False)
        assert proc.returncode == 2
        assert stderr_lines(proc) == [f"ecir render: error: {manifest}: not an .npz archive"]
        assert not (tmp_path / "frames_out").exists()

    def test_degenerate_interval_diagnostic(self, tmp_path):
        (tmp_path / "events.txt").write_text("")
        proc = run_cli("voxelize", "--events", tmp_path / "events.txt",
                       "--t-start", "0.1", "--t-end", "0.1",
                       "--width", "2", "--height", "2",
                       "--out", tmp_path / "h.h32", check=False)
        assert proc.returncode == 2
        assert "interval" in proc.stderr

    def test_nan_blurry_pixel_one_line_diagnostic(self, tmp_path):
        blurry = np.full((4, 5), 0.5)
        blurry[2, 3] = np.nan
        write_raw_f32(tmp_path / "blurry.f32", blurry)
        (tmp_path / "events.txt").write_text("0.05 1 1 1\n")
        Manifest(t_start=IV.t_start, t_end=IV.t_end, blurry="blurry.f32",
                 events="events.txt").save(tmp_path / "manifest.json")
        proc = run_cli("edi", "--manifest", tmp_path / "manifest.json",
                       "--out", tmp_path / "frames", check=False)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = [ln for ln in proc.stderr.splitlines() if ln.strip()]
        assert len(lines) == 1
        assert "blurry.f32" in lines[0]
        assert not (tmp_path / "frames").exists()

    @pytest.mark.parametrize("fmt", ["f32", "pgm"])
    def test_render_overflowing_grid_one_line_diagnostic(self, tmp_path, fmt):
        """A valid archive whose polynomial overflows: exit 2, in-process and under -W error."""
        # keypoints 1e-12 apart under derivatives of +-1e300: the divided
        # differences overflow though every stored value is finite
        n = 10
        keypoints = np.broadcast_to(0.04 + np.arange(n) * 1e-12, (12, 12, n))
        derivatives = np.broadcast_to(np.where(np.arange(n) % 2, -1e300, 1e300), (12, 12, n))
        save_polys(tmp_path / "polys.npz",
                   PolyGrid(keypoints, derivatives, np.zeros((12, 12)), IV))
        assert load_polys(tmp_path / "polys.npz").shape == (12, 12)
        argv = [str(a) for a in ("render", "--polys", tmp_path / "polys.npz", "--format", fmt,
                                 "--count", "4", "--out", tmp_path / "frames")]
        expected = ["ecir render: error: rendered frames are not finite: "
                    "the fitted polynomials overflow"]
        assert run_main(*argv) == (2, expected)
        assert not (tmp_path / "frames").exists()
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "ecir", *argv],
                              capture_output=True, text=True)
        assert (proc.returncode, stderr_lines(proc)) == (2, expected)
        assert not (tmp_path / "frames").exists()

    def test_rendered_blocks_leave_the_error_state_alone(self):
        grid = random_poly_grid(np.random.default_rng(5), 3, 4, 4, IV)
        state = np.geterr()
        frames = _rendered(grid, np.linspace(IV.t_start, IV.t_end, 3))
        next(frames)
        assert np.geterr() == state
        assert len(list(frames)) == 2

    def test_infinite_manifest_bound_diagnostic(self, tmp_path):
        (tmp_path / "events.txt").write_text("")
        (tmp_path / "manifest.json").write_text(
            '{"t_start": -Infinity, "t_end": 0.1, "events": "events.txt"}'
        )
        proc = run_cli("voxelize", "--manifest", tmp_path / "manifest.json",
                       "--width", "2", "--height", "2",
                       "--out", tmp_path / "h.h32", check=False)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = [ln for ln in proc.stderr.splitlines() if ln.strip()]
        assert len(lines) == 1
        assert "finite" in lines[0]


    def test_manifest_event_outside_interval_one_line_diagnostic(self, tmp_path):
        (tmp_path / "events.txt").write_text("0.5 0 0 1\n")
        Manifest(t_start=0.0, t_end=0.1, events="events.txt").save(tmp_path / "m.json")
        proc = run_cli("voxelize", "--manifest", tmp_path / "m.json", "--width", "2",
                       "--height", "2", "--out", tmp_path / "h.h32", check=False)
        assert proc.returncode == 2
        lines = stderr_lines(proc)
        assert len(lines) == 1
        assert "interval" in lines[0]
        assert not (tmp_path / "h.h32").exists()
        # a command that reads no events accepts the same manifest
        write_video_dir(tmp_path / "video", np.linspace(0.0, 0.12, 3), np.full((3, 4, 5), 0.5))
        run_cli("simulate", "--video", tmp_path / "video", "--manifest", tmp_path / "m.json",
                "--out", tmp_path / "sim")

    def test_events_outside_interval_names_the_file(self, tmp_path):
        (tmp_path / "events.txt").write_text("0.05 0 0 1\n")
        (tmp_path / "bad.txt").write_text("0.05 0 0 1\n0.5 1 0 -1\n")
        Manifest(t_start=0.0, t_end=0.1, events="events.txt").save(tmp_path / "m.json")
        proc = run_cli("voxelize", "--manifest", tmp_path / "m.json", "--events",
                       tmp_path / "bad.txt", "--width", "2", "--height", "2",
                       "--out", tmp_path / "h.h32", check=False)
        assert proc.returncode == 2
        lines = stderr_lines(proc)
        assert len(lines) == 1
        assert "bad.txt" in lines[0] and "interval" in lines[0]

    LONE_BOUND_ARGS = {
        "voxelize": (["--width", "2", "--height", "2"], "h.h32"),
        "fit": (["--gt-video", "video", "--blurry", "b.f32", "--n", "4"], "p.npz"),
    }

    @pytest.mark.parametrize("bound", ["--t-start", "--t-end"])
    @pytest.mark.parametrize("command, with_manifest", [
        ("voxelize", True), ("voxelize", False), ("fit", True), ("fit", False),
    ], ids=["manifest", "no_manifest", "fit-manifest", "fit-no_manifest"])
    def test_lone_interval_bound_one_line_diagnostic(self, tmp_path, bound, command,
                                                     with_manifest):
        (tmp_path / "events.txt").write_text("0.05 0 0 1\n")
        Manifest(t_start=0.0, t_end=0.1, events="events.txt").save(tmp_path / "m.json")
        source = ["--manifest", tmp_path / "m.json"] if with_manifest else ["--events",
                                                                             tmp_path / "events.txt"]
        rest, out = self.LONE_BOUND_ARGS[command]
        proc = run_cli(command, *source, bound, "0.09", *rest, "--out", tmp_path / out,
                       check=False)
        assert proc.returncode == 2
        lines = stderr_lines(proc)
        assert len(lines) == 1
        assert "--t-start and --t-end" in lines[0]
        assert not (tmp_path / out).exists()

    @pytest.mark.parametrize("body, word", [
        ('{"t_start": 0, "t_end": 0.1, "events": 5}', "events"),
        ('{"t_start": 0, "t_end": 0.1, "events": "e.txt", "overrides": {"bins": {"a": 1}}}', "bins"),
        ('{"t_start": 0, "t_end": 0.1, "events": "e.txt", "overrides": {"bins": 1e400}}', "bins"),
        ('{"t_start": 0, "t_end": 0.1, "overrides": [["bins", 3]]}', "overrides"),
        ('{"t_start": true, "t_end": 2, "events": "e.txt"}', "t_start"),
        ('{"t_start": 0, "t_end": 0.1, "events": "e.txt", "overrides": {"bins": true}}', "bins"),
    ], ids=["events_int", "bins_object", "bins_inf", "overrides_list", "t_start_bool",
            "bins_bool"])
    def test_manifest_field_of_wrong_type_one_line_diagnostic(self, tmp_path, body, word):
        (tmp_path / "m.json").write_text(body)
        (tmp_path / "e.txt").write_text("")
        proc = run_cli("voxelize", "--manifest", tmp_path / "m.json", "--width", "12",
                       "--height", "12", "--out", tmp_path / "h.h32", check=False)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = stderr_lines(proc)
        assert len(lines) == 1
        assert word in lines[0]

    @pytest.mark.parametrize("c", ["inf", "1e300"])
    def test_edi_threshold_that_overflows_one_line_diagnostic(self, tmp_path, c):
        manifest = write_small_exposure(tmp_path)
        proc = run_cli("edi", "--manifest", manifest, "--c", c,
                       "--out", tmp_path / "edi", check=False)
        assert proc.returncode == 2
        assert len(stderr_lines(proc)) == 1
        assert "finite" in proc.stderr
        assert not (tmp_path / "edi").exists()

    @pytest.mark.parametrize("c", ["inf", "1e300"])
    def test_refine_threshold_that_overflows_one_line_diagnostic(self, tmp_path, c):
        manifest = write_small_exposure(tmp_path)
        proc = run_cli("refine", "--frames", tmp_path / "frames", "--manifest", manifest,
                       "--c", c, "--out", tmp_path / "refined", check=False)
        assert proc.returncode == 2
        lines = stderr_lines(proc)
        assert len(lines) == 1
        assert "finite" in lines[0] and "c" in lines[0].split("error:", 1)[1]
        assert not (tmp_path / "refined").exists()

    def test_nan_video_timestamp_one_line_diagnostic(self, tmp_path):
        write_video_dir(tmp_path / "video", np.linspace(IV.t_start, IV.t_end, 6),
                        np.full((6, 4, 5), 0.5))
        stamps = (tmp_path / "video" / "timestamps.txt").read_text().splitlines()
        stamps[2] = "nan"
        (tmp_path / "video" / "timestamps.txt").write_text("\n".join(stamps) + "\n")
        proc = run_cli("simulate", "--video", tmp_path / "video", "--out", tmp_path / "sim",
                       check=False)
        assert proc.returncode == 2
        lines = stderr_lines(proc)
        assert len(lines) == 1
        assert "timestamps.txt:3:" in lines[0]
        assert not (tmp_path / "sim").exists()

    def test_nan_derivative_polys_one_line_diagnostic(self, tmp_path):
        from scenes import random_poly_grid

        from ecir.io import save_polys

        grid = random_poly_grid(np.random.default_rng(503), 3, 4, 4, IV)
        grid.derivatives[1, 2, 0] = np.nan
        save_polys(tmp_path / "polys.npz", grid)
        proc = run_cli("render", "--polys", tmp_path / "polys.npz",
                       "--out", tmp_path / "frames", check=False)
        assert proc.returncode == 2
        lines = stderr_lines(proc)
        assert len(lines) == 1
        assert "polys.npz" in lines[0] and "derivatives" in lines[0]
        assert not (tmp_path / "frames").exists()

    def test_unsatisfiable_allocation_one_line_diagnostic(self, tmp_path):
        from scenes import random_poly_grid

        from ecir.io import save_polys

        save_polys(tmp_path / "polys.npz", random_poly_grid(np.random.default_rng(509), 3, 4, 4, IV))
        # 1e15 timestamps are 7.1 PiB, past what a process can map, so the
        # allocation fails at once without touching memory
        proc = run_cli("render", "--polys", tmp_path / "polys.npz", "--count", "1000000000000000",
                       "--out", tmp_path / "frames", check=False)
        assert proc.returncode == 2
        lines = stderr_lines(proc)
        assert len(lines) == 1
        assert lines[0].startswith("ecir render: error:") and "allocate" in lines[0]
        assert not (tmp_path / "frames").exists()

    def test_npy_polys_one_line_diagnostic(self, tmp_path):
        np.save(tmp_path / "a.npy", np.zeros(3))
        proc = run_cli("render", "--polys", tmp_path / "a.npy",
                       "--out", tmp_path / "frames", check=False)
        assert proc.returncode == 2
        lines = stderr_lines(proc)
        assert len(lines) == 1
        assert "a.npy" in lines[0]
        assert not (tmp_path / "frames").exists()

    @pytest.mark.parametrize("flags, word", [
        (("--solver", "gd", "--imax", "-3"), "i_max"),
        (("--lambda", "nan"), "lambda"),
        (("--lambda", "inf"), "lambda"),
    ])
    def test_bad_refine_settings_one_line_diagnostic(self, tmp_path, flags, word):
        manifest = write_small_exposure(tmp_path)
        proc = run_cli("refine", "--frames", tmp_path / "frames", "--manifest", manifest,
                       *flags, "--out", tmp_path / "refined", check=False)
        assert proc.returncode == 2
        lines = stderr_lines(proc)
        assert len(lines) == 1
        assert word in lines[0]
        assert not (tmp_path / "refined").exists()

    def test_refine_frames_outside_interval_one_line_diagnostic(self, tmp_path):
        manifest = write_small_exposure(tmp_path)
        write_video_dir(tmp_path / "late", np.linspace(IV.t_start, 2 * IV.t_end, 3),
                        np.full((3, 4, 5), 0.5))
        code, lines = run_main("refine", "--frames", tmp_path / "late", "--manifest", manifest,
                               "--out", tmp_path / "refined")
        assert (code, lines) == (
            2, ["ecir refine: error: schedule outside the exposure interval [0.0, 0.12]"])
        assert not (tmp_path / "refined").exists()

    def test_eval_report_named_like_its_csv_one_line_diagnostic(self, tmp_path):
        # refused before the frame directories, which do not exist, are read
        code, lines = run_main("eval", "--pred", tmp_path / "pred", "--gt", tmp_path / "gt",
                               "--report", tmp_path / "out" / "report.csv")
        assert code == 2
        assert len(lines) == 1 and "report.csv" in lines[0] and "CSV" in lines[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("side", ["pred", "gt"])
    @pytest.mark.parametrize("stamps, line", [(["0.1", "0.0", "0.0"], 2),
                                              (["0.0", "0.05", "0.05"], 3)])
    def test_eval_refuses_non_increasing_timestamps(self, tmp_path, side, stamps, line):
        for name in ("pred", "gt"):
            write_video_dir(tmp_path / name, np.linspace(IV.t_start, IV.t_end, 3),
                            np.full((3, 4, 5), 0.5))
        (tmp_path / side / "timestamps.txt").write_text("\n".join(stamps) + "\n")
        code, lines = run_main("eval", "--pred", tmp_path / "pred", "--gt", tmp_path / "gt",
                               "--report", tmp_path / "out" / "report.txt")
        stamps_path = tmp_path / side / "timestamps.txt"
        assert (code, lines) == (2, [f"ecir eval: error: {stamps_path}:{line}: "
                                     "timestamps must be strictly increasing"])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("side", ["pred", "gt"])
    @pytest.mark.parametrize("damage", ["failed rewrite", "extra frame"])
    def test_eval_refuses_what_read_video_dir_refuses(self, tmp_path, side, damage):
        times = np.linspace(IV.t_start, IV.t_end, 6)
        for name in ("pred", "gt"):
            write_video_dir(tmp_path / name, times, np.full((6, 4, 5), 0.5))
        bad = tmp_path / side
        if damage == "failed rewrite":
            def frames():
                yield from np.full((3, 4, 5), 0.25)
                raise RuntimeError("frame 3 failed")

            # three new frames, three old ones and no timestamps.txt
            with pytest.raises(RuntimeError, match="frame 3 failed"):
                write_video_dir(bad, times, frames())
        else:
            write_f32(bad / "frame_00006.f32", np.full((4, 5), 0.5))
        with pytest.raises((FileNotFoundError, ValueError)) as refused:
            read_video_dir(bad)
        code, lines = run_main("eval", "--pred", tmp_path / "pred", "--gt", tmp_path / "gt",
                               "--report", tmp_path / "report.txt")
        assert (code, lines) == (2, [f"ecir eval: error: {refused.value}"])
        assert not (tmp_path / "report.txt").exists()


def run_main(*args):
    """In-process CLI call: the exit code and what a terminal would show on stderr.

    A warning that Python shows by default counts as a stderr line.
    """
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for hidden in (DeprecationWarning, PendingDeprecationWarning, ImportWarning,
                           ResourceWarning):
                warnings.simplefilter("ignore", hidden)
            code = main([str(a) for a in args])
    lines = [ln for ln in err.getvalue().splitlines() if ln.strip()]
    return code, lines + [str(w.message) for w in caught]


class TestCommitLast:
    """A multi-file output that fails part way leaves no file tying it together."""

    SIMULATE_WRITES = ("events.txt", "events.evt", "blurry.f32", "manifest.json")

    @pytest.mark.parametrize("failing", SIMULATE_WRITES)
    def test_interrupted_simulate_rerun_leaves_no_manifest(self, tmp_path, monkeypatch,
                                                           failing):
        import ecir.io

        make_scene_fixture(tmp_path / "a", seed=443, h=6, w=8, k=12)
        make_scene_fixture(tmp_path / "b", seed=449, h=5, w=7, k=10)
        out = tmp_path / "sim"
        assert run_main("simulate", "--video", tmp_path / "a" / "video", "--out", out)[0] == 0

        def interrupted(write, path_at):
            def wrapped(*args):
                if Path(args[path_at]).name == failing:
                    raise OSError(f"{args[path_at]}: interrupted")
                return write(*args)
            return wrapped

        monkeypatch.setattr(ecir.io, "write_events", interrupted(ecir.io.write_events, 0))
        monkeypatch.setattr(ecir.io, "write_f32", interrupted(ecir.io.write_f32, 0))
        monkeypatch.setattr(ecir.io.Manifest, "save", interrupted(ecir.io.Manifest.save, 1))
        code, lines = run_main("simulate", "--video", tmp_path / "b" / "video", "--out", out)
        assert (code, lines) == (2, [f"ecir simulate: error: {out / failing}: interrupted"])
        assert not (out / "manifest.json").exists()
        monkeypatch.undo()

        manifest = out / "manifest.json"
        for argv in (["fit", "--gt-video", tmp_path / "a" / "video", "--out", tmp_path / "p.npz"],
                     ["edi", "--out", tmp_path / "edi"],
                     ["refine", "--frames", tmp_path / "a" / "video", "--out", tmp_path / "ref"],
                     ["voxelize", "--out", tmp_path / "v.h32"]):
            code, lines = run_main(*argv, "--manifest", manifest)
            assert code == 2 and len(lines) == 1, (argv[0], lines)
            assert lines[0].startswith(f"ecir {argv[0]}: error: ") and str(manifest) in lines[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b", "sim"]

    def test_edi_overflow_on_a_later_frame_leaves_no_timestamps(self, tmp_path):
        # the frame at 0.1 counts the event, and 1.2e5 * exp(700) overflows;
        # the frame at 0.0 and the normalizer stay finite
        write_f32(tmp_path / "blurry.f32", np.full((2, 3), 1e6))
        (tmp_path / "events.txt").write_text("0.05 1 0 1\n")
        argv = ("edi", "--t-start", "0", "--t-end", "0.12", "--blurry", tmp_path / "blurry.f32",
                "--events", tmp_path / "events.txt", "--timestamps", "0.0,0.1")
        out = tmp_path / "edi"
        assert run_main(*argv, "--c", "1", "--out", out)[0] == 0
        assert (out / "timestamps.txt").exists()
        code, lines = run_main(*argv, "--c", "700", "--out", out)
        assert (code, lines) == (2, ["ecir edi: error: edi frames are not finite at c=700.0: "
                                     "exp(c * signed count) overflows"])
        assert not (out / "timestamps.txt").exists()
        with pytest.raises(FileNotFoundError, match="missing timestamps.txt"):
            read_video_dir(out)

    def test_failed_eval_csv_write_leaves_no_report(self, tmp_path, monkeypatch):
        import csv

        times = np.linspace(IV.t_start, IV.t_end, 3)
        for name, value in (("pred", 0.5), ("gt", 0.25)):
            write_video_dir(tmp_path / name, times, np.full((3, 12, 13), value))
        argv = ("eval", "--pred", tmp_path / "pred", "--gt", tmp_path / "gt",
                "--report", tmp_path / "report.txt")
        assert run_main(*argv)[0] == 0

        writer = csv.writer

        class FailingWriter:
            """Writes the header, then fails on the frame rows."""

            def __init__(self, fh):
                self.rows = writer(fh)

            def writerow(self, row):
                self.rows.writerow(row)

            def writerows(self, rows):
                raise OSError("No space left on device")

        monkeypatch.setattr(csv, "writer", FailingWriter)
        code, lines = run_main(*argv)
        assert (code, lines) == (2, ["ecir eval: error: No space left on device"])
        assert not (tmp_path / "report.txt").exists()


@st.composite
def damage(draw, size):
    """A cut to a shorter length, or one flipped bit."""
    if draw(st.booleans()):
        return "cut", draw(st.integers(0, size - 1)), None
    return "flip", draw(st.integers(0, size - 1)), draw(st.integers(0, 7))


def damaged(raw, how):
    kind, at, bit = how
    if kind == "cut":
        return raw[:at]
    return raw[:at] + bytes([raw[at] ^ (1 << bit)]) + raw[at + 1 :]


def payload_value_finite(raw, how, header):
    """Whether the flipped float32 of a raw-float payload is still finite."""
    index = (how[1] - header) // 4
    return bool(np.isfinite(np.frombuffer(damaged(raw, how)[header:], dtype="<f4")[index]))


FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
F32_BYTES = 16 + 4 * 4 * 5
H32_BYTES = 20 + 4 * 3 * 4 * 5
EVT_COUNT = 6
EVT_BYTES = 16 + 17 * EVT_COUNT


class TestContainerFuzz:
    """Truncated or bit-flipped containers: exit 2 with one stderr line, or a clean run."""

    @FUZZ
    @given(how=damage(F32_BYTES))
    def test_f32_blurry_frame(self, tmp_path, how):
        manifest = write_small_exposure(tmp_path)
        rng = np.random.default_rng(how[1])
        write_f32(tmp_path / "blurry.f32", rng.uniform(0.1, 0.9, (4, 5)))
        raw = (tmp_path / "blurry.f32").read_bytes()
        assert len(raw) == F32_BYTES
        (tmp_path / "bad.f32").write_bytes(damaged(raw, how))
        out = tmp_path / f"edi_{how[0]}_{how[1]}_{how[2]}"
        code, lines = run_main("edi", "--manifest", manifest, "--blurry", tmp_path / "bad.f32",
                               "--count", "4", "--out", out)
        if how[0] == "cut" or how[1] < 16 or not payload_value_finite(raw, how, 16):
            assert code == 2
        assert (code, len(lines)) in ((0, 0), (2, 1))
        if code == 2:
            assert "bad.f32" in lines[0] or "float32 range" in lines[0]
        else:
            assert read_video_dir(out).frames.shape == (4, 4, 5)

    @FUZZ
    @given(how=damage(H32_BYTES))
    def test_h32_histogram(self, tmp_path, how):
        # no subcommand reads .h32; the reader's FormatError is a ValueError,
        # which every subcommand reports as exit 2 with one line
        rng = np.random.default_rng(how[1])
        bins = rng.integers(-3, 4, (3, 4, 5)).astype(np.float64)
        write_histogram(tmp_path / "h.h32", EventHistogram(bins, IV))
        raw = (tmp_path / "h.h32").read_bytes()
        assert len(raw) == H32_BYTES
        (tmp_path / "bad.h32").write_bytes(damaged(raw, how))
        try:
            back = read_histogram(tmp_path / "bad.h32", IV).bins
        except FormatError as exc:
            assert "bad.h32" in str(exc) and "\n" not in str(exc)
            return
        assert how[0] == "flip" and how[1] >= 20 and payload_value_finite(raw, how, 20)
        assert np.sum(back != bins) <= 1

    @FUZZ
    @given(how=damage(EVT_BYTES))
    def test_evt_events(self, tmp_path, how):
        rng = np.random.default_rng(how[1])
        t = np.sort(rng.uniform(IV.t_start, IV.t_end, EVT_COUNT))
        stream = EventStream(rng.integers(0, 5, EVT_COUNT), rng.integers(0, 4, EVT_COUNT), t,
                             rng.choice([-1, 1], EVT_COUNT), IV)
        write_events(tmp_path / "e.evt", stream)
        raw = (tmp_path / "e.evt").read_bytes()
        assert len(raw) == EVT_BYTES
        (tmp_path / "bad.evt").write_bytes(damaged(raw, how))
        out = tmp_path / f"hist_{how[0]}_{how[1]}_{how[2]}.h32"
        code, lines = run_main("voxelize", "--events", tmp_path / "bad.evt",
                               "--t-start", IV.t_start, "--t-end", IV.t_end,
                               "--width", "5", "--height", "4", "--bins", "6", "--out", out)
        if how[0] == "cut" or how[1] < 16:
            assert code == 2
        assert (code, len(lines)) in ((0, 0), (2, 1))
        if code == 2:
            # a coordinate flipped beyond the grid is refused by voxelize itself
            assert "bad.evt" in lines[0] or "grid shape" in lines[0]
        else:
            assert read_histogram(out, IV).bins.shape == (6, 4, 5)

    @pytest.fixture(scope="class")
    def polys(self, tmp_path_factory):
        from scenes import random_poly_grid

        from ecir.io import save_polys

        d = tmp_path_factory.mktemp("polys")
        save_polys(d / "polys.npz", random_poly_grid(np.random.default_rng(491), 3, 4, 4, IV))
        assert run_main("render", "--polys", d / "polys.npz", "--count", "3",
                        "--out", d / "frames") == (0, [])
        frames = read_video_dir(d / "frames").frames
        return (d / "polys.npz").read_bytes(), frames

    @FUZZ
    @given(data=st.data())
    def test_npz_polys(self, tmp_path, polys, data):
        raw, frames = polys
        how = data.draw(damage(len(raw)))
        (tmp_path / "bad.npz").write_bytes(damaged(raw, how))
        out = tmp_path / f"render_{how[0]}_{how[1]}_{how[2]}"
        code, lines = run_main("render", "--polys", tmp_path / "bad.npz", "--count", "3",
                               "--out", out)
        if how[0] == "cut":
            assert code == 2
        assert (code, len(lines)) in ((0, 0), (2, 1))
        if code == 2:
            assert "bad.npz" in lines[0]
        else:
            # zip metadata the reader ignores; the arrays are intact
            assert np.array_equal(read_video_dir(out).frames, frames)


class TestManifestEvents:
    def test_manifest_command_parses_events_once(self, tmp_path, monkeypatch):
        from ecir import cli
        from ecir import io as ecir_io
        from ecir.io import Manifest, write_f32

        rng = np.random.default_rng(487)
        k = 300
        stream = EventStream(rng.integers(0, 6, k), rng.integers(0, 5, k),
                             np.sort(rng.uniform(IV.t_start, IV.t_end, k)),
                             rng.choice([-1, 1], k), IV)
        write_events(tmp_path / "events.txt", stream)
        write_f32(tmp_path / "blurry.f32", np.zeros((5, 6)))
        Manifest(t_start=IV.t_start, t_end=IV.t_end, blurry="blurry.f32",
                 events="events.txt").save(tmp_path / "manifest.json")
        parsed = []
        real = ecir_io.read_events

        def counting(path, interval):
            parsed.append(path)
            return real(path, interval)

        monkeypatch.setattr(ecir_io, "read_events", counting)
        manifest = str(tmp_path / "manifest.json")
        assert cli.main(["voxelize", "--manifest", manifest, "--out", str(tmp_path / "m.h32")]) == 0
        assert len(parsed) == 1
        # a separate --events path is parsed on its own, with the same result
        (tmp_path / "copy.txt").write_bytes((tmp_path / "events.txt").read_bytes())
        assert cli.main(["voxelize", "--manifest", manifest, "--events",
                         str(tmp_path / "copy.txt"), "--out", str(tmp_path / "e.h32")]) == 0
        assert parsed[1:] == [tmp_path / "copy.txt"]
        assert (tmp_path / "m.h32").read_bytes() == (tmp_path / "e.h32").read_bytes()
        # the events are checked against the command's own interval
        code = cli.main(["voxelize", "--manifest", manifest, "--t-start", "0.0",
                         "--t-end", "0.01", "--out", str(tmp_path / "n.h32")])
        assert code == 2


    def test_container_manifest_reads_events_once_per_command(self, tmp_path, monkeypatch):
        from ecir import cli
        from ecir import io as ecir_io

        rng = np.random.default_rng(499)
        k = 300
        stream = EventStream(rng.integers(0, 6, k), rng.integers(0, 5, k),
                             np.sort(rng.uniform(IV.t_start, IV.t_end, k)),
                             rng.choice([-1, 1], k), IV)
        write_events(tmp_path / "events.txt", stream)
        write_events(tmp_path / "events.evt", stream)
        write_f32(tmp_path / "blurry.f32", np.full((5, 6), 0.5))
        Manifest(t_start=IV.t_start, t_end=IV.t_end, blurry="blurry.f32",
                 events="events.evt").save(tmp_path / "manifest.json")
        write_video_dir(tmp_path / "frames", np.linspace(IV.t_start, IV.t_end, 4),
                        np.full((4, 5, 6), 0.5))
        parsed = []
        real = ecir_io.read_events

        def counting(path, interval):
            parsed.append(path)
            return real(path, interval)

        monkeypatch.setattr(ecir_io, "read_events", counting)
        manifest = str(tmp_path / "manifest.json")
        for command, *argv in (
            ["voxelize"],
            ["edi", "--count", "4"],
            ["refine", "--frames", str(tmp_path / "frames")],
            ["fit", "--gt-video", str(tmp_path / "frames"), "--n", "3"],
        ):
            # the manifest's container, or the --events file in its place
            for events, flag in ((tmp_path / "events.evt", []),
                                 (tmp_path / "events.txt", ["--events", str(tmp_path / "events.txt")])):
                parsed.clear()
                out = str(tmp_path / f"{command}_{events.suffix[1:]}")
                assert cli.main([command, "--manifest", manifest, *argv, *flag, "--out", out]) == 0
                assert parsed == [events]
        # the container gives the same histogram as the text file it mirrors
        assert (tmp_path / "voxelize_evt").read_bytes() == (tmp_path / "voxelize_txt").read_bytes()


class TestConfigPrecedence:
    def make_manifest(self, tmp_path, overrides):
        from ecir.io import Manifest

        write_events(tmp_path / "events.txt", EventStream.empty(IV))
        Manifest(
            t_start=IV.t_start,
            t_end=IV.t_end,
            events="events.txt",
            overrides=overrides,
        ).save(tmp_path / "manifest.json")
        return tmp_path / "manifest.json"

    def test_flag_beats_manifest_beats_default(self, tmp_path):
        manifest = self.make_manifest(tmp_path, {"bins": 20})
        # default: 40 bins
        run_cli("voxelize", "--events", tmp_path / "events.txt",
                "--t-start", IV.t_start, "--t-end", IV.t_end,
                "--width", "2", "--height", "2", "--out", tmp_path / "d.h32")
        assert read_histogram(tmp_path / "d.h32", IV).bins.shape[0] == 40
        # manifest override: 20 bins
        run_cli("voxelize", "--manifest", manifest,
                "--width", "2", "--height", "2", "--out", tmp_path / "m.h32")
        assert read_histogram(tmp_path / "m.h32", IV).bins.shape[0] == 20
        # flag beats manifest: 10 bins
        run_cli("voxelize", "--manifest", manifest, "--bins", "10",
                "--width", "2", "--height", "2", "--out", tmp_path / "f.h32")
        assert read_histogram(tmp_path / "f.h32", IV).bins.shape[0] == 10

    def test_threads_flag_does_not_change_results(self, tmp_path):
        make_scene_fixture(tmp_path, seed=443, h=20, w=20, k=16)
        run_cli("simulate", "--video", tmp_path / "video", "--out", tmp_path / "sim")
        for threads, out in ((1, "p1.npz"), (4, "p4.npz")):
            run_cli("fit", "--manifest", tmp_path / "sim" / "manifest.json",
                    "--gt-video", tmp_path / "video", "--threads", threads,
                    "--out", tmp_path / out)
        with np.load(tmp_path / "p1.npz") as a, np.load(tmp_path / "p4.npz") as b:
            assert np.array_equal(a["derivatives"], b["derivatives"])
            assert np.array_equal(a["constants"], b["constants"])


# each manifest override key: the command that honors it, flags that make the
# key matter, a value its flag accepts (other than the default) and one the
# flag refuses
OVERRIDE_CASES = {
    "exposure_ms": ("simulate", (), 60.0, True),
    "c_plus": ("simulate", (), 0.25, "high"),
    "c_minus": ("simulate", (), -0.25, None),
    "sigma": ("simulate", (), 0.03, [0.03]),
    "seed": ("simulate", ("--sigma", "0.03"), 3, 3.0),
    "n": ("fit", (), "6", 4.7),
    "count": ("render", (), 5, True),
    "c": ("edi", (), "0.3", "0.3x"),
    "lambda": ("refine", (), 0.5, {"a": 1}),
    "imax": ("refine", ("--solver", "gd"), 7, 12.0),
    "solver": ("refine", ("--imax", "3"), "gd", "foo"),
    "bins": ("voxelize", (), 7, 2.9),
    "width": ("voxelize", (), 40, "9.5"),
    "height": ("voxelize", (), 30, False),
}


def output_bytes(path):
    """A file's bytes, or a directory's as {name: bytes}."""
    if path.is_dir():
        return {p.name: p.read_bytes() for p in sorted(path.iterdir())}
    return path.read_bytes()


class TestManifestOverrides:
    @pytest.fixture(scope="class")
    def exposure(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("exposure")
        make_scene_fixture(base, seed=467, h=12, w=16, k=24)
        for args in (("simulate", "--video", base / "video", "--out", base / "sim"),
                     ("fit", "--manifest", base / "sim" / "manifest.json",
                      "--gt-video", base / "video", "--out", base / "polys.npz"),
                     ("render", "--polys", base / "polys.npz", "--count", "6",
                      "--out", base / "initial")):
            assert run_main(*args) == (0, [])
        return base

    @staticmethod
    def argv(exposure, key, *flags):
        """The key's command, its inputs and the flags that make the key matter."""
        command, extra, _, _ = OVERRIDE_CASES[key]
        inputs = {"simulate": ("--video", exposure / "video"),
                  "fit": ("--gt-video", exposure / "video"),
                  "render": ("--polys", exposure / "polys.npz"),
                  "refine": ("--frames", exposure / "initial")}.get(command, ())
        return [command, *inputs, *extra, *flags]

    def run(self, exposure, tmp_path, key, overrides, *flags):
        """The key's command, given a manifest holding ``overrides``: (code, stderr, out)."""
        sim = load_manifest(exposure / "sim" / "manifest.json")
        manifest = tmp_path / f"manifest_{len(list(tmp_path.iterdir()))}.json"
        Manifest(t_start=sim.t_start, t_end=sim.t_end, blurry=str(sim.resolve("blurry")),
                 events=str(sim.resolve("events")), overrides=overrides).save(manifest)
        argv = self.argv(exposure, key, *flags)
        out = tmp_path / f"out_{manifest.stem}{'.npz' if argv[0] == 'fit' else ''}"
        code, lines = run_main(*argv, "--manifest", manifest, "--out", out)
        return code, lines, out

    def test_keys_are_the_overridable_ones(self):
        from ecir.cli import OVERRIDABLE

        assert set(OVERRIDE_CASES) == OVERRIDABLE

    @pytest.mark.parametrize("key", sorted(OVERRIDE_CASES))
    def test_valid_override_gives_the_flags_output(self, exposure, tmp_path, key):
        value = OVERRIDE_CASES[key][2]
        code, lines, default = self.run(exposure, tmp_path, key, {})
        assert (code, lines) == (0, [])
        code, lines, flagged = self.run(exposure, tmp_path, key, {},
                                        f"--{key.replace('_', '-')}={value}")
        assert (code, lines) == (0, [])
        code, lines, overridden = self.run(exposure, tmp_path, key, {key: value})
        assert (code, lines) == (0, [])
        assert output_bytes(overridden) == output_bytes(flagged)
        # the value changes the output, so the override did take effect
        assert output_bytes(flagged) != output_bytes(default)

    @pytest.mark.parametrize("key", sorted(OVERRIDE_CASES))
    def test_refused_override_one_line_diagnostic(self, exposure, tmp_path, key, monkeypatch):
        import ecir.io

        command, _, _, bad = OVERRIDE_CASES[key]
        flag = f"--{key.replace('_', '-')}"
        # the flag refuses the same value
        err = io.StringIO()
        with pytest.raises(SystemExit) as refused, contextlib.redirect_stderr(err):
            main([str(a) for a in self.argv(exposure, key, f"{flag}={bad}", "--out", "x")])
        assert refused.value.code == 2
        assert f"argument {flag}: invalid" in err.getvalue()

        def unread(*args, **kwargs):
            raise AssertionError("an input was read before the overrides were checked")

        for reader in ("read_video_dir", "read_frame", "read_events", "load_polys"):
            monkeypatch.setattr(ecir.io, reader, unread)
        code, lines, out = self.run(exposure, tmp_path, key, {key: bad})
        assert (code, lines) == (
            2, [f"ecir {command}: error: manifest override {key!r} is not a valid value: {bad!r}"])
        assert not out.exists()

    def test_other_keys_ignored(self, exposure, tmp_path):
        code, lines, default = self.run(exposure, tmp_path, "count", {})
        assert (code, lines) == (0, [])
        code, lines, out = self.run(exposure, tmp_path, "count",
                                    {"format": "pgm", "out": "elsewhere", "threads": "x",
                                     "polys": "none.npz", "timestamps": "bad"})
        assert (code, lines) == (0, [])
        assert output_bytes(out) == output_bytes(default)


class TestRenderTimestamps:
    def test_explicit_timestamp_list(self, tmp_path):
        make_scene_fixture(tmp_path, seed=457, h=16, w=16, k=12)
        run_cli("simulate", "--video", tmp_path / "video", "--out", tmp_path / "sim")
        run_cli("fit", "--manifest", tmp_path / "sim" / "manifest.json",
                "--gt-video", tmp_path / "video", "--out", tmp_path / "polys.npz")
        run_cli("render", "--polys", tmp_path / "polys.npz",
                "--timestamps", "0.01,0.05,0.09", "--out", tmp_path / "frames")
        video = read_video_dir(tmp_path / "frames")
        assert video.frames.shape[0] == 3
        assert video.times == pytest.approx([0.01, 0.05, 0.09])

    def test_default_count_is_fourteen(self, tmp_path):
        make_scene_fixture(tmp_path, seed=461, h=16, w=16, k=12)
        run_cli("simulate", "--video", tmp_path / "video", "--out", tmp_path / "sim")
        run_cli("fit", "--manifest", tmp_path / "sim" / "manifest.json",
                "--gt-video", tmp_path / "video", "--out", tmp_path / "polys.npz")
        run_cli("render", "--polys", tmp_path / "polys.npz", "--out", tmp_path / "frames")
        assert read_video_dir(tmp_path / "frames").frames.shape[0] == 14

    def test_out_of_range_timestamps_rejected(self, tmp_path):
        make_scene_fixture(tmp_path, seed=463, h=16, w=16, k=12)
        run_cli("simulate", "--video", tmp_path / "video", "--out", tmp_path / "sim")
        run_cli("fit", "--manifest", tmp_path / "sim" / "manifest.json",
                "--gt-video", tmp_path / "video", "--out", tmp_path / "polys.npz")
        proc = run_cli("render", "--polys", tmp_path / "polys.npz",
                       "--timestamps", "0.01,0.5", "--out", tmp_path / "frames",
                       check=False)
        assert proc.returncode == 2
        assert "outside" in proc.stderr

    @pytest.mark.parametrize("timestamps, bad", [("0.01,nan", "nan"), ("nan,0.01", "nan"),
                                                 ("0.01,inf", "inf"), ("-inf 0.01", "-inf")])
    def test_non_finite_timestamps_rejected(self, tmp_path, timestamps, bad):
        """A NaN is named before the order check, which would refuse it without naming it."""
        manifest = write_small_exposure(tmp_path)
        save_polys(tmp_path / "polys.npz",
                   random_poly_grid(np.random.default_rng(3), 4, 5, 4, IV))
        for command, source in (("render", ("--polys", tmp_path / "polys.npz")),
                                ("edi", ("--manifest", manifest))):
            code, lines = run_main(command, *source, "--timestamps", timestamps,
                                   "--out", tmp_path / command)
            assert code == 2
            assert lines == [f"ecir {command}: error: timestamps must be finite, got {bad!r}"]
            assert not (tmp_path / command).exists()
