"""Command-line pipeline: simulate, fit, render, edi, refine, eval, voxelize.

Settings resolve as flag > manifest override > built-in default. Every
subcommand validates its inputs and exits nonzero with a one-line diagnostic
on bad input. A command that needs events reads them once, from the path it
resolved (``--events``, else the manifest's), checked against its own
exposure interval. ``eval`` scores its frame pairs, and ``simulate``
formats its text events, in contiguous parts on every CPU of the
affinity mask: forked children take every part but the first
(:mod:`ecir._parts`), and the outputs do not depend on the number of parts.
Each process runs one thread; ``--threads`` is accepted for compatibility
and ignored.
"""

from __future__ import annotations

import argparse
import csv
import struct
import sys
from pathlib import Path

import numpy as np

from . import _parts, io
from .fitting import edi_video, fit_polys
from .keypoints import keypoint_grid
from .metrics import _psnr_of_mse, mse, ssim
from .refinement import DEFAULT_ITERATIONS, DEFAULT_LAMBDA, DivergenceError, refine
from .simulation import (
    DEFAULT_BINS,
    DEFAULT_CONTRAST,
    ThresholdConfig,
    simulate_events,
    synthesize_blur,
    voxelize,
)
from .types import BlurryFrame, ExposureInterval

DEFAULT_EXPOSURE_MS = 120.0
DEFAULT_KEYPOINTS = 10
DEFAULT_FRAME_COUNT = 14
# fewest pixels a part of eval scores (see _parts), counted as frame pairs
# times the pixels of the first predicted frame: 4 pairs of 180x240. The
# timings below were measured with a five-filter SSIM, before a pair's SSIM
# fell from about 5 to 4 ms. Median ms of in-process evals of the first n
# frame_heavy pairs (180x240 .f32, 2 vCPU, 41 alternating calls a side, one
# part -> two parts): n=2: 16.7 -> 16.2; 3: 24.4 -> 24.3; 4: 30.7 -> 24.3;
# 8: 56.2 -> 40.1; 16: 107.1 -> 65.4. In some rounds a split of 2 to 6 pairs
# lost up to 8 ms (4: 28.3 -> 34.1) but one of 8 never did. The fork's fixed
# cost, mostly copy-on-write faults, does not shrink with the frames, so the
# floor is in pixels: 8 pairs took 8.9 -> 15.7 ms at 16x20 and 16.1 -> 24.8
# at 90x120.
EVAL_PART_PIXELS = 4 * 180 * 240
# bytes of the float64 block of frames render runs one Horner pass over: 4
# frames of 180x240. Median ms of 64 frames of a 180x240 n=10 grid, each cast
# to float32 as the writer does (2 vCPU, 15 alternating rounds): a (64, h, w)
# stack, one frame at a time, 26.8; blocks of 1: 24.9, 2: 20.5, 4: 18.7,
# 8: 27.2, 16: 28.5. A block past the cache loses more than the pass saves.
RENDER_BLOCK_BYTES = 4 * 180 * 240 * 8
# one frame's (mse, psnr, ssim) as a forked part sends it: exact float64s
_EVAL_RECORD = struct.Struct("<3d")

_COERCE = {
    "n": int,
    "bins": int,
    "count": int,
    "imax": int,
    "seed": int,
    "width": int,
    "height": int,
    "c": float,
    "c_plus": float,
    "c_minus": float,
    "sigma": float,
    "lambda": float,
    "exposure_ms": float,
    "solver": str,
}


def _setting(flag_value, manifest: io.Manifest | None, key: str, default):
    """flag > manifest override > default."""
    if flag_value is not None:
        return flag_value
    if manifest is not None and key in manifest.overrides:
        value = manifest.overrides[key]
        try:
            return _COERCE.get(key, str)(value)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"manifest override {key!r} is not a valid value: {value!r}") from None
    return default


def _manifest_of(args) -> io.Manifest | None:
    path = getattr(args, "manifest", None)
    return io.load_manifest(path) if path else None


def _interval_of(args, manifest: io.Manifest | None) -> ExposureInterval:
    t_start = getattr(args, "t_start", None)
    t_end = getattr(args, "t_end", None)
    if (t_start is None) != (t_end is None):
        raise ValueError("--t-start and --t-end must be given together")
    if t_start is not None:
        return ExposureInterval(t_start, t_end)
    if manifest is not None:
        return manifest.interval
    raise ValueError("need --t-start/--t-end or --manifest to fix the exposure interval")


def _path_setting(flag_value, manifest: io.Manifest | None, name: str) -> Path:
    if flag_value is not None:
        return Path(flag_value)
    if manifest is not None:
        resolved = manifest.resolve(name)
        if resolved is not None:
            return resolved
    raise ValueError(f"missing --{name.replace('_', '-')} (no manifest fallback found)")


def _times_of(args, manifest: io.Manifest | None, interval: ExposureInterval) -> np.ndarray:
    """``--timestamps``, else ``--count`` times spanning ``interval``."""
    if args.timestamps is not None:
        return _parse_timestamps(args.timestamps)
    return interval.uniform_times(_setting(args.count, manifest, "count", DEFAULT_FRAME_COUNT))


def _parse_timestamps(text: str) -> np.ndarray:
    parts = [p for chunk in text.split(",") for p in chunk.split() if p]
    if not parts:
        raise ValueError("empty timestamp list")
    try:
        times = np.array([float(p) for p in parts])
    except ValueError:
        raise ValueError(f"bad timestamp list {text!r}") from None
    bad = np.flatnonzero(~np.isfinite(times))
    if bad.size:
        # a NaN compares false, so the order check below would let it through
        raise ValueError(f"timestamps must be finite, got {parts[bad[0]]!r}")
    if np.any(np.diff(times) <= 0):
        raise ValueError("timestamps must be strictly increasing")
    return times


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    manifest = _manifest_of(args)
    exposure_ms = _setting(args.exposure_ms, manifest, "exposure_ms", DEFAULT_EXPOSURE_MS)
    cfg = ThresholdConfig(
        c_plus=_setting(args.c_plus, manifest, "c_plus", DEFAULT_CONTRAST),
        c_minus=_setting(args.c_minus, manifest, "c_minus", -DEFAULT_CONTRAST),
        sigma=_setting(args.sigma, manifest, "sigma", 0.0),
        seed=_setting(args.seed, manifest, "seed", 0),
    )
    video = io.read_video_dir(args.video)
    window = ExposureInterval(
        float(video.times[0]), float(video.times[0]) + exposure_ms / 1000.0
    )
    video = video.window(window)

    events = simulate_events(video, cfg)
    blurry = synthesize_blur(video)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # the text file is the interchange copy; commands given the manifest
    # read the container, which needs no parsing
    io.write_events(out / "events.txt", events)
    io.write_events(out / "events.evt", events)
    io.write_f32(out / "blurry.f32", blurry.values)
    io.Manifest(
        t_start=window.t_start,
        t_end=window.t_end,
        blurry="blurry.f32",
        events="events.evt",
        gt_video=str(Path(args.video).resolve()),
        overrides={},
    ).save(out / "manifest.json")
    print(f"simulate: {len(events)} events, blurry {blurry.shape[0]}x{blurry.shape[1]}")
    return 0


def cmd_fit(args) -> int:
    manifest = _manifest_of(args)
    bounded = manifest is not None or args.t_start is not None or args.t_end is not None
    window = _interval_of(args, manifest) if bounded else None
    n = _setting(args.n, manifest, "n", DEFAULT_KEYPOINTS)
    blurry_path = _path_setting(args.blurry, manifest, "blurry")
    events_path = _path_setting(args.events, manifest, "events")
    video_path = _path_setting(args.gt_video, manifest, "gt_video")

    video = io.read_video_dir(video_path)
    if window is not None:
        video = video.window(window)
    interval = video.interval
    blurry = BlurryFrame(io.read_frame(blurry_path), interval)
    events = io.read_events(events_path, interval)

    keypoints = keypoint_grid(events, interval, n, video.shape)
    del events  # the fit reads only the keypoints
    grid = fit_polys(video, keypoints, blurry)
    io.save_polys(args.out, grid)
    flag = " (rank-deficient, ridge engaged)" if grid.fit_warning else ""
    print(f"fit: n={n} over {video.frame_count} frames -> {args.out}{flag}")
    return 0


def _rendered(grid, times: np.ndarray):
    """The frames at ``times``, one at a time, each block of frames one Horner pass.

    A (G, 1, 1) block of times broadcasts against the grid's planes, and every
    element gets the multiply-adds a one-frame call gives it, so the frames
    are bitwise the per-frame ones.
    """
    h, w = grid.shape
    block = max(1, RENDER_BLOCK_BYTES // max(8 * h * w, 1))
    for lo in range(0, times.shape[0], block):
        yield from grid.intensity_at(times[lo : lo + block, None, None])


def cmd_render(args) -> int:
    manifest = _manifest_of(args)
    grid = io.load_polys(args.polys)
    times = _times_of(args, manifest, grid.interval)
    if not grid.interval.contains(times):
        raise ValueError("render timestamps fall outside the fitted exposure interval")
    io.write_video_dir(args.out, times, _rendered(grid, times), fmt=args.format)
    print(f"render: {times.shape[0]} frames -> {args.out}")
    return 0


def cmd_edi(args) -> int:
    manifest = _manifest_of(args)
    interval = _interval_of(args, manifest)
    blurry_path = _path_setting(args.blurry, manifest, "blurry")
    events_path = _path_setting(args.events, manifest, "events")
    c = _setting(args.c, manifest, "c", DEFAULT_CONTRAST)
    blurry = BlurryFrame(io.read_frame(blurry_path), interval)
    events = io.read_events(events_path, interval)
    times = _times_of(args, manifest, interval)
    frames = edi_video(blurry, events, c, times)
    io.write_video_dir(args.out, times, frames, fmt=args.format)
    print(f"edi: {times.shape[0]} frames at c={c} -> {args.out}")
    return 0


def cmd_refine(args) -> int:
    manifest = _manifest_of(args)
    interval = _interval_of(args, manifest)
    events_path = _path_setting(args.events, manifest, "events")
    lam = _setting(args.lam, manifest, "lambda", DEFAULT_LAMBDA)
    i_max = _setting(args.imax, manifest, "imax", DEFAULT_ITERATIONS)
    solver = _setting(args.solver, manifest, "solver", "tridiag")
    c = _setting(args.c, manifest, "c", DEFAULT_CONTRAST)

    video = io.read_video_dir(args.frames)
    if not interval.contains(video.times):
        raise ValueError("frame schedule falls outside the exposure interval")
    events = io.read_events(events_path, interval)
    refined = refine(video.frames, events, c, video.times, lam=lam, i_max=i_max, solver=solver)
    io.write_video_dir(args.out, video.times, refined, fmt=args.format)
    print(f"refine: solver={solver} lambda={lam} imax={i_max} -> {args.out}")
    return 0


def _scores(pred_paths: list[Path], gt_paths: list[Path], lo: int, hi: int) -> list[tuple]:
    """(mse, psnr, ssim) of frame pairs ``lo`` to ``hi``, each pair read as it is scored."""
    rows = []
    for pred_path, gt_path in zip(pred_paths[lo:hi], gt_paths[lo:hi]):
        pred, gt = io.read_frame(pred_path), io.read_frame(gt_path)
        err = mse(pred, gt)
        rows.append((err, _psnr_of_mse(err), ssim(pred, gt)))
    return rows


def cmd_eval(args) -> int:
    # a directory whose rewrite failed part way has no timestamps.txt
    _, pred_paths = io.video_frames(args.pred)
    _, gt_paths = io.video_frames(args.gt)
    if len(pred_paths) != len(gt_paths):
        raise ValueError(
            f"frame count mismatch: {len(pred_paths)} predicted vs {len(gt_paths)} reference"
        )

    def packed(lo, hi):
        return [_EVAL_RECORD.pack(*row) for row in _scores(pred_paths, gt_paths, lo, hi)]

    h, w = io.read_frame(pred_paths[0]).shape
    edges = _parts.edges(len(pred_paths), -(-EVAL_PART_PIXELS // max(h * w, 1)))
    with _parts.forked(edges, packed) as drain:
        rows = _scores(pred_paths, gt_paths, 0, edges[1])
        records = bytearray()
        for lo, hi, status in drain(records.extend):
            if status:
                # scored again here, so a bad pair raises the serial path's error
                rows += _scores(pred_paths, gt_paths, lo, hi)
            else:
                rows += _EVAL_RECORD.iter_unpack(records)
            records.clear()

    report = Path(args.report)
    report.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"frames={len(rows)}"]
    for i, (m, p, s) in enumerate(rows):
        lines.append(f"frame_{i:04d}_mse={m:.9f}")
        lines.append(f"frame_{i:04d}_psnr={p:.9f}")
        lines.append(f"frame_{i:04d}_ssim={s:.9f}")
    agg = np.mean(np.array(rows, dtype=np.float64), axis=0)
    lines.append(f"mse_mean={agg[0]:.9f}")
    lines.append(f"psnr_mean={agg[1]:.9f}")
    lines.append(f"ssim_mean={agg[2]:.9f}")
    with io._overwrite(report, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")

    csv_path = report.with_suffix(".csv") if report.suffix else Path(str(report) + ".csv")
    with io._overwrite(csv_path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "mse", "psnr", "ssim"])
        for i, (m, p, s) in enumerate(rows):
            writer.writerow([i, f"{m:.9f}", f"{p:.9f}", f"{s:.9f}"])
        writer.writerow(["mean", f"{agg[0]:.9f}", f"{agg[1]:.9f}", f"{agg[2]:.9f}"])
    print(f"eval: mse={agg[0]:.6f} psnr={agg[1]:.3f} ssim={agg[2]:.4f} -> {report}")
    return 0


def cmd_voxelize(args) -> int:
    manifest = _manifest_of(args)
    interval = _interval_of(args, manifest)
    events_path = _path_setting(args.events, manifest, "events")
    m = _setting(args.bins, manifest, "bins", DEFAULT_BINS)
    events = io.read_events(events_path, interval)

    width = _setting(args.width, manifest, "width", None)
    height = _setting(args.height, manifest, "height", None)
    if width is None or height is None:
        blurry_path = manifest.resolve("blurry") if manifest else None
        if blurry_path is not None:
            h, w = io.read_frame(blurry_path).shape
        elif len(events):
            w = int(events.x.max()) + 1
            h = int(events.y.max()) + 1
        else:
            raise ValueError("empty stream: need --width/--height or a manifest with a blurry frame")
        width = width if width is not None else w
        height = height if height is not None else h

    hist = voxelize(events, m, (height, width))
    io.write_histogram(args.out, hist)
    signed_total = float(hist.bins.sum())
    print(f"voxelize: m={m} grid {height}x{width} signed-sum {signed_total:+g} -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_interval_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t-start", type=float, default=None, help="exposure start (s)")
    p.add_argument("--t-end", type=float, default=None, help="exposure end (s)")
    p.add_argument("--manifest", default=None, help="manifest.json supplying defaults")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecir",
        description="Continuous intensity recovery from a blurry frame and events",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="events + blurry frame from a sharp video")
    p.add_argument("--video", required=True, help="frame directory with timestamps.txt")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--c-plus", type=float, default=None)
    p.add_argument("--c-minus", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--exposure-ms", type=float, default=None)
    p.add_argument("--threads", type=int, default=None, help="accepted and ignored")
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit per-pixel intensity polynomials")
    p.add_argument("--blurry", default=None)
    p.add_argument("--events", default=None)
    p.add_argument("--gt-video", default=None)
    p.add_argument("--n", type=int, default=None, help="keypoints per pixel")
    p.add_argument("--out", required=True, help="output .npz")
    p.add_argument("--threads", type=int, default=None, help="accepted and ignored")
    _add_interval_flags(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("render", help="latent frames from fitted polynomials")
    p.add_argument("--polys", required=True)
    p.add_argument("--timestamps", default=None, help="comma-separated seconds")
    p.add_argument("--count", type=int, default=None, help="uniform timestamp count")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("f32", "pgm"), default="f32")
    p.add_argument("--threads", type=int, default=None, help="accepted and ignored")
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("edi", help="double-integral analytic baseline")
    p.add_argument("--blurry", default=None)
    p.add_argument("--events", default=None)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--timestamps", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("f32", "pgm"), default="f32")
    _add_interval_flags(p)
    p.set_defaults(func=cmd_edi)

    p = sub.add_parser("refine", help="residual-flow refinement of a frame stack")
    p.add_argument("--frames", required=True, help="initial frames directory")
    p.add_argument("--events", default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--imax", type=int, default=None)
    p.add_argument("--solver", choices=("tridiag", "gd"), default=None)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("f32", "pgm"), default="f32")
    _add_interval_flags(p)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("eval", help="MSE/PSNR/SSIM report between frame directories")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--threads", type=int, default=None, help="accepted and ignored")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("voxelize", help="signed event histogram to a raw-float file")
    p.add_argument("--events", default=None)
    p.add_argument("--bins", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--height", type=int, default=None)
    _add_interval_flags(p)
    p.set_defaults(func=cmd_voxelize)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError, DivergenceError) as exc:
        print(f"ecir {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
