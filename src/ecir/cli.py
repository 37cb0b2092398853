"""Command-line pipeline: simulate, fit, render, edi, refine, eval, voxelize.

Settings resolve as flag > manifest override > built-in default. The parser
is the one place that declares a setting's type, choices and default.
:func:`main` loads the manifest once, before dispatch, and converts each
override (a key in :data:`OVERRIDABLE`) with its own flag's action, so an
override is accepted exactly when the same value given as that flag would
be; commands read the resolved ``args`` and the loaded ``args.manifest``.
Every subcommand validates its inputs and exits nonzero with a one-line
diagnostic on bad input. A command that needs events reads them once, from
the path it resolved (``--events``, else the manifest's), checked against
its own exposure interval. ``--format`` offers the frame formats of
:data:`ecir.io.FRAME_FORMATS`. A command that writes several files removes
the one that ties them together first and writes it last: ``simulate``'s
``manifest.json`` and ``eval``'s report, as :func:`ecir.io.write_video_dir`
does with ``timestamps.txt``. So a run that fails part way leaves no
manifest, which every ``--manifest`` command then refuses, or no report:
never a mix of old and new files. ``render`` and ``edi`` hand their frames
to the writer as they are made, so neither holds a frame stack; the writer
takes the first frame before it makes the directory, so inputs that give no
first frame leave none. ``eval`` formats each score once and
writes both its report and the CSV copy from those texts. ``eval`` scores
its frame pairs, and ``simulate`` formats its text events, in contiguous
parts on every CPU of the affinity mask: forked children take every part
but the first (:mod:`ecir._parts`), and the outputs do not depend on the
number of parts.
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
from .fitting import _edi_frames, fit_polys
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
from .types import BlurryFrame, ExposureInterval, _increasing, _raising

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
# the scores eval reports for each frame pair, in their order in both files
EVAL_SCORES = ("mse", "psnr", "ssim")
# one frame's (mse, psnr, ssim) as a forked part sends it: exact float64s
_EVAL_RECORD = struct.Struct("<3d")

# the manifest override keys: each is its flag's name with underscores
# (``lambda`` is ``--lambda``), and a command honors those of its own flags
OVERRIDABLE = frozenset({
    "exposure_ms", "c_plus", "c_minus", "sigma", "seed", "n", "count", "c", "lambda", "imax",
    "solver", "bins", "width", "height",
})


def _apply_overrides(overridable: dict, overrides: dict) -> None:
    """Make each override its flag's default, converted and checked as the flag's value.

    ``overridable`` maps a command's override keys to its flags' actions;
    any other key is ignored.
    """
    for key, value in overrides.items():
        action = overridable.get(key)
        if action is None:
            continue
        try:
            converted = (action.type or str)(str(value))
            if action.choices is not None and converted not in action.choices:
                raise ValueError
        except ValueError:
            raise ValueError(f"manifest override {key!r} is not a valid value: {value!r}") from None
        action.default = converted


def _interval_of(args) -> ExposureInterval:
    if (args.t_start is None) != (args.t_end is None):
        raise ValueError("--t-start and --t-end must be given together")
    if args.t_start is not None:
        return ExposureInterval(args.t_start, args.t_end)
    if args.manifest is not None:
        return args.manifest.interval
    raise ValueError("need --t-start/--t-end or --manifest to fix the exposure interval")


def _path_of(args, name: str) -> Path:
    """``--<name>``, else the manifest's ``name``."""
    if getattr(args, name) is not None:
        return Path(getattr(args, name))
    resolved = args.manifest.resolve(name) if args.manifest is not None else None
    if resolved is None:
        raise ValueError(f"missing --{name.replace('_', '-')} (no manifest fallback found)")
    return resolved


def _events_of(args, interval: ExposureInterval):
    return io.read_events(_path_of(args, "events"), interval)


def _blurry_of(args, interval: ExposureInterval) -> BlurryFrame:
    return BlurryFrame(io.read_frame(_path_of(args, "blurry")), interval)


def _times_of(args, interval: ExposureInterval) -> np.ndarray:
    """``--timestamps``, else ``--count`` times spanning ``interval``."""
    if args.timestamps is not None:
        return _parse_timestamps(args.timestamps)
    return interval.uniform_times(args.count)


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
        # the order check below refuses a NaN too, but cannot name it
        raise ValueError(f"timestamps must be finite, got {parts[bad[0]]!r}")
    _increasing(times, "timestamps")
    return times


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg = ThresholdConfig(args.c_plus, args.c_minus, sigma=args.sigma, seed=args.seed)
    video = io.read_video_dir(args.video)
    window = ExposureInterval(
        float(video.times[0]), float(video.times[0]) + args.exposure_ms / 1000.0
    )
    video = video.window(window)

    events = simulate_events(video, cfg)
    blurry = synthesize_blur(video)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # the manifest is the commit point: gone before the first artifact and
    # written after the last, so a run that fails part way leaves a
    # directory every --manifest command refuses
    (out / "manifest.json").unlink(missing_ok=True)
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
    bounded = args.manifest is not None or args.t_start is not None or args.t_end is not None
    window = _interval_of(args) if bounded else None
    video = io.read_video_dir(_path_of(args, "gt_video"))
    if window is not None:
        video = video.window(window)
    interval = video.interval
    blurry = _blurry_of(args, interval)
    events = _events_of(args, interval)

    keypoints = keypoint_grid(events, interval, args.n, video.shape)
    del events  # the fit reads only the keypoints
    grid = fit_polys(video, keypoints, blurry)
    io.save_polys(args.out, grid)
    flag = " (rank-deficient, ridge engaged)" if grid.fit_warning else ""
    print(f"fit: n={args.n} over {video.frame_count} frames -> {args.out}{flag}")
    return 0


def _rendered(grid, times: np.ndarray):
    """The frames at ``times``, one at a time, each block of frames one Horner pass.

    A (G, 1, 1) block of times broadcasts against the grid's planes, and every
    element gets the multiply-adds a one-frame call gives it, so the frames
    are bitwise the per-frame ones. Each block is computed under
    :func:`~ecir.types._raising`, left before its frames are yielded: a grid
    of finite values whose polynomial overflows is a ValueError, not a
    frame of NaN or inf.
    """
    h, w = grid.shape
    block = max(1, RENDER_BLOCK_BYTES // max(8 * h * w, 1))
    for lo in range(0, times.shape[0], block):
        with _raising("rendered frames are not finite: the fitted polynomials overflow"):
            frames = grid.intensity_at(times[lo : lo + block, None, None])
        yield from frames
        del frames  # not held while the next block is computed


def cmd_render(args) -> int:
    grid = io.load_polys(args.polys)
    times = _times_of(args, grid.interval)
    grid.interval.require(times, "render timestamps")
    io.write_video_dir(args.out, times, _rendered(grid, times), fmt=args.format)
    print(f"render: {times.shape[0]} frames -> {args.out}")
    return 0


def cmd_edi(args) -> int:
    interval = _interval_of(args)
    blurry = _blurry_of(args, interval)
    events = _events_of(args, interval)
    times = _times_of(args, interval)
    # the times rise, so the frames go to the writer as they are made; the
    # writer takes the first before it makes the directory
    io.write_video_dir(args.out, times, _edi_frames(blurry, events, args.c, times),
                       fmt=args.format)
    print(f"edi: {times.shape[0]} frames at c={args.c} -> {args.out}")
    return 0


def cmd_refine(args) -> int:
    interval = _interval_of(args)
    video = io.read_video_dir(args.frames)
    events = _events_of(args, interval)
    refined = refine(video.frames, events, args.c, video.times, lam=args.lam, i_max=args.imax,
                     solver=args.solver)
    io.write_video_dir(args.out, video.times, refined, fmt=args.format)
    print(f"refine: solver={args.solver} lambda={args.lam} imax={args.imax} -> {args.out}")
    return 0


def _scores(pred_paths: list[Path], gt_paths: list[Path], lo: int, hi: int) -> list[tuple]:
    """(mse, psnr, ssim) of frame pairs ``lo`` to ``hi``, each pair read as it is scored."""
    rows = []
    for pred_path, gt_path in zip(pred_paths[lo:hi], gt_paths[lo:hi]):
        pred, gt = io.read_frame(pred_path), io.read_frame(gt_path)
        if pred.shape != gt.shape:
            raise ValueError(f"{pred_path}: shape mismatch: {pred.shape} vs {gt_path}'s {gt.shape}")
        err = mse(pred, gt)
        rows.append((err, _psnr_of_mse(err), ssim(pred, gt)))
    return rows


def cmd_eval(args) -> int:
    report = Path(args.report)
    csv_path = report.with_suffix(".csv") if report.suffix else Path(str(report) + ".csv")
    if csv_path == report:
        raise ValueError(f"--report {report} is the path of its CSV copy; give it another suffix")
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

    agg = np.mean(np.array(rows, dtype=np.float64), axis=0)
    # each score is formatted once, for both files
    texts = [[f"{v:.9f}" for v in row] for row in rows]
    means = [f"{v:.9f}" for v in agg]

    # the report is the commit point: gone before the CSV is written and
    # written after it, so a failed write leaves no report
    report.parent.mkdir(parents=True, exist_ok=True)
    report.unlink(missing_ok=True)
    with io._overwrite(csv_path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", *EVAL_SCORES])
        writer.writerows([i, *row] for i, row in enumerate(texts))
        writer.writerow(["mean", *means])

    lines = [f"frames={len(rows)}"]
    for i, row in enumerate(texts):
        lines += (f"frame_{i:04d}_{name}={v}" for name, v in zip(EVAL_SCORES, row))
    lines += (f"{name}_mean={v}" for name, v in zip(EVAL_SCORES, means))
    with io._overwrite(report, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"eval: mse={agg[0]:.6f} psnr={agg[1]:.3f} ssim={agg[2]:.4f} -> {report}")
    return 0


def cmd_voxelize(args) -> int:
    interval = _interval_of(args)
    events = _events_of(args, interval)
    width, height = args.width, args.height
    if width is None or height is None:
        blurry_path = args.manifest.resolve("blurry") if args.manifest else None
        if blurry_path is not None:
            h, w = io.read_frame(blurry_path).shape
        elif len(events):
            w = int(events.x.max()) + 1
            h = int(events.y.max()) + 1
        else:
            raise ValueError("empty stream: need --width/--height or a manifest with a blurry frame")
        width = width if width is not None else w
        height = height if height is not None else h

    hist = voxelize(events, args.bins, (height, width))
    io.write_histogram(args.out, hist)
    signed_total = float(hist.bins.sum())
    print(f"voxelize: m={args.bins} grid {height}x{width} signed-sum {signed_total:+g}"
          f" -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# flags several subcommands take, each declared here once
_SHARED_FLAGS = {
    "--t-start": {"type": float, "default": None, "help": "exposure start (s)"},
    "--t-end": {"type": float, "default": None, "help": "exposure end (s)"},
    "--manifest": {"default": None, "help": "manifest.json supplying defaults"},
    "--events": {"default": None},
    "--blurry": {"default": None},
    "--c": {"type": float, "default": DEFAULT_CONTRAST},
    "--count": {"type": int, "default": 14, "help": "uniform timestamp count"},
    "--timestamps": {"default": None, "help": "comma-separated seconds"},
    "--format": {"choices": [suffix[1:] for suffix in io.FRAME_FORMATS], "default": "f32"},
    "--threads": {"type": int, "default": None, "help": "accepted and ignored"},
}
_INTERVAL_FLAGS = ("--t-start", "--t-end", "--manifest")


def _command(sub, name: str, func, help: str, *shared: str) -> argparse.ArgumentParser:
    """The subcommand ``name``, running ``func``, with the ``shared`` flags.

    Its namespace's ``overridable`` maps the override keys of its flags to
    their actions (see :func:`_flag`).
    """
    p = sub.add_parser(name, help=help)
    p.set_defaults(func=func, overridable={})
    for flag in shared:
        _flag(p, flag, **_SHARED_FLAGS[flag])
    return p


def _flag(p: argparse.ArgumentParser, flag: str, **kwargs) -> None:
    """Add ``flag``; an overridable one's action goes into ``p``'s ``overridable``."""
    action = p.add_argument(flag, **kwargs)
    key = flag[2:].replace("-", "_")
    if key in OVERRIDABLE:
        p.get_default("overridable")[key] = action


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecir",
        description="Continuous intensity recovery from a blurry frame and events",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "simulate", cmd_simulate, "events + blurry frame from a sharp video",
                 "--threads", "--manifest")
    _flag(p, "--video", required=True, help="frame directory with timestamps.txt")
    _flag(p, "--out", required=True, help="output directory")
    _flag(p, "--c-plus", type=float, default=DEFAULT_CONTRAST)
    _flag(p, "--c-minus", type=float, default=-DEFAULT_CONTRAST)
    _flag(p, "--sigma", type=float, default=0.0)
    _flag(p, "--seed", type=int, default=0)
    _flag(p, "--exposure-ms", type=float, default=120.0)

    p = _command(sub, "fit", cmd_fit, "fit per-pixel intensity polynomials",
                 "--blurry", "--events", "--threads", *_INTERVAL_FLAGS)
    _flag(p, "--gt-video", default=None)
    _flag(p, "--n", type=int, default=10, help="keypoints per pixel")
    _flag(p, "--out", required=True, help="output .npz")

    p = _command(sub, "render", cmd_render, "latent frames from fitted polynomials",
                 "--timestamps", "--count", "--format", "--threads", "--manifest")
    _flag(p, "--polys", required=True)
    _flag(p, "--out", required=True)

    p = _command(sub, "edi", cmd_edi, "double-integral analytic baseline",
                 "--blurry", "--events", "--c", "--count", "--timestamps", "--format",
                 *_INTERVAL_FLAGS)
    _flag(p, "--out", required=True)

    p = _command(sub, "refine", cmd_refine, "residual-flow refinement of a frame stack",
                 "--events", "--c", "--format", *_INTERVAL_FLAGS)
    _flag(p, "--frames", required=True, help="initial frames directory")
    _flag(p, "--lambda", dest="lam", type=float, default=DEFAULT_LAMBDA)
    _flag(p, "--imax", type=int, default=DEFAULT_ITERATIONS)
    _flag(p, "--solver", choices=("tridiag", "gd"), default="tridiag")
    _flag(p, "--out", required=True)

    p = _command(sub, "eval", cmd_eval, "MSE/PSNR/SSIM report between frame directories",
                 "--threads")
    _flag(p, "--pred", required=True)
    _flag(p, "--gt", required=True)
    _flag(p, "--report", required=True)

    p = _command(sub, "voxelize", cmd_voxelize, "signed event histogram to a raw-float file",
                 "--events", *_INTERVAL_FLAGS)
    _flag(p, "--bins", type=int, default=DEFAULT_BINS)
    _flag(p, "--out", required=True)
    _flag(p, "--width", type=int, default=None)
    _flag(p, "--height", type=int, default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # the manifest is loaded once, here; its overrides become the
        # defaults of a second parse, which the flags given still beat
        manifest = io.load_manifest(args.manifest) if getattr(args, "manifest", None) else None
        if manifest is not None and manifest.overrides:
            _apply_overrides(args.overridable, manifest.overrides)
            args = parser.parse_args(argv)
        args.manifest = manifest
        return args.func(args)
    except (ValueError, OSError, MemoryError, DivergenceError) as exc:
        print(f"ecir {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
