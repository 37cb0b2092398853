"""Workload definitions: seeded synthetic scenes, their files, and regime guards.

Every workload is a sharp 48-frame video of a degree-10 per-pixel monomial
scene over a 120 ms exposure (the scene family of the test suite), written in
the documented ``.f32`` video-directory format. The program under test only
ever sees these files. Nothing here imports ``ecir``, so the inputs do not
change when the program does.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

F32_MAGIC = b"ECIRF32\x00"
H32_MAGIC = b"ECIRH32\x00"

EXPOSURE_S = (0.0, 0.12)
SHARP_FRAMES = 48
DEGREE = 10
TAPER = 0.6
KEYPOINTS = 10
BINS = 40


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: tuple[int, int]
    lo: float
    hi: float
    c: float
    frames: int  # render, GT and edi frame count
    refine_args: tuple[str, ...]
    quiet_scale: float | None = None  # amplitude outside the active patch
    patch: tuple[int, int] | None = None  # (height, width) of the active patch

    def check_regime(self, stats: dict) -> list[str]:
        """Reasons this scene left the workload's regime (empty when it holds)."""
        problems = []
        if stats["events"] == 0:
            problems.append("no events")
        if self.name == "frame_heavy" and stats["pixels_with_events_ratio"] > 0.05:
            problems.append("frame_heavy has events on more than 5% of pixels")
        if self.name == "event_storm" and stats["mean_events_per_pixel"] < 100.0:
            problems.append("event_storm averages fewer than 100 events per pixel")
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dense_pipeline",
            why="The reference 180x240 scene with ~600k events on every pixel: "
            "the per-pixel keypoint loop and text event I/O dominate.",
            shape=(180, 240),
            lo=0.08,
            hi=0.92,
            c=0.2,
            frames=14,
            refine_args=("--solver", "tridiag"),
        ),
        Workload(
            name="frame_heavy",
            why="Events on one 30x40 patch only, 64 output frames, gradient-descent "
            "refine: frame kernels, frame I/O and the thread pool dominate.",
            shape=(180, 240),
            lo=0.3,
            hi=0.7,
            c=0.2,
            frames=64,
            refine_args=("--solver", "gd", "--imax", "50"),
            quiet_scale=0.15,
            patch=(30, 40),
        ),
        Workload(
            name="event_storm",
            why="A 48x64 sensor at c=0.02 with ~235 events per pixel: per-event paths "
            "carry the load while per-pixel loops are cheap.",
            shape=(48, 64),
            lo=0.02,
            hi=0.98,
            c=0.02,
            frames=14,
            refine_args=("--solver", "tridiag"),
        ),
    )
}


def horner(coeffs: np.ndarray, x: float) -> np.ndarray:
    out = coeffs[..., -1].copy()
    for j in range(coeffs.shape[-1] - 2, -1, -1):
        out = out * x + coeffs[..., j]
    return out


def monomial_scene(rng: np.random.Generator, h: int, w: int, lo: float, hi: float) -> np.ndarray:
    """Per-pixel monomial coefficients over tau in [-1, 1], each curve spanning [lo, hi]."""
    coeffs = rng.uniform(-1.0, 1.0, (h, w, DEGREE + 1)) * TAPER ** np.arange(DEGREE + 1)
    samples = np.stack([horner(coeffs, t) for t in np.linspace(-1.0, 1.0, 96)])
    vmin = samples.min(axis=0)
    vmax = samples.max(axis=0)
    scale = (hi - lo) / np.maximum(vmax - vmin, 1e-9)
    coeffs *= scale[..., None]
    coeffs[..., 0] += lo - vmin * scale
    return coeffs


def scene_coeffs(workload: Workload, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    h, w = workload.shape
    coeffs = monomial_scene(rng, h, w, workload.lo, workload.hi)
    if workload.quiet_scale is not None:
        # shrink every curve toward mid-range except inside one seeded patch
        ph, pw = workload.patch
        y0 = int(rng.integers(0, h - ph + 1))
        x0 = int(rng.integers(0, w - pw + 1))
        mid = 0.5 * (workload.lo + workload.hi)
        quiet = np.ones((h, w), dtype=bool)
        quiet[y0 : y0 + ph, x0 : x0 + pw] = False
        coeffs[quiet] *= workload.quiet_scale
        coeffs[quiet, 0] += mid * (1.0 - workload.quiet_scale)
    return coeffs


def render(coeffs: np.ndarray, times: np.ndarray) -> np.ndarray:
    t0, t1 = EXPOSURE_S
    return np.stack([horner(coeffs, 2.0 * (t - t0) / (t1 - t0) - 1.0) for t in times])


def write_f32(path: Path, frame: np.ndarray) -> None:
    h, w = frame.shape
    path.write_bytes(F32_MAGIC + struct.pack("<II", w, h) + frame.astype("<f4").tobytes())


def read_f32(path: Path) -> np.ndarray:
    data = path.read_bytes()
    if data[:8] != F32_MAGIC:
        raise ValueError(f"{path}: bad ECIRF32 magic")
    w, h = struct.unpack("<II", data[8:16])
    return np.frombuffer(data, dtype="<f4", offset=16).reshape(h, w).astype(np.float64)


def read_frames(directory: Path) -> np.ndarray:
    return np.stack([read_f32(p) for p in sorted(directory.glob("frame_*.f32"))])


def read_histogram(path: Path) -> np.ndarray:
    data = path.read_bytes()
    if data[:8] != H32_MAGIC:
        raise ValueError(f"{path}: bad ECIRH32 magic")
    m, h, w = struct.unpack("<III", data[8:20])
    return np.frombuffer(data, dtype="<f4", offset=20).reshape(m, h, w).astype(np.float64)


def write_video(directory: Path, times: np.ndarray, frames: np.ndarray) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for i, frame in enumerate(frames):
        write_f32(directory / f"frame_{i:05d}.f32", frame)
    (directory / "timestamps.txt").write_text("".join(f"{float(t)!r}\n" for t in times))


def uniform_times(count: int) -> np.ndarray:
    return np.linspace(EXPOSURE_S[0], EXPOSURE_S[1], count)


def generate(workload: Workload, seed: int, root: Path) -> None:
    """Write the sharp input video and the ground-truth frames under ``root``."""
    coeffs = scene_coeffs(workload, seed)
    sharp_times = uniform_times(SHARP_FRAMES)
    write_video(root / "video", sharp_times, render(coeffs, sharp_times))
    gt_times = uniform_times(workload.frames)
    write_video(root / "gt", gt_times, render(coeffs, gt_times))


def read_events(path: Path) -> dict[str, np.ndarray]:
    """The ``t x y p`` text file as columns (a reader independent of the program)."""
    table = np.fromfile(path, dtype=np.float64, sep=" ").reshape(-1, 4)
    return {
        "t": table[:, 0],
        "x": table[:, 1].astype(np.int64),
        "y": table[:, 2].astype(np.int64),
        "p": table[:, 3].astype(np.int64),
    }


def regime_stats(workload: Workload, events: dict[str, np.ndarray], events_path: Path) -> dict:
    h, w = workload.shape
    per_pixel = np.bincount(events["y"] * w + events["x"], minlength=h * w)
    touched = int(np.count_nonzero(per_pixel))
    return {
        "shape": [h, w],
        "events": int(events["t"].shape[0]),
        "pixels_with_events": touched,
        "pixels_with_events_ratio": touched / (h * w),
        "mean_events_per_pixel": float(per_pixel.mean()),
        "mean_events_per_active_pixel": float(per_pixel.sum() / max(touched, 1)),
        "max_events_per_pixel": int(per_pixel.max()),
        "events_txt_bytes": events_path.stat().st_size,
    }
