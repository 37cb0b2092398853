"""``eval`` scored in forked parts: the serial bytes and errors, nothing left behind.

The part floor is in pixels (``EVAL_PART_PIXELS``), far more than these small
frames hold in a few pairs, so the ``floor`` fixture lowers it to ``PART``
pairs of them, as the ``cpus`` fixture sets the CPUs eval sees.
"""

import contextlib
import csv
import io
import os
import signal
import warnings

import numpy as np
import pytest

import ecir.cli
from ecir.cli import EVAL_PART_PIXELS, main
from ecir.io import list_frames, read_frame, write_f32, write_video_dir
from ecir.metrics import mse, psnr, ssim
from raw_files import write_raw_f32

pytestmark = [
    pytest.mark.skipif(not hasattr(os, "fork"), reason="eval forks only where os.fork exists"),
    # a numpy warning that leaks past a guard fails the test
    pytest.mark.filterwarnings("error::RuntimeWarning"),
]

H, W = 16, 20
PART = 4  # pairs of H x W frames in a part, under the ``floor`` fixture


def oracle_eval(pred_dir, gt_dir):
    """The serial eval: every frame read, then one row per pair; (report, CSV) bytes."""
    pred = [read_frame(p) for p in list_frames(pred_dir)]
    gt = [read_frame(p) for p in list_frames(gt_dir)]
    rows = [(mse(p, g), psnr(p, g), ssim(p, g)) for p, g in zip(pred, gt)]
    lines = [f"frames={len(rows)}"]
    for i, (m, p, s) in enumerate(rows):
        lines += [f"frame_{i:04d}_mse={m:.9f}", f"frame_{i:04d}_psnr={p:.9f}",
                  f"frame_{i:04d}_ssim={s:.9f}"]
    agg = np.mean(np.array(rows, dtype=np.float64), axis=0)
    lines += [f"mse_mean={agg[0]:.9f}", f"psnr_mean={agg[1]:.9f}", f"ssim_mean={agg[2]:.9f}"]
    table = io.StringIO(newline="")
    writer = csv.writer(table)
    writer.writerow(["frame", "mse", "psnr", "ssim"])
    for i, (m, p, s) in enumerate(rows):
        writer.writerow([i, f"{m:.9f}", f"{p:.9f}", f"{s:.9f}"])
    writer.writerow(["mean", f"{agg[0]:.9f}", f"{agg[1]:.9f}", f"{agg[2]:.9f}"])
    return ("\n".join(lines) + "\n").encode("ascii"), table.getvalue().encode("ascii")


def write_pair(root, n, seed=0):
    """Predicted and reference directories of ``n`` frames; a constant pair gives the PSNR cap."""
    rng = np.random.default_rng(seed + n)
    gt = rng.uniform(0.0, 1.0, (n, H, W))
    pred = gt + rng.normal(0.0, 0.05, (n, H, W))
    pred[0] = gt[0]
    times = np.linspace(0.0, 0.12, n)
    write_video_dir(root / "pred", times, pred)
    write_video_dir(root / "gt", times, gt)
    return root / "pred", root / "gt"


def run_eval(pred, gt, report):
    """In-process eval: (exit code, stderr lines)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["eval", "--pred", str(pred), "--gt", str(gt), "--report", str(report)])
    return code, [line for line in err.getvalue().splitlines() if line.strip()]


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPUs eval sees in the affinity mask; counts the forks it makes."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)

    def set_cpus(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
        return forks

    return set_cpus


@pytest.fixture
def floor(monkeypatch):
    """Set eval's part floor, in pixels; PART pairs of H x W frames unless given."""

    def set_floor(pixels=PART * H * W):
        monkeypatch.setattr(ecir.cli, "EVAL_PART_PIXELS", pixels)

    set_floor()
    return set_floor


@pytest.fixture
def exits(monkeypatch):
    """Exit codes of the children eval reaps, in order."""
    codes = []
    real_waitpid = os.waitpid

    def recording_waitpid(pid, options):
        result = real_waitpid(pid, options)
        codes.append(os.waitstatus_to_exitcode(result[1]))
        return result

    monkeypatch.setattr(os, "waitpid", recording_waitpid)
    return codes


def _timeout(signum, frame):
    raise TimeoutError("the forked eval hung")


@pytest.fixture(autouse=True)
def leaves_nothing(capfd):
    pid = os.getpid()
    # a hang (a child never reaped, a pipe never closed) fails instead of blocking
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(120)
    try:
        # "always" records the fork-with-threads DeprecationWarning of
        # Python 3.12+, which -W error cannot raise once the fork is done
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert [str(w.message) for w in caught if issubclass(w.category, DeprecationWarning)] == []
    assert os.getpid() == pid
    assert capfd.readouterr().out == ""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("n", [
    1, PART - 1, PART, PART + 1, 2 * PART - 1, 2 * PART, 3 * PART,
])
def test_report_equals_serial_oracle(tmp_path, cpus, floor, exits, n, count):
    pred, gt = write_pair(tmp_path, n)
    forks = cpus(count)
    assert run_eval(pred, gt, tmp_path / "report.txt") == (0, [])
    report, table = oracle_eval(pred, gt)
    assert (tmp_path / "report.txt").read_bytes() == report
    assert (tmp_path / "report.csv").read_bytes() == table
    # one part per CPU, none shorter than PART pairs; the first is the caller's
    assert len(forks) == max(1, min(count, n // PART)) - 1
    # every child sent its rows: none was scored again in the caller
    assert exits == [0] * len(forks)


def test_without_fork_one_part(tmp_path, cpus, floor, monkeypatch):
    pred, gt = write_pair(tmp_path, 3 * PART)
    cpus(3)
    monkeypatch.delattr(os, "fork")
    assert run_eval(pred, gt, tmp_path / "report.txt") == (0, [])
    assert (tmp_path / "report.txt").read_bytes() == oracle_eval(pred, gt)[0]


def test_failed_child_part_is_scored_in_the_caller(tmp_path, cpus, floor, monkeypatch):
    pred, gt = write_pair(tmp_path, 3 * PART)
    forks = cpus(3)
    parent, real_scores = os.getpid(), ecir.cli._scores

    def scores(*args):
        if os.getpid() != parent:
            raise RuntimeError("scoring failed")
        return real_scores(*args)

    monkeypatch.setattr(ecir.cli, "_scores", scores)
    assert run_eval(pred, gt, tmp_path / "report.txt") == (0, [])
    assert (tmp_path / "report.txt").read_bytes() == oracle_eval(pred, gt)[0]
    assert len(forks) == 2


def damage(pred, gt, index, kind):
    """Spoil frame ``index``: a cut .f32, a NaN in its payload, or a reference of another shape."""
    name = f"frame_{index:05d}.f32"
    if kind == "corrupt":
        raw = (pred / name).read_bytes()
        (pred / name).write_bytes(raw[:-3])
    elif kind == "nan":
        frame = read_frame(pred / name)
        frame[2, 3] = np.nan
        write_raw_f32(pred / name, frame)
    else:
        write_f32(gt / name, np.full((H + 1, W), 0.5))


@pytest.mark.parametrize("kind, word", [
    ("corrupt", "expected"), ("nan", "NaN"), ("shape", "shape mismatch"),
])
@pytest.mark.parametrize("part", ["caller", "child"])
def test_bad_pair_is_the_serial_one_line_error(tmp_path, cpus, floor, kind, word, part):
    n = 3 * PART
    # the caller scores pairs [0, PART); the last pair is in the last child's part
    index = 1 if part == "caller" else n - 2
    pred, gt = write_pair(tmp_path, n)
    damage(pred, gt, index, kind)
    cpus(1)
    serial = run_eval(pred, gt, tmp_path / "serial.txt")
    forks = cpus(3)
    code, lines = run_eval(pred, gt, tmp_path / "report.txt")
    assert code == 2
    assert len(lines) == 1
    assert (code, lines) == serial
    assert word in lines[0]
    assert f"frame_{index:05d}" in lines[0]
    if kind == "shape":
        # both files of the pair, each with its shape
        name = f"frame_{index:05d}.f32"
        assert lines[0] == (f"ecir eval: error: {pred / name}: shape mismatch: ({H}, {W}) "
                            f"vs {gt / name}'s ({H + 1}, {W})")
    assert len(forks) == 2
    assert not (tmp_path / "report.txt").exists()


@pytest.mark.parametrize("pixels, n, count, forks", [
    # a floor of 2.5 frames is 3 pairs a part
    (5 * H * W // 2, 9, 3, 2), (5 * H * W // 2, 8, 3, 1), (5 * H * W // 2, 2, 3, 0),
    # the floor eval ships with: 540 pairs of these frames a part
    (EVAL_PART_PIXELS, 3 * PART, 3, 0),
])
def test_parts_are_sized_by_the_first_frame_pixels(tmp_path, cpus, floor, exits, pixels, n,
                                                    count, forks):
    pred, gt = write_pair(tmp_path, n)
    floor(pixels)
    made = cpus(count)
    assert run_eval(pred, gt, tmp_path / "report.txt") == (0, [])
    assert (tmp_path / "report.txt").read_bytes() == oracle_eval(pred, gt)[0]
    assert len(made) == forks
    assert exits == [0] * forks


@pytest.mark.parametrize("fmt", ["f32", "pgm"])
def test_first_frame_header_sets_the_floor(tmp_path, cpus, floor, fmt):
    rng = np.random.default_rng(3)
    times = np.linspace(0.0, 0.12, 3 * PART)
    frames = rng.uniform(0.0, 1.0, (3 * PART, H, W))
    write_video_dir(tmp_path / "pred", times, frames, fmt=fmt)
    write_video_dir(tmp_path / "gt", times, frames, fmt=fmt)
    forks = cpus(3)
    assert run_eval(tmp_path / "pred", tmp_path / "gt", tmp_path / "report.txt") == (0, [])
    assert len(forks) == 2
    assert (tmp_path / "report.txt").read_bytes() == oracle_eval(tmp_path / "pred", tmp_path / "gt")[0]


def test_bad_first_frame_magic_is_the_serial_error(tmp_path, cpus, floor):
    pred, gt = write_pair(tmp_path, 3 * PART)
    (pred / "frame_00000.f32").write_bytes(b"NOTAFRAME" * 4)
    cpus(1)
    serial = run_eval(pred, gt, tmp_path / "serial.txt")
    cpus(3)
    code, lines = run_eval(pred, gt, tmp_path / "report.txt")
    assert code == 2 and len(lines) == 1
    assert (code, lines) == serial
    assert "bad ECIRF32 magic" in lines[0]
