"""Every text input, damaged one token at a time, through ``cli.main``.

The text inputs are the ``t x y p`` event file, a frame directory's
``timestamps.txt``, ``manifest.json``, the PGM header and the
``--timestamps`` flag. Each property takes a valid input, changes one of its
tokens into a huge integer (past int64, some past every float), ``1e999``,
``nan``, an empty field, a token with a non-ASCII byte or a UTF-8
byte-order mark in front, ends its line with CRLF, or adds or drops a
field, and runs a command on it. The command must succeed, or exit 2 with exactly one stderr line that
names the file, and the line for a line format.
"""

import contextlib
import io
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from ecir import EventStream, ExposureInterval
from ecir.cli import main
from ecir.io import Manifest, save_polys, write_events, write_f32, write_video_dir

from scenes import random_poly_grid

IV = ExposureInterval(0.0, 0.12)
# a numpy warning that leaks past a guard fails the test
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
# integers no int64 column holds; past 309 digits, no float holds them either
HUGE = st.builds(lambda digits, sign, low: sign * (10**digits + low),
                 st.sampled_from([19, 20, 40, 309, 310, 400]), st.sampled_from([1, -1]),
                 st.integers(0, 9))
BOM = "\ufeff"
MUTATIONS = ("huge", "1e999", "nan", "empty", "non-ascii", "bom", "crlf", "extra", "missing")
EVENTS = "0.01 1 1 1\n0.02 3 2 -1\n0.05 2 3 1\n0.09 7 0 -1\n"
FRAME = (11, 12)  # the smallest frame eval's SSIM window takes, and not square


def run_main(*args):
    """In-process CLI call: (exit code, stderr lines)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in args])
    return code, err.getvalue().splitlines()


@st.composite
def mutated(draw, lines):
    """``lines``, lists of str tokens, with one token damaged; (lines, CRLF line index)."""
    lines = [list(tokens) for tokens in lines]
    i = draw(st.integers(0, len(lines) - 1))
    j = draw(st.integers(0, len(lines[i]) - 1))
    kind, token, crlf = draw(st.sampled_from(MUTATIONS)), lines[i][j], None
    event(kind)
    if kind == "huge":
        lines[i][j] = str(draw(HUGE))
    elif kind in ("1e999", "nan"):
        lines[i][j] = kind
    elif kind == "empty":
        lines[i][j] = ""
    elif kind == "non-ascii":
        k = draw(st.integers(0, len(token)))
        lines[i][j] = token[:k] + chr(draw(st.integers(0x80, 0xFF))) + token[k:]
    elif kind == "bom":
        lines[i][j] = BOM + token
    elif kind == "crlf":
        crlf = i
    elif kind == "extra":
        lines[i].insert(j, token)
    else:
        del lines[i][j]
    return lines, crlf


def joined(lines, crlf, sep=" "):
    """The file's bytes: a BOM as UTF-8, any other character above 0x7f as its byte."""
    text = "".join(sep.join(tokens) + ("\r\n" if i == crlf else "\n")
                   for i, tokens in enumerate(lines))
    return text.replace(BOM, "\xef\xbb\xbf").encode("latin-1")


def assert_refused_or_read(code, lines, named):
    """Exit 0, or exit 2 with one stderr line matching the regex ``named``."""
    event(f"exit {code}")
    assert code in (0, 2), lines
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1, lines
        assert re.search(named, lines[0]), lines


def line_named(path):
    return re.escape(f"{path}:") + r"\d+: "


@FUZZ
@given(damage=mutated([line.split() for line in EVENTS.splitlines()]))
def test_event_text(tmp_path, damage):
    path = tmp_path / "events.txt"
    path.write_bytes(joined(*damage))
    code, lines = run_main("voxelize", "--events", path, "--t-start", IV.t_start,
                           "--t-end", IV.t_end, "--width", 8, "--height", 8,
                           "--out", tmp_path / "hist.h32")
    assert_refused_or_read(code, lines, "^ecir voxelize: error: " + line_named(path))


@FUZZ
@given(damage=mutated([["0.0"], ["0.06"], ["0.12"]]))
def test_timestamps_file(tmp_path, damage):
    for name in ("pred", "gt"):
        write_video_dir(tmp_path / name, IV.uniform_times(3), np.full((3, *FRAME), 0.5))
    path = tmp_path / "pred" / "timestamps.txt"
    path.write_bytes(joined(*damage))
    code, lines = run_main("eval", "--pred", tmp_path / "pred", "--gt", tmp_path / "gt",
                           "--report", tmp_path / "report.txt")
    # a dropped line leaves a count no line can be blamed for
    named = line_named(path) + "|" + re.escape(f"{path}: ") + r"3 frames but \d+ timestamps$"
    assert_refused_or_read(code, lines, "^ecir eval: error: (" + named + ")")


def manifest_tokens(tmp_path):
    """A voxelize manifest's JSON lines, each split into JSON tokens."""
    write_f32(tmp_path / "blurry.f32", np.full((4, 5), 0.5))
    write_events(tmp_path / "events.evt",
                 EventStream([1, 3, 2], [1, 2, 3], [0.01, 0.02, 0.05], [1, -1, 1], IV))
    Manifest(t_start=IV.t_start, t_end=IV.t_end, blurry="blurry.f32",
             events="events.evt").save(tmp_path / "manifest.json")
    text = (tmp_path / "manifest.json").read_text()
    return [re.findall(r'"[^"]*"|[{}\[\]:,]|[^\s{}\[\]:,"]+', line) for line in text.splitlines()]


@pytest.fixture(scope="module")
def manifest_lines(tmp_path_factory):
    return manifest_tokens(tmp_path_factory.mktemp("manifest"))


@FUZZ
@given(data=st.data())
def test_manifest(tmp_path, manifest_lines, data):
    manifest_tokens(tmp_path)
    path = tmp_path / "manifest.json"
    path.write_bytes(joined(*data.draw(mutated(manifest_lines))))
    code, lines = run_main("voxelize", "--manifest", path, "--out", tmp_path / "hist.h32")
    # JSON is not a line format, but an undecodable file names its line
    assert_refused_or_read(code, lines, "^ecir voxelize: error: " + re.escape(f"{path}:"))


@FUZZ
@given(damage=mutated([["P5"], [str(FRAME[1]), str(FRAME[0])], ["255"]]))
def test_pgm_header(tmp_path, damage):
    for name in ("pred", "gt"):
        write_video_dir(tmp_path / name, IV.uniform_times(2), np.full((2, *FRAME), 0.5), fmt="pgm")
    path = tmp_path / "pred" / "frame_00000.pgm"
    path.write_bytes(joined(*damage) + bytes([128] * (FRAME[0] * FRAME[1])))
    code, lines = run_main("eval", "--pred", tmp_path / "pred", "--gt", tmp_path / "gt",
                           "--report", tmp_path / "report.txt")
    assert_refused_or_read(code, lines, "^ecir eval: error: " + re.escape(f"{path}: "))


@pytest.fixture(scope="module")
def polys(tmp_path_factory):
    path = tmp_path_factory.mktemp("polys") / "polys.npz"
    save_polys(path, random_poly_grid(np.random.default_rng(17), 2, 3, 4, IV))
    return path


@FUZZ
@given(damage=mutated([["0.01", "0.05", "0.09"]]))
def test_timestamps_flag(tmp_path, polys, damage):
    lines, crlf = damage
    text = ",".join(lines[0]) + ("\r\n" if crlf == 0 else "")
    code, lines = run_main("render", "--polys", polys, f"--timestamps={text}",
                           "--out", tmp_path / "frames")
    assert_refused_or_read(code, lines, "^ecir render: error: .*timestamp")


# ---------------------------------------------------------------------------
# the defects these properties found, one test each
# ---------------------------------------------------------------------------

def test_event_token_past_int64_names_its_line(tmp_path):
    path = tmp_path / "events.txt"
    path.write_text("0.01 1 1 1\n0.04 99999999999999999999999 2 1\n")
    code, lines = run_main("voxelize", "--events", path, "--t-start", 0, "--t-end", 0.12,
                           "--width", 8, "--height", 8, "--out", tmp_path / "hist.h32")
    assert (code, lines) == (2, [f"ecir voxelize: error: {path}:2: "
                                 "integer 99999999999999999999999 outside the int64 range"])
    assert not (tmp_path / "hist.h32").exists()


def test_non_ascii_byte_in_manifest_names_its_line(tmp_path):
    manifest_tokens(tmp_path)
    path = tmp_path / "manifest.json"
    text = path.read_bytes()
    path.write_bytes(text.replace(b'"blurry.f32"', b'"blurry\xff.f32"'))
    line = text[: text.index(b"blurry.f32")].count(b"\n") + 1
    code, lines = run_main("voxelize", "--manifest", path, "--out", tmp_path / "hist.h32")
    assert (code, lines) == (2, [f"ecir voxelize: error: {path}:{line}: non-ASCII byte 0xff"])


@pytest.mark.parametrize("number, message", [
    # past the digit limit Python puts on int(), which json uses
    ("1" + "0" * 5000, "Exceeds the limit"),
    ("1" + "0" * 400, "int too large to convert to float"),
], ids=["digit-limit", "past-float"])
def test_manifest_number_no_float_holds_names_the_file(tmp_path, number, message):
    manifest_tokens(tmp_path)
    path = tmp_path / "manifest.json"
    path.write_text(path.read_text().replace("0.12", number))
    code, lines = run_main("voxelize", "--manifest", path, "--out", tmp_path / "hist.h32")
    assert code == 2 and len(lines) == 1
    assert lines[0].startswith(f"ecir voxelize: error: {path}: invalid manifest field: {message}")


def test_byte_order_mark_in_timestamps_names_line_one(tmp_path):
    for name in ("pred", "gt"):
        write_video_dir(tmp_path / name, IV.uniform_times(3), np.full((3, *FRAME), 0.5))
    path = tmp_path / "pred" / "timestamps.txt"
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    code, lines = run_main("eval", "--pred", tmp_path / "pred", "--gt", tmp_path / "gt",
                           "--report", tmp_path / "report.txt")
    assert (code, lines) == (2, [f"ecir eval: error: {path}:1: non-ASCII byte 0xef"])
    assert not (tmp_path / "report.txt").exists()
