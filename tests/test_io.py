"""File formats: events, PGM, raw float frames, histograms, videos, manifests."""

import json
import math
import os
import signal
import stat
import struct
import sys
import time
import warnings
import weakref
import zipfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import ecir.cli
import ecir.io
from ecir import EventStream, ExposureInterval, PolyGrid, SharpVideo
from ecir.io import (
    _read_events_lines,
    EVENT_TEXT_CHUNK,
    EVENT_TEXT_PART,
    EVT_MAGIC,
    FormatError,
    Manifest,
    ParseError,
    list_frames,
    load_manifest,
    load_polys,
    read_events,
    read_f32,
    read_frame,
    read_histogram,
    read_pgm,
    read_video_dir,
    save_polys,
    write_events,
    write_f32,
    write_frame,
    write_histogram,
    write_pgm,
    write_video_dir,
)
from ecir.simulation import EventHistogram, voxelize
from raw_files import write_raw_f32, write_raw_h32

IV = ExposureInterval(-0.06, 0.06)
# a numpy warning that leaks past a guard fails the test
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def random_stream(rng, k, interval=IV, w=32, h=24):
    t = np.sort(rng.uniform(interval.t_start, interval.t_end, k))
    return EventStream(
        rng.integers(0, w, k), rng.integers(0, h, k), t, rng.choice([-1, 1], k), interval
    )


class TestEventFiles:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("")
        assert len(read_events(path, IV)) == 0

    def test_documented_line_format(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("0.060000 12 7 1\n")
        stream = read_events(path, ExposureInterval(0.0, 0.1))
        event = next(iter(stream))
        assert (event.x, event.y, event.t, event.p) == (12, 7, 0.06, 1)

    def test_thousand_random_events_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(353)
        stream = random_stream(rng, 1000)
        path = tmp_path / "events.txt"
        write_events(path, stream)
        back = read_events(path, IV)
        assert np.array_equal(back.t, stream.t)
        assert np.array_equal(back.x, stream.x)
        assert np.array_equal(back.y, stream.y)
        assert np.array_equal(back.p, stream.p)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("0.0 1 1 1\n0.01 2 oops 1\n")
        with pytest.raises(ParseError) as err:
            read_events(path, IV)
        assert err.value.lineno == 2

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("0.0 1 1\n")
        with pytest.raises(ParseError):
            read_events(path, IV)

    def test_unsorted_rejected(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("0.02 1 1 1\n0.01 1 1 -1\n")
        with pytest.raises(ParseError) as err:
            read_events(path, IV)
        assert "sorted" in str(err.value)

    def test_bad_polarity_rejected(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("0.0 1 1 2\n")
        with pytest.raises(ParseError):
            read_events(path, IV)

    def test_out_of_interval_rejected(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("0.5 1 1 1\n")
        # both text parsers name the line
        for reader in (read_events, _read_events_lines):
            with pytest.raises(ParseError, match="outside the exposure interval") as info:
                reader(path, IV)
            assert info.value.lineno == 1
            assert str(info.value).startswith(f"{path}:1: ")

    def test_negative_coordinate_names_the_file(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("0.0 -1 1 1\n")
        for reader in (read_events, _read_events_lines):
            with pytest.raises(ParseError, match="non-negative") as info:
                reader(path, IV)
            assert info.value.lineno == 1
            assert str(info.value) == f"{path}:1: pixel indices must be non-negative"

    def test_nan_timestamp_reports_line_number(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("0.0 1 1 1\nnan 1 1 1\n")
        with pytest.raises(ParseError) as err:
            read_events(path, IV)
        assert err.value.lineno == 2
        assert str(err.value) == (
            f"{path}:2: event timestamps outside the exposure interval [-0.06, 0.06]"
        )

    @pytest.mark.parametrize("token", ["inf", "-inf"])
    def test_infinite_timestamp_reports_line_number(self, tmp_path, token):
        path = tmp_path / "events.txt"
        path.write_text(f"0.0 1 1 1\n0.01 2 2 -1\n{token} 1 1 1\n")
        with pytest.raises(ParseError) as err:
            read_events(path, IV)
        assert err.value.lineno == 3
        # the text after "path:lineno: ", which the path could not match by chance
        assert str(err.value).removeprefix(f"{path}:3: ") == (
            "event timestamps outside the exposure interval [-0.06, 0.06]"
        )

    def test_comment_line_rejected(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("# t x y p\n0.0 1 1 1\n")
        with pytest.raises(ParseError) as err:
            read_events(path, IV)
        assert err.value.lineno == 1

    @pytest.mark.parametrize("line", ["0.0 1.0 1 1", "0.0 1 1.0 1", "0.0 1 1 1.0"])
    def test_float_in_integer_field_rejected(self, tmp_path, line):
        path = tmp_path / "events.txt"
        path.write_text(line + "\n")
        with pytest.raises(ParseError) as err:
            read_events(path, IV)
        assert err.value.lineno == 1

    def test_blank_lines_only(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("\n  \n\t\n")
        assert len(read_events(path, IV)) == 0


def outcome(reader, path):
    """What a reader makes of a file: its columns' bytes, or the error it raised."""
    try:
        stream = reader(path, IV)
    except ValueError as exc:
        return ("raised", type(exc).__name__, str(exc))
    return ("read", stream.t.tobytes(), stream.x.tobytes(), stream.y.tobytes(), stream.p.tobytes())


@st.composite
def event_lines(draw):
    """Event files mixing valid records with every kind of token that is close to valid."""
    times = sorted(draw(st.lists(st.floats(IV.t_start, IV.t_end), max_size=8)))
    lines = []
    for t in times:
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", "   ", "\t", "#", "# t x y p"])))
        t_tok = draw(st.sampled_from(
            [repr(t), repr(t), f"{t:.6e}", f"+{t!r}", t.hex(), "nan", "-inf", "1_0", "#" + repr(t)]
        ))
        x_tok, y_tok = (
            draw(st.sampled_from([str(v), str(v), f"+{v}", f"0{v}", f"{v}_0", hex(v), f"{v}.0"]))
            for v in (draw(st.integers(0, 300)), draw(st.integers(0, 300)))
        )
        p_tok = draw(st.sampled_from(["1", "-1", "+1", "-1", "0", "2", "1.0", "#"]))
        tokens = [t_tok, x_tok, y_tok, p_tok]
        if draw(st.integers(0, 9)) == 0:
            tokens = tokens[: draw(st.integers(0, 3))] + draw(st.sampled_from([[], ["1"], ["#", "c"]]))
        sep = draw(st.sampled_from([" ", "\t", "  ", " \t"]))
        lines.append(sep.join(tokens))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=event_lines())
def test_fast_parse_agrees_with_line_parser(tmp_path, text):
    path = tmp_path / "events.txt"
    path.write_bytes(text.encode("ascii"))
    assert outcome(read_events, path) == outcome(_read_events_lines, path)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    records=st.lists(
        st.tuples(
            st.floats(IV.t_start, IV.t_end),
            st.integers(0, 2**62),
            st.integers(0, 2**62),
            st.sampled_from([-1, 1]),
        ),
        max_size=30,
    )
)
def test_write_read_roundtrip_bitwise_property(tmp_path, records):
    records.sort(key=lambda r: r[0])
    t, x, y, p = (np.array(col) for col in zip(*records)) if records else ([],) * 4
    stream = EventStream(x, y, t, p, IV)
    path = tmp_path / "events.txt"
    write_events(path, stream)
    back = read_events(path, IV)
    assert back.t.tobytes() == stream.t.tobytes()
    assert back.x.tobytes() == stream.x.tobytes()
    assert back.y.tobytes() == stream.y.tobytes()
    assert back.p.tobytes() == stream.p.tobytes()


def oracle_write_events(path, events):
    """The reference text writer: one formatted line per event."""
    with open(path, "w", encoding="ascii") as fh:
        for x, y, t, p in zip(events.x, events.y, events.t, events.p):
            fh.write(f"{float(t)!r} {int(x)} {int(y)} {int(p)}\n")


# where repr switches between its fixed and exponent forms, and the
# smallest magnitudes: subnormals and powers of two; both signs of each
TIME_SPECIALS = [
    float(s)
    for v in [
        np.nextafter(1e-4, 0), 1e-4, np.nextafter(1e16, 0), 1e16,
        5e-324, 3 * 5e-324, 2.0**-1050, np.nextafter(2.0**-1022, 0), 2.0**-1022,
        *(2.0**k for k in range(-60, 60, 7)),
    ]
    for s in (v, -v)
]


@st.composite
def oracle_streams(draw):
    """Streams around the writer's chunk size, with edge timestamps and coordinates."""
    n = draw(st.sampled_from(
        [0, 1, 5, EVENT_TEXT_CHUNK - 1, EVENT_TEXT_CHUNK, EVENT_TEXT_CHUNK + 1]
    ))
    interval = draw(st.sampled_from([
        IV, ExposureInterval(0.0, 0.12), ExposureInterval(1e-20, 3.5),
        # straddling 1e-4 and 1e16, and negative times across both
        ExposureInterval(5e-5, 2e-4), ExposureInterval(-3e-4, 3e-4),
        ExposureInterval(5e15, 2e16), ExposureInterval(-2e16, -5e15),
    ]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = rng.uniform(interval.t_start, interval.t_end, n)
    top = draw(st.sampled_from([0, 1, 239, 65535, 65536, 2**31 - 1, 2**62]))
    x = rng.integers(0, top + 1, n)
    y = rng.integers(0, top + 1, n)
    specials = [interval.t_start, interval.t_end, 1e-20, 0.0, -0.0, *TIME_SPECIALS]
    for i in draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=8)) if n else []:
        candidates = [s for s in specials if interval.contains(s)]
        t[i] = draw(st.sampled_from(candidates + [draw(st.floats(interval.t_start, interval.t_end))]))
        x[i], y[i] = draw(st.sampled_from([0, top])), draw(st.sampled_from([0, top]))
    return EventStream(x, y, np.sort(t), rng.choice([-1, 1], n), interval)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(stream=oracle_streams())
def test_chunked_writer_bytes_equal_oracle(tmp_path, stream):
    write_events(tmp_path / "chunked.txt", stream)
    oracle_write_events(tmp_path / "oracle.txt", stream)
    assert (tmp_path / "chunked.txt").read_bytes() == (tmp_path / "oracle.txt").read_bytes()


@settings(max_examples=300, deadline=None)
@given(t=hnp.arrays(np.float64, st.integers(0, 64), elements=st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(TIME_SPECIALS),
)))
def test_time_texts_equal_repr_property(t):
    assert ecir.io._time_texts(t) == [repr(v) for v in t.tolist()]


def test_strided_stream_bytes_equal_oracle(tmp_path):
    rng = np.random.default_rng(5)
    n = EVENT_TEXT_CHUNK + 3
    # t is a column of a row-major table: a view with an 8-element stride
    table = np.zeros((n, 8))
    table[:, 3] = np.sort(rng.uniform(IV.t_start, IV.t_end, n))
    stream = EventStream(rng.integers(0, 240, n), rng.integers(0, 180, n), table[:, 3],
                         rng.choice([-1, 1], n), IV)
    assert not stream.t.flags.c_contiguous
    write_events(tmp_path / "strided.txt", stream)
    oracle_write_events(tmp_path / "oracle.txt", stream)
    assert (tmp_path / "strided.txt").read_bytes() == (tmp_path / "oracle.txt").read_bytes()


def part_stream(n, wide=False):
    """A seeded stream of ``n`` events; ``wide`` puts coordinates past the writer's name table."""
    rng = np.random.default_rng(n + wide)
    top = 2**40 if wide else 240
    t = np.sort(rng.uniform(IV.t_start, IV.t_end, n))
    return EventStream(rng.integers(0, top, n), rng.integers(0, top, n), t, rng.choice([-1, 1], n), IV)


@pytest.fixture(scope="module")
def oracle_text(tmp_path_factory):
    """(stream, reference bytes) for a length and coordinate width, each made once."""
    made = {}

    def get(n, wide=False):
        if (n, wide) not in made:
            stream = part_stream(n, wide)
            path = tmp_path_factory.mktemp("oracle") / "events.txt"
            oracle_write_events(path, stream)
            made[n, wide] = stream, path.read_bytes()
        return made[n, wide]

    return get


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPUs the writer sees in the affinity mask; counts the forks it makes."""
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


def _timeout(signum, frame):
    raise TimeoutError("the forked text writer hung")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the writer forks only where os.fork exists")
class TestForkedTextWriter:
    """The text writer split over forked children: the reference bytes, nothing left behind."""

    @pytest.fixture(autouse=True)
    def leaves_nothing(self, capfd):
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
        0, EVENT_TEXT_PART - 1, EVENT_TEXT_PART, EVENT_TEXT_PART + 1,
        2 * EVENT_TEXT_PART - 1, 2 * EVENT_TEXT_PART, 3 * EVENT_TEXT_PART,
    ])
    def test_bytes_equal_oracle(self, tmp_path, oracle_text, cpus, n, count):
        stream, expected = oracle_text(n)
        forks = cpus(count)
        write_events(tmp_path / "events.txt", stream)
        assert (tmp_path / "events.txt").read_bytes() == expected
        # one part per CPU, none shorter than EVENT_TEXT_PART; the first is the caller's
        assert len(forks) == max(1, min(count, n // EVENT_TEXT_PART)) - 1

    def test_wide_coordinates_bytes_equal_oracle(self, tmp_path, oracle_text, cpus):
        stream, expected = oracle_text(3 * EVENT_TEXT_PART, wide=True)
        assert stream.x.max() >= ecir.io._COORD_NAMES
        forks = cpus(3)
        write_events(tmp_path / "events.txt", stream)
        assert (tmp_path / "events.txt").read_bytes() == expected
        assert len(forks) == 2

    def test_without_fork_one_part(self, tmp_path, oracle_text, cpus, monkeypatch):
        stream, expected = oracle_text(3 * EVENT_TEXT_PART)
        cpus(3)
        monkeypatch.delattr(os, "fork")
        write_events(tmp_path / "events.txt", stream)
        assert (tmp_path / "events.txt").read_bytes() == expected

    def failing_part(self, monkeypatch, in_child):
        """Make the formatting of a part raise, in the children or in the caller."""
        parent, real_chunks = os.getpid(), ecir.io._text_chunks

        def chunks(*args):
            if (os.getpid() != parent) == in_child:
                raise RuntimeError("formatting failed")
            yield from real_chunks(*args)

        monkeypatch.setattr(ecir.io, "_text_chunks", chunks)

    def test_failing_child_part_is_formatted_in_the_caller(self, tmp_path, oracle_text, cpus,
                                                          monkeypatch):
        stream, expected = oracle_text(3 * EVENT_TEXT_PART)
        forks = cpus(3)
        self.failing_part(monkeypatch, in_child=True)
        write_events(tmp_path / "events.txt", stream)
        assert (tmp_path / "events.txt").read_bytes() == expected
        assert len(forks) == 2

    def test_failing_child_rewrites_the_old_file_whole(self, tmp_path, oracle_text, cpus,
                                                       monkeypatch):
        stream, expected = oracle_text(3 * EVENT_TEXT_PART)
        cpus(3)
        self.failing_part(monkeypatch, in_child=True)
        path = tmp_path / "events.txt"
        path.write_bytes(b"#" * (2 * len(expected)))
        write_events(path, stream)
        # every part was written, and the file ends where its text does
        assert path.read_bytes() == expected

    def test_child_killed_after_sending_is_os_error_naming_the_file(self, tmp_path, oracle_text,
                                                                    cpus, monkeypatch):
        stream, expected = oracle_text(3 * EVENT_TEXT_PART)
        forks = cpus(3)

        def killed(code):
            # only a worker leaves through os._exit: it has sent its text
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(os, "_exit", killed)
        path = tmp_path / "events.txt"
        with pytest.raises(OSError) as info:
            write_events(path, stream)
        assert str(info.value) == (
            f"{path}: the process producing items {EVENT_TEXT_PART} to {2 * EVENT_TEXT_PART} "
            f"exited with status -9 after sending output")
        assert len(forks) == 2
        # the bytes sent before the failure were written, and the file ends there
        lines = expected.splitlines(keepends=True)
        assert path.read_bytes() == b"".join(lines[:2 * EVENT_TEXT_PART])

    def test_failing_caller_part_kills_and_reaps_children(self, tmp_path, oracle_text, cpus, monkeypatch):
        stream, _ = oracle_text(3 * EVENT_TEXT_PART)
        forks = cpus(3)
        self.failing_part(monkeypatch, in_child=False)
        # each child's part is more text than a pipe holds, so a child that
        # was not killed would block on its write and the writer would hang
        with pytest.raises(RuntimeError, match="formatting failed"):
            write_events(tmp_path / "events.txt", stream)
        assert len(forks) == 2
        for pid in forks:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


def container_bytes(t, x, y, p, count=None):
    """An ``.evt`` file built field by field, for damaging one field at a time."""
    n = len(t) if count is None else count
    return (
        EVT_MAGIC + struct.pack("<Q", n) + np.asarray(t, "<f8").tobytes()
        + np.asarray(x, "<i4").tobytes() + np.asarray(y, "<i4").tobytes()
        + np.asarray(p, "i1").tobytes()
    )


class TestEventContainer:
    def test_layout(self, tmp_path):
        stream = EventStream([3, 1], [2, 0], [-0.01, 0.02], [1, -1], IV)
        write_events(tmp_path / "e.evt", stream)
        raw = (tmp_path / "e.evt").read_bytes()
        assert raw == container_bytes([-0.01, 0.02], [3, 1], [2, 0], [1, -1])
        assert len(raw) == 16 + 17 * 2

    def test_empty_stream(self, tmp_path):
        write_events(tmp_path / "e.evt", EventStream.empty(IV))
        assert (tmp_path / "e.evt").read_bytes() == EVT_MAGIC + bytes(8)
        assert len(read_events(tmp_path / "e.evt", IV)) == 0

    def test_suffix_chooses_format(self, tmp_path):
        stream = random_stream(np.random.default_rng(401), 40)
        write_events(tmp_path / "a.EVT", stream)
        write_events(tmp_path / "a.txt", stream)
        assert (tmp_path / "a.EVT").read_bytes().startswith(EVT_MAGIC)
        assert len((tmp_path / "a.txt").read_text(encoding="ascii").splitlines()) == 40
        for name in ("a.EVT", "a.txt"):
            assert read_events(tmp_path / name, IV).t.tobytes() == stream.t.tobytes()

    @pytest.mark.parametrize("damage, message", [
        ("bad_magic", "magic"),
        ("truncated", "bytes"),
        ("trailing_byte", "bytes"),
        ("count_mismatch", "bytes"),
        ("nan_timestamp", "NaN"),
        ("unsorted", "sorted"),
        ("polarity_3", "polarit"),
        ("negative_x", "non-negative"),
        ("outside_interval", "outside"),
    ])
    def test_corrupt_container_is_format_error(self, tmp_path, damage, message):
        t, x, y, p = [-0.05, 0.0, 0.04], [1, 2, 3], [0, 4, 1], [1, -1, 1]
        count = None
        if damage == "nan_timestamp":
            t[1] = np.nan
        elif damage == "unsorted":
            t = [0.0, -0.05, 0.04]
        elif damage == "polarity_3":
            p[2] = 3
        elif damage == "negative_x":
            x[0] = -1
        elif damage == "outside_interval":
            t[2] = 0.5
        elif damage == "count_mismatch":
            count = 4
        raw = container_bytes(t, x, y, p, count)
        if damage == "bad_magic":
            raw = b"ECIREVX\x00" + raw[8:]
        elif damage == "truncated":
            raw = raw[:-1]
        elif damage == "trailing_byte":
            raw = raw + b"\x00"
        path = tmp_path / "bad.evt"
        path.write_bytes(raw)
        with pytest.raises(FormatError, match=message) as err:
            read_events(path, IV)
        assert "bad.evt" in str(err.value)

    @pytest.mark.parametrize("size", [0, 7, 15])
    def test_shorter_than_header_is_format_error(self, tmp_path, size):
        (tmp_path / "bad.evt").write_bytes((EVT_MAGIC + bytes(8))[:size])
        with pytest.raises(FormatError, match="bad.evt"):
            read_events(tmp_path / "bad.evt", IV)

    @pytest.mark.parametrize("column", ["x", "y"])
    def test_coordinate_beyond_int32_refused_on_write(self, tmp_path, column):
        coords = {"x": [1, 2], "y": [0, 0]}
        coords[column][1] = 2**31
        stream = EventStream(coords["x"], coords["y"], [0.0, 0.01], [1, 1], IV)
        with pytest.raises(ValueError, match="int32"):
            write_events(tmp_path / "e.evt", stream)
        assert not (tmp_path / "e.evt").exists()


OUTSIDE = "event timestamps outside the exposure interval [-0.06, 0.06]"
# each way to break one record: its column, and the message of the rule it breaks
BREAKS = {
    "before": ("t", OUTSIDE),
    "after": ("t", OUTSIDE),
    "nan": ("t", OUTSIDE),
    "inf": ("t", OUTSIDE),
    "-inf": ("t", OUTSIDE),
    "below_predecessor": ("t", "event timestamps must be sorted non-decreasing"),
    "polarity_0": ("p", "polarities must be -1 or +1"),
    "polarity_2": ("p", "polarities must be -1 or +1"),
    "negative_x": ("x", "pixel indices must be non-negative"),
    "negative_y": ("y", "pixel indices must be non-negative"),
}


@st.composite
def broken_records(draw):
    """A valid stream's records with one broken, the broken one's index and how it broke."""
    k = draw(st.integers(1, 10))
    t = sorted(draw(st.lists(st.floats(IV.t_start, IV.t_end), min_size=k, max_size=k)))
    columns = {
        "t": t,
        "x": draw(st.lists(st.integers(0, 300), min_size=k, max_size=k)),
        "y": draw(st.lists(st.integers(0, 300), min_size=k, max_size=k)),
        "p": draw(st.lists(st.sampled_from([-1, 1]), min_size=k, max_size=k)),
    }
    breaks = [b for b in BREAKS if b != "below_predecessor" or k > 1 and t[-2] > IV.t_start]
    how = draw(st.sampled_from(breaks))
    if how == "below_predecessor":
        i = draw(st.sampled_from([j for j in range(1, k) if t[j - 1] > IV.t_start]))
    else:
        i = draw(st.integers(0, k - 1))
    finite = {"allow_nan": False, "allow_infinity": False}
    columns[BREAKS[how][0]][i] = {
        "before": lambda: draw(st.floats(max_value=IV.t_start, exclude_max=True, **finite)),
        "after": lambda: draw(st.floats(min_value=IV.t_end, exclude_min=True, **finite)),
        "nan": lambda: math.nan,
        "inf": lambda: math.inf,
        "-inf": lambda: -math.inf,
        "below_predecessor": lambda: draw(st.floats(IV.t_start, t[i - 1], exclude_max=True)),
        "polarity_0": lambda: 0,
        "polarity_2": lambda: 2,
        "negative_x": lambda: draw(st.integers(-(2**31), -1)),
        "negative_y": lambda: draw(st.integers(-(2**31), -1)),
    }[how]()
    # the blank line, if any, before each record
    blanks = draw(st.lists(st.sampled_from([None, "", "  ", "\t"]), min_size=k, max_size=k))
    return columns, i, how, blanks


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=broken_records())
def test_refused_record_is_named_by_line_and_index(tmp_path, case):
    columns, i, how, blanks = case
    t, x, y, p = (columns[name] for name in "txyp")
    lines, line_of = [], []
    for blank, record in zip(blanks, zip(t, x, y, p)):
        if blank is not None:
            lines.append(blank)
        lines.append("{!r} {} {} {}".format(*record))
        line_of.append(len(lines))
    text = tmp_path / "events.txt"
    text.write_text("\n".join(lines) + "\n", encoding="ascii")
    message = BREAKS[how][1]
    with pytest.raises(ParseError) as info:
        read_events(text, IV)
    assert info.value.lineno == line_of[i]
    assert str(info.value) == f"{text}:{line_of[i]}: {message}"

    container = tmp_path / "events.evt"
    container.write_bytes(container_bytes(t, x, y, p))
    if how in ("nan", "inf", "-inf"):
        message = "t holds NaN or infinite values"  # the container's float column rule
    with pytest.raises(FormatError) as info:
        read_events(container, IV)
    assert str(info.value) == f"{container}: event {i}: {message}"


ROUNDTRIP = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


@ROUNDTRIP
@given(
    records=st.lists(
        st.tuples(
            st.floats(IV.t_start, IV.t_end),
            st.integers(0, 2**31 - 1),
            st.integers(0, 2**31 - 1),
            st.sampled_from([-1, 1]),
        ),
        max_size=30,
    )
)
def test_container_roundtrip_bitwise_property(tmp_path, records):
    records.sort(key=lambda r: r[0])
    t, x, y, p = (np.array(col) for col in zip(*records)) if records else ([],) * 4
    stream = EventStream(x, y, t, p, IV)
    write_events(tmp_path / "events.evt", stream)
    back = read_events(tmp_path / "events.evt", IV)
    for name in ("t", "x", "y", "p"):
        assert getattr(back, name).tobytes() == getattr(stream, name).tobytes()


FINITE32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
FINITE64 = st.floats(allow_nan=False, allow_infinity=False)


@ROUNDTRIP
@given(frame=hnp.arrays(np.float32, hnp.array_shapes(min_dims=2, max_dims=2, max_side=9),
                        elements=FINITE32))
def test_f32_roundtrip_bitwise_property(tmp_path, frame):
    frame = frame.astype(np.float64)
    write_f32(tmp_path / "frame.f32", frame)
    assert read_f32(tmp_path / "frame.f32").tobytes() == frame.tobytes()


@ROUNDTRIP
@given(bins=hnp.arrays(np.float32, hnp.array_shapes(min_dims=3, max_dims=3, max_side=6),
                       elements=FINITE32))
def test_h32_roundtrip_bitwise_property(tmp_path, bins):
    bins = bins.astype(np.float64)
    write_histogram(tmp_path / "hist.h32", EventHistogram(bins, IV))
    assert read_histogram(tmp_path / "hist.h32", IV).bins.tobytes() == bins.tobytes()


@st.composite
def poly_grids(draw):
    """Grids as ``fit`` writes them: each pixel's keypoints rise strictly inside the interval.

    Every other grid is refused on load (``TestPolyFiles``).
    """
    h, w, n = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 5))
    # values unique across the array are unique along each pixel's row
    keypoints = np.sort(draw(hnp.arrays(np.float64, (h, w, n), elements=st.floats(-1e6, 1e6),
                                        unique=True)), axis=-1)
    t_start = draw(st.floats(-2e6, keypoints.min()))
    t_end = draw(st.floats(keypoints.max(), 2e6).filter(lambda v: v > t_start))
    return PolyGrid(
        keypoints,
        draw(hnp.arrays(np.float64, (h, w, n), elements=FINITE64)),
        draw(hnp.arrays(np.float64, (h, w), elements=FINITE64)),
        ExposureInterval(t_start, t_end),
    )


@ROUNDTRIP
@given(grid=poly_grids())
def test_polys_roundtrip_bitwise_property(tmp_path, grid):
    save_polys(tmp_path / "polys.npz", grid)
    back = load_polys(tmp_path / "polys.npz")
    for name in ("keypoints", "derivatives", "constants"):
        assert getattr(back, name).tobytes() == getattr(grid, name).tobytes()
    assert back.interval == grid.interval


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | FINITE64 | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)


@ROUNDTRIP
@given(
    t_start=st.floats(-1e6, 1e6),
    length=st.floats(1e-6, 1e6),
    blurry=st.sampled_from([None, "blurry.f32", "sub dir/b\u00e9.f32"]),
    events=st.sampled_from([None, "events.txt", "events.evt"]),
    gt_video=st.sampled_from([None, "video"]),
    overrides=st.dictionaries(st.text(), JSON_VALUES, max_size=4),
)
def test_manifest_roundtrip_property(tmp_path, t_start, length, blurry, events, gt_video,
                                     overrides):
    (tmp_path / "sub dir").mkdir(exist_ok=True)
    (tmp_path / "video").mkdir(exist_ok=True)
    for name in ("blurry.f32", "sub dir/b\u00e9.f32"):
        write_f32(tmp_path / name, np.zeros((1, 1)))
    manifest = Manifest(t_start=t_start, t_end=t_start + length, blurry=blurry, events=events,
                        gt_video=gt_video, overrides=overrides)
    for name in ("events.txt", "events.evt"):
        write_events(tmp_path / name, EventStream.empty(manifest.interval))
    manifest.save(tmp_path / "m.json")
    back = load_manifest(tmp_path / "m.json")
    for name in ("t_start", "t_end", "blurry", "events", "gt_video", "overrides"):
        assert getattr(back, name) == getattr(manifest, name)
    assert back.base_dir == tmp_path


@ROUNDTRIP
@given(frame=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=9),
                        elements=FINITE64))
def test_pgm_roundtrip_within_quantization_property(tmp_path, frame):
    write_pgm(tmp_path / "frame.pgm", frame)
    back = read_pgm(tmp_path / "frame.pgm")
    assert back.shape == frame.shape
    assert np.max(np.abs(back - np.clip(frame, 0.0, 1.0))) <= 0.5 / 255.0 + 1e-12


class TestFrameFiles:
    def test_pgm_quantization_of_half(self, tmp_path):
        path = tmp_path / "gray.pgm"
        write_pgm(path, np.full((4, 4), 0.5))
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n4 4\n255\n")
        assert raw[-16:] == bytes([128] * 16)

    def test_pgm_clamps_on_export(self, tmp_path):
        path = tmp_path / "gray.pgm"
        write_pgm(path, np.array([[-0.5, 0.0], [1.0, 1.7]]))
        frame = read_pgm(path)
        assert frame[0, 0] == 0.0 and frame[1, 1] == 1.0

    def test_pgm_roundtrip_error_within_quantization_bound(self, tmp_path):
        rng = np.random.default_rng(359)
        frame = rng.uniform(0, 1, (12, 9))
        path = tmp_path / "gray.pgm"
        write_pgm(path, frame)
        back = read_pgm(path)
        assert np.max(np.abs(back - frame)) <= 1.0 / 510.0 + 1e-12

    def test_pgm_header_with_comment(self, tmp_path):
        path = tmp_path / "gray.pgm"
        payload = bytes(range(6))
        path.write_bytes(b"P5\n# a comment\n3 2\n255\n" + payload)
        frame = read_pgm(path)
        assert frame.shape == (2, 3)
        assert frame[1, 2] == pytest.approx(5 / 255)

    def test_pgm_bad_magic(self, tmp_path):
        path = tmp_path / "gray.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(FormatError):
            read_pgm(path)

    def test_pgm_truncated_payload(self, tmp_path):
        path = tmp_path / "gray.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(FormatError):
            read_pgm(path)

    @pytest.mark.parametrize("size", [b"-1 1", b"-2 -1"])
    def test_pgm_negative_size(self, tmp_path, size):
        path = tmp_path / "gray.pgm"
        path.write_bytes(b"P5\n" + size + b"\n255\n" + bytes(4))
        with pytest.raises(FormatError, match="negative PGM size"):
            read_pgm(path)

    def test_f32_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(367)
        frame = rng.uniform(-0.2, 1.3, (7, 5)).astype(np.float32).astype(np.float64)
        path = tmp_path / "frame.f32"
        write_f32(path, frame)
        once = read_f32(path)
        write_f32(path, once)
        twice = read_f32(path)
        assert np.array_equal(frame, once)
        assert np.array_equal(once, twice)

    def test_f32_header(self, tmp_path):
        path = tmp_path / "frame.f32"
        write_f32(path, np.zeros((2, 3)))
        raw = path.read_bytes()
        assert raw[:8] == b"ECIRF32\x00"
        assert raw[8:16] == (3).to_bytes(4, "little") + (2).to_bytes(4, "little")

    def test_f32_bad_magic_and_size(self, tmp_path):
        path = tmp_path / "frame.f32"
        path.write_bytes(b"NOTMAGIC" + bytes(8))
        with pytest.raises(FormatError):
            read_f32(path)
        path.write_bytes(b"ECIRF32\x00" + (3).to_bytes(4, "little") * 2 + bytes(5))
        with pytest.raises(FormatError):
            read_f32(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_f32_non_finite_payload_rejected(self, tmp_path, value):
        frame = np.full((3, 4), 0.5)
        frame[1, 2] = value
        write_raw_f32(tmp_path / "frame.f32", frame)
        with pytest.raises(FormatError, match="NaN or infinite"):
            read_f32(tmp_path / "frame.f32")

    def test_f32_overflowing_value_rejected_on_write(self, tmp_path):
        frame = np.full((3, 4), 0.5)
        frame[2, 1] = -1e39
        with np.errstate(over="raise"):
            with pytest.raises(ValueError, match="float32 range"):
                write_f32(tmp_path / "frame.f32", frame)
        assert not (tmp_path / "frame.f32").exists()

    @pytest.mark.parametrize("value, message", [
        (np.nan, "frame holds NaN or infinite values"),
        (np.inf, "frame holds NaN or infinite values"),
        (-np.inf, "frame holds NaN or infinite values"),
        (1e39, "frame values exceed the float32 range"),
    ], ids=["nan", "inf", "-inf", "1e39"])
    def test_f32_writer_refuses_what_the_reader_refuses(self, tmp_path, value, message):
        frame = np.full((3, 4), 0.5)
        frame[1, 2] = value
        path = tmp_path / "frame.f32"
        state = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning that leaked would fail here
            with pytest.raises(ValueError) as info:
                write_f32(path, frame)
        assert str(info.value) == f"{path}: {message}"
        assert not path.exists()
        assert np.geterr() == state

    def test_pgm_writer_refuses_nan_and_clamps_inf(self, tmp_path):
        frame = np.full((2, 3), 0.5)
        frame[0, 1], frame[1, 2] = np.inf, -np.inf
        write_pgm(tmp_path / "inf.pgm", frame)
        assert read_pgm(tmp_path / "inf.pgm")[0, 1] == 1.0
        assert read_pgm(tmp_path / "inf.pgm")[1, 2] == 0.0
        frame[1, 0] = np.nan
        path = tmp_path / "nan.pgm"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                write_pgm(path, frame)
        assert str(info.value) == f"{path}: frame holds NaN values"
        assert not path.exists()

    def test_dispatch_by_extension(self, tmp_path):
        frame = np.full((3, 3), 0.25)
        write_frame(tmp_path / "a.pgm", frame)
        write_frame(tmp_path / "b.f32", frame)
        assert read_frame(tmp_path / "a.pgm").shape == (3, 3)
        assert read_frame(tmp_path / "b.f32").shape == (3, 3)
        with pytest.raises(ValueError):
            write_frame(tmp_path / "c.png", frame)


    def test_frame_format_messages(self, tmp_path, capsys):
        """Every list of frame formats is read from one table; the messages stay as they were."""
        assert list(ecir.io.FRAME_FORMATS) == [".f32", ".pgm"]
        for call in (lambda: read_frame(tmp_path / "a.png"),
                     lambda: write_frame(tmp_path / "a.png", np.zeros((2, 2)))):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == "unsupported frame extension '.png' (use .pgm or .f32)"
        with pytest.raises(FileNotFoundError) as info:
            list_frames(tmp_path)
        assert str(info.value) == f"{tmp_path}: no .f32 or .pgm frames"
        with pytest.raises(ValueError) as info:
            write_video_dir(tmp_path / "vid", [0.0], np.zeros((1, 2, 2)), fmt="png")
        assert str(info.value) == "fmt must be 'f32' or 'pgm'"
        parser = ecir.cli.build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["render", "--polys", "p", "--out", "o", "--format", "png"])
        err = capsys.readouterr().err
        assert "invalid choice: 'png'" in err and "f32" in err and "pgm" in err
        for fmt in ("f32", "pgm"):
            argv = ["render", "--polys", "p", "--out", "o", "--format", fmt]
            assert parser.parse_args(argv).format == fmt


class TestHistogramFiles:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(373)
        stream = random_stream(rng, 500, w=8, h=6)
        hist = voxelize(stream, 40, (6, 8))
        path = tmp_path / "events.h32"
        write_histogram(path, hist)
        back = read_histogram(path, IV)
        assert back.bins.shape == (40, 6, 8)
        assert np.array_equal(back.bins, hist.bins)  # counts are float32-exact

    def test_infinite_bin_is_format_error(self, tmp_path):
        bins = np.zeros((2, 3, 4))
        bins[1, 0, 3] = np.inf
        write_raw_h32(tmp_path / "events.h32", bins)
        with pytest.raises(FormatError, match="NaN or infinite"):
            read_histogram(tmp_path / "events.h32", IV)

    @pytest.mark.parametrize("value, message", [
        (np.nan, "bins holds NaN or infinite values"),
        (np.inf, "bins holds NaN or infinite values"),
        (1e39, "bins values exceed the float32 range"),
    ], ids=["nan", "inf", "1e39"])
    def test_writer_refuses_what_the_reader_refuses(self, tmp_path, value, message):
        bins = np.zeros((2, 3, 4))
        bins[1, 2, 0] = value
        path = tmp_path / "events.h32"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                write_histogram(path, EventHistogram(bins, IV))
        assert str(info.value) == f"{path}: {message}"
        assert not path.exists()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "events.h32"
        path.write_bytes(b"WRONG!!\x00" + bytes(12))
        with pytest.raises(FormatError):
            read_histogram(path, IV)


class TestVideoDirs:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(379)
        times = np.linspace(IV.t_start, IV.t_end, 5)
        frames = rng.uniform(0, 1, (5, 6, 4)).astype(np.float32).astype(np.float64)
        write_video_dir(tmp_path / "vid", times, frames)
        video = read_video_dir(tmp_path / "vid")
        assert np.array_equal(video.times, times)
        assert np.array_equal(video.frames, frames)
        assert len(list_frames(tmp_path / "vid")) == 5

    def test_missing_timestamps_file(self, tmp_path):
        d = tmp_path / "vid"
        d.mkdir()
        write_f32(d / "frame_00000.f32", np.zeros((2, 2)))
        with pytest.raises(FileNotFoundError):
            read_video_dir(d)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_timestamp_reports_line_number(self, tmp_path, token):
        d = tmp_path / "vid"
        write_video_dir(d, np.linspace(IV.t_start, IV.t_end, 6), np.zeros((6, 2, 2)))
        lines = (d / "timestamps.txt").read_text().splitlines()
        lines[2] = token
        (d / "timestamps.txt").write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as info:
            read_video_dir(d)
        assert info.value.lineno == 3
        # the wording of the --timestamps flag, which shares the tokenizer
        assert str(info.value) == (f"{d / 'timestamps.txt'}:3: timestamps holds NaN or "
                                   f"infinite values, got {token!r}")
        times = np.linspace(IV.t_start, IV.t_end, 6)
        times[2] = float(token)
        with pytest.raises(ValueError, match="strictly increasing"):
            SharpVideo(times, np.zeros((6, 2, 2)))

    @pytest.mark.parametrize("stamps, line", [(["0.1", "0.0", "0.0"], 2),
                                              (["0.0", "0.05", "0.05"], 3)])
    def test_non_increasing_timestamp_reports_line_number(self, tmp_path, stamps, line):
        d = tmp_path / "vid"
        write_video_dir(d, np.linspace(IV.t_start, IV.t_end, 3), np.zeros((3, 2, 2)))
        (d / "timestamps.txt").write_text("\n".join(stamps) + "\n")
        for read in (read_video_dir, ecir.io.video_frames):
            with pytest.raises(ParseError) as info:
                read(d)
            assert str(info.value) == (
                f"{d / 'timestamps.txt'}:{line}: timestamps must be strictly increasing")
            assert info.value.lineno == line

    def test_count_mismatch(self, tmp_path):
        d = tmp_path / "vid"
        write_video_dir(d, np.array([0.0, 0.1]), np.zeros((2, 2, 2)))
        (d / "frame_00002.f32").write_bytes((d / "frame_00000.f32").read_bytes())
        with pytest.raises(ValueError):
            read_video_dir(d)

    def test_shorter_rewrite_leaves_no_stale_frames(self, tmp_path):
        d = tmp_path / "vid"
        write_video_dir(d, np.linspace(0.0, 0.1, 6), np.full((6, 2, 3), 0.25))
        times = np.linspace(0.0, 0.1, 3)
        frames = np.random.default_rng(383).uniform(0, 1, (3, 2, 3)).astype(np.float32)
        write_video_dir(d, times, frames)
        video = read_video_dir(d)
        assert [p.name for p in list_frames(d)] == [f"frame_{i:05d}.f32" for i in range(3)]
        assert np.array_equal(video.times, times)
        assert np.array_equal(video.frames, frames)

    def test_other_format_rewrite_leaves_no_stale_frames(self, tmp_path):
        d = tmp_path / "vid"
        (d / "notes").mkdir(parents=True)
        (d / "notes.txt").write_text("kept\n")
        write_video_dir(d, np.linspace(0.0, 0.1, 4), np.full((4, 2, 3), 0.25), fmt="f32")
        write_video_dir(d, np.linspace(0.0, 0.1, 4), np.full((4, 2, 3), 0.5), fmt="pgm")
        assert [p.name for p in list_frames(d)] == [f"frame_{i:05d}.pgm" for i in range(4)]
        assert np.array_equal(read_video_dir(d).frames, np.full((4, 2, 3), 128 / 255))
        # files that are not frames stay
        assert (d / "notes.txt").read_text() == "kept\n"
        assert (d / "notes").is_dir()

    def test_unknown_format_leaves_nothing(self, tmp_path):
        d = tmp_path / "new" / "vid"
        with pytest.raises(ValueError, match="fmt must be 'f32' or 'pgm'"):
            write_video_dir(d, [0.0, 1.0], np.zeros((2, 2, 2)), fmt="png")
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("times", [[0.0, np.inf], [-np.inf, 0.0]], ids=["inf", "-inf"])
    def test_infinite_time_leaves_nothing(self, tmp_path, times):
        """Infinite times rise strictly, but video_frames refuses them; a NaN fails the order."""
        d = tmp_path / "new" / "vid"
        with pytest.raises(ValueError) as info:
            write_video_dir(d, times, np.zeros((2, 2, 2)))
        assert str(info.value) == f"{d}: timestamps holds NaN or infinite values"
        assert not (tmp_path / "new").exists()

    def test_failure_on_the_first_frame_leaves_nothing(self, tmp_path):
        def frames():
            raise ValueError("no first frame")
            yield

        with pytest.raises(ValueError, match="no first frame"):
            write_video_dir(tmp_path / "vid", [0.0, 1.0], frames())
        assert not (tmp_path / "vid").exists()

    def test_rewrite_failing_part_way_does_not_read_back(self, tmp_path):
        d = tmp_path / "vid"
        write_video_dir(d, np.linspace(0.0, 0.1, 6), np.full((6, 2, 3), 0.25))

        def frames():
            yield from np.full((3, 2, 3), 0.5)
            raise RuntimeError("frame 3 failed")

        with pytest.raises(RuntimeError, match="frame 3 failed"):
            write_video_dir(d, np.linspace(0.0, 0.1, 6), frames())
        # three new frames and three old ones, but no video
        assert len(list_frames(d)) == 6
        with pytest.raises(FileNotFoundError, match="missing timestamps.txt"):
            read_video_dir(d)

    @pytest.mark.parametrize("yielded, message", [(2, "2 frames for 3 timestamps"),
                                                   (6, "more frames than its 3")],
                             ids=["shorter", "longer"])
    def test_frame_count_other_than_times_refused(self, tmp_path, yielded, message):
        d = tmp_path / "vid"
        write_video_dir(d, np.linspace(0.0, 0.1, 6), np.full((6, 2, 3), 0.25))
        taken = []

        def frames():
            for i in range(yielded):
                taken.append(i)
                yield np.full((2, 3), 0.5)

        with pytest.raises(ValueError, match=message):
            write_video_dir(d, np.linspace(0.0, 0.1, 3), frames())
        # no more than one frame past the last time is taken
        assert len(taken) == min(yielded, 4)
        with pytest.raises(FileNotFoundError, match="missing timestamps.txt"):
            read_video_dir(d)

    def test_no_frame_held_while_the_next_is_made(self, tmp_path):
        refs = []

        def frames():
            for i in range(3):
                # the writer has let go of every frame it was given
                assert all(ref() is None for ref in refs)
                frame = np.full((2, 3), i / 4)
                refs.append(weakref.ref(frame))
                yield frame
                del frame

        write_video_dir(tmp_path / "vid", np.arange(3.0), frames())
        assert len(list_frames(tmp_path / "vid")) == 3


class TestPolyFiles:
    def test_roundtrip(self, tmp_path):
        from scenes import random_poly_grid

        rng = np.random.default_rng(383)
        grid = random_poly_grid(rng, 4, 5, 6, IV)
        path = tmp_path / "polys.npz"
        save_polys(path, grid)
        back = load_polys(path)
        assert np.array_equal(back.keypoints, grid.keypoints)
        assert np.array_equal(back.derivatives, grid.derivatives)
        assert np.array_equal(back.constants, grid.constants)
        assert back.interval == grid.interval

    @pytest.mark.parametrize(
        "damage",
        [
            "truncated", "empty", "short_member", "bit_flip", "encrypted_flag",
            "compression_method", "directory_offset",
        ],
    )
    def test_corrupt_archive_is_format_error(self, tmp_path, damage):
        from scenes import random_poly_grid

        grid = random_poly_grid(np.random.default_rng(389), 4, 5, 6, IV)
        save_polys(tmp_path / "polys.npz", grid)
        raw = (tmp_path / "polys.npz").read_bytes()
        path = tmp_path / "bad.npz"
        if damage == "truncated":
            path.write_bytes(raw[: len(raw) // 2])
        elif damage == "empty":
            path.write_bytes(b"")
        elif damage == "bit_flip":
            path.write_bytes(raw[:200] + bytes([raw[200] ^ 0xFF]) + raw[201:])
        elif damage in ("encrypted_flag", "compression_method"):
            # zipfile raises RuntimeError / NotImplementedError for these fields
            # of the first central directory entry
            at = raw.index(b"PK\x01\x02") + (8 if damage == "encrypted_flag" else 10)
            path.write_bytes(raw[:at] + bytes([raw[at] ^ 0x01]) + raw[at + 1 :])
        elif damage == "directory_offset":
            # a central directory offset past the end makes zipfile seek before 0
            at = raw.index(b"PK\x05\x06") + 17
            path.write_bytes(raw[:at] + bytes([raw[at] ^ 0x80]) + raw[at + 1 :])
        else:
            with zipfile.ZipFile(tmp_path / "polys.npz") as src, zipfile.ZipFile(path, "w") as dst:
                for info in src.infolist():
                    data = src.read(info)
                    dst.writestr(info.filename, data[:-8] if info.filename == "constants.npy" else data)
        with pytest.raises(FormatError, match="bad.npz"):
            load_polys(path)

    @pytest.mark.parametrize("name, value", [
        ("keypoints", np.inf), ("derivatives", np.nan), ("constants", -np.inf),
    ])
    def test_non_finite_array_is_format_error(self, tmp_path, name, value):
        from scenes import random_poly_grid

        grid = random_poly_grid(np.random.default_rng(401), 4, 5, 6, IV)
        getattr(grid, name)[1, 2, ...] = value
        save_polys(tmp_path / "polys.npz", grid)
        with pytest.raises(FormatError, match=f"polys.npz: {name} holds NaN or infinite"):
            load_polys(tmp_path / "polys.npz")

    @pytest.mark.parametrize("damage, message", [
        ("keypoint_past_the_end", "keypoints outside the exposure interval [-0.06, 0.06]"),
        ("keypoint_before_the_start", "keypoints outside the exposure interval [-0.06, 0.06]"),
        ("keypoints_swapped", "keypoints must be strictly increasing"),
        ("keypoints_repeated", "keypoints must be strictly increasing"),
        ("t_start_of_shape_2", "t_start must be a scalar, got shape (2,)"),
        ("t_end_of_shape_1", "t_end must be a scalar, got shape (1,)"),
        ("complex_constants", "constants must hold real numbers, got complex128"),
        ("text_derivatives", "derivatives must hold real numbers, got <U3"),
        ("scalar_keypoints", "keypoints and derivatives must both be (h, w, n)"),
    ])
    def test_malformed_member_is_one_line_format_error(self, tmp_path, capsys, damage, message):
        """``load_polys`` holds an archive to ``KeypointSet``'s rule and real scalar bounds.

        ``render`` used to extrapolate from keypoints outside the interval,
        cast complex constants with a ComplexWarning, and end a bound of
        shape (2,) in a TypeError traceback.
        """
        from scenes import random_poly_grid

        grid = random_poly_grid(np.random.default_rng(409), 3, 4, 5, IV)
        members = {
            "keypoints": grid.keypoints.copy(), "derivatives": grid.derivatives,
            "constants": grid.constants, "t_start": np.float64(IV.t_start),
            "t_end": np.float64(IV.t_end),
        }
        kp = members["keypoints"]
        if damage == "keypoint_past_the_end":
            kp[2, 3, -1] = IV.t_end + 1e-3
        elif damage == "keypoint_before_the_start":
            kp[0, 0, 0] = np.nextafter(IV.t_start, -1.0)
        elif damage == "keypoints_swapped":
            kp[1, 2, [1, 2]] = kp[1, 2, [2, 1]]
        elif damage == "keypoints_repeated":
            kp[1, 2, 3] = kp[1, 2, 2]
        elif damage == "t_start_of_shape_2":
            members["t_start"] = np.array([IV.t_start, IV.t_start])
        elif damage == "t_end_of_shape_1":
            members["t_end"] = np.array([IV.t_end])
        elif damage == "complex_constants":
            members["constants"] = grid.constants + 0j
        elif damage == "scalar_keypoints":
            members["keypoints"] = kp[0, 0, 0]
        else:
            members["derivatives"] = np.full(grid.derivatives.shape, "1.5")
        path = tmp_path / "polys.npz"
        np.savez(path, **members)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError) as info:
                load_polys(path)
            assert str(info.value) == f"{path}: {message}"
            code = ecir.cli.main(["render", "--polys", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"ecir render: error: {path}: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_npy_file_is_format_error(self, tmp_path):
        # np.load returns a bare array for .npy content, whatever the name
        for name in ("a.npy", "a.npz"):
            with open(tmp_path / name, "wb") as fh:
                np.save(fh, np.zeros(3))
            with pytest.raises(FormatError, match=f"{name}.*single .npy array"):
                load_polys(tmp_path / name)


class TestManifests:
    def test_save_load(self, tmp_path):
        write_f32(tmp_path / "blurry.f32", np.zeros((2, 2)))
        (tmp_path / "events.txt").write_text("0.0 0 0 1\n")
        manifest = Manifest(
            t_start=-0.06,
            t_end=0.06,
            blurry="blurry.f32",
            events="events.txt",
            overrides={"n": 8},
        )
        manifest.save(tmp_path / "manifest.json")
        back = load_manifest(tmp_path / "manifest.json")
        assert back.interval == IV
        assert back.overrides == {"n": 8}
        assert back.resolve("blurry").exists()

    def test_parsed_events_kept_but_not_saved(self, tmp_path):
        stream = random_stream(np.random.default_rng(397), 50)
        write_events(tmp_path / "events.txt", stream)
        Manifest(t_start=IV.t_start, t_end=IV.t_end, events="events.txt").save(tmp_path / "m.json")
        loaded = load_manifest(tmp_path / "m.json")
        loaded.save(tmp_path / "again.json")
        assert (tmp_path / "again.json").read_text() == (tmp_path / "m.json").read_text()

    def test_missing_file_rejected(self, tmp_path):
        Manifest(t_start=0.0, t_end=0.1, blurry="gone.f32").save(tmp_path / "m.json")
        with pytest.raises(FileNotFoundError):
            load_manifest(tmp_path / "m.json")

    def test_degenerate_interval_rejected(self, tmp_path):
        (tmp_path / "m.json").write_text('{"t_start": 0.1, "t_end": 0.1}')
        with pytest.raises(ValueError):
            load_manifest(tmp_path / "m.json")

    @pytest.mark.parametrize(
        "t_start, t_end",
        [("-Infinity", "0.1"), ("0.0", "Infinity"), ("NaN", "0.1")],
        ids=["-inf_start", "inf_end", "nan_start"],
    )
    def test_non_finite_interval_rejected(self, tmp_path, t_start, t_end):
        (tmp_path / "m.json").write_text(f'{{"t_start": {t_start}, "t_end": {t_end}}}')
        with pytest.raises(ValueError):
            load_manifest(tmp_path / "m.json")

    @pytest.mark.parametrize("fields, word", [
        ({"t_end": math.nan}, "finite"),
        ({"t_start": -math.inf}, "finite"),
        ({"t_end": -0.06}, "degenerate"),
        ({"t_start": True}, "t_start must be a number"),
        ({"t_end": "0.1"}, "t_end must be a number"),
        ({"events": 5}, "events must be a path string or null"),
        ({"overrides": [["bins", 3]]}, "overrides must be a JSON object"),
    ], ids=["nan_end", "-inf_start", "degenerate", "bool_start", "str_end", "int_events",
            "list_overrides"])
    def test_manifest_checks_itself(self, tmp_path, fields, word):
        """A manifest load_manifest would refuse cannot be made, so it is never saved."""
        with pytest.raises((TypeError, ValueError), match=word):
            Manifest(**{"t_start": -0.06, "t_end": 0.06, **fields})
        body = json.dumps({"t_start": -0.06, "t_end": 0.06, **fields})
        (tmp_path / "m.json").write_text(body)
        with pytest.raises(FormatError, match=f"m.json: invalid manifest field: .*{word}"):
            load_manifest(tmp_path / "m.json")

    def test_manifest_bounds_are_floats(self):
        manifest = Manifest(t_start=0, t_end=np.float32(0.5))
        assert (type(manifest.t_start), type(manifest.t_end)) == (float, float)
        assert manifest.interval == ExposureInterval(0.0, 0.5)

    def test_bad_json_reports_position(self, tmp_path):
        (tmp_path / "m.json").write_text('{"t_start": 0.0,\n  "t_end": \n}')
        with pytest.raises(ParseError):
            load_manifest(tmp_path / "m.json")


def _write_case(name: str, d: Path, k: int) -> None:
    """Write output ``name`` into directory ``d``; a larger ``k`` writes more bytes."""
    rng = np.random.default_rng(k)
    if name == "events_text":
        write_events(d / "events.txt", random_stream(rng, 40 * k))
    elif name == "events_container":
        write_events(d / "events.evt", random_stream(rng, 40 * k))
    elif name == "f32":
        write_f32(d / "frame.f32", rng.uniform(0, 1, (k, k + 1)))
    elif name == "pgm":
        write_pgm(d / "frame.pgm", rng.uniform(0, 1, (k, k + 1)))
    elif name == "histogram":
        write_histogram(d / "events.h32", EventHistogram(rng.integers(-3, 4, (k, 2, 3)), IV))
    elif name == "video":
        write_video_dir(d / "vid", np.linspace(0.0, 0.1, k), rng.uniform(0, 1, (k, 2, 3)))
    elif name == "polys":
        from scenes import random_poly_grid

        save_polys(d / "polys.npz", random_poly_grid(rng, 2, k, 3, IV))
    elif name == "manifest":
        Manifest(t_start=0.0, t_end=0.1, blurry="b" * k, overrides={"n": k}).save(d / "m.json")
    elif name == "eval_report":
        inputs = d.parent / f"inputs_{k}"
        for video in ("pred", "gt"):
            frames = rng.uniform(0, 1, (k, 11, 12))
            write_video_dir(inputs / video, np.linspace(0.0, 0.1, k), frames)
        argv = ["eval", "--pred", inputs / "pred", "--gt", inputs / "gt", "--report", d / "report.txt"]
        assert ecir.cli.main([str(a) for a in argv]) == 0
    else:
        raise AssertionError(name)


WRITE_CASES = [
    "events_text", "events_container", "f32", "pgm", "histogram", "video", "polys",
    "manifest", "eval_report",
]


def _tree(d: Path) -> dict:
    return {str(p.relative_to(d)): p.read_bytes() for p in sorted(d.rglob("*")) if p.is_file()}


@pytest.fixture
def still_clock(monkeypatch):
    """Stop the clock zipfile stamps an .npz's members with, so two saves match byte for byte."""
    now = time.time()
    monkeypatch.setattr(time, "time", lambda: now)


# the lists that get the (path, mode, flags) of every "open" audit event
_RECORDING = []


def _record_opens(event, args):
    if event == "open":
        for opens in _RECORDING:
            opens.append(args)


sys.addaudithook(_record_opens)  # an audit hook cannot be removed; it records nothing when idle


@contextmanager
def recording_opens():
    """The (path, mode, flags) of each file this process opens inside the block."""
    opens = []
    _RECORDING.append(opens)
    try:
        yield opens
    finally:
        _RECORDING.remove(opens)


class TestOverwrite:
    """Outputs are rewritten in place through one opener and cut to the length written."""

    @pytest.mark.parametrize("name", WRITE_CASES)
    def test_shorter_rewrite_equals_fresh_write(self, tmp_path, still_clock, name):
        rewritten, fresh = tmp_path / "rewritten" / "out", tmp_path / "fresh" / "out"
        rewritten.mkdir(parents=True)
        fresh.mkdir(parents=True)
        _write_case(name, rewritten, 7)
        longer = _tree(rewritten)
        _write_case(name, rewritten, 3)
        _write_case(name, fresh, 3)
        assert _tree(rewritten) == _tree(fresh)
        assert sum(map(len, _tree(fresh).values())) < sum(map(len, longer.values()))

    @pytest.mark.parametrize("name", WRITE_CASES)
    def test_no_output_opened_truncating(self, tmp_path, name):
        out = tmp_path / "out"
        out.mkdir()
        _write_case(name, out, 7)
        with recording_opens() as opens:
            _write_case(name, out, 3)
        # a descriptor (an int) is opened by number, which truncates nothing
        by_path = [(os.fspath(path), mode, flags) for path, mode, flags in opens
                   if not isinstance(path, int)]
        truncating = [
            (path, mode) for path, mode, flags in by_path
            if flags & os.O_TRUNC or (mode is not None and "w" in mode)
        ]
        assert truncating == []
        written = [path for path, mode, flags in by_path if flags & os.O_WRONLY]
        assert written and all(Path(path).is_relative_to(tmp_path) for path in written)

    def test_new_file_has_the_permission_bits_of_open(self, tmp_path):
        with open(tmp_path / "reference", "wb"):
            pass
        expected = stat.S_IMODE(os.stat(tmp_path / "reference").st_mode)
        for name in WRITE_CASES:
            d = tmp_path / name / "out"
            d.mkdir(parents=True)
            _write_case(name, d, 3)
            for path in d.rglob("*"):
                if path.is_file():
                    assert stat.S_IMODE(path.stat().st_mode) == expected, path

    def test_devnull(self):
        write_f32(os.devnull, np.zeros((3, 4)))
        write_events(os.devnull, random_stream(np.random.default_rng(389), 20))
        Manifest(t_start=0.0, t_end=0.1).save(os.devnull)

    def test_symlink_updates_its_target(self, tmp_path):
        target, link = tmp_path / "target.f32", tmp_path / "link.f32"
        target.write_bytes(b"#" * 1000)
        link.symlink_to(target)
        write_f32(link, np.full((2, 3), 0.5))
        write_f32(tmp_path / "fresh.f32", np.full((2, 3), 0.5))
        assert link.is_symlink()
        assert target.read_bytes() == (tmp_path / "fresh.f32").read_bytes()

    def test_exception_keeps_the_bytes_written(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"#" * 100)
        with pytest.raises(RuntimeError, match="stop"):
            with ecir.io._overwrite(path) as fh:
                fh.write(b"new bytes")
                raise RuntimeError("stop")
        assert path.read_bytes() == b"new bytes"

    def test_save_polys_writes_exactly_the_path_given(self, tmp_path):
        from scenes import random_poly_grid

        grid = random_poly_grid(np.random.default_rng(397), 2, 3, 3, IV)
        save_polys(tmp_path / "model", grid)
        assert [p.name for p in tmp_path.iterdir()] == ["model"]
        assert np.array_equal(load_polys(tmp_path / "model").keypoints, grid.keypoints)
