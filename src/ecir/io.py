"""File formats: event files, PGM and raw-float frames, videos, manifests.

Events travel in one of two formats, chosen by extension as frames are.
Text, one ``t x y p`` record per line sorted by t, is the interchange
format: diffable and trivially greppable. :func:`read_events` parses it with
one vectorized ``np.loadtxt`` call and passes the table's columns straight
to :class:`~ecir.types.EventStream`, whose own checks (interval, order,
polarity, coordinates, and the grid of the command that reads them,
:meth:`~ecir.types.EventStream.require_grid`) decide whether the events
are valid; the stream narrows x, y and p straight from the table's
columns, so a parse peaks at about 51 bytes an event. A file that
loadtxt or the stream refuses is read again by the line-by-line parser,
the reference for what a valid text file is. That parser only tokenizes:
a line without four fields, or whose fields are not a float and three
integers that fit int64, is a :class:`ParseError` naming it. It states
no event rule: it builds the stream once, and the
:class:`~ecir.types.RecordError` of the first event the stream refuses
becomes a ParseError naming that event's line. Errors are therefore the
same whichever path saw the file first.

Every line format is read through one reader, ``_text_lines``, the only
place such a file is opened and decoded: it yields the fields of each
non-blank line with its number, lines ending as in text mode, and a byte
that is not ASCII (a UTF-8 byte-order mark included) is a ParseError
naming ``<path>:<line>``. :func:`load_manifest` decodes its JSON the same
way and names the line from the byte's offset. ``timestamps.txt`` (one time
a line) and ``cli``'s ``--timestamps`` (times separated by commas or
whitespace) share one timestamp-list tokenizer, ``_timestamp_list``: a token
that is not a float, then ``types._finite``'s refusal (worded with the token,
since ``1e999`` reads as inf), then ``types._increasing``'s, each a
RecordError whose index the file's reader maps to its line.

:func:`write_events` formats text a chunk of lines at a time, byte for
byte as one ``repr``-based line per event would. A chunk's timestamps are
formatted by one ``orjson`` call, whose shortest round-trip digits (Ryu)
are ``repr``'s; the values where ``repr`` switches to its exponent form
(nonzero magnitudes below 1e-4, and 1e16 and above) are formatted by
``repr`` itself. Each line is then joined from the timestamp, table-looked-up
coordinate names and a polarity tail. It formats a stream in
contiguous parts of at least ``EVENT_TEXT_PART`` events on every CPU
(:mod:`ecir._parts`). Forked workers format every part but the first,
each buffering its text (about 30 bytes an event: 9 MB for half of a
600k-event stream). The file takes one stream of bytes from ``_parts``:
the caller's first part chunk by chunk, then the workers' text in order,
so the bytes do not depend on the number of parts; a part whose worker
failed is formatted by the caller, which raises the real error if there
is one. A ``.evt`` file is the binary event container. ``simulate``
writes one beside ``events.txt`` and its manifest names it, so each
``--manifest`` command skips the text parse. An event of
a container that breaks a rule is named by its index, ``"<path>: event
<i>: <message>"``.
:func:`load_manifest` only checks that the events file exists; the command
that needs the events reads them, once, against its own exposure interval.
Frames export either as 8-bit binary PGM (clamped and quantized) or as raw
float32 ``.f32`` for lossless intermediates. :data:`FRAME_FORMATS` maps
each frame suffix to its reader and writer, and is the one list of frame
formats: the dispatch of :func:`read_frame` and :func:`write_frame`, the
files of a frame directory and ``cli``'s ``--format`` choices all come from
it. Voxel histograms are raw float32 ``.h32`` files.

The three raw binary formats share one codec. Each is a ``_Layout``
(:data:`F32`, :data:`H32`, :data:`EVT`): an 8-byte magic, a 7-letter name
and a NUL; a little-endian header of counts; then whole columns in file
order, each of the one shape the counts give:

    ======  =======  ==============  ====================================  =========
    suffix  magic    counts          columns, dtype on disk                shape
    ======  =======  ==============  ====================================  =========
    .f32    ECIRF32  uint32 w, h     frame float32                         (h, w)
    .h32    ECIRH32  uint32 m, h, w  bins float32                          (m, h, w)
    .evt    ECIREVT  uint64 n        t float64, x int32, y int32, p int8   (n,)
    ======  =======  ==============  ====================================  =========

``_read_raw`` checks the magic and the exact size, reads each column
straight into its own array, so no buffer of the whole file is made or
pinned by a view and no column is widened, and refuses a float column
holding NaN or inf: every failure is a :class:`FormatError` naming the
file, and the event for a ``.evt`` value (``_Layout.record``), so bad
values stop at the file boundary. A writer refuses what its
reader refuses: ``_write_raw`` raises a ValueError naming the file, before
it opens it, for a value its column cannot hold (NaN, inf or a value past
float32 in a float column, a coordinate past int32). :func:`write_pgm`
clamps an inf like any value but refuses a NaN, which has no grey level.

Every writer writes exactly the path it is given: :func:`save_polys` adds
no ``.npz`` suffix. Every output is written through one opener,
:func:`_overwrite`, which rewrites an existing file in place and cuts it
to the length written when the write ends. It opens without ``O_TRUNC``:
on ext4, truncating a file that holds data to zero length makes
``close()`` start writeback at once (the ``auto_da_alloc`` heuristic).
Rewriting 64 existing frames of 180x240 ``.f32`` took 8.1 ms that way
against 3.2 ms in place, and 64 fresh files 9.4 against 9.7 ms (ext4,
2 vCPU, medians of 12). An exception mid-write leaves exactly the bytes
written so far, as a truncating open would. A process killed mid-write
(SIGKILL, power loss) can leave the new bytes followed by the old file's
tail, at the old length, where a truncating open would leave a short
file; the binary readers' size checks catch only the latter. :func:`write_video_dir` also
deletes the frame files of the directory that it does not write, so a
shorter video or another format leaves no stale frame behind. Every reader
of a frame directory goes through :func:`video_frames`, which refuses, by
the timestamp-list tokenizer, a ``timestamps.txt`` that is not finite and
strictly increasing and names the line; the writer refuses such times
through the same ``types._increasing`` and ``types._finite`` before it
touches the directory, so it never writes one its readers refuse.

:func:`load_polys` refuses, as a :class:`FormatError` naming the file and
the member, an archive that ``fit`` could not have written: a member that is
not real, an interval bound that is not a scalar, a NaN or infinite value,
or keypoints that break :class:`~ecir.representation.KeypointSet`'s rule
(strictly increasing inside the interval). That rule is checked on the
archive's own (h, w, n) keypoints, once the grid has checked the shapes,
so each pixel's keypoints are one contiguous row.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import stat
import struct
import warnings
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import _parts
from .representation import PolyGrid
from .simulation import EventHistogram
from .types import EventStream, ExposureInterval, RecordError, SharpVideo
from .types import _finite, _increasing, _raising

__all__ = [
    "ParseError",
    "FormatError",
    "read_events",
    "write_events",
    "read_pgm",
    "write_pgm",
    "read_f32",
    "write_f32",
    "read_frame",
    "write_frame",
    "read_histogram",
    "write_histogram",
    "list_frames",
    "read_video_dir",
    "write_video_dir",
    "load_polys",
    "save_polys",
    "Manifest",
    "load_manifest",
]

EVT_SUFFIX = ".evt"
_INT64 = np.iinfo(np.int64)
# lines formatted per write by the text writer. A chunk's Python strings
# take about 170 bytes a line; at 8192 lines, writing 600k events raises the
# peak RSS of simulate by under 2 MB (65536 lines: 11 MB, all at once: 78 MB)
# and runs no slower. The caller streams its part a chunk at a time; a forked
# child buffers its whole part's text (29.4 bytes a line of the dense scene,
# 35 at its peak while formatting), outside the caller's RSS.
EVENT_TEXT_CHUNK = 8192
# fewest events in a part of a text write. A second part costs a fork, the
# child's page faults and the copy of its text through a pipe. Writing the
# dense scene's first n events on 2 CPUs (medians of 31 alternating writes),
# one part against two: n = 49152 took 23.8 against 22.7 ms (break-even),
# 65536 30.5 against 26.6 ms and 131072 60.1 against 46.3 ms. Parts of at
# least 65536 leave a margin for a slower fork.
EVENT_TEXT_PART = 8 * EVENT_TEXT_CHUNK
# when every coordinate is below this, the text writer looks coordinates up in
# a table of their strings instead of calling str on each
_COORD_NAMES = 65536
TIMESTAMPS_FILE = "timestamps.txt"
# the leading bytes np.load dispatches on: a zip (local header or empty
# archive) is an .npz, the .npy magic a single array
ZIP_MAGICS = (b"PK\x03\x04", b"PK\x05\x06")
NPY_MAGIC = b"\x93NUMPY"


class ParseError(ValueError):
    """Malformed text input; carries the offending line number."""

    def __init__(self, path, lineno: int, message: str):
        super().__init__(f"{path}:{lineno}: {message}")
        self.lineno = lineno


class FormatError(ValueError):
    """Bad magic, header, payload size or non-finite payload in a binary file."""


class _Layout(NamedTuple):
    """A raw binary format: its magic, a header of counts, then whole columns.

    ``columns`` are (name, dtype on disk) in file order, and ``shape`` maps
    the header's counts to the shape of every column. ``record`` is the noun
    an error names a :class:`~ecir.types.RecordError`'s index with (an
    ``.evt`` event); the frame formats name none.
    """

    magic: bytes
    counts: struct.Struct
    columns: tuple
    shape: Callable
    record: str = ""


F32 = _Layout(b"ECIRF32\x00", struct.Struct("<II"), (("frame", "<f4"),), lambda w, h: (h, w))
H32 = _Layout(b"ECIRH32\x00", struct.Struct("<III"), (("bins", "<f4"),), lambda *mhw: mhw)
EVT_MAGIC = b"ECIREVT\x00"
EVT = _Layout(EVT_MAGIC, struct.Struct("<Q"),
              (("t", "<f8"), ("x", "<i4"), ("y", "<i4"), ("p", "i1")), lambda n: (n,), "event")


def _format_error(path, exc: ValueError, record: str = "") -> FormatError:
    """``exc`` as a FormatError naming ``path``, and the ``record`` a RecordError points at."""
    where = f" {record} {exc.index}" if record and isinstance(exc, RecordError) else ""
    return FormatError(f"{path}:{where}: {exc}")


def _read_raw(path, layout: _Layout) -> dict:
    """The columns of ``path``, a file in ``layout``, each read into its own array.

    The magic and the exact size are checked before a column is allocated,
    and float columns must be finite; every failure is a FormatError
    naming the file, and a non-finite value of a format of records names
    its record too. No buffer of the whole file is made, and no column is
    widened.
    """
    try:
        with open(path, "rb") as fh:
            fixed = len(layout.magic) + layout.counts.size
            head = fh.read(fixed)
            if len(head) < fixed or not head.startswith(layout.magic):
                raise ValueError(f"bad {layout.magic[:-1].decode()} magic")
            shape = layout.shape(*layout.counts.unpack_from(head, len(layout.magic)))
            itemsize = sum(np.dtype(dtype).itemsize for _, dtype in layout.columns)
            expected, size = fixed + itemsize * math.prod(shape), os.fstat(fh.fileno()).st_size
            if size != expected:
                raise ValueError(f"expected {expected} bytes, got {size}")
            columns = {}
            for name, dtype in layout.columns:
                column = columns[name] = np.empty(shape, dtype)
                if fh.readinto(column.reshape(-1).view(np.uint8)) != column.nbytes:
                    raise ValueError(f"file ended inside the {name} column")
                if column.dtype.kind == "f":
                    _finite(column, name)
    except ValueError as exc:
        raise _format_error(path, exc, layout.record) from None
    return columns


def _write_raw(path, layout: _Layout, counts: tuple, *columns) -> None:
    """Write ``columns``, in ``layout``'s order, after the header of ``counts``.

    A value its column cannot hold (NaN, inf or a value past the float32
    range in a float column, a value past an integer column's range) is a
    ValueError naming the file, raised before the file is opened: a writer
    never writes what :func:`_read_raw` refuses. A float column is checked
    in one pass over its cast payload, and an integer column already in its
    dtype on disk is not checked at all.
    """
    payloads = []
    for (name, disk), values in zip(layout.columns, columns):
        values, disk = np.asarray(values), np.dtype(disk)
        beyond = f"{path}: {name} values exceed the {disk.name} range"
        with _raising(beyond):
            payload = np.ascontiguousarray(values, dtype=disk)
        if disk.kind == "f":
            _finite(payload, f"{path}: {name}")
        elif payload.dtype != values.dtype and not np.array_equal(payload, values):
            raise ValueError(beyond)
        payloads.append(payload)
    with _overwrite(path) as fh:
        fh.write(layout.magic + layout.counts.pack(*counts))
        for payload in payloads:
            fh.write(payload)


@contextmanager
def _overwrite(path, mode: str = "wb", **kwargs):
    """Open ``path`` for writing from its start, without truncating it first.

    ``mode`` and ``kwargs`` go to :func:`open` on the descriptor. On leaving
    the block, normally or by an exception, a regular file longer than the
    position the writes reached is cut there, so it holds exactly the bytes
    written; a device such as ``os.devnull`` is left as it is. A new file
    gets the permission bits ``open(path, "wb")`` would give it.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        fh = open(fd, mode, **kwargs)
    except BaseException:
        os.close(fd)
        raise
    with fh:
        try:
            yield fh
        finally:
            fh.flush()
            end, st = os.lseek(fd, 0, os.SEEK_CUR), os.fstat(fd)
            # a truncate to the current size still costs a metadata update
            if stat.S_ISREG(st.st_mode) and st.st_size != end:
                os.ftruncate(fd, end)


# ---------------------------------------------------------------------------
# events
# ---------------------------------------------------------------------------

EVENT_DTYPE = np.dtype([("t", "f8"), ("x", "i8"), ("y", "i8"), ("p", "i8")])


def read_events(path, interval: ExposureInterval, shape=None) -> EventStream:
    """Read an events file into a sorted stream over ``interval``.

    A ``.evt`` name is read as the binary container, any other as ``t x y p``
    text. A malformed container is a :class:`FormatError` naming the file,
    and an event that breaks one of the stream's rules is named by its
    index: ``"<path>: event <i>: <message>"``. Malformed text is a
    :class:`ParseError` naming the line: the first line that does not
    tokenize, else the line of the first event that breaks the first rule
    the stream checks (membership, order, polarity, coordinates, then the
    (h, w) grid ``shape`` when one is given). Text is checked by the stream
    alone; the line parser runs only on a file that fails there.
    """
    if Path(path).suffix.lower() == EVT_SUFFIX:
        try:
            # the reader's own FormatError is not a RecordError: it passes through
            return _on_grid(EventStream(**_read_raw(path, EVT), interval=interval), shape)
        except RecordError as exc:
            raise _format_error(path, exc, EVT.record) from None
    try:
        with warnings.catch_warnings():
            # Warnings become errors so the line parser decides these files:
            # loadtxt only warns on a file with no records, and numpy 1.x only
            # warns (DeprecationWarning) when it reads a float such as 1.0 into
            # an integer column, which the line parser rejects.
            warnings.simplefilter("error")
            table = np.loadtxt(path, dtype=EVENT_DTYPE, comments=None, ndmin=1, encoding="ascii")
        # the constructor narrows x, y and p straight from the table's strided
        # columns; only t, kept as float64, is copied out whole
        return _on_grid(EventStream(
            table["x"], table["y"], np.ascontiguousarray(table["t"]), table["p"], interval
        ), shape)
    except (ValueError, OSError, Warning):
        return _read_events_lines(path, interval, shape)


def _on_grid(events: EventStream, shape) -> EventStream:
    """``events``, once the stream has checked them against the grid ``shape``, if any."""
    if shape is not None:
        events.require_grid(shape)
    return events


def _text_lines(path, width: int):
    """``(lineno, fields)`` of each non-blank line of the text file ``path``.

    The one place a line format is opened and decoded. Lines end as in text
    mode (``\\n``, ``\\r\\n`` or a lone ``\\r``), and fields are split on
    whitespace. A byte that is not ASCII, or a line without ``width``
    fields, is a :class:`ParseError` naming the line.
    """
    with open(path, "rb") as fh:
        lines = (line for raw in fh for line in raw.splitlines())
        for lineno, line in enumerate(lines, start=1):
            fields = _ascii(path, line, lineno).split()
            if fields and len(fields) != width:
                many = f"{width} fields" if width > 1 else "1 field"
                raise ParseError(path, lineno, f"expected {many}, got {len(fields)}")
            if fields:
                yield lineno, fields


def _ascii(path, data: bytes, lineno: int = 1) -> str:
    """``data``, the text of ``path`` from line ``lineno`` on, decoded as ASCII.

    A byte that is not ASCII is a :class:`ParseError` naming its line.
    """
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = lineno + data.count(b"\n", 0, exc.start)
        raise ParseError(path, line, f"non-ASCII byte 0x{data[exc.start]:02x}") from None


def _int64(token: str) -> int:
    """``int(token)``; a value past int64, the widest column a stream holds, is a ValueError."""
    if _INT64.min <= (value := int(token)) <= _INT64.max:
        return value
    raise ValueError(f"integer {token} outside the int64 range")


def _read_events_lines(path, interval: ExposureInterval, shape=None) -> EventStream:
    """The reference parser: it only tokenizes, one ``t x y p`` record a line.

    A line that does not hold four fields, or whose fields are not a float
    and three integers that fit int64, is a :class:`ParseError` naming it.
    The stream states every event rule, the grid ``shape`` included when
    one is given; the first event it refuses is named by its line.
    """
    xs, ys, ts, ps, lines = [], [], [], [], []
    for lineno, (t, x, y, p) in _text_lines(path, 4):
        try:
            ts.append(float(t))
            xs.append(_int64(x))
            ys.append(_int64(y))
            ps.append(_int64(p))
        except ValueError as exc:
            raise ParseError(path, lineno, str(exc)) from None
        lines.append(lineno)
    try:
        # every value fits int64 or float64
        return _on_grid(EventStream(xs, ys, ts, ps, interval), shape)
    except RecordError as exc:
        raise ParseError(path, lines[exc.index], str(exc)) from None


def write_events(path, events: EventStream) -> None:
    """Write ``events`` as the binary container for a ``.evt`` name, else as text.

    Text is one ``t x y p`` line per event, with ``repr`` keeping timestamps
    round-trip exact. A long stream is formatted in contiguous parts, one
    per usable CPU (:func:`ecir._parts.forked`): forked workers format every
    part but the first, and every part's bytes go to the file in order, so
    the bytes do not depend on the number of parts. A part whose worker
    fails is formatted by the caller. A pixel coordinate beyond the
    container's int32 range is a ValueError, raised before the file is
    opened.
    """
    if Path(path).suffix.lower() == EVT_SUFFIX:
        return _write_raw(path, EVT, (len(events),), events.t, events.x, events.y, events.p)
    # imported here, not with ecir, and before the fork, so children inherit it
    import orjson

    n = len(events)
    top = int(max(events.x.max(), events.y.max())) + 1 if n else 0
    if top <= _COORD_NAMES:
        coord = [" " + str(i) for i in range(top)].__getitem__
    else:
        coord = " {}".format

    def encoded(lo, hi):
        return (text.encode("ascii") for text in _text_chunks(events, lo, hi, coord))

    # fork before the file is opened, so no worker inherits its buffer
    with _parts.forked(_parts.edges(n, EVENT_TEXT_PART), encoded, path) as blocks:
        with _overwrite(path) as fh:
            # writelines drops each chunk before the next is formatted
            fh.writelines(blocks)


def _text_chunks(events: EventStream, lo: int, hi: int, coord):
    """The text lines of ``events[lo:hi]``, ``EVENT_TEXT_CHUNK`` lines a string.

    ``coord`` maps a coordinate to its name with a leading space.
    """
    polarity = {1: " 1\n", -1: " -1\n"}.__getitem__
    for start in range(lo, hi, EVENT_TEXT_CHUNK):
        end = min(start + EVENT_TEXT_CHUNK, hi)
        ts = _time_texts(events.t[start:end])
        parts = [None] * (4 * len(ts))
        parts[0::4] = ts
        parts[1::4] = map(coord, events.x[start:end].tolist())
        parts[2::4] = map(coord, events.y[start:end].tolist())
        parts[3::4] = map(polarity, events.p[start:end].tolist())
        yield "".join(parts)


def _time_texts(t: np.ndarray) -> list[str]:
    """``repr`` of each value of a finite float64 array, from one ``orjson`` call."""
    import orjson

    if not t.size:
        return []
    # orjson reads the buffer of a C-contiguous array only; a stream's t may be a strided view
    t = np.ascontiguousarray(t)
    texts = orjson.dumps(t, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    # repr writes these in exponent form (1e-05, 1e+16), orjson does not (0.00001, 1e16)
    a = np.abs(t)
    for i in np.flatnonzero(((a < 1e-4) & (t != 0)) | (a >= 1e16)).tolist():
        texts[i] = repr(float(t[i]))
    return texts


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

def write_pgm(path, frame: np.ndarray) -> None:
    """8-bit binary PGM; intensities are clamped to [0, 1] and quantized here.

    An infinite value is clamped like any other; a NaN, which has no grey
    level, is a ValueError raised before the file is opened.
    """
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim != 2:
        raise ValueError("frame must be 2-d")
    h, w = frame.shape
    # a NaN sets the cast's invalid flag; an inf is clamped like any value
    with _raising(f"{path}: frame holds NaN values"):
        quantized = np.rint(np.clip(frame, 0.0, 1.0) * 255.0).astype(np.uint8)
    with _overwrite(path) as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(quantized.tobytes())


def read_pgm(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if not data.startswith(b"P5"):
        raise FormatError(f"{path}: not a binary PGM (P5) file")
    # header tokens can be separated by any whitespace and # comments
    tokens, pos = [], 2
    while len(tokens) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError(f"{path}: truncated PGM header")
        tokens.append(data[start:pos])
    # single whitespace after maxval, which a header ending the file lacks
    pos = min(pos + 1, len(data))
    try:
        w, h, maxval = (int(tok) for tok in tokens)
    except ValueError:
        raise FormatError(f"{path}: non-numeric PGM header") from None
    if maxval != 255:
        raise FormatError(f"{path}: only maxval 255 supported, got {maxval}")
    if min(w, h) < 0:
        raise FormatError(f"{path}: negative PGM size {w}x{h}")
    if len(data) - pos < w * h:
        raise FormatError(f"{path}: expected {w * h} pixels, got {len(data) - pos}")
    return np.frombuffer(data, dtype=np.uint8, count=w * h, offset=pos).reshape(h, w) / 255.0


def write_f32(path, frame: np.ndarray) -> None:
    """Raw float32 frame: 16-byte header (magic, w, h), row-major payload.

    NaN, inf or a finite value beyond the float32 range is a ValueError,
    not a file that :func:`read_f32` would refuse.
    """
    frame = np.asarray(frame)
    if frame.ndim != 2:
        raise ValueError("frame must be 2-d")
    h, w = frame.shape
    _write_raw(path, F32, (w, h), frame)


def read_f32(path) -> np.ndarray:
    return _read_raw(path, F32)["frame"].astype(np.float64)


# the frame formats: each suffix's (reader, writer). Every other list of
# formats (frame directories, ``--format``, the messages) is read from here.
FRAME_FORMATS = {".f32": (read_f32, write_f32), ".pgm": (read_pgm, write_pgm)}


def _frame_format(path) -> tuple:
    """The (reader, writer) of ``path``'s suffix, matched without regard to case."""
    suffix = Path(path).suffix.lower()
    if suffix not in FRAME_FORMATS:
        # kept byte for byte, this message names .pgm first
        names = " or ".join(reversed(FRAME_FORMATS))
        raise ValueError(f"unsupported frame extension {suffix!r} (use {names})")
    return FRAME_FORMATS[suffix]


def write_frame(path, frame: np.ndarray) -> None:
    """Dispatch on extension: .pgm quantized, .f32 lossless."""
    _frame_format(path)[1](path, frame)


def read_frame(path) -> np.ndarray:
    return _frame_format(path)[0](path)


# ---------------------------------------------------------------------------
# voxel histograms
# ---------------------------------------------------------------------------

def write_histogram(path, hist: EventHistogram) -> None:
    """Raw float32 bins after the ``ECIRH32`` header (magic, m, h, w).

    NaN, inf or a count beyond the float32 range is a ValueError, not a file
    that :func:`read_histogram` would refuse.
    """
    _write_raw(path, H32, hist.bins.shape, hist.bins)


def read_histogram(path, interval: ExposureInterval) -> EventHistogram:
    return EventHistogram(_read_raw(path, H32)["bins"], interval)


# ---------------------------------------------------------------------------
# video directories
# ---------------------------------------------------------------------------

def _frame_paths(directory: Path) -> list[Path]:
    return sorted(p for p in directory.iterdir() if p.suffix.lower() in FRAME_FORMATS)


def list_frames(directory) -> list[Path]:
    """Frame files in a directory, sorted by name."""
    directory = Path(directory)
    paths = _frame_paths(directory)
    if not paths:
        raise FileNotFoundError(f"{directory}: no {' or '.join(FRAME_FORMATS)} frames")
    return paths


def _timestamp_list(tokens: list[str]) -> np.ndarray:
    """The one timestamp-list tokenizer: ``tokens`` as finite, strictly rising times.

    Each refusal is a :class:`~ecir.types.RecordError` whose index is the
    token's: a token that is not a float, then ``_finite``'s refusal with
    the token (``1e999`` reads as inf), then ``_increasing``'s.
    """
    times = np.empty(len(tokens))
    for i, token in enumerate(tokens):
        try:
            times[i] = float(token)
        except ValueError:
            raise RecordError(f"bad timestamp {token!r}", i) from None
    try:
        _finite(times, "timestamps")
    except RecordError as exc:
        raise RecordError(f"{exc}, got {tokens[exc.index]!r}", exc.index) from None
    _increasing(times, "timestamps")
    return times


def video_frames(path) -> tuple[np.ndarray, list[Path]]:
    """A frame directory's timestamps and frame files, one timestamp a frame.

    Every reader of a frame directory goes through here. A directory
    without a ``timestamps.txt`` (a :func:`write_video_dir` that failed part
    way leaves one so), or with more or fewer frames than timestamps, is
    refused. A line of ``timestamps.txt`` that the timestamp-list tokenizer
    refuses is a :class:`ParseError` naming it.
    """
    directory = Path(path)
    ts_path = directory / TIMESTAMPS_FILE
    if not ts_path.exists():
        raise FileNotFoundError(f"{directory}: missing {TIMESTAMPS_FILE}")
    rows = list(_text_lines(ts_path, 1))
    try:
        times = _timestamp_list([token for _, (token,) in rows])
    except RecordError as exc:
        raise ParseError(ts_path, rows[exc.index][0], str(exc)) from None
    paths = list_frames(directory)
    if len(paths) != len(times):
        raise ValueError(f"{ts_path}: {len(paths)} frames but {len(times)} timestamps")
    return times, paths


def read_video_dir(path) -> SharpVideo:
    """Load a frame directory with a ``timestamps.txt`` (one seconds value per line)."""
    times, paths = video_frames(path)
    # one preallocated stack, filled a frame at a time: no list of frames
    first = read_frame(paths[0])
    frames = np.empty((len(paths),) + first.shape)
    frames[0] = first
    for i, frame_path in enumerate(paths[1:], start=1):
        frame = read_frame(frame_path)
        if frame.shape != first.shape:
            raise ValueError(
                f"{frame_path}: frame shape {frame.shape} differs from "
                f"{paths[0].name}'s {first.shape}"
            )
        frames[i] = frame
    return SharpVideo(times, frames)


def write_video_dir(path, times: np.ndarray, frames, fmt: str = "f32") -> None:
    """Write ``frame_NNNNN.<fmt>`` files and ``timestamps.txt`` into ``path``.

    ``times`` must be finite and rise strictly, as every reader of the
    directory requires, and ``fmt`` must name a frame format; anything else
    is a ValueError before any file is made, removed or written. ``frames`` is a stack or
    any iterable of 2-d frames, such as a generator, one per entry of
    ``times``: one that ends early, or yields a frame past the last time (no
    further frame is taken), is a ValueError. The first frame is taken
    before the directory is made, so a generator that fails on its first
    frame leaves nothing behind either.
    ``timestamps.txt`` is removed before the first frame is written and
    written after the last, so a write that fails part way leaves a
    directory :func:`read_video_dir` refuses, not a mix of new and old
    frames. Any other frame file there, one
    :func:`list_frames` would read, is deleted once every frame is written,
    so the directory reads back as exactly this video.
    """
    directory = Path(path)
    _increasing(times, f"{directory}: timestamps")
    _finite(times, f"{directory}: timestamps")  # an inf rises past every time
    if "." + fmt not in FRAME_FORMATS:
        raise ValueError("fmt must be " + " or ".join(repr(s[1:]) for s in FRAME_FORMATS))
    frames = iter(frames)
    frame = next(frames, None)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / TIMESTAMPS_FILE).unlink(missing_ok=True)
    written = set()
    for index in range(len(times)):
        if frame is None:
            raise ValueError(f"{directory}: {index} frames for {len(times)} timestamps")
        name = f"frame_{index:05d}.{fmt}"
        write_frame(directory / name, frame)
        written.add(name)
        # a generator may build its next frames while the loop would still
        # hold this one, and with it the block it is a view of
        del frame
        frame = next(frames, None)
    if frame is not None:
        raise ValueError(f"{directory}: more frames than its {len(times)} timestamps")
    for stale in _frame_paths(directory):
        if stale.name not in written:
            stale.unlink()
    with _overwrite(directory / TIMESTAMPS_FILE, "w", encoding="ascii") as fh:
        for t in times:
            fh.write(f"{float(t)!r}\n")


# ---------------------------------------------------------------------------
# polynomial grids
# ---------------------------------------------------------------------------

def save_polys(path, grid: PolyGrid) -> None:
    """The grid's (h, w, n) arrays as C-order float64 members, transposed from its planes.

    The archive is written at exactly ``path``, as every writer here writes:
    no ``.npz`` suffix is added.
    """
    with _overwrite(path) as fh:
        np.savez(
            fh,
            keypoints=np.ascontiguousarray(grid.keypoints),
            derivatives=np.ascontiguousarray(grid.derivatives),
            constants=grid.constants,
            t_start=grid.interval.t_start,
            t_end=grid.interval.t_end,
        )


def load_polys(path) -> PolyGrid:
    # a missing or unreadable file raises its own OSError here
    with open(path, "rb") as fh:
        # np.load tries to unpickle whatever is neither a zip nor a .npy file
        magic = fh.read(len(NPY_MAGIC))
        if not (magic.startswith(ZIP_MAGICS) or magic == NPY_MAGIC):
            raise FormatError(f"{path}: not an .npz archive")
        fh.seek(0)
        try:
            data = np.load(fh)
            if isinstance(data, np.ndarray):
                raise FormatError(f"{path}: a single .npy array, not an .npz archive")
            with data:
                arrays = {
                    name: data[name]
                    for name in ("keypoints", "derivatives", "constants", "t_start", "t_end")
                }
        except FormatError:
            raise
        except KeyError as exc:
            raise FormatError(f"{path}: missing array {exc}") from None
        except (
            zipfile.BadZipFile, EOFError, ValueError, NotImplementedError, RuntimeError, OSError
        ) as exc:
            # not a zip, cut short, a member whose payload is shorter than its
            # header says, zip flags (compression method, version, encryption)
            # that zipfile refuses, or an offset that makes it seek before 0
            raise FormatError(f"{path}: corrupt archive: {exc}") from None
    try:
        for name, array in arrays.items():
            if array.dtype.kind not in "biuf":
                raise ValueError(f"{name} must hold real numbers, got {array.dtype}")
            if name.startswith("t_") and array.ndim:
                raise ValueError(f"{name} must be a scalar, got shape {array.shape}")
            _finite(array, name)
        interval = ExposureInterval(float(arrays["t_start"]), float(arrays["t_end"]))
        grid = PolyGrid(arrays["keypoints"], arrays["derivatives"], arrays["constants"], interval)
        # KeypointSet's rule, on the archive's own (h, w, n) keypoints, now known to be 3-d
        _increasing(arrays["keypoints"], "keypoints")
        interval.require(arrays["keypoints"], "keypoints")
        return grid
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

@dataclass
class Manifest:
    """Paths and interval bounds tying one exposure's artifacts together.

    A manifest checks itself when it is made, so :meth:`save` never writes
    one that :func:`load_manifest` refuses: the bounds are real numbers, not
    booleans, that make an :class:`~ecir.types.ExposureInterval` (finite
    and ordered), the path fields are strings or None, and ``overrides`` is
    a dict.
    """

    t_start: float
    t_end: float
    blurry: str | None = None
    events: str | None = None
    gt_video: str | None = None
    overrides: dict = field(default_factory=dict)
    base_dir: Path = field(default_factory=Path)

    def __post_init__(self) -> None:
        for name in ("t_start", "t_end"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"{name} must be a number, got {value!r}")
            setattr(self, name, float(value))
        self.interval  # finite and ordered
        for name in ("blurry", "events", "gt_video"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise TypeError(f"{name} must be a path string or null, got {value!r}")
        if not isinstance(self.overrides, dict):
            raise TypeError(f"overrides must be a JSON object, got {self.overrides!r}")

    @property
    def interval(self) -> ExposureInterval:
        return ExposureInterval(self.t_start, self.t_end)

    def resolve(self, name: str) -> Path | None:
        value = getattr(self, name)
        if value is None:
            return None
        return self.base_dir / value

    def save(self, path) -> None:
        payload = {
            "t_start": self.t_start,
            "t_end": self.t_end,
            "blurry": self.blurry,
            "events": self.events,
            "gt_video": self.gt_video,
            "overrides": self.overrides,
        }
        with _overwrite(path, "w", encoding="ascii") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def load_manifest(path) -> Manifest:
    """Load a manifest: its JSON, its fields as :class:`Manifest` checks them, its files.

    Every referenced file must exist. No referenced file is read here: a
    command reads the ones it uses, so the events are checked against the
    interval of the command that reads them.
    """
    path = Path(path)
    text = _ascii(path, path.read_bytes())
    try:
        # an integer past Python's digit limit is a plain ValueError here, and
        # one past the float range an OverflowError in Manifest
        payload = json.loads(text)
        manifest = Manifest(
            t_start=payload["t_start"],
            t_end=payload["t_end"],
            blurry=payload.get("blurry"),
            events=payload.get("events"),
            gt_video=payload.get("gt_video"),
            overrides=payload.get("overrides", {}),
            base_dir=path.parent,
        )
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, exc.msg) from None
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: invalid manifest field: {exc}") from None
    for name in ("blurry", "events", "gt_video"):
        target = manifest.resolve(name)
        if target is not None and not target.exists():
            raise FileNotFoundError(f"{path}: referenced {name} {target} does not exist")
    return manifest
