"""Raw ``.f32`` and ``.h32`` files built byte by byte, bypassing the library's writers.

The writers refuse NaN and inf, so a test of a reader's refusal writes its
non-finite payload through these instead.
"""

import struct
from pathlib import Path

import numpy as np


def write_raw_f32(path, frame) -> None:
    """``frame`` as an ``.f32`` file, its values cast to float32 as they stand."""
    h, w = np.shape(frame)
    payload = np.asarray(frame, "<f4").tobytes()
    Path(path).write_bytes(b"ECIRF32\x00" + struct.pack("<II", w, h) + payload)


def write_raw_h32(path, bins) -> None:
    """``bins`` (m, h, w) as an ``.h32`` file, its values cast to float32 as they stand."""
    payload = np.asarray(bins, "<f4").tobytes()
    Path(path).write_bytes(b"ECIRH32\x00" + struct.pack("<III", *np.shape(bins)) + payload)
