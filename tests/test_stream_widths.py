"""EventStream column widths: int32 coordinates, int8 polarity, int64 where needed.

A narrow stream must give every kernel and writer the same bytes as its
int64 twin: the same events held in the int64 columns streams used before
(built by assigning the columns after construction, which skips narrowing).
"""

import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ecir import BlurryFrame, EventStream, edi_video, keypoint_grid, refine, voxelize
from ecir.io import read_events, write_events
from ecir.simulation import window_counts

from oracles import IV, tie_heavy_streams


def wide_twin(stream):
    """The same events with int64 x, y and p columns."""
    twin = copy.copy(stream)
    twin.x, twin.y, twin.p = (a.astype(np.int64) for a in (stream.x, stream.y, stream.p))
    return twin


class TestColumnWidths:
    def test_narrow_columns(self):
        stream = EventStream([3, 1], [2, 2**31 - 1], [-0.01, 0.02], [1, -1], IV)
        assert (stream.x.dtype, stream.y.dtype, stream.t.dtype, stream.p.dtype) == (
            np.int32, np.int32, np.float64, np.int8,
        )
        assert stream.y.tolist() == [2, 2**31 - 1]

    @pytest.mark.parametrize("big", [2**31, 3_000_000_000, 2**62])
    def test_coordinates_past_int32_stay_int64(self, big):
        stream = EventStream([big, 0], [1, 2], [0.0, 0.01], [1, 1], IV)
        assert stream.x.dtype == np.int64 and stream.x.tolist() == [big, 0]
        assert stream.y.dtype == np.int32

    @pytest.mark.parametrize("bad", [257, -255, 3])
    def test_polarity_checked_before_the_int8_cast(self, bad):
        # 257 and -255 would wrap to +1 and +1 in int8
        with pytest.raises(ValueError, match="polarities must be -1 or \\+1"):
            EventStream([0], [0], [0.0], [bad], IV)

    def test_negative_coordinate_past_int32_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            EventStream([-(2**40)], [0], [0.0], [1], IV)

    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_nan_timestamp_rejected_by_the_constructor(self, where):
        t = [-0.01, 0.0, 0.01]
        t[where] = np.nan
        with pytest.raises(ValueError, match="outside the exposure interval"):
            EventStream([0, 1, 2], [0, 0, 0], t, [1, -1, 1], IV)

    def test_unsorted_message_unchanged(self):
        with pytest.raises(ValueError, match="sorted non-decreasing"):
            EventStream([0, 1], [0, 0], [0.01, 0.0], [1, 1], IV)

    def test_container_columns_read_narrow_and_unpinned(self, tmp_path):
        stream = EventStream([3, 1, 7], [2, 0, 5], [-0.01, 0.0, 0.02], [1, -1, 1], IV)
        write_events(tmp_path / "e.evt", stream)
        back = read_events(tmp_path / "e.evt", IV)
        for name, dtype in (("x", np.int32), ("y", np.int32), ("t", np.float64), ("p", np.int8)):
            column = getattr(back, name)
            assert column.dtype == dtype
            # its own buffer, not a view of the file's bytes
            assert column.flags.owndata
            assert np.array_equal(column, getattr(stream, name))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=tie_heavy_streams(), data=st.data())
def test_narrow_stream_matches_its_int64_twin_bitwise(tmp_path, case, data):
    stream, shape, pool = case
    twin = wide_twin(stream)
    assert twin.x.dtype == twin.y.dtype == twin.p.dtype == np.int64
    assert stream.x.dtype == stream.y.dtype == np.int32 and stream.p.dtype == np.int8
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    m = data.draw(st.integers(1, 12))
    n = data.draw(st.integers(2, 6))
    c = data.draw(st.sampled_from([0.05, 0.2, 0.5]))
    # window edges and frame times on event timestamps, repeats included
    times = np.sort(rng.choice(np.concatenate([pool, [IV.t_start, IV.t_end]]), 5))
    blurry = BlurryFrame(rng.uniform(0.2, 0.8, shape), IV)
    schedule = np.unique(times)
    initial = rng.uniform(0.0, 1.0, (schedule.shape[0],) + shape)

    kernels = {
        "voxelize": lambda s: voxelize(s, m, shape).bins,
        "window_counts": lambda s: np.stack(list(window_counts(s, times, shape))),
        "edi_video": lambda s: edi_video(blurry, s, c, times),
        "keypoint_grid": lambda s: keypoint_grid(s, IV, n, shape),
    }
    if schedule.shape[0] >= 2:
        for solver in ("tridiag", "gd"):
            kernels[solver] = lambda s, sv=solver: refine(initial, s, c, schedule, solver=sv)
    for name, kernel in kernels.items():
        assert kernel(stream).tobytes() == kernel(twin).tobytes(), name

    for suffix in (".txt", ".evt"):
        write_events(tmp_path / ("narrow" + suffix), stream)
        write_events(tmp_path / ("wide" + suffix), twin)
        narrow, wide = (tmp_path / (side + suffix) for side in ("narrow", "wide"))
        assert narrow.read_bytes() == wide.read_bytes()
