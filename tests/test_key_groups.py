"""``key_groups``, the one packed sort behind every pixel grouping, against its oracles.

The order must be ``np.argsort(keys, kind="stable")`` and the bounds the
cumulative ``np.bincount``, for every key type a caller passes and at the
sizes where the packed index widens by a bit.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecir.types import key_groups

DTYPES = [np.uint16, np.int32, np.int64]


def assert_groups(keys, m):
    order, start, end = key_groups(keys, m)
    expected = np.argsort(keys, kind="stable")
    assert order.dtype == expected.dtype
    assert np.array_equal(order, expected)
    counts = np.bincount(keys, minlength=m)
    assert np.array_equal(end, np.cumsum(counts))
    assert np.array_equal(start, end - counts)


# n at, just below and just past powers of two, where the index's bit count changes
EDGE_SIZES = sorted({0, 1, 2, 3} | {k + d for e in range(2, 12) for k in [2**e] for d in (-1, 0, 1)})


@st.composite
def key_arrays(draw):
    """Keys in [0, m) of one dtype: random, all equal, or piled on m - 1."""
    dtype = draw(st.sampled_from(DTYPES))
    m = draw(st.integers(1, np.iinfo(dtype).max if dtype == np.uint16 else 3000))
    n = draw(st.one_of(st.sampled_from(EDGE_SIZES), st.integers(0, 3000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "equal", "top", "few"]))
    if kind == "random":
        keys = rng.integers(0, m, n)
    elif kind == "equal":
        keys = np.full(n, rng.integers(0, m))
    elif kind == "top":
        keys = np.where(rng.random(n) < 0.5, m - 1, rng.integers(0, m, n))
    else:
        keys = rng.choice(np.unique(rng.integers(0, m, 3)), n)
    return keys.astype(dtype), m


@settings(max_examples=400, deadline=None)
@given(case=key_arrays())
def test_matches_stable_argsort_and_bincount_bounds(case):
    keys, m = case
    assert_groups(keys, m)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", EDGE_SIZES)
def test_index_widths(dtype, n):
    """Distinct keys counting down, so every entry moves; all keys equal, at 0 and at m - 1."""
    assert_groups(np.arange(n)[::-1].astype(dtype), n + 1)
    assert_groups(np.zeros(n, dtype=dtype), 1)
    assert_groups(np.full(n, 6, dtype=dtype), 7)


@pytest.mark.parametrize("m, n", [(2**48 + 1, 2**15 + 1), (2**61, 5), (2**62 + 1, 2)])
def test_refused_past_63_bits_before_allocating(m, n):
    """Key bits plus index bits beyond 63 raise, with nothing stream-sized allocated."""
    keys = np.zeros(n, dtype=np.int64)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        with pytest.raises(ValueError, match="63 bits"):
            key_groups(keys, m)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < max(keys.nbytes // 4, 4096)
