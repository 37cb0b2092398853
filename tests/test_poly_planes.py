"""The polynomial kernels on (n, ...) planes, pinned bit for bit to their last-axis oracles.

Every case draws n in {1, 2, 10}, a batch shape that includes the one-pixel
(n,) case, a layout (contiguous planes, a moveaxis view of (..., n), or every
other element of a wider array) and nodes that are spread out, squeezed
together or ulps apart. The arithmetic per element is the oracles', so the
bytes must be too.
"""

import io
import zipfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ecir import ExposureInterval, IntensityPoly, KeypointSet, PolyGrid
from ecir.io import load_polys, save_polys
from ecir.representation import (
    SingularBasisError,
    _antiderivative_planes,
    antiderivative_coeffs,
    horner,
    mean_over_unit_interval,
    newton_coefficients,
    newton_to_monomial,
)

from oracles import (
    oracle_antiderivative_coeffs,
    oracle_horner,
    oracle_newton_coefficients,
    oracle_newton_to_monomial,
    oracle_primitive,
)

CASES = settings(max_examples=80, deadline=None)
IV = ExposureInterval(-0.06, 0.06)
BATCHES = [(), (1,), (3,), (2, 3), (4, 5)]
GRIDS = [(1, 1), (2, 3), (4, 5)]
LAYOUTS = ["contiguous", "moveaxis", "strided"]


def laid_out(last_axis, layout):
    """(n, ...) planes holding ``last_axis`` (..., n): a copy or a non-contiguous view."""
    if layout == "moveaxis":
        return np.moveaxis(last_axis, -1, 0)
    planes = np.ascontiguousarray(np.moveaxis(last_axis, -1, 0))
    if layout == "strided":
        wide = np.zeros((2 * planes.shape[0],) + planes.shape[1:])
        wide[::2] = planes
        return wide[::2]
    return planes


def last(planes):
    return np.moveaxis(planes, 0, -1)


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def node_sets(draw, lo=-1.0, hi=1.0, batches=BATCHES, spacings=("spread", "squeezed", "ulps")):
    """Strictly increasing nodes (*batch, n) in [lo, hi]: spread, squeezed or ulps apart.

    Ulps apart is for tau only: seconds that close map to one tau.
    """
    n = draw(st.sampled_from([1, 2, 10]))
    batch = draw(st.sampled_from(batches))
    spacing = draw(st.sampled_from(spacings))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if spacing == "ulps":
        # 1 to 3 ulps between neighbours, inside one binade below 1.0
        start = rng.uniform(0.5, 0.9, batch + (1,))
        steps = np.cumsum(rng.integers(1, 4, batch + (n,)), axis=-1) - 1
        nodes = start + steps * np.spacing(start)
    else:
        nodes = np.sort(rng.uniform(lo, hi, batch + (n,)), axis=-1)
        if spacing == "squeezed":
            mid = 0.5 * (lo + hi)
            nodes = mid + (nodes - mid) * 1e-9
    assume(n == 1 or np.all(np.diff(nodes, axis=-1) > 0))
    return nodes, rng


@CASES
@given(case=node_sets(), layout=st.sampled_from(LAYOUTS))
def test_newton_and_monomial_match_oracles(case, layout):
    nodes, rng = case
    values = rng.uniform(-5.0, 5.0, nodes.shape)
    newton = newton_coefficients(laid_out(nodes, layout), laid_out(values, layout))
    expected = oracle_newton_coefficients(nodes, values)
    assert same_bytes(last(newton), expected)
    mono = newton_to_monomial(laid_out(nodes, layout), laid_out(expected, layout))
    assert same_bytes(last(mono), oracle_newton_to_monomial(nodes, expected))


@CASES
@given(case=node_sets(), layout=st.sampled_from(LAYOUTS),
       half=st.sampled_from([0.06, 1.0, 3e-7]))
def test_antiderivative_matches_oracle(case, layout, half):
    nodes, rng = case
    mono = rng.standard_normal(nodes.shape) * 10.0 ** rng.integers(-8, 8, nodes.shape)
    expected = oracle_antiderivative_coeffs(mono, half)
    assert same_bytes(last(_antiderivative_planes(laid_out(mono, layout), half)), expected)
    view = last(laid_out(mono, layout))
    assert same_bytes(antiderivative_coeffs(view, half), expected)


@CASES
@given(case=node_sets(), layout=st.sampled_from(LAYOUTS), at=st.sampled_from(["scalar", "batch"]))
def test_horner_matches_oracle(case, layout, at):
    nodes, rng = case
    coeffs = rng.uniform(-2.0, 2.0, nodes.shape)
    x = rng.uniform(-1.0, 1.0) if at == "scalar" else rng.uniform(-1.0, 1.0, nodes.shape[:-1])
    assert same_bytes(horner(last(laid_out(coeffs, layout)), x), oracle_horner(coeffs, x))


@CASES
@given(case=node_sets(), layout=st.sampled_from(LAYOUTS))
def test_horner_at_every_node_matches_oracle(case, layout):
    # fit_polys' broadcast: each pixel's derivative at each of its own
    # keypoints, a view of (n, 1, ...) coefficient planes against (n, ...) nodes
    nodes, rng = case
    coeffs = rng.uniform(-2.0, 2.0, nodes.shape)
    expected = oracle_horner(coeffs[..., None, :], nodes)
    got = horner(last(laid_out(coeffs, layout)[:, None]), laid_out(nodes, layout))
    assert same_bytes(last(got), expected)


GRID_NODES = node_sets(IV.t_start, IV.t_end, GRIDS, ("spread", "squeezed"))


@CASES
@given(case=GRID_NODES, layout=st.sampled_from(LAYOUTS))
def test_grid_primitive_render_and_blur_match_oracles(case, layout):
    keypoints, rng = case
    derivatives = rng.uniform(-5.0, 5.0, keypoints.shape)
    constants = rng.uniform(0.0, 1.0, keypoints.shape[:2])
    # the grid is built from (h, w, n) arrays in the caller's layout
    grid = PolyGrid(last(laid_out(keypoints, layout)), last(laid_out(derivatives, layout)),
                    constants, IV)
    primitive = oracle_primitive(IV, keypoints, derivatives, constants)
    assert same_bytes(grid.primitive_coefficients(), primitive)
    for t in (IV.t_start, 0.013, IV.t_end):
        assert same_bytes(grid.intensity_at(t), oracle_horner(primitive, IV.normalize(t)))
    # the blur product keeps the (h, w, k) layout the oracle's product has
    assert same_bytes(grid.blur(), primitive @ blur_weights(primitive.shape[-1]))
    assert same_bytes(grid.blur(), mean_over_unit_interval(primitive))


@CASES
@given(case=GRID_NODES)
def test_constants_from_blur_match_oracle(case):
    keypoints, rng = case
    derivatives = rng.uniform(-5.0, 5.0, keypoints.shape)
    target = rng.uniform(0.2, 0.8, keypoints.shape[:2])
    grid = PolyGrid(keypoints, derivatives, np.zeros(target.shape), IV, fit_warning=True)
    solved = grid.with_constants_from_blur(target)
    base = oracle_primitive(IV, keypoints, derivatives, np.zeros(target.shape))
    assert same_bytes(solved.constants, target - base @ blur_weights(base.shape[-1]))
    assert solved.fit_warning
    # the solved grid shares the planes and derives its own primitive
    assert np.shares_memory(solved.keypoints, grid.keypoints)
    assert same_bytes(solved.primitive_coefficients(),
                      oracle_primitive(IV, keypoints, derivatives, solved.constants))


@CASES
@given(case=node_sets(IV.t_start, IV.t_end, [()], ("spread", "squeezed")))
def test_one_pixel_is_the_n_case(case):
    keypoints, rng = case
    derivatives = rng.uniform(-5.0, 5.0, keypoints.shape)
    poly = IntensityPoly(KeypointSet(keypoints, IV), derivatives, 0.25)
    assert same_bytes(poly.primitive_coefficients(),
                      oracle_primitive(IV, keypoints, derivatives, 0.25))


def blur_weights(k):
    weights = np.zeros(k)
    weights[0::2] = 1.0 / np.arange(1, k + 1, 2, dtype=np.float64)
    return weights


def test_duplicate_nodes_are_singular_on_planes():
    nodes = np.stack([np.full((2, 3), -0.5), np.full((2, 3), 0.1), np.full((2, 3), 0.1)])
    with pytest.raises(SingularBasisError):
        newton_coefficients(nodes, np.ones_like(nodes))


class TestPolysFileBoundary:
    """The .npz stays (h, w, n) float64 members in C order, whatever the grid holds."""

    @staticmethod
    def members(path):
        with zipfile.ZipFile(path) as z:
            return {info.filename: z.read(info) for info in z.infolist()}

    @staticmethod
    def npy(array):
        buf = io.BytesIO()
        np.lib.format.write_array(buf, np.ascontiguousarray(array), allow_pickle=False)
        return buf.getvalue()

    def grid(self):
        from scenes import random_poly_grid

        return random_poly_grid(np.random.default_rng(419), 5, 7, 10, IV)

    def test_members_are_c_order_h_w_n(self, tmp_path):
        grid = self.grid()
        grid.intensity_at(0.0)  # a grid with its primitive cached writes the same file
        save_polys(tmp_path / "polys.npz", grid)
        members = self.members(tmp_path / "polys.npz")
        assert sorted(members) == sorted(
            ["keypoints.npy", "derivatives.npy", "constants.npy", "t_start.npy", "t_end.npy"]
        )
        for name in ("keypoints", "derivatives", "constants"):
            raw = members[f"{name}.npy"]
            expected = np.ascontiguousarray(getattr(grid, name), dtype=np.float64)
            assert raw == self.npy(expected)
            header = io.BytesIO(raw)
            assert np.lib.format.read_magic(header) == (1, 0)
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(header)
            assert (shape, fortran_order, dtype) == (expected.shape, False, np.dtype("<f8"))

    def test_load_save_round_trip_is_byte_identical(self, tmp_path):
        save_polys(tmp_path / "a.npz", self.grid())
        save_polys(tmp_path / "b.npz", load_polys(tmp_path / "a.npz"))
        assert self.members(tmp_path / "a.npz") == self.members(tmp_path / "b.npz")
