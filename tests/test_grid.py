"""Grid arithmetic tests against brute-force oracles and frozen small cases."""

from __future__ import annotations

import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

import continuum_sums.grid as grid_mod
from continuum_sums.gallery import l_shape, segment
from continuum_sums.grid import (
    CubeOutsideGridError,
    DilationPrecisionError,
    GridGeometry,
    GridSet,
    PackedMask,
    SampledSet,
    Semantics,
    auto_geometry,
    component_count,
    covering_radius,
    dilate_fft,
    dilate_naive,
    eps_density_margin,
    is_grid_continuum,
    measure_estimate,
    minkowski_sum,
    nfold_sum,
    packed_minkowski_sum,
    rasterize,
)

# --- independent oracles -----------------------------------------------------
# Deliberately written from the definitions, sharing no code with the package.


def oracle_dilation_cells(a_occ: np.ndarray, b_occ: np.ndarray) -> set[tuple[int, ...]]:
    """{i + j} by double loop over occupied index tuples."""
    cells_a = [tuple(int(x) for x in c) for c in np.argwhere(a_occ)]
    cells_b = [tuple(int(x) for x in c) for c in np.argwhere(b_occ)]
    return {tuple(i + j for i, j in zip(ca, cb)) for ca in cells_a for cb in cells_b}


#: Oracle distance where the mask has no set cell.
NO_CELL = 2**30


def oracle_chessboard_dt(mask: np.ndarray) -> np.ndarray:
    """O(cells * occupied) scan: min over occupied cells of max |delta|."""
    occ = np.argwhere(mask)
    out = np.full(mask.shape, NO_CELL, dtype=np.int64)
    if occ.shape[0] == 0:
        return out
    for idx in np.ndindex(mask.shape):
        out[idx] = int(np.abs(occ - np.asarray(idx)).max(axis=1).min())
    return out


def oracle_components(mask: np.ndarray) -> set[frozenset[tuple[int, ...]]]:
    """BFS flood fill over face-adjacent occupied cells."""
    offsets = [off for off in product((-1, 0, 1), repeat=mask.ndim) if sum(map(abs, off)) == 1]
    todo = {tuple(int(x) for x in c) for c in np.argwhere(mask)}
    comps = set()
    while todo:
        seed = todo.pop()
        comp = {seed}
        frontier = [seed]
        while frontier:
            cur = frontier.pop()
            for off in offsets:
                nxt = tuple(c + o for c, o in zip(cur, off))
                if nxt in todo:
                    todo.remove(nxt)
                    comp.add(nxt)
                    frontier.append(nxt)
        comps.add(frozenset(comp))
    return comps


# --- strategies ---------------------------------------------------------------

H = 0.5


def grid_pair(max_extent: int = 4) -> st.SearchStrategy[tuple[GridSet, GridSet]]:
    def build(dim: int):
        def one(extents, origin_cells, occ):
            geom = GridGeometry(
                origin=tuple(c * H for c in origin_cells), spacing=H, extents=tuple(extents)
            )
            return GridSet(geom, occ, Semantics.SAMPLE_COVER, slack=0.1)

        def grids(extents_a, extents_b, org_a, org_b):
            return st.tuples(
                arrays(np.bool_, tuple(extents_a)),
                arrays(np.bool_, tuple(extents_b)),
            ).map(lambda occs: (one(extents_a, org_a, occs[0]), one(extents_b, org_b, occs[1])))

        return st.tuples(
            st.lists(st.integers(1, max_extent), min_size=dim, max_size=dim),
            st.lists(st.integers(1, max_extent), min_size=dim, max_size=dim),
            st.lists(st.integers(-3, 3), min_size=dim, max_size=dim),
            st.lists(st.integers(-3, 3), min_size=dim, max_size=dim),
        ).flatmap(lambda t: grids(*t))

    return st.integers(1, 3).flatmap(build)


def single_grid(max_extent: int = 5) -> st.SearchStrategy[GridSet]:
    return grid_pair(max_extent).map(lambda ab: ab[0])


# --- dilation ------------------------------------------------------------------


@given(grid_pair())
def test_dilate_naive_matches_definition(pair):
    a, b = pair
    out = dilate_naive(a, b)
    got = {tuple(int(x) for x in c) for c in out.occupied_indices()}
    assert got == oracle_dilation_cells(a.occupancy, b.occupancy)
    assert out.geometry.origin == tuple(
        x + y for x, y in zip(a.geometry.origin, b.geometry.origin)
    )
    assert out.geometry.extents == tuple(
        p + q - 1 for p, q in zip(a.geometry.extents, b.geometry.extents)
    )


@settings(deadline=None)
@given(grid_pair())
def test_dilate_fft_bit_identical_to_naive(pair):
    a, b = pair
    ref = dilate_naive(a, b)
    out = dilate_fft(a, b)
    assert np.array_equal(out.occupancy, ref.occupancy)
    assert out.geometry == ref.geometry
    assert out.semantics is ref.semantics


def test_dilate_full_squares():
    occ = np.ones((8, 8), dtype=bool)
    geom = GridGeometry(origin=(0.0, 0.0), spacing=1.0, extents=(8, 8))
    a = GridSet(geom, occ, Semantics.SAMPLE_COVER, slack=0.0)
    out = dilate_naive(a, a)
    assert out.geometry.extents == (15, 15)
    assert out.occupancy.all()


def test_dilate_l_shapes():
    # Two L-shaped index sets; the sum fills the expected union of slabs.
    occ = np.zeros((3, 3), dtype=bool)
    occ[0, :] = True
    occ[:, 0] = True
    geom = GridGeometry(origin=(0.0, 0.0), spacing=1.0, extents=(3, 3))
    a = GridSet(geom, occ, Semantics.SAMPLE_COVER, slack=0.0)
    out = dilate_naive(a, a)
    assert {tuple(c) for c in out.occupied_indices()} == oracle_dilation_cells(occ, occ)


def test_dilate_semantics_rules():
    geom = GridGeometry(origin=(0.0,), spacing=0.5, extents=(2,))
    occ = np.array([True, False])
    sc = GridSet(geom, occ, Semantics.SAMPLE_COVER, slack=0.2)
    outer = GridSet(geom, occ, Semantics.OUTER, slack=0.3)
    out = dilate_naive(sc, sc)
    assert out.semantics is Semantics.SAMPLE_COVER
    assert out.slack == pytest.approx(0.2 + 0.2 + 0.5)
    out2 = dilate_naive(outer, outer)
    assert out2.semantics is Semantics.OUTER
    assert out2.slack == pytest.approx(0.3 + 0.3 + 0.5)
    with pytest.raises(ValueError, match="mixed semantics"):
        dilate_naive(sc, outer)


def test_dilate_spacing_mismatch_rejected():
    a = GridSet(
        GridGeometry((0.0,), 0.5, (2,)), np.ones(2, bool), Semantics.SAMPLE_COVER, 0.0
    )
    b = GridSet(
        GridGeometry((0.0,), 0.25, (2,)), np.ones(2, bool), Semantics.SAMPLE_COVER, 0.0
    )
    with pytest.raises(ValueError, match="spacing"):
        dilate_naive(a, b)


def test_fft_guard_on_occupancy_product(monkeypatch):
    # With an exact range of 4 pairs: a full 4-cell grid plus one cell is 4
    # occupied pairs and refuses; one cell plus one cell in 4-cell boxes is
    # 16 box pairs but 1 occupied pair, and sums.
    geom = GridGeometry(origin=(0.0,), spacing=1.0, extents=(4,))
    full = GridSet(geom, np.ones(4, bool), Semantics.SAMPLE_COVER, 0.0)
    dot = GridSet(geom, np.array([True, False, False, False]), Semantics.SAMPLE_COVER, 0.0)
    counted = []
    real = GridSet.occupied_count

    def spy(self):
        counted.append(self)
        return real.fget(self)

    monkeypatch.setattr(grid_mod, "_FFT_EXACT_LIMIT", 4)
    monkeypatch.setattr(GridSet, "occupied_count", property(spy))
    with pytest.raises(DilationPrecisionError):
        dilate_fft(full, dot)
    out = dilate_fft(dot, dot)
    assert np.array_equal(out.occupancy, dilate_naive(dot, dot).occupancy)
    # A box product below the limit bounds the occupied product: no count.
    three = GridSet(GridGeometry((0.0,), 1.0, (3,)), np.ones(3, bool), Semantics.SAMPLE_COVER, 0.0)
    one = GridSet(GridGeometry((0.0,), 1.0, (1,)), np.ones(1, bool), Semantics.SAMPLE_COVER, 0.0)
    counted.clear()
    assert dilate_fft(three, one).occupancy.all()
    assert counted == []


# --- FFT route: self-sums and length-1 axes ---------------------------------------
# Each test here ties dilate_fft to dilate_naive on its operands; none counts
# transforms.


def cover_grid(occ, origin=None) -> GridSet:
    occ = np.asarray(occ, dtype=bool)
    origin = (0.0,) * occ.ndim if origin is None else origin
    return GridSet(GridGeometry(origin, H, occ.shape), occ, Semantics.SAMPLE_COVER, slack=0.1)


def assert_fft_matches_naive(a: GridSet, b: GridSet) -> GridSet:
    ref = dilate_naive(a, b)
    out = dilate_fft(a, b)
    assert out.geometry == ref.geometry
    assert out.semantics is ref.semantics
    assert out.slack == ref.slack
    assert np.array_equal(out.occupancy, ref.occupancy)
    return out


_SELF_SUM_SHAPES = [(17,), (6, 9), (3, 4, 5)]


@pytest.mark.parametrize("shape", _SELF_SUM_SHAPES)
def test_fft_self_sum_of_one_object_matches_naive(shape):
    rng = np.random.default_rng(len(shape))
    a = cover_grid(rng.random(shape) < 0.4, origin=(0.5,) * len(shape))
    assert_fft_matches_naive(a, a)


@pytest.mark.parametrize("shape", _SELF_SUM_SHAPES)
def test_fft_equal_occupancy_in_distinct_rasters_matches_naive(shape):
    rng = np.random.default_rng(10 + len(shape))
    occ = rng.random(shape) < 0.4
    a, b = cover_grid(occ), cover_grid(occ.copy())
    assert a.occupancy is not b.occupancy
    assert_fft_matches_naive(a, b)


def test_fft_equal_occupancy_under_different_origins_adds_origins():
    occ = np.random.default_rng(5).random((7, 11)) < 0.5
    a = cover_grid(occ, origin=(-1.5, 2.0))
    b = cover_grid(occ.copy(), origin=(3.0, -0.5))
    out = assert_fft_matches_naive(a, b)
    assert out.geometry.origin == (1.5, 1.5)


@pytest.mark.parametrize("shape", _SELF_SUM_SHAPES)
def test_fft_equal_extents_different_occupancy_matches_naive(shape):
    rng = np.random.default_rng(20 + len(shape))
    occ = rng.random(shape) < 0.4
    other = occ.copy()
    other.flat[0] = not other.flat[0]
    assert_fft_matches_naive(cover_grid(occ), cover_grid(other))


@pytest.mark.parametrize("shape", [(9, 1), (1, 9), (6, 7, 1), (6, 1, 7), (1, 6, 7)])
def test_fft_length_one_axes_match_naive(shape):
    rng = np.random.default_rng(sum(shape))
    a = cover_grid(rng.random(shape) < 0.5)
    b = cover_grid(rng.random(shape) < 0.5)
    assert_fft_matches_naive(a, a)
    assert_fft_matches_naive(a, b)


@pytest.mark.parametrize(
    "shape_a, shape_b",
    [((1, 5), (4, 5)), ((4, 1), (4, 6)), ((5, 1, 3), (2, 4, 3)), ((1, 1, 6), (3, 2, 1))],
)
def test_fft_operand_of_length_one_where_the_other_is_not(shape_a, shape_b):
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = cover_grid(rng.random(shape_a) < 0.6)
        b = cover_grid(rng.random(shape_b) < 0.6)
        assert_fft_matches_naive(a, b)
        assert_fft_matches_naive(b, a)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_fft_all_length_one_pair(dim):
    for bit_a, bit_b in product((False, True), repeat=2):
        a = cover_grid(np.full((1,) * dim, bit_a), origin=(1.0,) * dim)
        b = cover_grid(np.full((1,) * dim, bit_b), origin=(-0.5,) * dim)
        out = assert_fft_matches_naive(a, b)
        assert out.occupancy.item() == (bit_a and bit_b)
        assert_fft_matches_naive(a, a)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.sampled_from([1, 1, 2, 5]), min_size=1, max_size=3).flatmap(
        lambda extents: st.tuples(
            arrays(np.bool_, tuple(extents)),
            arrays(np.bool_, tuple(extents)),
            st.booleans(),
        )
    )
)
def test_fft_matches_naive_on_thin_and_equal_operands(case):
    occ_a, occ_b, same = case
    a = cover_grid(occ_a, origin=(0.5,) * occ_a.ndim)
    b = cover_grid(occ_a.copy() if same else occ_b, origin=(-1.0,) * occ_a.ndim)
    assert_fft_matches_naive(a, b)


@given(single_grid(), st.integers(1, 5))
@settings(deadline=None)
def test_nfold_matches_chained_dilation(a, n):
    out = nfold_sum(a, n)
    ref = a
    for _ in range(n - 1):
        ref = dilate_naive(ref, a)
    assert np.array_equal(out.occupancy, ref.occupancy)
    assert out.geometry == ref.geometry
    assert out.slack == pytest.approx(ref.slack, abs=1e-12)


def test_nfold_slack_formula():
    geom = GridGeometry(origin=(0.0,), spacing=0.25, extents=(3,))
    a = GridSet(geom, np.ones(3, bool), Semantics.SAMPLE_COVER, slack=0.1)
    for n in (1, 2, 3, 4, 7):
        got = nfold_sum(a, n)
        assert got.slack == pytest.approx(n * 0.1 + (n - 1) * 0.25, abs=1e-12)


# Dense fold inputs: key pairs and run pairs both reach the output cells.
# Full 8x2 grids have one run per row: 16^3 key and 8^3 run pairs against
# 22 * 4 output cells.  Every cell of a checkerboard is its own run: 8^2
# pairs against 7^2 cells.  Isolated cells on a line: 3^2 pairs, 9 cells.
_FULL_8X2 = cover_grid(np.ones((8, 2), bool))
_CHECKER = cover_grid(np.indices((4, 4)).sum(axis=0) % 2 == 0)
_DOTS = cover_grid([1, 0, 1, 0, 1])


def dense_fold(rasters):
    """``dilate_fft`` folded left to right: the dense route of ``minkowski_sum``."""
    acc = rasters[0]
    for r in rasters[1:]:
        acc = dilate_fft(acc, r)
    return acc


class TestSparseSumRoute:
    """``minkowski_sum`` on inputs with fewer key or run pairs than output cells.

    Such inputs take a sparse route (index keys, else row runs); the spies
    make any ``dilate_fft`` or ``dilate_naive`` call fail, and small chunks
    make every fold span several chunks.
    """

    @staticmethod
    def _force_sparse(monkeypatch):
        def refuse(a, b):
            raise AssertionError("dense route taken")

        monkeypatch.setattr(grid_mod, "_SPARSE_CHUNK", 64)
        monkeypatch.setattr(grid_mod, "dilate_fft", refuse)
        monkeypatch.setattr(grid_mod, "dilate_naive", refuse)

    def test_sparse_matches_dense(self, monkeypatch):
        # 22 * 22 * 9 key pairs against 25^3 output cells.
        sets = [
            l_shape(dim=3, budget=24),
            l_shape(dim=3, budget=24),
            segment((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 15),
        ]
        rasters = [rasterize(k, auto_geometry(k.points, 0.125)) for k in sets]
        dense = dense_fold(rasters)
        self._force_sparse(monkeypatch)
        sparse = minkowski_sum(rasters)
        assert sparse.geometry == dense.geometry
        assert np.array_equal(sparse.occupancy, dense.occupancy)
        assert sparse.semantics is dense.semantics
        assert sparse.slack == dense.slack

    def test_repeated_raster_is_keyed_once(self, monkeypatch):
        # 22^3 key pairs against 25^3 output cells.
        k = l_shape(dim=3, budget=24)
        raster = rasterize(k, auto_geometry(k.points, 0.125))
        dense = dense_fold([raster] * 3)
        calls = []
        real = GridSet.occupied_indices

        def spy(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(GridSet, "occupied_indices", spy)
        self._force_sparse(monkeypatch)
        sparse = minkowski_sum([raster] * 3)
        assert len(calls) == 1 and calls[0] is raster
        assert sparse.geometry == dense.geometry
        assert np.array_equal(sparse.occupancy, dense.occupancy)
        assert sparse.semantics is dense.semantics
        assert sparse.slack == dense.slack

    def test_single_raster_passthrough(self):
        k = l_shape(budget=42)
        raster = rasterize(k, auto_geometry(k.points, 0.1))
        assert minkowski_sum([raster]) is raster

    def test_inner_inputs_keep_zero_slack(self, monkeypatch):
        # 2^3 key pairs against 7 * 10 output cells.
        geom = GridGeometry(origin=(0.0, 0.0), spacing=0.5, extents=(3, 4))
        occ = np.zeros((3, 4), dtype=bool)
        occ[0, 0] = occ[2, 3] = True
        inner = GridSet(geom, occ, Semantics.INNER, 0.0)
        dense = dense_fold([inner, inner, inner])
        self._force_sparse(monkeypatch)
        sparse = minkowski_sum([inner, inner, inner])
        assert sparse.semantics is Semantics.INNER and sparse.slack == 0.0
        assert sparse.geometry == dense.geometry
        assert np.array_equal(sparse.occupancy, dense.occupancy)

    def test_empty_summand_gives_empty_sum(self, monkeypatch):
        # An empty summand makes no key pairs, against 7^2 output cells.
        geom = GridGeometry(origin=(0.0, 0.0), spacing=1.0, extents=(3, 3))
        full = GridSet(geom, np.ones((3, 3), bool), Semantics.SAMPLE_COVER, 0.0)
        empty = GridSet(geom, np.zeros((3, 3), bool), Semantics.SAMPLE_COVER, 0.0)
        dense = dense_fold([full, empty, full])
        self._force_sparse(monkeypatch)
        sparse = minkowski_sum([full, empty, full])
        assert sparse.geometry == dense.geometry and not sparse.occupancy.any()

    @pytest.mark.parametrize("sparse", [False, True])
    def test_mixed_inputs_raise_on_both_routes(self, monkeypatch, sparse):
        # Diagonal 2x2 occupancies make fewer key pairs than output cells
        # (8 < 3^2 and 4 < 3^2), filled ones more (64 and 16).
        occ = np.array([[True, False], [False, True]]) if sparse else np.ones((2, 2), bool)
        a = GridSet(GridGeometry((0.0, 0.0), 0.5, (2, 2)), occ, Semantics.SAMPLE_COVER, 0.1)
        coarse = GridSet(GridGeometry((0.0, 0.0), 1.0, (2, 2)), occ, Semantics.SAMPLE_COVER, 0.1)
        outer = GridSet(GridGeometry((0.0, 0.0), 0.5, (2, 2)), occ, Semantics.OUTER, 0.1)
        if sparse:
            self._force_sparse(monkeypatch)
        with pytest.raises(ValueError, match="share spacing"):
            minkowski_sum([a, a, coarse])
        with pytest.raises(ValueError, match="mixed semantics"):
            minkowski_sum([a, outer])

    @staticmethod
    def _count_dense_folds(monkeypatch) -> dict[str, int]:
        calls = {"dilate_fft": 0, "dilate_naive": 0}
        for name in calls:
            real = getattr(grid_mod, name)

            def counting(a, b, name=name, real=real):
                calls[name] += 1
                return real(a, b)

            monkeypatch.setattr(grid_mod, name, counting)
        return calls

    def test_filled_rasters_stay_dense(self, monkeypatch):
        # Full 8x2 grids: 16^3 key pairs and 8^3 run pairs (one run per row)
        # both outnumber the 22 * 4 output cells, so the FFT fold runs.
        calls = self._count_dense_folds(monkeypatch)
        out = minkowski_sum([_FULL_8X2] * 3)
        assert calls == {"dilate_fft": 2, "dilate_naive": 0} and out.occupancy.all()

    def test_dense_fold_refuses_past_the_exact_range(self, monkeypatch):
        # With an exact range of one pair, the first FFT fold refuses and
        # the refusal reaches the caller: no shift-OR fold stands in.
        monkeypatch.setattr(grid_mod, "_FFT_EXACT_LIMIT", 1)
        calls = self._count_dense_folds(monkeypatch)
        with pytest.raises(DilationPrecisionError, match="exact float64 range"):
            minkowski_sum([_FULL_8X2] * 3)
        assert calls == {"dilate_fft": 1, "dilate_naive": 0}

    def test_filled_rows_take_the_run_route(self, monkeypatch):
        # Full 4x4 grids: 16^3 key pairs outnumber the 10^2 output cells, but
        # each row is one run, and 4^3 run pairs do not.
        geom = GridGeometry(origin=(0.0, 0.0), spacing=1.0, extents=(4, 4))
        full = GridSet(geom, np.ones((4, 4), bool), Semantics.SAMPLE_COVER, 0.0)
        dense = dense_fold([full, full, full])
        self._force_sparse(monkeypatch)
        out = minkowski_sum([full, full, full])
        assert out.geometry == dense.geometry and out.occupancy.all()
        assert out.semantics is dense.semantics and out.slack == dense.slack


@st.composite
def sum_operands(draw, max_extent: int = 5) -> list[GridSet]:
    """Two or three 1-D to 3-D grids of one spacing and semantics, empty ones too.

    An operand may be the previous raster object passed again.
    """
    dim = draw(st.integers(1, 3))
    semantics = draw(st.sampled_from(list(Semantics)))
    slack = 0.0 if semantics is Semantics.INNER else 0.1
    rasters: list[GridSet] = []
    for _ in range(draw(st.integers(2, 3))):
        if rasters and draw(st.booleans()):
            rasters.append(rasters[-1])
            continue
        extents = tuple(draw(st.lists(st.integers(1, max_extent), min_size=dim, max_size=dim)))
        cells = draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))
        origin = tuple(c * H for c in cells)
        occ = draw(arrays(np.bool_, extents))
        rasters.append(GridSet(GridGeometry(origin, H, extents), occ, semantics, slack))
    return rasters


def _diagonal(n: int, semantics: Semantics = Semantics.SAMPLE_COVER) -> GridSet:
    slack = 0.0 if semantics is Semantics.INNER else 0.1
    return GridSet(GridGeometry((0.0, 0.0), H, (n, n)), np.eye(n, dtype=bool), semantics, slack)


# Rows of long runs: 21^2 key pairs against 5 * 15 output cells, but two
# runs per row make 6^2 run pairs.
_LONG_RUNS = cover_grid([[1, 1, 1, 0, 1, 1, 1, 1]] * 2 + [[1, 1, 1, 1, 1, 1, 0, 1]])
# A planar raster on an (m, m, 1) grid runs along axis 1.
_FLAT_3D = cover_grid(np.triu(np.ones((5, 5), bool))[:, :, None])
# The last operand has extent 1 on the run axis, so the first fold reaches
# each row's last cell and touching runs join across rows.
_COLUMN = cover_grid([[1], [0], [1]])
# Two rows of two runs: 14^2 and 14^3 key pairs outnumber 3 * 15 and
# 4 * 22 output cells, but 4^2 and 4^3 run pairs do not, so [a, a] and
# [a, a, a] take the run route and fold one runs tuple with itself.
_TWO_RUN_ROWS = cover_grid([[1, 1, 1, 0, 1, 1, 1, 1], [1, 1, 0, 1, 1, 1, 1, 1]])
# Sums three cells wide: at chunk 3 the last run fold's bands are two rows
# high, so a band pair's sums reach into the next band, and at chunk 1 one
# row high.  A self-sum: 7^2 key pairs against 9 * 3 output cells, 5^2 run
# pairs; three operands: 3^2 * 2 key pairs against 4 * 3, 2^2 * 2 run pairs.
_NARROW = cover_grid([[1, 0], [1, 1], [0, 1], [1, 1], [1, 0]])
_CORNER = cover_grid([[1, 1], [0, 1]])
_LATE_RUN = cover_grid([[0] * 8, [1] * 8])
_TWO_CELL_COLUMN = cover_grid([[1], [1]])


@given(sum_operands(), st.sampled_from([1, 3, grid_mod._SPARSE_CHUNK]))
@example([_diagonal(4)] * 2 + [_diagonal(3)], 3)
@example([_diagonal(4), cover_grid(np.zeros((2, 3))), _diagonal(2)], 3)
@example([_diagonal(4, Semantics.INNER)] * 3, 1)
@example([_LONG_RUNS, _LONG_RUNS], 1)
@example([_FLAT_3D, _FLAT_3D], 3)
@example([_LONG_RUNS, _LONG_RUNS, _COLUMN], 1)
@example([_LONG_RUNS, _LONG_RUNS, _COLUMN], 3)
@example([_FULL_8X2] * 3, 3)
@example([_CHECKER, _CHECKER], 1)
@example([_DOTS, _DOTS], 3)
@example([_TWO_RUN_ROWS] * 2, 1)
@example([_TWO_RUN_ROWS] * 2, 3)
@example([_TWO_RUN_ROWS] * 3, 1)
@example([_TWO_RUN_ROWS] * 3, 3)
@example([_NARROW, _NARROW], 1)
@example([_NARROW, _NARROW], 3)
@example([_FLAT_3D, _FLAT_3D], 1)
@example([_CORNER, _CORNER, _TWO_CELL_COLUMN], 1)
@example([_CORNER, _CORNER, _TWO_CELL_COLUMN], 3)
# Four run-route operands, so two folds hand their runs on across band
# edges.  [_CORNER] * 4: 3^4 key pairs against 5^2 output cells, 2^4 run
# pairs, and bands of one row of five at chunks 1 and 3.  Two corners and
# two columns: 3^2 * 2^2 key pairs against 6 * 3 output cells, 2^4 run
# pairs, and bands of two rows of three at chunk 3 (one at chunk 1); the
# runs the second fold hands on end at their row's last cell.
@example([_CORNER] * 4, 1)
@example([_CORNER] * 4, 3)
# An operand whose one run lies in band 1, not band 0, so it is kept as one
# band without a split.  Bands are one row of 15 at chunks 1 and 3.
# [_LATE_RUN] * 2: 8^2 key pairs against 3 * 15 output cells, one run pair,
# landing in band 2.  With _LONG_RUNS: 8 * 21 key pairs against 4 * 15
# cells, 6 run pairs, the late run meeting the long runs' bands 0, 1 and 2.
@example([_LATE_RUN] * 2, 1)
@example([_LATE_RUN] * 2, 3)
@example([_LATE_RUN, _LONG_RUNS], 1)
@example([_LONG_RUNS, _LATE_RUN], 3)
@example([_CORNER, _CORNER, _TWO_CELL_COLUMN, _COLUMN], 1)
@example([_CORNER, _CORNER, _TWO_CELL_COLUMN, _COLUMN], 3)
@settings(deadline=None)
def test_minkowski_sum_matches_naive_fold(rasters, chunk):
    ref = rasters[0]
    for r in rasters[1:]:
        ref = dilate_naive(ref, r)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid_mod, "_SPARSE_CHUNK", chunk)
        out = minkowski_sum(rasters)
    assert out.geometry == ref.geometry
    assert np.array_equal(out.occupancy, ref.occupancy)
    assert out.semantics is ref.semantics
    assert out.slack == ref.slack


def _spy_pair_sums(monkeypatch, chunk: int) -> list[dict]:
    """Record every ``_pair_sums`` call of the sparse routes at chunk size ``chunk``.

    Each record holds the operand sizes, whether both operands are one
    object, and the size of every chunk the call yields.  Dense folds and
    the naive fold are refused, so only the sparse routes run.
    """
    calls: list[dict] = []
    real = grid_mod._pair_sums

    def spy(keys, other):
        call = {"m": len(keys), "n": len(other), "same": keys is other, "chunks": []}
        calls.append(call)
        for c in real(keys, other):
            call["chunks"].append(c.size)
            yield c

    def refuse(a, b):
        raise AssertionError("dense route taken")

    monkeypatch.setattr(grid_mod, "_SPARSE_CHUNK", chunk)
    monkeypatch.setattr(grid_mod, "_pair_sums", spy)
    monkeypatch.setattr(grid_mod, "dilate_fft", refuse)
    monkeypatch.setattr(grid_mod, "dilate_naive", refuse)
    return calls


def _route(monkeypatch) -> list[str]:
    """Name the sparse route each ``minkowski_sum`` call takes."""
    taken: list[str] = []
    for name in ("_key_sum", "_run_sum"):
        real = getattr(grid_mod, name)

        def recording(*args, name=name, real=real):
            taken.append(name)
            return real(*args)

        monkeypatch.setattr(grid_mod, name, recording)
    return taken


# Five full rows of four: 20^2 key pairs outnumber 9 * 7 output cells, but
# 5^2 run pairs (and 5^3 against 13 * 10 for three) do not.
_FIVE_ROWS = cover_grid(np.ones((5, 4), bool))
# Three diagonals of twelve: 34^2 key pairs outnumber 23^2 output cells,
# but 12^2 run pairs do not.  One run a row, and at chunk 16 the last run
# fold's bands are one row high, so every band holds one run.
_THIN_BAND = cover_grid(np.abs(np.subtract.outer(np.arange(12), np.arange(12))) <= 1)


@pytest.mark.parametrize(
    "rasters, route",
    [
        # 6 * 5 key pairs against 10^2 cells; 6^3 against 16^2.
        ([_diagonal(6), _diagonal(5)], "_key_sum"),
        ([_diagonal(6)] * 3, "_key_sum"),
        ([_FIVE_ROWS, cover_grid(np.ones((5, 4), bool))], "_run_sum"),
        ([_FIVE_ROWS] * 3, "_run_sum"),
    ],
    ids=["keys-distinct", "keys-self", "runs-distinct", "runs-self"],
)
def test_sparse_chunks_never_exceed_the_chunk_size(monkeypatch, rasters, route):
    # Every operand has more keys (or runs) than the chunk holds.
    ref = rasters[0]
    for r in rasters[1:]:
        ref = dilate_naive(ref, r)
    taken = _route(monkeypatch)
    calls = _spy_pair_sums(monkeypatch, 4)
    out = minkowski_sum(rasters)
    assert taken == [route]
    assert np.array_equal(out.occupancy, ref.occupancy)
    # The folds form more sums than a chunk holds, and no chunk exceeds it.
    chunks = [size for call in calls for size in call["chunks"]]
    assert sum(chunks) > 4 and max(chunks) <= 4


# 12 keys against 23^2 output cells; 12 runs against 23 * 11.
_TWELVE_DOTS = _diagonal(12)
_TWELVE_ROWS = cover_grid(np.ones((12, 6), bool))


@pytest.mark.parametrize(
    "raster, route",
    [(_TWELVE_DOTS, "_key_sum"), (_TWELVE_ROWS, "_run_sum"), (_THIN_BAND, "_run_sum")],
    ids=["keys", "runs", "runs-thin"],
)
def test_self_sum_forms_each_unordered_pair_once(monkeypatch, raster, route):
    chunk = 16
    ref = dilate_naive(raster, raster)
    taken = _route(monkeypatch)
    calls = _spy_pair_sums(monkeypatch, chunk)
    out = minkowski_sum([raster, raster])
    assert np.array_equal(out.occupancy, ref.occupancy)
    assert taken == [route]
    if route == "_run_sum":
        # The run route sums starts and ends in two calls of one shape, for
        # each pair of bands of output rows.
        assert calls[::2] == calls[1::2]
        calls = calls[::2]
    # The calls that meet themselves hold each of the m keys (or runs) once.
    m = 12
    assert sum(call["m"] for call in calls if call["same"]) == m
    # A chunk spans at most isqrt(chunk) rows, so a call that meets itself
    # repeats at most the pairs of that many rows in each chunk's in-block
    # lower triangle.
    rows = math.isqrt(chunk)
    repeated = sum(len(call["chunks"]) for call in calls if call["same"]) * rows * (rows - 1) // 2
    formed = sum(sum(call["chunks"]) for call in calls)
    assert formed <= m * (m + 1) // 2 + repeated
    assert formed < m * m
    if raster is _THIN_BAND:
        # A band of one run meets itself in one pair.
        assert formed == m * (m + 1) // 2


@pytest.mark.parametrize("raster", [_TWELVE_DOTS, _TWELVE_ROWS], ids=["keys", "runs"])
def test_equal_occupancy_in_distinct_rasters_forms_every_pair(monkeypatch, raster):
    # Identity, not equal values, decides the self-sum.
    twin = cover_grid(raster.occupancy.copy())
    ref = dilate_naive(raster, twin)
    calls = _spy_pair_sums(monkeypatch, 16)
    out = minkowski_sum([raster, twin])
    assert np.array_equal(out.occupancy, ref.occupancy)
    assert calls and not any(call["same"] for call in calls)
    # The run route sums starts and ends in two calls of one shape.
    formed = sum(sum(call["chunks"]) for call in calls)
    assert formed == 12 * 12 * (1 if raster is _TWELVE_DOTS else 2)


def test_run_sum_holds_no_whole_box_difference_array(monkeypatch):
    # Five diagonals of 1025: one run a row, 1025^2 run pairs against 2049^2
    # output cells.  At chunk 16384 the last run fold counts into bands of
    # 15 rows, so the traced peak is the output plus a little; a difference
    # array over the whole box takes 4 bytes a cell more.
    index = np.arange(1025)
    band = cover_grid(np.abs(np.subtract.outer(index, index)) <= 2)
    monkeypatch.setattr(grid_mod, "_SPARSE_CHUNK", 16384)
    taken = _route(monkeypatch)
    tracemalloc.start()
    try:
        out = minkowski_sum([band, band])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert taken == ["_run_sum"]
    cells = out.occupancy.size
    assert cells == 2049**2
    assert peak < 1.5 * cells
    index = np.arange(2049)
    assert np.array_equal(out.occupancy, np.abs(np.subtract.outer(index, index)) <= 4)


# --- the packed sum: oracle is the packed, padded dense sum ----------------------

#: Sink thresholds that force the key route's packed sink, leave the
#: default rule, and force the dense box.
_SINKS = [0, grid_mod._PACKED_SINK_CELLS_PER_PAIR, 10**12]


@st.composite
def packed_sum_cases(draw) -> tuple[list[GridSet], int, int]:
    """Operands of one 1-D to 4-D spacing, a pad of 0-9 cells and a sink threshold.

    Occupied cells are drawn as a few index tuples, so most sums take the
    key route; the forms cover a self-sum of two and of three, distinct
    objects with equal occupancy, distinct operands and an empty operand.
    """
    dim = draw(st.integers(1, 4))
    top = 9 if dim <= 2 else 4

    def operand() -> GridSet:
        extents = tuple(draw(st.lists(st.integers(1, top), min_size=dim, max_size=dim)))
        occ = np.zeros(extents, bool)
        for _ in range(draw(st.integers(0, 6))):
            occ[tuple(draw(st.integers(0, m - 1)) for m in extents)] = True
        return cover_grid(occ)

    a = operand()
    form = draw(st.sampled_from(["self", "self3", "twins", "distinct", "empty"]))
    if form == "self":
        rasters = [a, a]
    elif form == "self3":
        rasters = [a, a, a]
    elif form == "twins":
        rasters = [a, cover_grid(a.occupancy.copy())]
    elif form == "distinct":
        rasters = [a, operand()]
    else:
        rasters = [a, cover_grid(np.zeros(a.occupancy.shape, bool))]
    return rasters, draw(st.integers(0, 9)), draw(st.sampled_from(_SINKS))


def _assert_packed_sum_matches_dense(rasters: list[GridSet], pad: int) -> None:
    dense = minkowski_sum(rasters)
    geometry, cells = packed_minkowski_sum(rasters)
    assert geometry == dense.geometry
    want = PackedMask.pack(dense.occupancy)
    assert cells.shape == want.shape and np.array_equal(cells.bits, want.bits)
    padded = cells.padded(pad)
    want = PackedMask.pack(np.pad(dense.occupancy, pad))
    assert padded.shape == want.shape and np.array_equal(padded.bits, want.bits)


@given(packed_sum_cases())
@example(([_diagonal(12)] * 2, 3, 0))
@example(([_diagonal(12)] * 3, 9, 0))
@example(([_diagonal(12), cover_grid(np.eye(12, dtype=bool))], 5, 0))
@example(([_diagonal(12), cover_grid(np.zeros((4, 4), bool))], 1, 0))
@example(([cover_grid(np.eye(9, dtype=bool)[:, :, None] & np.eye(9, dtype=bool)[:, None, :])] * 3, 7, 0))
@settings(max_examples=300, deadline=None)
def test_packed_sum_matches_packed_dense_sum(case):
    rasters, pad, sink = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid_mod, "_PACKED_SINK_CELLS_PER_PAIR", sink)
        _assert_packed_sum_matches_dense(rasters, pad)


@pytest.mark.parametrize(
    "sink, packs", [(0, 0), (10**12, 1)], ids=["packed-sink", "dense-box"]
)
def test_key_route_sink_decides_whether_a_dense_box_is_packed(monkeypatch, sink, packs):
    # A self-sum of a 12-cell diagonal takes the key route; the packed sink
    # writes its bits with no dense box, hence no pack.
    raster = _diagonal(12)
    taken = _route(monkeypatch)
    packed = []
    real_pack = PackedMask.pack.__func__

    def pack(cls, occupancy):
        packed.append(np.shape(occupancy))
        return real_pack(cls, occupancy)

    monkeypatch.setattr(grid_mod, "_PACKED_SINK_CELLS_PER_PAIR", sink)
    monkeypatch.setattr(PackedMask, "pack", classmethod(pack))
    geometry, cells = packed_minkowski_sum([raster, raster])
    assert taken == ["_key_sum"]
    assert len(packed) == packs
    assert np.array_equal(cells.unpack(), dilate_naive(raster, raster).occupancy)


def test_sparse_tripod_sum_is_born_packed(monkeypatch):
    # The finest tripod sum of the 0.04/0.02/0.01 ladder has hundreds of
    # output cells per pair sum, so the default rule takes the packed sink.
    k = l_shape(3, 63)
    raster = rasterize(k, auto_geometry(k.points, 0.01))
    monkeypatch.setattr(PackedMask, "pack", None)
    geometry, cells = packed_minkowski_sum([raster] * 3)
    monkeypatch.undo()
    assert cells.shape == geometry.extents
    assert np.array_equal(cells.bits, PackedMask.pack(minkowski_sum([raster] * 3).occupancy).bits)


@pytest.mark.parametrize(
    "keys",
    [
        np.random.default_rng(3).integers(-(2**62), 2**62, 5000),
        np.random.default_rng(4).integers(0, 300, 5000),
        np.array([], dtype=np.int64),
        np.array([7], dtype=np.int64),
        np.full(9, -5, dtype=np.int64),
    ],
    ids=["wide", "repeats", "empty", "single", "all-equal"],
)
def test_sorted_distinct_matches_unique(keys):
    got = grid_mod._sorted_distinct(keys)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.unique(keys))


# --- rasterize -------------------------------------------------------------------


def test_rasterize_segment_cell_count():
    pts = np.linspace(0.0, 1.0, 1001).reshape(-1, 1)
    s = SampledSet(pts, density=0.0005)
    geom = auto_geometry(pts, h=0.01)
    out = rasterize(s, geom)
    assert out.semantics is Semantics.SAMPLE_COVER
    assert out.slack == 0.0005
    assert out.occupied_count in (100, 101)


def test_rasterize_upper_boundary_clamps():
    pts = np.array([[0.0], [1.0]])
    s = SampledSet(pts, density=0.5)
    geom = GridGeometry(origin=(0.0,), spacing=0.5, extents=(2,))
    out = rasterize(s, geom)
    assert out.occupancy.tolist() == [True, True]


def test_rasterize_out_of_bounds_names_point():
    s = SampledSet(np.array([[0.5, 3.5]]), density=0.1)
    geom = GridGeometry(origin=(0.0, 0.0), spacing=1.0, extents=(2, 2))
    with pytest.raises(ValueError, match=r"\(0\.5, 3\.5\)"):
        rasterize(s, geom)


def test_rasterize_outer_pads_by_ceil_eps_over_h():
    s = SampledSet(np.array([[0.0, 0.0]]), density=0.025)
    geom = GridGeometry(origin=(0.0, 0.0), spacing=0.01, extents=(1, 1))
    out = rasterize(s, geom, Semantics.OUTER)
    assert out.semantics is Semantics.OUTER
    assert out.slack == 0.025
    assert out.geometry.extents == (7, 7)  # grown by ceil(0.025/0.01) = 3 per side
    assert out.occupancy.all()
    assert np.allclose(out.geometry.origin, (-0.03, -0.03))


def test_rasterize_rejects_inner():
    s = SampledSet(np.array([[0.0]]), density=0.0)
    geom = GridGeometry(origin=(0.0,), spacing=1.0, extents=(1,))
    with pytest.raises(ValueError, match="INNER"):
        rasterize(s, geom, Semantics.INNER)


# --- the point-to-cell rule -------------------------------------------------------


def oracle_cell(geometry: GridGeometry, point: list[float]) -> tuple[int, ...]:
    """One point's cell, coordinate by coordinate: the floor of its offset in
    cells, and the upper face in the last cell."""
    return tuple(
        min(math.floor((x - o) / geometry.spacing), m - 1)
        for x, o, m in zip(point, geometry.origin, geometry.extents)
    )


@pytest.mark.parametrize("seed", range(9))
def test_cells_of_matches_the_cells_rasterize_marks(seed):
    # Random samples, samples on every cell face (interior and outer, exact
    # for the dyadic spacings), the two corners, and negative origins.
    rng = np.random.default_rng(seed)
    dim = 1 + seed % 3
    h = (0.25, 0.1, 0.03)[seed // 3]
    origin = np.round(rng.uniform(-3.0, 1.0, dim), 2)
    extents = rng.integers(1, 9, dim)
    geometry = GridGeometry(tuple(origin.tolist()), h, tuple(extents.tolist()))
    upper = np.asarray(geometry.upper)
    inside = origin + rng.uniform(0.0, 1.0, (40, dim)) * (upper - origin)
    faces = origin + rng.integers(0, extents + 1, (40, dim)) * h
    points = np.clip(np.concatenate([inside, faces, [origin, upper]]), origin, upper)
    cells = geometry.cells_of(points)
    assert cells.dtype == np.int64
    assert [tuple(c) for c in cells.tolist()] == [oracle_cell(geometry, p) for p in points.tolist()]
    assert cells[-1].tolist() == (extents - 1).tolist()
    marked = rasterize(SampledSet(points, 0.0), geometry).occupancy
    assert {tuple(c) for c in np.argwhere(marked).tolist()} == {tuple(c) for c in cells.tolist()}


def test_cells_of_pinned_faces():
    geometry = GridGeometry(origin=(-1.0,), spacing=0.25, extents=(4,))
    points = np.array([[-1.0], [-0.75], [-0.6], [-0.5], [-0.25], [0.0]])
    assert geometry.cells_of(points).ravel().tolist() == [0, 1, 1, 2, 3, 3]


@pytest.mark.parametrize("pad", [0, 1, 3, 17])
@pytest.mark.parametrize("h", [0.3, 0.1, 0.02, 1.0])
def test_padded_equals_auto_geometry_with_padding(pad, h):
    points = np.random.default_rng(7).uniform(-2.3, 1.7, (30, 2))
    got = auto_geometry(points, h).padded(pad)
    assert got == auto_geometry(points, h, pad_cells=pad)
    # The origin is the low corner less pad cells, float for float.
    assert got.origin == tuple(float(x - pad * h) for x in points.min(axis=0))
    spans = (points.max(axis=0) - points.min(axis=0)) / h
    assert got.extents == tuple(math.floor(s) + 1 + 2 * pad for s in spans.tolist())


def test_auto_geometry_counts_the_padding_against_int64():
    # 2**63 - 4095 cells fit int64; 6,000 padding cells push the axis past it.
    points = np.array([[0.0], [2.0**63 - 4096]])
    assert auto_geometry(points, 1.0).extents == (2**63 - 4095,)
    message = r"grid axis 0 needs 9\.22e\+18 cells at h=1, more than int64"
    with pytest.raises(ValueError, match=message):
        auto_geometry(points, 1.0, pad_cells=3000)


@given(grid_pair())
def test_summed_is_the_geometry_of_the_sum(pair):
    # Full grids sum to a full box, so the sum's geometry holds no spare
    # cell; its first lattice point is the sum of the first ones.
    a, b = pair
    full = [
        GridSet(g.geometry, np.ones(g.geometry.extents, bool), Semantics.SAMPLE_COVER) for g in pair
    ]
    geometry = a.geometry.summed(b.geometry)
    for total in (minkowski_sum([a, b]), minkowski_sum(full), dilate_naive(a, b)):
        assert total.geometry == geometry
    assert minkowski_sum(full).occupancy.all()
    assert geometry.origin == tuple(x + y for x, y in zip(a.geometry.origin, b.geometry.origin))
    # Each axis of a sum of n grids spans the extents' total less n - 1 cells.
    three = minkowski_sum([a, b, a]).geometry
    assert three == geometry.summed(a.geometry)
    assert three.extents == tuple(
        sum(e) - 2 for e in zip(a.geometry.extents, b.geometry.extents, a.geometry.extents)
    )


def test_each_once_makes_each_distinct_object_once_in_item_order():
    a, b = SampledSet(np.zeros((1, 1)), 0.0), SampledSet(np.zeros((1, 1)), 0.0)
    calls = []

    def make(item):
        calls.append(item)
        return [len(calls)]

    made = grid_mod.each_once([a, b, a, a], make)
    assert made == [[1], [2], [1], [1]]
    assert len(calls) == 2 and calls[0] is a and calls[1] is b
    assert made[0] is made[2] is made[3] and made[0] is not made[1]


# --- connectivity ----------------------------------------------------------------


@given(single_grid())
def test_components_match_bfs(a):
    assert component_count(a) == len(oracle_components(a.occupancy))


def test_diagonal_pair_adjacency():
    occ = np.eye(2, dtype=bool)
    geom = GridGeometry(origin=(0.0, 0.0), spacing=1.0, extents=(2, 2))
    a = GridSet(geom, occ, Semantics.SAMPLE_COVER, 0.0)
    assert component_count(a) == len(oracle_components(occ)) == 2
    assert not is_grid_continuum(a)


def drawn_mask(shapes: st.SearchStrategy[tuple[int, ...]]) -> st.SearchStrategy[np.ndarray]:
    """A mask of a drawn shape, its cells set with a drawn probability (sparse or dense)."""
    return st.tuples(shapes, st.floats(0.0, 1.0), st.integers(0, 2**32 - 1)).map(
        lambda case: np.random.default_rng(case[2]).random(case[0]) < case[1] ** 2
    )


def sparse_or_dense_mask(max_dim: int = 4, max_extent: int = 6) -> st.SearchStrategy[np.ndarray]:
    """A 1-D to ``max_dim``-D :func:`drawn_mask`."""
    return drawn_mask(
        st.integers(1, max_dim).flatmap(
            lambda dim: st.tuples(*(st.integers(1, max_extent) for _ in range(dim)))
        )
    )


def as_grid(mask: np.ndarray) -> GridSet:
    geom = GridGeometry(origin=(0.0,) * mask.ndim, spacing=1.0, extents=mask.shape)
    return GridSet(geom, mask, Semantics.SAMPLE_COVER, 0.0)


def wrapping_pair() -> np.ndarray:
    # Cell (0, 2, 3) sits on the last index of the middle axis: its key plus
    # that axis's stride is the key of (1, 0, 3), which is not its neighbour.
    mask = np.zeros((2, 3, 4), bool)
    mask[0, 2, 3] = mask[1, 0, 3] = True
    return mask


@settings(max_examples=300, deadline=None)
@given(sparse_or_dense_mask())
@example(np.zeros((3, 4), bool))
@example(np.ones((1,), bool))
@example(np.pad(np.ones((1, 1, 1), bool), 1))
@example(wrapping_pair())
@example(np.eye(5, 7, 2, bool))
@example(np.array([[0, 0, 1], [1, 0, 0]], bool))
def test_component_count_matches_label_oracle(mask):
    expected = ndimage.label(mask, ndimage.generate_binary_structure(mask.ndim, 1))[1]
    assert component_count(as_grid(mask)) == expected
    assert is_grid_continuum(as_grid(mask)) == (expected == 1)


def test_component_roots_are_the_smallest_node_of_each_component():
    # Edges in both directions, repeated, and within one tree.
    first = np.array([5, 1, 2, 7, 2, 4, 4], dtype=np.intp)
    second = np.array([1, 5, 5, 8, 1, 4, 6], dtype=np.intp)
    roots = grid_mod.component_roots(9, first, second)
    assert roots.tolist() == [0, 1, 1, 3, 4, 1, 4, 7, 7]
    assert grid_mod.component_roots(3, first[:0], second[:0]).tolist() == [0, 1, 2]


@settings(max_examples=150, deadline=None)
@given(sparse_or_dense_mask())
@example(np.zeros((2, 3), bool))
@example(np.ones((2, 1, 3), bool))
def test_occupied_cells_equal_argwhere(mask):
    got = as_grid(mask).occupied_indices()
    expected = np.argwhere(mask)
    assert got.dtype == expected.dtype == np.int64
    assert got.shape == expected.shape == (int(mask.sum()), mask.ndim)
    assert np.array_equal(got, expected)


@settings(max_examples=150, deadline=None)
@given(sparse_or_dense_mask(max_dim=3), st.data())
def test_runs_equal_the_former_nonzero_reading(mask, data):
    # The runs along one axis, as the 2-D nonzero of the run edges read them.
    axis = data.draw(st.integers(0, mask.ndim - 1))
    mask = mask[(slice(None),) * (axis + 1) + (slice(0, 1),) * (mask.ndim - axis - 1)]
    weights = np.cumprod((1,) + mask.shape[:0:-1], dtype=np.int64)[::-1]
    rows = mask.reshape(-1, mask.shape[axis])
    row, col = np.nonzero(np.diff(rows, axis=1, prepend=False, append=False))
    row_keys = np.zeros(1, dtype=np.int64)
    for m, w in zip(mask.shape[:axis], weights[:axis]):
        row_keys = (row_keys[:, None] + np.arange(m, dtype=np.int64) * w).ravel()
    keys = row_keys[row] + col
    starts, ends = grid_mod._runs(mask, weights, axis)
    assert np.array_equal(starts, keys[::2]) and np.array_equal(ends, keys[1::2])
    assert starts.dtype == ends.dtype == np.int64


def test_empty_grid_is_not_a_continuum():
    geom = GridGeometry(origin=(0.0,), spacing=1.0, extents=(3,))
    a = GridSet(geom, np.zeros(3, bool), Semantics.SAMPLE_COVER, 0.0)
    assert not is_grid_continuum(a)
    assert component_count(a) == 0


# --- measure ----------------------------------------------------------------------


def test_measure_single_cell():
    geom = GridGeometry(origin=(0.0, 0.0, 0.0), spacing=0.25, extents=(2, 2, 2))
    occ = np.zeros((2, 2, 2), bool)
    occ[0, 0, 0] = True
    a = GridSet(geom, occ, Semantics.OUTER, 0.0)
    assert measure_estimate(a) == pytest.approx(0.25**3)


def test_disk_outer_measure_near_pi():
    # Cells meeting the closed unit disk cover it, so the outer estimate
    # must land in [pi, 1.02 * pi] at h = 0.005.
    h = 0.005
    m = 400
    lo = np.arange(m) * h - 1.0
    hi = lo + h
    near = np.maximum(0.0, np.maximum(lo, -hi))  # per-axis distance from 0 to the interval
    d2 = near[:, None] ** 2 + near[None, :] ** 2
    occ = d2 <= 1.0
    geom = GridGeometry(origin=(-1.0, -1.0), spacing=h, extents=(m, m))
    a = GridSet(geom, occ, Semantics.OUTER, slack=h)
    measure = measure_estimate(a)
    assert measure >= math.pi * (1.0 - 1e-12)
    assert abs(measure - math.pi) <= 0.02 * math.pi


# --- box morphology on packed occupancy -------------------------------------------
# Oracles are thresholds of the brute-force distance transform at the top.
# Extents run past one byte on the packed (last) axis and are rarely
# multiples of 8.


def oracle_box_dilate(mask: np.ndarray, r: int) -> np.ndarray:
    """Cells within sup-norm r of a set cell."""
    return oracle_chessboard_dt(mask) <= r


def oracle_box_erode(mask: np.ndarray, r: int) -> np.ndarray:
    """Cells farther than r from every unset cell, cells past the border unset."""
    unset = np.pad(~mask, 1, constant_values=True)
    return oracle_chessboard_dt(unset)[(slice(1, -1),) * mask.ndim] > r


_PACKED_SHAPES = st.one_of(
    st.tuples(st.integers(1, 40)),
    st.tuples(st.integers(1, 9), st.integers(1, 19)),
    st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 19)),
    st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4), st.integers(1, 19)),
)


def mask_and_radius() -> st.SearchStrategy[tuple[np.ndarray, int]]:
    return _PACKED_SHAPES.flatmap(
        lambda shape: st.tuples(arrays(np.bool_, shape), st.integers(0, max(shape) + 2))
    )


@settings(max_examples=150, deadline=None)
@given(mask_and_radius())
def test_packed_dilate_matches_distance_threshold(case):
    mask, r = case
    got = PackedMask.pack(mask).dilate(r)
    assert got.shape == mask.shape
    assert np.array_equal(got.unpack(), oracle_box_dilate(mask, r))


@settings(max_examples=150, deadline=None)
@given(mask_and_radius())
def test_packed_erode_matches_distance_threshold(case):
    mask, r = case
    got = PackedMask.pack(mask).erode(r)
    assert got.shape == mask.shape
    assert np.array_equal(got.unpack(), oracle_box_erode(mask, r))


@settings(max_examples=150, deadline=None)
@given(_PACKED_SHAPES.flatmap(lambda shape: arrays(np.bool_, shape)))
def test_packed_count_any_first_match_numpy(mask):
    packed = PackedMask.pack(mask)
    assert np.array_equal(packed.unpack(), mask)
    assert packed.count() == int(np.sum(mask))
    assert packed.any() == bool(mask.any())
    if mask.any():
        expected = tuple(int(i) for i in np.unravel_index(int(np.argmax(mask)), mask.shape))
        assert packed.first() == expected
    else:
        assert packed.first() is None


@pytest.mark.parametrize("shape", [(1,), (8,), (13,), (3, 17), (4, 2, 9), (2, 3, 16)])
def test_packed_morphology_on_empty_and_full_masks(shape):
    empty = PackedMask.pack(np.zeros(shape, bool))
    full = PackedMask.pack(np.ones(shape, bool))
    for r in range(0, max(shape) + 3):
        assert not empty.dilate(r).any()
        assert not empty.erode(r).any()
        assert full.dilate(r).count() == math.prod(shape)
        expected = oracle_box_erode(np.ones(shape, bool), r)
        assert np.array_equal(full.erode(r).unpack(), expected)
    # A radius reaching past every axis empties any erosion and spreads one
    # cell over the whole array.
    big = max(shape)
    assert not full.erode(big).any()
    one = np.zeros(shape, bool)
    one[tuple(m // 2 for m in shape)] = True
    assert PackedMask.pack(one).dilate(big).count() == math.prod(shape)


def former_pack(mask: np.ndarray) -> np.ndarray:
    """Packed bits as first built: pack the last axis, then copy the byte axis to the front."""
    packed = np.packbits(mask, axis=-1, bitorder="little")
    return np.ascontiguousarray(np.moveaxis(packed, -1, 0))


@settings(max_examples=150, deadline=None)
@given(_PACKED_SHAPES.flatmap(lambda shape: arrays(np.bool_, shape)))
@example(np.ones((16,), bool))
@example(np.ones((3, 8), bool))
@example(np.eye(4, 9, 5, bool))
@example(np.ones((2, 1, 3, 17), bool))
@example(np.ones((1, 2, 2, 24), bool))
def test_pack_matches_former_transposing_pack(mask):
    # Last axes of whole bytes and ones crossing a byte; the bits must also
    # be C-ordered, as the folds shift them through flat views.
    packed = PackedMask.pack(mask)
    expected = former_pack(mask)
    assert packed.shape == mask.shape
    assert packed.bits.flags.c_contiguous
    assert packed.bits.shape == expected.shape
    assert np.array_equal(packed.bits, expected)


def boxed_mask_and_radius() -> st.SearchStrategy[tuple[np.ndarray, int]]:
    """A mask confined to a random sub-box: the box set, minus sparse holes."""

    def build(shape: tuple[int, ...]) -> st.SearchStrategy[tuple[np.ndarray, int]]:
        def confine(case: tuple[tuple[slice, ...], np.ndarray, int]) -> tuple[np.ndarray, int]:
            box, holes, r = case
            mask = np.zeros(shape, bool)
            mask[box] = ~holes[box]
            return mask, r

        return st.tuples(
            st.tuples(*(_window(m) for m in shape)),
            arrays(np.bool_, shape),
            st.integers(0, max(shape) // 2 + 1),
        ).map(confine)

    return _PACKED_SHAPES.flatmap(build)


@settings(max_examples=200, deadline=None)
@given(boxed_mask_and_radius())
def test_packed_erode_on_a_sub_box_matches_oracle(case):
    mask, r = case
    got = PackedMask.pack(mask).erode(r)
    assert got.shape == mask.shape
    assert np.array_equal(got.unpack(), oracle_box_erode(mask, r))


def test_packed_erode_pinned_bounding_boxes(monkeypatch):
    rng = np.random.default_rng(5)
    cases = []
    # Packed-axis extents that start or end mid-byte, or on byte edges.
    for lo, hi in [(5, 13), (9, 24), (8, 16), (3, 6), (0, 37), (17, 37)]:
        mask = np.zeros((4, 5, 37), bool)
        mask[1:4, 0:5, lo:hi] = rng.random((3, 5, hi - lo)) < 0.95
        cases += [(mask, r) for r in range(0, 4)]
    four = np.zeros((4, 5, 3, 21), bool)
    four[1:4, 1:5, :, 6:19] = True
    cases += [(four, r) for r in range(0, 3)]
    cases += [(np.zeros(shape, bool), 1) for shape in [(1,), (13,), (3, 17), (2, 2, 2, 9)]]
    for mask, r in cases:
        got = PackedMask.pack(mask).erode(r).unpack()
        assert np.array_equal(got, oracle_box_erode(mask, r)), (mask.shape, r)

    # 2r + 1 exceeds the bounding box but not the array: empty, and no fold.
    # The box holds whole bytes on the packed axis: cells 9-11 span 8 cells.
    def refuse(*args):
        raise AssertionError("an erosion wider than the set bytes must not fold")

    monkeypatch.setattr(grid_mod, "_box", refuse)
    thin = np.zeros((9, 21), bool)
    thin[2:5, 3:18] = True
    narrow = np.zeros((9, 9, 30), bool)
    narrow[:, :, 9:12] = True
    for mask, r in [(thin, 2), (thin, 4), (narrow, 4), (np.zeros((7, 7), bool), 1)]:
        assert 2 * r + 1 <= min(mask.shape)
        got = PackedMask.pack(mask).erode(r)
        assert not got.any()
        assert np.array_equal(got.unpack(), oracle_box_erode(mask, r))


def assert_mask_equals(packed: PackedMask, dense: np.ndarray) -> None:
    """``packed`` reads as ``dense`` through every query, whatever box it holds."""
    assert packed.shape == dense.shape
    assert np.array_equal(packed.unpack(), dense)
    assert packed.count() == int(dense.sum())
    assert packed.any() == bool(dense.any())
    first = np.unravel_index(int(np.argmax(dense)), dense.shape) if dense.any() else None
    assert packed.first() == (None if first is None else tuple(int(i) for i in first))
    # A window reaching past the box on every side, and one inside it.
    for window in (
        tuple(slice(m // 3, m - m // 3) for m in dense.shape),
        tuple(slice(m // 2, m // 2 + 1) for m in dense.shape),
    ):
        assert np.array_equal(packed.unpack(window), dense[window])


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(boxed_mask_and_radius(), mask_and_radius()),
    st.integers(0, 3),
    st.sampled_from([1, 5, 40]),
)
@example((np.ones((2, 3, 4, 19), bool), 1), 0, 1)
@example((np.ones((9, 17), bool), 2), 1, 5)
@example((np.pad(np.ones((7, 13), bool), ((1, 1), (2, 2))), 1), 1, 40)
def test_packed_morphology_across_slabs_matches_oracles(case, again, carry):
    # Slabs of a few bytes: every dilation, erosion and count crosses slab
    # edges on the byte axis and on the first lead axis.
    mask, r = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid_mod, "_CARRY_BYTES", carry)
        packed = PackedMask.pack(mask)
        assert_mask_equals(packed, mask)
        assert_mask_equals(PackedMask.pack(mask).dilate_in_place(r), oracle_box_dilate(mask, r))
        assert_mask_equals(packed.dilate(r), oracle_box_dilate(mask, r))
        eroded = packed.erode(r)
        want = oracle_box_erode(mask, r)
        assert_mask_equals(eroded, want)
        # The erosion holds no more than the set's bounding box less r on
        # every lead axis.
        for k, extent in enumerate(eroded.bits.shape[1:]):
            live = np.flatnonzero(mask.any(axis=tuple(j for j in range(mask.ndim) if j != k)))
            assert extent <= max(0, live[-1] - live[0] + 1 - 2 * r) if live.size else extent == 0
        # A result kept on a box erodes further, and refuses dilation and
        # padding; one that holds the whole shape allows them.
        assert_mask_equals(eroded.erode(again), oracle_box_erode(want, again))
        if eroded.bits.shape == PackedMask.pack(want).bits.shape:
            assert_mask_equals(eroded.dilate(again), oracle_box_dilate(want, again))
            assert_mask_equals(eroded.padded(again), np.pad(want, again))
        else:
            with pytest.raises(ValueError, match="kept on a box"):
                eroded.dilate(again)
            with pytest.raises(ValueError, match="kept on a box"):
                eroded.padded(again)
        assert np.array_equal(packed.bits, PackedMask.pack(mask).bits)


def two_blocks_in_two_byte_rows() -> np.ndarray:
    # Byte rows whose set bytes span different lead boxes, so an erosion
    # slab cropped to its own box starts inside the mask's box.
    mask = np.zeros((12, 12, 16), bool)
    mask[0:5, 0:5, 0:8] = True
    mask[6:12, 6:12, 8:16] = True
    return mask


def packed_mask_and_radius() -> st.SearchStrategy[tuple[np.ndarray, int]]:
    """A :func:`drawn_mask` of a packed shape, and a radius."""
    return drawn_mask(_PACKED_SHAPES).flatmap(
        lambda mask: st.tuples(st.just(mask), st.integers(0, max(mask.shape) // 2 + 2))
    )


@settings(max_examples=150, deadline=None)
@given(packed_mask_and_radius(), st.sampled_from([1, 3, 24]), st.sampled_from([1, 8, 2**40]))
@example((np.eye(9, 17, 3, bool), 2), 1, 1)
@example((np.ones((3, 4, 19), bool), 1), 24, 2**40)
@example((np.pad(np.ones((1, 2, 3), bool), ((2, 1), (0, 3), (9, 4))), 2), 3, 8)
@example((two_blocks_in_two_byte_rows(), 1), 1, 8)
def test_live_column_folds_match_oracles(case, carry, share):
    # Slabs of a few bytes send every array past one slab, so dilations take
    # the slab path; a share of 1 gathers the live columns of any mask, one
    # of 2**40 folds every mask densely, and 8 picks by the mask.
    mask, r = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid_mod, "_CARRY_BYTES", carry)
        mp.setattr(grid_mod, "_LIVE_COLUMN_SHARE", share)
        dilated = oracle_box_dilate(mask, r)
        assert_mask_equals(PackedMask.pack(mask).dilate_in_place(r), dilated)
        assert_mask_equals(PackedMask.pack(mask).dilate(r), dilated)
        eroded = PackedMask.pack(mask).erode(r)
        assert_mask_equals(eroded, oracle_box_erode(mask, r))
        assert_mask_equals(eroded.erode(1), oracle_box_erode(oracle_box_erode(mask, r), 1))


@pytest.mark.parametrize("carry", [3, 2**20])
@pytest.mark.parametrize("shape", [(5,), (8,), (17,), (3, 9), (2, 24), (3, 5, 40), (2, 2, 3, 33)])
def test_packed_count_on_contiguous_cropped_and_strided_masks(shape, carry, monkeypatch):
    # Byte counts below, at and past multiples of 8, whole and in slabs of a
    # few bytes; then a box kept on a crop of the lead axes (no cell set
    # outside it) and a view stepping by two along them, neither contiguous.
    monkeypatch.setattr(grid_mod, "_CARRY_BYTES", carry)
    mask = np.random.default_rng(len(shape) + shape[-1]).random(shape) < 0.6
    lead = len(shape) - 1
    if lead:
        mask[(slice(0, 1),) * lead] = False
    packed = PackedMask.pack(mask)
    assert packed.count() == int(mask.sum())
    for step in (1, 2):
        cut = (slice(1, None, step),) * lead
        view = PackedMask(packed.bits[(slice(None),) + cut], shape, (1,) * lead + (0,))
        assert view.count() == int(mask[cut].sum())


def test_packed_unpack_window_matches_slicing():
    rng = np.random.default_rng(3)
    mask = rng.random((6, 7, 29)) < 0.4
    packed = PackedMask.pack(mask)
    for window in [
        (slice(1, 4), slice(0, 7), slice(3, 21)),
        (slice(0, 6), slice(2, 3), slice(8, 16)),
        (slice(5, 6), slice(6, 7), slice(28, 29)),
        (slice(2, 2), slice(0, 7), slice(0, 29)),
    ]:
        assert np.array_equal(packed.unpack(window), mask[window])


@settings(max_examples=150, deadline=None)
@given(
    _PACKED_SHAPES.flatmap(lambda shape: arrays(np.bool_, shape)),
    st.integers(0, 19),
)
def test_packed_padded_matches_packing_padded_mask(mask, pad):
    got = PackedMask.pack(mask).padded(pad)
    expected = PackedMask.pack(np.pad(mask, pad))
    assert got.shape == expected.shape
    assert np.array_equal(got.bits, expected.bits)


def test_packed_padded_rejects_negative_pad():
    with pytest.raises(ValueError, match="pad"):
        PackedMask.pack(np.ones((3, 3), bool)).padded(-1)


def test_packed_rejects_negative_radius():
    packed = PackedMask.pack(np.ones((3, 3), bool))
    with pytest.raises(ValueError, match="radius"):
        packed.dilate(-1)
    with pytest.raises(ValueError, match="radius"):
        packed.erode(-1)


# --- margins as covering dilation radii ----------------------------------------------
# The oracle is the largest brute-force distance over the window.  A bounded
# search gets a limit at or above it, as the sweep guarantees.


def oracle_window_margin(mask: np.ndarray, window: tuple[slice, ...]) -> float:
    worst = int(oracle_chessboard_dt(mask)[window].max())
    return math.inf if worst >= NO_CELL else worst


def _window(extent: int) -> st.SearchStrategy[slice]:
    return st.integers(0, extent - 1).flatmap(
        lambda lo: st.integers(lo + 1, extent).map(lambda hi: slice(lo, hi))
    )


def mask_window_slack() -> st.SearchStrategy[tuple[np.ndarray, tuple[slice, ...], int]]:
    return _PACKED_SHAPES.flatmap(
        lambda shape: st.tuples(
            arrays(np.bool_, shape),
            st.tuples(*(_window(m) for m in shape)),
            st.integers(0, 3),
        )
    )


def assert_margin_matches_oracle(mask: np.ndarray, window: tuple[slice, ...], slack: int) -> float:
    expected = oracle_window_margin(mask, window)
    packed = PackedMask.pack(mask)
    assert covering_radius(packed, window) == expected
    if expected < math.inf:
        assert covering_radius(packed, window, int(expected) + slack) == expected
    return expected


@settings(max_examples=200, deadline=None)
@given(mask_window_slack())
def test_covering_radius_matches_window_max_of_distance(case):
    assert_margin_matches_oracle(*case)


@settings(max_examples=200, deadline=None)
@given(mask_window_slack(), st.integers(0, 4), st.integers(0, 2))
def test_covering_radius_of_a_window_leaving_the_mask_or_its_box(case, pad, r):
    # The window given in the coordinates of a copy padded by ``pad``, less
    # the padding, so it may leave the mask; and the mask kept on the box
    # of its erosion by ``r``, whose bits hold part of the shape only.
    mask, window, slack = case
    padded = np.pad(mask, pad)
    grown = tuple(slice(s.start, s.stop + 2 * pad) for s in window)
    shifted = tuple(slice(s.start - pad, s.stop - pad) for s in grown)
    expected = oracle_window_margin(padded, grown)
    if expected < math.inf:
        assert covering_radius(PackedMask.pack(mask), shifted, int(expected) + slack) == expected
    eroded = oracle_box_erode(mask, r)
    expected = oracle_window_margin(eroded, window)
    if expected < math.inf:
        kept = PackedMask.pack(mask).erode(r)
        assert covering_radius(kept, window, int(expected) + slack) == expected


@settings(max_examples=200, deadline=None)
@given(st.one_of(boxed_mask_and_radius(), mask_and_radius()), st.data())
@example((np.ones((2, 17), bool), 0), None)
def test_all_set_matches_unpacked_window(case, data):
    # Whole masks and erosions kept on a box; windows that start and stop
    # inside one byte, across bytes, and empty ones.
    mask, r = case
    for packed in (PackedMask.pack(mask), PackedMask.pack(mask).erode(r)):
        dense = packed.unpack()
        windows = [tuple(slice(0, m) for m in mask.shape), tuple(slice(1, 1) for _ in mask.shape)]
        if data is not None:
            windows.append(data.draw(st.tuples(*(_window(m) for m in mask.shape))))
        for window in windows:
            assert packed.all_set(window) == bool(dense[window].all()), window


def test_covering_radius_pinned_cases():
    # Empty mask: no radius covers.
    empty = np.zeros((4, 11), bool)
    assert covering_radius(PackedMask.pack(empty), (slice(1, 3), slice(2, 9))) == math.inf
    # A fully set window needs no dilation, bounded or not.
    full = np.zeros((5, 5, 19), bool)
    full[1:4, 1:4, 6:17] = True
    window = (slice(1, 4), slice(1, 4), slice(6, 17))
    assert assert_margin_matches_oracle(full, window, 2) == 0
    assert covering_radius(PackedMask.pack(full), window, 0) == 0
    # Windows touching the array border, where the crop is clamped.
    corner = np.zeros((9, 21), bool)
    corner[8, 20] = True
    assert assert_margin_matches_oracle(corner, (slice(0, 3), slice(0, 4)), 3) == 20
    assert assert_margin_matches_oracle(corner, (slice(6, 9), slice(15, 21)), 0) == 5
    # Extents crossing a byte on the packed axis, for window and crop alike.
    rng = np.random.default_rng(4)
    sparse = rng.random((3, 6, 37)) < 0.04
    for window in [
        (slice(0, 3), slice(1, 5), slice(5, 13)),
        (slice(1, 2), slice(0, 6), slice(7, 9)),
        (slice(0, 3), slice(0, 6), slice(15, 33)),
    ]:
        for slack in (0, 1, 9):
            assert assert_margin_matches_oracle(sparse, window, slack) < math.inf
    # A window of a padded copy, given less the padding, leaves the mask:
    # with a limit, cells outside the mask are empty, as in the padded copy.
    pad = 4
    plane = sparse[1]
    for window in [(slice(-pad, 3), slice(-2, 9)), (slice(2, 6 + pad), slice(30, 37 + pad))]:
        inner = tuple(slice(s.start + pad, s.stop + pad) for s in window)
        expected = oracle_window_margin(np.pad(plane, pad), inner)
        assert 0 < expected < math.inf
        assert covering_radius(PackedMask.pack(np.pad(plane, pad)), inner) == expected
        for limit in (int(expected), int(expected) + 5):
            assert covering_radius(PackedMask.pack(plane), window, limit) == expected


# --- cube coverage and margin --------------------------------------------------------


def cube_coverage(a: GridSet, center, side: float) -> bool:
    """True iff every cell meeting the cube is occupied."""
    cells = grid_mod._cube_cell_range(a.geometry, center, side)
    return bool(a.occupancy[tuple(slice(lo, hi + 1) for lo, hi in cells)].all())


def test_cube_cells_use_interior_overlap():
    geom = GridGeometry(origin=(0.0, 0.0), spacing=1.0, extents=(2, 2))
    occ = np.zeros((2, 2), bool)
    occ[0, 0] = True
    a = GridSet(geom, occ, Semantics.SAMPLE_COVER, 0.0)
    # Cube [0,1]^2 touches the other cells only on their boundary.
    assert cube_coverage(a, (0.5, 0.5), 1.0)
    assert not cube_coverage(a, (1.0, 1.0), 2.0)


def test_cube_margin_full_grid_is_zero():
    geom = GridGeometry(origin=(0.0, 0.0), spacing=0.5, extents=(4, 4))
    a = GridSet(geom, np.ones((4, 4), bool), Semantics.SAMPLE_COVER, 0.0)
    assert eps_density_margin(PackedMask.pack(a.occupancy), a.geometry, (1.0, 1.0), 2.0) == 0.0


def test_cube_margin_checkerboard_is_one_cell():
    m = 4
    occ = (np.add.outer(np.arange(m), np.arange(m)) % 2) == 0
    geom = GridGeometry(origin=(0.0, 0.0), spacing=1.0, extents=(m, m))
    a = GridSet(geom, occ, Semantics.SAMPLE_COVER, 0.0)
    margin = eps_density_margin(PackedMask.pack(a.occupancy), a.geometry, (2.0, 2.0), 4.0)
    assert margin == pytest.approx(1.0)


def test_cube_margin_empty_grid_is_inf():
    geom = GridGeometry(origin=(0.0, 0.0), spacing=1.0, extents=(3, 3))
    a = GridSet(geom, np.zeros((3, 3), bool), Semantics.SAMPLE_COVER, 0.0)
    assert eps_density_margin(PackedMask.pack(a.occupancy), a.geometry, (1.5, 1.5), 3.0) == math.inf


def test_cube_outside_grid_rejected():
    geom = GridGeometry(origin=(0.0, 0.0), spacing=1.0, extents=(2, 2))
    a = GridSet(geom, np.ones((2, 2), bool), Semantics.SAMPLE_COVER, 0.0)
    with pytest.raises(ValueError, match="exceeds"):
        cube_coverage(a, (0.5, 0.5), 10.0)


def test_cube_outside_grid_has_its_own_error_type():
    geom = GridGeometry(origin=(0.0, 0.0), spacing=1.0, extents=(2, 2))
    a = GridSet(geom, np.ones((2, 2), bool), Semantics.SAMPLE_COVER, 0.0)
    with pytest.raises(CubeOutsideGridError):
        eps_density_margin(PackedMask.pack(a.occupancy), a.geometry, (0.5, 0.5), 10.0)
    with pytest.raises(ValueError, match="positive") as info:
        cube_coverage(a, (0.5, 0.5), 0.0)
    assert not isinstance(info.value, CubeOutsideGridError)


# --- misc -----------------------------------------------------------------------------


def test_rasterize_empty_sample_list():
    s = SampledSet(np.empty((0, 2)), density=0.0)
    geom = GridGeometry(origin=(0.0, 0.0), spacing=1.0, extents=(3, 3))
    out = rasterize(s, geom)
    assert out.occupied_count == 0


def test_rasterize_outer_requires_exact_samples():
    s = SampledSet(np.array([[0.5]]), density=0.1, exact=False)
    geom = GridGeometry(origin=(0.0,), spacing=1.0, extents=(1,))
    with pytest.raises(ValueError, match="exact"):
        rasterize(s, geom, Semantics.OUTER)


def test_erode_after_box_dilation_recovers_original():
    # The box erosion of a + box_r by r contains a, cell for cell.
    rng = np.random.default_rng(11)
    occ = rng.random((6, 5)) < 0.4
    geom = GridGeometry(origin=(0.0, 0.0), spacing=1.0, extents=(6, 5))
    a = GridSet(geom, occ, Semantics.OUTER, slack=0.0)
    r = 2
    box_geom = GridGeometry(origin=(-float(r), -float(r)), spacing=1.0, extents=(2 * r + 1, 2 * r + 1))
    box = GridSet(box_geom, np.ones((2 * r + 1, 2 * r + 1), bool), Semantics.OUTER, 0.0)
    fat = dilate_naive(a, box)
    thin = PackedMask.pack(fat.occupancy).erode(r).unpack()
    # fat's grid is offset by -r cells relative to a's.
    assert thin[r : r + 6, r : r + 5][occ].all()


def test_sum_cell_count_product_bound():
    rng = np.random.default_rng(5)
    occ_a = rng.random((7, 7)) < 0.3
    occ_b = rng.random((4, 4)) < 0.5
    geom_a = GridGeometry(origin=(0.0, 0.0), spacing=1.0, extents=(7, 7))
    geom_b = GridGeometry(origin=(0.0, 0.0), spacing=1.0, extents=(4, 4))
    a = GridSet(geom_a, occ_a, Semantics.SAMPLE_COVER, 0.0)
    b = GridSet(geom_b, occ_b, Semantics.SAMPLE_COVER, 0.0)
    out = dilate_naive(a, b)
    assert measure_estimate(out) <= measure_estimate(a) * b.occupied_count + 1e-12


def test_sum_of_connected_grids_is_connected():
    # Random walk blobs are face-connected; so must be their sum.
    rng = np.random.default_rng(9)
    for _ in range(20):
        blobs = []
        for _ in range(2):
            occ = np.zeros((9, 9), bool)
            pos = np.array([4, 4])
            occ[tuple(pos)] = True
            for _ in range(25):
                step = rng.integers(0, 4)
                delta = [(1, 0), (-1, 0), (0, 1), (0, -1)][step]
                pos = np.clip(pos + delta, 0, 8)
                occ[tuple(pos)] = True
            geom = GridGeometry(origin=(0.0, 0.0), spacing=1.0, extents=(9, 9))
            blobs.append(GridSet(geom, occ, Semantics.SAMPLE_COVER, 0.0))
        assert is_grid_continuum(blobs[0])
        assert is_grid_continuum(blobs[1])
        assert is_grid_continuum(dilate_naive(blobs[0], blobs[1]))


def test_cube_margin_center_cell_missing_is_one():
    occ = np.ones((3, 3), bool)
    occ[1, 1] = False
    geom = GridGeometry(origin=(0.0, 0.0), spacing=1.0, extents=(3, 3))
    a = GridSet(geom, occ, Semantics.SAMPLE_COVER, 0.0)
    margin = eps_density_margin(PackedMask.pack(a.occupancy), a.geometry, (1.5, 1.5), 3.0)
    assert margin == pytest.approx(1.0)


def test_auto_geometry_covers_points_with_padding():
    pts = np.array([[0.05, -0.3], [0.95, 0.7]])
    geom = auto_geometry(pts, h=0.1, pad_cells=2)
    assert geom.contains_point((0.05, -0.3))
    assert geom.contains_point((0.95, 0.7))
    assert np.allclose(geom.origin, (0.05 - 0.2, -0.3 - 0.2))


@pytest.mark.parametrize("far", [1e200, 1e307])
def test_auto_geometry_refuses_an_extent_past_int64(far):
    pts = np.array([[0.0, 0.0], [1.0, far]])
    with pytest.raises(ValueError, match="grid axis 1 needs .* cells at h=0.001"):
        auto_geometry(pts, h=0.001)
    # An extent that fits an int64 is still accepted.
    span = float(2**62)
    assert auto_geometry(np.array([[0.0], [span]]), h=1.0).extents == (2**62 + 1,)


def test_sampled_set_linear_image_scales_density():
    s = SampledSet(np.array([[1.0, 0.0]]), density=0.1)
    mat = np.array([[2.0, 1.0], [0.0, 1.0]])
    out = s.linear_image(mat)
    assert out.density == pytest.approx(0.3)  # max row abs sum = 3
    assert np.allclose(out.points, [[2.0, 0.0]])

