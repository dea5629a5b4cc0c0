"""Grid arithmetic tests against brute-force oracles and frozen small cases."""

from __future__ import annotations

import math
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import continuum_sums.grid as grid_mod
from continuum_sums.gallery import l_shape, segment
from continuum_sums.grid import (
    DIST_INF,
    CubeOutsideGridError,
    DilationPrecisionError,
    GridGeometry,
    GridSet,
    PackedMask,
    SampledSet,
    Semantics,
    auto_geometry,
    chessboard_distance_transform,
    connected_components,
    cube_coverage,
    dilate,
    dilate_fft,
    dilate_naive,
    eps_density_margin,
    erode,
    is_grid_continuum,
    measure_estimate,
    minkowski_sum,
    negate,
    nfold_sum,
    rasterize,
    thread_count,
)

# --- independent oracles -----------------------------------------------------
# Deliberately written from the definitions, sharing no code with the package.


def oracle_dilation_cells(a_occ: np.ndarray, b_occ: np.ndarray) -> set[tuple[int, ...]]:
    """{i + j} by double loop over occupied index tuples."""
    cells_a = [tuple(int(x) for x in c) for c in np.argwhere(a_occ)]
    cells_b = [tuple(int(x) for x in c) for c in np.argwhere(b_occ)]
    return {tuple(i + j for i, j in zip(ca, cb)) for ca in cells_a for cb in cells_b}


def oracle_chessboard_dt(mask: np.ndarray) -> np.ndarray:
    """O(cells * occupied) scan: min over occupied cells of max |delta|."""
    occ = np.argwhere(mask)
    out = np.full(mask.shape, int(DIST_INF), dtype=np.int64)
    if occ.shape[0] == 0:
        return out
    for idx in np.ndindex(mask.shape):
        out[idx] = int(np.abs(occ - np.asarray(idx)).max(axis=1).min())
    return out


def oracle_components(mask: np.ndarray, adjacency: str) -> set[frozenset[tuple[int, ...]]]:
    """BFS flood fill over occupied cells."""
    offsets = [
        off
        for off in product((-1, 0, 1), repeat=mask.ndim)
        if any(off) and (adjacency == "chessboard" or sum(abs(o) for o in off) == 1)
    ]
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


@settings(deadline=None)
@given(grid_pair())
def test_dilate_auto_agrees(pair):
    a, b = pair
    assert np.array_equal(dilate(a, b).occupancy, dilate_naive(a, b).occupancy)


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


def test_fft_guard_on_occupancy_product():
    geom = GridGeometry(origin=(0.0,), spacing=1.0, extents=(2,))
    a = GridSet(geom, np.ones(2, bool), Semantics.SAMPLE_COVER, 0.0)
    big = GridSet.__new__(GridSet)  # bypass __post_init__ to fake a huge count
    object.__setattr__(big, "geometry", geom)
    object.__setattr__(big, "occupancy", np.ones(2, bool))
    object.__setattr__(big, "semantics", Semantics.SAMPLE_COVER)
    object.__setattr__(big, "slack", 0.0)
    # Guard math only: 2 occupied cells each is fine, so this must not raise.
    dilate_fft(a, big)
    with pytest.raises(DilationPrecisionError):
        raise DilationPrecisionError("direct")


# --- FFT route: self-sums and length-1 axes ---------------------------------------


def cover_grid(occ, origin=None) -> GridSet:
    occ = np.asarray(occ, dtype=bool)
    origin = (0.0,) * occ.ndim if origin is None else origin
    return GridSet(GridGeometry(origin, H, occ.shape), occ, Semantics.SAMPLE_COVER, slack=0.1)


@pytest.fixture
def forward_shapes(monkeypatch):
    """Shapes of the arrays handed to the forward real transform, in call order."""
    shapes = []
    real = grid_mod._fft

    def rfftn(x, *args, **kwargs):
        shapes.append(x.shape)
        return real.rfftn(x, *args, **kwargs)

    spy = SimpleNamespace(rfftn=rfftn, irfftn=real.irfftn, next_fast_len=real.next_fast_len)
    monkeypatch.setattr(grid_mod, "_fft", spy)
    return shapes


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
def test_fft_self_sum_of_one_object_transforms_once(shape, forward_shapes):
    rng = np.random.default_rng(len(shape))
    a = cover_grid(rng.random(shape) < 0.4, origin=(0.5,) * len(shape))
    assert_fft_matches_naive(a, a)
    assert len(forward_shapes) == 1


@pytest.mark.parametrize("shape", _SELF_SUM_SHAPES)
def test_fft_equal_occupancy_in_distinct_rasters_transforms_once(shape, forward_shapes):
    rng = np.random.default_rng(10 + len(shape))
    occ = rng.random(shape) < 0.4
    a, b = cover_grid(occ), cover_grid(occ.copy())
    assert a.occupancy is not b.occupancy
    assert_fft_matches_naive(a, b)
    assert len(forward_shapes) == 1


def test_fft_equal_occupancy_under_different_origins_adds_origins(forward_shapes):
    occ = np.random.default_rng(5).random((7, 11)) < 0.5
    a = cover_grid(occ, origin=(-1.5, 2.0))
    b = cover_grid(occ.copy(), origin=(3.0, -0.5))
    out = assert_fft_matches_naive(a, b)
    assert len(forward_shapes) == 1
    assert out.geometry.origin == (1.5, 1.5)


@pytest.mark.parametrize("shape", _SELF_SUM_SHAPES)
def test_fft_equal_extents_different_occupancy_transforms_twice(shape, forward_shapes):
    rng = np.random.default_rng(20 + len(shape))
    occ = rng.random(shape) < 0.4
    other = occ.copy()
    other.flat[0] = not other.flat[0]
    assert_fft_matches_naive(cover_grid(occ), cover_grid(other))
    assert len(forward_shapes) == 2


@pytest.mark.parametrize("shape", [(9, 1), (1, 9), (6, 7, 1), (6, 1, 7), (1, 6, 7)])
def test_fft_drops_length_one_axes(shape, forward_shapes):
    rng = np.random.default_rng(sum(shape))
    a = cover_grid(rng.random(shape) < 0.5)
    b = cover_grid(rng.random(shape) < 0.5)
    assert_fft_matches_naive(a, a)
    assert_fft_matches_naive(a, b)
    kept = tuple(m for m in shape if m > 1)
    assert forward_shapes == [kept] * 3


@pytest.mark.parametrize(
    "shape_a, shape_b",
    [((1, 5), (4, 5)), ((4, 1), (4, 6)), ((5, 1, 3), (2, 4, 3)), ((1, 1, 6), (3, 2, 1))],
)
def test_fft_operand_of_length_one_where_the_other_is_not(shape_a, shape_b, forward_shapes):
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


class TestSparseSumRoute:
    """``minkowski_sum`` forced onto the sparse index-key route."""

    @staticmethod
    def _force_sparse(monkeypatch):
        def refuse(a, b):
            raise AssertionError("dense route taken")

        monkeypatch.setattr(grid_mod, "_DENSE_SUM_LIMIT", 1)
        monkeypatch.setattr(grid_mod, "_SPARSE_CHUNK", 64)
        monkeypatch.setattr(grid_mod, "dilate", refuse)

    def test_sparse_matches_dense(self, monkeypatch):
        sets = [
            l_shape(dim=3, budget=24),
            l_shape(dim=3, budget=24),
            segment((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 15),
        ]
        rasters = [rasterize(k, auto_geometry(k.points, 0.125)) for k in sets]
        dense = minkowski_sum(rasters)
        self._force_sparse(monkeypatch)
        sparse = minkowski_sum(rasters)
        assert sparse.geometry == dense.geometry
        assert np.array_equal(sparse.occupancy, dense.occupancy)
        assert sparse.semantics is dense.semantics
        assert sparse.slack == dense.slack

    def test_single_raster_passthrough(self):
        k = l_shape(budget=42)
        raster = rasterize(k, auto_geometry(k.points, 0.1))
        assert minkowski_sum([raster]) is raster

    def test_inner_inputs_keep_zero_slack(self, monkeypatch):
        geom = GridGeometry(origin=(0.0, 0.0), spacing=0.5, extents=(3, 4))
        occ = np.zeros((3, 4), dtype=bool)
        occ[0, 0] = occ[2, 3] = True
        inner = GridSet(geom, occ, Semantics.INNER, 0.0)
        dense = minkowski_sum([inner, inner, inner])
        self._force_sparse(monkeypatch)
        sparse = minkowski_sum([inner, inner, inner])
        assert sparse.semantics is Semantics.INNER and sparse.slack == 0.0
        assert sparse.geometry == dense.geometry
        assert np.array_equal(sparse.occupancy, dense.occupancy)

    def test_empty_summand_gives_empty_sum(self, monkeypatch):
        geom = GridGeometry(origin=(0.0, 0.0), spacing=1.0, extents=(3, 3))
        full = GridSet(geom, np.ones((3, 3), bool), Semantics.SAMPLE_COVER, 0.0)
        empty = GridSet(geom, np.zeros((3, 3), bool), Semantics.SAMPLE_COVER, 0.0)
        dense = minkowski_sum([full, empty, full])
        self._force_sparse(monkeypatch)
        sparse = minkowski_sum([full, empty, full])
        assert sparse.geometry == dense.geometry and not sparse.occupancy.any()

    @pytest.mark.parametrize("sparse", [False, True])
    def test_mixed_inputs_raise_on_both_routes(self, monkeypatch, sparse):
        occ = np.array([[True, False], [False, True]])
        a = GridSet(GridGeometry((0.0, 0.0), 0.5, (2, 2)), occ, Semantics.SAMPLE_COVER, 0.1)
        coarse = GridSet(GridGeometry((0.0, 0.0), 1.0, (2, 2)), occ, Semantics.SAMPLE_COVER, 0.1)
        outer = GridSet(GridGeometry((0.0, 0.0), 0.5, (2, 2)), occ, Semantics.OUTER, 0.1)
        if sparse:
            self._force_sparse(monkeypatch)
        with pytest.raises(ValueError, match="share spacing"):
            minkowski_sum([a, a, coarse])
        with pytest.raises(ValueError, match="mixed semantics"):
            minkowski_sum([a, outer])

    def test_filled_rasters_stay_dense(self, monkeypatch):
        # Key pairs outnumber output cells, so the dense fold runs even above
        # the cell limit.
        geom = GridGeometry(origin=(0.0, 0.0), spacing=1.0, extents=(4, 4))
        full = GridSet(geom, np.ones((4, 4), bool), Semantics.SAMPLE_COVER, 0.0)
        calls = []
        real = grid_mod.dilate

        def counting(a, b):
            calls.append((a, b))
            return real(a, b)

        monkeypatch.setattr(grid_mod, "_DENSE_SUM_LIMIT", 1)
        monkeypatch.setattr(grid_mod, "dilate", counting)
        out = minkowski_sum([full, full, full])
        assert len(calls) == 2 and out.occupancy.all()


# --- negate and reflection identities -------------------------------------------


def test_negate_two_cell_example():
    # Lattice points {0, 1} reflect to {-1, 0}.
    geom = GridGeometry(origin=(0.0,), spacing=1.0, extents=(2,))
    a = GridSet(geom, np.array([True, True]), Semantics.SAMPLE_COVER, 0.0)
    out = negate(a)
    assert out.geometry.origin == (-1.0,)
    assert out.occupancy.all()
    pts = sorted(out.geometry.lattice_point(c)[0] for c in out.occupied_indices())
    assert pts == [-1.0, 0.0]


@given(single_grid())
def test_negate_involution(a):
    back = negate(negate(a))
    assert np.array_equal(back.occupancy, a.occupancy)
    assert back.geometry.extents == a.geometry.extents
    assert np.allclose(back.geometry.origin, a.geometry.origin)


@given(single_grid())
def test_sum_with_negation_hits_zero(a):
    # i + (reflected i) always lands on the cell whose lattice point is 0.
    if not a.occupancy.any():
        return
    out = dilate_naive(a, negate(a))
    zero_index = tuple(m - 1 for m in a.geometry.extents)
    assert out.occupancy[zero_index]
    assert np.allclose(out.geometry.lattice_point(zero_index), 0.0)


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


# --- erode -----------------------------------------------------------------------


def test_erode_keeps_core_and_tags_inner_when_radius_clears_slack():
    h = 0.5
    geom = GridGeometry(origin=(0.0, 0.0), spacing=h, extents=(7, 7))
    full = GridSet(geom, np.ones((7, 7), bool), Semantics.OUTER, slack=2 * h)
    r1 = erode(full, 1)
    assert r1.semantics is Semantics.OUTER  # 1*h < slack + h
    assert r1.occupied_count == 25
    r3 = erode(full, 3)
    assert r3.semantics is Semantics.INNER  # 3*h >= slack + h
    assert r3.slack == 0.0
    assert r3.occupied_count == 1
    assert r3.occupancy[3, 3]


def test_erode_thin_slab_vanishes():
    geom = GridGeometry(origin=(0.0, 0.0), spacing=1.0, extents=(5, 1))
    slab = GridSet(geom, np.ones((5, 1), bool), Semantics.OUTER, slack=0.0)
    assert erode(slab, 1).occupied_count == 0


def test_erode_requires_outer():
    geom = GridGeometry(origin=(0.0,), spacing=1.0, extents=(3,))
    a = GridSet(geom, np.ones(3, bool), Semantics.SAMPLE_COVER, 0.0)
    with pytest.raises(ValueError, match="OUTER"):
        erode(a, 1)


# --- connectivity ----------------------------------------------------------------


@given(single_grid(), st.sampled_from(["face", "chessboard"]))
def test_components_match_bfs(a, adjacency):
    got = {frozenset(c) for c in connected_components(a, adjacency)}
    assert got == oracle_components(a.occupancy, adjacency)


def test_diagonal_pair_adjacency():
    occ = np.eye(2, dtype=bool)
    geom = GridGeometry(origin=(0.0, 0.0), spacing=1.0, extents=(2, 2))
    a = GridSet(geom, occ, Semantics.SAMPLE_COVER, 0.0)
    assert len(connected_components(a, "face")) == 2
    assert len(connected_components(a, "chessboard")) == 1
    assert not is_grid_continuum(a, "face")
    assert is_grid_continuum(a, "chessboard")


def test_adjacency_structures_are_cached_read_only():
    from scipy import ndimage

    for dim in (1, 2, 3):
        face = grid_mod._adjacency_structure("face", dim)
        assert face is grid_mod._adjacency_structure("face", dim)
        assert not face.flags.writeable
        assert np.array_equal(face, ndimage.generate_binary_structure(dim, 1))
        with pytest.raises(ValueError, match="read-only"):
            face[(1,) * dim] = False
        chessboard = grid_mod._adjacency_structure("chessboard", dim)
        assert not chessboard.flags.writeable
        assert np.array_equal(chessboard, np.ones((3,) * dim, dtype=bool))
    dot = GridSet(GridGeometry((0.0,), 1.0, (1,)), np.ones(1, bool), Semantics.SAMPLE_COVER, 0.0)
    with pytest.raises(ValueError, match="unknown adjacency"):
        is_grid_continuum(dot, "king")


def test_empty_grid_is_not_a_continuum():
    geom = GridGeometry(origin=(0.0,), spacing=1.0, extents=(3,))
    a = GridSet(geom, np.zeros(3, bool), Semantics.SAMPLE_COVER, 0.0)
    assert not is_grid_continuum(a)
    assert connected_components(a) == []


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


# --- distance transform -------------------------------------------------------------


@given(
    st.integers(1, 3).flatmap(
        lambda d: st.lists(st.integers(1, 5), min_size=d, max_size=d).flatmap(
            lambda ext: arrays(np.bool_, tuple(ext))
        )
    )
)
def test_distance_transform_matches_brute_force(mask):
    got = chessboard_distance_transform(mask)
    assert np.array_equal(got.astype(np.int64), oracle_chessboard_dt(mask))


def test_distance_transform_matches_oracle_on_larger_mask():
    rng = np.random.default_rng(7)
    mask = rng.random((40, 37)) < 0.03
    got = chessboard_distance_transform(mask)
    assert np.array_equal(got.astype(np.int64), oracle_chessboard_dt(mask))


def test_distance_transform_empty_mask_is_inf():
    out = chessboard_distance_transform(np.zeros((3, 3), bool))
    assert (out == DIST_INF).all()


# --- box morphology on packed occupancy -------------------------------------------
# Oracles are thresholds of the brute-force distance transform above.  Extents
# run past one byte on the packed (last) axis and are rarely multiples of 8.


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


# --- cube coverage and margin --------------------------------------------------------


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
    assert eps_density_margin(a, (1.0, 1.0), 2.0) == 0.0


def test_cube_margin_checkerboard_is_one_cell():
    m = 4
    occ = (np.add.outer(np.arange(m), np.arange(m)) % 2) == 0
    geom = GridGeometry(origin=(0.0, 0.0), spacing=1.0, extents=(m, m))
    a = GridSet(geom, occ, Semantics.SAMPLE_COVER, 0.0)
    assert eps_density_margin(a, (2.0, 2.0), 4.0) == pytest.approx(1.0)


def test_cube_margin_empty_grid_is_inf():
    geom = GridGeometry(origin=(0.0, 0.0), spacing=1.0, extents=(3, 3))
    a = GridSet(geom, np.zeros((3, 3), bool), Semantics.SAMPLE_COVER, 0.0)
    assert eps_density_margin(a, (1.5, 1.5), 3.0) == math.inf


def test_cube_outside_grid_rejected():
    geom = GridGeometry(origin=(0.0, 0.0), spacing=1.0, extents=(2, 2))
    a = GridSet(geom, np.ones((2, 2), bool), Semantics.SAMPLE_COVER, 0.0)
    with pytest.raises(ValueError, match="exceeds"):
        cube_coverage(a, (0.5, 0.5), 10.0)


def test_cube_outside_grid_has_its_own_error_type():
    geom = GridGeometry(origin=(0.0, 0.0), spacing=1.0, extents=(2, 2))
    a = GridSet(geom, np.ones((2, 2), bool), Semantics.SAMPLE_COVER, 0.0)
    with pytest.raises(CubeOutsideGridError):
        eps_density_margin(a, (0.5, 0.5), 10.0)
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
    # erode(a + box_r, r) contains a, cell for cell.
    rng = np.random.default_rng(11)
    occ = rng.random((6, 5)) < 0.4
    geom = GridGeometry(origin=(0.0, 0.0), spacing=1.0, extents=(6, 5))
    a = GridSet(geom, occ, Semantics.OUTER, slack=0.0)
    r = 2
    box_geom = GridGeometry(origin=(-float(r), -float(r)), spacing=1.0, extents=(2 * r + 1, 2 * r + 1))
    box = GridSet(box_geom, np.ones((2 * r + 1, 2 * r + 1), bool), Semantics.OUTER, 0.0)
    fat = dilate_naive(a, box)
    thin = erode(fat, r)
    # fat's grid is offset by -r cells relative to a's.
    assert thin.occupancy[r : r + 6, r : r + 5][occ].all()


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
        assert is_grid_continuum(blobs[0], "face")
        assert is_grid_continuum(blobs[1], "face")
        assert is_grid_continuum(dilate_naive(blobs[0], blobs[1]), "face")


def test_cube_margin_center_cell_missing_is_one():
    occ = np.ones((3, 3), bool)
    occ[1, 1] = False
    geom = GridGeometry(origin=(0.0, 0.0), spacing=1.0, extents=(3, 3))
    a = GridSet(geom, occ, Semantics.SAMPLE_COVER, 0.0)
    assert eps_density_margin(a, (1.5, 1.5), 3.0) == pytest.approx(1.0)


def test_disk_inner_outer_sandwich():
    # Inner estimate <= pi <= Outer estimate for the unit disk.
    h = 0.02
    m = 120
    lo = np.arange(m) * h - 1.2
    hi = lo + h
    near = np.maximum(0.0, np.maximum(lo, -hi))
    occ = near[:, None] ** 2 + near[None, :] ** 2 <= 1.0
    geom = GridGeometry(origin=(-1.2, -1.2), spacing=h, extents=(m, m))
    outer = GridSet(geom, occ, Semantics.OUTER, slack=h)
    inner = erode(outer, 2)  # 2*h >= slack + h
    assert inner.semantics is Semantics.INNER
    assert measure_estimate(inner) <= math.pi <= measure_estimate(outer)


def test_auto_geometry_covers_points_with_padding():
    pts = np.array([[0.05, -0.3], [0.95, 0.7]])
    geom = auto_geometry(pts, h=0.1, pad_cells=2)
    assert geom.contains_point((0.05, -0.3))
    assert geom.contains_point((0.95, 0.7))
    assert np.allclose(geom.origin, (0.05 - 0.2, -0.3 - 0.2))


def test_sampled_set_linear_image_scales_density():
    s = SampledSet(np.array([[1.0, 0.0]]), density=0.1)
    mat = np.array([[2.0, 1.0], [0.0, 1.0]])
    out = s.linear_image(mat)
    assert out.density == pytest.approx(0.3)  # max row abs sum = 3
    assert np.allclose(out.points, [[2.0, 0.0]])


def test_thread_count_env(monkeypatch):
    monkeypatch.delenv("CONTINUUM_SUMS_THREADS", raising=False)
    assert thread_count() == 1
    monkeypatch.setenv("CONTINUUM_SUMS_THREADS", "3")
    assert thread_count() == 3
    monkeypatch.setenv("CONTINUUM_SUMS_THREADS", "0")
    assert thread_count() >= 1
    monkeypatch.setenv("CONTINUUM_SUMS_THREADS", "nope")
    with pytest.raises(ValueError):
        thread_count()
