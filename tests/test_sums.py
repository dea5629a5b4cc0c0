"""Shift constructions, midpoint chains and separators against small oracles."""

from __future__ import annotations

import dataclasses
import math
from itertools import product as iter_product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

import continuum_sums.grid as grid_mod
import continuum_sums.sums as sums_mod
from continuum_sums.affine import nonflat_certificate
from continuum_sums.gallery import l_shape, segment
from continuum_sums.grid import (
    GridGeometry,
    GridSet,
    PackedMask,
    SampledSet,
    Semantics,
    auto_geometry,
    rasterize,
)
from continuum_sums.sums import (
    ClaimReport,
    MidpointChain,
    SeparatorInstance,
    SeparatorValidation,
    build_sum_separators,
    claim_measure_chain,
    hl_discrete_check,
    midpoint_iterate,
    random_bands_share_cell,
    random_separator_instance,
    separation_by_search,
    shift_construction,
    shifted_sum_raster,
    validate_separators,
    verify_claim,
)


def axis_segments(n: int, budget: int) -> list[SampledSet]:
    sets = []
    for i in range(n):
        end = [0.0] * n
        end[i] = 1.0
        sets.append(segment([0.0] * n, end, budget))
    return sets


# --- shift construction -----------------------------------------------------------


def test_shift_construction_frozen_l_values():
    two = shift_construction(axis_segments(2, 11), s=1)
    assert two.l == 3
    assert two.lattice_full.shape == (49, 2)
    assert all(z.shape == (7, 2) for z in two.lattice_axis)

    one = shift_construction(axis_segments(1, 11), s=2)
    assert one.l == 3

    three = shift_construction(axis_segments(3, 11), s=1)
    assert three.l == 4
    assert three.lattice_full.shape == (9**3, 3)


def test_shift_construction_validates_inputs():
    sets = axis_segments(2, 11)
    with pytest.raises(ValueError, match="positive integer"):
        shift_construction(sets, s=0)
    with pytest.raises(ValueError, match="exactly 2"):
        shift_construction(sets[:1], s=1)
    shifted = [s.translated((0.5, 0.5)) for s in sets]
    with pytest.raises(ValueError, match="origin"):
        shift_construction(shifted, s=1)


def test_shift_construction_invariant_holds():
    c = shift_construction(axis_segments(2, 41), s=1)
    assert c.valid()
    assert c.l > c.s + (c.n - 1) * c.delta
    assert len(c.lattice_axis[0]) == 2 * c.l + 1


# --- claim coverage ----------------------------------------------------------------


def test_claim_covers_cube_for_l_instance():
    sets = axis_segments(2, 41)
    c = shift_construction(sets, s=1)
    report = verify_claim(c, sets, h=0.05)
    assert isinstance(report, ClaimReport)
    assert report.covered
    assert report.margin == 0.0
    assert report.passed


def test_claim_one_dimensional_interval():
    sets = axis_segments(1, 41)
    c = shift_construction(sets, s=2)
    report = verify_claim(c, sets, h=0.05)
    assert report.covered and report.passed


def test_claim_rejects_violated_constraint():
    sets = axis_segments(2, 41)
    c = shift_construction(sets, s=1)
    broken = dataclasses.replace(c, l=1)
    with pytest.raises(ValueError, match="invalid construction"):
        verify_claim(broken, sets, h=0.1)


def test_claim_fails_for_flat_family_once_h_resolves_the_gaps():
    # The shifted copies of a doubled horizontal segment leave rows one unit
    # apart; any h below the gap half-width minus the sampling slack must fail.
    horiz = segment((0.0, 0.0), (1.0, 0.0), 41)
    sets = [horiz, horiz]
    c = shift_construction(sets, s=1)
    for h in (0.1, 0.05, 0.025):
        report = verify_claim(c, sets, h=h)
        assert not report.covered
        assert not report.passed
        assert report.margin >= 0.4


def test_claim_flat_lattice_reports_infinite_margin():
    # Shifting both factors along the first axis makes the sum flat: its grid
    # is one cell high, so the cube [-1, 1]^2 leaves the grid box.
    horiz = segment((0.0, 0.0), (1.0, 0.0), 41)
    sets = [horiz, horiz]
    c = shift_construction(sets, s=1)
    flat = dataclasses.replace(c, lattice_axis=(c.lattice_axis[0], c.lattice_axis[0]))
    report = verify_claim(flat, sets, h=0.1)
    assert not report.covered
    assert report.margin == math.inf
    assert not report.passed


def test_claim_covered_is_a_zero_margin():
    # A zero margin is exactly a fully occupied cube window, read here
    # directly.  The ladder of the unit-arm L pair at s=2 is covered at
    # h=0.05 only; the doubled segment is never covered.
    pair = [l_shape(2, 82)] * 2
    horiz = segment((0.0, 0.0), (1.0, 0.0), 41)
    families = [
        (shift_construction(pair, s=2), pair, (0.05, 0.025, 0.0125)),
        (shift_construction([horiz, horiz], s=1), [horiz, horiz], (0.1, 0.05, 0.025)),
    ]
    covered = []
    for construction, sets, ladder in families:
        for h in ladder:
            report = verify_claim(construction, sets, h)
            total = shifted_sum_raster(construction, sets, h)
            cells = grid_mod._cube_cell_range(
                total.geometry, np.zeros(construction.n), 2.0 * construction.s
            )
            direct = bool(total.occupancy[tuple(slice(lo, hi + 1) for lo, hi in cells)].all())
            assert report.covered == (report.margin == 0.0) == direct, h
            covered.append(report.covered)
    assert covered == [True, False, False, False, False, False]


def test_claim_packs_its_sum_once(monkeypatch):
    # The margin and ClaimReport.sum_cells read the same packed sum.
    packs = []
    pack = PackedMask.pack

    def counting(cls, occupancy):
        packs.append(np.shape(occupancy))
        return pack(occupancy)

    monkeypatch.setattr(PackedMask, "pack", classmethod(counting))
    sets = axis_segments(2, 41)
    report = verify_claim(shift_construction(sets, s=1), sets, h=0.1)
    assert len(packs) == 1
    assert packs[0] == report.sum_cells.shape


def test_claim_propagates_errors_other_than_cube_outside_grid(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("margin failed")

    monkeypatch.setattr(sums_mod, "eps_density_margin", broken)
    sets = axis_segments(2, 41)
    c = shift_construction(sets, s=1)
    with pytest.raises(ValueError, match="margin failed"):
        verify_claim(c, sets, h=0.1)


def test_claim_margin_under_sparse_sampling():
    # Samples every 0.25 rasterized at h=0.1: holes of one or two cells are
    # within the documented slack n*(eps+h).
    sets = axis_segments(2, 9)
    c = shift_construction(sets, s=1)
    report = verify_claim(c, sets, h=0.1)
    assert not report.covered
    assert 0 < report.margin <= report.threshold
    assert report.passed


# --- measure chain -----------------------------------------------------------------


def test_measure_chain_for_l_instance():
    sets = axis_segments(2, 41)
    c = shift_construction(sets, s=1)
    chain = claim_measure_chain(c, sets, h=0.1)
    assert chain.cube_volume == 4.0
    assert chain.lower_ok and chain.upper_ok
    assert chain.implied_lower_bound == pytest.approx((2 / 7) ** 2)


# --- midpoint iteration ---------------------------------------------------------------


def grid_from_cells(cells, spacing=1.0, slack=0.0) -> GridSet:
    cells = np.asarray(cells, dtype=np.int64)
    extents = tuple(int(e) for e in cells.max(axis=0) + 1)
    occ = np.zeros(extents, dtype=bool)
    occ[tuple(cells.T)] = True
    return GridSet(
        geometry=GridGeometry(origin=(0.0,) * cells.shape[1], spacing=spacing, extents=extents),
        occupancy=occ,
        semantics=Semantics.OUTER,
        slack=slack,
    )


def test_midpoint_two_points_give_midpoint():
    t = grid_from_cells([[0], [1]])
    chain = midpoint_iterate(t, 1)
    assert isinstance(chain, MidpointChain)
    step = chain.steps[1]
    assert step.geometry.spacing == 0.5
    assert step.occupancy.tolist() == [True, True, True]
    assert step.geometry.lattice_point((1,)) == (0.5,)


def test_midpoint_flat_segment_never_finds_interior():
    seg = segment((0.0, 0.0), (1.0, 0.0), 21)
    exact = SampledSet(points=seg.points, density=0.0)
    raster = rasterize(exact, auto_geometry(exact.points, 0.05), Semantics.OUTER)
    chain = midpoint_iterate(raster, 8)
    assert chain.interior_found_at is None
    base_dim = nonflat_certificate(np.argwhere(chain.steps[0].occupancy).astype(float)).affine_dim
    for step in chain.steps:
        cells = np.argwhere(step.occupancy).astype(float)
        assert nonflat_certificate(cells).affine_dim == base_dim


def test_midpoint_l_shape_interior_at_step_one():
    shape = l_shape(2, budget=42)
    raster = rasterize(shape, auto_geometry(shape.points, 0.05), Semantics.OUTER)
    chain = midpoint_iterate(raster, 2)
    assert chain.interior_found_at == 1


def test_midpoint_probe_matches_distance_formulation(monkeypatch):
    # The probe was "distance to the nearest unoccupied cell (border ring
    # included) exceeds the radius"; it must find the same step without
    # running a distance transform.
    def refuse(*args, **kwargs):
        raise AssertionError("midpoint probes must not run a distance transform")

    seg = SampledSet(points=segment((0.0, 0.0), (1.0, 0.0), 21).points, density=0.0)
    shape = l_shape(2, budget=42)
    cases = [
        (rasterize(seg, auto_geometry(seg.points, 0.05), Semantics.OUTER), 4),
        (rasterize(shape, auto_geometry(shape.points, 0.05), Semantics.OUTER), 2),
    ]
    for raster, steps in cases:
        with monkeypatch.context() as patch:
            patch.setattr(ndimage, "distance_transform_cdt", refuse)
            chain = midpoint_iterate(raster, steps)
        expected = None
        for index, grid in enumerate(chain.steps):
            radius = math.ceil(grid.slack / grid.geometry.spacing) + 1
            dist = ndimage.distance_transform_cdt(np.pad(grid.occupancy, 1), metric="chessboard")
            if dist.max() >= radius + 1:
                expected = index
                break
        assert chain.interior_found_at == expected
    assert chain.interior_found_at == 1


def criterion_07_inputs() -> dict[str, GridSet]:
    """The Outer rasters of acceptance criterion 07, by label."""
    rng = np.random.default_rng(11)
    planar = np.column_stack(
        [rng.uniform(0.0, 1.0, 12), rng.uniform(0.0, 1.0, 12), np.zeros(12)]
    )
    flats = {
        "axis segment": (segment((0.0, 0.0), (1.0, 0.0), 21).points, 0.1),
        "diagonal segment": (segment((0.0, 0.0), (1.0, 1.0), 21).points, 0.25),
        "planar cloud": (planar, 0.25),
        "point pair": (segment((0.0,), (1.0,), 2).points, 1.0),
    }
    inputs = {}
    for label, (points, h) in flats.items():
        exact = SampledSet(points=points, density=0.0)
        inputs[label] = rasterize(exact, auto_geometry(points, h), Semantics.OUTER)
    shape = l_shape(2, budget=42)
    inputs["l-shape"] = rasterize(shape, auto_geometry(shape.points, 0.05), Semantics.OUTER)
    return inputs


def former_midpoint_chain(raster: GridSet, k: int) -> tuple[list[GridSet], int | None]:
    """T -> (T + T) / 2 folded one pairwise ``dilate_fft`` per step, with its probe step."""
    steps = [raster]
    for _ in range(k):
        doubled = grid_mod.dilate_fft(steps[-1], steps[-1])
        geometry = GridGeometry(
            origin=tuple(o / 2 for o in doubled.geometry.origin),
            spacing=doubled.geometry.spacing / 2,
            extents=doubled.geometry.extents,
        )
        steps.append(GridSet(geometry, doubled.occupancy, Semantics.OUTER, doubled.slack / 2))
    found = None
    for index, grid in enumerate(steps):
        radius = math.ceil(grid.slack / grid.geometry.spacing) + 1
        if PackedMask.pack(grid.occupancy).erode(radius).any():
            found = index
            break
    return steps, found


@pytest.mark.parametrize(
    "label, steps, interior_at",
    [
        ("axis segment", 10, None),
        ("diagonal segment", 10, None),
        ("planar cloud", 8, None),
        ("point pair", 10, None),
        ("l-shape", 2, 1),
    ],
)
def test_midpoint_chain_equals_pairwise_dilate_fold(label, steps, interior_at):
    raster = criterion_07_inputs()[label]
    chain = midpoint_iterate(raster, steps)
    expected, found = former_midpoint_chain(raster, steps)
    assert chain.interior_found_at == found == interior_at
    assert len(chain.steps) == len(expected)
    for got, ref in zip(chain.steps, expected):
        assert got.geometry == ref.geometry
        assert got.slack == ref.slack
        assert got.semantics is ref.semantics
        assert np.array_equal(np.packbits(got.occupancy), np.packbits(ref.occupancy))


def test_planar_cloud_chain_packs_nothing(monkeypatch):
    # Every step of the planar cloud lives on an (m, m, 1) grid, thinner
    # than any inner ball, so no probe packs or erodes it; the chain and its
    # answer are those of the pairwise fold, whose probes do erode.
    raster = criterion_07_inputs()["planar cloud"]
    expected, found = former_midpoint_chain(raster, 8)
    packed = []
    real = PackedMask.pack

    def pack(occupancy):
        packed.append(np.shape(occupancy))
        return real(occupancy)

    monkeypatch.setattr(PackedMask, "pack", staticmethod(pack))
    chain = midpoint_iterate(raster, 8)
    assert packed == []
    assert chain.interior_found_at == found is None
    assert all(step.geometry.extents[-1] == 1 for step in chain.steps)
    assert len(chain.steps) == len(expected)
    for got, ref in zip(chain.steps, expected):
        assert got.geometry == ref.geometry
        assert got.slack == ref.slack
        assert np.array_equal(got.occupancy, ref.occupancy)


def _raster(occupancy: np.ndarray) -> GridSet:
    return GridSet(
        geometry=GridGeometry(
            origin=(0.0,) * occupancy.ndim, spacing=1.0, extents=occupancy.shape
        ),
        occupancy=occupancy,
        semantics=Semantics.OUTER,
        slack=0.0,
    )


def test_inner_ball_count_shortcut_agrees_with_packed_erosion():
    # A raster with fewer than (2r + 1)^n occupied cells holds no ball of
    # radius r, so the probe answers False before packing; wherever it
    # answers, it agrees with the packed erosion and with scipy's.
    rng = np.random.default_rng(35)
    rasters = []
    for _ in range(300):
        n = int(rng.integers(1, 4))
        shape = tuple(int(e) for e in rng.integers(1, 10 if n < 3 else 7, n))
        rasters.append((rng.random(shape) < rng.uniform(0.5, 1.0), int(rng.integers(0, 3))))
    for n, r in iter_product((1, 2, 3), (0, 1, 2)):
        side = 2 * r + 1
        full = np.zeros((side + 2,) * n, dtype=bool)
        full[(slice(1, side + 1),) * n] = True
        rasters.append((full, r))  # exactly (2r + 1)^n cells, holding the ball
        spread = np.zeros((side + 2,) * n, dtype=bool)
        spread.flat[:: max(1, spread.size // side**n)] = True
        spread.flat[: side**n - np.count_nonzero(spread)] = True
        rasters.append((spread, r))  # enough cells, no ball
        if r:  # thinner than the ball on its first axis
            rasters.append((np.ones((side - 1,) + (side + 3,) * (n - 1), dtype=bool), r))
    for occupancy, r in rasters:
        want = bool(ndimage.binary_erosion(occupancy, np.ones((3,) * occupancy.ndim), r).any())
        if r == 0:
            want = bool(occupancy.any())
        if min(occupancy.shape) >= 2 * r + 1:
            assert bool(PackedMask.pack(occupancy).erode(r).any()) == want
        assert sums_mod._has_inner_ball(_raster(occupancy), r) is want


def test_midpoint_diagonal_chain_packs_nothing(monkeypatch):
    # Step j of the diagonal chain occupies 2^j * 4 + 1 cells on the
    # diagonal, fewer than the (2r + 1)^2 of its probe's ball, so no step
    # is packed or eroded.
    raster = criterion_07_inputs()["diagonal segment"]
    packed = []
    real = PackedMask.pack

    def pack(occupancy):
        packed.append(np.shape(occupancy))
        return real(occupancy)

    monkeypatch.setattr(PackedMask, "pack", staticmethod(pack))
    chain = midpoint_iterate(raster, 10)
    assert packed == []
    assert chain.interior_found_at is None
    assert [step.occupied_count for step in chain.steps] == [2**j * 4 + 1 for j in range(11)]


def test_midpoint_diagonal_last_step_takes_the_sparse_route(monkeypatch):
    # Step 10 of the diagonal chain sums a 2049^2 grid with itself into 4097^2
    # cells from 2049^2 pairs: minkowski_sum's sparse route, no dense fold.
    # Only a step whose key pairs reach its output cells folds dilate_fft
    # (or dilate_naive), and on this thin diagonal no step does.
    summed = []
    for name in ("dilate_fft", "dilate_naive"):
        real = getattr(grid_mod, name)

        def counting(a, b, real=real):
            summed.append(a.geometry.extents)
            return real(a, b)

        monkeypatch.setattr(grid_mod, name, counting)
    chain = midpoint_iterate(criterion_07_inputs()["diagonal segment"], 10)
    assert chain.steps[-1].geometry.extents == (4097, 4097)
    dense_steps = [
        step.geometry.extents
        for step in chain.steps[:-1]
        if step.occupied_count**2 >= math.prod(2 * e - 1 for e in step.geometry.extents)
    ]
    assert summed == dense_steps == []
    assert (2049, 2049) not in summed


def test_midpoint_memory_guard(monkeypatch):
    # Step j has extents 2^j * 1024 + 1, so step 3 (8193^2) is the first over
    # the guard; the chain is refused before any sum runs.
    summed = []
    monkeypatch.setattr(sums_mod, "minkowski_sum", lambda rasters: summed.append(rasters))
    big = GridSet(
        geometry=GridGeometry(origin=(0.0, 0.0), spacing=1.0, extents=(1025, 1025)),
        occupancy=np.ones((1025, 1025), dtype=bool),
        semantics=Semantics.OUTER,
        slack=0.0,
    )
    with pytest.raises(ValueError, match="memory guard") as refused:
        midpoint_iterate(big, 4)
    assert str(refused.value) == f"memory guard: step 3 would need {8193**2} cells"
    assert summed == []


def test_midpoint_requires_outer():
    t = grid_from_cells([[0], [1]])
    cover = GridSet(
        geometry=t.geometry, occupancy=t.occupancy, semantics=Semantics.SAMPLE_COVER, slack=0.0
    )
    with pytest.raises(ValueError, match="Outer"):
        midpoint_iterate(cover, 1)


def test_midpoint_slack_and_spacing_bookkeeping():
    t = grid_from_cells([[0, 0], [1, 0], [0, 1]], spacing=0.5, slack=0.1)
    chain = midpoint_iterate(t, 3)
    h = 0.5
    slack = 0.1
    for step in chain.steps[1:]:
        h /= 2
        slack = slack + h
        assert step.geometry.spacing == pytest.approx(h)
        assert step.slack == pytest.approx(slack)
        assert step.geometry.origin == (0.0, 0.0)


# --- separators ------------------------------------------------------------------------


def oracle_separates(instance: SeparatorInstance, axis: int) -> bool:
    """Tuple-by-tuple flood fill over the product graph, pure Python."""
    counts = [len(c) for c in instance.factor_cells]
    cells = [np.asarray(c) for c in instance.factor_cells]

    def in_band(tup):
        total = sum(
            float(instance.potentials[axis][j][tup[j]]) for j in range(len(counts))
        )
        return abs(total - float(instance.band_center[axis])) <= float(
            instance.band_radius[axis]
        ) + 1e-12

    neighbors = []
    for j in range(len(counts)):
        diff = np.abs(cells[j][:, None, :] - cells[j][None, :, :]).max(axis=2)
        neighbors.append([np.flatnonzero(diff[i] <= 1) for i in range(counts[j])])
    starts = [
        tup
        for tup in iter_product(*(range(c) for c in counts))
        if tup[axis] in set(instance.faces_neg[axis].tolist()) and not in_band(tup)
    ]
    goal = set(instance.faces_pos[axis].tolist())
    seen = set(starts)
    frontier = list(starts)
    while frontier:
        tup = frontier.pop()
        if tup[axis] in goal:
            return False
        for nxt in iter_product(*(neighbors[j][tup[j]] for j in range(len(counts)))):
            nxt = tuple(int(v) for v in nxt)
            if nxt not in seen and not in_band(nxt):
                seen.add(nxt)
                frontier.append(nxt)
    return True


def sparse_axis_segments() -> list[SampledSet]:
    return axis_segments(2, budget=3)  # samples every 0.5, eps = 0.25


def test_build_separators_toy_instance_bands_nonempty():
    sets = sparse_axis_segments()
    c = shift_construction(sets, s=1)
    instance = build_sum_separators(c, sets, target=(0.375, 0.375), h=0.25)
    report = validate_separators(instance)
    assert np.allclose(report.max_step, 0.25)
    assert hl_discrete_check(instance)
    for axis in range(2):
        assert separation_by_search(instance, axis)


def test_build_separators_refuses_covered_target():
    sets = axis_segments(2, 41)
    c = shift_construction(sets, s=1)
    with pytest.raises(ValueError, match="inside the rasterized sum"):
        build_sum_separators(c, sets, target=(0.5, 0.5), h=0.1)


def test_build_separators_one_dimensional_cut():
    sets = axis_segments(1, 3)
    c = shift_construction(sets, s=2)
    instance = build_sum_separators(c, sets, target=(0.375,), h=0.25)
    validate_separators(instance)
    assert hl_discrete_check(instance)
    assert separation_by_search(instance, 0)


def former_face_indices(raster: GridSet, points: np.ndarray) -> np.ndarray:
    """The former face reader, kept as the oracle: each point's cell by floor
    and clamp, its key among the C-ordered occupied-cell keys (weights from
    their bounding box) found by ``searchsorted``, and a miss dropped."""
    geo = raster.geometry
    face_cells = np.floor((points - np.asarray(geo.origin)) / geo.spacing).astype(np.int64)
    face_cells = np.minimum(face_cells, np.asarray(geo.extents) - 1)
    cells = raster.occupied_indices()
    span = cells.max(axis=0) + 1
    weights = np.ones(cells.shape[1], dtype=np.int64)
    for i in range(cells.shape[1] - 2, -1, -1):
        weights[i] = weights[i + 1] * span[i + 1]
    keys = cells @ weights
    face_keys = np.unique(face_cells @ weights)
    pos = np.searchsorted(keys, face_keys)
    hits = pos < len(keys)
    return pos[hits][keys[pos[hits]] == face_keys[hits]]


@pytest.mark.parametrize(
    "n, budget, s, target, h",
    [
        (2, 3, 1, (0.375, 0.375), 0.25),
        (1, 3, 2, (0.375,), 0.25),
        (2, 3, 2, (0.25, 0.75), 0.1),
        (2, 5, 1, (0.35, 0.35), 0.1),
        (3, 3, 1, (0.375, 0.375, 0.375), 0.25),
    ],
)
def test_sum_separator_faces_match_the_former_search(n, budget, s, target, h):
    sets = axis_segments(n, budget)
    c = shift_construction(sets, s=s)
    instance = build_sum_separators(c, sets, target=target, h=h)
    for j, k in enumerate(sets):
        shifts = c.lattice_axis[j]
        samples = SampledSet((k.points[None] + shifts[:, None]).reshape(-1, n), k.density)
        raster = rasterize(samples, auto_geometry(samples.points, h), Semantics.OUTER)
        assert np.array_equal(instance.factors[j], raster.occupancy)
        sides = ((shifts[0], instance.faces_neg[j]), (shifts[-1], instance.faces_pos[j]))
        for copy, faces in sides:
            face_cells = raster.geometry.cells_of(k.points + copy)
            # Every face cell lies in its factor, so the former search
            # dropped none and ``ravel_multi_index`` never raises.
            assert ((face_cells >= 0) & (face_cells < raster.geometry.extents)).all()
            assert raster.occupancy[tuple(face_cells.T)].all()
            assert faces.dtype == np.int64 and len(faces) > 0
            assert np.array_equal(faces, former_face_indices(raster, k.points + copy))


def test_separator_instances_compare_and_hash_by_identity():
    a, same_spec, other_shape = (random_separator_instance(2, seed) for seed in (0, 0, 1))
    assert a.factors[0].shape != other_shape.factors[0].shape
    assert (a == a) is True
    assert (a == same_spec) is False
    assert (a == other_shape) is False
    assert (a != same_spec) is True
    assert isinstance(hash(a), int) and hash(a) == hash(a)
    assert len({a, same_spec, other_shape, a}) == 3
    batch = [a, same_spec, other_shape]
    assert [batch.index(x) for x in batch] == [0, 1, 2]
    assert random_separator_instance(2, 0) != random_separator_instance(2, 0)


def test_random_instances_validate_and_intersect():
    for seed in range(12):
        instance = random_separator_instance(2, seed)
        assert hl_discrete_check(instance)
    for seed in range(4):
        instance = random_separator_instance(3, seed)
        assert hl_discrete_check(instance)


def test_random_instance_search_agrees_with_oracle():
    for seed in (0, 1, 2):
        instance = random_separator_instance(2, seed)
        for axis in range(2):
            fast = separation_by_search(instance, axis)
            slow = oracle_separates(instance, axis)
            assert fast == slow
            assert fast


def test_search_says_not_separated_across_a_leapt_or_missed_band():
    # Centers and potentials are integers, so a band of half-width 0.25
    # holds the cells of one sum, which a diagonal product step (both
    # factors move, the sum by 2) leaps; a band moved by 1000 holds no cell.
    for seed in range(6):
        instance = random_separator_instance(2, seed)
        thin = dataclasses.replace(instance, band_radius=np.full(2, 0.25))
        moved = dataclasses.replace(instance, band_center=instance.band_center + 1000)
        for x, separated in ((instance, True), (thin, False), (moved, False)):
            for axis in range(2):
                assert separation_by_search(x, axis) is separated
                assert oracle_separates(x, axis) is separated


def test_gallery_instance_search_agrees_with_oracle():
    sets = sparse_axis_segments()
    c = shift_construction(sets, s=1)
    instance = build_sum_separators(c, sets, target=(0.375, 0.375), h=0.25)
    for axis in range(2):
        assert oracle_separates(instance, axis)
        assert separation_by_search(instance, axis)


def test_invalid_band_is_rejected_not_reported():
    instance = random_separator_instance(2, seed=5)
    too_thin = dataclasses.replace(instance, band_radius=np.zeros(2))
    with pytest.raises(ValueError, match="leap the band"):
        hl_discrete_check(too_thin)
    shifted = dataclasses.replace(
        instance, band_center=instance.band_center + 1000.0
    )
    with pytest.raises(ValueError, match="straddle"):
        hl_discrete_check(shifted)


def test_disconnected_factor_is_rejected():
    instance = random_separator_instance(2, seed=7)
    occ = np.zeros_like(instance.factors[0])
    occ[0, 0] = True
    occ[-1, -1] = True
    broken = dataclasses.replace(
        instance,
        factors=(occ,) + instance.factors[1:],
        potentials=tuple((pots[0][:2],) + pots[1:] for pots in instance.potentials),
        faces_neg=(np.array([0]),) + instance.faces_neg[1:],
        faces_pos=(np.array([1]),) + instance.faces_pos[1:],
    )
    with pytest.raises(ValueError, match="factor 0 is not a connected grid continuum"):
        hl_discrete_check(broken)


# --- separator fast paths against their former formulations ---------------------------


def former_adjacent_potential_step(cells, values) -> float:
    """The former full-matrix step bound, rebuilt for every (axis, factor) pair."""
    diff = np.abs(cells[:, None, :] - cells[None, :, :]).max(axis=2)
    adjacent = diff == 1
    if not adjacent.any():
        return 0.0
    gaps = np.abs(values[:, None] - values[None, :])
    return float(gaps[adjacent].max())


def former_validate_separators(instance: SeparatorInstance) -> SeparatorValidation:
    """The former validation: per-pair adjacency rebuilds and ``np.allclose``."""
    n = instance.n
    if not 1 <= n <= 3:
        raise ValueError("separator instances support 1..3 factors")
    for j, factor in enumerate(instance.factors):
        if ndimage.label(factor)[1] != 1:
            raise ValueError(f"factor {j} is not a connected grid continuum")
    max_step = np.zeros(n)
    integral = np.zeros(n, dtype=bool)
    face_below = np.zeros(n)
    face_above = np.zeros(n)
    for k in range(n):
        pots = instance.potentials[k]
        steps = [
            former_adjacent_potential_step(instance.factor_cells[j], pots[j])
            for j in range(n)
        ]
        level = float(max(steps))
        max_step[k] = level
        center = float(instance.band_center[k])
        radius = float(instance.band_radius[k])
        is_integral = all(
            np.allclose(p, np.round(p), atol=1e-9) for p in pots
        ) and abs(center - round(center)) < 1e-9 and abs(radius - round(radius)) < 1e-9
        integral[k] = is_integral
        jump = n * level
        allowed = 2 * radius + (1.0 if is_integral else 0.0)
        if jump > allowed + 1e-12:
            raise ValueError(
                f"axis {k}: a product step can move the potential sum by {jump}, "
                f"wide enough to leap the band of half-width {radius}"
            )
        if len(instance.faces_neg[k]) == 0 or len(instance.faces_pos[k]) == 0:
            raise ValueError(f"axis {k}: empty face set")
        others_max = sum(float(pots[j].max()) for j in range(n) if j != k)
        others_min = sum(float(pots[j].min()) for j in range(n) if j != k)
        below = float(pots[k][instance.faces_neg[k]].max()) + others_max
        above = float(pots[k][instance.faces_pos[k]].min()) + others_min
        face_below[k] = below
        face_above[k] = above
        if not (below < center - radius and above > center + radius):
            raise ValueError(
                f"axis {k}: faces do not straddle the band "
                f"({below} .. {above} around {center} +- {radius})"
            )
    return SeparatorValidation(
        max_step=max_step, integral=integral, face_below=face_below, face_above=face_above
    )


def reference_random_separator_instance(
    n: int, seed: int, size_range: tuple[int, int] = (10, 26)
) -> SeparatorInstance:
    """The walk rule re-implemented plainly: a fresh numpy move and position array per step.

    A factor draws its size from ``size_range`` (the generator's
    ``_WALK_SIZES``), then ``3 * size`` uniforms; each is a forward
    step below 0.7, else side step ``(u - 0.7) / 0.3 * 2n`` (rounded down),
    which moves axis ``side // 2`` back for an even side and forward for an
    odd one.  The walk stops once ``size`` cells are visited.
    """
    rng = np.random.default_rng(seed)
    for _attempt in range(64):
        factors = []
        factor_cells = []
        ok = True
        for j in range(n):
            steps = int(rng.integers(*size_range))
            pos = np.zeros(n, dtype=np.int64)
            visited = {tuple(pos)}
            for u in rng.random(3 * steps):
                if len(visited) >= steps:
                    break
                move = np.zeros(n, dtype=np.int64)
                if u < 0.7:
                    move[j] = 1
                else:
                    side = int((u - 0.7) / 0.3 * 2 * n)
                    move[side // 2] = 1 if side % 2 else -1
                pos = pos + move
                visited.add(tuple(pos))
            cells = np.array(sorted(visited), dtype=np.int64)
            cells -= cells.min(axis=0)
            extents = tuple(int(e) for e in cells.max(axis=0) + 1)
            occupancy = np.zeros(extents, dtype=bool)
            occupancy[tuple(cells.T)] = True
            factors.append(occupancy)
            factor_cells.append(np.argwhere(occupancy).astype(np.int64))
        potentials = tuple(
            tuple(factor_cells[j][:, k].astype(np.float64) for j in range(n))
            for k in range(n)
        )
        centers = np.zeros(n)
        faces_neg = []
        faces_pos = []
        for k in range(n):
            own = potentials[k][k]
            others_max = sum(float(potentials[k][j].max()) for j in range(n) if j != k)
            others_min = sum(float(potentials[k][j].min()) for j in range(n) if j != k)
            below = float(own.min()) + others_max
            above = float(own.max()) + others_min
            if above - below <= 4:
                ok = False
                break
            centers[k] = round((below + above) / 2)
            faces_neg.append(np.flatnonzero(own == own.min()).astype(np.int64))
            faces_pos.append(np.flatnonzero(own == own.max()).astype(np.int64))
        if not ok:
            continue
        instance = SeparatorInstance(
            factors=tuple(factors),
            potentials=potentials,
            band_center=centers,
            band_radius=np.ones(n),
            faces_neg=tuple(faces_neg),
            faces_pos=tuple(faces_pos),
        )
        try:
            former_validate_separators(instance)
        except ValueError:
            continue
        return instance
    raise RuntimeError(f"no valid random instance after 64 attempts (seed {seed})")


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


def assert_same_instance(got: SeparatorInstance, want: SeparatorInstance):
    assert_same_arrays(got.factors, want.factors)
    assert_same_arrays(got.factor_cells, want.factor_cells)
    for got_row, want_row in zip(got.potentials, want.potentials, strict=True):
        assert_same_arrays(got_row, want_row)
    assert_same_arrays(
        [got.band_center, got.band_radius], [want.band_center, want.band_radius]
    )
    assert_same_arrays(got.faces_neg, want.faces_neg)
    assert_same_arrays(got.faces_pos, want.faces_pos)


@pytest.mark.parametrize(
    "n, seeds, size_range",
    [
        (1, range(12), (10, 26)),
        (2, range(40), (10, 26)),
        (3, range(15), (10, 26)),
        (2, range(15), (4, 9)),
        (3, range(8), (6, 12)),
    ],
)
def test_random_instance_matches_former_numpy_walk(n, seeds, size_range, monkeypatch):
    # Walks shorter than the generator's sizes fail the face-gap test far
    # more often, so those cases go through many redrawn candidates.
    monkeypatch.setattr(sums_mod, "_WALK_SIZES", size_range)
    for seed in seeds:
        got = random_separator_instance(n, seed)
        want = reference_random_separator_instance(n, seed, size_range=size_range)
        assert_same_instance(got, want)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_walk_move_rule_at_its_edges(n):
    # A two-cell walk is its start and one move: just below 0.7 steps forward
    # along axis j, 0.7 takes the first side step (-e_0) and the largest
    # uniform the last (+e_{n-1}).  Every axis's three walks run as one round.
    eye = np.eye(3, dtype=np.int64)
    edges = [(np.nextafter(0.7, 0), None), (0.7, -eye[0]), (1 - 2**-53, eye[n - 1])]
    axes = np.repeat(np.arange(n), len(edges))
    uniforms = np.array([u for _ in range(n) for u, _ in edges])
    cells, counts, extents = sums_mod._walk_cells(
        np.full(len(axes), n), axes, np.full(len(axes), 2), np.repeat(uniforms, 6)
    )
    assert counts.tolist() == [2] * len(axes)
    for w, (j, (_, move)) in enumerate(zip(axes.tolist(), edges * n)):
        step = eye[j] if move is None else move
        want = np.array(sorted([[0, 0, 0], step.tolist()]))
        want -= want.min(axis=0)
        assert cells[2 * w : 2 * w + 2].tolist() == want.tolist()
        assert extents[w].tolist() == (np.ptp(want, axis=0) + 1).tolist()


def assert_batch_of_single_draws(specs):
    """Each spec's instance is the former walk's, and a mixed batch holds it as drawn alone.

    The batch scan agrees with the former scan of each spec's reference
    instance, and the batch is the layout of the specs' single-spec
    instances laid end to end (band radii aside: the layout reads 0 past n).
    """
    want = [reference_random_separator_instance(n, seed) for n, seed in specs]
    singles = [random_separator_instance(n, seed) for n, seed in specs]
    for got_one, want_one in zip(singles, want):
        assert_same_instance(got_one, want_one)
    assert random_bands_share_cell(specs) == [former_bands_share_cell(x) for x in want]
    got = sums_mod._drawn(specs)
    laid = sums_mod._packed(singles)
    for name in ("dims", "sizes", "cells", "potentials", "centers", "face_sizes"):
        assert_same_arrays([getattr(got, name)], [getattr(laid, name)])
    assert_same_arrays(got.faces, laid.faces)


def test_batch_instances_match_former_numpy_walk_spec_by_spec():
    specs = [(2, 0), (3, 0), (1, 4), (2, 0), (3, 7), (2, 11), (1, 0), (2, 3)]
    assert_batch_of_single_draws(specs)
    assert random_bands_share_cell([]) == []


def test_mixed_batch_with_redraws_matches_former_walk_spec_by_spec(monkeypatch):
    # (3, 27) takes 5 candidates, (3, 63) 4 and (2, 14) 2, the rest 1: the
    # specs close in different rounds, (2, 14) before the earlier (3, 27).
    rounds = []
    real = sums_mod._walk_cells

    def recording(n, axis, steps, draws):
        rounds.append(len(steps))
        return real(n, axis, steps, draws)

    monkeypatch.setattr(sums_mod, "_walk_cells", recording)
    specs = [(3, 27), (1, 3), (2, 14), (3, 63), (2, 0), (1, 8), (3, 2)]
    random_bands_share_cell(specs)
    assert rounds == [15, 3 + 2 + 3, 3 + 3, 3 + 3, 3]
    assert_batch_of_single_draws(specs)


def test_rejected_candidate_raises_naming_its_spec(monkeypatch):
    real = sums_mod._validations

    def reject_second(batch):
        report, failed = real(batch)
        return report, {**failed, 1: ValueError("rejected")}

    monkeypatch.setattr(sums_mod, "_validations", reject_second)
    with pytest.raises(RuntimeError, match=r"\(2, 5\)") as raised:
        random_bands_share_cell([(2, 4), (2, 5), (3, 6)])
    assert isinstance(raised.value.__cause__, ValueError)
    assert str(raised.value.__cause__) == "rejected"


def test_every_gap_tested_candidate_passes_validation(monkeypatch):
    # Unit-step walks are face-connected; a chessboard step moves a
    # coordinate potential by at most 1 (``max_step``), so a product step
    # moves the sum by at most n <= 3, the band's 2 * 1 + 1; and a face gap
    # of at least 5 leaves the rounded band center 2 from each face.  So
    # the generator's validation never rejects a candidate.
    real = sums_mod._validations
    outcomes = []

    def recording(batch):
        found = real(batch)
        outcomes.append((batch.dims, *found))
        return found

    monkeypatch.setattr(sums_mod, "_validations", recording)
    specs = [(n, seed) for n in (1, 2, 3) for seed in range(1000)]
    assert len(random_bands_share_cell(specs)) == len(specs)
    ((dims, report, failed),) = outcomes
    assert len(dims) == len(specs) and failed == {}
    for i, n in enumerate(dims.tolist()):
        assert (report.max_step[i, :n] <= 1).all() and report.integral[i, :n].all()


def test_generator_refuses_unsupported_dimensions(monkeypatch):
    def no_draw(seed):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    for n in (0, 4):
        with pytest.raises(ValueError, match="support 1..3"):
            random_bands_share_cell([(2, 1), (n, 2)])
        with pytest.raises(ValueError, match="support 1..3"):
            random_separator_instance(n, 2)


def test_generator_refuses_negative_seeds(monkeypatch):
    def no_draw(seed):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        random_bands_share_cell([(2, 1), (2, -1)])
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        random_separator_instance(2, -1)


def test_spec_without_a_wide_gap_raises_naming_the_first_in_spec_order(monkeypatch):
    # Walks of 5..8 cells never give three factors a face gap wider than 4
    # in 64 candidates for seeds 1 and 0, while the other specs close.
    monkeypatch.setattr(sums_mod, "_WALK_SIZES", (5, 9))
    specs = [(2, 0), (3, 1), (1, 1), (3, 0)]
    for n, seed in specs:
        if n == 3:
            with pytest.raises(RuntimeError, match=rf"\(seed {seed}\)$"):
                reference_random_separator_instance(n, seed, size_range=(5, 9))
    message = r"^no valid random instance after 64 attempts \(seed 1\)$"
    with pytest.raises(RuntimeError, match=message):
        random_bands_share_cell(specs)
    with pytest.raises(RuntimeError, match=message):
        random_separator_instance(3, 1)


def validation_outcome(validate, instance):
    """Fields of a validation, or the type and message of its error."""
    try:
        report = validate(instance)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return ("error", type(exc), str(exc))
    return (
        "ok",
        report.max_step.tobytes(),
        report.integral.tobytes(),
        report.face_below.tobytes(),
        report.face_above.tobytes(),
    )


def assert_same_validation(instance):
    got = validation_outcome(validate_separators, instance)
    want = validation_outcome(former_validate_separators, instance)
    assert got == want
    return got


def test_validation_matches_former_on_generated_and_constructed_instances():
    instances = [random_separator_instance(2, seed) for seed in range(25)]
    instances += [random_separator_instance(3, seed) for seed in range(8)]
    instances += [random_separator_instance(1, seed) for seed in range(5)]
    sets = sparse_axis_segments()
    c = shift_construction(sets, s=1)
    instances.append(build_sum_separators(c, sets, target=(0.375, 0.375), h=0.25))
    for instance in instances:
        assert assert_same_validation(instance)[0] == "ok"


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda d: st.lists(
            st.lists(
                st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                min_size=1,
                max_size=12,
                unique_by=tuple,
            ),
            min_size=1,
            max_size=4,
        )
    )
)
def test_adjacent_pairs_match_brute_force(cell_lists):
    # Lists hold distinct cells, as an occupancy array's are, and sit anywhere;
    # pairs never cross lists.
    lists = [np.array(c, dtype=np.int64) for c in cell_lists]
    sizes = [len(c) for c in lists]
    starts = np.cumsum(sizes) - sizes
    first, second = sums_mod._adjacent_pairs(np.concatenate(lists), starts)
    got = sorted(map(tuple, np.sort(np.stack([first, second], axis=1), axis=1).tolist()))
    want = []
    for start, c in zip(starts.tolist(), lists):
        gap = np.abs(c[:, None, :] - c[None, :, :]).max(axis=2)
        want += [(start + a, start + b) for a, b in zip(*np.nonzero(np.triu(gap == 1)))]
    assert got == sorted(want)


def invalid_variants(instance: SeparatorInstance) -> list[SeparatorInstance]:
    """Variants of a valid instance, one per check of the validation: a thin band, a moved band
    and a disconnected factor."""
    n = instance.n
    invalid = [
        dataclasses.replace(instance, band_radius=np.zeros(n)),
        dataclasses.replace(instance, band_center=instance.band_center + 1000.0),
    ]
    occ = np.zeros_like(instance.factors[0])
    occ[(0,) * n] = True
    occ[(-1,) * n] = True
    invalid.append(
        dataclasses.replace(
            instance,
            factors=(occ,) + instance.factors[1:],
            potentials=tuple((pots[0][:2],) + pots[1:] for pots in instance.potentials),
            faces_neg=(np.array([0]),) + instance.faces_neg[1:],
            faces_pos=(np.array([1]),) + instance.faces_pos[1:],
        )
    )
    return invalid


def test_validation_matches_former_on_invalid_instances():
    invalid = invalid_variants(random_separator_instance(2, seed=5))
    outcomes = [assert_same_validation(bad) for bad in invalid]
    assert [o[0] for o in outcomes] == ["error"] * len(invalid)


def batch_outcomes(instances):
    """:func:`validation_outcome`'s form of each outcome of one grouped validation."""
    report, failed = sums_mod._validations(sums_mod._packed(instances))
    outcomes = []
    for i, instance in enumerate(instances):
        if i in failed:
            outcomes.append(("error", type(failed[i]), str(failed[i])))
        else:
            fields = dataclasses.astuple(report)
            outcomes.append(("ok", *(field[i, : instance.n].tobytes() for field in fields)))
    return outcomes


def test_batch_validation_matches_former_instance_by_instance():
    # Valid instances of every dimension and every invalid kind in one batch:
    # each outcome must be the former validation's, so no error leaks.
    valid = [random_separator_instance(n, seed) for n, seed in ((1, 2), (2, 5), (3, 1))]
    sets = sparse_axis_segments()
    c = shift_construction(sets, s=1)
    valid.append(build_sum_separators(c, sets, target=(0.375, 0.375), h=0.25))
    batch = []
    for instance in valid:
        batch += [instance, *invalid_variants(instance), instance]
    batch += [single_cell_instance(), valid[0]]
    got = batch_outcomes(batch)
    want = [validation_outcome(former_validate_separators, x) for x in batch]
    alone = [validation_outcome(validate_separators, x) for x in batch]
    assert got == want == alone
    assert all(o[0] == "ok" for o, x in zip(got, batch) if any(x is v for v in valid))
    # Every variant fails but one (a zero-width band is no error in one
    # dimension, where a unit step stays within the integral band's slack),
    # and so does the one-cell instance.
    variants = 3 * len(valid)
    assert sum(o[0] == "error" for o in got) == (variants - 1) + 1


def misordered_bar_instance() -> SeparatorInstance:
    """A 6x1 bar times a 1x6 post, the bar's faces indexing its cells backwards.

    With coordinate potentials, bands at 3 +- 1 and the end cells as faces
    the instance is valid; here the bar's faces are its end cells as a
    list in reverse C order would number them, not as ``np.argwhere``
    numbers them.
    """
    bar = np.ones((6, 1), dtype=bool)
    post = np.ones((1, 6), dtype=bool)
    bar_cells, post_cells = np.argwhere(bar), np.argwhere(post)
    return SeparatorInstance(
        factors=(bar, post),
        potentials=tuple(
            (bar_cells[:, k].astype(np.float64), post_cells[:, k].astype(np.float64))
            for k in range(2)
        ),
        band_center=np.array([3.0, 3.0]),
        band_radius=np.ones(2),
        faces_neg=(np.array([5]), np.array([0])),
        faces_pos=(np.array([0]), np.array([5])),
    )


def test_faces_are_read_against_argwhere_order():
    # The reversed faces put the bar's low face above the band: refused,
    # alone and in a batch, without touching its batch neighbour.
    misordered = misordered_bar_instance()
    message = "axis 0: faces do not straddle the band"
    outcomes = batch_outcomes([misordered, random_separator_instance(2, seed=5)])
    assert outcomes[0][:2] == ("error", ValueError) and outcomes[0][2].startswith(message)
    assert outcomes[1][0] == "ok"
    for check in (validate_separators, hl_discrete_check):
        with pytest.raises(ValueError, match=message):
            check(misordered)
    ordered = dataclasses.replace(
        misordered,
        faces_neg=(np.array([0]), misordered.faces_neg[1]),
        faces_pos=(np.array([5]), misordered.faces_pos[1]),
    )
    assert hl_discrete_check(ordered)
    assert all(separation_by_search(ordered, axis) for axis in range(2))


def single_cell_instance() -> SeparatorInstance:
    """A 10-cell bar times one cell: the single cell has no adjacent pair."""
    bar = np.ones((10, 1), dtype=bool)
    dot = np.ones((1, 1), dtype=bool)
    return SeparatorInstance(
        factors=(bar, dot),
        potentials=(
            (np.arange(10.0), np.zeros(1)),
            (np.zeros(10), np.zeros(1)),
        ),
        band_center=np.array([4.0, 0.0]),
        band_radius=np.ones(2),
        faces_neg=(np.array([0]), np.array([0])),
        faces_pos=(np.array([9]), np.array([0])),
    )


def test_validation_matches_former_with_a_one_cell_factor():
    instance = single_cell_instance()
    outcome = assert_same_validation(instance)
    # A one-cell factor cannot straddle its own band.
    assert outcome[0] == "error" and "axis 1" in outcome[2]
    one_axis = dataclasses.replace(
        instance,
        factors=(instance.factors[0].reshape(10),),
        potentials=((instance.potentials[0][0],),),
        band_center=instance.band_center[:1],
        band_radius=instance.band_radius[:1],
        faces_neg=instance.faces_neg[:1],
        faces_pos=instance.faces_pos[:1],
    )
    assert assert_same_validation(one_axis)[0] == "ok"
    assert np.array_equal(validate_separators(one_axis).max_step, [1.0])


any_float = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-50, 50),
    st.integers(-50, 50).map(float),
    st.integers(-50, 50).map(lambda v: v + 1e-10),
    st.integers(-50, 50).map(lambda v: v + 0.5),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(any_float, min_size=1, max_size=6))
@example([2.0 + 1e-10, 3.0, 1e-6])
@example([0.5, -0.5, 1.5 - 1e-9])
@example([1e300, -1e300, 2.0**60 + 0.5])
def test_integrality_flag_matches_allclose(values):
    # Finite values only: an instance holds no other potentials.
    values = np.array(values, dtype=np.float64)
    want = bool(np.allclose(values, np.round(values), atol=1e-9))
    entries = sums_mod._integral_entries(values)
    assert bool(entries.all()) == want
    for v, entry in zip(values, entries.tolist()):
        one = np.array([v])
        assert entry == bool(np.allclose(one, np.round(one), atol=1e-9))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_validation_matches_former_on_drawn_potentials(data):
    # Scaled and perturbed coordinate potentials keep the band near the face
    # gap, so instances are accepted as well as refused for each reason; a
    # non-finite nudge is refused when the instance is built.
    instance = random_separator_instance(2, seed=data.draw(st.integers(0, 5)))
    scale = data.draw(st.sampled_from([1.0, 0.5, 0.25]))
    nudges = st.sampled_from([0.0] * 30 + [1e-10, 1e-6, 0.1, math.nan, math.inf, -math.inf])
    potentials = tuple(
        tuple(
            scale * p + np.array(data.draw(st.lists(nudges, min_size=len(p), max_size=len(p))))
            for p in row
        )
        for row in instance.potentials
    )
    changes = dict(
        potentials=potentials,
        band_center=scale * instance.band_center,
        band_radius=scale * instance.band_radius,
    )
    if not all(np.isfinite(p).all() for row in potentials for p in row):
        with pytest.raises(ValueError, match="one finite float64 per occupied cell"):
            dataclasses.replace(instance, **changes)
        return
    assert_same_validation(dataclasses.replace(instance, **changes))


# --- the batched validation and scan against their former formulations ----------------


def axis_band_cube() -> SeparatorInstance:
    """The 7x7 axis-band cube of ``verify hl``: coordinate bands on a full square product."""
    occupancy = np.ones((7, 7), dtype=bool)
    cells = np.argwhere(occupancy)
    return SeparatorInstance(
        factors=(occupancy, occupancy),
        potentials=tuple(
            tuple(
                cells[:, k].astype(np.float64) if j == k else np.zeros(len(cells))
                for j in range(2)
            )
            for k in range(2)
        ),
        band_center=np.array([3.0, 3.0]),
        band_radius=np.ones(2),
        faces_neg=tuple(np.flatnonzero(cells[:, k] == 0) for k in range(2)),
        faces_pos=tuple(np.flatnonzero(cells[:, k] == 6) for k in range(2)),
    )


def constructed_instances() -> list[SeparatorInstance]:
    """:func:`build_sum_separators` instances in one, two and three dimensions, and the cube."""
    out = [axis_band_cube()]
    for n, target in ((1, (0.375,)), (2, (0.375, 0.375)), (3, (0.375,) * 3)):
        sets = axis_segments(n, 3)
        out.append(build_sum_separators(shift_construction(sets, s=1), sets, target=target, h=0.25))
    return out


def invalid_fixtures() -> list[SeparatorInstance]:
    """The instances the tests above build to be refused, and potentials nudged off the integers."""
    base = random_separator_instance(2, seed=5)
    fixtures = [single_cell_instance(), misordered_bar_instance()]
    for n, seed in ((1, 2), (2, 5), (3, 1), (2, 7)):
        fixtures += invalid_variants(random_separator_instance(n, seed))
    fixtures += invalid_variants(constructed_instances()[2])
    for k, j, i, value in ((0, 0, 3, 0.5), (1, 1, 0, 1e-10), (1, 0, 2, -40.0)):
        fixtures.append(dataclasses.replace(base, potentials=nudged(base, k, j, i, value)))
    return fixtures


def test_batch_validation_matches_former_on_every_fixture_both_ways():
    generated = [random_separator_instance(n, seed) for n in (1, 2, 3) for seed in range(6)]
    batch = generated + constructed_instances() + invalid_fixtures()
    want = [validation_outcome(former_validate_separators, x) for x in batch]
    assert batch_outcomes(batch) == want
    assert batch_outcomes(batch[::-1]) == want[::-1]
    assert [validation_outcome(validate_separators, x) for x in batch] == want
    assert [o[0] for o in want[: len(generated) + 4]] == ["ok"] * (len(generated) + 4)
    assert "ok" in [o[0] for o in want[-3:]]
    errors = {o[1] for o in want if o[0] == "error"}
    assert errors == {ValueError}


def replaced(instance: SeparatorInstance, k: int, j: int, values) -> tuple:
    """The instance's potentials with ``potentials[k][j]`` replaced by ``values``."""
    rows = [list(row) for row in instance.potentials]
    rows[k][j] = values
    return tuple(tuple(row) for row in rows)


def nudged(instance: SeparatorInstance, k: int, j: int, i: int, value: float) -> tuple:
    """The instance's potentials with ``potentials[k][j][i]`` set to ``value``."""
    values = instance.potentials[k][j].copy()
    values[i] = value
    return replaced(instance, k, j, values)


def with_neg_face(instance: SeparatorInstance, face) -> dict:
    return {"faces_neg": (face,) + instance.faces_neg[1:]}


#: Per kind of malformed instance: the fields it changes on a valid two-factor
#: instance, and the text its refusal must hold.
MALFORMED = {
    "factors-times-four": lambda x: ({"factors": x.factors * 4}, "support 1..3 factors"),
    "factor-of-three-axes": lambda x: (
        {"factors": (x.factors[0][..., None],) + x.factors[1:]},
        r"factors\[0\] must be a boolean array with 2 axes",
    ),
    "factor-of-ints": lambda x: (
        {"factors": (x.factors[0].astype(np.int64),) + x.factors[1:]},
        r"factors\[0\] must be a boolean array",
    ),
    "empty-factor": lambda x: (
        {"factors": x.factors[:1] + (np.zeros_like(x.factors[1]),)},
        r"factors\[1\] has no occupied cell",
    ),
    "short-potentials": lambda x: (
        {"potentials": replaced(x, 1, 0, x.potentials[1][0][:-1])},
        r"potentials\[1\]\[0\] must hold one finite float64 per occupied cell",
    ),
    "long-potentials": lambda x: (
        {"potentials": replaced(x, 1, 0, np.append(x.potentials[1][0], 0.0))},
        r"potentials\[1\]\[0\]",
    ),
    "integer-potentials": lambda x: (
        {"potentials": replaced(x, 0, 0, x.potentials[0][0].astype(np.int64))},
        r"potentials\[0\]\[0\]",
    ),
    "nan-potential": lambda x: (
        {"potentials": nudged(x, 0, 0, 3, math.nan)},
        r"potentials\[0\]\[0\]",
    ),
    "infinite-potential": lambda x: (
        {"potentials": nudged(x, 1, 1, 0, math.inf)},
        r"potentials\[1\]\[1\]",
    ),
    "short-band": lambda x: ({"band_center": x.band_center[:1]}, "band_center must be 2 finite"),
    "infinite-band-center": lambda x: ({"band_center": np.array([math.inf, 3.0])}, "band_center"),
    "nan-band-center": lambda x: ({"band_center": np.array([3.0, math.nan])}, "band_center"),
    "infinite-band-radius": lambda x: ({"band_radius": np.array([1.0, math.inf])}, "band_radius"),
    "faces-as-a-list": lambda x: (
        with_neg_face(x, x.faces_neg[0].tolist()),
        r"faces_neg\[0\] must be a 1-D integer array",
    ),
    "faces-as-a-mask": lambda x: (
        with_neg_face(x, np.isin(np.arange(len(x.factor_cells[0])), x.faces_neg[0])),
        r"faces_neg\[0\] must be a 1-D integer array",
    ),
    "negative-faces": lambda x: (
        with_neg_face(x, x.faces_neg[0] - len(x.factor_cells[0])),
        r"faces_neg\[0\] must index the \d+ cells of factor 0",
    ),
    "faces-out-of-range": lambda x: (
        {"faces_pos": x.faces_pos[:1] + (np.array([len(x.factor_cells[1]) + 5]),)},
        r"faces_pos\[1\] must index",
    ),
    "empty-faces": lambda x: (
        with_neg_face(x, np.zeros(0, dtype=np.int64)),
        "^axis 0: empty face set$",
    ),
}


@pytest.mark.parametrize("kind", list(MALFORMED))
def test_malformed_instances_are_refused_at_construction(kind):
    base = random_separator_instance(2, seed=5)
    changes, message = MALFORMED[kind](base)
    fields = {f.name: getattr(base, f.name) for f in dataclasses.fields(base)}
    with pytest.raises(ValueError, match=message):
        SeparatorInstance(**{**fields, **changes})
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(base, **changes)


def former_band_masks(instance: SeparatorInstance, k: int) -> np.ndarray:
    """The former scan's band S_k: a boolean product array over factor cell indices."""
    n = instance.n
    total = instance.potentials[k][0].reshape(-1, *([1] * (n - 1))).astype(np.float64)
    for j in range(1, n):
        shape = [1] * n
        shape[j] = -1
        total = total + instance.potentials[k][j].reshape(shape)
    return np.abs(total - instance.band_center[k]) <= instance.band_radius[k] + 1e-12


def former_bands_share_cell(instance: SeparatorInstance) -> bool:
    """The former product scan: every band's mask, ``&``-ed, then ``any``."""
    mask = former_band_masks(instance, 0)
    for k in range(1, instance.n):
        mask &= former_band_masks(instance, k)
    return bool(mask.any())


def scan_fixtures() -> list[SeparatorInstance]:
    """Valid instances of every dimension, a one-cell factor, and bands moved off each other."""
    valid = [random_separator_instance(n, seed) for n in (1, 2, 3) for seed in range(5)]
    # The 3-D constructed product (351 cells a factor) is left to the validation tests.
    valid += constructed_instances()[:3] + [single_cell_instance()]
    moved = [
        dataclasses.replace(x, band_center=x.band_center + shift)
        for x in valid[::3]
        for shift in (0.5, 2.0, 1e3)
    ]
    # The one cell of band 0 sits on the rule's edge, abs(0 - c) == r + 1e-12,
    # below the band and above it.
    edge = np.array([-(1.0 + 1e-12), 0.0])
    bar = single_cell_instance()
    below = ((-bar.potentials[0][0], bar.potentials[0][1]), bar.potentials[1])
    moved += [
        dataclasses.replace(valid[0], band_center=edge[:1]),
        dataclasses.replace(bar, band_center=edge),
        dataclasses.replace(bar, potentials=below, band_center=-edge),
    ]
    return valid + moved


def test_batched_scan_matches_the_former_product_scan():
    instances = scan_fixtures()
    want = [former_bands_share_cell(x) for x in instances]
    assert True in want and False in want
    assert sums_mod._shared_cells(sums_mod._packed(instances)).tolist() == want
    assert sums_mod._shared_cells(sums_mod._packed(instances[::-1])).tolist() == want[::-1]
    assert [sums_mod._shared_cells(sums_mod._packed([x]))[0] for x in instances] == want
    specs = [(3 if t % 10 == 9 else 2, 3000 + t) for t in range(100)] + [(1, 4), (3, 27)]
    got = random_bands_share_cell(specs)
    assert got == [former_bands_share_cell(random_separator_instance(*spec)) for spec in specs]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_batched_scan_matches_the_former_on_drawn_bands(data):
    # Moved centers, scaled radii and nudged potentials put cells in and out
    # of the bands, at the edges of the scan's drop of partial products; a
    # non-finite nudge is refused when the instance is built.
    n = data.draw(st.integers(1, 3))
    instance = random_separator_instance(n, seed=data.draw(st.integers(0, 5)))
    offsets = st.sampled_from([0.0, 0.5, -1.0, 1.0 + 1e-12, 2.0, -3.5])
    nudges = st.sampled_from([0.0] * 30 + [1e-12, 0.5, math.nan, math.inf, -math.inf])
    potentials = tuple(
        tuple(
            p + np.array(data.draw(st.lists(nudges, min_size=len(p), max_size=len(p))))
            for p in row
        )
        for row in instance.potentials
    )
    changes = dict(
        potentials=potentials,
        band_center=instance.band_center
        + np.array(data.draw(st.lists(offsets, min_size=n, max_size=n))),
        band_radius=instance.band_radius * data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])),
    )
    if not all(np.isfinite(p).all() for row in potentials for p in row):
        with pytest.raises(ValueError, match="one finite float64 per occupied cell"):
            dataclasses.replace(instance, **changes)
        return
    drawn = dataclasses.replace(instance, **changes)
    batch = [drawn, instance, drawn]
    want = [former_bands_share_cell(x) for x in batch]
    assert sums_mod._shared_cells(sums_mod._packed(batch)).tolist() == want


def test_search_blocks_the_former_band(monkeypatch):
    masks = []
    real = sums_mod._in_band

    def recording(*args):
        masks.append(real(*args))
        return masks[-1]

    monkeypatch.setattr(sums_mod, "_in_band", recording)
    instances = [random_separator_instance(3, 2), single_cell_instance()]
    instances += constructed_instances()[:3]
    for instance in instances:
        for axis in range(instance.n):
            masks.clear()
            separation_by_search(instance, axis)
            want = former_band_masks(instance, axis)
            assert len(masks) == 1 and np.array_equal(masks[0].reshape(want.shape), want)
