"""Shift constructions, midpoint chains and separators against small oracles."""

from __future__ import annotations

import dataclasses
import math
from itertools import product as iter_product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import continuum_sums.grid as grid_mod
import continuum_sums.sums as sums_mod
from continuum_sums.affine import affine_dimension
from continuum_sums.gallery import l_shape, segment
from continuum_sums.grid import (
    GridGeometry,
    GridSet,
    PackedMask,
    SampledSet,
    Semantics,
    auto_geometry,
    chessboard_distance_transform,
    is_grid_continuum,
    measure_estimate,
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
    measure_lower_bound_check,
    midpoint_iterate,
    random_separator_instance,
    separation_by_search,
    shift_construction,
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


def test_measure_lower_bound_requires_outer():
    square = SampledSet(
        points=np.stack(
            np.meshgrid(np.linspace(0, 1, 21), np.linspace(0, 1, 21)), axis=-1
        ).reshape(-1, 2),
        density=0.025,
    )
    outer = rasterize(square, auto_geometry(square.points, 0.05), Semantics.OUTER)
    cover = rasterize(square, auto_geometry(square.points, 0.05))
    with pytest.raises(ValueError, match="Outer"):
        measure_lower_bound_check(cover, 1.0)
    report = measure_lower_bound_check(outer, 1.0)
    assert report.ok
    assert report.ratio is not None and report.ratio >= 1.0


def test_measure_lower_bound_flags_failure():
    point = SampledSet(points=np.zeros((1, 2)), density=0.0)
    outer = rasterize(point, auto_geometry(point.points, 0.5, pad_cells=1), Semantics.OUTER)
    report = measure_lower_bound_check(outer, vol_p=10.0)
    assert not report.ok
    assert measure_estimate(outer) == report.measure


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
    base_dim = affine_dimension(np.argwhere(chain.steps[0].occupancy).astype(float))[0]
    for step in chain.steps:
        cells = np.argwhere(step.occupancy).astype(float)
        assert affine_dimension(cells)[0] == base_dim


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
            patch.setattr(grid_mod, "chessboard_distance_transform", refuse)
            chain = midpoint_iterate(raster, steps)
        expected = None
        for index, grid in enumerate(chain.steps):
            radius = math.ceil(grid.slack / grid.geometry.spacing) + 1
            dist = chessboard_distance_transform(~np.pad(grid.occupancy, 1))
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
    """T -> (T + T) / 2 folded one pairwise ``dilate`` per step, with its probe step."""
    steps = [raster]
    for _ in range(k):
        doubled = grid_mod.dilate(steps[-1], steps[-1])
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


def test_midpoint_diagonal_last_step_takes_the_sparse_route(monkeypatch):
    # Step 10 of the diagonal chain sums a 2049^2 grid with itself into 4097^2
    # cells from 2049^2 pairs: minkowski_sum's sparse route, no dilate call.
    summed = []
    real = grid_mod.dilate

    def counting(a, b):
        summed.append(a.geometry.extents)
        return real(a, b)

    monkeypatch.setattr(grid_mod, "dilate", counting)
    chain = midpoint_iterate(criterion_07_inputs()["diagonal segment"], 10)
    assert chain.steps[-1].geometry.extents == (4097, 4097)
    assert len(summed) == 9
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


def test_random_instances_validate_and_intersect():
    for seed in range(12):
        instance = random_separator_instance(2, seed)
        assert hl_discrete_check(instance)
    for seed in range(4):
        instance = random_separator_instance(3, seed)
        assert hl_discrete_check(instance)


def test_random_instance_search_agrees_with_oracle():
    for seed in (0, 1, 2):
        instance = random_separator_instance(2, seed, size_range=(6, 12))
        for axis in range(2):
            fast = separation_by_search(instance, axis)
            slow = oracle_separates(instance, axis)
            assert fast == slow
            assert fast


def test_gallery_instance_search_agrees_with_oracle():
    sets = sparse_axis_segments()
    c = shift_construction(sets, s=1)
    instance = build_sum_separators(c, sets, target=(0.375, 0.375), h=0.25)
    for axis in range(2):
        assert oracle_separates(instance, axis)


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
    factor = instance.factors[0]
    occ = factor.occupancy.copy()
    occ[:] = False
    occ[0, 0] = True
    occ[-1, -1] = True
    cells = np.argwhere(occ).astype(np.int64)
    broken = dataclasses.replace(
        instance,
        factors=(dataclasses.replace(factor, occupancy=occ),) + instance.factors[1:],
        factor_cells=(cells,) + instance.factor_cells[1:],
        potentials=tuple(
            (pots[0][: len(cells)],) + pots[1:] for pots in instance.potentials
        ),
    )
    with pytest.raises(ValueError, match="continuum|cell list"):
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
        if not is_grid_continuum(factor):
            raise ValueError(f"factor {j} is not a connected grid continuum")
        if len(instance.factor_cells[j]) != int(factor.occupancy.sum()):
            raise ValueError(f"factor {j} cell list does not match its occupancy")
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


def former_random_separator_instance(
    n: int, seed: int, size_range: tuple[int, int] = (10, 26)
) -> SeparatorInstance:
    """The former generator: a fresh numpy move and position array per walk step."""
    rng = np.random.default_rng(seed)
    for _attempt in range(64):
        factors = []
        factor_cells = []
        ok = True
        for j in range(n):
            steps = int(rng.integers(*size_range))
            pos = np.zeros(n, dtype=np.int64)
            visited = {tuple(pos)}
            for _ in range(steps * 3):
                move = np.zeros(n, dtype=np.int64)
                if rng.random() < 0.7:
                    move[j] = 1
                else:
                    axis = int(rng.integers(n))
                    move[axis] = int(rng.choice((-1, 1)))
                pos = pos + move
                visited.add(tuple(pos))
                if len(visited) >= steps:
                    break
            cells = np.array(sorted(visited), dtype=np.int64)
            cells -= cells.min(axis=0)
            extents = tuple(int(e) for e in cells.max(axis=0) + 1)
            occupancy = np.zeros(extents, dtype=bool)
            occupancy[tuple(cells.T)] = True
            grid = GridSet(
                geometry=GridGeometry(origin=(0.0,) * n, spacing=1.0, extents=extents),
                occupancy=occupancy,
                semantics=Semantics.SAMPLE_COVER,
                slack=0.5,
            )
            factors.append(grid)
            factor_cells.append(np.argwhere(grid.occupancy).astype(np.int64))
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
            factor_cells=tuple(factor_cells),
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
    assert [f.geometry for f in got.factors] == [f.geometry for f in want.factors]
    assert [(f.semantics, f.slack) for f in got.factors] == [
        (f.semantics, f.slack) for f in want.factors
    ]
    assert_same_arrays([f.occupancy for f in got.factors], [f.occupancy for f in want.factors])
    assert_same_arrays(got.factor_cells, want.factor_cells)
    for got_row, want_row in zip(got.potentials, want.potentials, strict=True):
        assert_same_arrays(got_row, want_row)
    assert_same_arrays(
        [got.band_center, got.band_radius], [want.band_center, want.band_radius]
    )
    assert_same_arrays(got.faces_neg, want.faces_neg)
    assert_same_arrays(got.faces_pos, want.faces_pos)
    assert got.target is None and want.target is None


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
def test_random_instance_matches_former_numpy_walk(n, seeds, size_range):
    for seed in seeds:
        got = random_separator_instance(n, seed, size_range=size_range)
        want = former_random_separator_instance(n, seed, size_range=size_range)
        assert_same_instance(got, want)


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
    with np.errstate(all="ignore"):
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


def test_validation_matches_former_on_invalid_instances():
    instance = random_separator_instance(2, seed=5)
    invalid = [
        dataclasses.replace(instance, band_radius=np.zeros(2)),
        dataclasses.replace(instance, band_center=instance.band_center + 1000.0),
        dataclasses.replace(
            instance, faces_neg=(np.zeros(0, dtype=np.int64),) + instance.faces_neg[1:]
        ),
        dataclasses.replace(
            instance, factor_cells=(instance.factor_cells[0][:-1],) + instance.factor_cells[1:]
        ),
    ]
    factor = instance.factors[0]
    occ = np.zeros_like(factor.occupancy)
    occ[0, 0] = True
    occ[-1, -1] = True
    cells = np.argwhere(occ).astype(np.int64)
    invalid.append(
        dataclasses.replace(
            instance,
            factors=(dataclasses.replace(factor, occupancy=occ),) + instance.factors[1:],
            factor_cells=(cells,) + instance.factor_cells[1:],
            potentials=tuple(
                (pots[0][: len(cells)],) + pots[1:] for pots in instance.potentials
            ),
        )
    )
    outcomes = [assert_same_validation(bad) for bad in invalid]
    assert [o[0] for o in outcomes] == ["error"] * len(invalid)


def test_potentials_of_the_wrong_length_are_rejected():
    # The former validation failed here with an IndexError from its
    # full-matrix indexing; now a mismatch is named like any invalid instance.
    instance = random_separator_instance(2, seed=5)
    pots = instance.potentials[1][0]
    for wrong in (pots[:-1], np.append(pots, pots[-1])):
        bad = dataclasses.replace(
            instance, potentials=(instance.potentials[0], (wrong, instance.potentials[1][1]))
        )
        with pytest.raises(ValueError, match="axis 1: factor 0 potentials do not match"):
            hl_discrete_check(bad)


def single_cell_instance() -> SeparatorInstance:
    """A 10-cell bar times one cell: the single cell has no adjacent pair."""
    bar = grid_from_cells([[i, 0] for i in range(10)])
    dot = grid_from_cells([[0, 0]])
    bar_cells = np.argwhere(bar.occupancy).astype(np.int64)
    dot_cells = np.argwhere(dot.occupancy).astype(np.int64)
    return SeparatorInstance(
        factors=(bar, dot),
        factor_cells=(bar_cells, dot_cells),
        potentials=(
            (bar_cells[:, 0].astype(np.float64), np.zeros(1)),
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
        factors=instance.factors[:1],
        factor_cells=instance.factor_cells[:1],
        potentials=((instance.potentials[0][0],),),
        band_center=instance.band_center[:1],
        band_radius=instance.band_radius[:1],
        faces_neg=instance.faces_neg[:1],
        faces_pos=instance.faces_pos[:1],
    )
    assert assert_same_validation(one_axis)[0] == "ok"
    assert np.array_equal(validate_separators(one_axis).max_step, [1.0])


any_float = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-50, 50),
    st.integers(-50, 50).map(float),
    st.integers(-50, 50).map(lambda v: v + 1e-10),
    st.integers(-50, 50).map(lambda v: v + 0.5),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(any_float, min_size=1, max_size=6))
@example([math.inf, 2.0 + 1e-10])
@example([-math.inf, 3.0, 1e-6])
@example([math.nan, 1.0])
@example([0.5, math.inf])
@example([1e300, -1e300, 2.0**60 + 0.5])
def test_integrality_flag_matches_allclose(values):
    values = np.array(values, dtype=np.float64)
    with np.errstate(all="ignore"):
        want = bool(np.allclose(values, np.round(values), atol=1e-9))
    assert sums_mod._is_integral(values) == want
    for v in values:
        one = np.array([v])
        with np.errstate(all="ignore"):
            want_one = bool(np.allclose(one, np.round(one), atol=1e-9))
        assert sums_mod._is_integral(one) == want_one


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_validation_matches_former_on_drawn_potentials(data):
    # Scaled and perturbed coordinate potentials keep the band near the face
    # gap, so instances are accepted as well as refused for each reason.
    instance = random_separator_instance(2, seed=data.draw(st.integers(0, 5)), size_range=(4, 9))
    scale = data.draw(st.sampled_from([1.0, 0.5, 0.25]))
    nudges = st.sampled_from([0.0] * 30 + [1e-10, 1e-6, 0.1, math.nan, math.inf, -math.inf])
    potentials = tuple(
        tuple(
            scale * p + np.array(data.draw(st.lists(nudges, min_size=len(p), max_size=len(p))))
            for p in row
        )
        for row in instance.potentials
    )
    drawn = dataclasses.replace(
        instance,
        potentials=potentials,
        band_center=scale * instance.band_center,
        band_radius=scale * instance.band_radius,
    )
    assert_same_validation(drawn)
