"""Pipeline tests: interior sweeps, equivalence checks, example scenarios."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.ndimage import distance_transform_cdt

import continuum_sums.grid as grid_mod
import continuum_sums.sums as sums_mod
import continuum_sums.verify as verify_mod
from continuum_sums.gallery import circle, l_shape, moment_curve, segment
from continuum_sums.grid import (
    GridGeometry,
    PackedMask,
    SampledSet,
    auto_geometry,
    minkowski_sum,
    rasterize,
)
from continuum_sums.verify import (
    verify_corollary_c1,
    verify_example_cantor,
    verify_hl_suite,
    verify_theorem_main,
)

COARSE = (0.1, 0.05)

TRIPOD_LADDER_EVIDENCE = [
    "ResolutionEvidence(h=0.04, interior_cube_center=(0.5, 0.5, 0.5), interior_cube_side=0.93,"
    " density_margin=0.16, threshold=0.195, outer_measure=3.1680000000000006,"
    " vol_parallelotope=1.0, ratio=3.1680000000000006)",
    "ResolutionEvidence(h=0.02, interior_cube_center=(0.51, 0.51, 0.51), interior_cube_side=0.99,"
    " density_margin=0.12, threshold=0.135, outer_measure=2.9174320000000007,"
    " vol_parallelotope=1.0, ratio=2.9174320000000007)",
    "ResolutionEvidence(h=0.01, interior_cube_center=(0.505, 0.505, 0.505),"
    " interior_cube_side=1.0, density_margin=0.1, threshold=0.10500000000000001,"
    " outer_measure=2.7950130000000004, vol_parallelotope=1.0, ratio=2.7950130000000004)",
]


def _probe_points(center, side, h):
    """Cube center plus the centers of its extreme cells."""
    c = np.asarray(center)
    half = side / 2 - h / 2
    probes = [c.copy()]
    if half > 0:
        for signs in np.ndindex(*(2,) * len(c)):
            offset = np.where(np.asarray(signs) == 1, half, -half)
            probes.append(c + offset)
    return probes


def _pairwise_sums(sets, rotation):
    rotated = [(k.points - k.points[0]) @ rotation for k in sets]
    acc = rotated[0]
    for pts in rotated[1:]:
        acc = (acc[:, None, :] + pts[None, :, :]).reshape(-1, acc.shape[1])
    return acc


class TestTheoremMain:
    def test_l_plus_l_supported(self):
        sets = [l_shape(budget=42), l_shape(budget=42)]
        ev = verify_theorem_main(sets, resolutions=COARSE)
        assert ev.verdict == "supported"
        assert ev.n_copies == 2
        assert not ev.certificate.flat
        assert [e.h for e in ev.resolutions] == [0.1, 0.05]
        last = ev.resolutions[-1]
        assert last.found
        assert last.interior_cube_side >= 0.9
        assert last.density_margin <= last.threshold + 1e-12
        for e in ev.resolutions:
            assert e.ratio is not None and e.ratio >= 1.0

    def test_l_plus_l_monotone_evidence(self):
        sets = [l_shape(budget=42), l_shape(budget=42)]
        ev = verify_theorem_main(sets, resolutions=COARSE)
        margins = [e.density_margin for e in ev.resolutions]
        sides = [e.interior_cube_side for e in ev.resolutions]
        assert margins[1] <= margins[0]
        assert sides[1] >= sides[0]

    def test_l_plus_l_cube_cells_near_true_sums(self):
        # Independent route: every probed cube point must sit close to an
        # explicitly enumerated pairwise sample sum.
        sets = [l_shape(budget=42), l_shape(budget=42)]
        ev = verify_theorem_main(sets, resolutions=COARSE)
        sums = _pairwise_sums(sets, ev.rotation)
        last = ev.resolutions[-1]
        bound = last.density_margin + 2 * last.h
        for p in _probe_points(last.interior_cube_center, last.interior_cube_side, last.h):
            gap = np.abs(sums - p).max(axis=1).min()
            assert gap <= bound + 1e-9

    def test_rotation_is_orthonormal(self):
        ev = verify_theorem_main([l_shape(budget=42), l_shape(budget=42)], resolutions=(0.1,))
        q = ev.rotation
        assert np.allclose(q.T @ q, np.eye(2), atol=1e-12)

    def test_circle_pair_supported_with_disk_measure(self):
        sets = [circle(budget=720), circle(budget=720)]
        ev = verify_theorem_main(sets, resolutions=(0.08, 0.04))
        assert ev.verdict == "supported"
        # The true sum is the disk of radius 2; the outer estimate may only
        # overshoot by the fattening ring at this resolution.
        disk = 4 * math.pi
        outer = ev.resolutions[-1].outer_measure
        assert 0.95 * disk <= outer <= 1.15 * disk

    def test_circle_cube_inside_scaled_disk(self):
        sets = [circle(budget=720), circle(budget=720)]
        ev = verify_theorem_main(sets, resolutions=(0.08, 0.04))
        center_rot = np.array([-2.0, 0.0]) @ ev.rotation
        last = ev.resolutions[-1]
        assert last.interior_cube_side >= 2.7
        slop = last.threshold + 2 * last.h
        for p in _probe_points(last.interior_cube_center, last.interior_cube_side, last.h):
            assert np.linalg.norm(p - center_rot) <= 2.0 + slop

    def test_collinear_segments_refuted(self):
        sets = [
            segment((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 9),
            segment((0.0, 0.0, 0.0), (0.5, 0.0, 0.0), 9),
            segment((0.0, 0.0, 0.0), (2.0, 0.0, 0.0), 9),
        ]
        ev = verify_theorem_main(sets, resolutions=(0.25, 0.125))
        assert ev.verdict == "refuted"
        assert "affine dimension 1" in ev.reason
        assert ev.certificate.flat
        for e in ev.resolutions:
            assert not e.found
            assert e.interior_cube_center is None
            assert e.density_margin == math.inf
            assert e.vol_parallelotope == 0.0

    def test_planar_cloud_refuted_in_space(self):
        rng = np.random.default_rng(5)
        pts = np.column_stack(
            [rng.uniform(0, 1, 40), rng.uniform(0, 1, 40), np.zeros(40)]
        )
        cloud = SampledSet(points=pts, density=0.6)
        ev = verify_theorem_main([cloud, cloud, cloud], resolutions=(0.5,))
        assert ev.verdict == "refuted"
        assert all(not e.found for e in ev.resolutions)

    def test_thin_band_is_inconclusive_not_supported(self):
        flat = SampledSet(segment((0.0, 0.0), (2.0, 0.0), 41).points, 0.03)
        tilted = SampledSet(segment((0.0, 0.0), (2.0, 0.1), 41).points, 0.03)
        ev = verify_theorem_main([flat, tilted], resolutions=(0.1,))
        assert not ev.certificate.flat
        assert ev.verdict == "inconclusive"
        assert "no admissible interior cube" in ev.reason

    def test_outer_measure_below_volume_is_inconclusive(self, monkeypatch):
        # A supported pair whose outer measures are forced to 0 trips only
        # the measure-floor rule of the verdict.
        monkeypatch.setattr(verify_mod, "cells_measure", lambda count, h, dim: 0.0)
        ev = verify_theorem_main([l_shape(budget=42), l_shape(budget=42)], resolutions=COARSE)
        assert all(e.outer_measure == 0.0 < e.vol_parallelotope for e in ev.resolutions)
        assert ev.verdict == "inconclusive"
        assert ev.reason == "outer measure fell below the parallelotope volume"

    def test_lattice_sampled_square_takes_the_fft_fold(self, monkeypatch):
        # A dense lattice sample has too many cells and row runs for either
        # sparse route, so its sums are folded by dilate_fft.
        calls = []
        real_fft = grid_mod.dilate_fft

        def dilate_fft(a, b):
            calls.append(1)
            return real_fft(a, b)

        monkeypatch.setattr(grid_mod, "dilate_fft", dilate_fft)
        axis = np.arange(0.0, 1.0 + 1e-12, 0.0071)
        square = SampledSet(
            points=np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2),
            density=0.0071 / 2,
        )
        ev = verify_theorem_main([square, square], resolutions=(0.02, 0.01, 0.005))
        assert calls
        assert ev.verdict == "supported"

    def test_moment_curve_parallelotope_volume(self):
        k = moment_curve(dim=2, budget=201)
        ev = verify_theorem_main([k, k], resolutions=(0.1,))
        assert ev.resolutions[0].vol_parallelotope == pytest.approx(0.25, abs=1e-12)
        assert ev.resolutions[0].ratio >= 1.0

    def test_deterministic_reports(self):
        sets = [l_shape(budget=42), l_shape(budget=42)]
        a = verify_theorem_main(sets, resolutions=COARSE)
        b = verify_theorem_main(sets, resolutions=COARSE)
        assert a.resolutions == b.resolutions
        assert (a.verdict, a.reason) == (b.verdict, b.reason)
        assert np.array_equal(a.rotation, b.rotation)

    def test_input_validation(self):
        good = [l_shape(budget=42), l_shape(budget=42)]
        with pytest.raises(ValueError, match="exactly 2"):
            verify_theorem_main(good[:1], resolutions=(0.1,))
        with pytest.raises(ValueError, match="at least one resolution"):
            verify_theorem_main(good, resolutions=())
        with pytest.raises(ValueError, match="positive"):
            verify_theorem_main(good, resolutions=(0.1, -0.05))

    def test_repeated_set_is_rasterized_and_labelled_once(self, monkeypatch):
        # One set passed three times is rasterized once per resolution (plus
        # once for the connectivity check) and labelled once; equal copies
        # that are distinct objects are each handled, with the same evidence.
        rasterized, labelled = [], []
        real_rasterize = verify_mod.rasterize
        real_continuum = verify_mod.is_grid_continuum

        def rasterize(samples, geometry, *args):
            rasterized.append((id(samples), geometry.spacing))
            return real_rasterize(samples, geometry, *args)

        def is_grid_continuum(raster):
            labelled.append(raster.geometry.spacing)
            return real_continuum(raster)

        monkeypatch.setattr(verify_mod, "rasterize", rasterize)
        monkeypatch.setattr(verify_mod, "is_grid_continuum", is_grid_continuum)
        k = l_shape(3, 63)
        once = verify_theorem_main([k] * 3, COARSE)
        assert [h for _, h in rasterized] == [0.05, 0.1, 0.05]
        assert len({key for key, _ in rasterized}) == 1
        assert labelled == [0.05]
        rasterized.clear()
        labelled.clear()
        copies = [k, k.translated((0.0, 0.0, 0.0)), k.translated((0.0, 0.0, 0.0))]
        each = verify_theorem_main(copies, COARSE)
        assert [h for _, h in rasterized] == [0.05] * 3 + [0.1] * 3 + [0.05] * 3
        assert len({key for key, _ in rasterized}) == 3
        assert labelled == [0.05] * 3
        assert each.resolutions == once.resolutions
        assert each.verdict == once.verdict == "supported"

    def test_benchmark_ladder_evidence_is_pinned(self):
        # The tripod ladder the benchmark sweeps, as computed before the
        # morphology was restricted to bounding boxes.  A change that moves a
        # cube, side, margin or measure fails here.
        ev = verify_theorem_main([l_shape(3, 63)] * 3, (0.04, 0.02, 0.01))
        assert [repr(e) for e in ev.resolutions] == TRIPOD_LADDER_EVIDENCE
        assert ev.verdict == "supported"

    @pytest.mark.parametrize(
        "sets, resolutions",
        [
            ([l_shape(budget=42), moment_curve(dim=2, budget=41)], COARSE),
            ([l_shape(3, 63)] * 3, (0.1,)),
        ],
    )
    def test_sum_cells_hold_the_swept_sum_raster(self, sets, resolutions):
        # Oracle from public pieces: each set moved to the origin, rotated
        # into the sweep's frame, rasterized and summed.
        ev = verify_theorem_main(sets, resolutions)
        moved = [k.translated(-k.points[0]).linear_image(ev.rotation.T) for k in sets]
        for e in ev.resolutions:
            total = minkowski_sum([rasterize(k, auto_geometry(k.points, e.h)) for k in moved])
            assert np.array_equal(e.sum_cells.unpack(), total.occupancy)

    def test_rejects_disconnected_set(self):
        far = SampledSet(points=np.array([[0.0, 0.0], [5.0, 5.0]]), density=0.01)
        with pytest.raises(ValueError, match="set 0 is not grid-connected"):
            verify_theorem_main([far, l_shape(budget=42)], resolutions=(0.1,))


class TestCorollary:
    def test_circle_all_positive(self):
        rep = verify_corollary_c1(circle(budget=400), m_directions=25, resolutions=(0.08, 0.04))
        assert rep.passed
        assert rep.scenario == "corollary-equivalences"
        assert [c.name for c in rep.checks] == [
            "rank-certificate",
            "projection-widths",
            "sum-interior",
            "equivalence-consistency",
        ]
        assert all(c.passed for c in rep.checks)
        assert rep.inputs["m_directions"] == 25
        assert rep.elapsed_seconds >= 0

    def test_flat_segment_consistent_negative(self):
        rep = verify_corollary_c1(segment((0.0, 0.0), (1.0, 0.0), 21), m_directions=10, resolutions=(0.1,))
        assert rep.passed
        by_name = {c.name: c for c in rep.checks}
        assert not by_name["rank-certificate"].passed
        assert not by_name["projection-widths"].passed
        assert not by_name["sum-interior"].passed
        assert by_name["equivalence-consistency"].passed
        assert "refuted" in by_name["sum-interior"].detail

    def test_rejects_zero_directions(self):
        with pytest.raises(ValueError, match="direction"):
            verify_corollary_c1(circle(budget=60), m_directions=0, resolutions=(0.1,))


class TestCantorScenario:
    def test_depth_three_structure(self):
        rep = verify_example_cantor(3, resolutions=(0.05, 0.025))
        assert rep.scenario == "cantor-example"
        by_name = {c.name: c for c in rep.checks}
        assert by_name["ladder-sum-meager"].passed
        assert by_name["graph-not-flat"].passed
        assert by_name["graph-not-nowhere-flat"].passed
        assert by_name["graph-sum-interior"].detail.split(":")[0] in (
            "supported",
            "inconclusive",
        )
        assert rep.inputs["depth"] == 3
        bound = (2**3 + 1) ** 2
        assert f"(bound {bound})" in by_name["ladder-sum-meager"].detail

    def test_depth_zero_still_runs(self):
        rep = verify_example_cantor(0, resolutions=(0.1,))
        assert rep.inputs["effective_level"] == 1
        assert len(rep.checks) == 4
        by_name = {c.name: c for c in rep.checks}
        assert by_name["graph-not-flat"].passed
        assert by_name["graph-not-nowhere-flat"].passed

    def test_depth_ten_ladder_check_stays_small(self):
        # The ladder self-sum is checked from its distinct heights, not from
        # its 2046^2 pairwise sums (67 MB of points and 136 MB peak here).
        tracemalloc.start()
        try:
            rep = verify_example_cantor(10, resolutions=COARSE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.passed
        by_name = {c.name: c for c in rep.checks}
        assert by_name["ladder-sum-meager"].detail == f"2045 dyadic lines (bound {1025**2})"
        assert peak < 48 * 2**20, peak

    def test_depth_bounds(self):
        with pytest.raises(ValueError, match="depth"):
            verify_example_cantor(13)
        with pytest.raises(ValueError, match="depth"):
            verify_example_cantor(-1)


def chessboard_distance(mask):
    """scipy's chessboard distance to the nearest set cell; 2**30 when none is set."""
    if not mask.any():
        return np.full(mask.shape, 2**30, dtype=np.int64)
    return distance_transform_cdt(~mask, metric="chessboard").astype(np.int64)


def dt_largest_cube(good, geometry, threshold):
    """Former cube search: argmax of the border-clamped transform of the bad set."""
    h = geometry.spacing
    if not good.any():
        return None
    inner = chessboard_distance(~good)
    for axis, extent in enumerate(inner.shape):
        line = np.minimum(np.arange(extent), np.arange(extent - 1, -1, -1)) + 1
        shape = [1] * inner.ndim
        shape[axis] = extent
        inner = np.minimum(inner, line.reshape(shape))
    radius = int(inner.max())
    side = (2 * radius - 1) * h
    if side <= 2 * threshold + 1e-12:
        return None
    center_idx = np.unravel_index(int(np.argmax(inner)), inner.shape)
    center = geometry.cell_center(center_idx)
    window = tuple(slice(int(i) - (radius - 1), int(i) + radius) for i in center_idx)
    return tuple(float(c) for c in center), float(side), window


def _cube_cases():
    """(occupancy, limit, threshold, geometry) over random sparse 2-D and 3-D grids."""
    rng = np.random.default_rng(2024)
    h = 0.1
    cases = []
    for trial in range(60):
        dim = 2 if trial % 3 else 3
        extents = tuple(int(e) for e in rng.integers(4, 30 if dim == 2 else 14, size=dim))
        occ = rng.random(extents) < rng.uniform(0.01, 0.2)
        if trial == 0:
            occ[...] = True
        limit = int(rng.integers(0, 4))
        threshold = (limit + float(rng.choice([0.0, 0.5]))) * h
        geometry = GridGeometry(origin=(-1.0,) * dim, spacing=h, extents=extents)
        cases.append((occ, limit, threshold, geometry))
    return cases


class TestBoxMorphologySweep:
    def test_cube_search_matches_distance_argmax_for_any_hint(self):
        found = 0
        for occ, limit, threshold, geometry in _cube_cases():
            good = chessboard_distance(occ) <= limit
            expected = dt_largest_cube(good, geometry, threshold)
            packed = PackedMask.pack(good)
            h = geometry.spacing
            hints = [None, 0.0, 0.5 * h, 1e3]
            if expected is not None:
                found += 1
                certified = expected[1] - 2 * threshold
                hints += [certified, certified - 3 * h, certified + 3 * h]
            for hint in hints:
                got = verify_mod._largest_cube(packed, geometry, threshold, hint)
                assert got == expected, (geometry.extents, limit, hint)
        assert found >= 20

    def test_cube_search_on_empty_good_set(self):
        geometry = GridGeometry(origin=(0.0, 0.0), spacing=0.1, extents=(5, 7))
        packed = PackedMask.pack(np.zeros((5, 7), bool))
        assert verify_mod._largest_cube(packed, geometry, 0.1) is None

    def test_cropped_margin_equals_full_transform_margin(self):
        checked = 0
        for occ, limit, threshold, geometry in _cube_cases():
            dist = chessboard_distance(occ)
            found = dt_largest_cube(dist <= limit, geometry, threshold)
            if found is None:
                continue
            window = found[2]
            got = verify_mod.covering_radius(PackedMask.pack(occ), window, limit)
            assert got == int(dist[window].max())
            checked += 1
        assert checked >= 20

    def test_sweep_transforms_only_cube_crops(self, monkeypatch):
        # The margin search dilates only the cube window grown by limit per
        # side, never the full grid.
        searches = []
        active = []
        real_search = verify_mod.covering_radius
        real_dilate = PackedMask.dilate

        def search(occupied, window, limit=None):
            assert limit is not None, "the sweep's margin search must be bounded"
            active.append([])
            try:
                return real_search(occupied, window, limit)
            finally:
                searches.append((occupied.shape, active.pop()))

        def dilate(mask, r):
            if active:
                active[-1].append(mask.shape)
            return real_dilate(mask, r)

        def refuse(*args, **kwargs):
            raise AssertionError("the sweep must not search a full grid's margin")

        monkeypatch.setattr(verify_mod, "covering_radius", search)
        monkeypatch.setattr(PackedMask, "dilate", dilate)
        monkeypatch.setattr(grid_mod, "eps_density_margin", refuse)
        ev = verify_theorem_main([l_shape(budget=42), l_shape(budget=42)], COARSE)
        assert ev.verdict == "supported"
        assert len(searches) == len(ev.resolutions)
        assert any(shapes for _, shapes in searches)
        for (full, shapes), entry in zip(searches, ev.resolutions):
            cube_cells = round((entry.interior_cube_side + 2 * entry.threshold) / entry.h)
            limit = math.floor(entry.threshold / entry.h + 1e-9)
            # The crop is widened to whole bytes of the sum on the packed
            # (last) axis: at most 7 cells on each side.
            bound = [cube_cells + 2 * limit] * (len(full) - 1) + [cube_cells + 2 * limit + 14]
            for shape in shapes:
                assert all(m <= b for m, b in zip(shape, bound)), shape
                assert shape != full, shape


class TestStepMemory:
    def test_tripod_sweep_traced_peak_is_bounded(self):
        # A step holds the unpadded packed sum, one padded packed mask and
        # slabs of at most 1 MiB beside it, plus erosions kept on their live
        # boxes; at h = 0.01 the sum is 3.4 MB and a padded mask 4.3 MB.
        sets = [l_shape(3, 63)] * 3
        tracemalloc.start()
        try:
            verify_theorem_main(sets, (0.04, 0.02, 0.01))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 14 * 2**20, peak / 2**20

    @pytest.mark.parametrize(
        "sets, resolutions",
        [
            ([l_shape(3, 63)] * 3, (0.04, 0.02, 0.01)),
            ([circle(budget=720)] * 2, (0.02, 0.01)),
            ([l_shape(2, 42), moment_curve(2, 41)], (0.05, 0.025)),
        ],
        ids=["tripod", "circle", "distinct"],
    )
    def test_sum_cells_equal_a_fresh_pack_of_the_dense_sum(self, sets, resolutions):
        evidence = verify_theorem_main(sets, resolutions)
        for entry in evidence.resolutions:
            rasters = {}
            for k in sets:
                if id(k) not in rasters:
                    moved = k.translated(-k.points[0]).linear_image(evidence.rotation.T)
                    rasters[id(k)] = rasterize(moved, auto_geometry(moved.points, entry.h))
            dense = minkowski_sum([rasters[id(k)] for k in sets]).occupancy
            want = PackedMask.pack(dense)
            assert entry.sum_cells.shape == want.shape
            assert np.array_equal(entry.sum_cells.bits, want.bits)

    @pytest.mark.parametrize("shape", [(7,), (5, 13), (4, 6, 17), (3, 3, 3, 9)])
    def test_morphology_results_share_no_memory_with_their_input(self, shape):
        rng = np.random.default_rng(len(shape))
        for mask in (rng.random(shape) < 0.6, np.ones(shape, bool)):
            kept = PackedMask.pack(mask)
            before = kept.bits.copy()
            results = [kept.padded(pad) for pad in (0, 1, 9)]
            results += [kept.dilate(r) for r in (0, 1, 2)]
            # A full mask's erosion by 0 keeps the whole array in a buffer
            # of its own.
            results += [kept.erode(r) for r in (0, 1)]
            for out in results:
                assert not np.shares_memory(out.bits, kept.bits)
            assert np.array_equal(kept.bits, before)

    def test_sweep_morphology_shares_no_memory_with_kept_masks(self, monkeypatch):
        # Every dilate, erode and padded call of a sweep returns an array of
        # its own; only a spent dilation reuses its input's array.
        pairs = []

        def record(name):
            real = getattr(PackedMask, name)

            def wrapped(mask, arg):
                out = real(mask, arg)
                pairs.append((name, mask.bits, out.bits))
                return out

            monkeypatch.setattr(PackedMask, name, wrapped)

        for name in ("dilate", "erode", "padded"):
            record(name)
        spent = []
        real_in_place = PackedMask.dilate_in_place

        def dilate_in_place(mask, r):
            out = real_in_place(mask, r)
            spent.append(mask)
            return out

        monkeypatch.setattr(PackedMask, "dilate_in_place", dilate_in_place)
        evidence = verify_theorem_main([l_shape(3, 63)] * 3, (0.04, 0.02))
        assert evidence.verdict == "supported"
        assert {name for name, _, _ in pairs} == {"dilate", "erode", "padded"}
        for name, src, out in pairs:
            assert not np.shares_memory(src, out), name
        for entry in evidence.resolutions:
            for _, _, out in pairs:
                assert not np.shares_memory(entry.sum_cells.bits, out)
        # A spent mask gives its array up, so no later use can read it.
        assert spent
        for mask in spent:
            with pytest.raises(AttributeError):
                mask.count()


class TestSeparatorSuite:
    def test_small_suite_passes(self):
        rep = verify_hl_suite(trials=25, seed=3)
        assert rep.passed
        assert rep.scenario == "separator-suite"
        by_name = {c.name: c.passed for c in rep.checks}
        assert by_name == {
            "random-instances": True,
            "axis-bands-on-cube": True,
            "claim-construction-instance": True,
        }
        assert "planar" in rep.checks[0].detail
        assert "spatial" in rep.checks[0].detail
        assert rep.inputs == {"trials": 25, "seed": 3}

    def test_suite_determinism(self):
        a = verify_hl_suite(trials=8, seed=11)
        b = verify_hl_suite(trials=8, seed=11)
        assert a.checks == b.checks
        assert a.passed == b.passed

    def test_validates_trials(self):
        with pytest.raises(ValueError, match="trials"):
            verify_hl_suite(trials=0)

    def test_blocks_do_not_change_the_report(self, monkeypatch):
        # 25 trials fit one default block; blocks of 7 draw them in four
        # batches (7, 7, 7, 4), and every instance depends on its spec alone.
        whole = verify_hl_suite(trials=25, seed=6)
        batches = []
        real_generate = verify_mod.random_bands_share_cell

        def generate(specs):
            batches.append(len(specs))
            return real_generate(specs)

        monkeypatch.setattr(verify_mod, "_SUITE_BLOCK", 7)
        monkeypatch.setattr(verify_mod, "random_bands_share_cell", generate)
        blocked = verify_hl_suite(trials=25, seed=6)
        assert batches == [7, 7, 7, 4]
        assert (blocked.scenario, blocked.inputs, blocked.checks, blocked.passed) == (
            whole.scenario,
            whole.inputs,
            whole.checks,
            whole.passed,
        )

    def test_suite_holds_one_block_of_specs_at_a_time(self, monkeypatch):
        # With the scan stubbed, the suite's traced peak is what it keeps
        # besides: one block's specs, not a list of every trial's.  The two
        # constructed checks are cached first, so they allocate nothing here.
        verify_mod._axis_band_cube_check()
        verify_mod._claim_instance_check()
        monkeypatch.setattr(verify_mod, "random_bands_share_cell", lambda specs: [True] * len(specs))
        tracemalloc.start()
        try:
            rep = verify_hl_suite(10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak / 2**20
        assert rep.checks[0].detail == (
            "90000 planar + 10000 spatial instances, every band family intersects"
        )

    def test_each_instance_is_validated_once(self, monkeypatch):
        # Every validation, batched or single, runs through the grouped
        # validator; record the factor counts of each batch it sees.  The
        # constructed checks run once per process, so their cached verdicts
        # are dropped first.
        verify_mod._axis_band_cube_check.cache_clear()
        verify_mod._claim_instance_check.cache_clear()
        batches = []
        real_validations = sums_mod._validations

        def validations(batch):
            batches.append(batch.dims.tolist())
            return real_validations(batch)

        def no_instances(n, seed):
            raise AssertionError("a passing block built its instances")

        checked = []
        real_check = verify_mod.hl_discrete_check

        def check(instance):
            checked.append(instance.n)
            return real_check(instance)

        monkeypatch.setattr(sums_mod, "_validations", validations)
        monkeypatch.setattr(verify_mod, "random_separator_instance", no_instances)
        monkeypatch.setattr(verify_mod, "hl_discrete_check", check)
        rep = verify_hl_suite(trials=20, seed=4)
        assert rep.passed
        # The random instances are validated by their generator only, as one
        # batch; the two constructed ones by hl_discrete_check, one each.
        assert batches == [([2] * 9 + [3]) * 2, [2], [2]]
        assert checked == [2, 2]
        # A second suite in the same process reuses both constructed verdicts.
        assert verify_hl_suite(trials=1, seed=4).passed
        assert checked == [2, 2] and batches[3:] == [[2]]

    def test_a_disjoint_instance_is_rebuilt_to_be_named(self, monkeypatch):
        real_generate = verify_mod.random_bands_share_cell

        def second_disjoint(specs):
            shared = real_generate(specs)
            shared[1] = False
            return shared

        monkeypatch.setattr(verify_mod, "random_bands_share_cell", second_disjoint)
        rep = verify_hl_suite(trials=3, seed=8)
        instance = sums_mod.random_separator_instance(2, 9)
        counts = "x".join(str(np.count_nonzero(f)) for f in instance.factors)
        assert not rep.passed and not rep.checks[0].passed
        assert rep.checks[0].detail == (
            f"FATAL: bands disjoint for n=2 seed=9 cells {counts} "
            f"center {instance.band_center.tolist()} radius [1.0, 1.0]"
        )

    def test_pinned_reports_and_derived_factor_cells(self, monkeypatch):
        # SHA-256 of each payload less ``elapsed_seconds``, dumped with sorted
        # keys, as taken while factors still carried a separate cell list.
        pinned = {
            0: "b9b662a2c600fa83fc4ea15effabdf09939c615ed9143e627e09d7f1498c69ff",
            5000: "8baf445f45e748fff2cd434dd91d53cad5eb9c76014166cd23b80f0f44fb00a4",
        }
        for seed, digest in pinned.items():
            payload = verify_hl_suite(1000, seed).payload()
            del payload["elapsed_seconds"]
            text = json.dumps(payload, sort_keys=True).encode()
            assert hashlib.sha256(text).hexdigest() == digest, seed
        # The two constructed instances, as the suite hands them to hl_discrete_check.
        constructed = []
        real_check = verify_mod.hl_discrete_check

        def check(instance):
            constructed.append(instance)
            return real_check(instance)

        verify_mod._axis_band_cube_check.cache_clear()
        verify_mod._claim_instance_check.cache_clear()
        monkeypatch.setattr(verify_mod, "hl_discrete_check", check)
        verify_hl_suite(trials=1)
        assert len(constructed) == 2
        specs = [(n, seed) for n in (1, 2, 3) for seed in range(20)]
        generated = [sums_mod.random_separator_instance(n, seed) for n, seed in specs]
        for instance in generated + constructed:
            for factor, cells in zip(instance.factors, instance.factor_cells, strict=True):
                assert factor.dtype == bool
                assert cells.dtype == np.int64
                assert np.array_equal(cells, np.argwhere(factor))
