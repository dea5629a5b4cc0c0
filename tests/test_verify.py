"""Pipeline tests: interior sweeps, equivalence checks, example scenarios."""

import math

import numpy as np
import pytest

import continuum_sums.grid as grid_mod
import continuum_sums.sums as sums_mod
import continuum_sums.verify as verify_mod
from continuum_sums.gallery import circle, l_shape, moment_curve, segment
from continuum_sums.grid import (
    GridGeometry,
    PackedMask,
    SampledSet,
    chessboard_distance_transform,
)
from continuum_sums.verify import (
    verify_corollary_c1,
    verify_example_cantor,
    verify_hl_suite,
    verify_theorem_main,
)

COARSE = (0.1, 0.05)


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

    def test_depth_bounds(self):
        with pytest.raises(ValueError, match="depth"):
            verify_example_cantor(13)
        with pytest.raises(ValueError, match="depth"):
            verify_example_cantor(-1)


def dt_largest_cube(good, geometry, threshold):
    """Former cube search: argmax of the border-clamped transform of the bad set."""
    h = geometry.spacing
    if not good.any():
        return None
    inner = chessboard_distance_transform(~good).astype(np.int64)
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
            good = chessboard_distance_transform(occ) <= limit
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
            dist = chessboard_distance_transform(occ)
            found = dt_largest_cube(dist <= limit, geometry, threshold)
            if found is None:
                continue
            window = found[2]
            got = verify_mod._window_margin(PackedMask.pack(occ), window, limit)
            assert got == int(dist[window].max())
            checked += 1
        assert checked >= 20

    def test_sweep_transforms_only_cube_crops(self, monkeypatch):
        shapes = []
        real = verify_mod.chessboard_distance_transform

        def record(mask):
            shapes.append(np.shape(mask))
            return real(mask)

        def refuse(*args, **kwargs):
            raise AssertionError("the sweep must not transform a full grid")

        monkeypatch.setattr(verify_mod, "chessboard_distance_transform", record)
        monkeypatch.setattr(grid_mod, "chessboard_distance_transform", refuse)
        ev = verify_theorem_main([l_shape(budget=42), l_shape(budget=42)], COARSE)
        assert ev.verdict == "supported"
        assert len(shapes) == len(ev.resolutions)
        for shape, entry in zip(shapes, ev.resolutions):
            cube_cells = round((entry.interior_cube_side + 2 * entry.threshold) / entry.h)
            limit = math.floor(entry.threshold / entry.h + 1e-9)
            assert all(m <= cube_cells + 2 * limit for m in shape), shape


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

    def test_each_instance_is_validated_once(self, monkeypatch):
        accepted = []
        real_validate = sums_mod.validate_separators

        def validate(instance):
            report = real_validate(instance)
            accepted.append(instance)
            return report

        generated, checked = [], []
        real_generate = verify_mod.random_separator_instance
        real_check = verify_mod.hl_discrete_check

        def generate(*args, **kwargs):
            instance = real_generate(*args, **kwargs)
            generated.append(instance)
            return instance

        def check(instance):
            checked.append(instance)
            return real_check(instance)

        monkeypatch.setattr(sums_mod, "validate_separators", validate)
        monkeypatch.setattr(verify_mod, "random_separator_instance", generate)
        monkeypatch.setattr(verify_mod, "hl_discrete_check", check)
        rep = verify_hl_suite(trials=20, seed=4)
        assert rep.passed
        assert len(generated) == 20
        # The random instances are validated by their generator only; the
        # two constructed ones by hl_discrete_check.
        assert len(checked) == 2
        for instance in generated + checked:
            assert sum(v is instance for v in accepted) == 1
        assert len(accepted) == 22
