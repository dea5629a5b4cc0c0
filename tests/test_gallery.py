"""Generator correctness against exact rational oracles and frozen values."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from continuum_sums.affine import is_nowhere_flat, nonflat_certificate
from continuum_sums.grid import SampledSet
from continuum_sums.gallery import (
    GeneratorSpec,
    cantor_graph,
    cantor_set,
    cantor_value,
    circle,
    dyadic_lines_check,
    generate,
    l_shape,
    ladder_steps,
    moment_curve,
    polyline,
    sampled_sum,
    segment,
    self_sum_dyadic_lines,
)


def ladder_oracle(x: Fraction, depth: int = 64) -> Fraction:
    """Cantor function by interval bisection, independent of the digit map."""
    assert 0 <= x <= 1
    lo, hi = Fraction(0), Fraction(1)
    value, step = Fraction(0), Fraction(1, 2)
    for _ in range(depth):
        width = hi - lo
        if x < lo + width / 3:
            hi = lo + width / 3
        elif x > hi - width / 3:
            value += step
            lo = hi - width / 3
        else:
            return value + step
        step /= 2
    return value


def cover_radius(samples: np.ndarray, targets: np.ndarray) -> float:
    """Largest sup-norm distance from a target point to its nearest sample."""
    d = np.abs(targets[:, None, :] - samples[None, :, :]).max(axis=2)
    return float(d.min(axis=1).max())


# --- cantor function -----------------------------------------------------------------


def test_cantor_value_frozen_points():
    assert cantor_value(0.0) == 0.0
    assert cantor_value(1.0) == 1.0
    assert cantor_value(Fraction(1, 3)) == 0.5
    assert cantor_value(Fraction(2, 3)) == 0.5
    assert cantor_value(Fraction(1, 2)) == 0.5  # inside the middle gap
    assert cantor_value(Fraction(2, 9)) == 0.25
    assert cantor_value(Fraction(1, 4)) == pytest.approx(1 / 3, abs=1e-15)


@given(st.fractions(min_value=0, max_value=1, max_denominator=3**9))
def test_cantor_value_matches_bisection_oracle(x):
    assert cantor_value(x) == pytest.approx(float(ladder_oracle(x)), abs=1e-15)


@given(st.integers(0, 3**10), st.integers(0, 3**10))
def test_cantor_value_is_monotone(p, q):
    a = Fraction(min(p, q), 3**10)
    b = Fraction(max(p, q), 3**10)
    assert cantor_value(a) <= cantor_value(b)


def test_cantor_value_rejects_outside_domain():
    with pytest.raises(ValueError, match="0, 1"):
        cantor_value(1.5)


# --- cantor set ----------------------------------------------------------------------


def test_cantor_set_depth_one_frozen():
    out = cantor_set(1)
    assert np.allclose(out.points[:, 0], [0.0, 2 / 3])
    assert out.density == pytest.approx(1 / 3)


def test_cantor_set_counts_and_membership():
    out = cantor_set(5)
    assert out.count == 32
    xs = out.points[:, 0]
    assert np.all(np.diff(xs) > 0)
    # Left endpoints are fixed by deeper truncations.
    deeper = cantor_set(8).points[:, 0]
    assert set(np.round(xs, 12)) <= set(np.round(deeper, 12))


def test_cantor_set_depth_zero_is_single_origin():
    out = cantor_set(0)
    assert out.count == 1
    assert out.points[0, 0] == 0.0
    assert out.density == 1.0


# --- simple generators ---------------------------------------------------------------


def test_segment_budget_eleven_frozen():
    out = segment((0.0, 0.0), (1.0, 0.0), budget=11)
    assert out.count == 11
    assert out.density == pytest.approx(0.05)
    assert np.allclose(out.points[:, 0], np.arange(11) / 10)


def test_segment_cover_radius_matches_density():
    out = segment((0.0, 0.0), (2.0, 1.0), budget=21)
    t = np.linspace(0, 1, 797)[:, None]
    dense = t * np.array([[2.0, 1.0]])
    assert cover_radius(out.points, dense) <= out.density + 1e-12


def test_l_shape_origin_first_and_density():
    out = l_shape(2, budget=40)
    assert np.array_equal(out.points[0], [0.0, 0.0])
    assert out.count == 39
    assert out.density == pytest.approx(1 / 38)
    on_axis = (np.abs(out.points[:, 0]) < 1e-15) | (np.abs(out.points[:, 1]) < 1e-15)
    assert on_axis.all()


def test_l_shape_three_dimensional():
    out = l_shape(3, budget=30)
    assert out.dim == 3
    assert out.count == 28
    assert out.points.max() == 1.0


def test_circle_samples_on_circle_and_cover():
    out = circle(240, center=(0.5, -1.0), radius=2.0, phase=0.1)
    radii = np.hypot(out.points[:, 0] - 0.5, out.points[:, 1] + 1.0)
    assert np.abs(radii - 2.0).max() <= 1e-12
    theta = np.linspace(0, 2 * np.pi, 1009)
    dense = np.stack([0.5 + 2 * np.cos(theta), -1.0 + 2 * np.sin(theta)], axis=1)
    assert cover_radius(out.points, dense) <= out.density + 1e-12


def test_moment_curve_on_curve_and_cover():
    out = moment_curve(3, budget=101)
    t = out.points[:, 0]
    assert np.array_equal(out.points[:, 1], t**2)
    assert np.array_equal(out.points[:, 2], t**3)
    s = np.linspace(0, 1, 997)
    dense = np.stack([s, s**2, s**3], axis=1)
    assert cover_radius(out.points, dense) <= out.density + 1e-12


def test_polyline_hits_vertices_and_covers():
    verts = [(0.0, 0.0), (1.0, 0.0), (1.0, 3.0)]
    out = polyline(verts, budget=40)
    for v in verts:
        assert np.abs(out.points - np.array(v)).max(axis=1).min() <= 1e-12
    t = np.linspace(0, 1, 401)[:, None]
    dense = np.vstack(
        [np.array([[0.0, 0.0]]) + t * [1.0, 0.0], np.array([[1.0, 0.0]]) + t * [0.0, 3.0]]
    )
    assert cover_radius(out.points, dense) <= out.density + 1e-12


def test_generator_input_validation():
    with pytest.raises(ValueError, match="at least 2"):
        segment((0.0,), (1.0,), budget=1)
    with pytest.raises(ValueError, match="radius"):
        circle(10, radius=0.0)
    with pytest.raises(ValueError, match="vertices"):
        polyline([(0.0, 0.0)], budget=10)
    with pytest.raises(ValueError, match="repeated"):
        polyline([(0.0, 0.0), (0.0, 0.0), (1.0, 1.0)], budget=10)


# --- cantor graph ----------------------------------------------------------------------


def test_cantor_graph_heights_match_ladder_oracle_exactly():
    # Reconstruct the exact rational corners independently and compare.
    out = cantor_graph(4)
    lo, hi = Fraction(0), Fraction(1)
    intervals = [(lo, hi)]
    for _ in range(4):
        intervals = [
            piece
            for a, b in intervals
            for piece in ((a, a + (b - a) / 3), (b - (b - a) / 3, b))
        ]
    for a, b in intervals:
        for endpoint in (a, b):
            exact_height = ladder_oracle(endpoint)
            near = np.abs(out.points[:, 0] - float(endpoint)) < 1e-12
            assert near.any()
            assert np.abs(out.points[near, 1] - float(exact_height)).max() == 0.0


def test_cantor_graph_is_monotone_and_on_graph():
    out = cantor_graph(5)
    xs, ys = out.points[:, 0], out.points[:, 1]
    assert np.all(np.diff(xs) >= 0)
    assert np.all(np.diff(ys) >= 0)
    # Floats round the exact x by one ulp; the ladder reacts Holder-style.
    for x, y in out.points[:: max(1, out.count // 50)]:
        assert abs(cantor_value(Fraction(x)) - y) <= 1e-9


def test_cantor_graph_covers_dense_graph_samples():
    out = cantor_graph(5)
    xs = np.linspace(0, 1, 1213)
    dense = np.stack([xs, [cantor_value(Fraction(x)) for x in xs]], axis=1)
    assert cover_radius(out.points, dense) <= out.density + 1e-9


def test_cantor_graph_budget_deepens_level():
    coarse = cantor_graph(3)
    fine = cantor_graph(3, budget=640)
    assert fine.density < coarse.density
    assert fine.density == pytest.approx(2.0**-7)


def test_cantor_graph_flatness_profile():
    out = cantor_graph(6)
    cert = nonflat_certificate(out)
    assert not cert.flat
    patches = is_nowhere_flat(out, rho=0.05)
    assert not patches.nowhere_flat  # plateaus are straight


# --- ladder steps ----------------------------------------------------------------------


def test_ladder_steps_depth_one_is_middle_plateau():
    out = ladder_steps(1, budget=8)
    assert np.all(out.points[:, 1] == 0.5)
    assert out.points[:, 0].min() >= 1 / 3 + 0.1 / 3 - 1e-12
    assert out.points[:, 0].max() <= 2 / 3 - 0.1 / 3 + 1e-12


def test_ladder_steps_heights_are_dyadic_and_complete():
    depth = 3
    out = ladder_steps(depth, budget=70)
    heights = np.unique(out.points[:, 1])
    assert len(heights) == 2**depth - 1
    scaled = heights * 2.0**depth
    assert np.all(scaled == np.floor(scaled))


def test_ladder_steps_avoid_graph_restriction_points():
    out = ladder_steps(4, budget=200)
    for x in out.points[:, 0]:
        fr = Fraction(x)
        # Interior of a removed gap: the ternary expansion hits digit 1.
        digits = []
        for _ in range(40):
            fr *= 3
            d = math.floor(fr)
            digits.append(d)
            fr -= d
        assert 1 in digits


def test_ladder_steps_self_sum_lies_on_few_dyadic_lines():
    steps = ladder_steps(3, budget=35)
    total = sampled_sum(steps, steps)
    ok, lines = dyadic_lines_check(total, max_denominator_exponent=6)
    assert ok
    assert lines <= 49


def test_graph_self_sum_heights_are_not_dyadic():
    graph = cantor_graph(6)
    total = sampled_sum(graph, graph)
    ok, _ = dyadic_lines_check(total, max_denominator_exponent=12)
    assert not ok


def test_dyadic_lines_check_empty_passes_vacuously():
    empty = SampledSet(points=np.empty((0, 2)), density=0.0)
    assert dyadic_lines_check(empty, 6) == (True, 0)


def test_sampled_sum_counts_and_density():
    a = segment((0.0, 0.0), (1.0, 0.0), budget=5)
    b = segment((0.0, 0.0), (0.0, 1.0), budget=7)
    total = sampled_sum(a, b)
    assert total.count == 35
    assert total.density == pytest.approx(a.density + b.density)
    # The sum of the two axis segments fills the unit square's sample grid.
    assert np.abs(total.points - np.array([0.5, 0.5])).max(axis=1).max() <= 0.5 + 1e-12


# --- flatness profile of the gallery ---------------------------------------------------


def test_gallery_flatness_profile():
    assert nonflat_certificate(segment((0.0, 0.0), (1.0, 1.0)).points).flat
    assert not nonflat_certificate(l_shape(2, 40).points).flat
    assert not nonflat_certificate(circle(90).points).flat
    assert not nonflat_certificate(moment_curve(2, 41).points).flat
    assert is_nowhere_flat(circle(360), rho=0.5).nowhere_flat


# --- generator specs --------------------------------------------------------------------


def test_generate_dispatch_and_determinism():
    spec = GeneratorSpec(kind="circle", parameters={"radius": 2.0}, sample_budget=90)
    first = generate(spec)
    second = generate(spec)
    assert isinstance(first, SampledSet)
    assert np.array_equal(first.points, second.points)
    assert first.count == 90


def test_generate_rejects_bad_specs():
    with pytest.raises(ValueError, match="unknown generator kind"):
        generate(GeneratorSpec(kind="spiral"))
    with pytest.raises(ValueError, match="sample_budget"):
        generate(GeneratorSpec(kind="circle", sample_budget=1))
    with pytest.raises(ValueError, match="unknown parameter"):
        generate(GeneratorSpec(kind="circle", parameters={"radius": 1.0, "turns": 2}))
    with pytest.raises(ValueError, match="finite"):
        generate(GeneratorSpec(kind="circle", parameters={"radius": math.inf}))
    with pytest.raises(ValueError, match="needs depth"):
        generate(GeneratorSpec(kind="cantor_graph"))
    with pytest.raises(ValueError, match="needs start"):
        generate(GeneratorSpec(kind="segment"))


def test_generate_cantor_graph_reports_level():
    out = generate(
        GeneratorSpec(kind="cantor_graph", parameters={"depth": 3}, sample_budget=640)
    )
    assert round(-math.log2(out.density)) == 7


# --- integer-exact Cantor generators against their rational-arithmetic form ------------


def _cantor_intervals(depth: int) -> list[tuple[Fraction, Fraction]]:
    """The 2^depth level-``depth`` middle-thirds intervals, ascending."""
    intervals = [(Fraction(0), Fraction(1))]
    for _ in range(depth):
        third = [
            piece
            for a, b in intervals
            for piece in ((a, a + (b - a) / 3), (b - (b - a) / 3, b))
        ]
        intervals = third
    return intervals


@dataclass(frozen=True)
class _GraphPieces:
    """Exact level-k structure of the ladder graph."""

    level: int
    corners: list[tuple[Fraction, Fraction]]
    plateaus: list[tuple[Fraction, Fraction, Fraction]]  # (left, right, height)


def _graph_pieces(level: int) -> _GraphPieces:
    intervals = _cantor_intervals(level)
    corners = []
    for j, (a, b) in enumerate(intervals):
        corners.append((a, Fraction(j, 2**level)))
        corners.append((b, Fraction(j + 1, 2**level)))
    plateaus = []
    for j in range(len(intervals) - 1):
        left = intervals[j][1]
        right = intervals[j + 1][0]
        plateaus.append((left, right, Fraction(j + 1, 2**level)))
    return _GraphPieces(level=level, corners=corners, plateaus=plateaus)


def fraction_cantor_set(depth: int) -> SampledSet:
    """``cantor_set`` as first written: Fraction ends, each rounded by ``float``."""
    lefts = [float(a) for a, _ in _cantor_intervals(depth)]
    return SampledSet(points=np.array(lefts)[:, None], density=3.0 ** -depth)


def fraction_cantor_graph(depth: int, budget: int = 0) -> SampledSet:
    """``cantor_graph`` as first written, one Fraction point at a time."""
    level = max(depth, 1)
    if budget:
        level = max(level, int(math.log2(max(budget, 4) / 3.5)))
        level = min(level, 20)
    pieces = _graph_pieces(level)
    spacing_cap = 2.0 ** (1 - level)
    xs: list[float] = []
    ys: list[float] = []
    plateau_by_left = {p[0]: p for p in pieces.plateaus}
    interval_width = Fraction(1, 3**level)
    interior_dx = interval_width / 4
    interior_dy = Fraction(1, 3 * 2**level)
    left_corner = True
    for cx, cy in pieces.corners:
        xs.append(float(cx))
        ys.append(float(cy))
        if left_corner:
            xs.append(float(cx + interior_dx))
            ys.append(float(cy + interior_dy))
            left_corner = False
            continue
        left_corner = True
        plateau = plateau_by_left.get(cx)
        if plateau is None:
            continue
        left, right, height = plateau
        width = float(right - left)
        inner = max(2, math.ceil(width / spacing_cap) + 1)
        fill = np.linspace(float(left), float(right), inner + 1)[1:-1]
        xs.extend(fill.tolist())
        ys.extend([float(height)] * len(fill))
    pts = np.stack([np.array(xs), np.array(ys)], axis=1)
    return SampledSet(points=pts, density=2.0 ** -level)


def fraction_ladder_steps(depth: int, budget: int = 64) -> SampledSet:
    """``ladder_steps`` as first written, one Fraction plateau at a time."""
    plateaus = _graph_pieces(depth).plateaus
    per_plateau = max(2, budget // len(plateaus))
    xs: list[float] = []
    ys: list[float] = []
    density = 0.0
    for left, right, height in plateaus:
        length = float(right - left)
        lo = float(left) + 0.1 * length
        hi = float(right) - 0.1 * length
        fill = np.linspace(lo, hi, per_plateau)
        xs.extend(fill.tolist())
        ys.extend([float(height)] * per_plateau)
        spacing = (hi - lo) / (per_plateau - 1)
        density = max(density, 0.1 * length, spacing / 2)
    pts = np.stack([np.array(xs), np.array(ys)], axis=1)
    return SampledSet(points=pts, density=density)


def assert_same_samples(got: SampledSet, want: SampledSet) -> None:
    assert got.points.dtype == want.points.dtype == np.float64
    assert got.points.shape == want.points.shape
    assert np.array_equal(got.points, want.points)
    assert got.density == want.density and got.exact == want.exact


@pytest.mark.parametrize("depth", range(13))
def test_integer_cantor_generators_match_fraction_arithmetic(depth):
    # Each coordinate is one division of exact integers, so it is the
    # correctly rounded value that float(Fraction) gives; plateau fills
    # reproduce np.linspace element by element.
    assert_same_samples(cantor_set(depth), fraction_cantor_set(depth))
    for budget in (0, 7, 64, 1000):
        assert_same_samples(cantor_graph(depth, budget), fraction_cantor_graph(depth, budget))
    if depth:
        # 20 and 38 samples a plateau: linspace's last sample differs from
        # i * step + start on some plateau at every depth from 2.
        for budget in (2, 64, 1000, 20 * (2**depth - 1), 38 * (2**depth - 1)):
            assert_same_samples(ladder_steps(depth, budget), fraction_ladder_steps(depth, budget))


def test_integer_cantor_generators_reach_the_depth_cap():
    # 4 * 3^20 < 2^53: the deepest numerators and denominators are exact.
    points = cantor_set(20).points[:, 0]
    assert points.size == 2**20 and np.all(np.diff(points) > 0)
    for j in (1, 2**19, 2**20 - 1):
        a = int(sum(2 * 3 ** (19 - i) for i in range(20) if j >> (19 - i) & 1))
        assert points[j] == float(Fraction(a, 3**20))
    graph = cantor_graph(20)
    assert graph.density == 2.0**-20 and np.all(np.diff(graph.points[:, 0]) > 0)


@pytest.mark.parametrize("depth", range(1, 11))
def test_self_sum_lines_match_the_pairwise_sum(depth):
    ladder = ladder_steps(depth)
    total = sampled_sum(ladder, ladder)
    for exponent in (depth, depth - 1):
        assert self_sum_dyadic_lines(ladder, exponent) == dyadic_lines_check(total, exponent)
    graph = cantor_graph(min(depth, 3))
    pairwise = dyadic_lines_check(sampled_sum(graph, graph), 12)
    assert self_sum_dyadic_lines(graph, 12) == pairwise
    assert not pairwise[0]


def test_self_sum_lines_edge_inputs_match_the_pairwise_sum():
    empty = SampledSet(points=np.empty((0, 2)), density=0.0)
    assert self_sum_dyadic_lines(empty, 3) == (True, 0)
    line = SampledSet(points=np.array([[0.0], [0.5]]), density=0.25)
    with pytest.raises(ValueError, match="planar"):
        self_sum_dyadic_lines(line, 3)
    with pytest.raises(ValueError, match="planar"):
        dyadic_lines_check(sampled_sum(line, line), 3)


# --- every generator pinned: sample bytes and density ---------------------------------

#: A 50-tooth zigzag of unit width and height 0.1.
_ZIGZAG = [(i / 50, 0.1 * (i % 2)) for i in range(51)]

#: Each generator call with the shape of its points, the sha256 of their
#: bytes and the repr of its density.  Float operations are pinned, not
#: values up to rounding: a rewrite of a generator must keep them all.
_PINNED = {
    "segment-61": (
        lambda: segment((-1.0, 0.25), (0.5, 1.0), 61),
        (61, 2),
        "c0db40cfc8e73216133a265ee5892b4d7bf1606710ba140211bad9612bd14045",
        "0.0125",
    ),
    "segment-zero-length": (
        lambda: segment((0.3, -0.7), (0.3, -0.7), 5),
        (5, 2),
        "19e7f1e3e7a4a7d9b253b7e1eab5eff19624c836335794d7d40f006ed269527e",
        "0.0",
    ),
    "segment-negative-zero": (
        lambda: segment((-0.0, 1.0), (1.0, -0.0), 7),
        (7, 2),
        "443240afc399fec5d27884d94cd44ca868b00fd063c08aaee5d83d0195400ec6",
        "0.08333333333333333",
    ),
    "l_shape-1": (
        lambda: l_shape(1, 2),
        (2, 1),
        "fc62429c3e69001d65972cdeb94fb9aa18a7d9c16bc449e1e474e7e41bb95a7d",
        "0.5",
    ),
    "l_shape-2": (
        lambda: l_shape(2, 42),
        (41, 2),
        "e59ddd638d54cdfc7a0b65a68ba0ffb23d7f6ed5fe7f6ea6a8b40713a8262c85",
        "0.025",
    ),
    "l_shape-3": (
        lambda: l_shape(3, 63),
        (61, 3),
        "263d66b00ae9be831498ccbcfa400ad7519cdda34bcfa8221c068247d5ab24b4",
        "0.025",
    ),
    "l_shape-4": (
        lambda: l_shape(4, 84),
        (81, 4),
        "9a6bf0dcdefe3a13faac68215d745de66c2d95d7772b72819831631c50ad24d4",
        "0.025",
    ),
    "circle-720": (
        lambda: circle(720),
        (720, 2),
        "efa2204050d92ec8fa47a6a3f1e6849d1c52a216827332a2f81b728de99231e2",
        "0.004363323129985824",
    ),
    "circle-720-phase": (
        lambda: circle(720, phase=0.3),
        (720, 2),
        "d05c758ee06173dd85c078c165a37d6d5a3882eb4e6c2256ecefd593ea4f7928",
        "0.004363323129985824",
    ),
    "circle-90-offset": (
        lambda: circle(90, center=(0.5, -1), radius=2),
        (90, 2),
        "6df6faf4488634098b682a25745623b0962847473579761f36b954c5ee209079",
        "0.06981317007977318",
    ),
    "moment_curve-2": (
        lambda: moment_curve(2, 201),
        (201, 2),
        "f89f28d35e44111db2eff2016a8ad31153bf98fc3b1167eb3ef67bb3671dd89f",
        "0.005",
    ),
    "moment_curve-3": (
        lambda: moment_curve(3, 201),
        (201, 3),
        "ac47cc6aa90d105209fd5399d3f101d756e38ea4160f9e07abcf9b7f01baee4d",
        "0.0075",
    ),
    "moment_curve-4": (
        lambda: moment_curve(4, 41),
        (41, 4),
        "297c0bc089ad3122355c9d1c87769e8bc67522a21abcddc63a82148068060861",
        "0.05",
    ),
    "polyline-zigzag": (
        lambda: polyline(_ZIGZAG, 401),
        (401, 2),
        "297aae0242de3a5612e0c66e16ef65032dcd900ca9c24beded976c2165902780",
        "0.00625",
    ),
    "polyline-3d": (
        lambda: polyline([(0, 0, 0), (1, -2, 0.5)], 33),
        (33, 3),
        "b8ddfebce26bb19d46ee75d75ca05f27811db076f5a42662370608f534b66719",
        "0.03125",
    ),
    "generate-segment": (
        lambda: generate(GeneratorSpec("segment", {'start': [0, -0.0], 'end': [1, 2]}, 11)),
        (11, 2),
        "cdaf1bd34bc9e1b2a94bdf5c152486268ed0c128e1986555705d059e90fc696f",
        "0.1",
    ),
    "generate-l_shape": (
        lambda: generate(GeneratorSpec("l_shape", {'dim': 3.0}, 30)),
        (28, 3),
        "a89d03ba02b84d5ed3379de98c63afac4e91b383a3fbd7d41092e2537d9e2206",
        "0.05555555555555555",
    ),
    "generate-circle": (
        lambda: generate(GeneratorSpec("circle", {'center': [1, -1], 'radius': 1, 'phase': 2}, 40)),
        (40, 2),
        "452ed0cf5698baa6d67bda25d4354338f83b3f6f6b7951778e07223a236d1d77",
        "0.07853981633974483",
    ),
    "generate-moment_curve": (
        lambda: generate(GeneratorSpec("moment_curve", {'dim': 3}, 21)),
        (21, 3),
        "8b9a84e3404bed5bdedbf94e523c7e420d00fb4210b6d866d557163c61526e24",
        "0.075",
    ),
    "generate-polyline": (
        lambda: generate(GeneratorSpec("polyline", {'vertices': [[0, 0], [1, 0], [1, 1]]}, 20)),
        (21, 2),
        "d6a3cc683b9671b974c336a7b7df0d85737848aa423146819c18b8cd888d13e2",
        "0.05",
    ),
    "generate-cantor_set": (
        lambda: generate(GeneratorSpec("cantor_set", {'depth': 3}, 64)),
        (8, 1),
        "e87117cd878b85da48067f3d309bf804c077f284ee2513d18994c674ec263121",
        "0.037037037037037035",
    ),
    "generate-cantor_graph": (
        lambda: generate(GeneratorSpec("cantor_graph", {'depth': 2.0}, 64)),
        (65, 2),
        "1e41222e7c2ae1e2df5b34061000f233fbf99ca9c32aac45c512af431af41422",
        "0.0625",
    ),
    "generate-ladder_steps": (
        lambda: generate(GeneratorSpec("ladder_steps", {'depth': 2}, 16)),
        (15, 2),
        "977454794f769e9874a6808365126e793ba438ccf09a2d8e5783718bd0c16c18",
        "0.03333333333333333",
    ),
    "generate-l_shape-default": (
        lambda: generate(GeneratorSpec("l_shape", {}, 64)),
        (63, 2),
        "a0342e2e4bf7d4653e9574729bf9db05f23e2c3f36abdae860397418a2d19afb",
        "0.016129032258064516",
    ),
    "generate-circle-default": (
        lambda: generate(GeneratorSpec("circle", {}, 64)),
        (64, 2),
        "197483b9448cf442a0412e967124f197ce7a03c56dcd1d6334f3b9a7df17035b",
        "0.04908738521234052",
    ),
    "generate-moment_curve-default": (
        lambda: generate(GeneratorSpec("moment_curve", {}, 64)),
        (64, 2),
        "2109d9bfbfe2155d584bafc67ec9d92bcd6658890097f469ce7a71e0e2f9fa2b",
        "0.015873015873015872",
    ),
}


@pytest.mark.parametrize("name", list(_PINNED))
def test_generator_samples_and_density_are_pinned(name):
    make, shape, digest, density = _PINNED[name]
    out = make()
    assert out.points.shape == shape
    assert hashlib.sha256(out.points.tobytes()).hexdigest() == digest
    assert repr(out.density) == density
