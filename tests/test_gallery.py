"""Generator correctness against exact rational oracles and frozen values."""

from __future__ import annotations

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
