"""Generator correctness against exact rational oracles and frozen values."""

from __future__ import annotations

import math
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
