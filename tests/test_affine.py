"""Rank and volume certificates against numpy.linalg oracles and frozen cases."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from continuum_sums.affine import (
    as_points,
    default_rank_tol,
    flatness_by_projection,
    greedy_row_elimination,
    is_nowhere_flat,
    nonflat_certificate,
)
from continuum_sums.gallery import cantor_graph, circle, l_shape, moment_curve
from continuum_sums.grid import SampledSet

# Small integer matrices keep the numpy.linalg oracles exact in float64.
int_matrices = st.tuples(st.integers(1, 5), st.integers(1, 4)).flatmap(
    lambda kn: arrays(np.int64, kn, elements=st.integers(-3, 3))
)
square_int_matrices = st.integers(1, 4).flatmap(
    lambda n: arrays(np.int64, (n, n), elements=st.integers(-3, 3))
)


def volume(edges) -> float | None:
    """|det| of the edge rows, as the pipelines read it: ``det_abs`` of 0 and the tips."""
    edges = np.asarray(edges, dtype=float)
    return nonflat_certificate(np.vstack([np.zeros(edges.shape[1]), edges])).det_abs


@given(int_matrices)
def test_rank_matches_numpy(mat):
    m = mat.astype(float)
    got = greedy_row_elimination(m, tol=1e-9).rank
    assert got == np.linalg.matrix_rank(m)


@given(int_matrices)
def test_rank_is_order_independent(mat):
    # The rows the elimination accepts follow the row order; their number does not.
    m = mat.astype(float)
    reversed_rank = greedy_row_elimination(m[::-1], tol=1e-9).rank
    assert reversed_rank == greedy_row_elimination(m, tol=1e-9).rank


@given(square_int_matrices)
def test_pivot_product_matches_det(mat):
    m = mat.astype(float)
    res = greedy_row_elimination(m, tol=1e-9)
    det = np.linalg.det(m)
    if res.rank == m.shape[0]:
        prod = np.prod([abs(p) for p in res.pivot_values])
        assert prod == pytest.approx(abs(det), rel=1e-9, abs=1e-9)
    else:
        assert abs(det) <= 1e-6


def test_pivot_order_keeps_largest_spanning_rows():
    rows = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    assert greedy_row_elimination(rows, tol=1e-9).accepted == (1, 2)


def test_basis_rows_are_original_vectors():
    rows = np.array([[1.0, 1.0], [1.0, -1.0], [3.0, 0.0]])
    res = greedy_row_elimination(rows, tol=1e-9)
    assert np.array_equal(res.basis, rows[list(res.accepted)])


def _dense_elimination(vectors, tol, order):
    """The elimination as first written: every row rescanned and updated per acceptance.

    Returns ``(accepted, pivot_values, basis)``.  In pivot order it is the
    bit-identity oracle for :func:`greedy_row_elimination`; in input order
    (each row tested once, first to last) it is an independent elimination
    of the same rows.
    """
    original = np.asarray(vectors, dtype=np.float64)
    k, n = original.shape
    work = original.copy()
    alive = np.ones(k, dtype=bool)
    accepted: list[int] = []
    pivot_vals: list[float] = []
    while len(accepted) < n and alive.any():
        mags = np.abs(work).max(axis=1, initial=0.0)
        mags[~alive] = -1.0
        if order == "pivot":
            cand = int(np.argmax(mags))
            if mags[cand] <= tol:
                break
        else:
            above = mags > tol
            if not above.any():
                break
            cand = int(np.argmax(above))
            alive[: cand + 1] = False
        row = work[cand].copy()
        col = int(np.argmax(np.abs(row)))
        accepted.append(cand)
        pivot_vals.append(float(row[col]))
        alive[cand] = False
        factors = work[:, col] / row[col]
        work -= np.outer(factors, row)
        work[:, col] = 0.0
        work[cand] = 0.0
    basis = original[accepted].copy() if accepted else np.empty((0, n))
    return tuple(accepted), tuple(pivot_vals), basis


def _elimination_cases():
    rng = np.random.default_rng(20)
    cases = {"empty": np.empty((0, 3)), "no-columns": np.empty((4, 0))}
    for k, n in [(1, 1), (5, 3), (40, 2), (200, 3), (30, 6), (3, 5)]:
        cases[f"random-{k}x{n}"] = rng.standard_normal((k, n))
        rows = rng.standard_normal((k, n))
        cases[f"duplicated-{k}x{n}"] = np.vstack([rows, rows[::-1], rows])
        cases[f"zero-{k}x{n}"] = np.zeros((k, n))
        # Rank min(2, n) - 1 or 2: every row a combination of two rows.
        basis = rng.standard_normal((min(2, n), n))
        cases[f"deficient-{k}x{n}"] = rng.standard_normal((k, len(basis))) @ basis
    cases["zeros-then-rows"] = np.vstack([np.zeros((4, 3)), rng.standard_normal((6, 3))])
    cases["planar-cells"] = np.column_stack(
        [rng.integers(0, 50, 500), rng.integers(0, 50, 500), np.zeros(500)]
    ).astype(float)
    cases["ties"] = np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, 1.0], [2.0, 2.0], [-2.0, 2.0]])
    return cases


@pytest.mark.parametrize("order", ["input", "pivot"])
@pytest.mark.parametrize("case", sorted(_elimination_cases()))
def test_elimination_matches_dense_rescan(case, order):
    vectors = _elimination_cases()[case]
    if order == "input":
        # Another row order accepts other rows, but at a tight tolerance
        # they span the same space: an independent check of rank and basis.
        # (At 0.5 the two orders may keep different numbers of rows.)
        accepted, _, basis = _dense_elimination(vectors, 1e-9, order)
        got = greedy_row_elimination(vectors, 1e-9)
        assert got.rank == len(accepted)
        if got.rank:
            assert np.linalg.matrix_rank(np.vstack([got.basis, basis])) == got.rank
        return
    for tol in (1e-9, 0.5):
        accepted, pivots, basis = _dense_elimination(vectors, tol, order)
        got = greedy_row_elimination(vectors, tol)
        assert got.accepted == accepted and got.rank == len(accepted)
        assert np.array_equal(np.array(got.pivot_values), np.array(pivots))
        assert got.basis.shape == basis.shape and np.array_equal(got.basis, basis)


# --- parallelotope volume (the certificate's det_abs) ----------------------------


def test_volume_unit_and_diagonal():
    assert volume(np.eye(3)) == pytest.approx(1.0)
    assert volume(np.diag([2.0, 3.0])) == pytest.approx(6.0)


def test_volume_shear_invariant():
    assert volume(np.array([[1.0, 0.0], [7.5, 1.0]])) == pytest.approx(1.0)


def test_volume_zero_on_dependent_rows():
    assert volume(np.array([[1.0, 2.0], [2.0, 4.0]])) is None


# --- certificates ----------------------------------------------------------------


def test_certificate_on_moment_curve_picks_long_chords():
    t = np.arange(41) / 40.0
    pts = np.stack([t, t**2], axis=1)
    report = nonflat_certificate(pts)
    assert not report.flat
    assert report.affine_dim == 2
    assert np.allclose(report.basis[0], [1.0, 1.0])
    assert np.allclose(report.basis[1], [0.5, 0.25])
    assert report.det_abs == pytest.approx(0.25)


def test_certificate_flat_plane_in_3d():
    xs, ys = np.meshgrid(np.arange(4.0), np.arange(4.0))
    pts = np.stack([xs.ravel(), ys.ravel(), np.zeros(16)], axis=1)
    report = nonflat_certificate(pts)
    assert report.flat
    assert report.affine_dim == 2
    assert report.det_abs is None
    assert report.complement.shape == (1, 3)
    assert abs(report.complement[0] @ np.array([0.0, 0.0, 1.0])) == pytest.approx(1.0)


def test_certificate_single_point_is_flat():
    report = nonflat_certificate(np.array([[2.0, 2.0]]))
    assert report.flat
    assert report.affine_dim == 0
    assert report.det_abs is None
    assert np.array_equal(report.complement, np.eye(2))


# --- duality with projections ------------------------------------------------------


def test_duality_flat_set_found_via_complement_witness():
    pts = np.stack([np.linspace(0.0, 1.0, 30), np.linspace(0.0, 2.0, 30)], axis=1)
    cert = nonflat_certificate(pts)
    assert cert.flat
    proj = flatness_by_projection(pts, extra_directions=cert.complement)
    assert proj.flat
    assert proj.width <= proj.threshold


def test_duality_nonflat_set_has_no_thin_direction():
    theta = np.linspace(0.0, 2 * np.pi, 100, endpoint=False)
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    cert = nonflat_certificate(pts)
    assert not cert.flat
    proj = flatness_by_projection(pts, extra_directions=cert.complement)
    assert not proj.flat
    assert proj.width > 1.0  # any direction sees nearly the full diameter


# --- patches ------------------------------------------------------------------------


def circle_points(m: int = 360, r: float = 1.0) -> np.ndarray:
    theta = np.arange(m) * (2 * np.pi / m)
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)


def test_circle_is_nowhere_flat():
    report = is_nowhere_flat(circle_points(), rho=0.2)
    assert report.nowhere_flat
    assert report.flat_centers == ()


def test_segment_in_plane_is_flat_everywhere():
    pts = np.stack([np.linspace(0, 1, 50), np.zeros(50)], axis=1)
    report = is_nowhere_flat(pts, rho=0.1)
    assert not report.nowhere_flat
    assert len(report.flat_centers) == 50


def test_l_shape_has_flat_arm_patches():
    arm1 = np.stack([np.linspace(0, 1, 25), np.zeros(25)], axis=1)
    arm2 = np.stack([np.zeros(25), np.linspace(0, 1, 25)], axis=1)
    pts = np.vstack([arm1, arm2])
    report = is_nowhere_flat(pts, rho=0.1)
    assert not report.nowhere_flat  # arm interiors are straight


def test_patch_radius_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        is_nowhere_flat(circle_points(16), rho=0.0)


# --- certificate dimension and preconditions -------------------------------------------


def test_certificate_dimension_of_moment_curve():
    t = np.arange(41) / 40.0
    pts = np.stack([t, t**2], axis=1)
    cert = nonflat_certificate(pts)
    d, basis, base = cert.affine_dim, cert.basis, cert.base_point
    assert d == 2
    assert basis.shape == (2, 2)
    assert np.array_equal(base, pts[0])


def test_certificate_dimension_of_noisy_plane():
    rng = np.random.default_rng(11)
    pts = np.zeros((200, 3))
    pts[:, 0] = rng.uniform(-1, 1, 200)
    pts[:, 1] = rng.uniform(-1, 1, 200)
    pts += rng.uniform(-1e-12, 1e-12, (200, 3))
    d = nonflat_certificate(pts).affine_dim
    assert d == 2


def test_volume_scales_with_dilation():
    m = np.array([[1.0, 2.0], [0.5, -1.0]])
    assert volume(3.0 * m) == pytest.approx(9.0 * volume(m))


def test_patch_radius_must_exceed_density():
    sampled = SampledSet(points=circle_points(100), density=0.06)
    with pytest.raises(ValueError, match="density"):
        is_nowhere_flat(sampled, rho=0.1)
    report = is_nowhere_flat(sampled, rho=0.2)
    assert report.nowhere_flat


# --- batched patches against one elimination per centre ---------------------------------


def _patch_rows(pts: np.ndarray, center: int, rho: float) -> np.ndarray:
    """Difference vectors of the samples within sup-norm rho of sample ``center``."""
    base = pts[center]
    near = np.abs(pts - base).max(axis=1) <= rho
    return pts[near] - base


def flat_centers_one_by_one(samples, rho: float) -> tuple[int, ...]:
    """``is_nowhere_flat``'s flat centres as first computed: one elimination per centre."""
    pts = as_points(samples)
    tol = default_rank_tol(pts)
    return tuple(
        center
        for center in range(pts.shape[0])
        if greedy_row_elimination(_patch_rows(pts, center, rho), tol).rank < pts.shape[1]
    )


def _patch_cases():
    cases = {f"cantor-{d}": (cantor_graph(d, budget=64), 0.15) for d in range(9)}
    cases["circle"] = (circle(360), 0.2)
    cases["l-shape-2"] = (l_shape(2, 42), 0.1)
    cases["l-shape-3"] = (l_shape(3, 63), 0.1)
    cases["moment-2"] = (moment_curve(2, 201), 0.1)
    cases["moment-3"] = (moment_curve(3, 101), 0.2)
    rng = np.random.default_rng(35)
    for n in (1, 2, 3):
        cloud = rng.random((120, n))
        flat = cloud.copy()
        flat[:, -1] = 0.3
        ties = rng.integers(0, 4, (120, n)) / 4.0
        cases[f"random-{n}"] = (cloud, 0.3)
        cases[f"flat-{n}"] = (flat, 0.3)
        cases[f"scaled-{n}"] = (cloud * 1e-6, 0.3e-6)
        cases[f"ties-{n}"] = (ties, 0.25)  # patch edges fall on samples
    return cases


@pytest.mark.parametrize("case", sorted(_patch_cases()))
def test_batched_patches_match_one_elimination_per_centre(case):
    samples, rho = _patch_cases()[case]
    report = is_nowhere_flat(samples, rho)
    assert report.flat_centers == flat_centers_one_by_one(samples, rho)
    assert report.nowhere_flat == (report.flat_centers == ())


def test_patch_blocks_stay_within_their_byte_bound():
    # Full patches: every centre sees every sample, so a block holds
    # max(1, 2**18 // m) * m centre-sample pairs; the docstring promises at
    # most (8n + 64) bytes a pair.
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        pts = rng.random((1500, n))
        tracemalloc.start()
        try:
            report = is_nowhere_flat(pts, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.nowhere_flat
        assert peak <= (8 * n + 64) * 2**18, (n, peak)


def test_certificates_of_the_criterion_02_families_match_the_dense_oracle():
    # The certificate eliminates a stack of one row set: its accepted rows,
    # pivots, basis and det_abs are the dense rescan's, bit for bit.
    families = [
        [l_shape(2, 42)] * 2,
        [circle(budget=720)] * 2,
        [moment_curve(2, 201)] * 2,
        [cantor_graph(6)] * 2,
        [l_shape(3, 63)] * 3,
    ]
    for sets in families:
        union = np.concatenate([k.points + (-k.points[0]) for k in sets])
        tol = default_rank_tol(union)
        accepted, pivots, basis = _dense_elimination(union[1:] - union[0], tol, "pivot")
        got = greedy_row_elimination(union[1:] - union[0], tol)
        assert got.accepted == accepted and got.pivot_values == pivots
        cert = nonflat_certificate(union)
        assert cert.affine_dim == len(accepted) == union.shape[1]
        assert np.array_equal(cert.basis, basis)
        det_abs = 1.0
        for p in pivots:
            det_abs *= abs(p)
        assert cert.det_abs == det_abs
