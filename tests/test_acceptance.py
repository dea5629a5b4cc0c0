"""Acceptance gate: ten end-to-end criteria, one test (and one result line) each.

Every criterion states its own tolerances and, where applicable, its runtime
budget; a failure here means the package does not meet its contract, not that
a unit regressed.  Run with ``pytest -v tests/test_acceptance.py`` to get the
per-criterion pass/fail lines.
"""

import json
import math
import re
import time

import numpy as np
import pytest

from continuum_sums import (
    GridGeometry,
    GridSet,
    SampledSet,
    Semantics,
    auto_geometry,
    cantor_graph,
    cantor_set,
    circle,
    claim_measure_chain,
    dilate_fft,
    dilate_naive,
    flatness_by_projection,
    hl_discrete_check,
    l_shape,
    ladder_steps,
    measure_estimate,
    midpoint_iterate,
    moment_curve,
    nfold_sum,
    nonflat_certificate,
    polyline,
    random_separator_instance,
    rasterize,
    segment,
    shift_construction,
    verify_claim,
    verify_example_cantor,
    verify_theorem_main,
)
from continuum_sums.cli import main as cli_main

ACCEPTANCE_RESOLUTIONS = (0.02, 0.01, 0.005)


def _random_grid(rng, extents, density_range, semantics):
    occ = rng.random(extents) < rng.uniform(*density_range)
    if not occ.any():
        occ[tuple(rng.integers(0, e) for e in extents)] = True
    origin = tuple(float(v) for v in rng.integers(-8, 8, size=len(extents)) * 0.5)
    return GridSet(
        geometry=GridGeometry(origin=origin, spacing=0.5, extents=extents),
        occupancy=occ,
        semantics=semantics,
        slack=float(rng.uniform(0.0, 0.2)) if semantics is not Semantics.INNER else 0.0,
    )


def _assert_same_grid(a, b):
    assert a.geometry == b.geometry
    assert a.semantics is b.semantics
    assert a.slack == b.slack
    assert np.array_equal(a.occupancy, b.occupancy)


def test_criterion_01_dilation_oracle_equivalence():
    """FFT dilation must match the shift-OR definition bit for bit."""
    rng = np.random.default_rng(20260819)
    kinds = (Semantics.SAMPLE_COVER, Semantics.OUTER, Semantics.INNER)
    start = time.perf_counter()
    for trial in range(1000):
        semantics = kinds[trial % len(kinds)]
        extents_a = tuple(int(e) for e in rng.integers(1, 65, size=2))
        extents_b = tuple(int(e) for e in rng.integers(1, 65, size=2))
        a = _random_grid(rng, extents_a, (0.05, 0.6), semantics)
        b = _random_grid(rng, extents_b, (0.05, 0.6), semantics)
        _assert_same_grid(dilate_naive(a, b), dilate_fft(a, b))
    for trial in range(10):
        a = _random_grid(rng, (256, 256), (0.01, 0.04), Semantics.OUTER)
        b = _random_grid(rng, (256, 256), (0.01, 0.04), Semantics.OUTER)
        _assert_same_grid(dilate_naive(a, b), dilate_fft(a, b))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_02_positive_family_supported():
    """Connected non-flat families must earn a supported verdict at scale."""
    scenarios = [
        ("l-shape pair", [l_shape(2, 42)] * 2, None),
        ("unit circle pair", [circle(budget=720)] * 2, None),
        ("moment curve pair", [moment_curve(2, 201)] * 2, 0.25),
        ("staircase graph pair", [cantor_graph(6)] * 2, None),
        ("spatial tripod triple", [l_shape(3, 63)] * 3, None),
    ]
    for label, sets, vol_oracle in scenarios:
        n = len(sets)
        eps = max(k.density for k in sets)
        start = time.perf_counter()
        evidence = verify_theorem_main(sets, ACCEPTANCE_RESOLUTIONS)
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"{label} took {elapsed:.1f}s"
        assert evidence.verdict == "supported", f"{label}: {evidence.reason}"
        assert [e.h for e in evidence.resolutions] == list(ACCEPTANCE_RESOLUTIONS)
        finest = evidence.resolutions[-1]
        # The sweep rasterizes in the certificate frame; the rotation scales
        # the sup-norm sampling density by its operator norm, at most sqrt(n).
        factor = float(np.abs(evidence.rotation).sum(axis=0).max())
        assert factor <= math.sqrt(n) + 1e-12, label
        assert finest.threshold == pytest.approx(n * (eps * factor + finest.h))
        assert finest.density_margin <= finest.threshold + 1e-12, label
        margins = [e.density_margin for e in evidence.resolutions]
        assert all(m2 <= m1 + 1e-9 for m1, m2 in zip(margins, margins[1:])), label
        for entry in evidence.resolutions:
            assert entry.ratio is not None and entry.ratio >= 1.0 - 1e-9, label
        if vol_oracle is not None:
            assert abs(finest.vol_parallelotope - vol_oracle) <= 1e-12, label


def test_criterion_03_flat_controls_refuted():
    """Flat inputs in 3-space must be refuted with no interior cube anywhere."""
    rng = np.random.default_rng(5)
    cloud_pts = np.column_stack(
        [rng.uniform(0.0, 1.0, 40), rng.uniform(0.0, 1.0, 40), np.zeros(40)]
    )
    cloud = SampledSet(points=cloud_pts, density=0.6)
    line = [
        segment((0.0, 0.0, 0.0), (1.0, 1.0, 0.5), 17),
        segment((0.5, 0.5, 0.25), (2.0, 2.0, 1.0), 17),
        segment((-1.0, -1.0, -0.5), (0.0, 0.0, 0.0), 17),
    ]
    for label, sets, resolutions in [
        ("collinear segments", line, ACCEPTANCE_RESOLUTIONS),
        ("repeated segment", [segment((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 21)] * 3, ACCEPTANCE_RESOLUTIONS),
        ("planar cloud", [cloud] * 3, (0.5, 0.25)),
    ]:
        evidence = verify_theorem_main(sets, resolutions)
        assert evidence.verdict == "refuted", f"{label}: {evidence.reason}"
        for entry in evidence.resolutions:
            assert entry.interior_cube_center is None, label
            assert entry.interior_cube_side is None, label
            assert entry.density_margin == math.inf, label


def test_criterion_04_circle_disk_measure():
    """The two-fold circle sum must measure like the analytic disk."""
    target = 4.0 * math.pi
    c = circle(budget=3000, radius=1.0)
    errors = {}
    for h in ACCEPTANCE_RESOLUTIONS:
        raster = rasterize(c, auto_geometry(c.points, h))
        disk = nfold_sum(raster, 2)
        errors[h] = abs(measure_estimate(disk) - target) / target
    assert errors[0.005] <= 0.02, f"relative error {errors[0.005]:.4f}"
    assert errors[0.005] <= errors[0.02], f"no convergence: {errors}"


def test_criterion_05_shift_claim_coverage():
    """The unit-arm shift construction must cover [-1, 1]^2 outright."""
    pair = [l_shape(2, 82)] * 2
    construction = shift_construction(pair, s=1)
    assert construction.valid()
    assert construction.n == 2
    assert construction.s == 1
    assert construction.l == 3
    assert construction.delta == pytest.approx(1.0 + construction.eps)
    report = verify_claim(construction, pair, 0.05)
    assert report.covered, "strict cube coverage failed at h=0.05"
    assert report.passed and report.margin <= report.threshold
    for h in (0.1, 0.05, 0.025):
        chain = claim_measure_chain(construction, pair, h)
        assert chain.cube_volume == pytest.approx(4.0)
        assert chain.lattice_count == 49
        assert chain.lower_ok, f"lower bound fails at h={h}"
        assert chain.upper_ok, f"upper bound fails at h={h}"


def test_criterion_06_separator_instances():
    """Valid band separators must always intersect, in 2-D and 3-D."""
    start = time.perf_counter()
    for seed in range(1000):
        instance = random_separator_instance(2, seed)
        assert hl_discrete_check(instance), f"empty intersection: n=2 seed={seed}"
    for seed in range(100):
        instance = random_separator_instance(3, seed)
        assert hl_discrete_check(instance), f"empty intersection: n=3 seed={seed}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"separator sweep took {elapsed:.1f}s"


def test_criterion_07_midpoint_flats_and_lshape():
    """Midpoint iteration: flat sets stay flat for 10 steps, the L finds interior."""
    rng = np.random.default_rng(11)
    planar_pts = np.column_stack(
        [rng.uniform(0.0, 1.0, 12), rng.uniform(0.0, 1.0, 12), np.zeros(12)]
    )
    flat_cases = [
        ("axis segment", segment((0.0, 0.0), (1.0, 0.0), 21), 0.1),
        ("diagonal segment", segment((0.0, 0.0), (1.0, 1.0), 21), 0.25),
        ("planar cloud", SampledSet(points=planar_pts, density=0.0), 0.25),
        ("point pair", segment((0.0,), (1.0,), 2), 1.0),
    ]
    for label, samples, h in flat_cases:
        exact = SampledSet(points=samples.points, density=0.0)
        raster = rasterize(exact, auto_geometry(exact.points, h), Semantics.OUTER)
        chain = midpoint_iterate(raster, 10)
        assert chain.interior_found_at is None, label
        base_dim = None
        for step in chain.steps:
            cells = np.argwhere(step.occupancy).astype(float)
            dim = nonflat_certificate(cells).affine_dim
            base_dim = dim if base_dim is None else base_dim
            assert dim == base_dim, f"{label}: affine dimension drifted"
    shape = l_shape(2, 42)
    raster = rasterize(shape, auto_geometry(shape.points, 0.05), Semantics.OUTER)
    assert midpoint_iterate(raster, 2).interior_found_at == 1


def test_criterion_08_cantor_depth6_example():
    """Depth 6 staircase: interior sum, meager ladder sum, mixed flatness."""
    report = verify_example_cantor(6)
    assert report.inputs["depth"] == 6
    assert report.inputs["effective_level"] == 6
    checks = {c.name: c for c in report.checks}
    assert checks["graph-sum-interior"].passed, checks["graph-sum-interior"].detail
    ladder = checks["ladder-sum-meager"]
    assert ladder.passed, ladder.detail
    assert "(bound 4225)" in ladder.detail
    assert checks["graph-not-flat"].passed
    assert checks["graph-not-nowhere-flat"].passed
    assert report.passed


def test_criterion_09_certificate_projection_duality():
    """Rank certificate and 100-projection search must agree on all gallery sets."""
    gallery = [
        ("segment 2-D", segment((0.0, 0.0), (1.0, 0.5), 21), True),
        ("segment 3-D", segment((0.0, 0.0, 0.0), (1.0, 0.5, 0.25), 21), True),
        ("l-shape 2-D", l_shape(2, 42), False),
        ("l-shape 3-D", l_shape(3, 63), False),
        ("circle", circle(budget=360), False),
        ("moment curve 2-D", moment_curve(2, 201), False),
        ("moment curve 3-D", moment_curve(3, 201), False),
        ("bent polyline", polyline([(0, 0), (1, 0.2), (2, -0.4)], 64), False),
        ("straight polyline", polyline([(0, 0), (1, 1), (2, 2)], 64), True),
        (
            "planar polyline 3-D",
            polyline([(0, 0, 0), (1, 0.3, 0), (2, -0.5, 0)], 64),
            True,
        ),
        ("middle-thirds dust", cantor_set(6), False),
        ("staircase graph", cantor_graph(6), False),
        ("plateau ladder", ladder_steps(6), False),
    ]
    disagreements = []
    for label, samples, expect_flat in gallery:
        cert = nonflat_certificate(samples.points)
        extra = cert.complement if cert.complement.size else None
        proj = flatness_by_projection(samples.points, n_random=100, extra_directions=extra)
        assert cert.flat == expect_flat, f"{label}: certificate says {cert.flat}"
        if cert.flat != proj.flat:
            disagreements.append(f"{label}: cert={cert.flat} proj={proj.flat}")
    assert not disagreements, "; ".join(disagreements)


def test_criterion_10_cli_determinism(tmp_path):
    """Identical inputs and seed must reproduce reports and bitmaps exactly."""
    doc = tmp_path / "circle.json"
    doc.write_text(
        json.dumps(
            {"dim": 2, "sets": [{"kind": "circle", "budget": 360}], "seed": 3}
        )
    )
    clock = re.compile(rb'\s*"elapsed_seconds": [^\n]+')

    def run(tag):
        out = tmp_path / f"report-{tag}.json"
        prefix = tmp_path / f"pix-{tag}"
        code = cli_main(
            [
                "verify",
                "main",
                str(doc),
                "--h",
                "0.02",
                "--h",
                "0.01",
                "--out",
                str(out),
                "--bitmap",
                str(prefix),
            ]
        )
        assert code == 0
        pbms = sorted(tmp_path.glob(f"pix-{tag}-*.pbm"))
        assert len(pbms) == 2
        return clock.sub(b"", out.read_bytes()), [p.read_bytes() for p in pbms]

    report_a, pbms_a = run("a")
    report_b, pbms_b = run("b")
    assert report_a == report_b
    assert pbms_a == pbms_b
