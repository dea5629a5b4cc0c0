"""Each output check accepts a genuine program output and rejects a tampered one.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import copy
import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
import continuum_sums  # noqa: E402
from continuum_sums import cli, gallery, grid, sums  # noqa: E402
from checks import CheckFailed  # noqa: E402


def _run_cli(tmp_path, argv):
    out = tmp_path / "report.json"
    assert cli.main([*argv, "--out", str(out)]) == 0
    return json.loads(out.read_text())


def _doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def lshape_report(tmp_path):
    doc = _doc(tmp_path, "l.json", {"dim": 2, "sets": [{"kind": "l_shape", "budget": 42}]})
    report = _run_cli(tmp_path, ["verify", "main", doc, "--h", "0.04", "--h", "0.02"])
    return report, [gallery.l_shape(2, 42).points] * 2


def test_theorem_report_accepts_genuine(lshape_report):
    report, samples = lshape_report
    worst = checks.check_theorem_report(report, samples, (0.04, 0.02), 1.0, "l")
    assert 0 < worst <= 0.2


def test_enlarged_cube_is_rejected(lshape_report):
    report, samples = lshape_report
    bad = copy.deepcopy(report)
    bad["evidence"]["resolutions"][-1]["interior_cube_side"] *= 2.0
    with pytest.raises(CheckFailed, match="from every sample sum"):
        checks.check_theorem_report(bad, samples, (0.04, 0.02), 1.0, "l")


def test_shifted_cube_is_rejected(lshape_report):
    report, samples = lshape_report
    bad = copy.deepcopy(report)
    center = bad["evidence"]["resolutions"][0]["interior_cube_center"]
    bad["evidence"]["resolutions"][0]["interior_cube_center"] = [c - 0.5 for c in center]
    with pytest.raises(CheckFailed):
        checks.check_theorem_report(bad, samples, (0.04, 0.02), 1.0, "l")


def test_measure_below_floor_is_rejected(lshape_report):
    report, samples = lshape_report
    bad = copy.deepcopy(report)
    bad["evidence"]["resolutions"][0]["outer_measure"] = 0.99
    with pytest.raises(CheckFailed, match="outer measure"):
        checks.check_theorem_report(bad, samples, (0.04, 0.02), 1.0, "l")


def test_unsupported_verdict_is_rejected(lshape_report):
    report, samples = lshape_report
    bad = copy.deepcopy(report)
    bad["evidence"]["verdict"] = "inconclusive"
    with pytest.raises(CheckFailed, match="verdict"):
        checks.check_theorem_report(bad, samples, (0.04, 0.02), 1.0, "l")


def test_pbm_matches_index_sums_and_rejects_a_flipped_pixel(tmp_path):
    doc = _doc(tmp_path, "c.json",
               {"dim": 2, "sets": [{"kind": "circle", "budget": 120, "phase": 0.01}]})
    prefix = tmp_path / "pix"
    report = _run_cli(
        tmp_path, ["verify", "main", doc, "--h", "0.1", "--h", "0.05", "--bitmap", str(prefix)]
    )
    samples = [gallery.circle(120, phase=0.01).points] * 2
    rotation = np.asarray(report["evidence"]["rotation"])
    text = (tmp_path / "pix-h0.05.pbm").read_text()
    checks.check_pbm(text, samples, rotation, 0.05, "circle")
    header, body = text.split("\n", 2)[:2], text.split("\n", 2)[2]
    flipped = body.replace("0", "1", 1)
    with pytest.raises(CheckFailed, match="pixels differ"):
        checks.check_pbm("\n".join(header) + "\n" + flipped, samples, rotation, 0.05, "circle")
    with pytest.raises(CheckFailed):
        checks.check_pbm(text, samples, rotation, 0.1, "circle")


def test_hl_report_and_brute_force(tmp_path):
    report = _run_cli(tmp_path, ["verify", "hl", "--trials", "20", "--seed", "7"])
    checks.check_hl_report(report, 20, "hl")
    bad = copy.deepcopy(report)
    bad["checks"][0]["passed"] = False
    bad["passed"] = False
    with pytest.raises(CheckFailed, match="did not pass"):
        checks.check_hl_report(bad, 20, "hl")
    bad = copy.deepcopy(report)
    bad["passed"] = True
    bad["checks"][0]["passed"] = False
    with pytest.raises(CheckFailed, match="random-instances"):
        checks.check_hl_report(bad, 20, "hl")
    for n, seed in ((2, 7), (3, 16)):
        inst = sums.random_separator_instance(n, seed)
        assert checks.bands_meet_brute_force(
            inst.factor_cells, inst.potentials, inst.band_center, inst.band_radius
        )
        far = inst.band_center + 1000.0
        assert not checks.bands_meet_brute_force(
            inst.factor_cells, inst.potentials, far, inst.band_radius
        )


def _outer(points, h):
    exact = grid.SampledSet(points=np.asarray(points, dtype=float), density=0.0)
    return grid.rasterize(exact, grid.auto_geometry(exact.points, h), grid.Semantics.OUTER)


def test_flat_chain_rank_and_tampered_step():
    chain = sums.midpoint_iterate(_outer(gallery.segment((0, 0), (1, 1), 9).points, 0.25), 3)
    steps = [s.occupancy for s in chain.steps]
    checks.check_flat_chain(steps, chain.interior_found_at, "diag")
    tampered = [s.copy() for s in steps]
    tampered[2][0, -1] = True
    with pytest.raises(CheckFailed, match="rank"):
        checks.check_flat_chain(tampered, chain.interior_found_at, "diag")
    with pytest.raises(CheckFailed, match="interior"):
        checks.check_flat_chain(steps, 2, "diag")


def test_scatter_rank_counts_affine_dimension():
    occ = np.zeros((4, 5, 3), dtype=bool)
    occ[1, :, 2] = True
    assert checks.scatter_rank(occ) == 1
    occ[:, :, 2] = True
    assert checks.scatter_rank(occ) == 2
    occ[0, 0, 0] = True
    assert checks.scatter_rank(occ) == 3


def test_interior_step_and_tampered_chain():
    shape = gallery.l_shape(2, 42)
    raster = grid.rasterize(shape, grid.auto_geometry(shape.points, 0.05), grid.Semantics.OUTER)
    chain = sums.midpoint_iterate(raster, 2)
    steps = [(s.occupancy, s.slack, s.geometry.spacing) for s in chain.steps]
    checks.check_interior_step(steps, chain.interior_found_at, 1, "L")
    with pytest.raises(CheckFailed, match="interior reported"):
        checks.check_interior_step(steps, 2, 1, "L")
    hollow = [(np.zeros_like(o), s, h) if i == 1 else (o, s, h) for i, (o, s, h) in enumerate(steps)]
    with pytest.raises(CheckFailed, match="erosion"):
        checks.check_interior_step(hollow, 1, 1, "L")


def test_claim_cover_and_tampered_threshold(tmp_path):
    entry = {"kind": "l_shape", "budget": 42}
    doc = _doc(tmp_path, "claim.json", {"dim": 2, "sets": [entry, entry]})
    report = _run_cli(tmp_path, ["verify", "claim", doc, "--s", "1", "--h", "0.1", "--h", "0.05"])
    samples = [gallery.l_shape(2, 42).points] * 2
    assert checks.check_claim_cover(report, samples, "claim") <= 0.15
    bad = copy.deepcopy(report)
    for e in bad["evidence"]["per_resolution"]:
        e["threshold"] = 0.001
    with pytest.raises(CheckFailed, match="shifted sample sum"):
        checks.check_claim_cover(bad, samples, "claim")
    bad = copy.deepcopy(report)
    bad["evidence"]["construction"]["s"] = 6
    with pytest.raises(CheckFailed):
        checks.check_claim_cover(bad, samples, "claim")


def test_cantor_report_and_tampered_count(tmp_path):
    report = _run_cli(tmp_path, ["verify", "cantor", "--depth", "3", "--h", "0.05"])
    ladder = gallery.ladder_steps(3).points
    checks.check_cantor_report(report, ladder, 3, "cantor")
    bad = copy.deepcopy(report)
    for c in bad["checks"]:
        if c["name"] == "ladder-sum-meager":
            c["detail"] = "3 dyadic lines (bound 81)"
    with pytest.raises(CheckFailed, match="direct count"):
        checks.check_cantor_report(bad, ladder, 3, "cantor")
    bad = copy.deepcopy(report)
    bad["checks"][0]["passed"] = False
    with pytest.raises(CheckFailed):
        checks.check_cantor_report(bad, ladder, 3, "cantor")


def test_clock_is_the_only_ignored_difference():
    a = b'{\n  "passed": true,\n  "elapsed_seconds": 0.25\n}\n'
    b = b'{\n  "passed": true,\n  "elapsed_seconds": 1.5\n}\n'
    c = b'{\n  "passed": false,\n  "elapsed_seconds": 0.25\n}\n'
    assert checks.without_clock(a) == checks.without_clock(b)
    assert checks.without_clock(a) != checks.without_clock(c)


def test_tracing_self_times_add_up_and_uninstall_restores():
    original = grid.dilate
    tracer = tracing.Tracer()
    undo = tracing.install(continuum_sums, tracer)
    try:
        assert grid.dilate is not original
        assert sums.dilate is grid.dilate
        root = tracer.begin(tracing.PASS_SPAN)
        raster = _outer(gallery.l_shape(2, 42).points, 0.05)
        sums.midpoint_iterate(raster, 2)
        tracer.end(root)
    finally:
        tracing.uninstall(undo)
    assert grid.dilate is original
    duration, self_time, counts = tracing.pass_profile(tracer, root)
    assert math.isclose(sum(self_time.values()), duration, abs_tol=1e-9)
    assert counts["sums.midpoint.calls"] == 1
    assert counts["grid.dilate.calls"] == 2
    assert counts["grid.dilate.calls"] == (
        counts.get("grid.dilate_fft.calls", 0) + counts.get("grid.dilate_naive.calls", 0)
    )
    assert counts["grid.dt.calls"] >= 1


def test_tracing_skips_names_the_package_lacks(monkeypatch):
    monkeypatch.setitem(tracing.TARGETS, ("grid", "no_such_function"), "grid.nothing")
    undo = tracing.install(continuum_sums, tracing.Tracer())
    tracing.uninstall(undo)
