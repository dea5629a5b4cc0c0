"""Every scenario's reports, audited by the independent checkers of ``perfbench``.

``perfbench/checks.py`` recomputes every checked property of a report apart
from the program (explicit sample sums in a k-d tree, direct counts of
height sums).  It is loaded here from its file, read-only, so the checkers
stay single-sourced.
"""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from continuum_sums import cli
from continuum_sums.gallery import cantor_graph, circle, l_shape, ladder_steps, moment_curve
from continuum_sums.sums import random_separator_instance

CHECKS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
LADDER = (0.02, 0.01, 0.005)


@pytest.fixture(scope="module")
def checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(tmp_path, capsys, argv):
    out = tmp_path / "report.json"
    assert cli.main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    return json.loads(out.read_text())


def _document(tmp_path, capsys, name, argv):
    assert cli.main(["gallery", *argv]) == 0
    doc = tmp_path / name
    doc.write_text(capsys.readouterr().out)
    return str(doc)


def _ladder(steps):
    return [flag for h in steps for flag in ("--h", str(h))]


def test_cantor_report_passes_the_independent_check(checks, tmp_path, capsys):
    report = _report(tmp_path, capsys, ["verify", "cantor", "--depth", "6"])
    checks.check_cantor_report(report, ladder_steps(6).points, 6, "cantor")


def test_staircase_pair_report_passes_the_independent_check(checks, tmp_path, capsys):
    doc = _document(tmp_path, capsys, "staircase.json", ["cantor-graph", "--depth", "6"])
    report = _report(tmp_path, capsys, ["verify", "main", doc, *_ladder(LADDER)])
    samples = cantor_graph(6, 64).points
    worst = checks.check_theorem_report(report, [samples] * 2, LADDER, None, "staircase")
    assert worst > 0


PHASE = 0.005
#: Criterion-02 families: gallery arguments, one copy's samples, copies and
#: the floor of the sum's true volume (the unit square, the radius-2 disk,
#: the moment pair's 1/3 and the unit cube).
FAMILIES = {
    "lshape": (["l-shape", "--budget", "42"], l_shape(2, 42), 2, 1.0),
    "circle": (
        ["circle", "--budget", "720", "--phase", repr(PHASE)],
        circle(720, phase=PHASE),
        2,
        4.0 * math.pi,
    ),
    "moment": (["moment-curve", "--budget", "201"], moment_curve(2, 201), 2, 1.0 / 3.0),
    "tripod": (["l-shape", "--dim", "3", "--budget", "63"], l_shape(3, 63), 3, 1.0),
}


@pytest.mark.parametrize("family", list(FAMILIES))
def test_family_report_passes_the_independent_check(checks, tmp_path, capsys, family):
    argv, samples, copies, floor = FAMILIES[family]
    doc = _document(tmp_path, capsys, f"{family}.json", argv)
    run = ["verify", "main", doc, *_ladder(LADDER)]
    if family == "circle":
        run += ["--bitmap", str(tmp_path / "circle")]
    report = _report(tmp_path, capsys, run)
    checks.check_theorem_report(report, [samples.points] * copies, LADDER, floor, family)
    if family == "circle":
        rotation = np.asarray(report["evidence"]["rotation"])
        for h in LADDER:
            pbm = (tmp_path / f"circle-h{h:g}.pbm").read_text()
            checks.check_pbm(pbm, [samples.points] * 2, rotation, h, family)


def test_moment_triple_report_passes_the_independent_check(checks, tmp_path, capsys):
    # Off the key route its three-operand sums fold in pairs.
    ladder = (0.04, 0.02, 0.01)
    argv = ["moment-curve", "--dim", "3", "--budget", "61"]
    doc = _document(tmp_path, capsys, "moment3.json", argv)
    report = _report(tmp_path, capsys, ["verify", "main", doc, *_ladder(ladder)])
    samples = moment_curve(3, 61).points
    checks.check_theorem_report(report, [samples] * 3, ladder, None, "moment3")


def test_c1_report_passes_the_independent_check(checks, tmp_path, capsys):
    doc = _document(tmp_path, capsys, "circle.json", FAMILIES["circle"][0])
    report = _report(tmp_path, capsys, ["verify", "c1", doc, "--directions", "100"])
    names = ("rank-certificate", "projection-widths", "sum-interior", "equivalence-consistency")
    checks.check_all_passed(report, names, "c1")


def test_claim_report_passes_the_independent_check(checks, tmp_path, capsys):
    arm = _document(tmp_path, capsys, "arm.json", ["l-shape", "--budget", "82"])
    entry = json.loads(Path(arm).read_text())["sets"][0]
    doc = tmp_path / "claim.json"
    doc.write_text(json.dumps({"dim": 2, "sets": [entry, entry]}))
    ladder = _ladder((0.05, 0.025, 0.0125))
    report = _report(tmp_path, capsys, ["verify", "claim", str(doc), "--s", "1", *ladder])
    checks.check_claim_cover(report, [l_shape(2, 82).points] * 2, "claim")


def test_hl_report_passes_the_independent_check(checks, tmp_path, capsys):
    report = _report(tmp_path, capsys, ["verify", "hl", "--trials", "100"])
    checks.check_hl_report(report, 100, "hl")
    # Trial t of seed 0 is instance (n, t), spatial for every tenth.
    for n, seed in ((2, 3), (3, 9)):
        inst = random_separator_instance(n, seed)
        assert checks.bands_meet_brute_force(
            inst.factor_cells, inst.potentials, inst.band_center, inst.band_radius
        )
