"""The Cantor family's reports, audited by the independent checkers of ``perfbench``.

``perfbench/checks.py`` recomputes every checked property of a report apart
from the program (explicit sample sums in a k-d tree, direct counts of
height sums).  It is loaded here from its file, read-only, so the checkers
stay single-sourced.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from continuum_sums import cli
from continuum_sums.gallery import cantor_graph, ladder_steps

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


def test_cantor_report_passes_the_independent_check(checks, tmp_path, capsys):
    report = _report(tmp_path, capsys, ["verify", "cantor", "--depth", "6"])
    checks.check_cantor_report(report, ladder_steps(6).points, 6, "cantor")


def test_staircase_pair_report_passes_the_independent_check(checks, tmp_path, capsys):
    assert cli.main(["gallery", "cantor-graph", "--depth", "6"]) == 0
    doc = tmp_path / "staircase.json"
    doc.write_text(capsys.readouterr().out)
    argv = ["verify", "main", str(doc)]
    for h in LADDER:
        argv += ["--h", str(h)]
    report = _report(tmp_path, capsys, argv)
    samples = cantor_graph(6, 64).points
    worst = checks.check_theorem_report(report, [samples] * 2, LADDER, None, "staircase")
    assert worst > 0
