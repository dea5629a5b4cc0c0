"""Package layout rules checked on the source text."""

import ast
from pathlib import Path

import continuum_sums

PACKAGE_DIR = Path(continuum_sums.__file__).parent


def test_no_module_imports_another_modules_private_name():
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [
                    f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not offenders, offenders


def test_no_module_mentions_a_distance_transform():
    # Margins are read off box dilations; the package keeps one morphology
    # primitive and no distance engine.
    offenders = [
        str(path.relative_to(PACKAGE_DIR))
        for path in sorted(PACKAGE_DIR.rglob("*.py"))
        if "distance_transform" in path.read_text(encoding="utf-8")
    ]
    assert not offenders, offenders
