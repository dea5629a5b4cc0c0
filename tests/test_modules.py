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


def test_all_lists_exactly_the_imported_names():
    # Every name the package imports is exported, and nothing else.
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(continuum_sums.__all__) - {"__version__"} == imported
    assert len(continuum_sums.__all__) == len(set(continuum_sums.__all__))
