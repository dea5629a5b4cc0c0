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


def test_no_module_imports_a_name_it_never_uses():
    # A name counts as used when the module reads it or lists it in __all__.
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        ]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used |= {elt.value for elt in node.value.elts}
        offenders += [f"{path.name}: {name}" for name in imported if name not in used]
    assert not offenders, offenders


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_no_module_defines_a_private_name_it_never_uses():
    # Every private module-level function, class or constant, and every
    # private method, is read somewhere in its own module: a helper whose
    # last caller was deleted goes with it.
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [t.id for t in targets if isinstance(t, ast.Name)]
        methods = [
            item.name
            for node in tree.body
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.FunctionDef)
        ]
        read = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
        offenders += [
            f"{path.name}: {name}"
            for name in defined + methods
            if _is_private(name) and name not in read
        ]
    assert not offenders, offenders


def test_no_module_reads_a_private_attribute_it_does_not_define():
    # A private function, class, constant, method or instance attribute is
    # read as an attribute only in the module that defines it: another
    # module's private name, methods included, is never reached through a
    # class, an instance or a module object.
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
                defined.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
                defined.add(node.attr)
        offenders += [
            f"{path.name}:{node.lineno}: .{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and _is_private(node.attr)
            and node.attr not in defined
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


def test_one_sum_entry_point_and_no_thread_variable():
    # minkowski_sum chooses every route; the two dense folds stay public as
    # the criterion-01 oracle pair, and no worker-count variable is read.
    assert not hasattr(continuum_sums, "dilate")
    sum_names = {
        name
        for name in continuum_sums.__all__
        if getattr(getattr(continuum_sums, name), "__module__", None) == "continuum_sums.grid"
        and ("sum" in name or "dilate" in name)
    }
    assert sum_names == {"minkowski_sum", "nfold_sum", "dilate_fft", "dilate_naive"}
    offenders = [
        path.name
        for path in sorted(PACKAGE_DIR.rglob("*.py"))
        if "CONTINUUM_SUMS_THREADS" in path.read_text(encoding="utf-8")
    ]
    assert not offenders, offenders


def test_no_module_imports_scipy():
    # numpy is the only runtime dependency: connectivity is the package's own
    # union-find, morphology its own packed folds and the FFT fold numpy's.
    # scipy is a test dependency, for the oracles.
    offenders = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            offenders += [
                f"{path.name}: {n}" for n in names if n == "scipy" or n.startswith("scipy.")
            ]
    assert not offenders, offenders


def test_one_union_find():
    # A union-find's pointer jump reads an array at its own entries,
    # ``parent[parent]``; the package has one, in grid.component_roots.
    jumps = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            jumps += [
                f"{path.name}: {func.name}"
                for node in ast.walk(func)
                if isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and isinstance(node.slice, ast.Name)
                and node.value.id == node.slice.id
            ]
    assert jumps == ["grid.py: component_roots"], jumps


def test_separation_oracle_reads_no_batch_layout():
    # separation_by_search is the oracle for the batched validation and
    # scan, so it reads instances only, never the layout they share.
    tree = ast.parse((PACKAGE_DIR / "sums.py").read_text(encoding="utf-8"))
    (oracle,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "separation_by_search"
    ]
    names = {node.id for node in ast.walk(oracle) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(oracle) if isinstance(node, ast.Attribute)}
    layout = names & {"_packed", "_extended", "_Batch"}
    assert not layout, layout
