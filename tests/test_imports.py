"""Every name a module of the package imports is used in that module, and
every module parses with the grammar of the oldest Python that
``pyproject.toml`` declares (``requires-python >= 3.10``). The imports
between the package's modules form an acyclic graph and are all made at
module level.

``__init__.py`` is skipped by the unused-import check: it imports names only
to re-export them.
"""

from __future__ import annotations

import ast
import graphlib
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "aspkit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(module):
    assert unused_imports(module.read_text()) == []


def test_an_unused_import_is_reported():
    source = "import os\nfrom a.b import c as d, e\nimport x.y\nx.y.z(e)\n"
    assert unused_imports(source) == ["os (line 1)", "d (line 2)"]


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_parses_as_python_3_10(module):
    ast.parse(module.read_text(), filename=module.name, feature_version=(3, 10))


def test_newer_syntax_is_refused():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


def package_imports(source: str) -> list[tuple[str, bool]]:
    """(module, made inside a function) for each import of a module of the package."""
    tree = ast.parse(source)
    deferred = {
        id(node)
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["aspkit" if node.level else "", node.module]))
            names = [f"aspkit.{alias.name}" for alias in node.names] if module == "aspkit" else [module]
        else:
            continue
        for name in names:
            package, _, module = name.partition(".")
            if package == "aspkit" and (PACKAGE / f"{module}.py").exists():
                found.append((module, id(node) in deferred))
    return found


IMPORT_GRAPH = {
    module.stem: {name for name, _ in package_imports(module.read_text())}
    for module in sorted(PACKAGE.glob("*.py"))
}


def test_package_imports_are_acyclic():
    graphlib.TopologicalSorter(IMPORT_GRAPH).prepare()  # raises CycleError on a cycle


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_package_import_inside_a_function(module):
    assert [name for name, deferred in package_imports(module.read_text()) if deferred] == []


def test_package_imports_are_found():
    source = (
        "import os\nfrom . import systems, errors\nfrom .syntax import Atom\n"
        "from aspkit.mapper import record\n"
        "def f():\n    from .refeval import answer_sets\n    import aspkit.cli\n"
    )
    assert package_imports(source) == [
        ("systems", False), ("errors", False), ("syntax", False), ("mapper", False),
        ("refeval", True), ("cli", True),
    ]


def test_an_import_cycle_is_refused():
    with pytest.raises(graphlib.CycleError):
        graphlib.TopologicalSorter({"a": {"b"}, "b": {"a"}}).prepare()


def test_import_does_not_load_uuid():
    # async job ids come from a counter; uuid would also load platform
    code = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); before = set(sys.modules); "
        "import aspkit; print(*sorted(set(sys.modules) - before))"
    )
    added = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
    ).stdout.split()
    assert "aspkit.orchestration" in added
    assert "uuid" not in added


def test_import_does_not_load_shutil():
    # subprocess finds external solvers on PATH; -S keeps site's own imports out
    code = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); before = set(sys.modules); "
        "import aspkit; print(*sorted(set(sys.modules) - before))"
    )
    added = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True, timeout=60
    ).stdout.split()
    assert "aspkit.systems" in added
    assert "shutil" not in added
