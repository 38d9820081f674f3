"""Every third-party module the package and its tests import is declared."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def _import_roots(source: str) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def _declared(*extras: str) -> set[str]:
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    requirements = list(project["dependencies"])
    for extra in extras:
        requirements += project["optional-dependencies"][extra]
    return {re.split(r"[\s<>=!~\[;]", req, maxsplit=1)[0].lower()
            for req in requirements}


def test_third_party_imports_are_declared():
    found = set()
    for module in sorted((ROOT / "src" / "car2").glob("*.py")):
        found |= _import_roots(module.read_text())
    third_party = found - set(sys.stdlib_module_names) - {"car2"}
    assert third_party, "expected at least numpy among the imports"
    assert third_party <= _declared(), sorted(third_party - _declared())


def test_test_imports_are_declared_in_the_test_extra():
    found = set()
    modules = sorted((ROOT / "tests").glob("*.py"))
    for module in modules:
        found |= _import_roots(module.read_text())
    local = {"car2"} | {module.stem for module in modules}  # e.g. conftest
    third_party = found - set(sys.stdlib_module_names) - local
    assert {"pytest", "hypothesis"} <= third_party
    declared = _declared("test")
    assert third_party <= declared, sorted(third_party - declared)
