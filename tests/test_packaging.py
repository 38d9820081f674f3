"""Every third-party module the package imports is a declared dependency."""

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


def _declared() -> set[str]:
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    return {re.split(r"[\s<>=!~\[;]", req, maxsplit=1)[0].lower()
            for req in project["dependencies"]}


def test_third_party_imports_are_declared():
    found = set()
    for module in sorted((ROOT / "src" / "car2").glob("*.py")):
        found |= _import_roots(module.read_text())
    third_party = found - set(sys.stdlib_module_names) - {"car2"}
    assert third_party, "expected at least numpy among the imports"
    assert third_party <= _declared(), sorted(third_party - _declared())
