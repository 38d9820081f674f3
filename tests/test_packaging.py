"""Every third-party module the package and its tests import is declared,
and importing the CLI costs no numeric module beyond scipy.signal's."""

import ast
import os
import re
import subprocess
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


def test_cli_adds_no_numpy_or_scipy_module_to_scipy_signal():
    # Set-up time: everything numeric car2 needs comes with scipy.signal.
    script = ("import sys\n"
              "import scipy.signal\n"
              "before = set(sys.modules)\n"
              "import car2.cli\n"
              "print('\\n'.join(sorted(set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    added = proc.stdout.split()
    assert "car2.cli" in added
    assert [m for m in added if m.split(".")[0] in ("numpy", "scipy")] == []
