"""Every third-party module the package and its tests import is declared,
the package uses every name it imports, every name a module exports is
bound in it, and importing the CLI loads no scipy module: the package runs
on numpy alone, and scipy is a test dependency (its oracles)."""

import ast
import importlib
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


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; names in __all__ count as read."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_package_uses_every_import():
    unused = {module.name: _unused_imports(module.read_text())
              for module in sorted((ROOT / "src" / "car2").glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}
    assert _unused_imports("from .model import Regime, RootPair\nx: Regime\n") == ["RootPair"]


def test_every_export_is_bound():
    # A deleted function must leave no stale name in an __all__.
    stale = {}
    for path in sorted((ROOT / "src" / "car2").glob("*.py")):
        name = "car2" if path.stem == "__init__" else f"car2.{path.stem}"
        module = importlib.import_module(name)
        missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
        if missing:
            stale[name] = missing
    assert stale == {}


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


def test_cli_loads_no_scipy_module():
    # Set-up time: importing scipy.signal once took most of a run's start-up.
    script = "import sys\nimport car2.cli\nprint('\\n'.join(sorted(sys.modules)))\n"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "car2.cli" in loaded and "numpy" in loaded
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []
