"""Every third-party module the package and its tests import is declared,
the package uses every name it imports, every name a module exports is
bound in it, importing the CLI loads no scipy module (the package runs on
numpy alone, and scipy is a test dependency, for its oracles), nor
concurrent.futures or logging, and creates only four dataclasses, the
package changes no process-wide state, starts threads in one place and
reads no environment variable, the harness, estimator, simulator, I/O
and CLI name no regime, and the random streams' domain tags keep their
values."""

import ast
import functools
import importlib
import json
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


CLI_IMPORT_PROBE = """
import sys
import car2.cli
import dataclasses, json
classes = {f"{cls.__module__}.{cls.__qualname__}"
           for name, module in list(sys.modules.items()) if name.split(".")[0] == "car2"
           for cls in vars(module).values()
           if isinstance(cls, type) and cls.__module__ == name and dataclasses.is_dataclass(cls)}
modules = sorted(sys.modules)
from car2 import ExperimentConfig, ModelParams, convergence_study, run_experiment
cfg = ExperimentConfig(
    params=ModelParams(theta1=-3.0, theta2=-2.0, sigma=1.0, x0=0.3, dx0=-0.2),
    horizons=(2.0, 4.0, 8.0), n_reps=20, seed=0, steps_per_unit_time=50, n_reference=200,
    grid_n=100)
run_experiment(cfg)
convergence_study(cfg)
print(json.dumps({"modules": modules, "dataclasses": sorted(classes),
                  "run_modules": sorted(sys.modules)}))
"""


@functools.cache
def _cli_import_probe() -> dict:
    """What `import car2.cli` leaves in a fresh interpreter: every loaded
    module, and the classes defined in car2 that are dataclasses; then every
    module loaded once a small experiment and convergence study have run."""
    proc = subprocess.run([sys.executable, "-c", CLI_IMPORT_PROBE], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_loads_no_scipy_module():
    # Set-up time: importing scipy.signal once took most of a run's start-up.
    loaded = _cli_import_probe()["modules"]
    assert "car2.cli" in loaded and "numpy" in loaded
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def test_cli_import_footprint():
    # Set-up time again: car2 runs its two worker threads on `threading`
    # alone, since concurrent.futures brings logging and queue with it, and
    # its results are NamedTuples, whose classes cost a fraction of a
    # dataclass's to create.  The dataclasses are the four records that
    # validate their fields in __post_init__.
    probe = _cli_import_probe()
    assert [m for m in probe["modules"] if m.split(".")[0] in ("concurrent", "logging")] == []
    assert probe["dataclasses"] == ["car2.model.ModelParams", "car2.montecarlo.ExperimentConfig",
                                    "car2.montecarlo.NormalReference",
                                    "car2.simulate.SamplePath"]


def test_experiment_loads_no_numpy_ma():
    # Run time: np.percentile's linear method imports numpy.ma (9-15 ms),
    # through np.unique, at its first call, and np.median through its NaN
    # check; the harness's quantiles and the convergence medians do not.
    loaded = _cli_import_probe()["run_modules"]
    assert "car2.montecarlo" in loaded and "car2.limits" in loaded
    assert [m for m in loaded if m == "numpy.ma" or m.startswith("numpy.ma.")] == []


# Calls that change state every thread of the process shares.  A library
# that sets one to do its work (the umask to read it, say) changes it under
# the caller's other threads; context-local settings such as np.errstate
# are fine.  ctypes' loaders are the route to the C library's allocator
# settings (mallopt): memory is saved by allocating less, not by tuning
# the caller's malloc.
PROCESS_WIDE = {"os.umask", "os.chdir", "os.putenv", "numpy.seterr", "numpy.random.seed",
                "sys.setswitchinterval", "sys.setrecursionlimit", "ctypes.CDLL", "ctypes.cdll"}


def _uses(source: str, names: set[str]) -> list[str]:
    """The dotted names of names that a module reads, by the line, after its
    import aliases."""
    tree = ast.parse(source)
    aliases = {}  # local name -> dotted module path
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                aliases[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    found = []
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            name = ".".join([aliases.get(node.id, node.id), *reversed(parts)])
            if name in names:
                found.append((node.lineno, name))
    return [f"{line}: {name}" for line, name in sorted(found)]


def _package_uses(names: set[str]) -> dict[str, list[str]]:
    """`_uses` of names in every module of src/car2 that reads one."""
    uses = {module.name: _uses(module.read_text(), names)
            for module in sorted((ROOT / "src" / "car2").glob("*.py"))}
    return {name: found for name, found in uses.items() if found}


def test_package_changes_no_process_wide_state():
    assert _package_uses(PROCESS_WIDE) == {}
    probe = ("import os\nimport numpy as np\nfrom sys import setrecursionlimit as limit\n"
             "with np.errstate(over='ignore'):\n    pass\n"
             "mask = os.umask(0)\nnp.random.seed(1)\nlimit(99)\n")
    assert _uses(probe, PROCESS_WIDE) == ["6: os.umask", "7: numpy.random.seed",
                                          "8: sys.setrecursionlimit"]
    probe = ("import ctypes\nimport ctypes as c\nfrom ctypes import CDLL as dll, cdll\n"
             "ctypes.CDLL(None).mallopt(-3, 0)\nc.cdll.LoadLibrary('libc.so.6')\n"
             "dll('libc.so.6')\ncdll.LoadLibrary('libc.so.6')\nctypes.c_int(0)\n")
    assert _uses(probe, PROCESS_WIDE) == ["4: ctypes.CDLL", "5: ctypes.cdll", "6: ctypes.CDLL",
                                          "7: ctypes.cdll"]


# Calls that start a thread or a process.  The package starts its worker
# threads in one place, `simulate._Lanes`, which owns the one stop rule of
# both pipelines: a lane that fails takes every row left, and every exit
# joins the worker.
THREAD_STARTERS = {"threading.Thread", "threading.Timer", "_thread.start_new_thread",
                   "concurrent.futures.ThreadPoolExecutor",
                   "concurrent.futures.ProcessPoolExecutor", "multiprocessing.Process",
                   "multiprocessing.Pool"}


def test_package_starts_threads_in_one_place():
    uses = _package_uses(THREAD_STARTERS)
    assert list(uses) == ["simulate.py"] and len(uses["simulate.py"]) == 1, uses
    line = int(uses["simulate.py"][0].split(":")[0])
    tree = ast.parse((ROOT / "src" / "car2" / "simulate.py").read_text())
    (lanes,) = [node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == "_Lanes"]
    assert lanes.lineno < line <= lanes.end_lineno
    probe = ("import threading as th\nimport _thread\nimport concurrent.futures as cf\n"
             "from threading import Thread as T\nfrom multiprocessing import Pool, Process\n"
             "T(target=print).start()\nth.Timer(1.0, print)\n_thread.start_new_thread(print, ())\n"
             "cf.ThreadPoolExecutor(1)\nPool(1)\nProcess(target=print)\nth.Lock()\n")
    assert _uses(probe, THREAD_STARTERS) == [
        "6: threading.Thread", "7: threading.Timer", "8: _thread.start_new_thread",
        "9: concurrent.futures.ThreadPoolExecutor", "10: multiprocessing.Pool",
        "11: multiprocessing.Process"]


# Reads of the environment.  The package takes every setting as an argument
# (block sizes are module constants), so no run depends on a variable set
# in the shell that started it.
ENVIRONMENT = {"os.environ", "os.environb", "os.getenv"}


def test_package_reads_no_environment_variable():
    assert _package_uses(ENVIRONMENT) == {}
    probe = ("import os\nimport os as system\nfrom os import environb, getenv as env\n"
             "a = os.environ.get('A')\nb = system.environ['B']\nc = environb[b'C']\n"
             "d = env('D')\ne = os.getenv('E')\n")
    assert _uses(probe, ENVIRONMENT) == ["4: os.environ", "5: os.environ", "6: os.environb",
                                         "7: os.getenv", "8: os.getenv"]


# Modules that decide nothing by regime: the regime's rules, rates,
# normalizations and limit laws live in model, regimes and limits.
REGIME_BLIND = ("montecarlo.py", "estimate.py", "simulate.py", "io.py", "cli.py")


def _regime_members_named(source: str) -> list[str]:
    """The RegimeKind members a module names (as Alias.MEMBER), by the line."""
    from car2.model import RegimeKind

    tree = ast.parse(source)
    kinds = {"RegimeKind"} | {alias.asname for node in ast.walk(tree)
                              if isinstance(node, ast.ImportFrom) for alias in node.names
                              if alias.name == "RegimeKind" and alias.asname}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in RegimeKind.__members__:
            base = node.value
            name = getattr(base, "id", None) or getattr(base, "attr", None)
            if name in kinds:
                found.append((node.lineno, f"{name}.{node.attr}"))
    return [f"{line}: {name}" for line, name in sorted(found)]


def test_harness_names_no_regime():
    found = {name: _regime_members_named((ROOT / "src" / "car2" / name).read_text())
             for name in REGIME_BLIND}
    assert {name: uses for name, uses in found.items() if uses} == {}
    probe = ("from .model import RegimeKind\nfrom .model import RegimeKind as Kind\n"
             "from . import model\na = RegimeKind.HARMONIC\nb = Kind.ERGODIC\n"
             "c = model.RegimeKind.ZERO_DOUBLE\nd = RegimeKind.__members__\n")
    assert _regime_members_named(probe) == ["4: RegimeKind.HARMONIC", "5: Kind.ERGODIC",
                                            "6: RegimeKind.ZERO_DOUBLE"]


def test_stream_domain_tags_are_pinned():
    from car2 import rng

    tags = {name: value for name, value in vars(rng).items() if name.startswith("DOMAIN_")}
    assert tags == {"DOMAIN_SIM_EXACT": 0, "DOMAIN_LIMIT": 2, "DOMAIN_REFERENCE": 3}, (
        "a domain tag is part of the Philox key of every stream it names: renumbering "
        "one (closing the gap at the retired tag 1, say) moves every limit and "
        "reference draw, and with them the golden hashes")
