"""Results that must not depend on the BLAS thread count, or on the CPU kernels.

The block estimator sums each row with its own dot product.  OpenBLAS
runs a dot product on one thread for at most 10,000 samples; a strict
xfail here pins what longer rows do.  A blocked matrix-vector product would
split rows across threads and round differently.  `estimate_sigma` sums
its squared increments with numpy's pairwise sum, and the Brownian sampler
makes no BLAS call at all.  Another strict xfail pins the golden artifacts'
dependence on the OpenBLAS kernel and numpy's SIMD dispatch level.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

TESTS = Path(__file__).resolve().parent

FIELD_DIGESTS = """
import hashlib
from car2 import brownian_functionals
for two_bm in (False, True):
    fn = brownian_functionals(5000, seed=3, two_bm=two_bm, n_draws=100)
    for name, value in sorted(fn._asdict().items()):
        if value is not None:
            print(two_bm, name, hashlib.sha256(value.tobytes()).hexdigest())
"""

RESIDUAL_DIGEST = """
import hashlib, sys
from car2 import ExperimentConfig, ModelParams, run_experiment
cfg = ExperimentConfig(params=ModelParams(theta1=-3.0, theta2=-2.0, sigma=1.0, x0=0.3, dx0=-0.2),
                       horizons=(10.0,), n_reps=20, seed=7,
                       steps_per_unit_time=int(sys.argv[1]), comparison="none")
print(hashlib.sha256(repr(list(run_experiment(cfg).residual_rows())).encode()).hexdigest())
"""

SIGMA_HAT = """
import sys
from car2 import ModelParams, simulate
from car2.estimate import estimate_sigma
params = ModelParams(theta1=-3.0, theta2=-2.0, sigma=1.0, x0=0.3, dx0=-0.2)
print(repr(estimate_sigma(simulate(params, 10.0, int(sys.argv[1]), seed=7, rep=0))))
"""


def run(threads, *args, timeout=120):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
           "PYTHONPATH": str(TESTS.parent / "src")}
    proc = subprocess.run([sys.executable, *args], cwd=TESTS.parent,
                          capture_output=True, text=True, env=env, timeout=timeout)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


GOLDEN = ("-m", "pytest", "-q", "-p", "no:cacheprovider", str(TESTS / "test_golden.py"))


def golden_count() -> int:
    collected = run("1", *GOLDEN, "--collect-only")
    count = sum("::" in line for line in collected.splitlines())
    assert count > 0
    return count


@pytest.mark.parametrize("threads", ["1", "2"])
def test_golden_hashes_hold_at_blas_threads(threads):
    # Every golden test collected passes: none skipped, xfailed or missing.
    count = golden_count()
    out = run(threads, *GOLDEN)
    assert out.splitlines()[-1].startswith(f"{count} passed in ")


# numpy's AVX-512 dispatch targets, off in the second variant
AVX512_TARGETS = ("AVX512_SPR", "AVX512_ICL", "X86_V4")


def forcible_variants() -> dict[str, dict[str, str]]:
    """The kernel variants this host can force, by name: an OpenBLAS built
    for every core runs Haswell's kernels on a CPU with AVX2 and FMA3, and
    numpy drops AVX-512 dispatch targets that it has and uses."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    variants = {}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if ("DYNAMIC_ARCH" in blas.get("openblas configuration", "")
            and __cpu_features__.get("AVX2") and __cpu_features__.get("FMA3")):
        variants["OPENBLAS_CORETYPE=Haswell"] = {"OPENBLAS_CORETYPE": "Haswell"}
    if (set(AVX512_TARGETS) <= set(__cpu_dispatch__)
            and any(__cpu_features__.get(name) for name in AVX512_TARGETS)):
        variants["NPY_DISABLE_CPU_FEATURES=" + ",".join(AVX512_TARGETS)] = {
            "NPY_DISABLE_CPU_FEATURES": ",".join(AVX512_TARGETS)}
    return variants


@pytest.mark.xfail(strict=True, reason="the golden pins hold only under this host's kernels: "
                                       "eigh, matmul and vecdot follow the OpenBLAS core, "
                                       "array exp and power follow numpy's SIMD dispatch "
                                       "(ROADMAP item 12)")
def test_golden_hashes_hold_under_other_kernels():
    # Every golden test collected passes under each variant the host can force.
    variants = forcible_variants()
    if not variants:
        pytest.skip("this host can force no other OpenBLAS core or numpy dispatch level")
    count = golden_count()
    results = {}
    for name, variant in variants.items():
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": str(TESTS.parent / "src"), **variant}
        proc = subprocess.run([sys.executable, *GOLDEN], cwd=TESTS.parent, capture_output=True,
                              text=True, env=env, timeout=120)
        results[name] = (proc.stdout.splitlines() or [proc.stderr])[-1]
    assert all(last.startswith(f"{count} passed in ") for last in results.values()), (
        f"variants run: {results}")


def test_brownian_fields_do_not_depend_on_blas_threads():
    # At grid 5000 and 100 draws the `@ trapw` gemvs the sampler once made
    # ran threaded, and z1, z2, z3 and s2 differed between the two counts.
    one, two = (run(threads, "-c", FIELD_DIGESTS) for threads in ("1", "2"))
    assert len(one.splitlines()) == 9
    assert one == two


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS runs one thread on one CPU")
@pytest.mark.parametrize("steps_per_unit", [
    999,
    pytest.param(1001, marks=pytest.mark.xfail(
        strict=True, reason="`_block_columns`' np.vecdot runs OpenBLAS's threaded ddot "
                            "on rows longer than 10,000 samples (ROADMAP item 2)")),
])
def test_harness_residuals_do_not_depend_on_blas_threads(steps_per_unit):
    # T = 10: rows of 9,991 samples at 999 steps per unit, 10,011 at 1001.
    one, two = (run(threads, "-c", RESIDUAL_DIGEST, str(steps_per_unit))
                for threads in ("1", "2"))
    assert one == two


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS runs one thread on one CPU")
@pytest.mark.parametrize("n_steps", [9000, 20000, 100000])
def test_sigma_hat_does_not_depend_on_blas_threads(n_steps):
    # `car2 estimate`'s sigma_hat, from n_steps increments of X': a dot
    # product over them would run OpenBLAS's threaded ddot above 10,000.
    one, two = (run(threads, "-c", SIGMA_HAT, str(n_steps)) for threads in ("1", "2"))
    assert one == two
