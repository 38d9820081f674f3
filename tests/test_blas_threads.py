"""Results that must not depend on the BLAS thread count.

The block estimator sums each row with its own dot product.  OpenBLAS
runs a dot product on one thread for at most 10,000 samples; the strict
xfail here pins what longer rows do.  A blocked matrix-vector product would
split rows across threads and round differently.  `estimate_sigma` sums
its squared increments with numpy's pairwise sum, and the Brownian sampler
makes no BLAS call at all.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent

FIELD_DIGESTS = """
import hashlib
from car2 import brownian_functionals
for two_bm in (False, True):
    fn = brownian_functionals(5000, seed=3, two_bm=two_bm, n_draws=100)
    for name, value in sorted(vars(fn).items()):
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


@pytest.mark.parametrize("threads", ["1", "2"])
def test_golden_hashes_hold_at_blas_threads(threads):
    # Every golden test collected passes: none skipped, xfailed or missing.
    pytest_q = ("-m", "pytest", "-q", "-p", "no:cacheprovider", str(TESTS / "test_golden.py"))
    collected = run(threads, *pytest_q, "--collect-only")
    count = sum("::" in line for line in collected.splitlines())
    out = run(threads, *pytest_q)
    assert count > 0
    assert out.splitlines()[-1].startswith(f"{count} passed in ")


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
