"""Results that must not depend on the BLAS thread count.

The block estimator sums each row with its own dot product, which OpenBLAS
runs on one thread for rows of at most 10,000 samples; a blocked
matrix-vector product would split rows across threads and round
differently.  The Brownian sampler makes no BLAS call at all.
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


def run(threads, *args, timeout=120):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
           "PYTHONPATH": str(TESTS.parent / "src")}
    proc = subprocess.run([sys.executable, *args], cwd=TESTS.parent,
                          capture_output=True, text=True, env=env, timeout=timeout)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


@pytest.mark.parametrize("threads", ["1", "2"])
def test_golden_hashes_hold_at_blas_threads(threads):
    out = run(threads, "-m", "pytest", "-q", "-p", "no:cacheprovider",
              str(TESTS / "test_golden.py"))
    assert "6 passed" in out


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
