"""The golden artifact hashes do not depend on the BLAS thread count.

The block estimator sums each row with its own dot product, which OpenBLAS
runs on one thread at these sizes; a blocked matrix-vector product would
split rows across threads and round differently.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


@pytest.mark.parametrize("threads", ["1", "2"])
def test_golden_hashes_hold_at_blas_threads(threads):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
           "PYTHONPATH": str(TESTS.parent / "src")}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           str(TESTS / "test_golden.py")], cwd=TESTS.parent,
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "6 passed" in proc.stdout
