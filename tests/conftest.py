import threading

import numpy as np
import pytest

from car2 import ModelParams, simulate


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves more live threads than it found (an executor
    that is never shut down, say)."""
    before = set(threading.enumerate())
    yield
    after = threading.enumerate()
    assert len(after) <= len(before), [t.name for t in after if t not in before]


@pytest.fixture
def make_path():
    """Simulate a recorded-noise exact path with defaults suited to tests."""

    def _make(theta1, theta2, sigma=1.0, x0=0.3, dx0=-0.2, horizon=5.0,
              n_steps=500, seed=7, rep=0, scheme="exact"):
        params = ModelParams(theta1=theta1, theta2=theta2, sigma=sigma, x0=x0, dx0=dx0)
        return simulate(params, horizon, n_steps, scheme=scheme, record_noise=True,
                        seed=seed, rep=rep)

    return _make


# Reference parameters per regime: (theta1, theta2) with a test-friendly horizon.
REGIME_POINTS = {
    "Ergodic": (-3.0, -2.0, 10.0),
    "OppositeSign": (0.0, 2.0, 6.0),          # p = sqrt2, q = -sqrt2
    "DistinctPositive": (3.0, -2.0, 3.0),     # p = 2, q = 1
    "PositiveDouble": (2.0, -1.0, 5.0),       # p = q = 1
    "LargerRootZero": (-2.0, 0.0, 10.0),      # q = -2, p = 0
    "SmallerRootZero": (1.0, 0.0, 5.0),       # p = 1, q = 0
    "ZeroDouble": (0.0, 0.0, 10.0),
    "Harmonic": (0.0, -1.0, 20.0),
    "UnstableOscillation": (0.5, -1.0625, 8.0),  # lam = 0.25, nu = 1
}


def sorted_regime_points():
    return sorted(REGIME_POINTS.items())


@pytest.fixture
def regime_points():
    return REGIME_POINTS


def two_sided_band(n, scale=1.0, k=4.0):
    """k standard errors of a mean of n draws with the given per-draw sd."""
    return k * scale / np.sqrt(n)
