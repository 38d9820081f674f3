"""Golden artifacts: SHA-256 of small experiments, pinned bit for bit.

Each case runs a small `run_experiment` or `convergence_study` and hashes
the byte-identical artifact (the sorted-key JSON of `to_artifact_dict()`)
and, for experiments, the raw-residual rows as the CLI writes them.  The
cases cover every normalization, NaN residuals from explosive paths, and
exclusions by overflow and by a singular design.

Only closed-form limit laws and normal / no comparisons appear, which
keeps the cases small: the Brownian-grid sampler's fields are pinned by
digest in test_limits.py.  These hashes must hold on any host, and
test_blas_threads.py checks them, and the sampler's fields, at one and two
BLAS threads.  A change that moves simulation or estimation bits on
purpose must refresh the table and say why.
"""

import hashlib
import json

import pytest

from car2 import (
    ExperimentConfig,
    ModelParams,
    NormalReference,
    convergence_study,
    run_experiment,
)

ERGODIC = ModelParams(theta1=-3.0, theta2=-2.0, sigma=1.0, x0=0.3, dx0=-0.2)
DISTINCT_POSITIVE = ModelParams(theta1=1.5, theta2=-0.5, sigma=1.0, x0=0.3, dx0=-0.2)
UNSTABLE_OSCILLATION = ModelParams(theta1=0.5, theta2=-1.0625, sigma=1.0, x0=0.4, dx0=-0.3)
# p = 2: some paths leave the float64 range before T = 354.5, the rest give
# NaN estimates (paths near 1e300 overflow the trapezoid sums).
OVERFLOWING = ModelParams(theta1=3.0, theta2=-2.0, sigma=1.0, x0=0.3, dx0=-0.2)
# From rest over two steps of 0.01, some designs are below the singular threshold.
SINGULAR = ModelParams(theta1=-3.0, theta2=-2.0, sigma=1.0)

EXPERIMENTS = {
    "deterministic_rate": dict(
        params=ERGODIC, horizons=(2.0, 5.0), n_reps=50, seed=7,
        steps_per_unit_time=40, comparison="limit_sampler", n_reference=500),
    "nlrr_normal": dict(
        params=DISTINCT_POSITIVE, horizons=(3.0, 6.0), n_reps=40, seed=11,
        steps_per_unit_time=50, normalization="nlrr",
        comparison=NormalReference(mean1=0.0, var1=1.0, mean2=0.0, var2=1.0),
        n_reference=400),
    "matrix_unstable_oscillation": dict(
        params=UNSTABLE_OSCILLATION, horizons=(4.0, 6.0), n_reps=40, seed=5,
        steps_per_unit_time=100, normalization="matrix",
        comparison="limit_sampler", n_reference=400),
    "overflow_exclusions": dict(
        params=OVERFLOWING, horizons=(354.5,), n_reps=24, seed=3,
        steps_per_unit_time=2, comparison="none"),
    "singular_exclusions": dict(
        params=SINGULAR, horizons=(0.02, 0.03), n_reps=40, seed=3,
        steps_per_unit_time=100, comparison="none"),
}

CONVERGENCE = dict(params=ERGODIC, horizons=(2.0, 4.0, 8.0), n_reps=40, seed=9,
                   steps_per_unit_time=50, comparison="none")

# (artifact digest, residual-rows digest) per experiment.
EXPECTED = {
    "deterministic_rate": (
        "be6ffd3fa0e47588ac3c3fae4cde5508738f93799fcf89afe34abdd282c17f3e",
        "b1cb9f617ed5380c22ea0f2b55afe90cff5f28997481ad30eda5ce3043024d49"),
    "nlrr_normal": (
        "90cfef99d3a083b0307a82a4595596f9e9149885b36aba6044bc8ef6f6911ac8",
        "0d5e0526a61268cc3689739e811283f1d42427a53520d61313d3ea1e7d6c2450"),
    "matrix_unstable_oscillation": (
        "3931ec1ae1ee2548da96d8428d7c4127f93005dd6f9d931c89741e3173e4b4de",
        "e5b1eae051cd24c4dfd883fbd138912475474bdb3f642071a85855f3d31e2d9a"),
    "overflow_exclusions": (
        "938ccf05b132ae7ad74d71458583e7211b849e022a36002baf6698a14b6cefd8",
        "5775d9464e919e23dd03656a6316c6e92adbdad8022dde0c0bbd32607eb91f88"),
    "singular_exclusions": (
        "8b3bc5a0ffc408cca5465048d9da1e20d61124dbb3f2c8f1d08a57657ab76f4b",
        "22d4c26d88137af02ecdbf200d31b38b28ca2a3006cc29f91ce30ea01d8c021a"),
}
EXPECTED_CONVERGENCE = "7eb4bc6b6dee2f144d1ec874c02ba5bfa9b940acf0244172506bb5f7c09a82d3"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _artifact_digest(report) -> str:
    return _sha256(json.dumps(report.to_artifact_dict(), sort_keys=True))


def _residual_digest(report) -> str:
    return _sha256("".join(f"{k},{T!r},{a!r},{b!r}\n"
                           for k, T, a, b in report.residual_rows()))


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment_artifacts_pinned(name):
    report = run_experiment(ExperimentConfig(**EXPERIMENTS[name]))
    assert (_artifact_digest(report), _residual_digest(report)) == EXPECTED[name]


def test_convergence_artifact_pinned():
    report = convergence_study(ExperimentConfig(**CONVERGENCE))
    assert _artifact_digest(report) == EXPECTED_CONVERGENCE
