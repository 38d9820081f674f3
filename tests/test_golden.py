"""Golden artifacts: SHA-256 of small experiments, pinned bit for bit.

Each case runs a small `run_experiment` or `convergence_study` and hashes
the byte-identical artifact (the sorted-key JSON of `to_artifact_dict()`)
and, for experiments, the raw-residual rows as the CLI writes them.  The
cases cover every normalization, NaN residuals from explosive paths, and
exclusions by overflow and by a singular design.  The `path.csv` that
`car2 simulate` writes is pinned too, with and without recorded noise and
for noiseless paths (one from rest, where only zero signs can move), and
the `limit.csv` and `limit.meta.json` of `car2 limit-sample` for two
closed-form laws, whose Cauchy-type draws span many exponents, and for
two functional laws at the default Brownian grid of 10,000 steps (two
full chunks of paths, so both of the sampler's lanes run).

The experiments use only closed-form limit laws and normal / no
comparisons, which keeps them small: the Brownian-grid sampler's fields
are also pinned by digest in test_limits.py, at grid 1,000.  These hashes
must hold on any host, and test_blas_threads.py checks them, and the
sampler's fields, at one and two BLAS threads.  A change that moves
simulation or estimation bits on purpose must refresh the table and say
why.
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
from car2.cli import main

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

# `car2 simulate` arguments beside --seed 5 --rep 3, and the path.csv digest.
PATH_CSVS = {
    "unstable_oscillation_noise": (
        ["--theta1", "0.5", "--theta2", "-1.0625", "--horizon", "8", "--n-steps", "800",
         "--record-noise"],
        "5e9b85c77a2e875518d8339624b528de9d97456441433e516aaeb3630f2f2b8c"),
    "distinct_positive": (
        ["--theta1", "1.5", "--theta2", "-0.5", "--horizon", "6", "--n-steps", "300"],
        "07c2f145264c26cd3fdc6bec7df58a60a51837ce837d68913683e44c19d90500"),
    "positive_double_noise": (
        ["--theta1", "2", "--theta2", "-1", "--sigma", "0.7", "--horizon", "3",
         "--n-steps", "50", "--record-noise"],
        "b9f5bb3108621ee229d41c6f91e4f6f93ce9c1d8bfa509bca258230b1f06366b"),
    # sigma = 0: the mean path from a nonzero start, and dw all zeros.
    "noiseless_noise": (
        ["--theta1", "-1", "--theta2", "-2", "--sigma", "0", "--x0", "0.3", "--dx0", "-0.2",
         "--horizon", "4", "--n-steps", "400", "--record-noise"],
        "5050b8f835bf597589dc250a441f33be04361121c241a7eb6718a55a771446e3"),
    # sigma = 0 from rest: x's mean path is -0.0 past pi and v's on (pi/2, pi),
    # so a sample there reads -0.0 if the recurrence gave -0.0.
    "noiseless_rest_noise": (
        ["--theta1", "0", "--theta2", "-1", "--sigma", "0", "--horizon", "4", "--n-steps", "400",
         "--record-noise"],
        "7c73d723efdc707f5db653f5e3fa962481e5d523bfdd1da0f57df0cb8c0f1b2f"),
}

# `car2 limit-sample` arguments beside --seed 4, and the digests of
# limit.csv and limit.meta.json.
LIMIT_CSVS = {
    "ergodic": (
        ["--theta1", "-3", "--theta2", "-2", "--n", "500"],
        ("1cce466c6b66afa51278d84130d77b92f1f420b7a9ec2bad7603bf132513774c",
         "283c808751b347531d981552e633ad5fc1a143a17a481a930b6a5522e44afc6b")),
    "distinct_positive": (
        ["--theta1", "1.5", "--theta2", "-0.5", "--n", "500"],
        ("55663acfffb4d9b3393b78eff4d74f3606c434c4500ee1d8fccf03969dab1e28",
         "7435df9bdf875abed27d91b4d45daa993ec56d077a7702037966c95d08d1ae87")),
    # Grid 10,000: chunks of 419 = 26 * 16 + 3 paths, so no reduce block
    # holds a lone row.
    "harmonic": (
        ["--theta1", "0", "--theta2", "-1", "--n", "838"],
        ("5cf9a3e40904716e99d8fdb15995697b3a3d53fec082f281a87c509bc88bf177",
         "67af60377ac50e03ef64c836696f619f19f2d444a78437bf4d24b3ada801b864")),
    "zero_double": (
        ["--theta1", "0", "--theta2", "0", "--n", "838"],
        ("d4b0f31e819ab7f70015e7319178ff0abe548b643cbd90daecc60f5fb3bf2c00",
         "d40b61892370cbbcf79d40ff2c0d86c504f30de0f93eafe99cb8ed7055e3fd0b")),
}


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


@pytest.mark.parametrize("name", sorted(PATH_CSVS))
def test_simulated_path_csv_pinned(tmp_path, name):
    argv, digest = PATH_CSVS[name]
    assert main(["simulate", *argv, "--seed", "5", "--rep", "3", "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "path.csv").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(LIMIT_CSVS))
def test_limit_sample_csv_pinned(tmp_path, name):
    argv, digests = LIMIT_CSVS[name]
    assert main(["limit-sample", *argv, "--seed", "4", "--out", str(tmp_path)]) == 0
    assert tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                 for f in ("limit.csv", "limit.meta.json")) == digests
