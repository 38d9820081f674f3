"""Failure accounting and output checks of the benchmark.

The DistinctPositive (3, -2) cases run the real `car2 experiment` in a
worker process and pin two defects of the program as counted failures:
at T=120 estimate_path raises OverflowError, which run_experiment does not
catch, so the CLI exits with code 3; at T=200 the estimates are NaN but
the replications are counted as used.
"""

import hashlib
import json

import pytest
from checks import ARTIFACTS, RunOutputs, check_outputs, count_failures
from conftest import BENCH_DIR
from run import WorkloadRun

ROOT = BENCH_DIR.parent


def _distinct_positive(horizon, n_reps=4):
    return {
        "command": "experiment",
        "params": {"theta1": 3.0, "theta2": -2.0, "sigma": 1.0, "x0": 0.3, "dx0": -0.2},
        "horizons": [horizon],
        "n_reps": n_reps,
        "seed": 1,
        "steps_per_unit_time": 20,
        "comparison": "limit_sampler",
        "n_reference": 200,
        "write_residuals": True,
    }


def _run_once(config):
    bench = WorkloadRun(ROOT, "test", config, expected=None)
    try:
        result = bench.experiment(trace=False)
    finally:
        bench.close()
    return bench, result


def test_overflow_exit_fails_every_replication():
    bench, result = _run_once(_distinct_positive(120.0))
    assert result is None
    assert (bench.attempted, bench.failed) == (4, 4)
    assert any("exited with code 3" in p for p in bench.problems)


def test_nan_estimates_count_as_failures():
    bench, result = _run_once(_distinct_positive(200.0))
    assert result is None
    assert (bench.attempted, bench.failed) == (4, 4)
    assert any("non-finite residual rows" in p for p in bench.problems)


def _outputs(horizons, rows, exit_code=0):
    report = {"horizons": horizons}
    csv = "rep,T,r1,r2\n" + "".join(f"{k},{T!r},{a!r},{b!r}\n" for k, T, a, b in rows)
    return RunOutputs(exit_code, {"report.json": json.dumps(report).encode(),
                                  "residuals.csv": csv.encode()})


def _horizon(T, n_used, n_excluded, ks1=0.1, ks2=0.2):
    return {"horizon": T, "n_used": n_used, "n_excluded": n_excluded, "ks1": ks1, "ks2": ks2}


CONFIG = {"n_reps": 3, "horizons": [1, 2]}


def test_consistent_outputs_pass():
    outputs = _outputs([_horizon(1.0, 3, 0), _horizon(2.0, 2, 1)],
                       [(0, 1.0, 0.5, -0.5), (1, 1.0, 0.1, 0.2), (2, 1.0, 0.3, 0.4),
                        (0, 2.0, 0.5, 0.6), (2, 2.0, 0.7, 0.8)])
    assert check_outputs(outputs, CONFIG, None) == []
    assert count_failures(outputs, CONFIG) == (6, 1)


def test_digest_mismatch_is_reported():
    outputs = _outputs([_horizon(1.0, 3, 0), _horizon(2.0, 3, 0)],
                       [(k, T, 0.1, 0.1) for T in (1.0, 2.0) for k in range(3)])
    expected = {name: hashlib.sha256(b"other").hexdigest() for name in ARTIFACTS}
    problems = check_outputs(outputs, CONFIG, expected)
    assert len(problems) == 2 and all("sha256" in p for p in problems)
    same = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.files.items()}
    assert check_outputs(outputs, CONFIG, same) == []


@pytest.mark.parametrize("horizons, rows, needle", [
    ([_horizon(1.0, 3, 1), _horizon(2.0, 0, 3)], [(k, 1.0, 0.1, 0.1) for k in range(3)],
     "n_reps"),
    ([_horizon(1.0, 3, 0), _horizon(2.0, 0, 3)], [(0, 1.0, 0.1, 0.1)], "residual rows"),
    ([_horizon(1.0, 1, 2, ks1=1.5), _horizon(2.0, 0, 3)], [(0, 1.0, 0.1, 0.1)], "ks1"),
    ([_horizon(1.0, 1, 2), _horizon(2.0, 0, 3)], [(0, 1.0, float("inf"), 0.1)],
     "non-finite"),
    ([_horizon(1.0, 0, 3)], [], "horizons"),
])
def test_inconsistent_outputs_are_reported(horizons, rows, needle):
    problems = check_outputs(_outputs(horizons, rows), CONFIG, None)
    assert any(needle in p for p in problems), problems


def test_nonzero_exit_or_missing_artifacts_fail_everything():
    outputs = _outputs([_horizon(1.0, 3, 0), _horizon(2.0, 3, 0)], [])
    outputs.exit_code = 3
    assert count_failures(outputs, CONFIG) == (6, 6)
    assert count_failures(RunOutputs(0, {}), CONFIG) == (6, 6)
    assert check_outputs(RunOutputs(0, {}), CONFIG, None) != []
