"""Span recording, self times and the benchmark's declared metrics."""

import json
import shutil
import subprocess
import sys
import time

import pytest
from conftest import BENCH_DIR
from run import END_TO_END, PER_LAYER, WorkloadRun, _per_layer
from tracer import ROOT, Tracer, layer_table, self_times
from worker import CALIBRATION_CHUNKS

REPO = BENCH_DIR.parent


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_add_up_to_the_root_span():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: _busy(0.01))

    def middle():
        _busy(0.005)
        leaf()
        leaf()

    def fail():
        raise ValueError("boom")

    mid = tracer.wrap("mid", middle)
    failing = tracer.wrap("fail", fail)

    def root():
        mid()
        with pytest.raises(ValueError):
            failing()

    tracer.wrap(ROOT, root)()
    spans = tracer.spans
    assert [s[0] for s in spans] == [ROOT, "mid", "leaf", "leaf", "fail"]
    assert [s[3] for s in spans] == [-1, 0, 1, 1, 0]
    selfs = self_times(spans)
    assert sum(selfs) == pytest.approx(spans[0][2] - spans[0][1], abs=1e-9)
    assert selfs[1] == pytest.approx(0.005, abs=0.004)
    table = layer_table(spans)
    assert table["leaf"]["calls"] == 2 and table["leaf"]["self_s"] >= 0.02
    assert table["fail"]["failed"] == 1 and table["mid"]["failed"] == 0


def test_traced_experiment_counts_layer_calls():
    config = {
        "command": "experiment",
        "params": {"theta1": -3.0, "theta2": -2.0, "sigma": 1.0, "x0": 0.3, "dx0": -0.2},
        "horizons": [1, 2],
        "n_reps": 5,
        "seed": 4,
        "steps_per_unit_time": 50,
        "comparison": "limit_sampler",
        "n_reference": 100,
        "write_residuals": True,
    }
    bench = WorkloadRun(REPO, "test", config, expected=None)
    try:
        result = bench.experiment(trace=True)
    finally:
        bench.close()
    assert result is not None, bench.problems
    assert len(result["calibration"]) == 2 * CALIBRATION_CHUNKS  # after import, after main
    assert result["scale"] > 0.0 and result["cpu_scale"] > 0.0
    spans = result["spans"]
    assert sum(self_times(spans)) == pytest.approx(result["wall_s"], abs=1e-3)
    layers = _per_layer(layer_table(spans))
    assert layers["model.transition.calls"] == 10
    assert layers["simulate.simulate.calls"] == 10
    assert layers["estimate.sufficient_stats.calls"] == layers["estimate.estimate_path.calls"]
    assert layers["simulate.normals"] == 3 * 5 * (50 + 100)
    assert layers["limits.sample_limit.calls"] == 2
    assert layers["limits.sample_limit.unique_ratio"] == 0.5  # closed form, same seed
    assert layers["io.dump_json.self_s"] > 0.0


def test_declared_metrics_match_benchmark_json():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert spec["command"][1] == "perfbench/run.py"


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ergodic_reps",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
