"""Benchmark of `car2 experiment` (car2.cli.main), end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload ergodic_reps --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

A run writes the workload's experiment config for --seed, then launches fresh
interpreters (worker.py), one experiment each, until --seconds have passed.
Every experiment's outputs are checked (checks.py); a mismatch fails the run
and no metrics are reported.

Every metric is the median over the run's launches.  setup_s, and wall_s
and cpu_s except on the workloads in workloads.UNSCALED_EXPERIMENT, are in
reference seconds: each launch times a fixed calibration kernel
(worker.calibrate) and its times are scaled by CALIBRATION_REF_S over the
kernel's median chunk time in that launch, which takes out the drift of a
shared host's CPU speed.  The raw times are kept in the full record.

--trace 0 reports the end-to-end metrics.  Set-up time also comes from extra
import-only launches, so that every run has at least MIN_SETUP_SAMPLES.
--trace 1 runs untraced/traced pairs instead and reports per-layer metrics
from spans recorded at car2's module boundaries (tracer.py), plus import
times from `python -X importtime` and the calibration kernel's time, which
tells how fast the host ran; per-layer times are not scaled.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the line before it is the environment stamp.  The full
record also goes to .perfbench/results/ under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from checks import DEFAULT_SEED, RunOutputs, check_outputs, count_failures, load_expected
from tracer import ROOT, layer_table, self_times
from workloads import UNSCALED_EXPERIMENT, WORKLOADS, make_config

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
MIN_SETUP_SAMPLES = 5
RUN_DEADLINE_S = 175.0  # every launch must end within this much of the start

# On a shared host, other tenants slow the CPU by up to 1.6x, in spells of
# seconds to minutes; a run's median cannot remove a spell longer than the
# run, and ten runs of one workload spread by up to 0.3 (IQR/median).  Every
# launch times chunks of worker.calibrate's fixed kernel, and times are
# reported as measured x CALIBRATION_REF_S / median chunk time: seconds at the
# host speed at which a chunk takes CALIBRATION_REF_S (about its time on the
# 2-vCPU VM that BENCH_baseline.json was measured on).
CALIBRATION_REF_S = 0.04

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "rep_ok_share": "ratio",
}

# span name -> fields reported as per-layer metrics "<span>.<field>"
SPAN_FIELDS = {
    "model.transition": ("calls", "self_s"),
    "model.fundamental_solutions": ("calls", "self_s"),
    "simulate.simulate": ("calls", "self_s", "failed"),
    "estimate.estimate_path": ("calls", "self_s", "failed"),
    "estimate.sufficient_stats": ("calls", "self_s"),
    "regimes.rate_functions": ("calls", "self_s"),
    "regimes.scaling_matrix": ("calls", "self_s"),
    "limits.sample_limit": ("calls", "self_s"),
    "limits.brownian_functionals": ("calls", "self_s"),
    "montecarlo.ks_two_sample": ("calls", "self_s"),
    "montecarlo.run_experiment": ("self_s",),
    "io.dump_json": ("self_s",),
    "io.atomic_write_text": ("self_s",),
    ROOT: ("self_s",),
}
FIELD_UNITS = {"calls": "count", "self_s": "s", "failed": "count"}
PER_LAYER = {
    **{f"{span}.{field}": FIELD_UNITS[field]
       for span, fields in SPAN_FIELDS.items() for field in fields},
    "simulate.normals": "count",
    "limits.sample_limit.unique_ratio": "ratio",
    "limits.bm_normals": "count",
    "limits.bm_bytes": "B",
    "setup.import.car2_s": "s",
    "setup.import.scipy_signal_s": "s",
    "setup.import.scipy_integrate_s": "s",
    "setup.import.jsonschema_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "host.calibration_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not an output mismatch)."""


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


class WorkloadRun:
    """Launches of one workload at one seed, with their checks and tallies."""

    def __init__(self, root: Path, name: str, config: dict, expected: dict | None):
        """`expected` maps artifact names to SHA-256 digests, or is None."""
        self.started = time.monotonic()
        self.root, self.src = root, root / "src"
        self.config, self.expected = config, expected
        scratch = root / ".perfbench" / "tmp"
        scratch.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
        self.config_file = self.tmp / "config.json"
        self.config_file.write_text(json.dumps(self.config))
        self.launches = 0
        self.setup = []  # every launch's result, for set-up time
        self.attempted = self.failed = 0
        self.problems = []
        self.digests = None
        self.worker_info = {}

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def remaining(self) -> float:
        return max(1.0, RUN_DEADLINE_S - (time.monotonic() - self.started))

    def _launch(self, job: dict) -> dict | None:
        index = self.launches
        self.launches += 1
        job_file = self.tmp / f"job{index}.json"
        job["result"] = str(self.tmp / f"result{index}.json")
        job_file.write_text(json.dumps(job))
        launched = time.monotonic()
        proc = subprocess.run([sys.executable, str(WORKER), str(self.src), str(job_file)],
                              cwd=self.root, capture_output=True, text=True,
                              timeout=self.remaining())
        result_file = Path(job["result"])
        if proc.returncode != 0 or not result_file.is_file():
            self.problems.append(f"worker exited with code {proc.returncode}: "
                                 f"{proc.stderr.strip()[-2000:]}")
            return None
        result = json.loads(result_file.read_text())
        wall, cpu = zip(*result["calibration"])
        result["calibration_s"] = statistics.median(wall)
        result["scale"] = CALIBRATION_REF_S / statistics.median(wall)
        result["cpu_scale"] = CALIBRATION_REF_S / statistics.median(cpu)
        result["setup_s"] = result["imported_at"] - launched
        self.setup.append(result)
        self.worker_info = {"versions": result["versions"],
                            "blas_threads": result["blas_threads"]}
        return result

    def probe_setup(self):
        self._launch({"mode": "import"})

    def experiment(self, trace: bool) -> dict | None:
        """One checked experiment; None when it failed or its outputs are wrong."""
        out = self.tmp / f"out{self.launches}"
        result = self._launch({"mode": "experiment", "trace": trace,
                               "config": str(self.config_file), "out": str(out)})
        outputs = RunOutputs.read(None if result is None else result["exit_code"], out)
        shutil.rmtree(out, ignore_errors=True)
        attempted, failed = count_failures(outputs, self.config)
        self.attempted += attempted
        self.failed += failed
        if result is None:
            return None
        problems = check_outputs(outputs, self.config, self.expected)
        digests = outputs.digests()
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            problems.append(f"outputs differ between repeats: {digests} vs {self.digests}")
        self.problems.extend(problems)
        return None if problems else result

    def import_times(self) -> dict:
        """Per-module import times (s) from `python -X importtime`."""
        code = f"import sys; sys.path.insert(0, {str(self.src)!r}); import car2.cli"
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              cwd=self.root, capture_output=True, text=True,
                              timeout=self.remaining())
        if proc.returncode != 0:
            raise BenchError(f"import probe failed: {proc.stderr.strip()[-2000:]}")
        own, cumulative = {}, {}
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if not line.startswith("import time:") or not fields[0].strip().isdigit():
                continue
            name = fields[2].strip()
            own[name] = int(fields[0]) / 1e6
            cumulative[name] = int(fields[1]) / 1e6
        return {
            "setup.import.car2_s": cumulative.get("car2.cli", 0.0),
            "setup.import.scipy_signal_s": cumulative.get("scipy.signal", 0.0),
            # scipy.integrate's own line can be missing when another scipy
            # module loads it; its submodules' self times still add up.
            "setup.import.scipy_integrate_s": sum(
                t for name, t in own.items()
                if name == "scipy.integrate" or name.startswith("scipy.integrate.")),
            "setup.import.jsonschema_s": cumulative.get("jsonschema", 0.0),
        }


def _until(deadline, step):
    """Call step() until the deadline passes (at least once) or it fails."""
    samples = []
    while not samples or time.monotonic() < deadline:
        sample = step()
        if sample is None:
            break
        samples.append(sample)
    return samples


def measure_end_to_end(bench: WorkloadRun, seconds: float, scaled: bool):
    """End-to-end metrics; `scaled` says whether wall_s and cpu_s are scaled."""
    deadline = time.monotonic() + seconds
    runs = _until(deadline, lambda: bench.experiment(trace=False))
    while not bench.problems and len(bench.setup) < MIN_SETUP_SAMPLES:
        bench.probe_setup()
    if bench.problems:
        return None, {}
    samples = {
        "wall_s": [r["wall_s"] * (r["scale"] if scaled else 1.0) for r in runs],
        "setup_s": [r["setup_s"] * r["scale"] for r in bench.setup],
        "cpu_s": [r["cpu_s"] * (r["cpu_scale"] if scaled else 1.0) for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    samples.update({
        "raw.wall_s": [r["wall_s"] for r in runs],
        "raw.setup_s": [r["setup_s"] for r in bench.setup],
        "raw.cpu_s": [r["cpu_s"] for r in runs],
        "calibration_s": [r["calibration_s"] for r in bench.setup],
    })
    metrics["rep_ok_share"] = 1.0 - bench.failed / bench.attempted
    return metrics, samples


def _per_layer(table: dict) -> dict:
    def row(span):  # a span never entered has no row
        return table.get(span, {})

    values = {f"{span}.{field}": row(span).get(field, 0)
              for span, fields in SPAN_FIELDS.items() for field in fields}
    calls = row("limits.sample_limit").get("calls", 0)
    values["limits.sample_limit.unique_ratio"] = (
        row("limits.sample_limit").get("unique", 0) / calls if calls else 0.0)
    values["simulate.normals"] = row("simulate.simulate").get("normals", 0)
    values["limits.bm_normals"] = row("limits.brownian_functionals").get("bm_normals", 0)
    values["limits.bm_bytes"] = 8 * values["limits.bm_normals"]  # float64 increments
    return values


def measure_per_layer(bench: WorkloadRun, seconds: float):
    imports = bench.import_times()
    deadline = time.monotonic() + seconds

    def pair():
        plain = bench.experiment(trace=False)
        traced = plain and bench.experiment(trace=True)
        return (plain, traced) if traced else None

    pairs = _until(deadline, pair)
    if bench.problems:
        return None, {}
    traced_wall = statistics.median(t["wall_s"] for _, t in pairs)
    # Each pair ran back to back, so its difference carries little of the
    # host's drift; it can still read below 0 when the drift is larger.
    overhead = statistics.median(t["wall_s"] - p["wall_s"] for p, t in pairs)
    layers = []
    for _, traced in pairs:
        spans = traced["spans"]
        self_sum = sum(self_times(spans))
        # Every span nests under the root span, so self times add up to the
        # traced wall time, up to the root wrapper's own cost.
        if abs(self_sum - traced["wall_s"]) > max(overhead, 1e-3):
            bench.problems.append(f"span self times sum to {self_sum:.6f} s, traced wall "
                                    f"{traced['wall_s']:.6f} s, overhead {overhead:.6f} s")
        layers.append(_per_layer(layer_table(spans)))
    metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    metrics.update(imports)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = overhead
    metrics["host.calibration_s"] = statistics.median(r["calibration_s"] for r in bench.setup)
    samples = {"wall_s": [p["wall_s"] for p, _ in pairs],
               "trace.wall_s": [t["wall_s"] for _, t in pairs]}
    return (None, samples) if bench.problems else (metrics, samples)


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def _src_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "car2").rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(root: Path, seed: int, worker_info: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": worker_info.get("blas_threads"),
        **worker_info.get("versions", {}),  # python, numpy, scipy
        "git_commit": _git_commit(root),
        "src_sha256": _src_digest(root / "src"),
        "seed": seed,
    }


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    expected = load_expected()[workload] if seed == DEFAULT_SEED else None
    bench = WorkloadRun(root, workload, make_config(workload, seed), expected)
    try:
        if trace:
            metrics, samples = measure_per_layer(bench, seconds)
        else:
            metrics, samples = measure_end_to_end(bench, seconds,
                                                  workload not in UNSCALED_EXPERIMENT)
    finally:
        bench.close()
    units = PER_LAYER if trace else END_TO_END
    return {
        "workload": workload,
        "trace": trace,
        "env": environment(root, seed, bench.worker_info),
        "correct": metrics is not None,
        "problems": bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()} if metrics else {},
        "samples": samples,
    }


def _print_table(record: dict):
    print(f"== {record['workload']} (trace {int(record['trace'])}): "
          f"{record['attempted']} replications attempted, {record['failed']} failed")
    for problem in record["problems"]:
        print(f"MISMATCH: {problem}", file=sys.stderr)
    rows = {name: f"{metric['value']:.6g} {metric['unit']}"
            for name, metric in record["metrics"].items()}
    rows.update({name: "(not a metric)" for name in record["samples"] if name not in rows})
    for name, value in rows.items():
        line = f"  {name:40s} {value}"
        values = record["samples"].get(name)
        if values:
            q1, q3 = _quartiles(values)
            line += (f"  ({len(values)} samples: min {min(values):.6g}, q1 {q1:.6g}, "
                     f"median {statistics.median(values):.6g}, q3 {q3:.6g})")
        print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "car2" / "cli.py").is_file():
        print(f"error: no car2 sources under {root / 'src'}", file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    try:
        for workload in workloads:
            record = run_workload(root, workload, args.seed, args.seconds, bool(args.trace))
            _print_table(record)
            records.append(record)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps(records, indent=2))

    correct = all(r["correct"] for r in records)
    metrics = {}
    for record in records:
        prefix = f"{record['workload']}." if len(records) > 1 else ""
        metrics.update({prefix + name: m for name, m in record["metrics"].items()})
    print("env " + json.dumps(records[0]["env"], sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
