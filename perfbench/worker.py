"""One benchmark process: import car2.cli, optionally run one experiment.

Usage: python3 worker.py SRC_DIR JOB_JSON

The job file names `mode` ("import" or "experiment"), and for an experiment
`config`, `out` and `trace`; the worker writes its measurements to the job's
`result` file.  The launching process records the launch time, so the
import-done timestamp (CLOCK_MONOTONIC, shared across processes) gives the
set-up time.  Wall and CPU time cover only the `car2.cli.main` call.

Each launch also times a fixed numpy + Python calibration kernel, once after
the import (and, for an experiment, once more after `main`), so that the
launcher can express its times at a reference host speed.  The kernel uses
numpy only, which car2 has imported already, so it adds no import to the
process and moves no work out of the timed call.
"""

import sys
import time


CALIBRATION_CHUNKS = 5
CALIBRATION_ROUNDS = 200  # per chunk
CALIBRATION_SEED = 20120606


def calibrate():
    """[(wall s, CPU s of this thread)] of each chunk of a fixed kernel.

    Normal draws, a cumulative sum and a scalar Python loop: the mix that
    car2's replication loop spends its time on, at a fixed size.  The
    launcher takes the median over chunks, so a brief stall of the host
    does not count as a slow host.
    """
    import numpy

    rng = numpy.random.default_rng(CALIBRATION_SEED)
    chunks = []
    acc = 0.0
    for _ in range(CALIBRATION_CHUNKS):
        wall, cpu = time.perf_counter(), time.thread_time()
        for _ in range(CALIBRATION_ROUNDS):
            path = numpy.cumsum(rng.standard_normal(6000) * 0.01)
            acc += float(numpy.abs(path).max())
            for k in range(500):
                acc += (k * 0.5) % 3.0
        chunks.append((time.perf_counter() - wall, time.thread_time() - cpu))
    return chunks


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes
    import glob
    import os

    import numpy

    libs_dir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def main(src_dir, job_file):
    sys.path.insert(0, src_dir)
    import car2.cli

    imported_at = time.monotonic()

    import json
    import platform
    import resource

    import numpy
    import scipy

    with open(job_file) as handle:
        job = json.load(handle)
    result = {"imported_at": imported_at, "calibration": calibrate()}
    if job["mode"] == "experiment":
        entry = car2.cli.main
        tracer = None
        if job["trace"]:
            from tracer import ROOT, Tracer

            tracer = Tracer()
            tracer.install()
            entry = tracer.wrap(ROOT, entry)
        argv = ["experiment", "--config", job["config"], "--out", job["out"]]
        usage0 = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        exit_code = entry(argv)
        wall = time.perf_counter() - start
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            exit_code=exit_code,
            wall_s=wall,
            cpu_s=(usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
            peak_rss_mb=usage1.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
            spans=tracer.spans if tracer else None,
        )
        result["calibration"] += calibrate()
    result["versions"] = {"python": platform.python_version(), "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    result["blas_threads"] = _blas_threads()
    with open(job["result"], "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
