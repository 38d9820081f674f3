"""Workload definitions: one `car2 experiment` config per workload and seed.

Every workload uses sigma = 1, (x0, dx0) = (0.3, -0.2), 8000 reference
draws and writes residuals.  The seed given to the benchmark becomes the
experiment's master seed, so the same seed gives the same inputs.
"""

from __future__ import annotations

_COMMON = {
    "command": "experiment",
    "comparison": "limit_sampler",
    "n_reference": 8000,
    "write_residuals": True,
}

WORKLOADS = {
    # 6,000 short paths: per-replication overhead and the per-rep
    # transition/eigh rebuild dominate; the limit law is closed form.
    "ergodic_reps": {
        "theta": (-3.0, -2.0),
        "horizons": [5, 10, 20],
        "n_reps": 2000,
        "steps_per_unit_time": 100,
        "normalization": "deterministic_rate",
    },
    # Brownian-grid limit sampler at grid_n 10,000, recomputed per horizon.
    "harmonic_limit": {
        "theta": (0.0, -1.0),
        "horizons": [5, 10, 20],
        "n_reps": 500,
        "steps_per_unit_time": 100,
        "normalization": "deterministic_rate",
        "grid_n": 10_000,
    },
    # 4k-8k-step paths: normal draws and lfilter dominate; matrix mode calls
    # scaling_matrix and the rotation per rep; reference draws depend on T.
    "unstable_long": {
        "theta": (0.5, -1.0625),
        "horizons": [4, 6, 8],
        "n_reps": 500,
        "steps_per_unit_time": 1000,
        "normalization": "matrix",
    },
}

# Workloads whose experiment wall_s and cpu_s are reported as measured, not
# scaled by the calibration kernel (run.py).  harmonic_limit's time is
# large-array numpy work spread over both vCPUs by the BLAS threads, which
# the host's CPU drift barely moves: over five runs on a 2-vCPU VM its raw
# wall time spread (IQR/median) 0.05 while the single-threaded kernel's time
# spread 0.22, so scaling by the kernel only added noise (0.11).
UNSCALED_EXPERIMENT = {"harmonic_limit"}


def make_config(workload: str, seed: int) -> dict:
    """The experiment config (as written to JSON) for a workload and seed."""
    spec = dict(WORKLOADS[workload])
    theta1, theta2 = spec.pop("theta")
    return {
        **_COMMON,
        **spec,
        "params": {"theta1": theta1, "theta2": theta2, "sigma": 1.0, "x0": 0.3, "dx0": -0.2},
        "seed": seed,
    }
