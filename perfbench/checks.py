"""Output checks and replication-failure accounting for one experiment run.

For the default seed, report.json and residuals.csv must match the SHA-256
hashes in expected.json byte for byte.  For any seed, the report must be
consistent with its config: every residual finite, n_used + n_excluded =
n_reps per horizon, one residual row per used replication and each KS
statistic in [0, 1].
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

EXPECTED_FILE = Path(__file__).with_name("expected.json")
DEFAULT_SEED = 0
ARTIFACTS = ("report.json", "residuals.csv")


@dataclass
class RunOutputs:
    """What one `car2 experiment` process left behind."""

    exit_code: int | None
    files: dict[str, bytes]  # artifact name -> bytes, for those that exist

    @classmethod
    def read(cls, exit_code, out_dir):
        out_dir = Path(out_dir)
        files = {name: (out_dir / name).read_bytes()
                 for name in ARTIFACTS if (out_dir / name).is_file()}
        return cls(exit_code, files)

    def report(self):
        return json.loads(self.files["report.json"])

    def residual_rows(self):
        """[(rep, T, r1, r2)] from residuals.csv."""
        lines = self.files["residuals.csv"].decode().splitlines()
        if lines[0] != "rep,T,r1,r2":
            raise ValueError(f"unexpected residuals header {lines[0]!r}")
        rows = []
        for line in lines[1:]:
            rep, horizon, r1, r2 = line.split(",")
            rows.append((int(rep), float(horizon), float(r1), float(r2)))
        return rows

    def digests(self):
        return {name: hashlib.sha256(data).hexdigest() for name, data in self.files.items()}


def count_failures(outputs: RunOutputs, config: dict) -> tuple[int, int]:
    """(attempted, failed) replications of one run.

    Attempted is n_reps per horizon.  Failed counts excluded replications
    and residual rows that are not finite; a non-zero exit fails them all.
    """
    attempted = config["n_reps"] * len(config["horizons"])
    if outputs.exit_code != 0 or set(outputs.files) != set(ARTIFACTS):
        return attempted, attempted
    excluded = sum(h["n_excluded"] for h in outputs.report()["horizons"])
    not_finite = sum(1 for _, _, r1, r2 in outputs.residual_rows()
                     if not (math.isfinite(r1) and math.isfinite(r2)))
    return attempted, min(attempted, excluded + not_finite)


def load_expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text())


def check_outputs(outputs: RunOutputs, config: dict, expected: dict | None) -> list[str]:
    """Problems found in one run's outputs; empty when they are correct.

    `expected` maps artifact names to SHA-256 hex digests (default seed).
    """
    if outputs.exit_code != 0:
        return [f"car2 experiment exited with code {outputs.exit_code}"]
    missing = [name for name in ARTIFACTS if name not in outputs.files]
    if missing:
        return [f"missing artifacts: {', '.join(missing)}"]
    problems = []
    if expected is not None:
        for name, digest in outputs.digests().items():
            if digest != expected[name]:
                problems.append(f"{name}: sha256 {digest} != expected {expected[name]}")
    report, rows = outputs.report(), outputs.residual_rows()
    horizons = [h["horizon"] for h in report["horizons"]]
    if horizons != [float(T) for T in config["horizons"]]:
        problems.append(f"report horizons {horizons} != config {config['horizons']}")
    for h in report["horizons"]:
        T = h["horizon"]
        if h["n_used"] + h["n_excluded"] != config["n_reps"]:
            problems.append(f"T={T}: n_used {h['n_used']} + n_excluded {h['n_excluded']} "
                            f"!= n_reps {config['n_reps']}")
        n_rows = sum(1 for row in rows if row[1] == T)
        if n_rows != h["n_used"]:
            problems.append(f"T={T}: {n_rows} residual rows for n_used {h['n_used']}")
        for key in ("ks1", "ks2"):
            if h[key] is not None and not 0.0 <= h[key] <= 1.0:
                problems.append(f"T={T}: {key} = {h[key]} outside [0, 1]")
    bad = [row for row in rows if not (math.isfinite(row[2]) and math.isfinite(row[3]))]
    if bad:
        problems.append(f"{len(bad)} non-finite residual rows, first {bad[0]}")
    return problems
