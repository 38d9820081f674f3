"""CSV / JSON serialization with deterministic, round-trippable output.

Floats are written with repr (shortest string that parses back to the same
double), so artifacts re-read bit-exactly and reruns with the same seed are
byte-identical.  Files are written atomically (temp file + rename).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .model import ModelParams
from .simulate import SamplePath

__all__ = [
    "atomic_write_text",
    "dump_json",
    "write_path_csv",
    "read_path_csv",
    "write_rows_csv",
]


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else repr(float(value))


def atomic_write_text(dest: str | Path, text: str) -> None:
    """Write text to dest through a temp file and a rename.  dest gets the
    mode open(dest, "w") gives a new file, 0o666 less the umask, where the
    temp file alone would be 0o600."""
    dest = Path(dest)
    umask = os.umask(0o077)  # the umask is read by setting it; put it back
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=dest.parent, prefix=dest.name, suffix=".tmp")
    try:
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, dest)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dump_json(obj, dest: str | Path) -> None:
    atomic_write_text(dest, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_path_csv(path: SamplePath, dest: str | Path) -> None:
    """Header t,x,v,dw; dw sits on the row of its step's left endpoint."""
    lines = ["t,x,v,dw"]
    n = path.n_steps
    for i in range(n + 1):
        dw = _fmt(path.dw[i]) if (path.dw is not None and i < n) else ""
        lines.append(f"{_fmt(path.t[i])},{_fmt(path.x[i])},{_fmt(path.v[i])},{dw}")
    atomic_write_text(dest, "\n".join(lines) + "\n")


def read_path_csv(src: str | Path, params: ModelParams) -> SamplePath:
    """Rebuild a SamplePath from CSV plus its model parameters.

    The estimator assumes t_i = i*T/n, so any other t column is a ValueError.
    """
    with open(src) as handle:
        header = handle.readline().strip()
        if header != "t,x,v,dw":
            raise ValueError(f"unexpected CSV header {header!r}")
        t, x, v, dw = [], [], [], []
        for line in handle:
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 4:
                raise ValueError(f"malformed CSV row {line!r}")
            t.append(float(fields[0]))
            x.append(float(fields[1]))
            v.append(float(fields[2]))
            dw.append(fields[3])
    t = np.array(t)
    n = t.size - 1
    if n < 1 or t[0] != 0.0 or not (
            np.abs(t - np.linspace(0.0, t[-1], n + 1)).max() < 1e-9 * t[-1]):
        raise ValueError("t column must be the uniform grid 0, T/n, 2T/n, ..., T")
    noise_fields = dw[:-1]
    if all(f == "" for f in noise_fields):
        dw_arr = None
    elif all(f != "" for f in noise_fields) and dw[-1] == "":
        dw_arr = np.array([float(f) for f in noise_fields])
    else:
        raise ValueError("dw column must be all empty or filled on every step row")
    return SamplePath(t=t, x=np.array(x), v=np.array(v), dw=dw_arr,
                      sigma=params.sigma, params=params)


def write_rows_csv(rows, dest: str | Path, header: str) -> None:
    """The header, then one line per row: ints via str, others as float reprs.

    Rows must have one length.  A column of Python ints, floats and bools is
    written by str, which gives `_fmt`'s text for them; any other column
    (numpy scalars) by `_fmt`."""
    columns = [list(map(str if {int, float, bool}.issuperset(map(type, col)) else _fmt, col))
               for col in zip(*rows, strict=True)]
    lines = [header, *map(",".join, zip(*columns))]
    atomic_write_text(dest, "\n".join(lines) + "\n")
