"""CSV / JSON serialization with deterministic, round-trippable output.

Every CSV goes through one writer, `write_rows_csv`, which writes each value
by str: for a float that is its repr (the shortest string that parses back to
the same double), so artifacts re-read bit-exactly and reruns with the same
seed are byte-identical.  Files are written atomically (temp file + rename),
and the temp file takes the umask as a plain open(dest, "w") would.
"""

from __future__ import annotations

import json
import os
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


def atomic_write_text(dest: str | Path, text: str) -> None:
    """Write text to dest through a temp file and a rename.  The temp file is
    created with mode 0o666, less the umask as the kernel applies it, so dest
    gets the mode open(dest, "w") gives a new file."""
    dest = Path(dest)
    tmp = dest.with_name(f"{dest.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
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
    dw = [""] * (path.n_steps + 1) if path.dw is None else [*path.dw.tolist(), ""]
    write_rows_csv(zip(path.t.tolist(), path.x.tolist(), path.v.tolist(), dw, strict=True),
                   dest, "t,x,v,dw")


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
    """The header, then one line per row, each value written by str.

    Rows must have one length.  Pass Python values (`tolist()`): str of a
    Python float is its repr, and of an int its digits."""
    columns = [map(str, col) for col in zip(*rows, strict=True)]
    lines = [header, *map(",".join, zip(*columns))]
    atomic_write_text(dest, "\n".join(lines) + "\n")
