"""Span recorder wrapped around car2's module boundaries.

`install` replaces each boundary function, at every module attribute through
which car2 calls it, with a wrapper that records a span: name, start, end,
parent span and whether the call raised.  Spans stay in memory; the worker
writes them out when the run ends.  `layer_table` turns them into per-layer
counts and self times (span duration minus the part covered by child spans).
"""

from __future__ import annotations

import functools
import hashlib
import importlib
from time import perf_counter

# Work counts computed from a boundary's arguments or result; they depend on
# what was asked for, not on how the layer does it.


def _normals_per_path(args, kwargs, result):
    # the exact scheme draws a (dW, X-noise, X'-noise) triple per step
    return {"normals": 3 * args[1].n_steps}


def _bm_normals(args, kwargs, result):
    names = ("grid_n", "seed", "two_bm", "n_draws")
    bound = {**dict(zip(names, args)), **kwargs}
    per_path = 2 if bound.get("two_bm", False) else 1
    return {"bm_normals": per_path * bound["grid_n"] * bound.get("n_draws", 1)}


def _draws_digest(args, kwargs, result):
    digest = hashlib.sha256(result.l1.tobytes() + result.l2.tobytes()).hexdigest()
    return {"digest": digest}


# span name -> (patch sites as (module, attribute), work-count hook)
BOUNDARIES = {
    "montecarlo.run_experiment": ([("car2.cli", "run_experiment")], None),
    "montecarlo.ks_two_sample": ([("car2.montecarlo", "ks_two_sample")], None),
    "simulate.simulate": ([("car2.montecarlo", "simulate")], _normals_per_path),
    "model.transition": ([("car2.simulate", "transition")], None),
    "model.fundamental_solutions": ([("car2.simulate", "fundamental_solutions"),
                                     ("car2.model", "fundamental_solutions")], None),
    "estimate.estimate_path": ([("car2.montecarlo", "estimate_path")], None),
    "estimate.sufficient_stats": ([("car2.estimate", "sufficient_stats"),
                                   ("car2.montecarlo", "sufficient_stats")], None),
    "regimes.rate_functions": ([("car2.montecarlo", "rate_functions")], None),
    "regimes.scaling_matrix": ([("car2.montecarlo", "scaling_matrix")], None),
    "limits.sample_limit": ([("car2.montecarlo", "sample_limit")], _draws_digest),
    "limits.brownian_functionals": ([("car2.limits", "brownian_functionals")], _bm_normals),
    "io.dump_json": ([("car2.cli", "dump_json")], None),
    "io.atomic_write_text": ([("car2.io", "atomic_write_text")], None),
}

ROOT = "cli.main"


class Tracer:
    """In-memory span list; one instance per traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, raised, work]
        self._stack = []

    def wrap(self, name, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, False, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if work is not None:
                span[5] = work(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every boundary at each site where car2 looks it up."""
        for name, (sites, work) in BOUNDARIES.items():
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                if hasattr(module, attr):
                    setattr(module, attr, self.wrap(name, getattr(module, attr), work))


def _covered(start, end, children):
    """Length of [start, end] covered by the (disjoint) child intervals."""
    return sum(max(0.0, min(end, c_end) - max(start, c_start)) for c_start, c_end in children)


def self_times(spans):
    """Per-span self time: duration minus the child-covered part."""
    children = [[] for _ in spans]
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - _covered(start, end, kids)
            for (name, start, end, *_), kids in zip(spans, children)]


def layer_table(spans):
    """{span name: {calls, self_s, failed, <work counts>, unique}} over all spans."""
    table = {}
    digests = {}
    for span, self_s in zip(spans, self_times(spans)):
        name, raised, work = span[0], span[4], span[5]
        row = table.setdefault(name, {"calls": 0, "self_s": 0.0, "failed": 0})
        row["calls"] += 1
        row["self_s"] += self_s
        row["failed"] += int(raised)
        for key, value in (work or {}).items():
            if key == "digest":
                digests.setdefault(name, set()).add(value)
            else:
                row[key] = row.get(key, 0) + value
    for name, seen in digests.items():
        table[name]["unique"] = len(seen)
    return table
