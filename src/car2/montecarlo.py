"""Replication harness: simulate, estimate, normalize, compare to theory.

An experiment runs n_reps exact-scheme replications per horizon, normalizes
the estimation residuals by the regime's deterministic rates, by the random
NLRR rates, or by the matrix normalization A_T Psi_T, and compares the
empirical law against either the regime's limit sampler or a prescribed
normal law via the two-sample Kolmogorov-Smirnov statistic, which is None
(null) unless every residual of its coordinate is finite.  Artifacts write
NaN quantiles and convergence medians as null.

ExperimentConfig applies every rule of a run when it is built.  Limit-sampler
draws are shared by every horizon of one law: they record the horizon their
law read (None for a law free of T).  NormalReference draws come from a
stream keyed by the horizon index and stay per horizon.

Replication k's path at a shorter horizon is, on an equal step, the prefix
of its path at a longer one, bit for bit.  So the horizons are split into
nesting groups, and each group simulates its replications once, at its
longest horizon, with the block kernel `simulate_exact` (which builds the
transition kernel once and simulates rows in blocks of at most 256
replications, fewer where a fixed element budget binds first, filling the
next block on a worker thread).  Each member horizon sums its prefix of
every row into its own columns as each slice arrives (a view, which the
next block's turn overwrites), and the rotated solve runs once per horizon,
bit for bit as `estimate_path` on each path alone; then, in one place, it
excludes the rows that left float64 by it and the singular designs.  A
horizon that nests in no other is a group of one.  The surviving rows are
normalized as columns by `regimes.normalized_residuals`, with the rates and
A_T evaluated once per horizon.

Everything is deterministic given the master seed: replication k draws from
a stream keyed (seed, k) regardless of execution order, and reports carry
no volatile fields except wall_time_s, which is excluded from artifacts.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import estimate, limits, regimes, rng
from .estimate import _map_rows
from .limits import sample_limit
from .model import ModelParams, Regime, _branch, char_roots, check_number, classify_params
from .regimes import NORMALIZATIONS, normalized_residuals, rate_functions
from .simulate import simulate_exact

__all__ = [
    "NormalReference",
    "ExperimentConfig",
    "HorizonResult",
    "ExperimentReport",
    "ConvergenceRow",
    "ConvergenceReport",
    "run_experiment",
    "ks_two_sample",
    "convergence_study",
]

QUANTILE_LEVELS = (1, 5, 10, 25, 50, 75, 90, 95, 99)

# convergence_study: bounds of the consecutive-horizon normalized-median ratios
RATIO_BAND = (1.0 / 3.0, 3.0)


@dataclass(frozen=True)
class NormalReference:
    """Reference limit N(mean_i, var_i) per coordinate; coordinate 2 optional."""

    mean1: float
    var1: float
    mean2: float | None = None
    var2: float | None = None

    def __post_init__(self):
        for name in ("mean1", "var1", "mean2", "var2"):
            value = getattr(self, name)
            if value is not None or name in ("mean1", "var1"):
                check_number(name, value)
        if self.var1 < 0 or (self.var2 is not None and self.var2 < 0):
            raise ValueError("reference variances must be >= 0")
        if self.var2 is not None and self.mean2 is None:
            raise ValueError("var2 needs mean2")


def _check_int(name: str, value, minimum: int) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


@dataclass(frozen=True)
class ExperimentConfig:
    params: ModelParams
    horizons: tuple[float, ...]
    n_reps: int
    seed: int
    steps_per_unit_time: int = 100
    normalization: str = "deterministic_rate"
    comparison: NormalReference | str = "limit_sampler"  # or "none"
    n_reference: int = 8000
    grid_n: int = 10_000
    regime: Regime = field(init=False, repr=False, compare=False)  # classify_params(params)

    def __post_init__(self):
        for T in self.horizons:
            check_number("horizons", T)
        horizons = tuple(float(T) for T in self.horizons)
        object.__setattr__(self, "horizons", horizons)
        if not horizons or any(T <= 0 for T in horizons):
            raise ValueError("horizons must be positive")
        if any(a >= b for a, b in zip(horizons, horizons[1:])):
            raise ValueError("horizons must be strictly increasing")
        _check_int("n_reps", self.n_reps, 2)
        _check_int("seed", self.seed, 0)
        rng.check_seed(self.seed)
        _check_int("steps_per_unit_time", self.steps_per_unit_time, 1)
        _check_int("n_reference", self.n_reference, 1)
        _check_int("grid_n", self.grid_n, 2)
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"normalization must be one of {NORMALIZATIONS}")
        if not (isinstance(self.comparison, NormalReference)
                or self.comparison in ("limit_sampler", "none")):
            raise ValueError("comparison must be 'limit_sampler', 'none', or a NormalReference")
        if self.normalization == "nlrr" and self.comparison == "limit_sampler":
            raise ValueError("nlrr normalization needs a NormalReference (or 'none') comparison")
        object.__setattr__(self, "regime", classify_params(self.params))
        if self.normalization == "nlrr":
            regimes.check_scalar_nlrr(self.regime)
        if self.comparison == "limit_sampler":
            limits.check_limit_law(self.regime, self.params, self.grid_n)

    @classmethod
    def from_dict(cls, raw: dict) -> ExperimentConfig:
        """Build a config from its JSON form (params and a normal comparison
        as objects).

        Raises ValueError for any invalid config: an unknown or missing key,
        a value of the wrong type, a value out of range, or a normalization
        or limit law that the regime does not have.
        """
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        fields = dict(raw)
        try:
            if "params" in fields:
                fields["params"] = ModelParams(**fields["params"])
            if isinstance(fields.get("comparison"), dict):
                fields["comparison"] = NormalReference(**fields["comparison"])
            return cls(**fields)
        except TypeError as exc:
            raise ValueError(f"invalid config: {exc}") from exc


class HorizonResult(NamedTuple):
    horizon: float
    n_steps: int
    n_used: int
    n_excluded: int
    reps: np.ndarray  # replication indices that survived
    r1: np.ndarray
    r2: np.ndarray  # may contain nan when the coordinate has no normalization
    quantiles1: dict[int, float]
    quantiles2: dict[int, float]
    ks1: float | None  # None without a reference or with a non-finite residual
    ks2: float | None
    reference_reused: bool  # limit draws shared with an earlier horizon
    simulated_at: float  # the horizon whose simulation the rows are prefixes of
    excluded_overflow: int  # simulation left the float64 range
    excluded_singular: int  # singular design in the rotated solve
    first_excluded_rep: int | None


class ExperimentReport(NamedTuple):
    regime: str
    normalization: str
    comparison: str
    seed: int
    n_reps: int
    steps_per_unit_time: int
    results: list[HorizonResult]
    wall_time_s: float = 0.0

    def to_artifact_dict(self) -> dict:
        """JSON-ready dict; excludes wall time so reruns are byte-identical."""
        return {
            "regime": self.regime,
            "normalization": self.normalization,
            "comparison": self.comparison,
            "seed": self.seed,
            "n_reps": self.n_reps,
            "steps_per_unit_time": self.steps_per_unit_time,
            "horizons": [
                {
                    "horizon": res.horizon,
                    "n_steps": res.n_steps,
                    "n_used": res.n_used,
                    "n_excluded": res.n_excluded,
                    "ks1": res.ks1,
                    "ks2": res.ks2,
                    "quantiles1": {str(k): _finite(v) for k, v in res.quantiles1.items()},
                    "quantiles2": {str(k): _finite(v) for k, v in res.quantiles2.items()},
                }
                for res in self.results
            ],
        }

    def residual_rows(self):
        """Rows (rep, T, r1, r2) for the raw-residual CSV."""
        for res in self.results:
            for k, a, b in zip(res.reps.tolist(), res.r1.tolist(), res.r2.tolist()):
                yield k, res.horizon, a, b


def _finite(value: float) -> float | None:
    return value if math.isfinite(value) else None


def ks_two_sample(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic; NaN if a sample holds NaN.

    The float operations of scipy.stats.ks_2samp's statistic, without its
    p-value: both empirical CDFs at every point of the two samples.
    """
    a, b = np.sort(a), np.sort(b)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    if np.isnan(a).any() or np.isnan(b).any():
        return math.nan
    both = np.concatenate([a, b])
    d = (np.searchsorted(a, both, side="right") / a.size
         - np.searchsorted(b, both, side="right") / b.size)
    return float(np.abs(d).max())


def _reference_samples(cfg: ExperimentConfig, horizon_index: int, horizon: float,
                       limit_draws: list):
    """Reference draws (ref1, ref2, reused) for one horizon.

    A NormalReference is drawn afresh from the stream of horizon_index.
    Limit-sampler draws are kept in limit_draws, and a later horizon reuses
    any whose law read no horizon or this one, bit for bit; reused says
    whether it did.
    """
    if cfg.comparison == "none":
        return None, None, False
    if isinstance(cfg.comparison, NormalReference):
        ref = cfg.comparison
        gen = rng.stream(cfg.seed, rng.DOMAIN_REFERENCE, horizon_index)
        ref1 = ref.mean1 + math.sqrt(ref.var1) * gen.standard_normal(cfg.n_reference)
        ref2 = (None if ref.var2 is None
                else ref.mean2 + math.sqrt(ref.var2) * gen.standard_normal(cfg.n_reference))
        return ref1, ref2, False
    for draws in limit_draws:
        if draws.horizon in (None, horizon):
            return draws.l1, draws.l2, True
    draws = sample_limit(cfg.regime, cfg.params, cfg.n_reference, grid_n=cfg.grid_n,
                         seed=cfg.seed, horizon=horizon)
    limit_draws.append(draws)
    return draws.l1, draws.l2, False


def _quantiles(values: np.ndarray) -> dict[int, float]:
    """The finite values' QUANTILE_LEVELS percentiles (NaN if there are none)
    by Hyndman & Fan's definition 7, bit for bit np.percentile's "linear"
    method, whose np.unique imports numpy.ma at every run: the same virtual
    index (n-1) q, the same partition kth (so ties and signed zeros land
    where numpy puts them) and the same two-branch lerp."""
    finite = values[np.isfinite(values)]
    n = finite.size
    if n == 0:
        return {lev: math.nan for lev in QUANTILE_LEVELS}
    picks = []  # (virtual index, lower, upper); -1, the largest, from index n-1 on
    for lev in QUANTILE_LEVELS:
        index = (n - 1) * (lev / 100)
        lower = -1 if index >= n - 1 else math.floor(index)
        picks.append((index, lower, -1 if lower == -1 else lower + 1))
    finite.partition(sorted({0, -1}.union(*(pick[1:] for pick in picks))))
    out = {}
    for lev, (index, lower, upper) in zip(QUANTILE_LEVELS, picks):
        a, b, gamma = finite[lower].item(), finite[upper].item(), index - lower
        diff = b - a
        out[lev] = b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma
    return out


def _median(values: np.ndarray) -> float:
    """Bit for bit np.median, whose NaN check imports numpy.ma at every run:
    the same partition kth, the mean of the middle value or pair (ndarray.mean
    sums from +0.0, so a middle -0.0 gives 0.0), and NaN if any value is NaN
    (the partition puts it last); NaN for no values, without the warning."""
    n = values.size
    if n == 0:
        return math.nan
    middle = slice((n - 1) // 2, n // 2 + 1)
    part = np.partition(values, [*range(middle.start, middle.stop), -1])
    return math.nan if math.isnan(part[-1]) else part[middle].mean().item()


def _nesting_groups(cfg: ExperimentConfig, n_steps: list[int]) -> list[list[int]]:
    """cfg.horizons' indices, split into groups whose paths are prefixes of
    the path at the group's last (longest) horizon, bit for bit.

    (T, n) nests in (T', n') when linspace(0, T, n + 1) is the first n + 1
    points of linspace(0, T', n' + 1) (so the transition kernel is built for
    the same step: point 1 is T/n, as n >= 2) and the mean path takes the
    same `fundamental_solutions` branch.  A horizon that nests in no longer
    one is a group of its own.
    """
    roots = char_roots(cfg.params)
    groups = []
    for i in reversed(range(len(cfg.horizons))):
        T, n = cfg.horizons[i], n_steps[i]
        for group in groups:
            T_long, n_long = cfg.horizons[group[-1]], n_steps[group[-1]]
            if (_branch(roots, T) == _branch(roots, T_long)
                    and np.array_equal(np.linspace(0.0, T, n + 1),
                                       np.linspace(0.0, T_long, n_long + 1)[:n + 1])):
                group.insert(0, i)
                break
        else:
            groups.append([i])
    return groups


def _replicate(cfg: ExperimentConfig):
    """Simulate and estimate the n_reps exact paths of every horizon, one
    simulation per nesting group.  Each slice is summed here as
    `simulate_exact` yields it, while its worker thread fills the next
    block, and dropped: its rows are views of a buffer that is refilled.

    Yields, per horizon in order, (n_steps, the surviving rows' Estimate in
    replication order, each replication's status, the horizon simulated).
    The status is "overflow" (the path left float64 by the horizon), else
    "singular" (the design is singular), else "ok"; every row is summed, and
    the statuses are decided after the solve.  Only "ok" replications have a row.
    """
    n_steps = [max(2, round(T * cfg.steps_per_unit_time)) for T in cfg.horizons]
    cols = [[] for _ in cfg.horizons]  # per horizon, each block's columns
    n_finite, simulated_at = {}, {}
    for group in _nesting_groups(cfg, n_steps):
        longest = cfg.horizons[group[-1]]
        counts = []  # each block's n_finite
        # Each member's grid ends at its horizon exactly (np.linspace sets the end).
        weights = [estimate._trapezoid(cfg.horizons[i], n_steps[i]) for i in group]
        scratch = np.empty(0)  # the products' two planes
        for blk in simulate_exact(cfg.params, longest, n_steps[group[-1]], range(cfg.n_reps),
                                  cfg.seed):
            counts.append(blk.n_finite)
            if scratch.size < 2 * blk.x.size:  # once: the first slice is the largest
                scratch = np.empty(2 * blk.x.size)
            for i, w in zip(group, weights):
                end = n_steps[i] + 1
                cols[i].append(estimate._block_columns(blk.t[:end], blk.x[:, :end],
                                                       blk.v[:, :end], w, scratch))
            blk = None  # else the last slice holds its block buffer past the call
        n_finite.update(dict.fromkeys(group, np.concatenate(counts)))
        simulated_at.update(dict.fromkeys(group, longest))
    scratch = None  # not held while the caller draws its limit samples

    for i, horizon in enumerate(cfg.horizons):
        est, threshold = estimate._solve(np.concatenate(cols[i], axis=1), horizon,
                                         cfg.params.sigma)
        cols[i] = None
        status = np.where(n_finite[i] <= n_steps[i], "overflow",
                          np.where(est.det_D <= threshold, "singular", "ok"))
        used = status == "ok"
        if not used.any():
            raise RuntimeError(f"all {cfg.n_reps} replications failed at T={horizon}")
        yield n_steps[i], _map_rows(est, lambda col: col[used]), status, simulated_at[i]


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run the full experiment.  Deterministic given cfg (incl. seed)."""
    start = time.perf_counter()
    rate_spec = rate_functions(cfg.regime)
    results = []
    limit_draws = []
    for horizon_index, (horizon, (n_steps, est, status, simulated_at)) in enumerate(
            zip(cfg.horizons, _replicate(cfg))):
        r1, r2 = normalized_residuals(cfg.regime, rate_spec, cfg.normalization, cfg.params,
                                      horizon, est)
        excluded = np.flatnonzero(status != "ok")
        ref1, ref2, reused = _reference_samples(cfg, horizon_index, horizon, limit_draws)
        ks1, ks2 = (ks_two_sample(r, ref) if ref is not None and np.isfinite(r).all() else None
                    for r, ref in ((r1, ref1), (r2, ref2)))
        results.append(HorizonResult(
            horizon=horizon, n_steps=n_steps, n_used=r1.size,
            n_excluded=cfg.n_reps - r1.size,
            reps=np.flatnonzero(status == "ok"), r1=r1, r2=r2,
            quantiles1=_quantiles(r1), quantiles2=_quantiles(r2),
            ks1=ks1, ks2=ks2, reference_reused=reused, simulated_at=simulated_at,
            excluded_overflow=int((status == "overflow").sum()),
            excluded_singular=int((status == "singular").sum()),
            first_excluded_rep=int(excluded[0]) if excluded.size else None,
        ))

    comparison_name = cfg.comparison if isinstance(cfg.comparison, str) else "normal"
    return ExperimentReport(
        regime=cfg.regime.tag.value,
        normalization=cfg.normalization,
        comparison=comparison_name,
        seed=cfg.seed,
        n_reps=cfg.n_reps,
        steps_per_unit_time=cfg.steps_per_unit_time,
        results=results,
        wall_time_s=time.perf_counter() - start,
    )


class ConvergenceRow(NamedTuple):
    horizon: float
    raw_median1: float
    raw_median2: float
    normalized_median1: float
    normalized_median2: float
    n_used: int
    n_excluded: int


class ConvergenceReport(NamedTuple):
    regime: str
    rows: list[ConvergenceRow]
    stabilized1: bool
    stabilized2: bool
    raw_decreasing1: bool
    raw_decreasing2: bool

    def to_artifact_dict(self) -> dict:
        return {
            "regime": self.regime,
            "ratio_band": list(RATIO_BAND),
            "stabilized": [self.stabilized1, self.stabilized2],
            "raw_decreasing": [self.raw_decreasing1, self.raw_decreasing2],
            "rows": [
                {
                    "horizon": r.horizon,
                    "raw_median": [_finite(r.raw_median1), _finite(r.raw_median2)],
                    "normalized_median": [_finite(r.normalized_median1),
                                          _finite(r.normalized_median2)],
                    "n_used": r.n_used,
                    "n_excluded": r.n_excluded,
                }
                for r in self.rows
            ],
        }


def convergence_study(cfg: ExperimentConfig) -> ConvergenceReport:
    """Median |theta_i_hat - theta_i| across horizons, raw and rate-normalized.

    The normalized median "stabilizes" when every consecutive-horizon ratio
    lies in RATIO_BAND while the raw median shrinks.
    """
    if len(cfg.horizons) < 3:
        raise ValueError("need at least 3 horizons")
    spec = rate_functions(cfg.regime)
    rows = []
    for horizon, (_, est, _, _) in zip(cfg.horizons, _replicate(cfg)):
        d1, d2 = est.theta1_hat - cfg.params.theta1, est.theta2_hat - cfg.params.theta2
        m1, m2 = _median(np.abs(d1)), _median(np.abs(d2))
        rows.append(ConvergenceRow(horizon, m1, m2,
                                   spec.v1(horizon) * m1, spec.v2(horizon) * m2,
                                   d1.size, cfg.n_reps - d1.size))

    def stabilized(values):
        ratios = [b / a for a, b in zip(values, values[1:]) if a > 0]
        return bool(ratios) and all(RATIO_BAND[0] <= r <= RATIO_BAND[1] for r in ratios)

    return ConvergenceReport(
        regime=cfg.regime.tag.value,
        rows=rows,
        stabilized1=stabilized([r.normalized_median1 for r in rows]),
        stabilized2=stabilized([r.normalized_median2 for r in rows]),
        raw_decreasing1=rows[-1].raw_median1 < rows[0].raw_median1,
        raw_decreasing2=rows[-1].raw_median2 < rows[0].raw_median2,
    )
