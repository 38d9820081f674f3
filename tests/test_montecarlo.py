import dataclasses
import importlib
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

import car2.estimate
import car2.model
import car2.montecarlo
import car2.regimes
from car2 import (
    ExperimentConfig,
    ModelParams,
    NormalReference,
    SimulationOverflowError,
    SingularDesignError,
    char_roots,
    classify,
    convergence_study,
    estimate_path,
    ks_two_sample,
    rng,
    run_experiment,
    sample_limit,
    simulate,
)
from car2.model import _branch, classify_params
from car2.montecarlo import QUANTILE_LEVELS, _median, _quantiles
from car2.regimes import RECORDS, NoNlrrError, rate_functions, scaling_matrix
from car2.simulate import simulate_exact

from conftest import REGIME_POINTS
from oracles import per_horizon_replicate, per_rep_normalized_residuals

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)


def ergodic_cfg(**overrides):
    base = dict(
        params=ModelParams(theta1=-3.0, theta2=-2.0, sigma=1.0, x0=0.0, dx0=0.0),
        horizons=(20.0,),
        n_reps=60,
        seed=123,
        steps_per_unit_time=50,
        normalization="deterministic_rate",
        comparison="limit_sampler",
        n_reference=2000,
        grid_n=2000,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def merge_ks(a, b) -> float:
    """Reference statistic: both empirical CDFs on the merged sorted sample."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([a, b])
    grid.sort(kind="mergesort")
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


# Small integer grids scaled by an inexact step: many ties, unequal sizes.
tied_samples = st.lists(st.integers(-6, 6), min_size=1, max_size=60).map(
    lambda ks: np.asarray(ks, dtype=float) * 0.1)
# The same with a NaN for every 7 drawn.
tied_samples_with_nan = st.lists(st.integers(-6, 7), min_size=1, max_size=60).map(
    lambda ks: np.array([math.nan if k == 7 else k for k in ks]) * 0.1)


# Residual-like samples: ties, both zero signs, and NaN and +-inf mixed in;
# and mostly zeros, where which zero a partition leaves at an index shows.
quantile_samples = (
    st.lists(st.sampled_from([0.0, -0.0, 0.1, -0.1, 0.3, 2.5, -7.0, math.nan, math.inf,
                              -math.inf]) | st.floats(), min_size=1, max_size=40)
    | st.lists(st.sampled_from([0.0, -0.0, 0.0, -0.0, 1.0, -1.0, math.nan]), min_size=1,
               max_size=40)).map(np.array)


def same_float(x, y) -> bool:
    """Bit-for-bit equal, or both NaN."""
    return (math.isnan(x) and math.isnan(y)) or np.float64(x).tobytes() == np.float64(y).tobytes()


class TestKsTwoSample:
    def test_identical_samples(self):
        a = np.array([0.3, -0.1, 2.0])
        assert ks_two_sample(a, a.copy()) == 0.0

    def test_disjoint_points(self):
        assert ks_two_sample([0.0], [1.0]) == 1.0

    def test_shifted_halves(self):
        assert ks_two_sample([0.0, 1.0], [0.5, 1.0]) == pytest.approx(0.5)

    def test_null_calibration(self):
        # Two standard-normal samples of size 2000: statistic below the
        # asymptotic 99.9% point in the vast majority of trials.
        rng = np.random.default_rng(4)
        exceed = 0
        trials = 60
        for _ in range(trials):
            a, b = rng.normal(size=(2, 2000))
            if ks_two_sample(a, b) >= 0.061:
                exceed += 1
        assert exceed <= 2

    def test_matches_scipy(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=313)
        b = rng.normal(loc=0.3, size=271)
        assert ks_two_sample(a, b) == pytest.approx(ks_2samp(a, b).statistic, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample([], [1.0])

    @PROPERTY
    @given(a=tied_samples, b=tied_samples)
    def test_matches_merge_reference_bit_for_bit(self, a, b):
        assert ks_two_sample(a, b) == merge_ks(a, b)

    @PROPERTY
    @given(a=tied_samples_with_nan, b=tied_samples_with_nan)
    def test_matches_scipy_statistic_bit_for_bit(self, a, b):
        # method="asymp": "auto" rounds small samples' statistic to a multiple
        # of 1/lcm(n1, n2) for its exact p-value
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # scipy's 1x1 p-value
            want = ks_2samp(a, b, method="asymp").statistic
        assert same_float(ks_two_sample(a, b), want)

    def test_one_point_samples_warn_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ks_two_sample([0.0], [1.0]) == 1.0
            assert ks_two_sample([0.5], [0.5]) == 0.0

    def test_large_samples_match_merge_reference(self):
        rng_ = np.random.default_rng(6)
        a = np.round(rng_.normal(size=3000), 2)
        b = np.round(rng_.normal(0.05, 1.1, size=9000), 2)
        assert ks_two_sample(a, b) == merge_ks(a, b)

    def test_nan_propagates(self):
        assert math.isnan(ks_two_sample([0.1, math.nan, 0.3], [0.2, 0.4]))


class TestRunExperiment:
    def test_deterministic_artifact(self):
        cfg = ergodic_cfg()
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert json.dumps(a.to_artifact_dict(), sort_keys=True) == \
            json.dumps(b.to_artifact_dict(), sort_keys=True)
        assert a.wall_time_s > 0
        assert "wall" not in json.dumps(a.to_artifact_dict())

    def test_ergodic_ks_reasonable(self):
        report = run_experiment(ergodic_cfg(horizons=(60.0,), n_reps=150))
        res = report.results[0]
        assert res.n_excluded == 0
        assert res.ks1 is not None and res.ks1 < 0.25
        assert res.ks2 is not None and res.ks2 < 0.25

    def test_quantiles_monotone(self):
        report = run_experiment(ergodic_cfg())
        res = report.results[0]
        for quantiles in (res.quantiles1, res.quantiles2):
            values = [quantiles[lev] for lev in sorted(quantiles)]
            assert values == sorted(values)

    @PROPERTY
    @given(values=quantile_samples)
    @example(values=np.array([-0.0]))
    @example(values=np.array([0.0, -0.0]))
    @example(values=np.array([-0.0, math.nan, 0.0, math.inf]))
    @example(values=np.array([1.5, 1.5, -0.0, 0.0, -0.0, 1.5]))
    @example(values=np.array([-0.0, 0.0, -1.0, -0.0]))  # a full sort moves a zero's sign
    @example(values=np.array([-0.0, 0.0, 0.0, -0.0, 0.0, -0.0, 0.0, 0.0, -0.0, -0.0, 0.0, -0.0,
                              1.0, 0.0, -0.0]))  # so does a kth set of the lower indexes alone
    @example(values=np.array([math.nan, -math.inf]))
    def test_quantiles_match_numpy_percentile(self, values):
        # _quantiles is np.percentile's linear method on the finite values,
        # bit for bit, and leaves its input as it was.
        before = values.tobytes()
        got = _quantiles(values)
        assert values.tobytes() == before and list(got) == list(QUANTILE_LEVELS)
        finite = values[np.isfinite(values)]
        if finite.size == 0:
            assert all(math.isnan(q) for q in got.values())
            return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # b - a may overflow
            want = np.percentile(finite, QUANTILE_LEVELS)
        assert all(same_float(g, w) for g, w in zip(got.values(), want.tolist()))

    @PROPERTY
    @given(values=quantile_samples)
    @example(values=np.array([-0.0]))
    @example(values=np.array([2.5]))
    @example(values=np.array([-0.0, -0.0]))
    @example(values=np.array([0.3, -7.0]))
    @example(values=np.array([1.5, -0.0, 1.5, 0.0, -0.0]))
    @example(values=np.array([-0.0, 1.0, math.nan]))
    @example(values=np.array([math.inf, -math.inf]))
    @example(values=np.array([math.inf, 0.1, math.inf, -math.inf]))
    def test_median_matches_numpy_median(self, values):
        # convergence_study's medians are np.median's, bit for bit, signed
        # zeros and NaN included, and leave their input as it was.
        before = values.tobytes()
        with warnings.catch_warnings():
            # inf - inf or an overflowing middle pair warns in both
            warnings.simplefilter("ignore", RuntimeWarning)
            got, want = _median(values), np.median(values).item()
        assert values.tobytes() == before and same_float(got, want)

    def test_artifacts_do_not_depend_on_the_block_cap(self):
        # Rows never depend on their block: blocks of 3 or 7 replications in
        # place of one block of 20 move no byte of the report or residuals.
        cfg = ergodic_cfg(horizons=(5.0, 10.0), n_reps=20, n_reference=500, grid_n=500)

        def artifact_bytes():
            report = run_experiment(cfg)
            return (json.dumps(report.to_artifact_dict(), sort_keys=True),
                    "".join(f"{k},{T!r},{a!r},{b!r}\n" for k, T, a, b in report.residual_rows()))

        want = artifact_bytes()
        for block_reps in (3, 7):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(importlib.import_module("car2.simulate"), "_BLOCK_REPS", block_reps)
                assert artifact_bytes() == want

    def test_normal_reference_comparison(self):
        cfg = ergodic_cfg(comparison=NormalReference(mean1=0.0, var1=18.0,
                                                     mean2=0.0, var2=36.0))
        report = run_experiment(cfg)
        assert report.comparison == "normal"
        assert report.results[0].ks1 is not None

    def test_nlrr_normalization(self):
        cfg = ergodic_cfg(normalization="nlrr",
                          comparison=NormalReference(mean1=0.0, var1=1.0,
                                                     mean2=0.0, var2=1.0))
        report = run_experiment(cfg)
        assert np.isfinite(report.results[0].r1).all()
        assert np.isfinite(report.results[0].r2).all()

    def test_nlrr_rejected_for_harmonic(self):
        with pytest.raises(NoNlrrError):
            ergodic_cfg(params=ModelParams(theta1=0.0, theta2=-1.0, sigma=1.0),
                        normalization="nlrr", comparison=NormalReference(mean1=0.0, var1=1.0))

    def test_nlrr_rejected_before_simulating(self, monkeypatch):
        # UnstableOscillation's NLRR exists only in matrix form.
        calls = []

        def recording(*args, **kwargs):
            calls.append(args)
            return simulate_exact(*args, **kwargs)

        monkeypatch.setattr("car2.montecarlo.simulate_exact", recording)
        with pytest.raises(NoNlrrError):
            ergodic_cfg(params=UNSTABLE_OSCILLATION, horizons=(4.0,), n_reps=10,
                        normalization="nlrr", comparison=NormalReference(mean1=0.0, var1=1.0))
        assert calls == []

    def test_nlrr_walks_each_path_once(self, monkeypatch):
        # The block estimator sums each replication's row exactly once; the
        # NLRR rates read the statistics it returned.
        rows = []

        def recording(t, x, v, *reused):
            rows.extend(x.copy())
            return block_columns(t, x, v, *reused)

        block_columns = car2.estimate._block_columns
        monkeypatch.setattr(car2.estimate, "_block_columns", recording)
        cfg = ergodic_cfg(normalization="nlrr", n_reps=12, comparison="none")
        res = run_experiment(cfg).results[0]
        assert res.n_used == 12
        want = [simulate(cfg.params, 20.0, res.n_steps, seed=cfg.seed, rep=k).x
                for k in range(12)]
        assert len(rows) == 12
        assert all(np.array_equal(got, x) for got, x in zip(rows, want))

    def test_nlrr_with_limit_sampler_rejected(self):
        with pytest.raises(ValueError):
            ergodic_cfg(normalization="nlrr", comparison="limit_sampler")

    def test_matrix_normalization_runs(self):
        cfg = ergodic_cfg(normalization="matrix", comparison="none",
                          horizons=(10.0,), n_reps=20)
        report = run_experiment(cfg)
        res = report.results[0]
        assert res.ks1 is None and res.ks2 is None
        assert np.isfinite(res.r1).all() and np.isfinite(res.r2).all()

    def test_matrix_normalization_unstable_oscillation(self):
        cfg = ergodic_cfg(params=ModelParams(theta1=0.5, theta2=-1.0625, sigma=1.0,
                                             x0=0.4, dx0=-0.3),
                          normalization="matrix", comparison="none",
                          horizons=(8.0,), n_reps=20)
        report = run_experiment(cfg)
        assert np.isfinite(report.results[0].r1).all()

    def test_exclusions_counted(self):
        # Explosive parameters at a horizon long enough to overflow some or
        # all replications: the report carries the exclusion count.
        cfg = ergodic_cfg(params=ModelParams(theta1=40.0, theta2=-1.0, sigma=1.0,
                                             x0=1.0, dx0=1.0),
                          horizons=(20.0,), n_reps=4, comparison="none",
                          steps_per_unit_time=20)
        with pytest.raises(RuntimeError):
            run_experiment(cfg)

    def test_residual_rows_schema(self):
        report = run_experiment(ergodic_cfg(n_reps=5))
        rows = list(report.residual_rows())
        assert len(rows) == 5
        rep, horizon, r1, r2 = rows[0]
        assert rep == 0 and horizon == 20.0
        assert isinstance(r1, float) and isinstance(r2, float)

    def test_seed_beyond_64_bits_rejected(self):
        # Rejected with the config, not at the first stream inside the simulation.
        with pytest.raises(ValueError, match="seed must be a 64-bit unsigned integer"):
            ergodic_cfg(seed=2**64)
        assert ergodic_cfg(seed=2**64 - 1).seed == 2**64 - 1

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            ergodic_cfg(horizons=(5.0, 3.0))
        with pytest.raises(ValueError):
            ergodic_cfg(n_reps=1)
        with pytest.raises(ValueError):
            ergodic_cfg(normalization="bogus")

    @pytest.mark.parametrize("raw", [[], "config", None])
    def test_from_dict_rejects_non_objects(self, raw):
        with pytest.raises(ValueError, match="config must be a JSON object"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("field, build", [
        ("horizons", lambda value: ergodic_cfg(horizons=(1.0, value))),
        ("mean1", lambda value: NormalReference(mean1=value, var1=1.0)),
        ("var1", lambda value: NormalReference(mean1=0.0, var1=value)),
        ("mean2", lambda value: NormalReference(mean1=0.0, var1=1.0, mean2=value)),
        ("var2", lambda value: NormalReference(mean1=0.0, var1=1.0, mean2=0.0, var2=value)),
    ], ids=lambda x: x if isinstance(x, str) else "")
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_numbers_rejected(self, field, build, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            build(value)


ARTIFACT_HORIZON_KEYS = {"horizon", "n_steps", "n_used", "n_excluded", "ks1", "ks2",
                         "quantiles1", "quantiles2"}


def failing_reps(params, horizon, n_steps, n_reps, seed, error):
    """Replications whose per-path simulate + estimate_path raises error."""
    failed = []
    for k in range(n_reps):
        try:
            estimate_path(simulate(params, horizon, n_steps, seed=seed, rep=k))
        except error:
            failed.append(k)
    return failed


class TestExclusionReasons:
    def check_reasons(self, cfg, failed, overflow):
        report = run_experiment(cfg)
        res = report.results[0]
        assert failed and res.n_excluded == len(failed)
        assert res.excluded_overflow + res.excluded_singular == res.n_excluded
        expected = (len(failed), 0) if overflow else (0, len(failed))
        assert (res.excluded_overflow, res.excluded_singular) == expected
        assert res.first_excluded_rep == failed[0]
        assert sorted([*res.reps, *failed]) == list(range(cfg.n_reps))
        assert set(report.to_artifact_dict()["horizons"][0]) == ARTIFACT_HORIZON_KEYS

    def test_overflow(self):
        # p = 2 at T = 354.5: some paths leave the float64 range; the rest
        # are used (with NaN estimates, see the NaN residual rows).
        params = ModelParams(theta1=3.0, theta2=-2.0, sigma=1.0, x0=0.3, dx0=-0.2)
        cfg = ergodic_cfg(params=params, horizons=(354.5,), n_reps=24, seed=3,
                          steps_per_unit_time=2, comparison="none")
        failed = failing_reps(params, 354.5, 709, 24, 3, SimulationOverflowError)
        self.check_reasons(cfg, failed, overflow=True)

    def test_singular_design(self):
        # From rest over two steps of 0.01 some designs are numerically singular.
        params = ModelParams(theta1=-3.0, theta2=-2.0, sigma=1.0)
        cfg = ergodic_cfg(params=params, horizons=(0.02,), n_reps=40, seed=3,
                          steps_per_unit_time=100, comparison="none")
        failed = failing_reps(params, 0.02, 2, 40, 3, SingularDesignError)
        self.check_reasons(cfg, failed, overflow=False)

    def test_no_exclusions(self):
        res = run_experiment(ergodic_cfg(n_reps=5)).results[0]
        assert (res.n_excluded, res.excluded_overflow, res.excluded_singular) == (0, 0, 0)
        assert res.first_excluded_rep is None


HARMONIC = ModelParams(theta1=0.0, theta2=-1.0, sigma=1.0, x0=0.3, dx0=-0.2)
UNSTABLE_OSCILLATION = ModelParams(theta1=0.5, theta2=-1.0625, sigma=1.0,
                                   x0=0.4, dx0=-0.3)


def three_horizon_cfg(params, **overrides):
    return ergodic_cfg(params=params, horizons=(2.0, 3.0, 4.0), n_reps=20,
                       steps_per_unit_time=20, n_reference=300, grid_n=1000,
                       **overrides)


@pytest.fixture
def limit_calls(monkeypatch):
    """The horizon of each call run_experiment makes to sample_limit."""
    calls = []

    def recording(*args, **kwargs):
        calls.append(kwargs["horizon"])
        return sample_limit(*args, **kwargs)

    monkeypatch.setattr("car2.montecarlo.sample_limit", recording)
    return calls


class TestReferenceDraws:
    @pytest.mark.parametrize("params,drawn_at", [
        (HARMONIC, [2.0]),
        (UNSTABLE_OSCILLATION, [2.0, 3.0, 4.0]),
    ], ids=["Harmonic", "UnstableOscillation"])
    def test_limit_draws_once_per_law(self, limit_calls, params, drawn_at):
        cfg = three_horizon_cfg(params)
        report = run_experiment(cfg)
        assert limit_calls == drawn_at
        regime = classify(char_roots(params))
        for res in report.results:
            # The shared draws are the ones a fresh call for this horizon makes.
            fresh = sample_limit(regime, params, cfg.n_reference,
                                 grid_n=cfg.grid_n, seed=cfg.seed, horizon=res.horizon)
            assert res.ks1 == ks_two_sample(res.r1, fresh.l1)
            assert res.ks2 == ks_two_sample(res.r2, fresh.l2)

    def test_reference_reused_flag(self):
        harmonic = run_experiment(three_horizon_cfg(HARMONIC))
        assert [res.reference_reused for res in harmonic.results] == [False, True, True]
        unstable = run_experiment(three_horizon_cfg(UNSTABLE_OSCILLATION))
        assert [res.reference_reused for res in unstable.results] == [False] * 3
        for row in harmonic.to_artifact_dict()["horizons"]:
            assert set(row) == {"horizon", "n_steps", "n_used", "n_excluded", "ks1", "ks2",
                                "quantiles1", "quantiles2"}

    def test_normal_reference_drawn_per_horizon(self, limit_calls):
        ref = NormalReference(mean1=0.0, var1=2.0, mean2=0.0, var2=2.0)
        cfg = three_horizon_cfg(HARMONIC, comparison=ref)
        report = run_experiment(cfg)
        assert limit_calls == []
        firsts = set()
        for index, res in enumerate(report.results):
            gen = rng.stream(cfg.seed, rng.DOMAIN_REFERENCE, index)
            ref1 = math.sqrt(2.0) * gen.standard_normal(cfg.n_reference)
            ref2 = math.sqrt(2.0) * gen.standard_normal(cfg.n_reference)
            assert res.ks1 == ks_two_sample(res.r1, ref1)
            assert res.ks2 == ks_two_sample(res.r2, ref2)
            assert not res.reference_reused
            firsts.add(float(ref1[0]))
        assert len(firsts) == 3


@pytest.mark.xfail(strict=True, reason="the trapezoid SXX and SVV err by O(h^2), and "
                                       "e^((p-q)T) amplifies it (ROADMAP item 3)")
def test_explosive_residuals_follow_their_limit_law():
    # DistinctPositive (1.5, -0.5) at T = 30, h = 1/50: the median of r1 is
    # about -1,000, so ks1 is near 1 against the Cauchy-type limit draws.
    cfg = ergodic_cfg(params=ModelParams(theta1=1.5, theta2=-0.5, sigma=1.0, x0=0.3, dx0=-0.2),
                      horizons=(30.0,), n_reps=200, seed=5, steps_per_unit_time=50,
                      n_reference=4000)
    res = run_experiment(cfg).results[0]
    n, m = res.n_used, cfg.n_reference
    critical = math.sqrt(-math.log(0.001 / 2) / 2 * (n + m) / (n * m))  # two-sample KS, 99.9%
    assert res.ks1 is not None and res.ks1 <= critical


def test_experiment_classifies_once(monkeypatch):
    # The Regime carries its roots, so the scaling_matrix calls of matrix
    # mode do not classify again.
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return classify(*args, **kwargs)

    for module in (car2.model, car2.regimes, car2.montecarlo):
        if getattr(module, "classify", None) is classify:
            monkeypatch.setattr(module, "classify", counting)
    cfg = three_horizon_cfg(UNSTABLE_OSCILLATION, normalization="matrix")
    assert [res.n_used for res in run_experiment(cfg).results] == [20, 20, 20]
    assert len(calls) == 1


def test_matrix_mode_scales_once_per_horizon(monkeypatch):
    # A_T depends on the horizon alone; it was rebuilt for every replication.
    calls = []

    def recording(regime, horizon):
        calls.append(horizon)
        return scaling_matrix(regime, horizon)

    scaling_matrix = car2.regimes.scaling_matrix
    monkeypatch.setattr(car2.regimes, "scaling_matrix", recording)
    cfg = three_horizon_cfg(UNSTABLE_OSCILLATION, normalization="matrix", comparison="none")
    assert [res.n_used for res in run_experiment(cfg).results] == [20, 20, 20]
    assert calls == [2.0, 3.0, 4.0]


def test_rates_evaluated_once_per_horizon(monkeypatch):
    # v1(T) and v2(T) are constants of the horizon: one call each per horizon.
    calls = []

    def counting(regime):
        spec = rate_functions(regime)

        def count(name, rate):
            def wrapped(T):
                calls.append((name, T))
                return rate(T)
            return wrapped

        return spec._replace(v1=count("v1", spec.v1), v2=count("v2", spec.v2))

    rate_functions = car2.montecarlo.rate_functions
    monkeypatch.setattr(car2.montecarlo, "rate_functions", counting)
    cfg = three_horizon_cfg(HARMONIC, comparison="none")
    assert [res.n_used for res in run_experiment(cfg).results] == [20, 20, 20]
    assert calls == [("v1", 2.0), ("v2", 2.0), ("v1", 3.0), ("v2", 3.0), ("v1", 4.0), ("v2", 4.0)]


# (regime, normalization): deterministic rates, the scalar NLRR rates of every
# regime that has them (LargerRootZero's r2 is NaN), and the matrix form with
# and without UnstableOscillation's rotation.
RESIDUAL_CASES = [
    ("Ergodic", "deterministic_rate"),
    ("Harmonic", "deterministic_rate"),
    *sorted((kind.value, "nlrr") for kind, record in RECORDS.items() if record.scalar_nlrr),
    ("UnstableOscillation", "matrix"),
    ("DistinctPositive", "matrix"),
]


@pytest.mark.parametrize("name, normalization", RESIDUAL_CASES,
                         ids=[f"{name}-{norm}" for name, norm in RESIDUAL_CASES])
def test_normalized_residuals_match_per_rep_oracle(monkeypatch, name, normalization):
    # The horizon's arrays equal the per-replication normalizer bit for bit,
    # over a horizon of several simulate_exact blocks.
    blocks = []

    def counting(*args, **kwargs):
        for blk in simulate_exact(*args, **kwargs):
            blocks.append(len(blk.reps))
            yield blk

    monkeypatch.setattr(car2.montecarlo, "simulate_exact", counting)
    monkeypatch.setattr(importlib.import_module("car2.simulate"), "_BLOCK_ELEMENTS", 2**13)
    theta1, theta2, horizon = REGIME_POINTS[name]
    params = ModelParams(theta1=theta1, theta2=theta2, sigma=1.0, x0=0.3, dx0=-0.2)
    cfg = ergodic_cfg(params=params, horizons=(horizon,), n_reps=60, steps_per_unit_time=100,
                      normalization=normalization, comparison="none")
    regime = classify_params(params)
    spec = rate_functions(regime)
    ((_, est, _, _),) = car2.montecarlo._replicate(cfg)
    assert len(blocks) >= 3 and est.theta1_hat.size == cfg.n_reps
    r1, r2 = car2.regimes.normalized_residuals(regime, spec, normalization, params, horizon, est)
    a_t = scaling_matrix(regime, horizon) if normalization == "matrix" else None
    rows = [car2.estimate._map_rows(est, lambda col: col[i].item()) for i in range(cfg.n_reps)]
    want = [per_rep_normalized_residuals(cfg, regime, spec, horizon, a_t, row) for row in rows]
    assert r1.shape == r2.shape == (len(want),)
    assert all(same_float(a, w1) and same_float(b, w2) for a, b, (w1, w2) in zip(r1, r2, want))
    assert np.isnan(r2).all() == (regime.tag is car2.model.RegimeKind.LARGER_ROOT_ZERO
                                  and normalization == "nlrr")


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks small enough that the harness's own memory shows."""
    module = importlib.import_module("car2.simulate")  # car2.simulate is the function
    monkeypatch.setattr(module, "_BLOCK_ELEMENTS", 2**16)
    monkeypatch.setattr(module, "_YIELD_ELEMENTS", 2**13)


def test_replicate_holds_columns_not_per_replication_objects(small_blocks):
    # A horizon's estimates are a few arrays, not objects per replication,
    # and each block's columns are copies, so no block outlives its sums.
    cfg = ergodic_cfg(horizons=(5.0,), n_reps=2000, steps_per_unit_time=100, comparison="none")
    list(car2.montecarlo._replicate(dataclasses.replace(cfg, n_reps=2)))  # warm-up
    tracemalloc.start()
    try:
        ((_, est, _, _),) = car2.montecarlo._replicate(cfg)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.theta1_hat.size == cfg.n_reps
    assert retained < 0.5e6 and peak < 4e6


def test_replicate_ladder_holds_columns_per_horizon(small_blocks):
    # One simulation for three nested horizons holds each horizon's columns,
    # never the longest horizon's blocks.
    cfg = ergodic_cfg(horizons=(5.0, 10.0, 20.0), n_reps=2000, steps_per_unit_time=100,
                      comparison="none")
    list(car2.montecarlo._replicate(dataclasses.replace(cfg, n_reps=2)))  # warm-up
    tracemalloc.start()
    try:
        results = list(car2.montecarlo._replicate(cfg))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [est.theta1_hat.size for _, est, _, _ in results] == [cfg.n_reps] * 3
    assert [simulated_at for *_, simulated_at in results] == [20.0] * 3
    assert retained < 0.5e6 * len(results) and peak < 4e6


def estimate_bytes(est) -> list[bytes]:
    """Every column of an Estimate, its stats included, as raw bytes."""
    columns = (est.theta1_hat, est.theta2_hat, est.det_D, est.cond_flag, *est.stats)
    return [np.asarray(col).tobytes() for col in columns]


def assert_matches_per_horizon_oracle(cfg):
    """Every horizon's n_steps, statuses and Estimate columns equal those of
    its own simulation, bit for bit; returns the horizons simulated."""
    simulated = []
    for horizon, (n_steps, est, status, simulated_at) in zip(
            cfg.horizons, car2.montecarlo._replicate(cfg)):
        want_n, want_est, want_status = per_horizon_replicate(cfg, horizon)
        assert n_steps == want_n and status.tolist() == want_status.tolist()
        assert estimate_bytes(est) == estimate_bytes(want_est)
        assert simulated_at >= horizon
        simulated.append(simulated_at)
    return simulated


# Ladders of fractions of a regime's test horizon.
ladders = st.lists(st.sampled_from((0.25, 0.5, 0.75, 1.0, 1.5)), min_size=2, max_size=4,
                   unique=True).map(lambda fracs: tuple(sorted(fracs)))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(name=st.sampled_from(sorted(REGIME_POINTS)), steps_per_unit_time=st.integers(8, 64),
       fractions=ladders)
def test_nested_horizons_match_per_horizon_simulation(name, steps_per_unit_time, fractions):
    # Whether or not a ladder's grids nest, each horizon reads what its own
    # simulation gives, over several simulate_exact blocks of 3 rows each.
    theta1, theta2, horizon = REGIME_POINTS[name]
    params = ModelParams(theta1=theta1, theta2=theta2, sigma=1.0, x0=0.3, dx0=-0.2)
    cfg = ergodic_cfg(params=params, horizons=tuple(horizon * f for f in fractions), n_reps=9,
                      steps_per_unit_time=steps_per_unit_time, comparison="none")
    n_long = max(2, round(cfg.horizons[-1] * steps_per_unit_time))
    with pytest.MonkeyPatch.context() as mp:
        # car2.simulate is the function; the module holds the block budget
        mp.setattr(importlib.import_module("car2.simulate"), "_BLOCK_ELEMENTS",
                   2 * 3 * (n_long + 1))
        assert_matches_per_horizon_oracle(cfg)


@pytest.fixture
def simulated_horizons(monkeypatch):
    """The horizon of each call the harness makes to simulate_exact."""
    calls = []

    def recording(params, horizon, *args, **kwargs):
        calls.append(horizon)
        return simulate_exact(params, horizon, *args, **kwargs)

    monkeypatch.setattr(car2.montecarlo, "simulate_exact", recording)
    return calls


class TestNestingGroups:
    @pytest.mark.parametrize("horizons", [(1.1, 2.0), (0.9, 1.2)],
                             ids=["step_differs", "end_differs"])
    def test_grids_that_do_not_nest_simulate_alone(self, simulated_horizons, horizons):
        # 3 steps per unit time: 1.1/3 and 2.0/6 are different steps; 0.9/3 and
        # 1.2/4 are one step, but three of them end at 0.8999999999999999.
        cfg = ergodic_cfg(horizons=horizons, n_reps=10, steps_per_unit_time=3,
                          comparison="none")
        assert assert_matches_per_horizon_oracle(cfg) == list(horizons)
        simulated_horizons.clear()
        report = run_experiment(cfg)
        assert [res.simulated_at for res in report.results] == list(horizons)
        assert sorted(simulated_horizons) == list(horizons)

    def test_branch_switch_simulates_alone(self, simulated_horizons):
        # Roots -1 +- 1e-7: the double-root branch up to T = 4, distinct at 8,
        # on grids that otherwise nest (step 1/4).
        params = ModelParams(theta1=-2.0, theta2=-(1.0 - 1e-14), sigma=1.0, x0=0.3, dx0=-0.2)
        roots = char_roots(params)
        assert (_branch(roots, 4.0), _branch(roots, 8.0)) == ("double", "distinct")
        assert np.array_equal(np.linspace(0.0, 4.0, 17), np.linspace(0.0, 8.0, 33)[:17])
        cfg = ergodic_cfg(params=params, horizons=(4.0, 8.0), n_reps=10, steps_per_unit_time=4,
                          comparison="none")
        assert assert_matches_per_horizon_oracle(cfg) == [4.0, 8.0]
        simulated_horizons.clear()
        report = run_experiment(cfg)
        assert [res.simulated_at for res in report.results] == [4.0, 8.0]
        assert sorted(simulated_horizons) == [4.0, 8.0]

    @pytest.mark.parametrize("horizons, steps_per_unit_time, n_excluded", [
        ((350.0, 352.0, 354.5), 2, [0, 0, 3]),
        ((354.0, 354.35, 354.5), 20, [1, 3, 7]),
    ], ids=["longest_only", "middle_and_longest"])
    def test_overflow_excludes_rows_per_horizon(self, horizons, steps_per_unit_time,
                                                n_excluded):
        # p = 2: near T = 354.5 the paths leave float64 one after another.  A
        # row is excluded at the horizons its prefix overflows by and used,
        # in its own replication's place, at the shorter ones.
        params = ModelParams(theta1=3.0, theta2=-2.0, sigma=1.0, x0=0.3, dx0=-0.2)
        cfg = ergodic_cfg(params=params, horizons=horizons, n_reps=24, seed=3,
                          steps_per_unit_time=steps_per_unit_time, comparison="none")
        assert assert_matches_per_horizon_oracle(cfg) == [horizons[-1]] * 3
        report = run_experiment(cfg)
        for res in report.results:
            status = per_horizon_replicate(cfg, res.horizon)[2]
            excluded = np.flatnonzero(status != "ok")
            assert res.n_excluded == res.excluded_overflow == excluded.size
            assert res.first_excluded_rep == (int(excluded[0]) if excluded.size else None)
            assert res.n_used == cfg.n_reps - res.n_excluded
        assert [res.n_excluded for res in report.results] == n_excluded

    @pytest.mark.parametrize("study", [run_experiment, convergence_study])
    @pytest.mark.parametrize("horizons, steps_per_unit_time, groups", [
        ((5.0, 10.0, 20.0), 100, [20.0]),
        ((1.1, 2.0, 4.0), 3, [1.1, 4.0]),  # 1.1/3 is not 2/6 = 4/12
    ], ids=["one_group", "two_groups"])
    def test_one_simulation_per_group(self, simulated_horizons, study, horizons,
                                      steps_per_unit_time, groups):
        cfg = ergodic_cfg(horizons=horizons, n_reps=6, steps_per_unit_time=steps_per_unit_time,
                          comparison="none")
        study(cfg)
        assert sorted(simulated_horizons) == groups

    def test_simulated_at_stays_out_of_the_artifact(self):
        cfg = ergodic_cfg(horizons=(1.1, 2.0, 4.0), n_reps=6, steps_per_unit_time=3,
                          comparison="none")
        report = run_experiment(cfg)
        assert [res.simulated_at for res in report.results] == [1.1, 4.0, 4.0]
        for row in report.to_artifact_dict()["horizons"]:
            assert set(row) == ARTIFACT_HORIZON_KEYS


class TestConvergenceStudy:
    def test_ergodic_medians_shrink_and_stabilize(self):
        cfg = ergodic_cfg(horizons=(25.0, 50.0, 100.0), n_reps=80,
                          steps_per_unit_time=20)
        report = convergence_study(cfg)
        assert report.raw_decreasing1 and report.raw_decreasing2
        assert report.stabilized1 and report.stabilized2
        assert len(report.rows) == 3

    def test_wrong_rate_diverges(self, monkeypatch):
        # Distinct positive roots p=2, q=1: e^{qT} stabilizes, e^{pT} explodes.
        cfg = ergodic_cfg(params=ModelParams(theta1=3.0, theta2=-2.0, sigma=1.0,
                                             x0=0.1, dx0=0.1),
                          horizons=(6.0, 8.0, 10.0), n_reps=100,
                          steps_per_unit_time=100, comparison="none")
        right = convergence_study(cfg)
        registry = car2.montecarlo.rate_functions

        def dominant_root_rates(regime):
            def f(T):
                return math.exp(2 * T)
            return registry(regime)._replace(v1=f, v2=f)

        monkeypatch.setattr(car2.montecarlo, "rate_functions", dominant_root_rates)
        wrong = convergence_study(cfg)
        assert right.stabilized1
        wrong_norm = [r.normalized_median1 for r in wrong.rows]
        assert wrong_norm[-1] > 10.0 * wrong_norm[0]

    def test_ergodic_rate_slope(self):
        # The least-squares slope of log median|theta_i_hat - theta_i| against
        # log v_i(T) is -1 for the right rate and -0.5 for a rate off by
        # sqrt(T) (log v_i + log(T) / 2 on the same rows): the edge -0.75 is
        # the theory's midpoint, which the ratio band cannot draw.
        cfg = ergodic_cfg(params=ModelParams(theta1=-3.0, theta2=-2.0, sigma=1.0, x0=0.3,
                                             dx0=-0.2),
                          horizons=(5.0, 10.0, 20.0, 40.0), n_reps=400, seed=5,
                          comparison="none")
        report = convergence_study(cfg)
        spec = rate_functions(cfg.regime)
        log_t = np.log(cfg.horizons)
        for v, medians in ((spec.v1, [r.raw_median1 for r in report.rows]),
                           (spec.v2, [r.raw_median2 for r in report.rows])):
            log_v = np.log([v(t) for t in cfg.horizons])
            right = np.polyfit(log_v, np.log(medians), 1)[0]
            wrong = np.polyfit(log_v + log_t / 2.0, np.log(medians), 1)[0]
            assert right < -0.75 < wrong, (right, wrong)

    def test_one_ratio_band_for_verdict_and_artifact(self, monkeypatch):
        cfg = ergodic_cfg(horizons=(25.0, 50.0, 100.0), n_reps=80,
                          steps_per_unit_time=20)
        assert convergence_study(cfg).to_artifact_dict()["ratio_band"] == [1.0 / 3.0, 3.0]
        monkeypatch.setattr(car2.montecarlo, "RATIO_BAND", (1.0, 1.0))
        narrow = convergence_study(cfg)
        assert not (narrow.stabilized1 or narrow.stabilized2)
        assert narrow.to_artifact_dict()["ratio_band"] == [1.0, 1.0]

    def test_needs_three_horizons(self):
        with pytest.raises(ValueError):
            convergence_study(ergodic_cfg(horizons=(5.0, 10.0)))
