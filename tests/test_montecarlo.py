import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import car2.estimate
import car2.montecarlo
from car2 import (
    ExperimentConfig,
    ModelParams,
    NormalReference,
    SimConfig,
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
from car2.regimes import NoNlrrError
from car2.simulate import simulate_exact

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
        from scipy.stats import ks_2samp

        rng = np.random.default_rng(5)
        a = rng.normal(size=313)
        b = rng.normal(loc=0.3, size=271)
        assert ks_two_sample(a, b) == pytest.approx(ks_2samp(a, b).statistic, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample([], [1.0])

    @PROPERTY
    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")  # 1x1 p-value
    @given(a=tied_samples, b=tied_samples)
    def test_matches_merge_reference_bit_for_bit(self, a, b):
        assert ks_two_sample(a, b) == merge_ks(a, b)

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
        cfg = ergodic_cfg(params=ModelParams(theta1=0.0, theta2=-1.0, sigma=1.0),
                          normalization="nlrr",
                          comparison=NormalReference(mean1=0.0, var1=1.0))
        with pytest.raises(NoNlrrError):
            run_experiment(cfg)

    def test_nlrr_rejected_before_simulating(self, monkeypatch):
        # UnstableOscillation's NLRR exists only in matrix form.
        calls = []

        def recording(*args, **kwargs):
            calls.append(args)
            return simulate_exact(*args, **kwargs)

        monkeypatch.setattr("car2.montecarlo.simulate_exact", recording)
        cfg = ergodic_cfg(params=UNSTABLE_OSCILLATION, horizons=(4.0,), n_reps=10,
                          normalization="nlrr", comparison=NormalReference(mean1=0.0, var1=1.0))
        with pytest.raises(NoNlrrError):
            run_experiment(cfg)
        assert calls == []

    def test_nlrr_walks_each_path_once(self, monkeypatch):
        # estimate_path sums the path; the NLRR rates read its statistics.
        calls = []

        def counting(*args):
            calls.append(args)
            return trapezoid_weights(*args)

        trapezoid_weights = car2.estimate._trapezoid_weights
        monkeypatch.setattr(car2.estimate, "_trapezoid_weights", counting)
        cfg = ergodic_cfg(normalization="nlrr", n_reps=12, comparison="none")
        res = run_experiment(cfg).results[0]
        assert res.n_used == 12
        assert len(calls) == 12

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

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            ergodic_cfg(horizons=(5.0, 3.0))
        with pytest.raises(ValueError):
            ergodic_cfg(n_reps=1)
        with pytest.raises(ValueError):
            ergodic_cfg(normalization="bogus")


ARTIFACT_HORIZON_KEYS = {"horizon", "n_steps", "n_used", "n_excluded", "ks1", "ks2",
                         "quantiles1", "quantiles2"}


def failing_reps(params, horizon, n_steps, n_reps, seed, error):
    """Replications whose per-path simulate + estimate_path raises error."""
    failed = []
    for k in range(n_reps):
        cfg = SimConfig(horizon=horizon, n_steps=n_steps, seed=seed, replication_index=k)
        try:
            estimate_path(simulate(params, cfg))
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
        roots = char_roots(params)
        regime = classify(roots)
        for res in report.results:
            # The shared draws are the ones a fresh call for this horizon makes.
            fresh = sample_limit(regime, roots, params, cfg.n_reference,
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


class TestConvergenceStudy:
    def test_ergodic_medians_shrink_and_stabilize(self):
        cfg = ergodic_cfg(horizons=(25.0, 50.0, 100.0), n_reps=80,
                          steps_per_unit_time=20)
        report = convergence_study(cfg)
        assert report.raw_decreasing1 and report.raw_decreasing2
        assert report.stabilized1 and report.stabilized2
        assert len(report.rows) == 3

    def test_wrong_rate_diverges(self):
        # Distinct positive roots p=2, q=1: e^{qT} stabilizes, e^{pT} explodes.
        cfg = ergodic_cfg(params=ModelParams(theta1=3.0, theta2=-2.0, sigma=1.0,
                                             x0=0.1, dx0=0.1),
                          horizons=(6.0, 8.0, 10.0), n_reps=100,
                          steps_per_unit_time=100, comparison="none")
        right = convergence_study(cfg)
        wrong = convergence_study(cfg, rates=(lambda T: math.exp(2 * T),) * 2)
        assert right.stabilized1
        wrong_norm = [r.normalized_median1 for r in wrong.rows]
        assert wrong_norm[-1] > 10.0 * wrong_norm[0]

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
