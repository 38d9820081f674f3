import math

import numpy as np
import pytest

from car2 import (
    ExperimentConfig,
    ModelParams,
    RegimeKind,
    char_roots,
    classify,
    classify_params,
    nlrr_rate,
    rate_functions,
    scaling_matrix,
    sufficient_stats,
)
from car2.montecarlo import _replicate
from car2.regimes import RECORDS, NoNlrrError, rotation_template

from conftest import REGIME_POINTS, sorted_regime_points


def setup_regime(name):
    t1, t2, _ = REGIME_POINTS[name]
    roots = char_roots(ModelParams(theta1=t1, theta2=t2))
    return roots, classify(roots)


def spec_for(name):
    roots, regime = setup_regime(name)
    return rate_functions(regime), roots


def record_for(name):
    return RECORDS[setup_regime(name)[1].tag]


class TestRateFunctions:
    def test_ergodic_rate(self):
        spec, _ = spec_for("Ergodic")
        assert spec.v1(100.0) == pytest.approx(math.sqrt(300.0))
        assert spec.v2(100.0) == pytest.approx(math.sqrt(300.0))
        record = record_for("Ergodic")
        assert record.label1 == "Normal" and record.label2 == "Normal"

    def test_positive_double_rate(self):
        spec, _ = spec_for("PositiveDouble")  # q = 1
        assert spec.v1(7.0) == pytest.approx(math.exp(7.0) / 7.0)
        assert record_for("PositiveDouble").label1 == "Cauchy-type"

    def test_zero_double_rates(self):
        spec, _ = spec_for("ZeroDouble")
        assert spec.v1(9.0) == pytest.approx(9.0)
        assert spec.v2(9.0) == pytest.approx(81.0)

    def test_opposite_sign_rate(self):
        spec, roots = spec_for("OppositeSign")
        q = abs(roots.q.real)
        assert spec.v1(50.0) == pytest.approx(math.sqrt(50.0 * q))

    def test_distinct_positive_rate(self):
        spec, roots = spec_for("DistinctPositive")  # q = 1
        assert spec.v1(200.0) == pytest.approx(math.exp(200.0))

    def test_larger_root_zero_rates(self):
        spec, _ = spec_for("LargerRootZero")  # theta1 = q = -2
        assert spec.v1(8.0) == pytest.approx(math.sqrt(16.0))
        assert spec.v2(8.0) == pytest.approx(8.0)
        record = record_for("LargerRootZero")
        assert record.label1 == "Normal" and record.label2 == "F1(w)"

    def test_smaller_root_zero_rates(self):
        spec, _ = spec_for("SmallerRootZero")  # theta1 = p = 1
        assert spec.v1(8.0) == pytest.approx(8.0)
        assert spec.v2(8.0) == pytest.approx(8.0)

    def test_harmonic_and_unstable(self):
        spec, _ = spec_for("Harmonic")
        assert spec.v1(3.0) == pytest.approx(3.0) and record_for("Harmonic").label1 == "F2(w)"
        spec_u, _ = spec_for("UnstableOscillation")  # lam = 0.25
        assert spec_u.v1(8.0) == pytest.approx(math.exp(2.0))
        assert record_for("UnstableOscillation").label1 == "Many"

    def test_registry_complete_and_labels(self):
        # Every regime maps to exactly one row of the rate/label table.
        expected = {
            "Ergodic": ("Normal", "Normal", "yes", "LAN"),
            "OppositeSign": ("Normal", "Normal", "yes", "DLAMN"),
            "DistinctPositive": ("Cauchy-type", "Cauchy-type", "yes", "DLAMN"),
            "PositiveDouble": ("Cauchy-type", "Cauchy-type", "yes", "DLAMN"),
            "LargerRootZero": ("Normal", "F1(w)", "theta1_only", "LABF/LAN"),
            "SmallerRootZero": ("F1(w)", "F1(w)", "no", "DLAMN"),
            "ZeroDouble": ("F1(w)", "F1(w)", "no", "LABF"),
            "Harmonic": ("F2(w)", "F2(w)", "no", "LABF"),
            "UnstableOscillation": ("Many", "Many", "yes", "LAMN-family"),
        }
        for name, row in expected.items():
            record = record_for(name)
            assert (record.label1, record.label2, record.nlrr, record.llr_label) == row

    def test_rates_monotone_divergent(self):
        # v(2T)/v(T) > 1 on a grid covering each regime's usable range.
        for name in REGIME_POINTS:
            spec, _ = spec_for(name)
            for T in (2.0, 5.0, 10.0, 20.0):
                assert spec.v1(2 * T) > spec.v1(T)
                assert spec.v2(2 * T) > spec.v2(T)
            assert spec.v1(400.0) > spec.v1(200.0)


class TestNlrr:
    def stats_for(self, name, seed=3):
        from car2 import simulate

        t1, t2, horizon = REGIME_POINTS[name]
        params = ModelParams(theta1=t1, theta2=t2, sigma=1.0, x0=0.3, dx0=-0.2)
        path = simulate(params, horizon, 500, seed=seed)
        return sufficient_stats(path)

    def test_availability_matches_table(self):
        available = {}
        for name in REGIME_POINTS:
            roots, regime = setup_regime(name)
            stats = self.stats_for(name)
            try:
                rates = nlrr_rate(regime, stats)
                available[name] = "theta1_only" if rates.r2 is None else "yes"
            except NoNlrrError:
                available[name] = "no"
        assert available == {
            "Ergodic": "yes",
            "OppositeSign": "yes",
            "DistinctPositive": "yes",
            "PositiveDouble": "yes",
            "LargerRootZero": "theta1_only",
            "SmallerRootZero": "no",
            "ZeroDouble": "no",
            "Harmonic": "no",
            # scalar form unavailable; matrix normalization only
            "UnstableOscillation": "no",
        }

    def test_ergodic_values(self):
        roots, regime = setup_regime("Ergodic")
        stats = self.stats_for("Ergodic")
        rates = nlrr_rate(regime, stats)
        assert rates.r1 == pytest.approx(math.sqrt(stats.svv))
        assert rates.r2 == pytest.approx(math.sqrt(stats.sxx))

    def test_projection_rate_formula(self):
        roots, regime = setup_regime("OppositeSign")
        stats = self.stats_for("OppositeSign")
        rates = nlrr_rate(regime, stats)
        p = roots.p.real
        expected = math.sqrt(stats.svv - 2 * p * stats.sxv + p * p * stats.sxx)
        assert rates.r1 == pytest.approx(expected)
        assert rates.r2 == rates.r1

    def test_degenerate_stats_flag_zero(self):
        # X identically zero gives r = 0: unusable but well-defined.
        from car2.estimate import SufficientStats

        roots, regime = setup_regime("OppositeSign")
        p = roots.p.real
        stats = SufficientStats(sxx=0.0, svv=0.0, sxv=0.0, ixdv=0.0, ivdv=0.0,
                                horizon=10.0, x0=0.0, v0=0.0, x_end=0.0, v_end=0.0,
                                sigma_used=1.0)
        rates = nlrr_rate(regime, stats)
        assert rates.r1 == 0.0


class TestScalingMatrix:
    def test_ergodic_diagonal(self):
        roots, regime = setup_regime("Ergodic")
        np.testing.assert_allclose(scaling_matrix(regime, 100.0),
                                   np.diag([0.1, 0.1]))

    def test_explosive_outer_product(self):
        roots, regime = setup_regime("DistinctPositive")  # p = 2
        a_t = scaling_matrix(regime, 3.0)
        expected = math.exp(-6.0) * np.array([[1.0, 2.0], [2.0, 4.0]])
        np.testing.assert_allclose(a_t, expected, rtol=1e-12)

    def test_outer_product_idempotent_scaling(self):
        # (b_p b_p^T)^2 = (1 + p^2) b_p b_p^T
        for p in (0.5, 1.0, 2.0, 3.7):
            b = np.array([1.0, p])
            outer = np.outer(b, b)
            np.testing.assert_allclose(outer @ outer, (1 + p * p) * outer, rtol=1e-12)

    def test_double_root_includes_t_factor(self):
        roots, regime = setup_regime("PositiveDouble")  # p = q = 1
        a_t = scaling_matrix(regime, 4.0)
        expected = math.exp(-4.0) / 4.0 * np.array([[1.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(a_t, expected, rtol=1e-12)

    def test_mixed_and_functional_diagonals(self):
        roots, regime = setup_regime("LargerRootZero")
        np.testing.assert_allclose(scaling_matrix(regime, 16.0),
                                   np.diag([1.0 / 16.0, 0.25]))
        roots, regime = setup_regime("ZeroDouble")
        np.testing.assert_allclose(scaling_matrix(regime, 4.0),
                                   np.diag([1.0 / 16.0, 0.25]))
        roots, regime = setup_regime("Harmonic")
        np.testing.assert_allclose(scaling_matrix(regime, 5.0),
                                   np.diag([0.2, 0.2]))

    def test_unstable_oscillation_matrix(self):
        roots, regime = setup_regime("UnstableOscillation")  # lam=.25, nu=1
        a_t = scaling_matrix(regime, 8.0)
        expected = math.exp(-2.0) * np.array([[1.0, 0.0], [0.25, -1.0]])
        np.testing.assert_allclose(a_t, expected, rtol=1e-12)

    def test_rotation_template(self):
        b = rotation_template(0.6, 0.8)
        np.testing.assert_allclose(b, np.array([[0.6, 0.8], [-0.8, 0.6]]))
        # inverse relation: B(x,y) @ [[x,-y],[y,x]] = I
        inv = np.array([[0.6, -0.8], [0.8, 0.6]])
        np.testing.assert_allclose(b @ inv, np.eye(2), atol=1e-15)
        with pytest.raises(ValueError):
            rotation_template(0.0, 0.0)

    def test_rotation_template_stacks(self):
        x, y = np.array([[0.6, -1.5, 2.0]]), np.array([[0.8, 0.25, 0.0]])
        b = rotation_template(x, y)
        assert b.shape == (1, 3, 2, 2) and b.flags.c_contiguous
        for i in range(3):
            assert np.array_equal(b[0, i], rotation_template(x[0, i], y[0, i]))
        with pytest.raises(ValueError):
            rotation_template(np.array([1.0, 0.0]), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("horizon", [0.0, -1.0])
    def test_non_positive_horizon_rejected(self, horizon):
        _, regime = setup_regime("Ergodic")
        with pytest.raises(ValueError, match="horizon must be positive"):
            scaling_matrix(regime, horizon)

    def test_smaller_root_zero_uses_dominant_root(self):
        roots, regime = setup_regime("SmallerRootZero")  # p = 1
        a_t = scaling_matrix(regime, 2.0)
        expected = math.exp(-2.0) * np.array([[1.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(a_t, expected, rtol=1e-12)


# (theta1, theta2) and the two horizons of each label check.
LABEL_CASES = {
    "Ergodic": ((-3.0, -2.0), (10.0, 40.0)),
    "OppositeSign": ((1.0, 2.0), (6.0, 12.0)),
    "DistinctPositive": ((1.5, -0.5), (8.0, 16.0)),
    "PositiveDouble": ((2.0, -1.0), (8.0, 16.0)),
    "SmallerRootZero": ((1.0, 0.0), (8.0, 16.0)),
    "Harmonic": ((0.0, -1.0), (20.0, 80.0)),
    "ZeroDouble": ((0.0, 0.0), (20.0, 80.0)),
    # J_T reaches its limit law at the relative rate e^{-2 lam T} (lam = 1/4),
    # the variance of the martingale remainder: 2% at T = 8, 3e-4 at T = 16.
    "UnstableOscillation": ((0.5, -1.0625), (16.0, 32.0)),
}


def _cv_ratio(traces: np.ndarray) -> np.ndarray:
    """CV of the second horizon's traces over the first's; traces is (..., 2, reps)."""
    cv = traces.std(axis=-1) / traces.mean(axis=-1)
    return cv[..., 1] / cv[..., 0]


@pytest.mark.parametrize("name", sorted(LABEL_CASES))
def test_llr_label_matches_information_spread(name):
    """The normalized information J_T = A_T Psi_T A_T^T tends to a constant
    under LAN, so the CV of tr J_T falls as T^{-1/2} and the ratio of its
    CVs at T1 < T2 tends to sqrt(T1/T2).  Under the mixed families (DLAMN,
    LABF, LAMN-family) J_T tends to a random limit, and the ratio to 1: in
    the DLAMN regimes e^{-pT} X_T (over T at a double root) converges almost
    surely.  The band is four bootstrap standard errors of the ratio, the
    replications resampled jointly at both horizons.

    The "D" of DLAMN is not checked here: A_T there has rank one by
    construction, so a rank test of J_T would prove nothing; the test below
    checks it by its rate instead.  LargerRootZero
    ("LABF/LAN") is unchecked too: its tr J_T tends to 1/4 + (1/4) int_0^1 B^2,
    a deterministic part plus a random one, so its CV falls from above to
    0.385 at the rate T^{-1/2} and the ratio is not near 1 at feasible T."""
    (theta1, theta2), horizons = LABEL_CASES[name]
    params = ModelParams(theta1=theta1, theta2=theta2, x0=0.3, dx0=-0.2)
    regime = classify_params(params)
    assert regime.tag.value == name
    cfg = ExperimentConfig(params=params, horizons=horizons, n_reps=400, seed=5,
                           steps_per_unit_time=50, comparison="none")
    traces = []
    for horizon, (_, est, status, _) in zip(horizons, _replicate(cfg)):
        assert (status == "ok").all()  # so both horizons hold the same replications
        a_t = scaling_matrix(regime, horizon)
        traces.append(np.trace(a_t @ est.psi @ a_t.T, axis1=1, axis2=2))
    traces = np.stack(traces)
    resampled = traces[:, np.random.default_rng(0).integers(0, 400, (1000, 400))]
    band = 4.0 * _cv_ratio(resampled.swapaxes(0, 1)).std()
    lan = math.sqrt(horizons[0] / horizons[1])
    assert band < 1.0 - lan  # the band excludes the other family's ratio
    expected = lan if RECORDS[regime.tag].llr_label == "LAN" else 1.0
    assert abs(_cv_ratio(traces) - expected) <= band


# DLAMN regimes with distinct real roots and p = 1: (theta1, theta2).
DLAMN_CASES = {"OppositeSign": (-1.0, 2.0), "DistinctPositive": (1.5, -0.5),
               "SmallerRootZero": (1.0, 0.0)}


def _log_iqr_slope(horizons, samples) -> float:
    """Least-squares slope of log IQR(sample) against the horizon."""
    iqr = [np.subtract(*np.percentile(z, [75.0, 25.0])) for z in samples]
    return float(np.polyfit(horizons, np.log(iqr), 1)[0])


@pytest.mark.parametrize("name", sorted(DLAMN_CASES))
def test_dlamn_degenerate_direction_shrinks_at_rate_p(name):
    """The "D" of DLAMN: with d_i = theta_i_hat - theta_i, the limit sets
    l2 = -p l1, so d2 + p d1 is of smaller order than d1 and shrinks like
    e^{-pT}, the scale of A_T = e^{-pT} b b^T along b = (1, p).  The slope of
    its log IQR against T is -p within 0.1 p; a direction off by a tenth of
    p, d2 + 0.9 p d1, keeps the order of d1 and falls outside that band.
    600 replications are three simulate_exact blocks, each member horizon
    read off its prefix of the longest one's rows."""
    theta1, theta2 = DLAMN_CASES[name]
    params = ModelParams(theta1=theta1, theta2=theta2, x0=0.3, dx0=-0.2)
    regime = classify_params(params)
    assert regime.tag.value == name
    p = regime.roots.p.real
    assert p == 1.0
    horizons = (4.0, 8.0, 12.0)
    cfg = ExperimentConfig(params=params, horizons=horizons, n_reps=600, seed=5,
                           steps_per_unit_time=50, comparison="none")
    d1, d2 = [], []
    for _, est, status, _ in _replicate(cfg):
        assert (status == "ok").all()
        d1.append(est.theta1_hat - theta1)
        d2.append(est.theta2_hat - theta2)
    slope = _log_iqr_slope(horizons, [b + p * a for a, b in zip(d1, d2)])
    assert abs(slope + p) <= 0.1 * p
    control = _log_iqr_slope(horizons, [b + 0.9 * p * a for a, b in zip(d1, d2)])
    assert abs(control + p) > 0.1 * p
