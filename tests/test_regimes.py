import math

import numpy as np
import pytest

from car2 import (
    ModelParams,
    RegimeKind,
    char_roots,
    classify,
    nlrr_rate,
    rate_functions,
    scaling_matrix,
    sufficient_stats,
)
from car2.regimes import NoNlrrError, rotation_template

from conftest import REGIME_POINTS, sorted_regime_points


def setup_regime(name):
    t1, t2, _ = REGIME_POINTS[name]
    roots = char_roots(ModelParams(theta1=t1, theta2=t2))
    return roots, classify(roots)


def spec_for(name):
    roots, regime = setup_regime(name)
    return rate_functions(regime), roots


class TestRateFunctions:
    def test_ergodic_rate(self):
        spec, _ = spec_for("Ergodic")
        assert spec.v1(100.0) == pytest.approx(math.sqrt(300.0))
        assert spec.v2(100.0) == pytest.approx(math.sqrt(300.0))
        assert spec.label1 == "Normal" and spec.label2 == "Normal"

    def test_positive_double_rate(self):
        spec, _ = spec_for("PositiveDouble")  # q = 1
        assert spec.v1(7.0) == pytest.approx(math.exp(7.0) / 7.0)
        assert spec.label1 == "Cauchy-type"

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
        assert spec.label1 == "Normal" and spec.label2 == "F1(w)"

    def test_smaller_root_zero_rates(self):
        spec, _ = spec_for("SmallerRootZero")  # theta1 = p = 1
        assert spec.v1(8.0) == pytest.approx(8.0)
        assert spec.v2(8.0) == pytest.approx(8.0)

    def test_harmonic_and_unstable(self):
        spec, _ = spec_for("Harmonic")
        assert spec.v1(3.0) == pytest.approx(3.0) and spec.label1 == "F2(w)"
        spec_u, _ = spec_for("UnstableOscillation")  # lam = 0.25
        assert spec_u.v1(8.0) == pytest.approx(math.exp(2.0))
        assert spec_u.label1 == "Many"

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
            spec, _ = spec_for(name)
            assert (spec.label1, spec.label2, spec.nlrr, spec.llr_label) == row

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
