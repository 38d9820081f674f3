import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from car2 import (
    ModelParams,
    SingularDesignError,
    estimate_path,
    estimate_sigma,
    rescale_time,
    simulate,
    sufficient_stats,
)
from car2.estimate import Estimate, _block_columns, _map_rows, _solve
from car2.simulate import SamplePath, simulate_exact

from conftest import sorted_regime_points
from oracles import (gram_det, log_likelihood_ratio, mle, normalized_llr, per_path_estimate,
                     reconstructed_stats, residual_oracle, wiener_numerator)

# Fixed example sequence, small enough to keep the suite fast.
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)


def linear_path(T=2.0, n=200, sigma=0.0):
    """Deterministic path X(t) = t, X' = 1."""
    params = ModelParams(theta1=0.0, theta2=0.0, sigma=sigma, x0=0.0, dx0=1.0)
    return simulate(params, T, n)


class TestSufficientStats:
    def test_linear_path_values(self):
        stats = sufficient_stats(linear_path())
        assert stats.sxv == pytest.approx(2.0)
        assert stats.svv == pytest.approx(2.0)
        assert stats.ixdv == pytest.approx(2.0 * 1.0 - 0.0 - 2.0)
        assert stats.ivdv == pytest.approx(0.0)
        assert stats.sxx == pytest.approx(8.0 / 3.0, rel=1e-4)

    def test_constant_path_values(self):
        params = ModelParams(theta1=0.0, theta2=0.0, sigma=0.0, x0=1.0, dx0=0.0)
        stats = sufficient_stats(simulate(params, 1.0, 100))
        assert stats.sxx == pytest.approx(1.0)
        assert stats.svv == 0.0
        assert stats.sxv == 0.0
        assert stats.ixdv == 0.0
        assert stats.ivdv == 0.0

    def test_trapezoid_vs_identity_consistency(self, make_path):
        # trapezoid int X X' dt agrees with the exact boundary identity.
        path = make_path(-3.0, -2.0, horizon=20.0, n_steps=100_000)
        w = np.full(len(path.t), path.step)
        w[0] = w[-1] = path.step / 2
        direct = float((path.x * path.v) @ w)
        stats = sufficient_stats(path)
        scale = max(1.0, abs(stats.sxv))
        assert abs(direct - stats.sxv) <= 1e-3 * scale

    def test_cauchy_schwarz(self, make_path):
        for seed in range(5):
            stats = sufficient_stats(make_path(-1.0, -2.0, seed=seed))
            assert stats.sxv**2 <= stats.sxx * stats.svv * (1 + 1e-12)


class TestMle:
    def test_noiseless_recovery(self):
        # p = 2, q = 1 noiseless path: quadrature error only.
        params = ModelParams(theta1=3.0, theta2=-2.0, sigma=0.0, x0=1.0, dx0=0.0)
        path = simulate(params, 5.0, 1_000_000)
        est = mle(sufficient_stats(path))
        assert est.theta1_hat == pytest.approx(3.0, rel=1e-4)
        assert est.theta2_hat == pytest.approx(-2.0, rel=1e-4)

    def test_singular_on_zero_path(self):
        params = ModelParams(theta1=0.0, theta2=0.0, sigma=0.0, x0=0.0, dx0=0.0)
        path = simulate(params, 1.0, 50)
        with pytest.raises(SingularDesignError) as err:
            mle(sufficient_stats(path))
        assert err.value.det <= err.value.threshold

    def test_singular_on_constant_path(self):
        params = ModelParams(theta1=0.0, theta2=0.0, sigma=0.0, x0=1.0, dx0=0.0)
        path = simulate(params, 1.0, 50)
        with pytest.raises(SingularDesignError):
            mle(sufficient_stats(path))
        with pytest.raises(SingularDesignError):
            estimate_path(path)

    def test_psi_symmetric(self, make_path):
        est = mle(sufficient_stats(make_path(-3.0, -2.0)))
        assert est.psi[0, 1] == est.psi[1, 0]
        assert est.det_D >= 0

    def test_estimate_path_matches_mle_in_benign_regime(self, make_path):
        # Same estimator, two evaluations; differences are O(h) discretization.
        diffs = []
        for n_steps, h in ((2_000, 5e-3), (20_000, 5e-4)):
            path = make_path(-3.0, -2.0, horizon=10.0, n_steps=n_steps, seed=31)
            a = mle(sufficient_stats(path))
            b = estimate_path(path)
            diffs.append(abs(a.theta1_hat - b.theta1_hat)
                         + abs(a.theta2_hat - b.theta2_hat))
        assert diffs[0] < 0.05
        assert diffs[1] < diffs[0]

    def test_rescaling_covariance(self, make_path):
        # (theta1_hat, theta2_hat) -> (a*theta1_hat, a^2*theta2_hat).
        path = make_path(-3.0, -2.0, horizon=8.0, n_steps=4_000, seed=17)
        base = mle(sufficient_stats(path))
        for alpha in (0.5, 2.0, 10.0):
            scaled = mle(sufficient_stats(rescale_time(path, alpha)))
            assert scaled.theta1_hat == pytest.approx(alpha * base.theta1_hat, rel=1e-10)
            assert scaled.theta2_hat == pytest.approx(alpha**2 * base.theta2_hat, rel=1e-10)

    def test_rescaling_covariance_path_estimator(self, make_path):
        path = make_path(0.5, -0.3, horizon=6.0, n_steps=3_000, seed=23)
        base = estimate_path(path)
        for alpha in (0.5, 2.0, 10.0):
            scaled = estimate_path(rescale_time(path, alpha))
            assert scaled.theta1_hat == pytest.approx(alpha * base.theta1_hat, rel=1e-10)
            assert scaled.theta2_hat == pytest.approx(alpha**2 * base.theta2_hat, rel=1e-10)

    def test_sigma_perturbation_vanishes_with_h(self, make_path):
        # sigma enters only through IVdV; the sensitivity of theta_hat to a
        # relative sigma perturbation of size h decays like h.
        deltas = []
        for h in (0.02, 0.01, 0.005):
            n = int(round(10.0 / h))
            path = make_path(-3.0, -2.0, horizon=10.0, n_steps=n, seed=41)
            stats = sufficient_stats(path)
            perturbed = SamplePath(t=path.t.copy(), x=path.x.copy(), v=path.v.copy(),
                                   dw=None, sigma=path.sigma * (1 + h),
                                   params=path.params)
            stats_p = sufficient_stats(perturbed)
            a, b = mle(stats), mle(stats_p)
            deltas.append(abs(a.theta1_hat - b.theta1_hat)
                          + abs(a.theta2_hat - b.theta2_hat))
        assert deltas[2] < deltas[1] < deltas[0]
        assert deltas[2] < 0.5 * deltas[0]


class TestEstimateKeepsStats:
    """Both estimators keep the one set of path functionals they solved from."""

    @pytest.mark.parametrize("name,point", sorted_regime_points())
    def test_estimate_path_returns_sufficient_stats(self, name, point, make_path):
        t1, t2, horizon = point
        path = make_path(t1, t2, horizon=horizon, n_steps=500, seed=5)
        est = estimate_path(path)
        stats = sufficient_stats(path)
        assert est.stats == stats
        assert np.array_equal(est.psi, stats.psi())

    def test_mle_keeps_its_stats(self, make_path):
        stats = sufficient_stats(make_path(-3.0, -2.0))
        est = mle(stats)
        assert est.stats is stats
        assert np.array_equal(est.psi, stats.psi())


def _bits(*values) -> bytes:
    return np.array(values, dtype=float).tobytes()


def _per_path(path):
    """per_path_estimate's outcome: Estimate, or the exception it raised."""
    try:
        return per_path_estimate(path)
    except (SingularDesignError, OverflowError) as exc:
        return exc


ROW_KINDS = ("constant", "huge", "overflow", "path", "zero")


def _row(kind, x, v):
    """A row of a mixed block, made from a simulated path's (x, v): constant
    (det = 0), scaled so the sums overflow to inf (NaN estimates), scaled so
    that Python's sxv**2 raises OverflowError, kept, or zeroed (SXX = 0)."""
    if kind == "constant":
        return np.full_like(x, 1.5), np.zeros_like(v)
    scale = {"huge": 1e200, "overflow": 1e100, "path": 1.0, "zero": 0.0}[kind]
    return x * scale, v * scale


def _nth_row(est, i):
    """Row i of a columnar Estimate, in Python floats."""
    return _map_rows(est, lambda col: col[i].item())


class TestEstimateBlock:
    @PROPERTY
    @given(point=st.sampled_from(sorted_regime_points()), seed=st.integers(0, 2**32),
           n_steps=st.integers(2, 40),
           kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=8),
           cuts=st.lists(st.integers(0, 8), max_size=2))
    def test_rows_equal_per_path_oracle(self, point, seed, n_steps, kinds, cuts):
        # The rows are split into one to three blocks at the cut points, so
        # the columns are joined before the solve.
        t1, t2, horizon = point[1]
        params = ModelParams(theta1=t1, theta2=t2, sigma=1.0, x0=0.3, dx0=-0.2)
        (blk,) = simulate_exact(params, horizon, n_steps, range(len(kinds)), seed=seed)
        x, v = blk.x.copy(), blk.v.copy()
        for i, kind in enumerate(kinds):
            x[i], v[i] = _row(kind, x[i], v[i])
        bounds = [0, *sorted(min(c, len(kinds)) for c in cuts), len(kinds)]
        cols = np.concatenate([_block_columns(blk.t, x[a:b], v[a:b])
                               for a, b in zip(bounds, bounds[1:])], axis=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = [_per_path(SamplePath(blk.t, x[i].copy(), v[i].copy(), None, 1.0, params))
                    for i in range(len(kinds))]
        if any(isinstance(w, OverflowError) for w in want):
            with pytest.raises(OverflowError):
                _solve(cols, float(blk.t[-1]), 1.0)
            return
        est, threshold = _solve(cols, float(blk.t[-1]), 1.0)
        assert est.theta1_hat.shape == threshold.shape == (len(kinds),)
        for i, w in enumerate(want):
            g = _nth_row(est, i)
            assert (g.det_D <= threshold[i]) == isinstance(w, SingularDesignError)
            if isinstance(w, SingularDesignError):
                assert _bits(g.det_D, threshold[i]) == _bits(w.det, w.threshold)
            else:
                assert g.cond_flag == w.cond_flag
                assert (_bits(g.theta1_hat, g.theta2_hat, g.det_D)
                        == _bits(w.theta1_hat, w.theta2_hat, w.det_D))
                assert _bits(*dataclasses.astuple(g.stats)) == _bits(*dataclasses.astuple(w.stats))

    def test_every_row_kind_reached(self):
        # Each row kind reaches its outcome, so the property above covers
        # estimates, both singular branches, NaN estimates and the
        # OverflowError of sxv**2.
        params = ModelParams(theta1=-3.0, theta2=-2.0, sigma=1.0, x0=0.3, dx0=-0.2)
        path = simulate(params, 5.0, 30, seed=1)
        outcomes = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for kind in ROW_KINDS:
                outcomes[kind] = _per_path(SamplePath(path.t, *_row(kind, path.x, path.v),
                                                      None, 1.0, params))
        assert isinstance(outcomes["path"], Estimate)
        assert outcomes["zero"].det == 0.0 and outcomes["constant"].det == 0.0
        assert isinstance(outcomes["constant"], SingularDesignError)
        assert math.isnan(outcomes["huge"].theta1_hat)
        assert isinstance(outcomes["overflow"], OverflowError)

    def test_estimate_path_is_one_row(self, make_path):
        # On this path libm's pow(r(T), 2) is not r(T) * r(T) rounded, so
        # the solve must square the endpoints with ** as the per-path solve did.
        path = make_path(0.0, -1.0, horizon=20.0, n_steps=500, seed=31)
        est, _ = _solve(_block_columns(path.t, path.x[None], path.v[None]), path.horizon,
                        path.sigma)
        row = _nth_row(est, 0)
        want = per_path_estimate(path)
        assert row == estimate_path(path)
        assert _bits(row.theta1_hat, row.theta2_hat) == _bits(want.theta1_hat, want.theta2_hat)


class TestEstimateSigma:
    def test_recovers_sigma_free_motion(self, make_path):
        path = make_path(0.0, 0.0, sigma=2.0, horizon=1.0, n_steps=100_000, x0=0.0, dx0=0.0)
        assert estimate_sigma(path) == pytest.approx(2.0, rel=0.02)

    def test_recovers_sigma_ergodic(self, make_path):
        path = make_path(-3.0, -2.0, sigma=1.0, horizon=10.0, n_steps=1_000_000)
        assert estimate_sigma(path) == pytest.approx(1.0, rel=0.01)

    def test_noiseless_smooth_path_vanishes_sqrt_h(self):
        # Increments are O(h), so sum dv^2 ~ T h rms(x'')^2 and
        # sigma_hat ~ sqrt(h) * rms(x'').  Quartering h halves sigma_hat.
        params = ModelParams(theta1=0.0, theta2=-1.0, sigma=0.0, x0=1.0, dx0=0.0)
        values = []
        for n in (100, 400, 1600):
            path = simulate(params, 2.0, n)
            values.append(estimate_sigma(path))
        assert values[0] < 0.2
        assert values[1] == pytest.approx(values[0] / 2, rel=0.05)
        assert values[2] == pytest.approx(values[0] / 4, rel=0.05)

    def test_one_step_path_rejected(self):
        path = simulate(ModelParams(theta1=-3.0, theta2=-2.0), 1.0, 1)
        with pytest.raises(ValueError, match="need at least 2 steps"):
            estimate_sigma(path)


class TestLikelihoodRatio:
    def test_zero_at_reference(self, make_path):
        stats = sufficient_stats(make_path(-3.0, -2.0))
        assert log_likelihood_ratio(stats, (-2.0, -3.0), (-2.0, -3.0)) == 0.0

    def test_maximized_at_mle(self, make_path):
        stats = sufficient_stats(make_path(-3.0, -2.0, horizon=10.0, n_steps=2_000))
        est = mle(stats)
        peak = np.array([est.theta2_hat, est.theta1_hat])
        best = log_likelihood_ratio(stats, (-2.0, -3.0), peak)
        rng = np.random.default_rng(5)
        for _ in range(50):
            other = peak + rng.normal(scale=0.1, size=2)
            assert log_likelihood_ratio(stats, (-2.0, -3.0), other) <= best + 1e-10
        # Stationarity: the gradient residual of the normal equations ~ 0.
        grad = np.array([stats.ixdv, stats.ivdv]) - est.psi @ peak
        assert np.abs(grad).max() <= 1e-10 * max(1.0, abs(stats.ixdv), abs(stats.ivdv))

    def test_two_evaluation_orders_agree(self, make_path):
        stats = sufficient_stats(make_path(-3.0, -2.0, seed=3))
        ref, alt = (-2.0, -3.0), (-2.1, -3.1)
        value = log_likelihood_ratio(stats, ref, alt)
        s2 = stats.sigma_used**2
        linear = ((alt[0] - ref[0]) * stats.ixdv + (alt[1] - ref[1]) * stats.ivdv) / s2
        quad = ((alt[0] ** 2 - ref[0] ** 2) * stats.sxx
                + 2 * (alt[0] * alt[1] - ref[0] * ref[1]) * stats.sxv
                + (alt[1] ** 2 - ref[1] ** 2) * stats.svv) / (2 * s2)
        assert value == pytest.approx(linear - quad, rel=1e-10)

    def test_sigma_zero_rejected(self):
        stats = sufficient_stats(linear_path())
        with pytest.raises(ValueError):
            log_likelihood_ratio(stats, (0.0, 0.0), (1.0, 1.0))

    def test_normalized_llr_zeros(self, make_path):
        stats = sufficient_stats(make_path(-3.0, -2.0))
        theta = (-2.0, -3.0)
        assert normalized_llr(stats, theta, np.eye(2), (0.0, 0.0)) == 0.0
        assert normalized_llr(stats, theta, np.zeros((2, 2)), (1.3, -0.7)) == 0.0

    def test_normalized_llr_matches_shifted_ratio(self, make_path):
        stats = sufficient_stats(make_path(-3.0, -2.0))
        theta = np.array([-2.0, -3.0])
        a_t = np.array([[0.1, 0.0], [0.05, 0.2]])
        u = np.array([0.3, -0.4])
        direct = log_likelihood_ratio(stats, theta, theta + a_t @ u)
        assert normalized_llr(stats, theta, a_t, u) == direct

    def test_ergodic_lan_mean(self):
        # E l_T(u) ~ -(1/2 s^2) u' E[Psi_T/T] u with A_T = diag(T^-1/2).
        # Stationary moments: E X'^2 = s^2/(2|t1|), E X^2 = E X'^2 / |t2|.
        t1, t2, sigma, T = -3.0, -2.0, 1.0, 200.0
        params = ModelParams(theta1=t1, theta2=t2, sigma=sigma)
        m_v = sigma**2 / (2 * abs(t1))
        m_x = m_v / abs(t2)
        u = np.array([0.7, -0.5])
        expected = -(u[0] ** 2 * m_x + u[1] ** 2 * m_v) / (2 * sigma**2)
        a_t = np.diag([T**-0.5, T**-0.5])
        n_reps = 400
        vals = []
        for blk in simulate_exact(params, T, 20_000, range(n_reps), seed=29):
            for x, v in zip(blk.x, blk.v):  # row k is simulate(..., seed=29, rep=k)
                path = SamplePath(blk.t, x, v, None, sigma, params)
                vals.append(normalized_llr(sufficient_stats(path), (t2, t1), a_t, u))
        vals = np.array(vals)
        band = 4.0 * vals.std() / math.sqrt(n_reps)
        assert abs(vals.mean() - expected) <= band


class TestResidualOracle:
    @pytest.mark.parametrize("name,point", sorted_regime_points())
    def test_oracle_equals_mle_residual(self, name, point, make_path):
        # Exact algebraic identity when both sides use the same discrete sums.
        t1, t2, horizon = point
        for seed in range(3):
            path = make_path(t1, t2, horizon=min(horizon, 6.0), n_steps=600, seed=seed)
            delta1, delta2 = residual_oracle(path, (t2, t1))
            est = mle(reconstructed_stats(path, (t2, t1)))
            scale1 = max(1.0, abs(delta1))
            scale2 = max(1.0, abs(delta2))
            assert abs((est.theta1_hat - t1) - delta1) <= 1e-9 * scale1
            assert abs((est.theta2_hat - t2) - delta2) <= 1e-9 * scale2

    def test_noiseless_residual_zero(self):
        params = ModelParams(theta1=-1.0, theta2=-1.0, sigma=0.0, x0=1.0, dx0=0.5)
        path = simulate(params, 4.0, 400, record_noise=True)
        delta1, delta2 = residual_oracle(path, (-1.0, -1.0))
        assert delta1 == pytest.approx(0.0, abs=1e-12)
        assert delta2 == pytest.approx(0.0, abs=1e-12)

    def test_requires_noise(self, make_path):
        path = make_path(-1.0, -1.0)
        stripped = SamplePath(t=path.t.copy(), x=path.x.copy(), v=path.v.copy(),
                              dw=None, sigma=path.sigma, params=path.params)
        with pytest.raises(ValueError):
            residual_oracle(stripped, (-1.0, -1.0))

    def test_bilinearity_identities(self):
        # D(T; af+bg, cf+kg) = (ak-bc)^2 D(T;f,g) and the N counterpart.
        rng = np.random.default_rng(11)
        f, g, dw = rng.normal(size=(3, 257))
        h, sigma = 0.01, 1.3
        a, b, c, k = 1.7, -0.4, 0.9, 2.2
        f2, g2 = a * f + b * g, c * f + k * g
        lhs = gram_det(f2, g2, h)
        rhs = (a * k - b * c) ** 2 * gram_det(f, g, h)
        assert lhs == pytest.approx(rhs, rel=1e-10)
        n_lhs = wiener_numerator(f2, g2, dw, sigma, h)
        n_f = wiener_numerator(f, g, dw, sigma, h)
        n_g = wiener_numerator(g, f, dw, sigma, h)
        n_rhs = (a**2 * k - a * b * c) * n_f + (b**2 * c - a * b * k) * n_g
        assert n_lhs == pytest.approx(n_rhs, rel=1e-10)

    def test_gram_det_symmetric(self):
        rng = np.random.default_rng(12)
        f, g = rng.normal(size=(2, 100))
        assert gram_det(f, g, 0.1) == pytest.approx(gram_det(g, f, 0.1), rel=1e-12)


class TestConsistency:
    @pytest.mark.parametrize("name,point", sorted_regime_points())
    def test_median_error_shrinks_with_horizon(self, name, point):
        # Strong consistency at desk scale: median |theta_hat - theta| falls
        # from T0 to 4*T0.
        t1, t2, horizon = point
        t0 = horizon / 4.0
        params = ModelParams(theta1=t1, theta2=t2, sigma=1.0, x0=0.3, dx0=-0.2)
        medians = []
        for T in (t0, 4.0 * t0):
            errs = []
            for k in range(100):
                est = estimate_path(simulate(params, T, max(60, int(T * 100)), seed=71,
                                             rep=k))
                errs.append(abs(est.theta1_hat - t1) + abs(est.theta2_hat - t2))
            medians.append(np.median(errs))
        assert medians[1] < medians[0]


class TestRescaleEquivariance:
    """estimate_path(rescale_time(path, alpha)) = (alpha th1, alpha^2 th2).

    In exact arithmetic every quantity estimate_path forms from the rescaled
    path is a power of alpha times the original one, so the estimator is
    equivariant exactly.  Not bit for bit, even for alpha a power of two:
    the endpoint squares r**2 go through libm pow, which may round x**2 and
    (4x)**2 differently.
    """

    N_STEPS = 500

    @PROPERTY
    @given(point=st.sampled_from(sorted_regime_points()), rep=st.integers(0, 30),
           alpha=st.floats(0.25, 4.0))
    def test_any_alpha_within_rounding(self, point, rep, alpha):
        # Rescaling rounds v, t and sigma once each, and each evaluation
        # rounds its own (n + 1)-term trapezoid sums: the functionals then
        # differ by O(n eps) relative.  The 2x2 solve and the Ito endpoint
        # terms cancel by a path-dependent factor, which stayed below 3 on
        # every regime point for n from 100 to 2,000 (OppositeSign, the worst,
        # 2.1 over 1,500 draws at n = 500); 16 leaves a margin of five.
        # Errors are measured on the rate scale w = |th1| + sqrt|th2| (th1
        # has units 1/time, th2 1/time^2), not relative to a th that may be ~0.
        t1, t2, horizon = point[1]
        params = ModelParams(theta1=t1, theta2=t2, sigma=1.0, x0=0.3, dx0=-0.2)
        path = simulate(params, horizon, self.N_STEPS, seed=31, rep=rep)
        est, scaled = estimate_path(path), estimate_path(rescale_time(path, alpha))
        w = abs(est.theta1_hat) + math.sqrt(abs(est.theta2_hat))
        tol = 16 * self.N_STEPS * np.finfo(float).eps
        assert abs(scaled.theta1_hat - alpha * est.theta1_hat) <= tol * alpha * w
        assert abs(scaled.theta2_hat - alpha**2 * est.theta2_hat) <= tol * (alpha * w)**2
