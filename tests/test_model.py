import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from car2 import ModelParams, Regime, RegimeKind, RootPair, char_roots, classify, transition
from car2.estimate import SufficientStats
from car2.model import (
    DOUBLE_ROOT_SWITCH,
    _fs_distinct,
    _fs_double,
    fundamental_solutions,
)
from car2.regimes import RECORDS, NoNlrrError, nlrr_rate, rate_functions, scaling_matrix

from conftest import REGIME_POINTS, sorted_regime_points

# Fixed example sequence, small enough to keep the suite fast.
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)

# The closed-form noise integrals lose accuracy where the roots are close but
# not close enough for the double-root branch: the distinct branch divides
# second differences of exp(z h) - 1 (computed as exp - 1 above |z h| = 1e-4)
# by ((p - q) h)^2; conjugate pairs never take the double branch however small
# nu is; and _m1/_m2 cancel just above their |w| = 1e-3 series cutoff.
NEAR_DOUBLE_DEFECT = ("transition covariance inaccurate near double roots; a fix moves "
                      "the exact-simulation bits, so it waits for a benchmark change")


def roots_of(theta1, theta2):
    return char_roots(ModelParams(theta1=theta1, theta2=theta2))


def assert_root_identities(t1, t2):
    r = roots_of(t1, t2)
    scale1 = max(1.0, abs(t1))
    scale2 = max(1.0, abs(t2))
    assert abs((r.p + r.q).real - t1) <= 1e-12 * scale1
    assert abs((r.p + r.q).imag) <= 1e-12 * scale1
    assert abs((r.p * r.q).real + t2) <= 1e-12 * scale2
    assert abs((r.p * r.q).imag) <= 1e-12 * scale2
    assert r.p.real >= r.q.real


def quadrature_cov(params, h):
    """The transition covariance with its noise integrals by adaptive quadrature."""
    roots = char_roots(params)

    def x2(u):
        return fundamental_solutions(roots, u).x2

    def dx2(u):
        return fundamental_solutions(roots, u).dx2

    opts = dict(epsabs=1e-14, epsrel=1e-12, limit=400)
    i_x2 = quad(x2, 0.0, h, **opts)[0]
    i_x2sq = quad(lambda u: x2(u) ** 2, 0.0, h, **opts)[0]
    i_dx2sq = quad(lambda u: dx2(u) ** 2, 0.0, h, **opts)[0]
    s, x2_h = params.sigma, x2(h)
    return np.array([
        [h, s * i_x2, s * x2_h],
        [s * i_x2, s * s * i_x2sq, s * s * x2_h * x2_h / 2.0],
        [s * x2_h, s * s * x2_h * x2_h / 2.0, s * s * i_dx2sq],
    ])


class TestCharRoots:
    @pytest.mark.parametrize("theta1,theta2,p,q", [
        (3.0, -2.0, 2.0, 1.0),
        (-3.0, -2.0, -1.0, -2.0),
        (2.0, -1.0, 1.0, 1.0),
    ])
    def test_real_examples(self, theta1, theta2, p, q):
        r = roots_of(theta1, theta2)
        assert r.p == pytest.approx(p)
        assert r.q == pytest.approx(q)
        assert r.p.imag == 0.0 and r.q.imag == 0.0

    def test_harmonic_pair(self):
        r = roots_of(0.0, -1.0)
        assert r.p == pytest.approx(1j)
        assert r.q == pytest.approx(-1j)
        assert r.nu == 1.0

    def test_root_identities_random(self):
        # p + q = theta1 and p*q = -theta2 over the sampled parameter plane.
        rng = np.random.default_rng(20240817)
        thetas = rng.uniform(-10, 10, size=(10_000, 2))
        for t1, t2 in thetas:
            assert_root_identities(t1, t2)

    @PROPERTY
    @given(st.floats(-10, 10), st.floats(-10, 10))
    def test_root_identities_property(self, t1, t2):
        assert_root_identities(t1, t2)

    @PROPERTY
    @example(t1=1e200, t2=0.0, complex_pair=False)
    @example(t1=-1e300, t2=1e308, complex_pair=False)
    @example(t1=1e-300, t2=1e308, complex_pair=True)
    @given(t1=st.floats(-1e308, 1e308), t2=st.floats(-1e308, 1e308), complex_pair=st.booleans())
    def test_roots_of_large_theta(self, t1, t2, complex_pair):
        # Up to |theta| = 1e308, where theta1^2 or 4*theta2 overflows: finite
        # roots whose sum and product give theta back to a few ulps of their
        # scale.  The smaller real root rounds to a multiple of 2^-1074, which
        # costs p*q an absolute 2^-1074 times the larger root.
        if complex_pair:  # theta1^2 < -4*theta2
            t2 = -abs(t2) or -1.0
            t1 = math.copysign(min(abs(t1), 1.99 * math.sqrt(-t2)), t1)
        else:  # theta1^2 >= -4*theta2
            t2 = max(t2, -0.99 * (t1 / 2.0) * (t1 / 2.0))
        r = roots_of(t1, t2)
        assert r.is_complex is complex_pair
        assert all(map(math.isfinite, (r.p.real, r.p.imag, r.q.real, r.q.imag)))
        eps = sys.float_info.epsilon
        assert abs(r.theta1 - t1) <= 8 * eps * (abs(r.p) + abs(r.q))
        assert abs(r.theta2 - t2) <= 8 * eps * abs(t2) + max(abs(r.p), abs(r.q)) * 2.0**-1074

    def test_no_cancellation_for_large_discriminant(self):
        # Small root computed from the product, not by subtraction.
        r = roots_of(1e8, 1.0)
        assert r.p.real == pytest.approx(1e8, rel=1e-12)
        assert r.q.real == pytest.approx(-1e-8, rel=1e-10)


class TestClassify:
    @pytest.mark.parametrize("theta1,theta2,kind", [
        (-3.0, -2.0, RegimeKind.ERGODIC),        # q < p < 0
        (-2.0, -1.0, RegimeKind.ERGODIC),        # double root -1
        (-1.0, -1.0, RegimeKind.ERGODIC),        # complex, lam < 0
        (0.0, 2.0, RegimeKind.OPPOSITE_SIGN),
        (3.0, -2.0, RegimeKind.DISTINCT_POSITIVE),
        (2.0, -1.0, RegimeKind.POSITIVE_DOUBLE),
        (-2.0, 0.0, RegimeKind.LARGER_ROOT_ZERO),
        (1.0, 0.0, RegimeKind.SMALLER_ROOT_ZERO),
        (0.0, 0.0, RegimeKind.ZERO_DOUBLE),
        (0.0, -1.0, RegimeKind.HARMONIC),
        (0.5, -1.0625, RegimeKind.UNSTABLE_OSCILLATION),
    ])
    def test_nine_regimes(self, theta1, theta2, kind):
        assert classify(roots_of(theta1, theta2), 1e-9).tag is kind

    def test_tolerance_snap_double(self):
        r = RootPair(complex(1.0 + 1e-12), complex(1.0))
        assert classify(r, 1e-9).tag is RegimeKind.POSITIVE_DOUBLE

    def test_tolerance_snap_zero(self):
        r = RootPair(complex(1e-12), complex(-2.0))
        assert classify(r, 1e-9).tag is RegimeKind.LARGER_ROOT_ZERO
        # Without snapping the same pair is a sign change.
        assert classify(r, 0.0).tag is RegimeKind.OPPOSITE_SIGN

    def test_snap_small_imaginary_part(self):
        r = RootPair(complex(-1.0, 1e-12), complex(-1.0, -1e-12))
        assert classify(r, 1e-9).tag is RegimeKind.ERGODIC

    @pytest.mark.parametrize("name", sorted(REGIME_POINTS))
    def test_regime_survives_time_rescaling(self, name):
        # (a*theta1, a^2*theta2) has the roots times a: the same regime.
        t1, t2, _ = REGIME_POINTS[name]
        for k in range(-24, 25):
            a = 2.0**k
            assert classify(roots_of(a * t1, a * a * t2)).tag.value == name, f"a = 2^{k}"

    def test_deterministic_function_of_inputs(self):
        r = roots_of(0.3, 0.4)
        assert classify(r, 1e-9) == classify(r, 1e-9)

    @pytest.mark.parametrize("tol", [None, 0.0, 1e-9, 0.5])
    def test_regime_keeps_the_classified_roots(self, tol):
        r = roots_of(0.5, -1.0625)
        assert classify(r, tol).roots is r
        assert Regime._fields == ("tag", "roots")

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -1e-9])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(ValueError, match="tol"):
            classify(roots_of(-3.0, -2.0), tol)


# Dyadic root values: theta = (p + q, -p q) and the roots recovered from
# it are exact, so zero and double roots really are zero and double.
DYADIC_ROOTS = st.sampled_from([-2.0, -1.5, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0])


@st.composite
def dyadic_root_pairs(draw):
    """(theta1, theta2, expected regime) from real or complex dyadic roots."""
    a = draw(DYADIC_ROOTS)
    if draw(st.booleans()):  # a +- i b
        b = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
        kind = (RegimeKind.ERGODIC if a < 0 else
                RegimeKind.HARMONIC if a == 0 else RegimeKind.UNSTABLE_OSCILLATION)
        return 2.0 * a, -(a * a + b * b), kind
    b = draw(DYADIC_ROOTS)
    p, q = max(a, b), min(a, b)
    if p < 0:
        kind = RegimeKind.ERGODIC
    elif p == q:
        kind = RegimeKind.POSITIVE_DOUBLE if p > 0 else RegimeKind.ZERO_DOUBLE
    elif p == 0:
        kind = RegimeKind.LARGER_ROOT_ZERO
    elif q < 0:
        kind = RegimeKind.OPPOSITE_SIGN
    elif q == 0:
        kind = RegimeKind.SMALLER_ROOT_ZERO
    else:
        kind = RegimeKind.DISTINCT_POSITIVE
    return p + q, -p * q, kind


class TestClassifyAgreesWithRegistry:
    @PROPERTY
    @example(case=(-2.0, 0.0, RegimeKind.LARGER_ROOT_ZERO))
    @example(case=(-1.0, -0.25, RegimeKind.ERGODIC))  # double root -1/2
    @given(case=dyadic_root_pairs())
    def test_classify_agrees_with_rate_functions(self, case):
        t1, t2, kind = case
        roots = roots_of(t1, t2)
        regime = classify(roots)
        assert regime.tag is kind
        # The registry reads the regime's own roots and keys every record by
        # its tag.
        spec, record = rate_functions(regime), RECORDS[kind]
        for T in (0.5, 2.0, 10.0):
            for v in (spec.v1, spec.v2):
                assert 0.0 < v(T) < math.inf
            assert np.isfinite(scaling_matrix(regime, T)).all()
        # NLRR availability follows the record; UnstableOscillation's "yes"
        # means the matrix normalization only, so nlrr_rate refuses it.
        stats = SufficientStats(sxx=2.0, svv=3.0, sxv=0.5, ixdv=0.0, ivdv=0.0,
                                horizon=10.0, x0=0.0, v0=0.0, x_end=1.0, v_end=1.0,
                                sigma_used=1.0)
        if record.nlrr == "no" or kind is RegimeKind.UNSTABLE_OSCILLATION:
            with pytest.raises(NoNlrrError):
                nlrr_rate(regime, stats)
        else:
            rates = nlrr_rate(regime, stats)
            assert (rates.r2 is None) == (record.nlrr == "theta1_only")


class TestFundamentalSolutions:
    def test_initial_conditions_all_regimes(self):
        for _, (t1, t2, _) in sorted_regime_points():
            fs = fundamental_solutions(roots_of(t1, t2), 0.0)
            assert (fs.x1, fs.dx1, fs.x2, fs.dx2) == (1.0, 0.0, 0.0, 1.0)

    def test_distinct_root_closed_form(self):
        t = np.linspace(0.0, 3.0, 40)
        fs = fundamental_solutions(roots_of(3.0, -2.0), t)
        np.testing.assert_allclose(fs.x2, np.exp(2 * t) - np.exp(t), rtol=1e-12)
        np.testing.assert_allclose(fs.x1, 2 * np.exp(t) - np.exp(2 * t), rtol=1e-12)

    def test_double_root_closed_form(self):
        t = np.linspace(0.0, 3.0, 40)
        fs = fundamental_solutions(roots_of(2.0, -1.0), t)
        np.testing.assert_allclose(fs.x2, t * np.exp(t), rtol=1e-12)
        np.testing.assert_allclose(fs.x1, (1 - t) * np.exp(t), rtol=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="t must be >= 0"):
            fundamental_solutions(roots_of(-3.0, -2.0), -1.0)

    def test_harmonic_quarter_period(self):
        fs = fundamental_solutions(roots_of(0.0, -1.0), math.pi / 2)
        assert fs.x2 == pytest.approx(1.0)
        assert fs.x1 == pytest.approx(0.0, abs=1e-15)

    # Root pairs covering all nine regimes with |p - q| * 20 <= 14, so the
    # product cancellation in the Wronskian stays below the 1e-9 tolerance
    # (the identity loses eps * e^{|p-q| t} relative accuracy in float64).
    WRONSKIAN_POINTS = [
        (-0.7, -0.06),   # ergodic, q < p < 0
        (0.0, 0.09),     # opposite sign
        (0.7, -0.1),     # distinct positive
        (0.8, -0.16),    # positive double
        (-0.5, 0.0),     # larger root zero
        (0.5, 0.0),      # smaller root zero
        (0.0, 0.0),      # zero double
        (0.0, -1.0),     # harmonic
        (0.5, -1.0625),  # unstable oscillation
    ]

    def test_wronskian_identity(self):
        # x1 x2' - x2 x1' = exp(theta1 t)
        t = np.linspace(0.0, 20.0, 201)
        for t1, t2 in self.WRONSKIAN_POINTS:
            fs = fundamental_solutions(roots_of(t1, t2), t)
            wronskian = fs.x1 * fs.dx2 - fs.x2 * fs.dx1
            np.testing.assert_allclose(wronskian, np.exp(t1 * t), rtol=1e-9)

    def test_ode_residual_by_central_differences(self):
        delta = 1e-5
        for _, (t1, t2, _) in sorted_regime_points():
            r = roots_of(t1, t2)
            for t in (0.5, 1.7):
                lo, mid, hi = (fundamental_solutions(r, s) for s in (t - delta, t, t + delta))
                for attr in ("x1", "x2"):
                    f_lo, f_mid, f_hi = (getattr(v, attr) for v in (lo, mid, hi))
                    second = (f_hi - 2 * f_mid + f_lo) / delta**2
                    first = (f_hi - f_lo) / (2 * delta)
                    residual = second - t1 * first - t2 * f_mid
                    scale = max(1.0, abs(second))
                    assert abs(residual) <= 5e-4 * scale

    def test_branch_continuity_near_double(self):
        p, q = 1.0 + 1e-7, 1.0
        t = np.linspace(0.0, 10.0, 101)
        d = _fs_distinct(p, q, t)
        lim = _fs_double(p, q, t)
        # x2 and x2' are positive for t > 0: plain relative comparison.
        np.testing.assert_allclose(d[1], lim[1], rtol=1e-6)
        np.testing.assert_allclose(d[2], lim[2], rtol=1e-6)
        # x1 crosses zero at t = 1; compare relative to its natural scale.
        scale = (1.0 + t) * np.exp(t)
        assert np.all(np.abs(d[0] - lim[0]) <= 1e-6 * scale)


class TestTransition:
    def test_rejects_bad_step(self):
        params = ModelParams(theta1=0.0, theta2=0.0)
        for h in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                transition(params, h)

    def test_integrator_kernel_closed_form(self):
        # theta = 0: x2(s) = s, x2'(s) = 1.
        sigma, h = 1.3, 0.7
        kern = transition(ModelParams(theta1=0.0, theta2=0.0, sigma=sigma), h)
        expected = np.array([
            [h, sigma * h**2 / 2, sigma * h],
            [sigma * h**2 / 2, sigma**2 * h**3 / 3, sigma**2 * h**2 / 2],
            [sigma * h, sigma**2 * h**2 / 2, sigma**2 * h],
        ])
        np.testing.assert_allclose(kern.cov_matrix, expected, rtol=1e-12)
        np.testing.assert_allclose(kern.mean_matrix, [[1.0, h], [0.0, 1.0]], rtol=1e-12)

    def test_dw_variance_exact_and_sigma_zero_block(self):
        kern = transition(ModelParams(theta1=-1.0, theta2=-1.0, sigma=0.0), 0.25)
        assert kern.cov_matrix[0, 0] == 0.25
        assert np.all(kern.cov_matrix[1:, 1:] == 0.0)

    def test_subnormal_exponent_integrates_to_the_step(self):
        # p + q = 1e-323: expm1(z h) / z rounded the subnormal z h and divided
        # the rounding back out, so int x2'^2 read 1.553; it is h, as x2' = 1
        # to within 1e-24.
        sigma, h = 1.7, 1.606
        kern = transition(ModelParams(theta1=1e-323, theta2=-1.5e-24, sigma=sigma), h)
        assert kern.cov_matrix[2, 2] == pytest.approx(sigma**2 * h, rel=1e-12)

    def test_small_step_limits(self):
        kern = transition(ModelParams(theta1=-3.0, theta2=-2.0, sigma=1.0), 1e-8)
        np.testing.assert_allclose(kern.mean_matrix, np.eye(2), atol=1e-7)
        assert np.abs(kern.cov_matrix).max() <= 2e-8

    @pytest.mark.parametrize("name,point", sorted_regime_points())
    def test_closed_form_vs_quadrature(self, name, point):
        t1, t2, _ = point
        params = ModelParams(theta1=t1, theta2=t2, sigma=1.7)
        for h in (0.05, 1.0, 3.0):
            closed = transition(params, h).cov_matrix
            quadr = quadrature_cov(params, h)
            np.testing.assert_allclose(closed, quadr, rtol=1e-9, atol=1e-13)

    def test_near_double_root_uses_stable_branch(self):
        params = ModelParams(theta1=2.0 + 1e-9, theta2=-(1.0 + 1e-9), sigma=1.0)
        closed = transition(params, 2.0).cov_matrix
        quadr = quadrature_cov(params, 2.0)
        np.testing.assert_allclose(closed, quadr, rtol=1e-8)

    def test_ergodic_long_step_reaches_stationary_covariance(self):
        # theta = (-3, -2), sigma = 1: stationary Var X' = 1/(2|theta1|),
        # Var X = Var X' / |theta2|, Cov = 0; h = 10 is effectively infinite.
        params = ModelParams(theta1=-3.0, theta2=-2.0, sigma=1.0)
        kern = transition(params, 10.0)
        stationary = np.array([[1.0 / 12.0, 0.0], [0.0, 1.0 / 6.0]])
        np.testing.assert_allclose(kern.cov_matrix[1:, 1:], stationary, atol=1e-6)
        # Cross-check against direct quadrature of the noise integrands.
        from car2.model import fundamental_solutions as fs_eval

        r = roots_of(-3.0, -2.0)
        val, _ = quad(lambda u: fs_eval(r, u).x2 ** 2, 0.0, 10.0, epsabs=1e-13)
        assert kern.cov_matrix[1, 1] == pytest.approx(val, rel=1e-9)

    def test_kernel_psd_all_regimes(self):
        for _, (t1, t2, _) in sorted_regime_points():
            kern = transition(ModelParams(theta1=t1, theta2=t2, sigma=1.0), 0.01)
            eigs = np.linalg.eigvalsh(kern.cov_matrix)
            assert eigs.min() >= -1e-12 * np.trace(kern.cov_matrix)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=NEAR_DOUBLE_DEFECT)
    @PROPERTY
    @example(t1=2.0, t2=-0.999975, sigma=1.0, h=0.015625)  # roots 1 +- 0.005
    @given(t1=st.floats(-5, 5), t2=st.floats(-5, 5), sigma=st.floats(0, 3),
           h=st.floats(1e-3, 3))
    def test_kernel_psd_property(self, t1, t2, sigma, h):
        kern = transition(ModelParams(theta1=t1, theta2=t2, sigma=sigma), h)
        eigs = np.linalg.eigvalsh(kern.cov_matrix)
        assert eigs.min() >= -1e-12 * np.trace(kern.cov_matrix)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=NEAR_DOUBLE_DEFECT)
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @PROPERTY
    @example(mid=0.0135, log_gap=-12.0, conjugate=False, h=0.05)
    @example(mid=-1.0, log_gap=-5.9, conjugate=False, h=0.5)
    @given(mid=st.floats(-1.5, 1.5), log_gap=st.floats(-8.0, -4.0),
           conjugate=st.booleans(), h=st.floats(0.05, 3.0))
    def test_closed_form_vs_quadrature_across_double_root_switch(self, mid, log_gap,
                                                                 conjugate, h):
        # Roots mid +- gap/2 (real) or mid +- i gap/2, where gap * max(h, 1)
        # = 10**log_gap falls on either side of DOUBLE_ROOT_SWITCH.
        below = 10.0**log_gap < DOUBLE_ROOT_SWITCH
        half_gap = 10.0**log_gap / max(h, 1.0) / 2.0
        theta2 = (-half_gap**2 if conjugate else half_gap**2) - mid**2
        params = ModelParams(theta1=2.0 * mid, theta2=theta2, sigma=1.7)
        # The tolerances of the near-double and the regime-point tests.
        tol = dict(rtol=1e-8) if below else dict(rtol=1e-9, atol=1e-13)
        np.testing.assert_allclose(transition(params, h).cov_matrix,
                                   quadrature_cov(params, h), **tol)
