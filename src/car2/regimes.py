"""Registry of theoretical asymptotics per regime.

For each of the nine regimes this module supplies the deterministic
normalizations v1(T), v2(T) under which v_i(T)(theta_i_hat - theta_i) has a
nondegenerate limit, the limit-distribution family labels, the availability
and value of the random (path-dependent) normalizations, and the matrix
A_T normalizing the local log-likelihood ratio l_T(u) = L_T(theta + A_T u).
Each rate is exponentiated from its log form.  `normalized_residuals`
applies one of the three NORMALIZATIONS to a horizon's estimates.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .estimate import Estimate, SufficientStats
from .model import ModelParams, Regime, RegimeKind

__all__ = [
    "NORMALIZATIONS",
    "RateSpec",
    "NlrrRates",
    "NoNlrrError",
    "SCALAR_NLRR",
    "check_scalar_nlrr",
    "rate_functions",
    "nlrr_rate",
    "scaling_matrix",
    "rotation_template",
    "normalized_residuals",
]

NORMALIZATIONS = ("deterministic_rate", "nlrr", "matrix")


class NoNlrrError(ValueError):
    """No normal-limit-with-random-rate exists for this regime."""


class RateSpec(NamedTuple):
    regime: RegimeKind
    v1: Callable[[float], float]
    v2: Callable[[float], float]
    label1: str  # limit family of v1(T)(theta1_hat - theta1)
    label2: str
    nlrr: str  # "yes" | "no" | "theta1_only"
    llr_label: str
    v1_expr: str
    v2_expr: str


class NlrrRates(NamedTuple):
    """Scalar random rates (arrays for array stats); r2 is None when only
    theta1 admits one."""

    r1: float
    r2: float | None


# (label1, label2, nlrr, llr_label) per regime, following the CAR(2)
# estimation summary table.
_TABLE = {
    RegimeKind.ERGODIC: ("Normal", "Normal", "yes", "LAN"),
    RegimeKind.OPPOSITE_SIGN: ("Normal", "Normal", "yes", "DLAMN"),
    RegimeKind.DISTINCT_POSITIVE: ("Cauchy-type", "Cauchy-type", "yes", "DLAMN"),
    RegimeKind.POSITIVE_DOUBLE: ("Cauchy-type", "Cauchy-type", "yes", "DLAMN"),
    RegimeKind.LARGER_ROOT_ZERO: ("Normal", "F1(w)", "theta1_only", "LABF/LAN"),
    RegimeKind.SMALLER_ROOT_ZERO: ("F1(w)", "F1(w)", "no", "DLAMN"),
    RegimeKind.ZERO_DOUBLE: ("F1(w)", "F1(w)", "no", "LABF"),
    RegimeKind.HARMONIC: ("F2(w)", "F2(w)", "no", "LABF"),
    RegimeKind.UNSTABLE_OSCILLATION: ("Many", "Many", "yes", "LAMN-family"),
}

# Regimes with scalar NLRR rates.  UnstableOscillation's "yes" above is the
# matrix form B(u_s, u_c) A_T Psi_T only (scaling_matrix, rotation_template).
SCALAR_NLRR = frozenset(kind for kind, row in _TABLE.items() if row[2] != "no"
                        and kind is not RegimeKind.UNSTABLE_OSCILLATION)


def rate_functions(regime: Regime) -> RateSpec:
    """Deterministic rates and labels of the regime, from its roots."""
    kind, roots = regime.tag, regime.roots
    p, q = roots.p.real, roots.q.real
    theta1 = roots.theta1

    if kind is RegimeKind.ERGODIC:
        a = abs(theta1)
        lv1 = lv2 = lambda T: 0.5 * (math.log(T) + math.log(a))
        expr1 = expr2 = "sqrt(|theta1|*T)"
    elif kind is RegimeKind.OPPOSITE_SIGN:
        a = abs(q)
        lv1 = lv2 = lambda T: 0.5 * (math.log(T) + math.log(a))
        expr1 = expr2 = "sqrt(|q|*T)"
    elif kind is RegimeKind.DISTINCT_POSITIVE:
        lv1 = lv2 = lambda T: q * T
        expr1 = expr2 = "exp(q*T)"
    elif kind is RegimeKind.POSITIVE_DOUBLE:
        qd = (p + q) / 2.0
        lv1 = lv2 = lambda T: qd * T - math.log(qd * T)
        expr1 = expr2 = "exp(q*T)/(q*T)"
    elif kind is RegimeKind.LARGER_ROOT_ZERO:
        a = abs(q)  # theta1 = q here
        lv1 = lambda T: 0.5 * (math.log(T) + math.log(a))
        lv2 = math.log
        expr1, expr2 = "sqrt(|theta1|*T)", "T"
    elif kind is RegimeKind.SMALLER_ROOT_ZERO:
        lv1 = lambda T: math.log(p) + math.log(T)  # theta1 = p here
        lv2 = math.log
        expr1, expr2 = "theta1*T", "T"
    elif kind is RegimeKind.ZERO_DOUBLE:
        lv1 = math.log
        lv2 = lambda T: 2.0 * math.log(T)
        expr1, expr2 = "T", "T^2"
    elif kind is RegimeKind.HARMONIC:
        lv1 = lv2 = math.log
        expr1 = expr2 = "T"
    else:  # UNSTABLE_OSCILLATION
        lam = roots.lam
        lv1 = lv2 = lambda T: lam * T
        expr1 = expr2 = "exp(lambda*T)"

    label1, label2, nlrr, llr = _TABLE[kind]
    return RateSpec(
        regime=kind,
        v1=lambda T: math.exp(lv1(T)),
        v2=lambda T: math.exp(lv2(T)),
        label1=label1,
        label2=label2,
        nlrr=nlrr,
        llr_label=llr,
        v1_expr=expr1,
        v2_expr=expr2,
    )


def check_scalar_nlrr(regime: Regime) -> None:
    """Raise NoNlrrError unless the regime has scalar NLRR rates (SCALAR_NLRR)."""
    if regime.tag not in SCALAR_NLRR:
        raise NoNlrrError(f"regime {regime.tag.value} has no NLRR normalization in scalar form")


def nlrr_rate(regime: Regime, stats: SufficientStats) -> NlrrRates:
    """Random normalizations with a Gaussian limit, from observed statistics.

    The projection rates read the regime's larger root p.

    Ergodic: (sqrt(SVV), sqrt(SXX)), limits N(0, sigma^2) each.
    Opposite sign / distinct positive: common rate sqrt(int (X'-pX)^2 dt).
    Positive double root: T^-2 sqrt(SXX).
    Larger root zero: theta1 only, T^(-3/2) * SXX.
    Raises NoNlrrError outside SCALAR_NLRR: Harmonic, ZeroDouble,
    SmallerRootZero, and UnstableOscillation, which has only the matrix
    normalization (use scaling_matrix and rotation_template).
    """
    check_scalar_nlrr(regime)
    kind, T = regime.tag, stats.horizon
    if kind is RegimeKind.ERGODIC:
        return NlrrRates(np.sqrt(stats.svv), np.sqrt(stats.sxx))
    if kind in (RegimeKind.OPPOSITE_SIGN, RegimeKind.DISTINCT_POSITIVE):
        p = regime.roots.p.real
        val = stats.svv - 2.0 * p * stats.sxv + p * p * stats.sxx
        r = np.sqrt(np.maximum(val, 0.0))
        return NlrrRates(r, r)
    if kind is RegimeKind.POSITIVE_DOUBLE:
        r = np.sqrt(stats.sxx) / T**2
        return NlrrRates(r, r)
    return NlrrRates(stats.sxx / T**1.5, None)  # LargerRootZero: theta1 only


def scaling_matrix(regime: Regime, horizon: float) -> np.ndarray:
    """Normalization A_T of l_T(u) = L_T(theta + A_T u), (theta2, theta1) order.

    The explosive and oscillating forms read the regime's roots.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    kind, roots = regime.tag, regime.roots
    T = horizon
    p = roots.p.real
    if kind is RegimeKind.ERGODIC:
        return np.diag([T**-0.5, T**-0.5])
    if kind in (RegimeKind.OPPOSITE_SIGN, RegimeKind.DISTINCT_POSITIVE,
                RegimeKind.SMALLER_ROOT_ZERO):
        b = np.array([1.0, p])
        return math.exp(-p * T) * np.outer(b, b)
    if kind is RegimeKind.POSITIVE_DOUBLE:
        pd = (p + roots.q.real) / 2.0
        b = np.array([1.0, pd])
        return math.exp(-pd * T) / T * np.outer(b, b)
    if kind is RegimeKind.LARGER_ROOT_ZERO:
        return np.diag([1.0 / T, T**-0.5])
    if kind is RegimeKind.ZERO_DOUBLE:
        return np.diag([T**-2.0, 1.0 / T])
    if kind is RegimeKind.HARMONIC:
        return np.diag([1.0 / T, 1.0 / T])
    # Unstable oscillation
    lam, nu = roots.lam, roots.nu
    return math.exp(-lam * T) * np.array([[nu, 0.0], [lam, -1.0]])


def rotation_template(x, y) -> np.ndarray:
    """B(x, y) = [[x, y], [-y, x]] / (x^2 + y^2), the NLRR rotation.

    For arrays x, y of one shape S the result is the C-contiguous stack of
    shape S + (2, 2), B(x[i], y[i]) at index i.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    denom = x * x + y * y
    if (denom == 0.0).any():
        raise ValueError("rotation undefined at x = y = 0")
    return (np.stack([x, y, -y, x], axis=-1) / denom[..., None]).reshape(x.shape + (2, 2))


def normalized_residuals(regime: Regime, rate_spec: RateSpec, normalization: str,
                         params: ModelParams, horizon: float,
                         est: Estimate) -> tuple[np.ndarray, np.ndarray]:
    """The horizon's normalized residuals (r1, r2), one entry per row of est:
    rate_spec's rates, nlrr_rate's (r2 NaN where theta1 alone has one), or the
    matrix B A_T Psi_T (theta2_hat - theta2, theta1_hat - theta1)."""
    d1, d2 = est.theta1_hat - params.theta1, est.theta2_hat - params.theta2
    if normalization == "deterministic_rate":
        return rate_spec.v1(horizon) * d1, rate_spec.v2(horizon) * d2
    if normalization == "nlrr":
        rates = nlrr_rate(regime, est.stats)
        return rates.r1 * d1, (math.nan if rates.r2 is None else rates.r2) * d2
    # Every stacked operand is C-contiguous, so each row's matmul rounds as a lone 2x2 one.
    vec = scaling_matrix(regime, horizon) @ (est.psi @ np.stack([d2, d1], axis=-1)[..., None])
    if regime.tag is RegimeKind.UNSTABLE_OSCILLATION:
        # B(u_s_hat, u_c_hat), with (u_s_hat, u_c_hat) read off the terminal state
        lam, nu = regime.roots.lam, regime.roots.nu
        scale = math.exp(-lam * horizon)
        s, c = math.sin(nu * horizon), math.cos(nu * horizon)
        x_t = est.stats.x_end
        y_t = (est.stats.v_end - lam * x_t) / nu
        vec = rotation_template(scale * (y_t * s - x_t * c), scale * (x_t * s + y_t * c)) @ vec
    return vec[:, 0, 0], vec[:, 1, 0]
