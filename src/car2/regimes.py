"""Registry of theoretical asymptotics per regime.

For each of the nine regimes this module supplies the deterministic
normalizations v1(T), v2(T) under which v_i(T)(theta_i_hat - theta_i) has a
nondegenerate limit, the limit-distribution family labels, the availability
and value of the random (path-dependent) normalizations, and the matrix
A_T normalizing the local log-likelihood ratio l_T(u) = L_T(theta + A_T u).

Explosive rates are exposed in log space as well; callers decide when to
exponentiate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .estimate import SufficientStats
from .model import Regime, RegimeKind, RootPair, classify

__all__ = [
    "RateSpec",
    "NlrrRates",
    "NoNlrrError",
    "SCALAR_NLRR",
    "rate_functions",
    "nlrr_rate",
    "scaling_matrix",
    "rotation_template",
]


class NoNlrrError(ValueError):
    """No normal-limit-with-random-rate exists for this regime."""


@dataclass(frozen=True)
class RateSpec:
    regime: RegimeKind
    v1: Callable[[float], float]
    v2: Callable[[float], float]
    log_v1: Callable[[float], float]
    log_v2: Callable[[float], float]
    label1: str  # limit family of v1(T)(theta1_hat - theta1)
    label2: str
    nlrr: str  # "yes" | "no" | "theta1_only"
    llr_label: str
    v1_expr: str
    v2_expr: str


@dataclass(frozen=True)
class NlrrRates:
    """Scalar random rates; r2 is None when only theta1 admits one."""

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


def _check_consistent(regime: Regime, roots: RootPair) -> None:
    derived = classify(roots, regime.classified_with_tol)
    if derived.tag is not regime.tag:
        raise ValueError(
            f"regime {regime.tag.value} inconsistent with roots p={roots.p}, q={roots.q}"
        )


def rate_functions(regime: Regime, roots: RootPair) -> RateSpec:
    """Deterministic rates and labels for the given regime."""
    _check_consistent(regime, roots)
    kind = regime.tag
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
        log_v1=lv1,
        log_v2=lv2,
        label1=label1,
        label2=label2,
        nlrr=nlrr,
        llr_label=llr,
        v1_expr=expr1,
        v2_expr=expr2,
    )


def nlrr_rate(regime: Regime, roots: RootPair, stats: SufficientStats) -> NlrrRates:
    """Random normalizations with a Gaussian limit, from observed statistics.

    Ergodic: (sqrt(SVV), sqrt(SXX)), limits N(0, sigma^2) each.
    Opposite sign / distinct positive: common rate sqrt(int (X'-pX)^2 dt).
    Positive double root: T^-2 sqrt(SXX).
    Larger root zero: theta1 only, T^(-3/2) * SXX.
    Raises NoNlrrError outside SCALAR_NLRR: Harmonic, ZeroDouble,
    SmallerRootZero, and UnstableOscillation, which has only the matrix
    normalization (use scaling_matrix and rotation_template).
    """
    _check_consistent(regime, roots)
    kind = regime.tag
    if kind not in SCALAR_NLRR:
        raise NoNlrrError(f"regime {kind.value} has no NLRR normalization in scalar form")
    T = stats.horizon
    if kind is RegimeKind.ERGODIC:
        return NlrrRates(math.sqrt(stats.svv), math.sqrt(stats.sxx))
    if kind in (RegimeKind.OPPOSITE_SIGN, RegimeKind.DISTINCT_POSITIVE):
        p = roots.p.real
        val = stats.svv - 2.0 * p * stats.sxv + p * p * stats.sxx
        r = math.sqrt(max(val, 0.0))
        return NlrrRates(r, r)
    if kind is RegimeKind.POSITIVE_DOUBLE:
        r = math.sqrt(stats.sxx) / T**2
        return NlrrRates(r, r)
    return NlrrRates(stats.sxx / T**1.5, None)  # LargerRootZero: theta1 only


def scaling_matrix(regime: Regime, roots: RootPair, horizon: float) -> np.ndarray:
    """Normalization A_T of l_T(u) = L_T(theta + A_T u), (theta2, theta1) order."""
    _check_consistent(regime, roots)
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    kind = regime.tag
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


def rotation_template(x: float, y: float) -> np.ndarray:
    """B(x, y) = [[x, y], [-y, x]] / (x^2 + y^2), the NLRR rotation."""
    denom = x * x + y * y
    if denom == 0.0:
        raise ValueError("rotation undefined at x = y = 0")
    return np.array([[x, y], [-y, x]]) / denom
