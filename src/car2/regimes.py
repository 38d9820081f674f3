"""Registry of theoretical asymptotics per regime.

`RECORDS` holds one record per regime: the limit-family, NLRR and LLR
labels of the CAR(2) estimation summary table, and what its random
normalization and limit law have and need.  `check_rules` is the one rule
that reads it.  The formulas are functions with a branch per regime: the
deterministic normalizations v1(T), v2(T) under which
v_i(T)(theta_i_hat - theta_i) has a nondegenerate limit (each exponentiated
from its log form), the random (path-dependent) normalizations, and the
matrix A_T normalizing the local log-likelihood ratio
l_T(u) = L_T(theta + A_T u).  `normalized_residuals` applies one of the
three NORMALIZATIONS to a horizon's estimates.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .estimate import Estimate, SufficientStats
from .model import ModelParams, Regime, RegimeKind

__all__ = [
    "NORMALIZATIONS",
    "MIN_FUNCTIONAL_GRID",
    "RegimeRecord",
    "RECORDS",
    "RateSpec",
    "NlrrRates",
    "NoNlrrError",
    "check_rules",
    "rate_functions",
    "nlrr_rate",
    "scaling_matrix",
    "rotation_template",
    "normalized_residuals",
]

NORMALIZATIONS = ("deterministic_rate", "nlrr", "matrix")
MIN_FUNCTIONAL_GRID = 1000


class NoNlrrError(ValueError):
    """No normal-limit-with-random-rate exists for this regime."""


class RegimeRecord(NamedTuple):
    """What the code keeps about one regime.  The four strings are the
    estimation summary table's, as `car2 roots` prints them."""

    label1: str  # limit family of v1(T)(theta1_hat - theta1)
    label2: str
    nlrr: str  # "yes" | "no" | "theta1_only"; check_rules reads scalar_nlrr
    llr_label: str
    scalar_nlrr: int = 0  # coordinates with a scalar NLRR rate: 2, 1 (theta1) or 0
    grid: bool = False  # the limit law is a Brownian functional, drawn on a grid
    sigma: bool = False  # the limit law scales with sigma: undefined at sigma = 0
    horizon: bool = False  # the limit law reads T


RECORDS = {
    RegimeKind.ERGODIC: RegimeRecord("Normal", "Normal", "yes", "LAN", scalar_nlrr=2),
    RegimeKind.OPPOSITE_SIGN: RegimeRecord("Normal", "Normal", "yes", "DLAMN", scalar_nlrr=2),
    RegimeKind.DISTINCT_POSITIVE: RegimeRecord("Cauchy-type", "Cauchy-type", "yes", "DLAMN",
                                               scalar_nlrr=2, sigma=True),
    RegimeKind.POSITIVE_DOUBLE: RegimeRecord("Cauchy-type", "Cauchy-type", "yes", "DLAMN",
                                             scalar_nlrr=2, sigma=True),
    RegimeKind.LARGER_ROOT_ZERO: RegimeRecord("Normal", "F1(w)", "theta1_only", "LABF/LAN",
                                              scalar_nlrr=1, grid=True),
    RegimeKind.SMALLER_ROOT_ZERO: RegimeRecord("F1(w)", "F1(w)", "no", "DLAMN", grid=True),
    RegimeKind.ZERO_DOUBLE: RegimeRecord("F1(w)", "F1(w)", "no", "LABF", grid=True),
    RegimeKind.HARMONIC: RegimeRecord("F2(w)", "F2(w)", "no", "LABF", grid=True),
    # Its "yes" is the matrix form B(u_s, u_c) A_T Psi_T only (scaling_matrix,
    # rotation_template), and its limit law reads T through the phase 2*nu*T.
    RegimeKind.UNSTABLE_OSCILLATION: RegimeRecord("Many", "Many", "yes", "LAMN-family",
                                                  sigma=True, horizon=True),
}


class RateSpec(NamedTuple):
    """The regime's deterministic rates and their expressions (labels: RECORDS)."""

    v1: Callable[[float], float]
    v2: Callable[[float], float]
    v1_expr: str
    v2_expr: str


class NlrrRates(NamedTuple):
    """Scalar random rates (arrays for array stats); r2 is None when only
    theta1 admits one."""

    r1: float
    r2: float | None


def check_rules(regime: Regime, normalization: str | None = None, *, limit_law: bool = False,
                sigma: float | None = None, grid_n: int | None = None) -> RegimeRecord:
    """The regime's record, once its rules hold for a run that normalizes by
    normalization (None: no rule) and, with limit_law, draws the limit law at
    sigma and grid_n: nlrr takes no limit law and needs a scalar NLRR rate
    (NoNlrrError), a grid law needs grid_n >= MIN_FUNCTIONAL_GRID, and a law
    that scales with sigma needs sigma > 0.  Raises ValueError otherwise."""
    record, name = RECORDS[regime.tag], regime.tag.value
    if normalization == "nlrr" and limit_law:
        raise ValueError("nlrr normalization needs a NormalReference (or 'none') comparison")
    if normalization == "nlrr" and not record.scalar_nlrr:
        raise NoNlrrError(f"regime {name} has no NLRR normalization in scalar form")
    if limit_law and record.grid and grid_n < MIN_FUNCTIONAL_GRID:
        raise ValueError(f"grid_n >= {MIN_FUNCTIONAL_GRID} required for functional regime {name}")
    if limit_law and record.sigma and sigma == 0.0:
        raise ValueError(f"sigma = 0: limit law of {name} undefined")
    return record


def rate_functions(regime: Regime) -> RateSpec:
    """Deterministic rates of the regime and their expressions, from its roots."""
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

    return RateSpec(
        v1=lambda T: math.exp(lv1(T)),
        v2=lambda T: math.exp(lv2(T)),
        v1_expr=expr1,
        v2_expr=expr2,
    )


def nlrr_rate(regime: Regime, stats: SufficientStats) -> NlrrRates:
    """Random normalizations with a Gaussian limit, from observed statistics.

    The projection rates read the regime's larger root p.

    Ergodic: (sqrt(SVV), sqrt(SXX)), limits N(0, sigma^2) each.
    Opposite sign / distinct positive: common rate sqrt(int (X'-pX)^2 dt).
    Positive double root: T^-2 sqrt(SXX).
    Larger root zero: theta1 only, T^(-3/2) * SXX.
    Raises NoNlrrError where the regime's record has no scalar NLRR rate
    (check_rules): Harmonic, ZeroDouble, SmallerRootZero, and
    UnstableOscillation, which has only the matrix normalization (use
    scaling_matrix and rotation_template).
    """
    check_rules(regime, "nlrr")
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
