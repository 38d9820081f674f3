"""Test-only oracles: the per-path estimator that `estimate_block` replaces,
the per-replication residual normalizer that the harness's array version
replaces, and the N/D decomposition of the MLE residual theta_hat - theta as
discrete sums over a path's recorded noise."""

from __future__ import annotations

import math

import numpy as np

from car2.estimate import (Estimate, SingularDesignError, SufficientStats, _naive_det,
                           _singular_threshold, _theta_vec)
from car2.model import RegimeKind, RootPair
from car2.regimes import nlrr_rate
from car2.simulate import SamplePath


def per_path_stats(path: SamplePath) -> tuple[SufficientStats, np.ndarray]:
    """`sufficient_stats` of one path with 1-d dot products, and its weights."""
    if path.n_steps < 2:
        raise ValueError("need at least 2 steps")
    if not (np.isfinite(path.x).all() and np.isfinite(path.v).all()):
        raise ValueError("path contains non-finite samples")
    w = np.full(len(path.t), path.step)
    w[0] = w[-1] = path.step / 2.0
    sxx = float((path.x * path.x) @ w)
    svv = float((path.v * path.v) @ w)
    T = path.horizon
    x0, v0 = float(path.x[0]), float(path.v[0])
    xT, vT = float(path.x[-1]), float(path.v[-1])
    sxv = (xT * xT - x0 * x0) / 2.0
    ivdv = (vT * vT - path.sigma**2 * T - v0 * v0) / 2.0
    ixdv = xT * vT - x0 * v0 - svv
    return SufficientStats(sxx, svv, sxv, ixdv, ivdv, T, x0, v0, xT, vT, path.sigma), w


def per_path_estimate(path: SamplePath) -> Estimate:
    """`estimate_path` one path at a time: the rotated solve on numpy scalars."""
    stats, w = per_path_stats(path)
    x, v = path.x, path.v
    sxx = stats.sxx
    if sxx <= 0.0:
        raise SingularDesignError(0.0, _singular_threshold(0.0))
    b = float((x * v) @ w) / sxx
    r = v - b * x
    sxr = float((x * r) @ w)
    srr = float((r * r) @ w)
    det = sxx * srr - sxr * sxr
    threshold = _singular_threshold(sxx * srr)
    if det <= threshold:
        raise SingularDesignError(det, threshold)
    j_rx = srr + b * sxr
    j_xr = x[-1] * r[-1] - x[0] * r[0] - j_rx
    j_rr = (r[-1] ** 2 - stats.sigma_used**2 * stats.horizon - r[0] ** 2) / 2.0
    a2 = (srr * j_xr - sxr * j_rr) / det
    a1 = (sxx * j_rr - sxr * j_xr) / det
    return Estimate(float(a1 + b), float(a2 - b * a1), det, stats, _naive_det(stats)[1])


def _estimate_u_hat(stats: SufficientStats, roots: RootPair) -> tuple[float, float]:
    """Terminal-state estimate of (u_s, u_c) for the oscillating rotation."""
    lam, nu = roots.lam, roots.nu
    T = stats.horizon
    scale = math.exp(-lam * T)
    x_t = stats.x_end
    y_t = (stats.v_end - lam * x_t) / nu
    s, c = math.sin(nu * T), math.cos(nu * T)
    u_c = scale * (x_t * s + y_t * c)
    u_s = scale * (y_t * s - x_t * c)
    return u_s, u_c


def per_rep_normalized_residuals(cfg, regime, rate_spec, horizon: float, a_t,
                                 est: Estimate) -> tuple[float, float]:
    """One replication's normalized residuals (r1, r2), on Python floats and
    lone 2x2 matmuls; a_t is scaling_matrix(regime, horizon) in matrix mode,
    and the UnstableOscillation rotation is the scalar B(u_s_hat, u_c_hat)."""
    p = cfg.params
    d1 = est.theta1_hat - p.theta1
    d2 = est.theta2_hat - p.theta2
    if cfg.normalization == "deterministic_rate":
        return rate_spec.v1(horizon) * d1, rate_spec.v2(horizon) * d2
    if cfg.normalization == "nlrr":
        rates = nlrr_rate(regime, est.stats)
        r2 = rates.r2 * d2 if rates.r2 is not None else math.nan
        return rates.r1 * d1, r2
    # matrix mode: components of B A_T Psi_T (theta2_hat - theta2, theta1_hat - theta1)
    vec = a_t @ (est.psi @ np.array([d2, d1]))
    if regime.tag is RegimeKind.UNSTABLE_OSCILLATION:
        u_s, u_c = _estimate_u_hat(est.stats, regime.roots)
        rotation = np.array([[u_s, u_c], [-u_c, u_s]]) / (u_s * u_s + u_c * u_c)
        vec = rotation @ vec
    return float(vec[0]), float(vec[1])


def gram_det(f: np.ndarray, g: np.ndarray, h: float) -> float:
    """D(T; f, g) with left-point sums: int f^2 int g^2 - (int f g)^2."""
    f, g = np.asarray(f, dtype=float), np.asarray(g, dtype=float)
    ff = h * float(f @ f)
    gg = h * float(g @ g)
    fg = h * float(f @ g)
    return ff * gg - fg * fg


def wiener_numerator(f: np.ndarray, g: np.ndarray, dw: np.ndarray, sigma: float,
                     h: float) -> float:
    """N(T; f, g) = int f^2 * int g s dW - int f g * int f s dW (left sums)."""
    f, g = np.asarray(f, dtype=float), np.asarray(g, dtype=float)
    dw = np.asarray(dw, dtype=float)
    ff = h * float(f @ f)
    fg = h * float(f @ g)
    g_dw = sigma * float(g @ dw)
    f_dw = sigma * float(f @ dw)
    return ff * g_dw - fg * f_dw


def _left_samples(path: SamplePath) -> tuple[np.ndarray, np.ndarray]:
    return path.x[:-1], path.v[:-1]


def reconstructed_stats(path: SamplePath, theta_true) -> SufficientStats:
    """Left-point sufficient statistics with dX' rebuilt from drift + noise.

    dX'_i := (theta2 X_i + theta1 X'_i) h + sigma dw_i.  Feeding the result
    to `mle` reproduces `residual_oracle` exactly (same discrete sums on
    both sides); that is the identity the oracle tests pin down.
    """
    if path.dw is None:
        raise ValueError("path has no recorded noise increments")
    theta = _theta_vec(theta_true)
    x, v = _left_samples(path)
    h = path.step
    dv_hat = (theta[0] * x + theta[1] * v) * h + path.sigma * path.dw
    sxx = h * float(x @ x)
    svv = h * float(v @ v)
    sxv = h * float(x @ v)
    ixdv = float(x @ dv_hat)
    ivdv = float(v @ dv_hat)
    return SufficientStats(sxx, svv, sxv, ixdv, ivdv, path.horizon,
                           float(path.x[0]), float(path.v[0]),
                           float(path.x[-1]), float(path.v[-1]), path.sigma)


def residual_oracle(path: SamplePath, theta_true) -> tuple[float, float]:
    """(theta1_hat - theta1, theta2_hat - theta2) via the N/D decomposition.

    N and D are evaluated as discrete sums over the recorded noise; by
    construction the output equals the residual of `mle` applied to
    `reconstructed_stats` of the same path, up to float rounding.
    """
    if path.dw is None:
        raise ValueError("path has no recorded noise increments")
    _theta_vec(theta_true)
    x, v = _left_samples(path)
    h = path.step
    det = gram_det(x, v, h)
    threshold = _singular_threshold(h * float(x @ x) * h * float(v @ v))
    if det <= threshold:
        raise SingularDesignError(det, threshold)
    n1 = wiener_numerator(x, v, path.dw, path.sigma, h)
    n2 = wiener_numerator(v, x, path.dw, path.sigma, h)
    return n1 / det, n2 / det
