"""Test-only oracles: the per-path estimator and closed-form MLE that the
columnar rotated solve (`estimate._block_columns`, `estimate._solve`)
replaces, the likelihood ratio of a path, the per-replication residual
normalizer that the harness's array version replaces, the per-horizon
replication pass (which drops overflowing rows before it sums a block) that
the harness's nesting groups and its one exclusion site after the solve
replace, the scipy.signal.lfilter recursion and the exact and Euler paths
that `simulate._recurrence` replaces, and the N/D decomposition of the MLE
residual theta_hat - theta as discrete sums over a path's recorded noise."""

from __future__ import annotations

import math

import numpy as np
from scipy.signal import lfilter

from car2 import estimate, rng
from car2.estimate import Estimate, SingularDesignError, SufficientStats, _map_rows
from car2.model import RegimeKind, RootPair, char_roots, fundamental_solutions, transition
from car2.regimes import nlrr_rate
from car2.simulate import SamplePath, _noise_factor, simulate_exact


def _singular_threshold(sxx_svv: float) -> float:
    return estimate.SINGULAR_REL_TOL * max(sxx_svv, 1.0)


def _naive_det(stats: SufficientStats) -> tuple[float, bool]:
    """D = SXX*SVV - SXV^2, and whether float64 loses most of its digits."""
    scale = stats.sxx * stats.svv
    det = scale - stats.sxv**2  # Python floats: overflow raises OverflowError
    return det, det < estimate.COND_FLAG_TOL * max(scale, 1.0)


def mle(stats: SufficientStats) -> Estimate:
    """Closed-form MLE from the sufficient statistics.

    Raises SingularDesignError when D = SXX*SVV - SXV^2 is at or below the
    singularity threshold.  cond_flag is set when D is so small relative to
    SXX*SVV that float64 evaluation of this formula loses most digits; use
    `estimate_path` in that case.
    """
    det, flagged = _naive_det(stats)
    threshold = _singular_threshold(stats.sxx * stats.svv)
    if det <= threshold:
        raise SingularDesignError(det, threshold)
    th1 = (stats.sxx * stats.ivdv - stats.sxv * stats.ixdv) / det
    th2 = (stats.svv * stats.ixdv - stats.sxv * stats.ivdv) / det
    return Estimate(th1, th2, det, stats, flagged)


def _theta_vec(theta) -> np.ndarray:
    arr = np.asarray(theta, dtype=float)
    if arr.shape != (2,):
        raise ValueError("theta must be a 2-vector (theta2, theta1)")
    return arr


def log_likelihood_ratio(stats: SufficientStats, theta_ref, theta_alt) -> float:
    """log dP_alt/dP_ref of the observed path; thetas in (theta2, theta1) order.

    Evaluates (1/s^2) int (alt - ref)^T Z dX' - (1/2s^2)(alt^T Psi alt -
    ref^T Psi ref) with Z = (X, X'), expanded in the sufficient statistics:
    int (a2, a1)^T Z dX' = a2*IXdV + a1*IVdV and int ((a2, a1)^T Z)^2 dt =
    a^T Psi a.
    """
    if stats.sigma_used == 0.0:
        raise ValueError("likelihood ratio undefined for sigma = 0")
    ref = _theta_vec(theta_ref)
    alt = _theta_vec(theta_alt)
    s2 = stats.sigma_used**2
    psi = stats.psi()
    linear = (alt[0] - ref[0]) * stats.ixdv + (alt[1] - ref[1]) * stats.ivdv
    quad = alt @ psi @ alt - ref @ psi @ ref
    return float(linear / s2 - quad / (2.0 * s2))


def normalized_llr(stats: SufficientStats, theta, a_matrix, u) -> float:
    """Local log-likelihood ratio l_T(u) = LLR(theta, theta + A_T u)."""
    theta = _theta_vec(theta)
    a_matrix = np.asarray(a_matrix, dtype=float)
    u = _theta_vec(u)
    return log_likelihood_ratio(stats, theta, theta + a_matrix @ u)


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


def per_horizon_replicate(cfg, horizon: float):
    """One horizon's replications, simulated at that horizon alone.

    Returns (n_steps, the surviving rows' Estimate in replication order, each
    replication's status): "ok", "overflow" (the simulation left float64) or
    "singular" (the design is singular); only "ok" replications have a row.
    """
    n_steps = max(2, round(horizon * cfg.steps_per_unit_time))
    status = np.full(cfg.n_reps, "ok", dtype=object)
    cols = []
    # Blocks of consecutive replications, so the rows stay in replication order.
    for blk in simulate_exact(cfg.params, horizon, n_steps, range(cfg.n_reps), cfg.seed):
        overflow = blk.n_finite <= n_steps
        status[np.asarray(blk.reps)[overflow]] = "overflow"
        cols.append(estimate._block_columns(blk.t, blk.x[~overflow], blk.v[~overflow]))
    est, threshold = estimate._solve(np.concatenate(cols, axis=1), horizon, cfg.params.sigma)
    singular = est.det_D <= threshold
    if singular.all():
        raise RuntimeError(f"all {cfg.n_reps} replications failed at T={horizon}")
    status[np.flatnonzero(status == "ok")[singular]] = "singular"
    return n_steps, _map_rows(est, lambda col: col[~singular]), status


def _second_order_filter(m: np.ndarray, xi_x: np.ndarray, xi_v: np.ndarray,
                         y0: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Run state[k+1] = m @ state[k] + (xi_x[k], xi_v[k]) from state[0] = y0.

    Time runs along the last axis of xi_x, xi_v; leading axes are independent
    paths.  Returns the two component sequences, n+1 long in time.
    """
    n = xi_x.shape[-1]
    tau = m[0, 0] + m[1, 1]
    delta = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    u = np.zeros((2,) + xi_x.shape[:-1] + (n + 1,))  # lfilter runs each 1-d slice alone
    for comp, other, own, cross in ((0, 1, xi_x, xi_v), (1, 0, xi_v, xi_x)):
        u[comp, ..., 0] = y0[comp]
        u[comp, ..., 1] = (m[comp, 0] * y0[0] + m[comp, 1] * y0[1] + own[..., 0]
                           - tau * y0[comp])
        u[comp, ..., 2:] = (own[..., 1:] + (m[comp, comp] - tau) * own[..., :-1]
                            + m[comp, other] * cross[..., :-1])
    out = lfilter([1.0], [1.0, -tau, delta], u, axis=-1)
    return out[0], out[1]


def exact_path(params, horizon: float, n_steps: int, seed: int, rep: int):
    """(x, v, dw) of replication rep's exact path, filtered by lfilter."""
    n = n_steps
    with np.errstate(over="ignore", invalid="ignore"):
        fs = fundamental_solutions(char_roots(params), np.linspace(0.0, horizon, n + 1))
        kern = transition(params, horizon / n)
        draws = (rng.stream(seed, rng.DOMAIN_SIM_EXACT, rep).standard_normal((n, 3))
                 @ _noise_factor(kern.cov_matrix).T)
        zx, zv = _second_order_filter(kern.mean_matrix, draws[:, 1], draws[:, 2], (0.0, 0.0))
        x = params.x0 * fs.x1 + params.dx0 * fs.x2 + zx
        v = params.x0 * fs.dx1 + params.dx0 * fs.dx2 + zv
    return x, v, draws[:, 0]


def euler_path(params, horizon: float, n_steps: int, seed: int, rep: int):
    """(x, v) of replication rep's Euler path, filtered by lfilter."""
    n, h = n_steps, horizon / n_steps
    m = np.array([[1.0, h], [params.theta2 * h, 1.0 + params.theta1 * h]])
    dw = (math.sqrt(h) * rng.stream(seed, rng.DOMAIN_SIM_EULER, rep).standard_normal(n)
          if params.sigma > 0.0 else np.zeros(n))
    with np.errstate(over="ignore", invalid="ignore"):
        return _second_order_filter(m, np.zeros(n), params.sigma * dw, (params.x0, params.dx0))


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
