"""Maximum likelihood estimation of (theta1, theta2) from a sampled path.

The continuous-time MLE is a ratio of path integrals:

    theta1_hat = (SXX*IVdV - SXV*IXdV) / D,
    theta2_hat = (SVV*IXdV - SXV*IVdV) / D,      D = SXX*SVV - SXV^2,

with SXX = int X^2 dt, SVV = int X'^2 dt, SXV = int X X' dt,
IXdV = int X dX', IVdV = int X' dX'.  Stochastic-calculus identities reduce
the last three to endpoint expressions (X is C^1, X' has quadratic
variation sigma^2 t):

    SXV  = (X(T)^2 - X(0)^2) / 2,
    IVdV = (X'(T)^2 - sigma^2 T - X'(0)^2) / 2,
    IXdV = X(T)X'(T) - X(0)X'(0) - SVV.

`sufficient_stats` + `mle` implement exactly that.  Caveat: when one
characteristic root strongly dominates (0 < q < p, large (p-q)T), X and X'
become numerically collinear and D is smaller than the float64 noise of the
products, so the five-number reduction loses the estimator.  `estimate_path`
starts from `sufficient_stats` and solves in a pathwise change of basis
r = X' - b X (b the discrete projection coefficient), where every quantity
is computed at its own scale; it agrees with `mle` wherever `mle` is
well-conditioned and stays accurate where it is not.  Monte Carlo code
should use it.  Both keep the stats on the Estimate (`est.stats`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .simulate import SamplePath

__all__ = [
    "SufficientStats",
    "Estimate",
    "SingularDesignError",
    "sufficient_stats",
    "mle",
    "estimate_path",
    "estimate_sigma",
    "log_likelihood_ratio",
    "normalized_llr",
    "residual_oracle",
    "reconstructed_stats",
    "gram_det",
    "wiener_numerator",
]

SINGULAR_REL_TOL = 1e-12
COND_FLAG_TOL = 1e-10


class SingularDesignError(ArithmeticError):
    """Design matrix of the path is (numerically) singular."""

    def __init__(self, det: float, threshold: float):
        self.det = det
        self.threshold = threshold
        super().__init__(f"singular design: D = {det:.6g} <= threshold {threshold:.6g}")


@dataclass(frozen=True)
class SufficientStats:
    """The five path functionals entering the MLE, plus endpoints."""

    sxx: float
    svv: float
    sxv: float
    ixdv: float
    ivdv: float
    horizon: float
    x0: float
    v0: float
    x_end: float
    v_end: float
    sigma_used: float

    def psi(self) -> np.ndarray:
        """Information-type matrix [[int X^2, int XX'], [int XX', int X'^2]]."""
        return np.array([[self.sxx, self.sxv], [self.sxv, self.svv]])


@dataclass(frozen=True)
class Estimate:
    theta1_hat: float
    theta2_hat: float
    det_D: float
    stats: SufficientStats
    cond_flag: bool

    @property
    def psi(self) -> np.ndarray:
        return self.stats.psi()


def _trapezoid_weights(n_points: int, h: float) -> np.ndarray:
    w = np.full(n_points, h)
    w[0] = w[-1] = h / 2.0
    return w


def _stats_and_weights(path: SamplePath) -> tuple[SufficientStats, np.ndarray]:
    """`sufficient_stats` of the path and the trapezoid weights it used."""
    if path.n_steps < 2:
        raise ValueError("need at least 2 steps")
    if not (np.isfinite(path.x).all() and np.isfinite(path.v).all()):
        raise ValueError("path contains non-finite samples")
    w = _trapezoid_weights(len(path.t), path.step)
    sxx = float((path.x * path.x) @ w)
    svv = float((path.v * path.v) @ w)
    T = path.horizon
    x0, v0 = float(path.x[0]), float(path.v[0])
    xT, vT = float(path.x[-1]), float(path.v[-1])
    sxv = (xT * xT - x0 * x0) / 2.0
    ivdv = (vT * vT - path.sigma**2 * T - v0 * v0) / 2.0
    ixdv = xT * vT - x0 * v0 - svv
    return SufficientStats(sxx, svv, sxv, ixdv, ivdv, T, x0, v0, xT, vT, path.sigma), w


def sufficient_stats(path: SamplePath) -> SufficientStats:
    """Path functionals via trapezoid (SXX, SVV) and the exact identities."""
    return _stats_and_weights(path)[0]


def _singular_threshold(sxx_svv: float) -> float:
    return SINGULAR_REL_TOL * max(sxx_svv, 1.0)


def _naive_det(stats: SufficientStats) -> tuple[float, bool]:
    """D = SXX*SVV - SXV^2, and whether float64 loses most of its digits."""
    scale = stats.sxx * stats.svv
    det = scale - stats.sxv**2  # Python floats: overflow raises OverflowError
    return det, det < COND_FLAG_TOL * max(scale, 1.0)


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


def estimate_path(path: SamplePath) -> Estimate:
    """Numerically stable evaluation of the MLE from the full path.

    Change of basis r = X' - b X with b = trap(XX')/trap(X^2), the discrete
    least-squares projection, so trap(X r) vanishes by construction and no
    large*large - large*large cancellation occurs.  In the rotated pair,
    dr = (a2 X + a1 r) dt + sigma dW with a1 = theta1 - b and
    a2 = theta2 + b*a1, and the Ito identities read

        int r dr = (r(T)^2 - sigma^2 T - r(0)^2) / 2,
        int X dr = X(T)r(T) - X(0)r(0) - int r X' dt.

    Solving the 2x2 normal equations for (a2, a1) and mapping back gives the
    same estimator as `mle` in exact arithmetic.
    """
    stats, w = _stats_and_weights(path)
    x, v = path.x, path.v
    sxx = stats.sxx
    if sxx <= 0.0:
        raise SingularDesignError(0.0, _singular_threshold(0.0))
    b = float((x * v) @ w) / sxx
    r = v - b * x
    sxr = float((x * r) @ w)
    srr = float((r * r) @ w)
    det = sxx * srr - sxr * sxr
    # Degeneracy is judged against the rotated system's own scale: in
    # explosive regimes det is legitimately ~ e^{-2(p-q)T} times SXX*SVV and
    # the naive-scale threshold would reject perfectly estimable paths.
    threshold = _singular_threshold(sxx * srr)
    if det <= threshold:
        raise SingularDesignError(det, threshold)
    j_rx = srr + b * sxr  # int r dX = int r X' dt
    j_xr = x[-1] * r[-1] - x[0] * r[0] - j_rx
    j_rr = (r[-1] ** 2 - stats.sigma_used**2 * stats.horizon - r[0] ** 2) / 2.0
    a2 = (srr * j_xr - sxr * j_rr) / det
    a1 = (sxx * j_rr - sxr * j_xr) / det
    th1 = a1 + b
    th2 = a2 - b * a1
    return Estimate(float(th1), float(th2), det, stats, _naive_det(stats)[1])


def estimate_sigma(path: SamplePath) -> float:
    """Noise scale from the quadratic variation of X': sqrt(sum dX'^2 / T)."""
    if path.n_steps < 2:
        raise ValueError("need at least 2 steps")
    dv = np.diff(path.v)
    return math.sqrt(float(dv @ dv) / path.horizon)


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
