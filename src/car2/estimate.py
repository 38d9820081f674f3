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
should use it, on a block of rows at once (`estimate_block`).  Both keep
the stats on the Estimate (`est.stats`).
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
    "estimate_block",
    "estimate_sigma",
    "log_likelihood_ratio",
    "normalized_llr",
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


def _block_stats(t: np.ndarray, x: np.ndarray, v: np.ndarray, sigma: float):
    """([each row's `sufficient_stats`], the trapezoid weights, the rows' SXX)."""
    n = len(t) - 1
    if n < 2:
        raise ValueError("need at least 2 steps")
    if not (np.isfinite(x).all() and np.isfinite(v).all()):
        raise ValueError("path contains non-finite samples")
    T = float(t[-1])
    w = np.full(n + 1, T / n)
    w[0] = w[-1] = T / n / 2.0
    sxx = np.vecdot(x * x, w)
    cols = (sxx, np.vecdot(v * v, w), x[:, 0], v[:, 0], x[:, -1], v[:, -1])
    stats = [SufficientStats(sxx_i, svv, (xT * xT - x0 * x0) / 2.0, xT * vT - x0 * v0 - svv,
                             (vT * vT - sigma**2 * T - v0 * v0) / 2.0, T, x0, v0, xT, vT, sigma)
             for sxx_i, svv, x0, v0, xT, vT in zip(*(c.tolist() for c in cols))]
    return stats, w, sxx


def sufficient_stats(path: SamplePath) -> SufficientStats:
    """Path functionals via trapezoid (SXX, SVV) and the exact identities."""
    return _block_stats(path.t, path.x[None], path.v[None], path.sigma)[0][0]


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
    """Numerically stable MLE from the full path: `estimate_block` on one row."""
    (est,) = estimate_block(path.t, path.x[None], path.v[None], path.sigma)
    if isinstance(est, SingularDesignError):
        raise est
    return est


def estimate_block(t: np.ndarray, x: np.ndarray, v: np.ndarray,
                   sigma: float) -> list[Estimate | SingularDesignError]:
    """Numerically stable MLE of each row of (x, v), sampled on the grid t.

    Change of basis r = X' - b X with b = trap(XX')/trap(X^2), the discrete
    least-squares projection, so trap(X r) vanishes by construction and no
    large*large - large*large cancellation occurs.  In the rotated pair,
    dr = (a2 X + a1 r) dt + sigma dW with a1 = theta1 - b and
    a2 = theta2 + b*a1, and the Ito identities read

        int r dr = (r(T)^2 - sigma^2 T - r(0)^2) / 2,
        int X dr = X(T)r(T) - X(0)r(0) - int r X' dt.

    Solving the 2x2 normal equations for (a2, a1) and mapping back gives the
    same estimator as `mle` in exact arithmetic.  Each O(n) sum is one dot
    product per row (`np.vecdot` rounds as a 1-d `@`, unlike a blocked gemv),
    so no estimate depends on its block.  A singular row gives its
    SingularDesignError; OverflowError from `sxv**2` (Python floats) propagates.
    """
    stats, w, sxx = _block_stats(t, x, v, sigma)
    with np.errstate(divide="ignore", invalid="ignore"):  # SXX = 0 rows are singular
        b = np.vecdot(x * v, w) / sxx
    r = v - b[:, None] * x
    out = []
    # Endpoints stay numpy scalars: Python's float ** raises where numpy's gives inf.
    for st, b_i, sxr, srr, x0, xT, r0, rT in zip(
            stats, b.tolist(), np.vecdot(x * r, w).tolist(), np.vecdot(r * r, w).tolist(),
            x[:, 0], x[:, -1], r[:, 0], r[:, -1]):
        if st.sxx <= 0.0:
            out.append(SingularDesignError(0.0, _singular_threshold(0.0)))
            continue
        det = st.sxx * srr - sxr * sxr
        # Degeneracy is judged against the rotated system's own scale: in
        # explosive regimes det is legitimately ~ e^{-2(p-q)T} times SXX*SVV
        # and the naive-scale threshold would reject perfectly estimable paths.
        threshold = _singular_threshold(st.sxx * srr)
        if det <= threshold:
            out.append(SingularDesignError(det, threshold))
            continue
        j_rx = srr + b_i * sxr  # int r dX = int r X' dt
        j_xr = xT * rT - x0 * r0 - j_rx
        j_rr = (rT ** 2 - sigma**2 * st.horizon - r0 ** 2) / 2.0
        a2 = (srr * j_xr - sxr * j_rr) / det
        a1 = (st.sxx * j_rr - sxr * j_xr) / det
        out.append(Estimate(float(a1 + b_i), float(a2 - b_i * a1), det, st, _naive_det(st)[1]))
    return out


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
