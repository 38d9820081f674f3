"""Maximum likelihood estimation of (theta1, theta2) from sampled paths.

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

`sufficient_stats` computes exactly those five numbers.  Caveat: when one
characteristic root strongly dominates (0 < q < p, large (p-q)T), X and X'
become numerically collinear and D is smaller than the float64 noise of the
products, so this closed form loses the estimator.  `_solve` instead
solves in a pathwise change of basis, where every quantity is computed at
its own scale.  The harness sums each block of rows into copied per-row
columns (`_block_columns`) and solves once per horizon, on the joined
columns; `estimate_path` takes the same two steps on one checked path, and
`sufficient_stats` the first, both read in Python floats.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .simulate import SamplePath

__all__ = [
    "SufficientStats",
    "Estimate",
    "SingularDesignError",
    "sufficient_stats",
    "estimate_path",
    "estimate_sigma",
]

SINGULAR_REL_TOL = 1e-12
COND_FLAG_TOL = 1e-10


class SingularDesignError(ArithmeticError):
    """Design matrix of the path is (numerically) singular."""

    def __init__(self, det: float, threshold: float):
        self.det = det
        self.threshold = threshold
        super().__init__(f"singular design: D = {det:.6g} <= threshold {threshold:.6g}")


class SufficientStats(NamedTuple):
    """The five path functionals entering the MLE, plus endpoints: floats for
    one path, or one array entry per row (horizon and sigma_used stay floats)."""

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
        """Information-type matrix [[int X^2, int XX'], [int XX', int X'^2]];
        for arrays, the C-contiguous stack of one matrix per row."""
        cells = np.stack([self.sxx, self.sxv, self.sxv, self.svv], axis=-1)
        return cells.reshape(np.shape(self.sxx) + (2, 2))


class Estimate(NamedTuple):
    """Floats for one path, or one array entry per row (see SufficientStats)."""

    theta1_hat: float
    theta2_hat: float
    det_D: float
    stats: SufficientStats
    cond_flag: bool

    @property
    def psi(self) -> np.ndarray:
        return self.stats.psi()


def _map_rows(obj, fn):
    """obj (an Estimate or SufficientStats) with fn applied to each per-row array."""
    return type(obj)(*(_map_rows(val, fn) if isinstance(val, SufficientStats)
                       else fn(val) if isinstance(val, np.ndarray) else val
                       for val in obj))


def _trapezoid(T: float, n: int) -> np.ndarray:
    """Trapezoid weights of n equal steps over [0, T]: T/n, halved at both ends."""
    w = np.full(n + 1, T / n)
    w[0] = w[-1] = T / n / 2.0
    return w


@np.errstate(all="ignore")  # non-finite and SXX = 0 rows are the caller's to exclude
def _block_columns(t: np.ndarray, x: np.ndarray, v: np.ndarray, w: np.ndarray | None = None,
                   scratch: np.ndarray | None = None) -> np.ndarray:
    """One block's per-row columns, as a fresh (11, rows) array: SXX, SVV, b,
    trap(X r), trap(r^2), and the endpoints x0, x_end, v0, v_end, r0, r_end.
    A row with a non-finite sample gives columns that mean nothing, silently.

    w is `_trapezoid(t[-1], n)` and scratch a float64 array of at least
    2 * x.size elements; each is made here when not given, so that a caller
    summing many blocks makes them once.  The products and r = v - b x are
    written into two contiguous (rows, n+1) planes of scratch, whose old
    contents do not matter.  Each sum is one dot product per row
    (`np.vecdot` rounds as a 1-d `@`, unlike a blocked gemv), so no row
    depends on its block.  The columns are a copy: the block and the scratch
    can be reused once it is summed.  `np.vecdot` holds the GIL when it runs
    500 rows or fewer, as the harness's slices do, so a filling worker
    thread waits meanwhile.
    """
    rows, n1 = x.shape
    w = _trapezoid(float(t[-1]), len(t) - 1) if w is None else w
    scratch = np.empty(2 * rows * n1) if scratch is None else scratch
    p, r = scratch[:2 * rows * n1].reshape(2, rows, n1)
    sxx = np.vecdot(np.multiply(x, x, out=p), w)
    b = np.vecdot(np.multiply(x, v, out=p), w) / sxx
    np.subtract(v, np.multiply(b[:, None], x, out=r), out=r)
    return np.stack([sxx, np.vecdot(np.multiply(v, v, out=p), w), b,
                     np.vecdot(np.multiply(x, r, out=p), w), np.vecdot(np.multiply(r, r, out=p), w),
                     x[:, 0], x[:, -1], v[:, 0], v[:, -1], r[:, 0], r[:, -1]])


def _path_columns(path: SamplePath) -> np.ndarray:
    """The `_block_columns` of one path, which must be finite and 2 steps or more long."""
    if path.n_steps < 2:
        raise ValueError("need at least 2 steps")
    if not (np.isfinite(path.x).all() and np.isfinite(path.v).all()):
        raise ValueError("path contains non-finite samples")
    return _block_columns(path.t, path.x[None], path.v[None])


@np.errstate(all="ignore")  # silent inf and NaN, as on Python floats
def _stats(cols: np.ndarray, T: float, sigma: float) -> SufficientStats:
    """The SufficientStats of joined columns: trapezoid SXX, SVV, the exact identities."""
    sxx, svv, _, _, _, x0, xT, v0, vT, _, _ = cols
    return SufficientStats(sxx, svv, (xT * xT - x0 * x0) / 2.0, xT * vT - x0 * v0 - svv,
                           (vT * vT - sigma**2 * T - v0 * v0) / 2.0, T, x0, v0, xT, vT, sigma)


def sufficient_stats(path: SamplePath) -> SufficientStats:
    """Path functionals via trapezoid (SXX, SVV) and the exact identities."""
    stats = _stats(_path_columns(path), path.horizon, path.sigma)
    return _map_rows(stats, lambda col: col[0].item())


def estimate_path(path: SamplePath) -> Estimate:
    """Numerically stable MLE from the full path: `_solve` on its one row."""
    est, threshold = _solve(_path_columns(path), path.horizon, path.sigma)
    if est.det_D[0] <= threshold[0]:
        raise SingularDesignError(est.det_D[0].item(), threshold[0].item())
    return _map_rows(est, lambda col: col[0].item())


def _solve(cols: np.ndarray, T: float, sigma: float) -> tuple[Estimate, np.ndarray]:
    """Numerically stable MLE of every row of a horizon's joined `_block_columns`.

    Returns the rows' Estimate, as arrays in row order, and each row's
    singularity threshold: a row is singular when det_D <= threshold (a NaN
    det is not), and its other fields are then meaningless.

    Change of basis r = X' - b X with b = trap(XX')/trap(X^2), the discrete
    least-squares projection, so trap(X r) vanishes by construction and no
    large*large - large*large cancellation occurs.  In the rotated pair,
    dr = (a2 X + a1 r) dt + sigma dW with a1 = theta1 - b and
    a2 = theta2 + b*a1, and the Ito identities read

        int r dr = (r(T)^2 - sigma^2 T - r(0)^2) / 2,
        int X dr = X(T)r(T) - X(0)r(0) - int r X' dt.

    Solving the 2x2 normal equations for (a2, a1) and mapping back gives the
    closed-form estimator in exact arithmetic.  Each row rounds as a solve
    on Python floats would.  OverflowError (SXV**2 on Python floats)
    propagates from a non-singular row whose SXV is finite and whose SXV^2
    is not.
    """
    stats = _stats(cols, T, sigma)
    sxx, _, b, sxr, srr, x0, xT, _, _, r0, rT = cols
    zero = sxx <= 0.0
    with np.errstate(all="ignore"):  # silent inf and NaN, as on Python floats
        det = np.where(zero, 0.0, sxx * srr - sxr * sxr)
        # Degeneracy is judged against the rotated system's own scale: in
        # explosive regimes det is legitimately ~ e^{-2(p-q)T} times SXX*SVV
        # and the naive-scale threshold would reject perfectly estimable paths.
        threshold = SINGULAR_REL_TOL * np.maximum(np.where(zero, 0.0, sxx * srr), 1.0)
        ok = ~(det <= threshold)
        # cond_flag: the naive D = SXX*SVV - SXV^2 loses most of its digits.
        scale = stats.sxx * stats.svv
        sxv_sq = np.full_like(scale, math.nan)
        sxv_sq[ok] = [s**2 for s in stats.sxv[ok].tolist()]  # Python floats: may raise
        cond_flag = scale - sxv_sq < COND_FLAG_TOL * np.maximum(scale, 1.0)
        # Numpy-scalar ** is libm pow, as the per-path solve had it; r * r, a
        # bit-moving change, retires this loop (ROADMAP item 2).
        r0_sq, rT_sq = np.array([[r**2 for r in col] for col in (r0, rT)])
        j_rx = srr + b * sxr  # int r dX = int r X' dt
        j_xr = xT * rT - x0 * r0 - j_rx
        j_rr = (rT_sq - sigma**2 * T - r0_sq) / 2.0
        a2 = (srr * j_xr - sxr * j_rr) / det
        a1 = (sxx * j_rr - sxr * j_xr) / det
        theta1, theta2 = a1 + b, a2 - b * a1
    return Estimate(theta1, theta2, det, stats, cond_flag), threshold


def estimate_sigma(path: SamplePath) -> float:
    """Noise scale from the quadratic variation of X': sqrt(sum dX'^2 / T)."""
    if path.n_steps < 2:
        raise ValueError("need at least 2 steps")
    dv = np.diff(path.v)
    return math.sqrt(float(np.add.reduce(dv * dv)) / path.horizon)  # pairwise: no BLAS call
