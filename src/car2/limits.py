"""Samplers for the limit distributions of the normalized MLE residuals.

Closed-form regimes draw directly from Gaussian / Cauchy-type expressions;
functional regimes simulate standard Brownian motion on a fine grid over
[0, 1] and evaluate the required path functionals (dt-integrals by
trapezoid, stochastic integrals by left-point Ito sums).  Which laws are
functionals, scale with sigma or read the horizon is the regime's record
(`regimes.RECORDS`), and `sample_limit` checks it by `regimes.check_rules`.

The Brownian sampler computes only the functionals the limit laws read (see
BrownianFunctionals).  It runs chunks of paths on two lanes, the calling
thread and one worker thread, which take chunks from one `simulate._Lanes`;
a lane draws and reduces each of its chunks a block of rows at a time in its
own scratch, with no BLAS call, bit for bit as if the chunks were reduced in
turn on one thread.  The lanes overlap only inside numpy calls that release
the GIL: the draws, the elementwise products, the einsums and a 1-D cumsum
into another array release it (numpy 2.4), but a 2-D cumsum along rows, or a
1-D one in place, holds it for the whole call, so the paths are summed one
row at a time into a separate array.

Draws are returned jointly as (l1, l2): wherever the theory couples the two
coordinates (one limit a fixed negative multiple of the other, or both built
from one Brownian path), the stored pair satisfies the coupling exactly.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import rng
from .estimate import _trapezoid
from .model import ModelParams, Regime, RegimeKind, RootPair
from .regimes import check_rules
from .simulate import _Lanes

__all__ = [
    "BrownianFunctionals",
    "LimitSampleSet",
    "brownian_functionals",
    "sample_limit",
]

_CHUNK_ELEMENTS = 2**22
# Increments a lane draws and reduces at a time (16 rows at grid 10,000): a
# block's Python work holds the GIL, so a block of few increments makes the
# other lane wait.
_REDUCE_ELEMENTS = 16 * 10_000


class BrownianFunctionals(NamedTuple):
    """Functionals of BM on [0, 1]; arrays of shape (n_draws,).

    One BM, for the zero-root laws: w1_end = w(1), z1 = int w, z2 = int w^2
    and z3 = int (int_0^t w)^2 dt.  Two independent BMs, for the Harmonic
    law, which sees the planar BM only through w1(1), w2(1), the Levy area
    and int (w1^2 + w2^2): w1_end, w2_end, levy = int w1 dw2 - int w2 dw1,
    s2 = int (w1^2 + w2^2) dt, and z2 = int w1^2, the first term of s2.
    The fields a mode does not compute are None.
    """

    w1_end: np.ndarray
    z2: np.ndarray
    z1: np.ndarray | None = None
    z3: np.ndarray | None = None
    w2_end: np.ndarray | None = None
    levy: np.ndarray | None = None
    s2: np.ndarray | None = None


class LimitSampleSet(NamedTuple):
    """Joint draws (l1, l2) from the limit law of one regime.

    grid_n is 0 for closed-form regimes; horizon is None for laws free of T.
    """

    l1: np.ndarray
    l2: np.ndarray
    regime: RegimeKind
    grid_n: int
    seed: int
    horizon: float | None = None


def brownian_functionals(grid_n: int, seed: int, two_bm: bool = False,
                         n_draws: int = 1) -> BrownianFunctionals:
    """Simulate the Brownian functionals on a grid of grid_n steps.

    two_bm selects the mode, and so the fields, that BrownianFunctionals lists.

    Draws come in chunks of `_CHUNK_ELEMENTS // (grid_n + 1)` paths; chunk c
    draws from stream (seed, DOMAIN_LIMIT, c), BM1 first, then BM2.  Two
    lanes, the calling thread and one worker thread, take chunks in turn
    from one `simulate._Lanes` until none is left, and each writes its
    chunks' fields at their rows of the result.

    A lane reduces a chunk in blocks of `_REDUCE_ELEMENTS // grid_n` rows
    (at least one, at most a chunk), in its own scratch: it draws the
    block's increments, forms the paths by cumsum, a row at a time (see
    _cumsum_rows), reads off w(1) and the Levy area and takes each
    trapezoid integral as one einsum of the squared paths (or of w) with
    the trapezoid weights, a fixed-order reduction inside numpy.  A
    block's lone row is reduced as both rows of a pair (see _row_einsum),
    so a draw's fields do not depend on the block it falls in.  No BLAS
    call is made, so the bits do not depend on the BLAS thread count.  With
    two BMs the Levy area of a block needs BM1's increments before any of
    BM2's are drawn, so the lane draws BM1's whole chunk into its own slot
    first; with one BM it keeps no slot.  Consecutive `standard_normal`
    calls continue the stream, so a chunk drawn block by block has the
    increments of one call.

    The bits equal those of reducing one chunk after the other on one
    thread: each chunk has its own stream, its fields their own rows, and
    each lane its own slot and scratch.  A lane that fails takes every chunk
    left (the `_Lanes` stop rule), so the other one starts none.  The worker calls nothing that
    perfbench/tracer.py wraps: the tracer's span stack is single-threaded.
    """
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n}")
    if n_draws < 1:
        raise ValueError(f"n_draws must be >= 1, got {n_draws}")
    n, dt = grid_n, 1.0 / grid_n
    trapw = _trapezoid(1.0, n)
    chunk = max(1, _CHUNK_ELEMENTS // (n + 1))
    n_chunks = -(-n_draws // chunk)
    slot = min(chunk, n_draws)  # rows of the largest chunk
    block = max(1, min(_REDUCE_ELEMENTS // n, slot))
    names = ("w1_end", "z2", "w2_end", "levy", "s2") if two_bm else ("w1_end", "z2", "z1", "z3")
    out = {key: np.empty(n_draws) for key in names}

    def integrate(f: np.ndarray, rows: slice, key: str) -> None:
        out[key][rows] = _row_einsum("ij,j->i", f, trapw)

    def lane(chunks: _Lanes) -> None:
        bm1 = np.empty(slot * n) if two_bm else None
        dw = np.empty(block * n)
        paths = np.zeros((2, block, n + 1))  # w1, w2 or w's running trapezoid
        for taken in chunks.slices(1):
            c = taken.start
            start, gen = c * chunk, rng.stream(seed, rng.DOMAIN_LIMIT, c)
            m = min(chunk, n_draws - start)
            if two_bm:
                dw1 = bm1[:m * n].reshape(m, n)
                gen.standard_normal(out=dw1)
                dw1 *= math.sqrt(dt)
            for r0 in range(0, m, block):
                k = min(block, m - r0)
                rows = slice(start + r0, start + r0 + k)
                d, (w1, w2) = dw[:k * n].reshape(k, n), paths[:, :k]
                gen.standard_normal(out=d)
                d *= math.sqrt(dt)
                if two_bm:
                    d1 = dw1[r0:r0 + k]
                    _cumsum_rows(d1, w1[:, 1:])
                    _cumsum_rows(d, w2[:, 1:])
                    out["w2_end"][rows] = w2[:, -1]
                    np.subtract(_row_einsum("ij,ij->i", w1[:, :-1], d),
                                _row_einsum("ij,ij->i", w2[:, :-1], d1), out=out["levy"][rows])
                    integrate(np.multiply(w2, w2, out=w2), rows, "s2")
                else:
                    _cumsum_rows(d, w1[:, 1:])
                    integrate(w1, rows, "z1")
                    np.add(w1[:, :-1], w1[:, 1:], out=d)  # w's running trapezoid, in d's place
                    _cumsum_rows(d, w2[:, 1:])
                    w2 *= dt / 2.0
                    integrate(np.multiply(w2, w2, out=w2), rows, "z3")
                out["w1_end"][rows] = w1[:, -1]
                integrate(np.multiply(w1, w1, out=w1), rows, "z2")

    chunks = _Lanes(n_chunks, "car2-limits", lane if n_chunks > 1 else None)
    try:
        lane(chunks)
    finally:
        chunks.close()
    chunks.result()
    if two_bm:
        out["s2"] += out["z2"]
    return BrownianFunctionals(**out)


def _cumsum_rows(a: np.ndarray, out: np.ndarray) -> None:
    """out[i] = cumsum(a[i]) for each row: the bits of a cumsum along axis 1,
    but the GIL is released for each row (out must not overlap a).  The
    ufunc's accumulate is called directly: np.cumsum's dispatch costs about
    as much as summing a row of 1,000 (5 us on a 2-vCPU VM, numpy 2.4)."""
    for row, dest in zip(a, out):
        np.add.accumulate(row, out=dest)


def _row_einsum(subscripts: str, *operands: np.ndarray) -> np.ndarray:
    """np.einsum(subscripts, *operands) for a reduction of each row of a block.

    numpy 2.4 reduces a lone row longer than 8,192 elements in buffer-sized
    pieces, which round otherwise than the same row in a block of two rows or
    more; so a lone row is reduced as both rows of a pair, a read-only view
    that repeats it.  The 1-D operands (weights) are passed as they are.
    """
    k = len(operands[0])
    if k == 1:
        operands = tuple(np.broadcast_to(a, (2, a.shape[1])) if a.ndim == 2 else a
                         for a in operands)
    return np.einsum(subscripts, *operands)[:k]


def _cauchy_offset(roots: RootPair, params: ModelParams, q: float) -> float:
    p = roots.p.real
    return math.sqrt(2.0 * q) * (params.dx0 - p * params.x0) / params.sigma


def _unstable_oscillation(roots: RootPair, params: ModelParams, n: int,
                          horizon: float, gen: np.random.Generator):
    """Limit of e^(lam T)(theta_hat - theta) at the phase set by the horizon.

    Draws the terminal-mode Gaussian pair (u_c, u_s) (means from the initial
    conditions) and the phase-locked pair (h_c, h_s), then applies
    sigma * Psi~^(-1) [[1,0],[lam,nu]] [[-u_s,u_c],[u_c,u_s]] (h_c,h_s)^T,
    where Psi~ is the asymptotic e^(-2 lam T) Psi_T template.  The o(1)
    terms of the (h_c, h_s) covariance are dropped.
    """
    lam, nu, sig = roots.lam, roots.nu, params.sigma
    phi = math.atan2(nu, lam)
    psi_phase = 2.0 * nu * horizon - phi
    s2l = lam * lam + nu * nu
    kap = lam / math.sqrt(s2l)
    sc2 = (1.0 + kap * math.cos(psi_phase)) / (4.0 * lam)
    ss2 = (1.0 - kap * math.cos(psi_phase)) / (4.0 * lam)
    scs = math.sin(psi_phase) / (4.0 * math.sqrt(s2l))
    cov_h = np.array([[sc2, scs], [scs, ss2]])
    cov_u = (sig**2 / nu**2) * np.array([
        [1.0 / (4.0 * lam) + lam / (4.0 * s2l), nu / (4.0 * s2l)],
        [nu / (4.0 * s2l), 1.0 / (4.0 * lam) - lam / (4.0 * s2l)],
    ])
    mean_u = np.array([(params.dx0 - lam * params.x0) / nu, -params.x0])
    hc, hs = np.linalg.cholesky(cov_h) @ gen.standard_normal((2, n))
    uc, us = mean_u[:, None] + np.linalg.cholesky(cov_u) @ gen.standard_normal((2, n))

    a = uc**2 * ss2 - 2.0 * uc * us * scs + us**2 * sc2
    xy = uc * us * (ss2 - sc2) + (uc**2 - us**2) * scs
    yy = us**2 * ss2 + 2.0 * uc * us * scs + uc**2 * sc2
    p11 = a
    p12 = lam * a + nu * xy
    p22 = lam * lam * a + 2.0 * lam * nu * xy + nu * nu * yy
    det = p11 * p22 - p12 * p12
    r1 = -us * hc + uc * hs
    r2 = lam * r1 + nu * (uc * hc + us * hs)
    l2 = sig * (p22 * r1 - p12 * r2) / det
    l1 = sig * (-p12 * r1 + p11 * r2) / det
    return l1, l2


def sample_limit(regime: Regime, params: ModelParams, n: int, grid_n: int = 10_000,
                 seed: int = 0, horizon: float | None = None) -> LimitSampleSet:
    """Draw n joint samples (l1, l2) from the regime's limit law.

    l1 is the limit of v1(T)(theta1_hat - theta1), l2 of
    v2(T)(theta2_hat - theta2); the law's constants come from regime.roots,
    its initial-state offsets and sigma from params.  horizon is required
    only where the record says the law reads T (UnstableOscillation, through
    the phase 2*nu*T), and the draws record it there (LimitSampleSet.horizon).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if horizon is not None and not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    record = check_rules(regime, limit_law=True, sigma=params.sigma, grid_n=grid_n)
    if record.horizon and horizon is None:
        raise ValueError(f"horizon (phase) required for {regime.tag.value}")
    kind, roots = regime.tag, regime.roots
    gen = rng.stream(seed, rng.DOMAIN_LIMIT, 2**40)  # scalar draws; BM uses its own streams
    if record.grid:
        fn = brownian_functionals(grid_n, seed, kind is RegimeKind.HARMONIC, n)

    if kind is RegimeKind.ERGODIC:
        t1, t2 = roots.theta1, roots.theta2
        l1 = math.sqrt(2.0) * abs(t1) * gen.standard_normal(n)
        l2 = math.sqrt(2.0 * abs(t2)) * abs(t1) * gen.standard_normal(n)
    elif kind is RegimeKind.OPPOSITE_SIGN:
        p, q = roots.p.real, roots.q.real
        l1 = math.sqrt(2.0) * abs(q) * gen.standard_normal(n)
        l2 = -p * l1
    elif kind is RegimeKind.DISTINCT_POSITIVE:
        p, q = roots.p.real, roots.q.real
        c = _cauchy_offset(roots, params, q)
        eta, xi = gen.standard_normal((2, n))
        l1 = (2.0 * (p + q) * q / (p - q)) * eta / (xi + c)
        l2 = -p * l1
    elif kind is RegimeKind.POSITIVE_DOUBLE:
        q = (roots.p.real + roots.q.real) / 2.0
        c = _cauchy_offset(roots, params, q)
        eta, xi = gen.standard_normal((2, n))
        # Coefficient 4q: the e^{qT}/(qT) normalization picks up a same-order
        # correction to T*(eta_{q,1}-eta_{q,2}) that halves the variance.
        l1 = 4.0 * q * eta / (xi + c)
        l2 = -q * l1
    elif kind is RegimeKind.LARGER_ROOT_ZERO:
        t1 = roots.theta1
        l1 = math.sqrt(2.0) * abs(t1) * gen.standard_normal(n)
        l2 = abs(t1) * (fn.w1_end**2 - 1.0) / (2.0 * fn.z2)
    elif kind is RegimeKind.SMALLER_ROOT_ZERO:
        t1 = roots.theta1
        l1 = t1 * (fn.w1_end**2 - 1.0) / (2.0 * fn.z2)
        l2 = -l1
    elif kind is RegimeKind.ZERO_DOUBLE:
        w1 = fn.w1_end
        den = 4.0 * fn.z2 * fn.z3 - fn.z1**4
        l1 = (2.0 * fn.z3 * (w1**2 - 1.0) - 2.0 * fn.z1**2 * (w1 * fn.z1 - fn.z2)) / den
        l2 = (4.0 * fn.z2 * (w1 * fn.z1 - fn.z2) - fn.z1**2 * (w1**2 - 1.0)) / den
    elif kind is RegimeKind.HARMONIC:
        nu = roots.nu
        # Numerator orientation (w1^2 + w2^2 - 2): follows from the proof-level
        # limits of int X'dW and int X'^2 dt; the theorem display has it flipped.
        l1 = (fn.w1_end**2 + fn.w2_end**2 - 2.0) / fn.s2
        l2 = 2.0 * nu * fn.levy / fn.s2
    else:  # UNSTABLE_OSCILLATION
        l1, l2 = _unstable_oscillation(roots, params, n, horizon, gen)

    return LimitSampleSet(l1=np.asarray(l1, dtype=float), l2=np.asarray(l2, dtype=float),
                          regime=kind, grid_n=grid_n if record.grid else 0, seed=seed,
                          horizon=horizon if record.horizon else None)
