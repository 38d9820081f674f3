"""Samplers for the limit distributions of the normalized MLE residuals.

Closed-form regimes draw directly from Gaussian / Cauchy-type expressions;
functional regimes simulate standard Brownian motion on a fine grid over
[0, 1] and evaluate the required path functionals (dt-integrals by
trapezoid, stochastic integrals by left-point Ito sums).

The Brownian sampler computes only the functionals the limit laws read
(see BrownianFunctionals).  It runs chunks of paths on two lanes, the
calling thread and one worker thread, each drawing and reducing its chunk
in place in its own slots (numpy releases the GIL in both); the caller
then runs every BLAS call, bit for bit as if the chunks were drawn and
reduced in turn.

Draws are returned jointly as (l1, l2): wherever the theory couples the two
coordinates (one limit a fixed negative multiple of the other, or both built
from one Brownian path), the stored pair satisfies the coupling exactly.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng
from .model import ModelParams, Regime, RegimeKind, RootPair

__all__ = [
    "BrownianFunctionals",
    "LimitSampleSet",
    "brownian_functionals",
    "sample_limit",
]

MIN_FUNCTIONAL_GRID = 1000
_CHUNK_ELEMENTS = 2**22
_REDUCE_ROWS = 16  # rows per in-place reduce block of a chunk

_FUNCTIONAL_REGIMES = frozenset({
    RegimeKind.LARGER_ROOT_ZERO,
    RegimeKind.SMALLER_ROOT_ZERO,
    RegimeKind.ZERO_DOUBLE,
    RegimeKind.HARMONIC,
})

_SIGMA_DEPENDENT = frozenset({
    RegimeKind.DISTINCT_POSITIVE,
    RegimeKind.POSITIVE_DOUBLE,
    RegimeKind.UNSTABLE_OSCILLATION,
})


@dataclass(frozen=True)
class BrownianFunctionals:
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


@dataclass(frozen=True)
class LimitSampleSet:
    """Joint draws (l1, l2) from the limit law of one regime.

    grid_n is 0 for closed-form regimes.
    """

    l1: np.ndarray
    l2: np.ndarray
    regime: RegimeKind
    grid_n: int
    seed: int


def _fill_increments(gen: np.random.Generator, dw: np.ndarray) -> None:
    """Fill dw with Brownian increments on a grid of dw.shape[1] steps over [0, 1]."""
    gen.standard_normal(out=dw)
    dw *= math.sqrt(1.0 / dw.shape[1])


def brownian_functionals(grid_n: int, seed: int, two_bm: bool = False,
                         n_draws: int = 1) -> BrownianFunctionals:
    """Simulate the Brownian functionals on a grid of grid_n steps.

    two_bm selects the mode, and so the fields, that BrownianFunctionals lists.

    Draws come in chunks of `_CHUNK_ELEMENTS // (grid_n + 1)` paths; chunk c
    draws from stream (seed, DOMAIN_LIMIT, c), BM1 first, then BM2.  Chunks
    run in pairs on two lanes: the calling thread in slots 0 and 1 of one
    slab, one worker thread in slots 2 and 3.  At large grids the slab is
    above malloc's largest mmap threshold (32 MiB), so it is mapped and
    unmapped whole and the peak memory does not depend on heap reuse.

    A lane draws each BM's increments with one `standard_normal` call into
    the head of its slot, then reduces them in place, `_REDUCE_ROWS` rows
    at a time: the paths go to the lane's scratch, w(1) and the Levy area
    are read off, and the slots' rows are overwritten with the (rows, n+1)
    arrays the gemvs read: w1^2 and w2^2, or w and the squared running
    trapezoid of w.  Row r's result starts at element r(n+1), at or past
    its increments (rn), so it overwrites only increments of its own block
    or of later ones; the blocks run last first, so those have been read.

    The caller runs every `@ trapw` gemv (squaring w in place for int w^2),
    in chunk order, back to back per pair.  No BLAS call runs on the
    worker: a concurrent threaded gemv could change how OpenBLAS splits the
    rows.  OpenBLAS's threads spin for about 0.1 s after each threaded
    call, taking a CPU from the lanes; bunched, they spin once per pair.

    The bits equal those of drawing and reducing one chunk after the other:
    each chunk has its own stream and slots, the lanes make the same
    elementwise, cumsum and per-row einsum calls on each row, and the
    caller the same gemvs on arrays of the same shapes, strides and 64-byte
    alignment.  The worker calls nothing that perfbench/tracer.py wraps:
    the tracer's span stack is single-threaded.
    """
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n}")
    if n_draws < 1:
        raise ValueError(f"n_draws must be >= 1, got {n_draws}")
    n, dt = grid_n, 1.0 / grid_n
    trapw = np.full(n + 1, dt)
    trapw[0] = trapw[-1] = dt / 2.0
    chunk = max(1, _CHUNK_ELEMENTS // (n + 1))
    sizes = [min(chunk, n_draws - start) for start in range(0, n_draws, chunk)]
    slot = -(-sizes[0] * (n + 1) // 8) * 8  # 64-byte aligned slots
    slab = np.empty(4 * slot)
    scratch = np.zeros((2, 2, _REDUCE_ROWS, n + 1))  # per lane: w1, w2 or w's trapezoid

    def buffer(index: int, m: int, width: int = n + 1) -> np.ndarray:
        return slab[index * slot:index * slot + m * width].reshape(m, width)

    def lane(c: int, first: int) -> dict[str, np.ndarray]:
        """Draw chunk c into slots first, first+1 and reduce it there."""
        m, gen = sizes[c], rng.stream(seed, rng.DOMAIN_LIMIT, c)
        dw = [buffer(first + i, m, n) for i in range(1 + two_bm)]
        for d in dw:
            _fill_increments(gen, d)
        out = buffer(first, m), buffer(first + 1, m)
        fields = {key: np.empty(m) for key in ("w1_end", "w2_end", "levy")[:1 + 2 * two_bm]}
        for r0 in reversed(range(0, m, _REDUCE_ROWS)):
            rows = slice(r0, min(r0 + _REDUCE_ROWS, m))
            w1, w2 = scratch[first // 2, :, :rows.stop - r0]
            for w, d in zip((w1, w2), dw):
                np.cumsum(d[rows], axis=1, out=w[:, 1:])
            fields["w1_end"][rows] = w1[:, -1]
            if two_bm:
                fields["w2_end"][rows] = w2[:, -1]
                np.subtract(np.einsum("ij,ij->i", w1[:, :-1], dw[1][rows]),
                            np.einsum("ij,ij->i", w2[:, :-1], dw[0][rows]),
                            out=fields["levy"][rows])
                np.multiply(w1, w1, out=out[0][rows])
            else:
                out[0][rows] = w1
                np.add(w1[:, :-1], w1[:, 1:], out=w2[:, 1:])  # running trapezoid of w
                np.cumsum(w2[:, 1:], axis=1, out=w2[:, 1:])
                w2 *= dt / 2.0
            np.multiply(w2, w2, out=out[1][rows])
        return fields

    parts = []
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="car2-limits") as worker:
        for c in range(0, len(sizes), 2):
            there = worker.submit(lane, c + 1, 2) if c + 1 < len(sizes) else None
            pair = [lane(c, 0)] + ([there.result()] if there else [])
            for first, fields in zip((0, 2), pair):
                m = len(fields["w1_end"])
                a, b = buffer(first, m), buffer(first + 1, m)
                if two_bm:
                    fields["z2"] = a @ trapw
                    fields["s2"] = fields["z2"] + b @ trapw
                else:
                    fields["z1"] = a @ trapw
                    fields["z2"] = np.multiply(a, a, out=a) @ trapw
                    fields["z3"] = b @ trapw
                parts.append(fields)
    return BrownianFunctionals(**{key: np.concatenate([p[key] for p in parts])
                                  for key in parts[0]})


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


def check_limit_law(regime: Regime, params: ModelParams, grid_n: int) -> None:
    """Raise ValueError if sample_limit cannot draw the regime's limit law."""
    kind = regime.tag
    if kind in _FUNCTIONAL_REGIMES and grid_n < MIN_FUNCTIONAL_GRID:
        raise ValueError(
            f"grid_n >= {MIN_FUNCTIONAL_GRID} required for functional regime {kind.value}"
        )
    if kind in _SIGMA_DEPENDENT and params.sigma == 0.0:
        raise ValueError(f"sigma = 0: limit law of {kind.value} undefined")


def sample_limit(regime: Regime, params: ModelParams, n: int, grid_n: int = 10_000,
                 seed: int = 0, horizon: float | None = None) -> LimitSampleSet:
    """Draw n joint samples (l1, l2) from the regime's limit law.

    l1 is the limit of v1(T)(theta1_hat - theta1), l2 of
    v2(T)(theta2_hat - theta2); the law's constants come from regime.roots,
    its initial-state offsets and sigma from params.  horizon is required
    only for UnstableOscillation, whose limit depends on the phase 2*nu*T.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if horizon is not None and not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    check_limit_law(regime, params, grid_n)
    kind, roots = regime.tag, regime.roots
    gen = rng.stream(seed, rng.DOMAIN_LIMIT, 2**40)  # scalar draws; BM uses its own streams
    used_grid = 0
    if kind in _FUNCTIONAL_REGIMES:
        used_grid = grid_n
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
    elif kind is RegimeKind.UNSTABLE_OSCILLATION:
        if horizon is None:
            raise ValueError("horizon (phase) required for UnstableOscillation")
        l1, l2 = _unstable_oscillation(roots, params, n, horizon, gen)
    else:  # pragma: no cover
        raise ValueError(f"unknown regime {kind}")

    return LimitSampleSet(l1=np.asarray(l1, dtype=float), l2=np.asarray(l2, dtype=float),
                          regime=kind, grid_n=used_grid, seed=seed)
