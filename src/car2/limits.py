"""Samplers for the limit distributions of the normalized MLE residuals.

Closed-form regimes draw directly from Gaussian / Cauchy-type expressions;
functional regimes simulate standard Brownian motion on a fine grid over
[0, 1] and evaluate the required path functionals (dt-integrals by
trapezoid, stochastic integrals by left-point Ito sums).

The Brownian sampler computes only the functionals the limit laws read
(see BrownianFunctionals).  It is a two-stage pipeline: one worker thread
draws the normal increments of the next chunk of paths (numpy releases the
GIL while it fills an array) while the calling thread reduces the current
one, bit for bit as if the chunks were drawn and reduced in turn.

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


def _path(dw: np.ndarray, w: np.ndarray) -> None:
    """Fill w with the paths of the increments dw (w[:, 0] = 0)."""
    w[:, 0] = 0.0
    np.cumsum(dw, axis=1, out=w[:, 1:])


def brownian_functionals(grid_n: int, seed: int, two_bm: bool = False,
                         n_draws: int = 1) -> BrownianFunctionals:
    """Simulate the Brownian functionals on a grid of grid_n steps.

    two_bm selects the mode, and so the fields, that BrownianFunctionals lists.

    Draws come in chunks of `_CHUNK_ELEMENTS // (grid_n + 1)` paths; chunk c
    draws from stream (seed, DOMAIN_LIMIT, c), BM1 first, then BM2.  Every
    chunk works in the same slots of one slab: dw, w, inner (dw, w, spare,
    dw2, w2 for two_bm).  At large grids the slab is above malloc's largest
    mmap threshold (32 MiB), so it is mapped and unmapped whole and the
    peak memory does not depend on how the heap was reused.

    One worker thread fills the increments; the calling thread does all the
    rest (paths, products, einsums and every `@ trapw`), while the worker
    fills the next chunk into a slot the caller is done with:

    * one BM: chunk c+1 goes into dw as soon as chunk c's w is formed;
    * two BMs: chunk c+1's BM1 goes into the spare slot when chunk c
      starts, and its BM2 into dw2 as soon as the Levy einsums have read
      dw and dw2.  w and w2 are then squared in place and their two gemvs
      run back to back (OpenBLAS's threads spin for about 0.1 s after each
      threaded call, taking a CPU from the worker; bunched, they spin once
      per chunk).  dw and spare swap roles.

    The bits equal those of drawing and reducing one chunk after the other:
    each chunk has its own stream and the single worker runs the fills in
    the order they were submitted, so every stream yields the same normals;
    the caller makes the same elementwise, cumsum, einsum and gemv calls on
    arrays of the same shapes, strides and 64-byte alignment, so OpenBLAS
    splits the gemvs as before.  The worker calls only `standard_normal`
    and an in-place scale, nothing that perfbench/tracer.py wraps: the
    tracer's span stack is single-threaded.
    """
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n}")
    if n_draws < 1:
        raise ValueError(f"n_draws must be >= 1, got {n_draws}")
    dt = 1.0 / grid_n
    trapw = np.full(grid_n + 1, dt)
    trapw[0] = trapw[-1] = dt / 2.0
    chunk = max(1, _CHUNK_ELEMENTS // (grid_n + 1))
    sizes = [min(chunk, n_draws - start) for start in range(0, n_draws, chunk)]
    slot = -(-sizes[0] * (grid_n + 1) // 8) * 8  # 64-byte aligned slots
    slab = np.empty((5 if two_bm else 3) * slot)

    def buffer(index: int, m: int, width: int = grid_n + 1) -> np.ndarray:
        return slab[index * slot:index * slot + m * width].reshape(m, width)

    parts = []
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="car2-limits") as worker:

        def fill(gen: np.random.Generator, index: int, m: int):
            return worker.submit(_fill_increments, gen, buffer(index, m, grid_n))

        gen = rng.stream(seed, rng.DOMAIN_LIMIT, 0)
        bm1 = fill(gen, 0, sizes[0])
        bm2 = fill(gen, 3, sizes[0]) if two_bm else None
        dw_slot, spare_slot = 0, 2
        for c, m in enumerate(sizes):
            m_next = sizes[c + 1] if c + 1 < len(sizes) else 0
            if m_next:
                gen = rng.stream(seed, rng.DOMAIN_LIMIT, c + 1)
                if two_bm:
                    bm1_next = fill(gen, spare_slot, m_next)
            bm1.result()
            dw, w = buffer(dw_slot, m, grid_n), buffer(1, m)
            _path(dw, w)
            fields = dict(w1_end=w[:, -1].copy())
            if not two_bm:
                if m_next:
                    bm1 = fill(gen, dw_slot, m_next)
                inner = buffer(2, m)
                fields["z1"] = w @ trapw
                fields["z2"] = np.multiply(w, w, out=inner) @ trapw
                np.add(w[:, :-1], w[:, 1:], out=inner[:, 1:])  # running trapezoid of w
                inner[:, 0] = 0.0
                np.cumsum(inner[:, 1:], axis=1, out=inner[:, 1:])
                inner *= dt / 2.0
                fields["z3"] = np.multiply(inner, inner, out=inner) @ trapw
            else:
                bm2.result()
                dw2, w2 = buffer(3, m, grid_n), buffer(4, m)
                _path(dw2, w2)
                fields["w2_end"] = w2[:, -1].copy()
                fields["levy"] = (np.einsum("ij,ij->i", w[:, :-1], dw2)
                                  - np.einsum("ij,ij->i", w2[:, :-1], dw))
                if m_next:
                    bm1, bm2 = bm1_next, fill(gen, 3, m_next)
                w *= w
                w2 *= w2
                fields["z2"] = w @ trapw
                fields["s2"] = fields["z2"] + w2 @ trapw
                dw_slot, spare_slot = spare_slot, dw_slot
            parts.append(fields)
    merged = {
        key: np.concatenate([p[key] for p in parts])
        for key in parts[0]
    }
    return BrownianFunctionals(**merged)


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
