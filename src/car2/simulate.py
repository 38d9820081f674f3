"""Sample paths of (X, X') on a uniform grid.

The exact scheme draws, per step, the joint Gaussian triple
(dW, noise-to-X, noise-to-X') from the transition kernel and advances the
state with the kernel's mean matrix, so the simulated marginal law is exact
at any step size.  An Euler-Maruyama scheme is included for cross-checks.

The linear recursion state[k+1] = M state[k] + noise[k] is evaluated with
scipy.signal.lfilter through its scalar second-order form (Cayley-Hamilton:
M^2 = tr(M) M - det(M) I), which is a C-speed loop and works for defective
M (double roots) where diagonalization would not.

Exact paths come from one block kernel, `simulate_exact`: per grid it builds
the mean path, the transition kernel and its noise factor once, then fills
rows of replications, each from its own Philox stream, and filters a block
of rows in one `lfilter` call.  A block holds at most `_BLOCK_ELEMENTS`
elements per (rows, n+1) array (one row if n is larger), so memory stays
flat in the number of replications.  `simulate` is row 0 of a one-row block.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.signal import lfilter

from . import rng
from .model import ModelParams, char_roots, fundamental_solutions, transition

__all__ = [
    "SimConfig",
    "SamplePath",
    "SimBlock",
    "SimulationOverflowError",
    "simulate",
    "simulate_exact",
    "rescale_time",
]


class SimulationOverflowError(FloatingPointError):
    """State left the float64 range (explosive regime, horizon too long)."""

    def __init__(self, step: int, horizon_reached: float):
        self.step = step
        self.horizon_reached = horizon_reached
        super().__init__(
            f"non-finite state at step {step} (t ~ {horizon_reached:.6g}); "
            "shorten the horizon for this regime"
        )


@dataclass(frozen=True)
class SimConfig:
    horizon: float
    n_steps: int
    scheme: str = "exact"  # "exact" | "euler"
    record_noise: bool = False
    seed: int = 0
    replication_index: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.scheme not in ("exact", "euler"):
            raise ValueError(f"scheme must be 'exact' or 'euler', got {self.scheme!r}")


@dataclass(frozen=True)
class SamplePath:
    """Uniform-grid samples of (X, X') with optional driving noise increments.

    dw[i] is the Brownian increment of the step starting at t[i]; it is all
    zeros when sigma == 0 and None when not recorded.  Arrays are read-only.
    """

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    dw: np.ndarray | None
    sigma: float
    params: ModelParams

    def __post_init__(self):
        n = len(self.t) - 1
        if len(self.x) != n + 1 or len(self.v) != n + 1:
            raise ValueError("t, x, v must have equal length")
        if self.dw is not None and len(self.dw) != n:
            raise ValueError("dw must have one entry per step")
        for arr in (self.t, self.x, self.v, self.dw):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def n_steps(self) -> int:
        return len(self.t) - 1

    @property
    def step(self) -> float:
        return float(self.t[-1]) / self.n_steps

    @property
    def horizon(self) -> float:
        return float(self.t[-1])


class SimBlock(NamedTuple):
    """Rows of replications reps on grid t; overflow flags rows that left float64."""
    reps: Sequence[int]
    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    dw: np.ndarray | None
    overflow: np.ndarray


# Elements per (rows, n+1) array of a `simulate_exact` block.
_BLOCK_ELEMENTS = 2**13


def _second_order_filter(m: np.ndarray, xi_x: np.ndarray, xi_v: np.ndarray,
                         y0: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Run state[k+1] = m @ state[k] + (xi_x[k], xi_v[k]) from state[0] = y0.

    Time runs along the last axis of xi_x, xi_v; leading axes are independent
    paths.  Returns the two component sequences, n+1 long in time.
    """
    n = xi_x.shape[-1]
    tau = m[0, 0] + m[1, 1]
    delta = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    out = []
    for comp, other, row in ((0, 1, (xi_x, xi_v)), (1, 0, (xi_v, xi_x))):
        own, cross = row
        u = np.zeros(own.shape[:-1] + (n + 1,))
        u[..., 0] = y0[comp]
        first = m[comp, 0] * y0[0] + m[comp, 1] * y0[1] + own[..., 0]
        u[..., 1] = first - tau * y0[comp]
        if n > 1:
            u[..., 2:] = (own[..., 1:] + (m[comp, comp] - tau) * own[..., :-1]
                          + m[comp, other] * cross[..., :-1])
        out.append(lfilter([1.0], [1.0, -tau, delta], u, axis=-1))
    return out[0], out[1]


def _noise_factor(cov: np.ndarray) -> np.ndarray:
    """Symmetric factor L with L L^T = cov, small negative eigenvalues clipped."""
    w, vec = np.linalg.eigh(cov)
    floor = -1e-12 * max(np.trace(cov), 0.0)
    if w.min() < floor:
        raise ValueError(f"transition covariance not PSD: min eigenvalue {w.min():.3e}")
    return vec * np.sqrt(np.clip(w, 0.0, None))


def simulate_exact(params: ModelParams, horizon: float, n_steps: int,
                   reps: Sequence[int], seed: int = 0,
                   record_noise: bool = False) -> Iterator[SimBlock]:
    """The replications in reps, simulated in blocks of consecutive rows.

    The row of replication k is bit for bit that of a one-row call with
    reps=[k], so it does not depend on the blocking; a row that left the
    float64 range is flagged instead of raised.
    """
    SimConfig(horizon=horizon, n_steps=n_steps)  # validates the grid
    n = n_steps
    t = np.linspace(0.0, horizon, n + 1)
    # Overflow in explosive regimes is flagged per row below; suppress the
    # intermediate warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        fs = fundamental_solutions(char_roots(params), t)
        x_mean = params.x0 * fs.x1 + params.dx0 * fs.x2
        v_mean = params.x0 * fs.dx1 + params.dx0 * fs.dx2
        if params.sigma > 0.0:
            kern = transition(params, horizon / n)
            factor_t = _noise_factor(kern.cov_matrix).T
    rows = max(1, _BLOCK_ELEMENTS // (n + 1))
    gen = np.random.Generator(np.random.Philox())  # re-keyed before each row's draws
    for start in range(0, len(reps), rows):
        block = reps[start:start + rows]
        if params.sigma > 0.0:
            draws = np.empty((len(block), n, 3))
            for i, k in enumerate(block):
                rng.rekey(gen, seed, rng.DOMAIN_SIM_EXACT, k).standard_normal(out=draws[i])
            with np.errstate(over="ignore", invalid="ignore"):
                draws = draws @ factor_t
                zx, zv = _second_order_filter(kern.mean_matrix, draws[..., 1],
                                              draws[..., 2], (0.0, 0.0))
                x, v = x_mean + zx, v_mean + zv
            dw = draws[..., 0]
        else:
            x, v = (np.broadcast_to(a, (len(block), n + 1)) for a in (x_mean, v_mean))
            dw = np.zeros((len(block), n))
        overflow = ~(np.isfinite(x) & np.isfinite(v)).all(axis=1)
        yield SimBlock(block, t, x, v, dw if record_noise else None, overflow)


def simulate(params: ModelParams, cfg: SimConfig) -> SamplePath:
    """Simulate one path.  Deterministic given (seed, replication_index)."""
    if cfg.scheme == "exact":
        (blk,) = simulate_exact(params, cfg.horizon, cfg.n_steps, [cfg.replication_index],
                                cfg.seed, cfg.record_noise)
        t, x, v, dw = blk.t, blk.x[0], blk.v[0], None if blk.dw is None else blk.dw[0]
    else:
        n, h = cfg.n_steps, cfg.horizon / cfg.n_steps
        m = np.array([[1.0, h], [params.theta2 * h, 1.0 + params.theta1 * h]])
        if params.sigma > 0.0:
            gen = rng.stream(cfg.seed, rng.DOMAIN_SIM_EULER, cfg.replication_index)
            dw = math.sqrt(h) * gen.standard_normal(n)
        else:
            dw = np.zeros(n)
        with np.errstate(over="ignore", invalid="ignore"):
            x, v = _second_order_filter(m, np.zeros(n), params.sigma * dw,
                                        (params.x0, params.dx0))
        t, dw = np.linspace(0.0, cfg.horizon, n + 1), dw if cfg.record_noise else None
    path = SamplePath(t=t, x=x, v=v, dw=dw, sigma=params.sigma, params=params)
    bad = ~(np.isfinite(path.x) & np.isfinite(path.v))
    if bad.any():
        k = int(np.argmax(bad))
        raise SimulationOverflowError(step=k, horizon_reached=float(path.t[k]))
    return path


def rescale_time(path: SamplePath, alpha: float) -> SamplePath:
    """Time-rescaled path Y(t) = X(alpha t) on the grid t_i / alpha.

    Velocities pick up a factor alpha, recorded increments 1/sqrt(alpha), and
    the noise scale alpha^(3/2); the rescaled path solves the CAR(2) equation
    with (alpha*theta1, alpha^2*theta2).
    """
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be positive, got {alpha}")
    p = path.params
    new_params = ModelParams(
        theta1=alpha * p.theta1,
        theta2=alpha * alpha * p.theta2,
        sigma=alpha ** 1.5 * p.sigma,
        x0=p.x0,
        dx0=alpha * p.dx0,
    )
    return SamplePath(
        t=path.t / alpha,
        x=path.x.copy(),
        v=alpha * path.v,
        dw=None if path.dw is None else path.dw / math.sqrt(alpha),
        sigma=alpha ** 1.5 * path.sigma,
        params=new_params,
    )
