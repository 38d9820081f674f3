"""Sample paths of (X, X') on a uniform grid.

`simulate(params, horizon, n_steps, *, scheme, record_noise, seed, rep)`
gives one path.  The exact scheme draws, per step, the joint Gaussian
triple (dW, noise-to-X, noise-to-X') from the transition kernel and
advances the state with the kernel's mean matrix, so the simulated marginal
law is exact at any step size.  An Euler-Maruyama scheme is included for
cross-checks.

The linear recursion state[k+1] = M state[k] + noise[k] runs in its scalar
second-order form (Cayley-Hamilton: M^2 = tr(M) M - det(M) I), which works
for defective M (double roots) where diagonalization would not: after a
two-tap transform of the noise, each state component u obeys
u[k] += tr(M) u[k-1] - det(M) u[k-2].  `_recurrence` runs that in place on
a (rows, n+1) array, bit for bit as scipy.signal.lfilter would: the float
operations of its direct form II transposed, from its zero state.  A numpy
step costs microseconds of call overhead at any width, so wide arrays recur
across the rows, one step over all rows at a time, and arrays of a few rows
(`simulate`, Euler) recur along each row on Python floats.

Exact paths come from one block kernel, `simulate_exact`: per grid it builds
the mean path, the transition kernel and its noise factor once, then
recurs blocks of hundreds of rows in one reused buffer, each row filled
from its own Philox stream, and yields each block in slices of fresh rows,
the mean path added.  Memory stays flat in the number of replications, no
row depends on its block, and an exact `simulate` path is row 0 of a
one-row block.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import rng
from .model import ModelParams, char_roots, fundamental_solutions, transition

__all__ = [
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
        if not len(self.t) == len(self.x) == len(self.v):
            raise ValueError("t, x, v must have equal length")
        if self.dw is not None and len(self.dw) != self.n_steps:
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
    """Rows of replications reps on grid t; n_finite counts each row's
    leading samples where x and v are finite (n+1 for a row that stayed so)."""
    reps: Sequence[int]
    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    dw: np.ndarray | None
    n_finite: np.ndarray


# Elements per (rows, n+1) array of a `simulate_exact` block (one row if n
# is larger), and of the row slices it draws its normals in and yields.
_BLOCK_ELEMENTS, _DRAW_ELEMENTS, _YIELD_ELEMENTS = 2**21, 2**13, 2**16
# Arrays of at most this many rows recur along each row, on Python floats;
# wider ones across the rows, _CHUNK_STEPS time steps at a time.
_NARROW_ROWS, _CHUNK_STEPS = 16, 64


@np.errstate(over="ignore", invalid="ignore")  # non-finite rows are the caller's to flag
def _recurrence(u: np.ndarray, tau: float, delta: float) -> None:
    """Run u[:, k] += tau*u[:, k-1] - delta*u[:, k-2] in place, bit for bit as
    lfilter([1], [1, -tau, delta], u, axis=-1) (non-finite where it is).

    lfilter starts from a zero state, so step 0 adds 0.0 and step 1 adds
    0.0 + tau*u[:, 0].  Its direct form II transposed also adds
    u[:, k-1]*0 + u[:, k-2]*0 of the input, which sets only the sign of a
    zero u[:, k] (or makes NaN next to a non-finite input, where lfilter's
    output is not finite either): that is added first, when u has a zero.
    """
    rows, n1 = u.shape
    tau, delta = float(tau), float(delta)
    if not u[:, 2:].all():
        u[:, 2:] += u[:, 1:-1] * 0.0 + u[:, :-2] * 0.0
    u[:, :1] += 0.0
    u[:, 1:2] += tau * u[:, :1] + 0.0
    if n1 < 3:
        return
    if rows <= _NARROW_ROWS:
        for row in u:
            xs = row.tolist()
            ys = xs[:2]
            y2, y1 = ys
            for x in xs[2:]:
                y2, y1 = y1, x + (tau * y1 - delta * y2)
                ys.append(y1)
            row[:] = ys
        return
    # Across the rows: each chunk of steps is copied time-major into s, after
    # the last two outputs, so that every operation runs on contiguous rows.
    s = np.empty((_CHUNK_STEPS + 2, rows))
    s_rows, pairs = list(s), [s[j:j + 2] for j in range(_CHUNK_STEPS)]
    coef = np.repeat([[delta], [tau]], rows, axis=1)  # unbroadcast: numpy's fastest loop
    pq, w = np.empty((2, rows)), np.empty(rows)
    q, p = pq
    s[:2] = u[:, :2].T
    for k0 in range(2, n1, _CHUNK_STEPS):
        m = min(_CHUNK_STEPS, n1 - k0)
        s[2:m + 2] = u[:, k0:k0 + m].T
        for pair, y in zip(pairs[:m], s_rows[2:m + 2]):
            np.multiply(pair, coef, out=pq)  # delta*u[:, k-2], tau*u[:, k-1]
            np.subtract(p, q, out=w)
            np.add(y, w, out=y)
        u[:, k0:k0 + m] = s[2:m + 2].T
        s[:2] = s[m:m + 2]


def _recurrence_input(m: np.ndarray, xi_x: np.ndarray, xi_v: np.ndarray,
                      y0: tuple[float, float], ux: np.ndarray,
                      uv: np.ndarray) -> tuple[float, float]:
    """Write into the (rows, n+1) arrays ux, uv the input that makes
    `_recurrence` run state[k+1] = m @ state[k] + (xi_x[:, k], xi_v[:, k])
    from state[0] = y0, each row a path; return its (tau, delta)."""
    tau = m[0, 0] + m[1, 1]
    for comp, other, own, cross, u in ((0, 1, xi_x, xi_v, ux), (1, 0, xi_v, xi_x, uv)):
        u[:, 0] = y0[comp]
        u[:, 1] = m[comp, 0] * y0[0] + m[comp, 1] * y0[1] + own[:, 0] - tau * y0[comp]
        u[:, 2:] = (own[:, 1:] + (m[comp, comp] - tau) * own[:, :-1]
                    + m[comp, other] * cross[:, :-1])
    return tau, m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def _n_finite(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Count of leading samples, along the last axis, where x and v are both finite."""
    finite = np.isfinite(x) & np.isfinite(v)
    return np.where(finite.all(axis=-1), finite.shape[-1], finite.argmin(axis=-1))


def _check_grid(horizon: float, n_steps: int) -> None:
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be positive, got {horizon}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")


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
    float64 range is counted in n_finite instead of raised.
    """
    _check_grid(horizon, n_steps)
    n = n_steps
    t = np.linspace(0.0, horizon, n + 1)
    # Overflow in explosive regimes is counted per row below; suppress the
    # intermediate warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        fs = fundamental_solutions(char_roots(params), t)
        x_mean = params.x0 * fs.x1 + params.dx0 * fs.x2
        v_mean = params.x0 * fs.dx1 + params.dx0 * fs.dx2
        if params.sigma > 0.0:
            kern = transition(params, horizon / n)
            factor_t = _noise_factor(kern.cov_matrix).T
    rows = max(1, min(len(reps), _BLOCK_ELEMENTS // (n + 1)))
    draw_rows, yield_rows = (max(1, size // (n + 1)) for size in (_DRAW_ELEMENTS, _YIELD_ELEMENTS))
    buffer = np.empty((2 * rows, n + 1))  # a block's x rows, then its v rows
    gen = np.random.Generator(np.random.Philox())  # re-keyed before each row's draws
    for start in range(0, len(reps), rows):
        block = reps[start:start + rows]
        r = len(block)
        u, dw = buffer[:2 * r], np.zeros((r, n)) if record_noise else None
        if params.sigma > 0.0:
            with np.errstate(over="ignore", invalid="ignore"):
                for i in range(0, r, draw_rows):
                    sub = block[i:i + draw_rows]
                    draws = np.empty((len(sub), n, 3))
                    for j, k in enumerate(sub):
                        rng.rekey(gen, seed, rng.DOMAIN_SIM_EXACT, k).standard_normal(out=draws[j])
                    draws = draws @ factor_t
                    coefficients = _recurrence_input(kern.mean_matrix, draws[..., 1],
                                                     draws[..., 2], (0.0, 0.0), u[i:i + len(sub)],
                                                     u[r + i:r + i + len(sub)])
                    if record_noise:
                        dw[i:i + len(sub)] = draws[..., 0]
                _recurrence(u, *coefficients)
        for i in range(0, r, yield_rows):
            rows_i = slice(i, i + yield_rows)
            if params.sigma > 0.0:
                with np.errstate(over="ignore", invalid="ignore"):  # fresh rows: u is reused
                    x, v = np.add(x_mean, u[:r][rows_i]), np.add(v_mean, u[r:][rows_i])
            else:
                x, v = (np.broadcast_to(a, (len(block[rows_i]), n + 1)) for a in (x_mean, v_mean))
            yield SimBlock(block[rows_i], t, x, v, None if dw is None else dw[rows_i],
                           _n_finite(x, v))


def simulate(params: ModelParams, horizon: float, n_steps: int, *, scheme: str = "exact",
             record_noise: bool = False, seed: int = 0, rep: int = 0) -> SamplePath:
    """One path of n_steps steps over [0, horizon] by scheme "exact" or "euler";
    dw is kept when record_noise is set.  Deterministic given (seed, rep)."""
    if scheme == "exact":
        (blk,) = simulate_exact(params, horizon, n_steps, [rep], seed, record_noise)
        t, x, v, dw = blk.t, blk.x[0], blk.v[0], None if blk.dw is None else blk.dw[0]
        n_finite = blk.n_finite[0]
    elif scheme == "euler":
        _check_grid(horizon, n_steps)
        n, h = n_steps, horizon / n_steps
        m = np.array([[1.0, h], [params.theta2 * h, 1.0 + params.theta1 * h]])
        dw = (math.sqrt(h) * rng.stream(seed, rng.DOMAIN_SIM_EULER, rep).standard_normal(n)
              if params.sigma > 0.0 else np.zeros(n))
        u = np.empty((2, n + 1))
        with np.errstate(over="ignore", invalid="ignore"):
            coefficients = _recurrence_input(m, np.zeros((1, n)), params.sigma * dw[None],
                                             (params.x0, params.dx0), u[:1], u[1:])
        _recurrence(u, *coefficients)
        x, v = u
        t, dw = np.linspace(0.0, horizon, n + 1), dw if record_noise else None
        n_finite = _n_finite(x, v)
    else:
        raise ValueError(f"scheme must be 'exact' or 'euler', got {scheme!r}")
    if n_finite <= n_steps:
        raise SimulationOverflowError(step=int(n_finite), horizon_reached=float(t[n_finite]))
    return SamplePath(t=t, x=x, v=v, dw=dw, sigma=params.sigma, params=params)


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
