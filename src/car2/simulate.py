"""Sample paths of (X, X') on a uniform grid.

`simulate(params, horizon, n_steps, *, record_noise, seed, rep)` gives one
path.  The exact scheme draws, per step, the joint Gaussian triple (dW,
noise-to-X, noise-to-X') from the transition kernel and advances the state
with the kernel's mean matrix, so the simulated marginal law is exact at
any step size.

The linear recursion state[k+1] = M state[k] + noise[k] runs in its scalar
second-order form (Cayley-Hamilton: M^2 = tr(M) M - det(M) I), which works
for defective M (double roots) where diagonalization would not: after a
two-tap transform of the noise, each state component u obeys
u[k] += tr(M) u[k-1] - det(M) u[k-2].  `_recurrence` runs that in place on
a (rows, n+1) array from the start columns the fill writes, bit for bit as
scipy.signal.lfilter from its zero state.  A numpy step costs microseconds
of call overhead at any width, so wide arrays recur across the rows, one
step over all rows at a time, and arrays of a few rows (a `simulate` path)
recur along each row on Python floats.

Exact paths come from one block kernel, `simulate_exact`, for every sigma:
per grid it builds the mean path, the transition kernel and its noise
factor once (zero at sigma = 0, so a noiseless row is the mean path and its
dW is 0), then recurs blocks of hundreds of rows in two reused half-budget
buffers, each row filled from its own Philox stream, and yields each block
in slices of fresh rows, the mean path added.  Filling a buffer with its
recurrence input is a stage of its own: one worker thread fills block b+1
while the calling thread recurs and yields block b.  A fill takes rows in
slices: it writes their noise (the normals times the noise factor) into
contiguous (rows, n) planes, X's and X''s (after dW's when it is recorded),
and one transform over both planes writes the input of the block's x and v
rows, so each slice makes a few numpy calls on contiguous data.  Memory
stays flat in the number of replications, no row depends on its block or
on the thread that filled it, and an exact `simulate` path is row 0 of a
one-row block, run inline.
"""

from __future__ import annotations

import contextlib
import math
import threading
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
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


# Elements per (rows, n+1) array of a `simulate_exact` block, halved since
# two blocks are in flight (one row if n is larger); then per row slice that
# its worker thread fills (the caller's are half as large) and that it
# yields.  Each numpy call of a fill gives up the GIL and takes it back,
# which costs a thread switch while the caller recurs, so the worker's
# slices are large; each filling thread keeps scratch for one slice: its
# (rows, n, 3) normals and two or three (rows, n) noise planes.
_BLOCK_ELEMENTS, _DRAW_ELEMENTS, _YIELD_ELEMENTS = 2**21, 2**14, 2**16
# Arrays of at most this many rows recur along each row, on Python floats;
# wider ones across the rows, _CHUNK_STEPS time steps at a time.
_NARROW_ROWS, _CHUNK_STEPS = 16, 64


@np.errstate(over="ignore", invalid="ignore")  # non-finite rows are the caller's to flag
def _recurrence(u: np.ndarray, tau: float, delta: float) -> None:
    """Run u[:, k] += tau*u[:, k-1] - delta*u[:, k-2] in place for k >= 2.  On
    the input `_recurrence_input` writes (column 0 +0.0) this is bit for bit
    lfilter([1], [1, -tau, delta], u, axis=-1), non-finite where it is."""
    rows, n1 = u.shape
    tau, delta = float(tau), float(delta)
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
    multiply, subtract, add = np.multiply, np.subtract, np.add
    for k0 in range(2, n1, _CHUNK_STEPS):
        m = min(_CHUNK_STEPS, n1 - k0)
        s[2:m + 2] = u[:, k0:k0 + m].T
        for pair, y in zip(pairs[:m], s_rows[2:m + 2]):
            multiply(pair, coef, pq)  # delta*u[:, k-2], tau*u[:, k-1]
            subtract(p, q, w)
            add(y, w, y)
        u[:, k0:k0 + m] = s[2:m + 2].T
        s[:2] = s[m:m + 2]


def _recurrence_input(m: np.ndarray) -> tuple[Callable[[np.ndarray, np.ndarray], None],
                                               tuple[float, float]]:
    """(write, (tau, delta)): the coefficients (tr m, det m) of `_recurrence`
    for m, and the transform write(xi, u) that writes into the (2, rows, n+1)
    array u the input that makes `_recurrence(u[c], tau, delta)`, for c = 0
    (X) and 1 (X'), run state[k+1] = m @ state[k] + xi[:, :, k] from the
    zero state, each row a path: the first two outputs (the zero state, then
    the first step's noise) and the inputs from step 2 on.  xi is
    (2, rows, n), X's noise then X''s, and write overwrites it.  Each call
    runs over both components at once; the coefficients are formed here,
    once per m."""
    tau = m[0, 0] + m[1, 1]
    delta = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if not np.isfinite(delta):  # products overflowed: form them on m / 2^e
        e = np.frexp(np.abs(m).max())[1]
        s = np.ldexp(m, -e)
        delta = np.ldexp(s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0], 2 * e)
    own = (np.diagonal(m) - tau)[:, None, None]  # m[c, c] - tau
    cross = np.diagonal(m[::-1])[:, None, None]  # m[1, 0] for X's plane, m[0, 1] for X''s

    def write(xi: np.ndarray, u: np.ndarray) -> None:
        u[:, :, 0] = 0.0
        u[:, :, 1] = xi[:, :, 0]
        # u[c, :, 2:] = xi[c, :, 1:] + (m[c, c] - tau) xi[c, :, :-1]
        #              + m[c, 1-c] xi[1-c, :, :-1], formed in place: xi is
        # scaled into the cross terms after its own terms are read, so no
        # temporary adds to a fill's memory beside the caller's yields.
        rest = u[:, :, 2:]
        np.multiply(own, xi[:, :, :-1], out=rest)
        np.add(xi[:, :, 1:], rest, out=rest)
        np.multiply(xi, cross, out=xi)
        np.add(rest, xi[::-1, :, :-1], out=rest)
    return write, (tau, delta)


def _n_finite(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Count of leading samples, along the last axis, where x and v are both finite."""
    finite = np.isfinite(x) & np.isfinite(v)
    return np.where(finite.all(axis=-1), finite.shape[-1], finite.argmin(axis=-1))


def _noise_factor(cov: np.ndarray) -> np.ndarray:
    """Symmetric factor L with L L^T = cov, small negative eigenvalues clipped;
    all NaN if cov overflowed, so that every path overflows at step 1."""
    if not np.isfinite(cov).all():
        return np.full_like(cov, np.nan)
    w, vec = np.linalg.eigh(cov)
    floor = -1e-12 * max(np.trace(cov), 0.0)
    if w.min() < floor:
        raise FloatingPointError(f"transition covariance not PSD: min eigenvalue {w.min():.3e}")
    return vec * np.sqrt(np.clip(w, 0.0, None))


class _Rows:
    """The rows of a block that are still to fill, handed out under a lock
    in consecutive slices, so that threads filling one block share it out."""

    def __init__(self, count: int):
        self._count, self._next, self._lock = count, 0, threading.Lock()

    def slices(self, size: int) -> Iterator[slice]:
        """Slices of at most size rows, taken until no row is left."""
        while True:
            with self._lock:
                start = self._next
                self._next = stop = min(self._count, start + size)
            if start == stop:
                return
            yield slice(start, stop)


def simulate_exact(params: ModelParams, horizon: float, n_steps: int,
                   reps: Sequence[int], seed: int = 0,
                   record_noise: bool = False) -> Iterator[SimBlock]:
    """The replications in reps, simulated in blocks of consecutive rows.

    The row of replication k is bit for bit that of a one-row call with
    reps=[k], so it does not depend on the blocking; a row that left the
    float64 range is counted in n_finite instead of raised.  At sigma = 0
    the noise factor is zero, dW's column too: the rows take the same
    pipeline from zero noise and come out as the mean path, with dw 0,
    while the recurrence coefficients (tr M, det M) are finite.

    Block b recurs in the first or second of two buffers, by the parity of
    b, each of half the block budget.  Filling a buffer with its recurrence
    input is one stage: each row's normals from its own stream, their
    product with the noise factor written into contiguous planes (X's and
    X''s, dW's first when record_noise is set), and `_recurrence_input`
    over both planes at once.  Recurring the buffer and yielding its rows
    is the next.  With two blocks or more, one worker thread fills block
    b+1 while the calling thread recurs and yields block b, and then the
    caller fills the rows of block b+1 that the worker has not yet taken,
    so neither thread waits long for the other.  The caller alone
    builds the mean path and the transition kernel: the fill calls nothing
    that perfbench/tracer.py wraps, since its span stack is single-threaded.
    A call of one block runs inline and starts no thread.
    """
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be positive, got {horizon}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    n = n_steps
    t = np.linspace(0.0, horizon, n + 1)
    # Overflow in explosive regimes is counted per row below; suppress the
    # intermediate warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        fs = fundamental_solutions(char_roots(params), t)
        x_mean = params.x0 * fs.x1 + params.dx0 * fs.x2
        v_mean = params.x0 * fs.dx1 + params.dx0 * fs.dx2
        kern = transition(params, horizon / n)
        # Noiseless: a zero factor, dW's column too, so each row is the mean path.
        factor_t = _noise_factor(kern.cov_matrix).T if params.sigma > 0.0 else np.zeros((3, 3))
        factor_cols = factor_t if record_noise else factor_t[:, 1:]  # (dW,) X, X'
        write_input, coefficients = _recurrence_input(kern.mean_matrix)
    rows = max(1, min(len(reps), _BLOCK_ELEMENTS // 2 // (n + 1)))
    yield_rows = max(1, _YIELD_ELEMENTS // (n + 1))
    blocks = [reps[start:start + rows] for start in range(0, len(reps), rows)]
    # A block's x rows, then its v rows.
    buffers = [np.empty((2 * rows, n + 1)) for _ in blocks[:2]]
    threaded = len(buffers) == 2

    def filler(size: int):
        """fill(b, to_fill, dw): write into block b's buffer the recurrence
        input of the rows it takes from to_fill, in slices of about size
        elements, and their dw.  One per thread, with its own generator
        (re-keyed before each row's draws) and scratch: the normals, and
        their noise in contiguous planes, dW's first when it is recorded."""
        gen = np.random.Generator(np.random.Philox())
        cap = max(1, size // (n + 1))
        normals = np.empty((cap, n, 3))
        planes = np.empty((factor_cols.shape[1], cap, n))

        def fill(b: int, to_fill: _Rows, dw: np.ndarray | None) -> None:
            block = blocks[b]
            r = len(block)
            u = buffers[b % 2][:2 * r].reshape(2, r, n + 1)
            # Entered here: a worker thread does not inherit the caller's errstate.
            with np.errstate(over="ignore", invalid="ignore"):
                for sl in to_fill.slices(cap):
                    m = sl.stop - sl.start
                    for j, k in enumerate(block[sl]):
                        rng.rekey(gen, seed, rng.DOMAIN_SIM_EXACT, k).standard_normal(
                            out=normals[j])
                    np.matmul(normals[:m], factor_cols, out=planes[:, :m].transpose(1, 2, 0))
                    if dw is not None:
                        dw[sl] = planes[0, :m]
                    write_input(planes[-2:, :m], u[:, sl])
        return fill

    fill_here = filler(_DRAW_ELEMENTS // 2)
    fill_there = filler(_DRAW_ELEMENTS) if threaded else None
    with (ThreadPoolExecutor(max_workers=1, thread_name_prefix="car2-simulate") if threaded
          else contextlib.nullcontext()) as worker:

        def begin(b: int):
            """Block b's dw, its rows to fill, and the worker's fill (None inline)."""
            dw = np.zeros((len(blocks[b]), n)) if record_noise else None
            to_fill = _Rows(len(blocks[b]))
            return dw, to_fill, worker.submit(fill_there, b, to_fill, dw) if threaded else None

        ahead = begin(0) if blocks else None
        for b, block in enumerate(blocks):
            r = len(block)
            dw, to_fill, filled_there = ahead
            fill_here(b, to_fill, dw)
            if filled_there is not None:
                filled_there.result()
            if b + 1 < len(blocks):
                ahead = begin(b + 1)  # filled while block b recurs and is read
            u = buffers[b % 2][:2 * r]
            _recurrence(u, *coefficients)
            for i in range(0, r, yield_rows):
                rows_i = slice(i, i + yield_rows)
                with np.errstate(over="ignore", invalid="ignore"):  # fresh rows: u is reused
                    x, v = np.add(x_mean, u[:r][rows_i]), np.add(v_mean, u[r:][rows_i])
                yield SimBlock(block[rows_i], t, x, v, None if dw is None else dw[rows_i],
                               _n_finite(x, v))


def simulate(params: ModelParams, horizon: float, n_steps: int, *,
             record_noise: bool = False, seed: int = 0, rep: int = 0) -> SamplePath:
    """One exact path of n_steps steps over [0, horizon]: replication rep's
    row of `simulate_exact`, raised as SimulationOverflowError if it leaves
    float64.  dw is kept when record_noise is set.  Deterministic given
    (seed, rep)."""
    (blk,) = simulate_exact(params, horizon, n_steps, [rep], seed, record_noise)
    n_finite = blk.n_finite[0]
    if n_finite <= n_steps:
        raise SimulationOverflowError(step=int(n_finite), horizon_reached=float(blk.t[n_finite]))
    return SamplePath(t=blk.t, x=blk.x[0], v=blk.v[0], dw=None if blk.dw is None else blk.dw[0],
                      sigma=params.sigma, params=params)


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
