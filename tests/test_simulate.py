import importlib
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.signal import lfilter

from car2 import rng as car2_rng
from car2 import (
    ModelParams,
    SimulationOverflowError,
    char_roots,
    fundamental_solutions,
    rescale_time,
    simulate,
    transition,
)
from car2.io import read_path_csv, write_path_csv, write_rows_csv
from car2.simulate import (
    SamplePath,
    _noise_factor,
    _recurrence,
    _recurrence_input,
    simulate_exact,
)

from conftest import REGIME_POINTS, sorted_regime_points
from oracles import exact_path, interleaved_fill

# car2.simulate is the function; the module holds the block budgets
simulate_module = importlib.import_module("car2.simulate")


def reference_loop(params, horizon, n_steps, seed=0, rep=0):
    """Naive per-step reference implementation of the exact scheme."""
    from car2 import rng as car2_rng
    from car2.simulate import _noise_factor

    h = horizon / n_steps
    kern = transition(params, h)
    factor = _noise_factor(kern.cov_matrix)
    gen = car2_rng.stream(seed, car2_rng.DOMAIN_SIM_EXACT, rep)
    draws = gen.standard_normal((n_steps, 3)) @ factor.T
    state = np.array([params.x0, params.dx0])
    xs, vs = [state[0]], [state[1]]
    # Reconstruct the homogeneous part exactly as simulate does, then add the
    # noise response step by step.
    from car2 import fundamental_solutions

    t = np.linspace(0.0, horizon, n_steps + 1)
    fs = fundamental_solutions(char_roots(params), t)
    hom_x = params.x0 * fs.x1 + params.dx0 * fs.x2
    hom_v = params.x0 * fs.dx1 + params.dx0 * fs.dx2
    z = np.zeros(2)
    for k in range(n_steps):
        z = kern.mean_matrix @ z + draws[k, 1:]
        xs.append(hom_x[k + 1] + z[0])
        vs.append(hom_v[k + 1] + z[1])
    return np.array(xs), np.array(vs), draws[:, 0]


class TestExactScheme:
    def test_matches_naive_loop(self):
        params = ModelParams(theta1=-1.5, theta2=-2.0, sigma=0.8, x0=1.0, dx0=-0.5)
        path = simulate(params, 4.0, 400, record_noise=True, seed=11)
        x_ref, v_ref, dw_ref = reference_loop(params, 4.0, 400, seed=11)
        np.testing.assert_allclose(path.x, x_ref, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(path.v, v_ref, rtol=1e-9, atol=1e-12)
        np.testing.assert_array_equal(path.dw, dw_ref)

    def test_deterministic_bit_identical(self):
        params = ModelParams(theta1=0.0, theta2=-1.0, sigma=1.0)
        a = simulate(params, 3.0, 300, record_noise=True, seed=42, rep=5)
        b = simulate(params, 3.0, 300, record_noise=True, seed=42, rep=5)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.v, b.v)
        assert np.array_equal(a.dw, b.dw)

    def test_replications_differ(self):
        params = ModelParams(theta1=0.0, theta2=-1.0, sigma=1.0)
        a = simulate(params, 1.0, 50, seed=42)
        b = simulate(params, 1.0, 50, seed=42, rep=1)
        assert not np.array_equal(a.x, b.x)

    def test_noiseless_constant(self):
        params = ModelParams(theta1=0.0, theta2=0.0, sigma=0.0, x0=1.0, dx0=0.0)
        path = simulate(params, 1.0, 100, record_noise=True)
        assert np.all(path.x == 1.0) and np.all(path.v == 0.0)
        assert np.all(path.dw == 0.0)

    def test_noiseless_linear_is_exact(self):
        params = ModelParams(theta1=0.0, theta2=0.0, sigma=0.0, x0=0.0, dx0=1.0)
        path = simulate(params, 1.0, 1000)
        assert np.array_equal(path.x, path.t)
        assert np.all(path.v == 1.0)

    def test_grid_uniform(self):
        path = simulate(ModelParams(theta1=0.0, theta2=0.0), 2.0, 7)
        steps = np.diff(path.t)
        np.testing.assert_allclose(steps, 2.0 / 7, rtol=1e-12)

    def test_marginal_moments_match_kernel_composition(self):
        # Marginal law of (X(T), X'(T)) from n steps == single step of length T.
        params = ModelParams(theta1=-3.0, theta2=-2.0, sigma=1.0, x0=1.0, dx0=0.5)
        T = 5.0
        single = transition(params, T)
        for n in (10, 10_000):
            h = T / n
            kern = transition(params, h)
            m, c = kern.mean_matrix, kern.cov_matrix[1:, 1:]
            mean = np.array([params.x0, params.dx0])
            cov = np.zeros((2, 2))
            for _ in range(n):
                mean = m @ mean
                cov = m @ cov @ m.T + c
            target_mean = single.mean_matrix @ np.array([params.x0, params.dx0])
            np.testing.assert_allclose(mean, target_mean, rtol=1e-9)
            np.testing.assert_allclose(cov, single.cov_matrix[1:, 1:], rtol=1e-9, atol=1e-15)

    def test_empirical_variances_free_motion(self):
        # theta = 0, sigma = 1: Var X'(1) = 1, Var X(1) = 1/3.
        params = ModelParams(theta1=0.0, theta2=0.0, sigma=1.0)
        n_reps = 4000
        xs = np.empty(n_reps)
        vs = np.empty(n_reps)
        for k in range(n_reps):
            path = simulate(params, 1.0, 20, seed=3, rep=k)
            xs[k], vs[k] = path.x[-1], path.v[-1]
        band = 4.0 * np.sqrt(2.0 / n_reps)
        assert abs(vs.var() - 1.0) <= band
        assert abs(xs.var() - 1.0 / 3.0) <= band / 3.0 * 2.0

    def test_recorded_increments_have_brownian_variance(self):
        params = ModelParams(theta1=-1.0, theta2=-1.0, sigma=1.0)
        n_reps, T = 3000, 2.0
        sums = np.empty(n_reps)
        for k in range(n_reps):
            path = simulate(params, T, 40, seed=5, record_noise=True, rep=k)
            sums[k] = path.dw.sum()
        assert abs(sums.var() - T) <= 4.0 * T * np.sqrt(2.0 / n_reps)

    def test_overflow_reports_step(self):
        params = ModelParams(theta1=40.0, theta2=-1.0, sigma=1.0, x0=1.0, dx0=1.0)
        with pytest.raises(SimulationOverflowError) as err:
            simulate(params, 40.0, 400)
        assert 0 < err.value.step <= 400

    @pytest.mark.parametrize("name,point", sorted_regime_points())
    def test_runs_in_every_regime(self, name, point):
        t1, t2, horizon = point
        params = ModelParams(theta1=t1, theta2=t2, sigma=1.0, x0=0.1, dx0=0.1)
        path = simulate(params, horizon, 200, seed=9, record_noise=True)
        assert np.isfinite(path.x).all() and np.isfinite(path.v).all()


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def exact_rows(params, *args, **kwargs):
    """(path, n_finite) of each replication, read off simulate_exact's blocks.
    The rows are copies: a block's x and v rows are views of a buffer that is
    refilled once the next block is asked for."""
    for blk in simulate_exact(params, *args, **kwargs):
        for i in range(len(blk.reps)):
            dw = None if blk.dw is None else blk.dw[i]
            yield (SamplePath(blk.t, blk.x[i].copy(), blk.v[i].copy(), dw, params.sigma, params),
                   int(blk.n_finite[i]))


def first_non_finite(x, v) -> int:
    """The first index where x or v is not finite, len(x) if there is none."""
    for k, (a, b) in enumerate(zip(x.tolist(), v.tolist())):
        if not (math.isfinite(a) and math.isfinite(b)):
            return k
    return len(x)


class TestBlockKernel:
    # 700 steps: a budget of 2**14 elements gives blocks of 8192 // 701 = 11
    # rows (22 recurrence rows), and 25 reps fill two blocks and part of a
    # third (3 rows, 6 recurrence rows).
    N_STEPS, N_REPS = 700, 25

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(simulate_module, "_BLOCK_ELEMENTS", 2**14)

    @pytest.mark.parametrize("theta", [(-3.0, -2.0), (2.0, -1.0), (0.5, -1.0625)],
                             ids=["distinct", "double", "complex"])
    @pytest.mark.parametrize("sigma", [0.0, 0.8])
    @pytest.mark.parametrize("record_noise", [False, True])
    def test_paths_equal_per_path_simulate(self, theta, sigma, record_noise):
        params = ModelParams(theta1=theta[0], theta2=theta[1], sigma=sigma,
                             x0=0.3, dx0=-0.2)
        assert self.N_REPS % (simulate_module._BLOCK_ELEMENTS // 2 // (self.N_STEPS + 1)) != 0
        paths = list(exact_rows(params, 7.0, self.N_STEPS, range(self.N_REPS),
                                seed=4, record_noise=record_noise))
        assert len(paths) == self.N_REPS
        for k, (got, n_finite) in enumerate(paths):
            assert n_finite == self.N_STEPS + 1
            want = simulate(params, 7.0, self.N_STEPS, seed=4, rep=k,
                            record_noise=record_noise)
            for name in ("t", "x", "v"):
                assert_same_bits(getattr(got, name), getattr(want, name))
            if record_noise:
                assert_same_bits(got.dw, want.dw)
            else:
                assert got.dw is None and want.dw is None

    def test_block_flags_overflowing_rows(self):
        # p = 2 at T = 354.5: a few paths leave the float64 range, the rest
        # stay finite (near 1e300); 710 grid points give 11 rows per block,
        # so the first block holds overflowing and finite rows.
        params = ModelParams(theta1=3.0, theta2=-2.0, sigma=1.0, x0=0.3, dx0=-0.2)
        assert simulate_module._BLOCK_ELEMENTS // 2 // 710 > 9
        overflowed = []
        for k, (path, n_finite) in enumerate(exact_rows(params, 354.5, 709, range(24), seed=3)):
            assert n_finite == first_non_finite(path.x, path.v)
            if n_finite <= 709:
                overflowed.append(k)
                with pytest.raises(SimulationOverflowError) as err:
                    simulate(params, 354.5, 709, seed=3, rep=k)
                assert err.value.step == n_finite
            else:
                assert np.isfinite(path.x).all() and np.isfinite(path.v).all()
                assert_same_bits(path.x, simulate(params, 354.5, 709, seed=3, rep=k).x)
        assert overflowed == [9, 12, 15]

    def test_replication_subset(self):
        params = ModelParams(theta1=0.0, theta2=-1.0, sigma=1.0)
        paths = exact_rows(params, 2.0, 50, [7, 2], seed=1)
        for k, (path, _) in zip((7, 2), paths):
            want = simulate(params, 2.0, 50, seed=1, rep=k)
            assert_same_bits(path.x, want.x)

    @pytest.mark.parametrize("theta, horizon", [((-3.0, -2.0), 7.0), ((2.0, -1.0), 7.0),
                                                ((0.5, -1.0625), 7.0), ((3.0, -2.0), 354.5)],
                             ids=["distinct", "double", "complex", "overflowing"])
    def test_rows_equal_lfilter_oracle(self, theta, horizon):
        # Blocks recurring across and along the rows, and rows that leave
        # float64, against the lfilter-filtered path of each replication.
        params = ModelParams(theta1=theta[0], theta2=theta[1], sigma=0.8, x0=0.3, dx0=-0.2)
        n = self.N_STEPS
        for k, (got, n_finite) in enumerate(exact_rows(params, horizon, n, range(self.N_REPS),
                                                       seed=3, record_noise=True)):
            x, v, dw = exact_path(params, horizon, n, seed=3, rep=k)
            assert_same_bits(got.dw, dw)
            for have, want in ((got.x, x), (got.v, v)):
                finite = np.isfinite(want)
                assert np.array_equal(np.isfinite(have), finite)
                assert_same_bits(have[finite], want[finite])
            assert n_finite == first_non_finite(x, v)


class TestPipeline:
    # Blocks of 3 rows at 50 steps, each filled one row at a time: the
    # worker fills block b+1 while the caller recurs block b, and then the
    # caller fills the rows of block b+1 the worker has not begun.
    PARAMS = ModelParams(theta1=-3.0, theta2=-2.0, sigma=1.0, x0=0.3, dx0=-0.2)
    N_STEPS = 50

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(simulate_module, "_BLOCK_ELEMENTS", 2 * 3 * (self.N_STEPS + 1))
        monkeypatch.setattr(simulate_module, "_DRAW_ELEMENTS", self.N_STEPS + 1)

    @staticmethod
    def pool_threads():
        return [t for t in threading.enumerate() if t.name.startswith("car2-simulate")]

    def test_no_reps_yield_nothing(self):
        assert list(simulate_exact(self.PARAMS, 1.0, self.N_STEPS, [])) == []

    @pytest.mark.parametrize("bad_block", [0, 1, 2, 3])
    def test_rekey_error_reaches_the_caller_after_earlier_blocks(self, bad_block):
        bad = 2**56
        with pytest.raises(ValueError) as want:
            car2_rng.rekey(np.random.Generator(np.random.Philox()), 0, car2_rng.DOMAIN_SIM_EXACT,
                           bad)
        reps = list(range(12))
        reps[3 * bad_block + 1] = bad
        threads = threading.active_count()
        got = []
        with pytest.raises(ValueError) as err:
            for blk in simulate_exact(self.PARAMS, 1.0, self.N_STEPS, reps, seed=2):
                got.append(blk._replace(x=blk.x.copy(), v=blk.v.copy()))  # kept past the block
        assert str(err.value) == str(want.value)
        assert threading.active_count() == threads
        assert [list(blk.reps) for blk in got] == [reps[3 * b:3 * b + 3] for b in range(bad_block)]
        for blk in got:
            for k, x, v in zip(blk.reps, blk.x, blk.v):
                want_path = simulate(self.PARAMS, 1.0, self.N_STEPS, seed=2, rep=k)
                assert_same_bits(x, want_path.x)
                assert_same_bits(v, want_path.v)

    def test_rows_are_views_of_two_buffers(self, monkeypatch):
        # Four blocks of three rows, yielded a row at a time: every yielded
        # x and v is a view into one of two buffers, and a block's rows, read
        # when its last slice arrives, are each replication's path.
        monkeypatch.setattr(simulate_module, "_YIELD_ELEMENTS", self.N_STEPS + 1)
        owners, rows = [], []
        for blk in simulate_exact(self.PARAMS, 1.0, self.N_STEPS, range(12), seed=2):
            assert len(blk.reps) == 1
            for a in (blk.x, blk.v):
                if not any(np.shares_memory(a, owner) for owner in owners):
                    owners.append(a if a.base is None else a.base)
            rows.append(blk)
            if len(rows) == 3:  # the block's last slice: nothing refilled its buffer yet
                for k, x, v in ((r.reps[0], r.x[0], r.v[0]) for r in rows):
                    want = simulate(self.PARAMS, 1.0, self.N_STEPS, seed=2, rep=k)
                    assert_same_bits(x, want.x)
                    assert_same_bits(v, want.v)
                rows = []
        assert len(owners) <= 2

    def test_each_row_is_drawn_once(self, monkeypatch):
        # The worker and the caller share each block's row slices out.
        rekey, keys = car2_rng.rekey, []

        def counting_rekey(gen, seed, domain, index):
            keys.append(index)
            return rekey(gen, seed, domain, index)

        monkeypatch.setattr(car2_rng, "rekey", counting_rekey)
        for _ in simulate_exact(self.PARAMS, 1.0, self.N_STEPS, range(14)):
            pass
        assert sorted(keys) == list(range(14))

    def test_close_after_the_first_block_joins_the_worker(self, monkeypatch):
        # The worker filling block 1 (reps 3-5) is held in its first row
        # until 0.2 s after the close begins: the close must wait for it.
        rekey, began, released = car2_rng.rekey, threading.Event(), threading.Event()

        def held_rekey(gen, seed, domain, index):
            if index >= 3 and threading.current_thread().name == "car2-simulate":
                began.set()
                assert released.wait(30.0), "the worker was not released"
            return rekey(gen, seed, domain, index)

        monkeypatch.setattr(car2_rng, "rekey", held_rekey)
        threads = threading.active_count()
        blocks = simulate_exact(self.PARAMS, 1.0, self.N_STEPS, range(12))
        first = next(blocks)
        assert list(first.reps) == [0, 1, 2]
        assert began.wait(30.0)
        assert len(self.pool_threads()) == 1  # named, for thread dumps
        release = threading.Timer(0.2, released.set)
        release.start()
        blocks.close()
        assert not self.pool_threads()
        release.join(30.0)
        assert threading.active_count() == threads

    def test_close_takes_the_next_blocks_rows_from_the_worker(self, monkeypatch):
        # Blocks of 8 rows.  The worker filling block 1 (reps 8-15) is held
        # in its first row until 0.2 s after the close begins; the close
        # takes the block's other rows, so the worker fills at most one more
        # (one-row) slice instead of the whole block.
        monkeypatch.setattr(simulate_module, "_BLOCK_ELEMENTS", 2 * 8 * (self.N_STEPS + 1))
        rekey, began, released, closing = (car2_rng.rekey, threading.Event(),
                                           threading.Event(), threading.Event())
        after_close = []

        def held_rekey(gen, seed, domain, index):
            if index >= 8 and threading.current_thread().name == "car2-simulate":
                if closing.is_set():
                    after_close.append(index)
                began.set()
                assert released.wait(30.0), "the worker was not released"
            return rekey(gen, seed, domain, index)

        monkeypatch.setattr(car2_rng, "rekey", held_rekey)
        blocks = simulate_exact(self.PARAMS, 1.0, self.N_STEPS, range(24))
        assert list(next(blocks).reps) == list(range(8))
        assert began.wait(30.0)
        release = threading.Timer(0.2, released.set)
        release.start()
        closing.set()
        blocks.close()
        release.join(30.0)
        assert not self.pool_threads()
        assert len(after_close) <= 1, after_close

    def test_worker_fill_error_reaches_the_caller(self, monkeypatch):
        # A fill that fails on the worker raises its error, with its type,
        # on the caller, and leaves no worker running.  The caller's rows of
        # block 1 (reps 3-5) wait until the worker has failed, so the worker
        # fails in block 0 or 1, whichever rows it takes first.
        class FillError(Exception):
            pass

        rekey, failed = car2_rng.rekey, threading.Event()

        def failing_rekey(gen, seed, domain, index):
            if threading.current_thread().name == "car2-simulate":
                failed.set()
                raise FillError(index)
            if index >= 3:
                assert failed.wait(30.0), "the worker took no row"
            return rekey(gen, seed, domain, index)

        monkeypatch.setattr(car2_rng, "rekey", failing_rekey)
        threads = threading.active_count()
        with pytest.raises(FillError):
            for _ in simulate_exact(self.PARAMS, 1.0, self.N_STEPS, range(12)):
                pass
        assert threading.active_count() == threads and not self.pool_threads()

    def test_failed_worker_takes_the_rest_of_its_block(self, monkeypatch):
        # Blocks of 8 rows, filled a row at a time.  The worker filling
        # block 1 (reps 8-15) fails at its first row, and the caller asks
        # for block 1 only once that failure is over: the failed worker has
        # taken the block's other rows, so the caller fills at most one of
        # them before the worker's error, with its type, reaches it.
        class FillError(Exception):
            pass

        monkeypatch.setattr(simulate_module, "_BLOCK_ELEMENTS", 2 * 8 * (self.N_STEPS + 1))
        rekey, failed, on_caller = car2_rng.rekey, threading.Event(), []

        def failing_rekey(gen, seed, domain, index):
            if index >= 8:
                if threading.current_thread().name == "car2-simulate":
                    failed.set()
                    raise FillError(index)
                on_caller.append(index)
            return rekey(gen, seed, domain, index)

        monkeypatch.setattr(car2_rng, "rekey", failing_rekey)
        blocks = simulate_exact(self.PARAMS, 1.0, self.N_STEPS, range(24))
        assert list(next(blocks).reps) == list(range(8))
        assert failed.wait(30.0), "the worker took no row of block 1"
        for worker in self.pool_threads():
            worker.join(30.0)
            assert not worker.is_alive(), "the failed worker did not end"
        with pytest.raises(FillError):
            next(blocks)
        assert len(on_caller) <= 1, on_caller
        assert not self.pool_threads()

    def test_fill_suppresses_its_own_warnings(self):
        # Two steps of h = 177.44 at p = 2: the fill forms inf - inf at step 1
        # of every row.  pytest turns a RuntimeWarning into an error, and a
        # worker thread does not inherit the caller's errstate.
        params = ModelParams(theta1=3.0, theta2=-2.0, sigma=1.0, x0=0.3, dx0=-0.2)
        for blk in simulate_exact(params, 354.88, 2, range(12)):
            assert (blk.n_finite == 1).all()
            for k, x in zip(blk.reps, blk.x):
                (one,) = simulate_exact(params, 354.88, 2, [k])
                assert_same_bits(x, one.x[0])

    def test_concurrent_calls_under_fast_switching(self):
        # Four callers, each with its own worker, switching threads every
        # microsecond: a row slice filled twice, skipped, or filled into the
        # wrong buffer or by a shared generator would change some row's bits.
        want = {seed: [simulate(self.PARAMS, 1.0, self.N_STEPS, seed=seed, rep=k,
                                record_noise=True) for k in range(14)] for seed in range(4)}
        got = {}

        def run(seed):
            got[seed] = list(exact_rows(self.PARAMS, 1.0, self.N_STEPS, range(14), seed=seed,
                                        record_noise=True))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(seed,)) for seed in want]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert set(got) == set(want)
        for seed, paths in want.items():
            assert len(got[seed]) == len(paths)
            for (have, _), path in zip(got[seed], paths):
                for name in ("x", "v", "dw"):
                    assert_same_bits(getattr(have, name), getattr(path, name))

    def test_one_block_starts_no_thread(self, monkeypatch):
        lanes = simulate_module._Lanes

        def no_worker(count, name="", fn=None, *args):
            assert fn is None, "a one-block call started a worker"
            return lanes(count, name, fn, *args)

        monkeypatch.setattr(simulate_module, "_Lanes", no_worker)
        params = ModelParams(theta1=0.5, theta2=-1.0625, sigma=0.8, x0=0.3, dx0=-0.2)
        threads = threading.active_count()
        path = simulate(params, 3.0, self.N_STEPS, seed=5, rep=7, record_noise=True)
        (blk,) = simulate_exact(params, 3.0, self.N_STEPS, [7, 1, 4], seed=5, record_noise=True)
        for got in ((path.x, path.v, path.dw), (blk.x[0], blk.v[0], blk.dw[0])):
            for have, want in zip(got, exact_path(params, 3.0, self.N_STEPS, seed=5, rep=7)):
                assert_same_bits(have, want)
        for k, x in zip(blk.reps, blk.x):
            assert_same_bits(x, exact_path(params, 3.0, self.N_STEPS, seed=5, rep=k)[0])
        assert threading.active_count() == threads


# Grids whose one-step transition covariance overflows float64 (inf and NaN
# entries): roots (2, 1) at steps of 177.45 and 200, roots (400, 1) at 1.
OVERFLOWING_KERNELS = [((3.0, -2.0), 354.9), ((3.0, -2.0), 400.0), ((401.0, -400.0), 2.0)]


@pytest.mark.parametrize("theta, horizon", OVERFLOWING_KERNELS,
                         ids=["p2-T354.9", "p2-T400", "p400-T2"])
def test_overflowing_kernel_overflows_every_row_at_step_1(monkeypatch, theta, horizon):
    params = ModelParams(theta1=theta[0], theta2=theta[1], sigma=1.0, x0=0.3, dx0=-0.2)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(transition(params, horizon / 2).cov_matrix).all()
    with pytest.raises(SimulationOverflowError) as err:
        simulate(params, horizon, 2)
    assert err.value.step == 1
    # Four blocks of three rows: the worker thread fills some, the caller others.
    monkeypatch.setattr(simulate_module, "_BLOCK_ELEMENTS", 2 * 3 * 3)
    monkeypatch.setattr(simulate_module, "_DRAW_ELEMENTS", 3)
    blocks = list(simulate_exact(params, horizon, 2, range(12), record_noise=True))
    assert [list(blk.reps) for blk in blocks] == [list(range(b, b + 3)) for b in range(0, 12, 3)]
    assert all((blk.n_finite == 1).all() for blk in blocks)


# Kernels of the fill property, by (theta, step): distinct, double and
# complex roots, and roots (2, 1) at a step whose transition covariance
# overflows, so that the noise factor is all NaN.
FILL_KERNELS = {"distinct": ((-3.0, -2.0), 0.05), "double": ((2.0, -1.0), 0.01),
                "complex": ((0.5, -1.0625), 0.001), "overflowing": ((3.0, -2.0), 177.45)}


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(kernel=st.sampled_from(sorted(FILL_KERNELS)), record_noise=st.booleans(),
       slice_rows=st.integers(1, 9), n_steps=st.integers(1, 300),
       block_rows=st.integers(1, 12), n_reps=st.integers(1, 30), seed=st.integers(0, 2**32))
def test_planar_fill_equals_interleaved_oracle(kernel, record_noise, slice_rows, n_steps,
                                               block_rows, n_reps, seed):
    # Every block's recurrence input, as `_recurrence` gets it, and every
    # row's dw, against the interleaved noise and per-component input of the
    # rows' normals.  The worker and the caller fill slices of slice_rows rows.
    theta, step = FILL_KERNELS[kernel]
    params = ModelParams(theta1=theta[0], theta2=theta[1], sigma=0.8, x0=0.3, dx0=-0.2)
    horizon, inputs = step * n_steps, []

    def recording(u, tau, delta):
        inputs.append(u.copy())
        _recurrence(u, tau, delta)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate_module, "_BLOCK_ELEMENTS", 2 * block_rows * (n_steps + 1))
        mp.setattr(simulate_module, "_DRAW_ELEMENTS", slice_rows * (n_steps + 1))
        mp.setattr(simulate_module, "_recurrence", recording)
        blocks = list(simulate_exact(params, horizon, n_steps, range(n_reps), seed,
                                     record_noise))
    with np.errstate(over="ignore", invalid="ignore"):
        kern = transition(params, horizon / n_steps)
        factor_t = _noise_factor(kern.cov_matrix).T
        normals = np.array([car2_rng.stream(seed, car2_rng.DOMAIN_SIM_EXACT, k)
                            .standard_normal((n_steps, 3)) for k in range(n_reps)])
        u, dw = interleaved_fill(kern.mean_matrix, factor_t, normals)
    assert np.isnan(factor_t).all() == (kernel == "overflowing")
    assert_same_bits(np.concatenate([a.reshape(2, -1, n_steps + 1) for a in inputs], axis=1), u)
    if record_noise:
        assert_same_bits(np.concatenate([blk.dw for blk in blocks]), dw)
    else:
        assert all(blk.dw is None for blk in blocks)


# Regimes with a root of positive real part, where paths leave float64.
EXPLOSIVE = ["DistinctPositive", "OppositeSign", "PositiveDouble", "SmallerRootZero",
             "UnstableOscillation"]


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(name=st.sampled_from(EXPLOSIVE), start=st.floats(300.0, 308.0),
       sign=st.sampled_from([1.0, -1.0]), sigma=st.sampled_from([0.0, 1.0]),
       n_steps=st.integers(1, 40), n_reps=st.integers(1, 40),
       rows=st.sampled_from([1, 3, 17, 40]), seed=st.integers(0, 2**32))
def test_n_finite_counts_leading_finite_samples(name, start, sign, sigma, n_steps, n_reps, rows,
                                                seed):
    # Starting near the top of float64, the rows leave it at different
    # steps or not at all; blocks of `rows` rows recur along or across them.
    theta1, theta2, horizon = REGIME_POINTS[name]
    params = ModelParams(theta1=theta1, theta2=theta2, sigma=sigma, x0=sign * 10.0**start,
                         dx0=sign * 10.0**start)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate_module, "_BLOCK_ELEMENTS", 2 * rows * (n_steps + 1))
        got = list(exact_rows(params, horizon, n_steps, range(n_reps), seed=seed))
    for k, (path, n_finite) in enumerate(got):
        assert n_finite == first_non_finite(path.x, path.v)
        for m in range(1, n_steps + 2):
            prefix_finite = np.isfinite(path.x[:m]).all() and np.isfinite(path.v[:m]).all()
            assert (n_finite < m) == (not prefix_finite)
        if n_finite <= n_steps:
            with pytest.raises(SimulationOverflowError) as err:
                simulate(params, horizon, n_steps, seed=seed, rep=k)
            assert err.value.step == n_finite
        else:
            simulate(params, horizon, n_steps, seed=seed, rep=k)


# Zero, moderate starts, and +-10**e near the top of float64, where the
# rows of explosive regimes leave it at different steps.
starts = st.one_of(st.just(0.0), st.floats(-1e3, 1e3),
                   st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([1.0, -1.0]),
                             st.floats(290.0, 307.0)))


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(name=st.sampled_from(sorted(REGIME_POINTS)), x0=starts, dx0=starts,
       record_noise=st.booleans(), n_steps=st.integers(1, 60),
       n_reps=st.integers(1, 12), rows=st.integers(1, 4), seed=st.integers(0, 2**32))
def test_noiseless_rows_are_the_mean_path(name, x0, dx0, record_noise, n_steps, n_reps, rows,
                                          seed):
    # Blocks of `rows` rows, filled a row at a time by the worker and the
    # caller: the zero noise factor leaves every row the mean path, and the
    # starts near the top of float64 make rows leave it in explosive regimes.
    theta1, theta2, horizon = REGIME_POINTS[name]
    params = ModelParams(theta1=theta1, theta2=theta2, sigma=0.0, x0=x0, dx0=dx0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate_module, "_BLOCK_ELEMENTS", 2 * rows * (n_steps + 1))
        mp.setattr(simulate_module, "_DRAW_ELEMENTS", n_steps + 1)
        # Copies: a block's x and v rows are refilled once the next block is asked for.
        blocks = [blk._replace(x=blk.x.copy(), v=blk.v.copy())
                  for blk in simulate_exact(params, horizon, n_steps, range(n_reps), seed,
                                            record_noise)]
    with np.errstate(over="ignore", invalid="ignore"):
        fs = fundamental_solutions(char_roots(params), np.linspace(0.0, horizon, n_steps + 1))
        mean = (x0 * fs.x1 + dx0 * fs.x2, x0 * fs.dx1 + dx0 * fs.dx2)
    assert [k for blk in blocks for k in blk.reps] == list(range(n_reps))
    for blk in blocks:
        assert (blk.n_finite == first_non_finite(*mean)).all()
        for have, want in zip((blk.x, blk.v), mean):
            finite = np.isfinite(have)
            assert np.array_equal(have[finite], np.broadcast_to(want, have.shape)[finite])
        if record_noise:
            assert blk.dw.shape == (len(blk.reps), n_steps) and not blk.dw.any()
        else:
            assert blk.dw is None


def test_noiseless_path_outlasts_its_step_determinant():
    # p = q = 1 over two steps of 350: M's entries are about 350 e^350, so
    # x1(h) x2'(h) - x2(h) x1'(h) overflows to -inf - -inf, although
    # det(M) = e^700 and x1(700) ~ -7e306 are finite.  Formed on M scaled
    # by a power of two, det(M) stays finite, and a path from rest stays 0.
    path = simulate(ModelParams(theta1=2.0, theta2=-1.0, sigma=0.0), 700.0, 2)
    assert not path.x.any() and not path.v.any()


@pytest.mark.parametrize("name", sorted(REGIME_POINTS))
def test_step_determinant_is_the_plain_formula_where_finite(name):
    # The scaled determinant is formed only where the plain one overflows.
    theta1, theta2, _ = REGIME_POINTS[name]
    for step in (1e-3, 0.1, 1.0, 5.0):
        m = transition(ModelParams(theta1=theta1, theta2=theta2, sigma=0.0), step).mean_matrix
        plain = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        assert np.isfinite(plain)
        assert_same_bits(_recurrence_input(m)[1][1], plain)


@pytest.mark.parametrize("theta1, theta2, step", [(2.0, -1.0, 350.0), (2.0, -1.0, 354.0),
                                                   (8.0, -16.0, 88.0), (1.0, -0.25, 700.0)])
def test_step_determinant_outlasts_its_products(theta1, theta2, step):
    # A double root p: det(M) = e^(2ph) = e^(theta1 h), while the products
    # x1(h) x2'(h) and x2(h) x1'(h), about (ph)^2 e^(2ph), overflow float64;
    # their difference cancels about (ph)^2 of the scaled products' digits.
    m = transition(ModelParams(theta1=theta1, theta2=theta2, sigma=0.0), step).mean_matrix
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
        delta = _recurrence_input(m)[1][1]
    assert abs(delta / math.exp(theta1 * step) - 1.0) < 1e-10


def _traced_peak(params, horizon, n_steps, n_reps) -> int:
    """Peak bytes traced while every block of a simulate_exact call is read."""
    tracemalloc.start()
    try:
        for blk in simulate_exact(params, horizon, n_steps, range(n_reps)):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _buffer_bytes(n_steps) -> int:
    """Bytes of the two reused buffers, each a block's x and v rows."""
    rows = min(simulate_module._BLOCK_REPS, simulate_module._BLOCK_ELEMENTS // 2 // (n_steps + 1))
    return 2 * 2 * rows * (n_steps + 1) * 8


def test_block_memory_does_not_grow_with_replications():
    # Two buffers serve every block, one recurring while the worker stage
    # fills the other, and each yielded slice is a view of its block's
    # buffer, so more blocks cost no memory.  At 8,192 steps the element
    # budget sets the rows of a block.
    params = ModelParams(theta1=-3.0, theta2=-2.0, sigma=1.0)
    n_steps = 2**13
    rows = simulate_module._BLOCK_ELEMENTS // 2 // (n_steps + 1)
    assert rows < simulate_module._BLOCK_REPS
    one, two = (_traced_peak(params, 40.0, n_steps, blocks * rows) for blocks in (2, 4))
    assert _buffer_bytes(n_steps) <= one
    assert two <= one + 0.1e6


def test_short_path_blocks_are_capped_in_replications():
    # 2,000 replications of 2,000 steps: the budget alone would make blocks
    # of 524 replications, two buffers of 16.8 MB each; capped at 256, the
    # two hold 16.4 MB together.  The rest (the two fills' scratch, the
    # recurrence's chunk, `_n_finite`'s masks) traced 1.6 MB and stays under
    # 2.5 MB, since the yielded slices are views of the buffers: fresh
    # slices, as the mean path added into new arrays, traced 3.5 MB.
    params = ModelParams(theta1=-3.0, theta2=-2.0, sigma=1.0)
    assert simulate_module._BLOCK_ELEMENTS // 2 // 2001 > simulate_module._BLOCK_REPS == 256
    _traced_peak(params, 20.0, 2000, 2)  # warm-up
    peak = _traced_peak(params, 20.0, 2000, 2000)
    assert _buffer_bytes(2000) <= peak < _buffer_bytes(2000) + 2.5e6


def test_five_hundred_short_paths_run_two_blocks_on_the_worker(monkeypatch):
    # The cap splits 500 replications of 2,000 steps into blocks of 256 and
    # 244, so each block's fill starts a worker, and the second block fills
    # while the first recurs.
    recurred, started = [], []
    recurrence, lanes = simulate_module._recurrence, simulate_module._Lanes

    def recording_recurrence(u, *coefficients):
        recurred.append(u.shape)
        recurrence(u, *coefficients)

    def recording_lanes(count, name="", fn=None, *args):
        if fn is not None:
            started.append(name)
        return lanes(count, name, fn, *args)

    monkeypatch.setattr(simulate_module, "_recurrence", recording_recurrence)
    monkeypatch.setattr(simulate_module, "_Lanes", recording_lanes)
    params = ModelParams(theta1=0.0, theta2=-1.0, sigma=1.0, x0=0.3, dx0=-0.2)
    reps = [k for blk in simulate_exact(params, 20.0, 2000, range(500)) for k in blk.reps]
    assert reps == list(range(500))
    assert recurred == [(2 * 256, 2001), (2 * 244, 2001)]
    assert started == ["car2-simulate"] * 2


# Values whose products and sums test lfilter's rounding, its signed zeros
# and its overflow.
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, math.inf,
           -math.inf, math.nan]
values = st.one_of(st.floats(-1e3, 1e3), st.sampled_from(SPECIAL), st.floats())
coefficients = st.one_of(st.floats(-2.5, 2.5), st.sampled_from([0.0, -0.0, 5e-324, 1e300, -1e300]))


class TestRecurrence:
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(data=st.data(), rows=st.integers(1, 48), n_steps=st.integers(0, 50),
           chunk=st.sampled_from([1, 2, 7, 64]), tau=coefficients, delta=coefficients)
    def test_equals_lfilter(self, data, rows, n_steps, chunk, tau, delta):
        # On fill-shaped input (column 0 the zero state), one row or many,
        # with steps in chunks that split the series or not: non-finite
        # exactly where lfilter's is, and bit for bit but for the sign of a
        # zero, which lfilter's direct form sets from its state.
        u = data.draw(arrays(np.float64, (rows, n_steps + 1), elements=values))
        u[:, 0] = 0.0
        want = lfilter([1.0], [1.0, -tau, delta], u, axis=-1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate_module, "_CHUNK_STEPS", chunk)
            _recurrence(u, tau, delta)
        finite = np.isfinite(want)
        assert np.array_equal(np.isfinite(u), finite)
        assert np.array_equal(u[finite], want[finite])
        nonzero = finite & (want != 0.0)
        assert u[nonzero].view(np.int64).tolist() == want[nonzero].view(np.int64).tolist()


class TestStreams:
    @pytest.mark.parametrize("seed,index", [(0, 0), (2**64 - 1, 2**56 - 1), (2**64 - 1, 0),
                                            (0, 2**56 - 1)])
    def test_rekeyed_generator_equals_fresh_stream(self, seed, index):
        from car2 import rng as car2_rng

        fresh = car2_rng.stream(seed, car2_rng.DOMAIN_SIM_EXACT, index)
        gen = car2_rng.stream(3, car2_rng.DOMAIN_LIMIT, 5)
        gen.standard_normal(7)  # mid-stream, with a buffered half-word
        gen.integers(0, 2**16, dtype=np.uint16)
        car2_rng.rekey(gen, seed, car2_rng.DOMAIN_SIM_EXACT, index)
        assert_same_bits(gen.standard_normal(1001), fresh.standard_normal(1001))
        assert gen.integers(0, 2**32, size=5, dtype=np.uint32).tolist() == \
            fresh.integers(0, 2**32, size=5, dtype=np.uint32).tolist()

    @pytest.mark.parametrize("seed,index", [(-1, 0), (2**64, 0), (0, -1), (0, 2**56)])
    def test_rekey_rejects_out_of_range_keys(self, seed, index):
        from car2 import rng as car2_rng

        gen = car2_rng.stream(0, car2_rng.DOMAIN_SIM_EXACT)
        with pytest.raises(ValueError):
            car2_rng.rekey(gen, seed, car2_rng.DOMAIN_SIM_EXACT, index)


class TestInputGuards:
    PARAMS = ModelParams(theta1=-3.0, theta2=-2.0)

    @pytest.mark.parametrize("horizon, n_steps, message", [
        (0.0, 10, "horizon must be positive, got 0.0"),
        (-1.0, 10, "horizon must be positive, got -1.0"),
        (math.nan, 10, "horizon must be positive, got nan"),
        (math.inf, 10, "horizon must be positive, got inf"),
        (1.0, 0, "n_steps must be >= 1, got 0"),
    ])
    def test_bad_grid_rejected(self, horizon, n_steps, message):
        with pytest.raises(ValueError, match=message):
            simulate(self.PARAMS, horizon, n_steps)

    def test_block_kernel_checks_the_grid(self):
        with pytest.raises(ValueError, match="n_steps must be >= 1, got 0"):
            next(simulate_exact(self.PARAMS, 1.0, 0, [0]))

    def test_unequal_lengths_rejected(self):
        t, five = np.linspace(0.0, 1.0, 5), np.zeros(5)
        with pytest.raises(ValueError, match="t, x, v must have equal length"):
            SamplePath(t=t, x=np.zeros(4), v=five, dw=None, sigma=1.0, params=self.PARAMS)
        with pytest.raises(ValueError, match="dw must have one entry per step"):
            SamplePath(t=t, x=five, v=five, dw=five, sigma=1.0, params=self.PARAMS)

    @pytest.mark.parametrize("alpha", [0.0, -2.0, math.nan, math.inf])
    def test_bad_rescale_factor_rejected(self, alpha):
        path = simulate(self.PARAMS, 1.0, 10)
        with pytest.raises(ValueError, match="alpha must be positive"):
            rescale_time(path, alpha)


class TestRescale:
    def test_identity(self):
        params = ModelParams(theta1=-1.0, theta2=-1.0, sigma=1.0)
        path = simulate(params, 2.0, 100, seed=3, record_noise=True)
        same = rescale_time(path, 1.0)
        np.testing.assert_array_equal(same.t, path.t)
        np.testing.assert_array_equal(same.x, path.x)
        np.testing.assert_array_equal(same.v, path.v)

    def test_linear_path(self):
        # X(t) = t: rescaling by 2 gives X~(t) = 2t on half the horizon.
        params = ModelParams(theta1=0.0, theta2=0.0, sigma=0.0, x0=0.0, dx0=1.0)
        path = simulate(params, 1.0, 10)
        scaled = rescale_time(path, 2.0)
        np.testing.assert_allclose(scaled.x, 2.0 * scaled.t, rtol=1e-12)
        assert np.all(scaled.v == 2.0)
        assert scaled.horizon == pytest.approx(0.5)

    def test_parameter_map(self):
        params = ModelParams(theta1=-1.0, theta2=-2.0, sigma=1.5, x0=1.0, dx0=0.3)
        path = simulate(params, 2.0, 50, seed=1, record_noise=True)
        scaled = rescale_time(path, 2.0)
        assert scaled.params.theta1 == pytest.approx(-2.0)
        assert scaled.params.theta2 == pytest.approx(-8.0)
        assert scaled.params.sigma == pytest.approx(1.5 * 2**1.5)
        np.testing.assert_allclose(scaled.dw, path.dw / np.sqrt(2.0), rtol=1e-12)


class TestCsvRoundTrip:
    def test_round_trip_bit_exact(self, tmp_path):
        params = ModelParams(theta1=-0.3, theta2=-0.9, sigma=1.1, x0=0.2, dx0=0.0)
        path = simulate(params, 1.0, 33, seed=8, record_noise=True)
        dest = tmp_path / "path.csv"
        write_path_csv(path, dest)
        back = read_path_csv(dest, params)
        assert np.array_equal(back.t, path.t)
        assert np.array_equal(back.x, path.x)
        assert np.array_equal(back.v, path.v)
        assert np.array_equal(back.dw, path.dw)

    def test_rows_writer_writes_str_text(self, tmp_path):
        # Every value is written by str: a float, Python or numpy, as the
        # float's repr; an int, Python or numpy, as its digits; a bool by name.
        values = [-0.0, 5e-324, 1e16, 1e-5, math.nan, math.inf, -math.inf]
        rows = [(k, v, np.float64(v), np.int64(k), k % 2 == 1) for k, v in enumerate(values)]
        rows.append((np.int64(7), 2.5, 3.5, 4, True))
        dest = tmp_path / "rows.csv"
        write_rows_csv(rows, dest, "a,b,c,d,e")
        want = "".join(f"{k},{v!r},{v!r},{k},{k % 2 == 1}\n" for k, v in enumerate(values))
        want += "7,2.5,3.5,4,True\n"
        assert dest.read_bytes() == ("a,b,c,d,e\n" + want).encode()
        assert want.splitlines()[:2] == ["0,-0.0,-0.0,0,False", "1,5e-324,5e-324,1,True"]
        with pytest.raises(ValueError):
            write_rows_csv([(1, 2.0), (3,)], dest, "a,b")

    def test_round_trip_without_noise(self, tmp_path):
        params = ModelParams(theta1=0.0, theta2=-1.0, sigma=1.0)
        path = simulate(params, 1.0, 5, seed=2)
        dest = tmp_path / "path.csv"
        write_path_csv(path, dest)
        back = read_path_csv(dest, params)
        assert back.dw is None
        assert np.array_equal(back.x, path.x)
