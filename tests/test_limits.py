import hashlib
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import car2.limits
from car2 import (
    ModelParams,
    brownian_functionals,
    char_roots,
    classify,
    ks_two_sample,
    rng,
    sample_limit,
)
from car2.estimate import _block_columns, _solve
from car2.simulate import _Lanes, simulate_exact

from conftest import REGIME_POINTS

TESTS = Path(__file__).resolve().parent

ONE_BM_FIELDS = ("w1_end", "z1", "z2", "z3")
TWO_BM_FIELDS = ("w1_end", "z2", "w2_end", "levy", "s2")

# SHA-256 of each field of brownian_functionals(1000, seed=6, two_bm, 4200):
# two chunks of the default size.  w1_end, w2_end and levy are the bits the
# sampler gave when it took its trapezoids by gemv.  BM1 is the same path in
# both modes, so z2 is the same too.
W1_END = "29853c953dc267d2e7f19da79bcae7e3498d0152c25f13721cdb82f62cbd3e67"
Z2 = "0aef20ca2885715547a228f171f0ee585ab5ff8bc9c8ae2856a03cbe5be66dca"
FIELD_DIGESTS = {
    False: dict(w1_end=W1_END, z2=Z2,
                z1="a0d514a2b8f38bb6bae59bef967d6347b48f2b84d8b91736d4fce96383024890",
                z3="d6caa0ebfe9c76a2c151b901c44e199e6ff8d3557feb6966e5e6972bccefa36c"),
    True: dict(w1_end=W1_END, z2=Z2,
               w2_end="72954b5d49f4757d6c0d6a8d09ee305cccacad1bb5f458a038f7e3ec2d876d9e",
               levy="b5437076163fe09b5ed045429a3be3ba377af10c16dae74beb1320564a29ea36",
               s2="d6e9d2557fd5cd9bbc516e788216a4484aa26fe08aac482ec8847c2e9ed93702"),
}


def setup(name, sigma=1.0, x0=0.0, dx0=0.0):
    t1, t2, _ = REGIME_POINTS[name]
    params = ModelParams(theta1=t1, theta2=t2, sigma=sigma, x0=x0, dx0=dx0)
    roots = char_roots(params)
    return params, roots, classify(roots)


def simulated_residuals(params, T, h, n_reps, seed=101):
    """theta_hat - theta of replications 0..n_reps-1, each row bit for bit
    `estimate_path(simulate(params, T, n, seed=seed, rep=k))`."""
    cols = [_block_columns(blk.t, blk.x, blk.v)
            for blk in simulate_exact(params, T, int(round(T / h)), range(n_reps), seed)]
    est, threshold = _solve(np.concatenate(cols, axis=1), T, params.sigma)
    assert not (est.det_D <= threshold).any()
    return est.theta1_hat - params.theta1, est.theta2_hat - params.theta2


class TestBrownianFunctionals:
    def test_moments(self):
        fn = brownian_functionals(1000, seed=1, n_draws=25_000)
        n = fn.z1.size
        assert abs(fn.z1.mean()) <= 4.0 * math.sqrt(1.0 / 3.0 / n)
        assert abs(fn.z1.var() - 1.0 / 3.0) <= 4.0 * (1.0 / 3.0) * math.sqrt(2.0 / n)
        assert abs(fn.z2.mean() - 0.5) <= 4.0 * fn.z2.std() / math.sqrt(n)
        assert fn.z2.min() > 0 and fn.z3.min() > 0

    def test_two_bm_fields(self):
        fn = brownian_functionals(1000, seed=2, two_bm=True, n_draws=20_000)
        n = fn.levy.size
        assert abs(fn.levy.mean()) <= 4.0 * fn.levy.std() / math.sqrt(n)
        # sign-flip symmetry of w2 makes the Levy area symmetric
        skew = ((fn.levy - fn.levy.mean()) ** 3).mean() / fn.levy.std() ** 3
        assert abs(skew) <= 0.1
        assert fn.s2.min() > 0

    def test_grid_too_small_rejected(self):
        with pytest.raises(ValueError):
            brownian_functionals(1, seed=0)

    def test_no_draws_rejected(self):
        with pytest.raises(ValueError, match="n_draws must be >= 1, got 0"):
            brownian_functionals(100, seed=0, n_draws=0)

    def test_deterministic(self):
        a = brownian_functionals(500, seed=9, n_draws=10)
        b = brownian_functionals(500, seed=9, n_draws=10)
        assert np.array_equal(a.z2, b.z2)

    def test_chunks_independent_of_draw_count(self):
        # paths come in chunks of 2**22 // (grid + 1), each from its own
        # stream, so a longer run (short last chunk included) starts with the
        # shorter run's draws, however the chunk buffers are reused
        grid = 2**15
        chunk = 2**22 // (grid + 1)
        short = brownian_functionals(grid, seed=4, two_bm=True, n_draws=chunk)
        longer = brownian_functionals(grid, seed=4, two_bm=True, n_draws=2 * chunk + 3)
        for name in TWO_BM_FIELDS:
            assert np.array_equal(getattr(longer, name)[:chunk], getattr(short, name))
            assert len(getattr(longer, name)) == 2 * chunk + 3
            assert np.all(np.isfinite(getattr(longer, name)))
        assert not np.array_equal(longer.s2[chunk:2 * chunk], longer.s2[:chunk])

    def test_lone_block_row_keeps_its_bits(self):
        # One BM: chunk 0's draws come from its own stream, so the first
        # rows + 1 of rows + 2 draws are the first rows + 1 draws.  The last
        # of them is a lone row in its reduce block in the first run and
        # shares a block in the second: at grid 2**14 the sampler must not
        # reduce a lone row on its own.
        grid = 2**14
        rows = car2.limits._REDUCE_ELEMENTS // grid  # a reduce block
        assert 1 < rows < car2.limits._CHUNK_ELEMENTS // (grid + 1)  # within one chunk
        short = brownian_functionals(grid, seed=4, n_draws=rows + 1)
        longer = brownian_functionals(grid, seed=4, n_draws=rows + 2)
        for name in ONE_BM_FIELDS:
            want = getattr(short, name).tobytes()
            assert getattr(longer, name)[:rows + 1].tobytes() == want, name

    @pytest.mark.parametrize("two_bm", [False, True])
    def test_field_digests_pinned(self, two_bm):
        fn = brownian_functionals(1000, seed=6, two_bm=two_bm, n_draws=4200)
        got = {name: hashlib.sha256(value.tobytes()).hexdigest()
               for name, value in fn._asdict().items() if value is not None}
        assert got == FIELD_DIGESTS[two_bm]


def sequential_functionals(grid_n, seed, two_bm, n_draws, chunk_elements, gemv=False):
    """Oracle: the sampler on one thread, each chunk drawn whole (BM1, then
    BM2) and reduced in turn.  Each trapezoid integral, and each Levy sum,
    is one einsum over the chunk's rows, not the sampler's reduce blocks:
    a row of an einsum of two rows or more has the same bits in any such
    einsum.  (A lone row longer than 8,192 elements does not, so a one-row
    chunk on such a grid is no oracle.)  With gemv, each trapezoid is one
    `@ trapw` gemv per chunk, as the sampler took them before, and z1_abs,
    the trapezoid of |w|, joins the one-BM fields."""
    dt = 1.0 / grid_n
    trapw = np.full(grid_n + 1, dt)
    trapw[0] = trapw[-1] = dt / 2.0
    chunk = max(1, chunk_elements // (grid_n + 1))

    def trapezoid(f):
        return f @ trapw if gemv else np.einsum("ij,j->i", f, trapw)

    parts = []
    for chunk_index, start in enumerate(range(0, n_draws, chunk)):
        m = min(chunk, n_draws - start)
        gen = rng.stream(seed, rng.DOMAIN_LIMIT, chunk_index)
        dw = [gen.standard_normal((m, grid_n)) * math.sqrt(dt) for _ in range(1 + two_bm)]
        w = [np.concatenate([np.zeros((m, 1)), np.cumsum(d, axis=1)], axis=1) for d in dw]
        fields = dict(w1_end=w[0][:, -1].copy(), z2=trapezoid(w[0] * w[0]))
        if two_bm:
            fields["w2_end"] = w[1][:, -1].copy()
            fields["levy"] = (np.einsum("ij,ij->i", w[0][:, :-1], dw[1])
                              - np.einsum("ij,ij->i", w[1][:, :-1], dw[0]))
            fields["s2"] = fields["z2"] + trapezoid(w[1] * w[1])
        else:
            inner = np.zeros_like(w[0])
            np.cumsum(w[0][:, :-1] + w[0][:, 1:], axis=1, out=inner[:, 1:])
            inner *= dt / 2.0
            fields.update(z1=trapezoid(w[0]), z3=trapezoid(inner * inner))
            if gemv:
                fields["z1_abs"] = trapezoid(np.abs(w[0]))
        parts.append(fields)
    return {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}


def assert_fields_equal(got, want, two_bm, context):
    """got (BrownianFunctionals) has exactly its mode's fields, each equal
    bit for bit to the oracle's."""
    names = TWO_BM_FIELDS if two_bm else ONE_BM_FIELDS
    for name in names:
        assert getattr(got, name).tobytes() == want[name].tobytes(), (context, name)
    for name in set(ONE_BM_FIELDS + TWO_BM_FIELDS) - set(names):
        assert getattr(got, name) is None, (context, name)


class EagerWorker(_Lanes):
    """Stands in for the sampler's lanes and runs the worker lane at once, on
    the caller, when they are made, so the worker takes every chunk, reusing
    its one slot and scratch, and the caller's lane finds none left."""

    def __init__(self, count, name="", fn=None, *args):
        assert name == "car2-limits"
        super().__init__(count, name)
        if fn is not None:  # a one-chunk call has no worker lane
            self._run(fn, *args)


def run_bounded(call, timeout=60.0):
    """Run call on a thread; fail if it has not returned within timeout.

    Returns the exception it raised, or None."""
    raised = []

    def target():
        try:
            call()
        except BaseException as exc:  # noqa: BLE001 - handed back to the test
            raised.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "brownian_functionals did not return"
    return raised[0] if raised else None


class TestFillPipeline:
    """The two lanes change no bit: each chunk is reduced once, by one lane,
    in that lane's own slot and scratch."""

    @pytest.mark.parametrize("grid_n,chunk", [(50, 4), (257, 3), (2000, 10)])
    @pytest.mark.parametrize("two_bm", [False, True])
    @pytest.mark.parametrize("eager", [False, True], ids=["worker", "eager"])
    def test_bits_equal_sequential_loop(self, monkeypatch, grid_n, chunk, two_bm, eager):
        # at 2000 x 10 rows a `@ trapw` gemv would run threaded
        monkeypatch.setattr(car2.limits, "_CHUNK_ELEMENTS", chunk * (grid_n + 1))
        if eager:
            monkeypatch.setattr(car2.limits, "_Lanes", EagerWorker)
        for n_draws in (1, chunk - 1, chunk, 2 * chunk + 3, 7 * chunk + 1):
            got = brownian_functionals(grid_n, seed=5, two_bm=two_bm, n_draws=n_draws)
            want = sequential_functionals(grid_n, 5, two_bm, n_draws, chunk * (grid_n + 1))
            assert_fields_equal(got, want, two_bm, n_draws)

    @pytest.mark.parametrize("grid_n", [10_000, 2**14])
    @pytest.mark.parametrize("two_bm", [False, True])
    def test_lone_block_rows_equal_sequential_loop(self, monkeypatch, grid_n, two_bm):
        # Chunks of one reduce block and a row each end in a one-row block;
        # the oracle reduces each whole chunk in one einsum.
        chunk = car2.limits._REDUCE_ELEMENTS // grid_n + 1
        monkeypatch.setattr(car2.limits, "_CHUNK_ELEMENTS", chunk * (grid_n + 1))
        got = brownian_functionals(grid_n, seed=3, two_bm=two_bm, n_draws=2 * chunk)
        want = sequential_functionals(grid_n, 3, two_bm, 2 * chunk, chunk * (grid_n + 1))
        assert_fields_equal(got, want, two_bm, grid_n)

    @pytest.mark.parametrize("two_bm", [False, True])
    @pytest.mark.parametrize("eager", [False, True], ids=["worker", "eager"])
    def test_paths_are_summed_row_by_row(self, monkeypatch, two_bm, eager):
        # numpy 2.4 holds the GIL through a 2-D cumsum, and through a 1-D
        # one in place, so the other lane would wait on it: each lane sums
        # every path (and one-BM's running trapezoid) as one 1-D cumsum per
        # row into another array.  Every cumsum the sampler makes, by
        # np.cumsum or np.add.accumulate, is recorded.
        grid_n, chunk, n_draws = 300, 20, 65
        monkeypatch.setattr(car2.limits, "_CHUNK_ELEMENTS", chunk * (grid_n + 1))
        if eager:
            monkeypatch.setattr(car2.limits, "_Lanes", EagerWorker)
        calls = []

        def recorded(cumsum):
            def call(a, *args, out=None, **kwargs):
                calls.append((np.ndim(a), out is None or np.shares_memory(a, out)))
                return cumsum(a, *args, out=out, **kwargs)
            return call

        class Add:
            __call__ = staticmethod(np.add)
            accumulate = staticmethod(recorded(np.add.accumulate))

        class Numpy:
            """numpy as car2.limits sees it, with its cumsums recorded."""
            add, cumsum = Add(), staticmethod(recorded(np.cumsum))

            def __getattr__(self, name):
                return getattr(np, name)

        monkeypatch.setattr(car2.limits, "np", Numpy())
        brownian_functionals(grid_n, seed=1, two_bm=two_bm, n_draws=n_draws)
        assert calls == [(1, False)] * (2 * n_draws)

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(grid_n=st.integers(2, 300), chunk=st.integers(1, 40), n_chunks=st.integers(1, 7),
           last=st.integers(1, 40), block=st.integers(1, 20), seed=st.integers(0, 2**64 - 1),
           two_bm=st.booleans(), eager=st.booleans())
    def test_lanes_equal_sequential_loop(self, grid_n, chunk, n_chunks, last, block, seed,
                                         two_bm, eager):
        # Chunks of up to 40 rows end inside or across a reduce block of up
        # to 20 rows; the last chunk may be short, and the worker may take no
        # chunk (eager: every chunk).
        n_draws = (n_chunks - 1) * chunk + min(last, chunk)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(car2.limits, "_CHUNK_ELEMENTS", chunk * (grid_n + 1))
            mp.setattr(car2.limits, "_REDUCE_ELEMENTS", block * grid_n)
            if eager:
                mp.setattr(car2.limits, "_Lanes", EagerWorker)
            got = brownian_functionals(grid_n, seed, two_bm, n_draws)
        want = sequential_functionals(grid_n, seed, two_bm, n_draws, chunk * (grid_n + 1))
        assert_fields_equal(got, want, two_bm, n_draws)

    def test_concurrent_callers_under_fast_switching(self, monkeypatch):
        # four callers, each with its own worker, on a switch interval short
        # enough to interleave them mid-chunk: a slot shared across calls or
        # filled too early would change some caller's bits
        grid_n, chunk = 300, 5
        monkeypatch.setattr(car2.limits, "_CHUNK_ELEMENTS", chunk * (grid_n + 1))
        want = {seed: sequential_functionals(grid_n, seed, True, 4 * chunk + 2,
                                             chunk * (grid_n + 1)) for seed in range(4)}
        got = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda seed=seed: got.__setitem__(
                seed, brownian_functionals(grid_n, seed, True, 4 * chunk + 2)))
                for seed in want]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert set(got) == set(want)
        for seed, fields in want.items():
            assert_fields_equal(got[seed], fields, True, seed)

    @staticmethod
    def gate_streams(monkeypatch, lane, fail=False):
        """Record (on the worker?, chunk) for each chunk a lane begins.  The
        lane named ("caller" or "worker") waits in its first chunk until the
        other lane has begun one, and then, with fail, raises; the other
        lane's draws wait until it has got that far, and then take 0.05 s
        each, so that the other lane is still drawing when the error is
        raised."""
        stream, calls = car2.limits.rng.stream, []
        began, released = threading.Event(), threading.Event()

        class HeldGenerator:
            def __init__(self, gen):
                self.gen = gen

            def standard_normal(self, *args, **kwargs):
                assert released.wait(30.0), "the gated lane did not go on"
                time.sleep(0.05)
                return self.gen.standard_normal(*args, **kwargs)

        def gated_stream(seed, domain, index):
            on_worker = threading.current_thread().name.startswith("car2-limits")
            calls.append((on_worker, index))
            if on_worker != (lane == "worker"):
                began.set()
                return HeldGenerator(stream(seed, domain, index))
            assert began.wait(30.0), "the other lane began no chunk"
            released.set()
            if fail:
                raise RuntimeError("stream failed")
            return stream(seed, domain, index)

        monkeypatch.setattr(car2.limits.rng, "stream", gated_stream)
        return calls

    def test_worker_thread_is_named(self, monkeypatch):
        # The worker, which a thread dump names by its pool, takes chunks
        # beside the caller; each chunk is begun once and reduced as the
        # one-thread oracle reduces it.
        for two_bm in (False, True):
            want = sequential_functionals(50, 1, two_bm, 9, 2 * 51)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(car2.limits, "_CHUNK_ELEMENTS", 2 * 51)
                calls = self.gate_streams(mp, "caller")
                got = brownian_functionals(50, seed=1, two_bm=two_bm, n_draws=9)
            assert sorted(index for _, index in calls) == list(range(5)), two_bm
            assert any(on_worker for on_worker, _ in calls), two_bm
            assert_fields_equal(got, want, two_bm, 9)

    @classmethod
    def check_error_on(cls, lane, monkeypatch, two_bm):
        """Fail the lane's first chunk, of chunks of 4 rows at grid 100, once
        the other lane has begun one: the error must reach the caller in
        time, the other lane must begin no further chunk, and no worker may
        be left running."""
        monkeypatch.setattr(car2.limits, "_CHUNK_ELEMENTS", 4 * 101)
        calls = cls.gate_streams(monkeypatch, lane, fail=True)
        error = run_bounded(lambda: brownian_functionals(100, seed=1, two_bm=two_bm,
                                                         n_draws=40))
        assert isinstance(error, RuntimeError) and str(error) == "stream failed"
        assert not [t for t in threading.enumerate() if t.name.startswith("car2-limits")]
        # Of the ten chunks, one per lane was begun: the failed one, and the
        # other lane's, which it finished.
        assert sorted(on_worker for on_worker, _ in calls) == [False, True]

    @pytest.mark.parametrize("two_bm", [False, True])
    def test_trapezoids_match_gemv_reduction(self, monkeypatch, two_bm):
        # The per-block einsums round differently from the `@ trapw` gemvs
        # the sampler took before: by at most 1e-13 of the trapezoid of the
        # integrand's magnitude.  w(1) and the Levy area keep their bits.
        grid_n, chunk, n_draws = 10_000, 20, 45
        monkeypatch.setattr(car2.limits, "_CHUNK_ELEMENTS", chunk * (grid_n + 1))
        got = brownian_functionals(grid_n, seed=8, two_bm=two_bm, n_draws=n_draws)
        old = sequential_functionals(grid_n, 8, two_bm, n_draws, chunk * (grid_n + 1),
                                     gemv=True)
        for name in ("w1_end", "w2_end", "levy") if two_bm else ("w1_end",):
            assert getattr(got, name).tobytes() == old[name].tobytes(), name
        scales = dict(z2=old["z2"], s2=old.get("s2"), z3=old.get("z3"), z1=old.get("z1_abs"))
        for name in ("z2", "s2") if two_bm else ("z1", "z2", "z3"):
            assert np.all(np.abs(getattr(got, name) - old[name]) <= 1e-13 * scales[name]), name
            assert not np.array_equal(getattr(got, name), old[name]), name

    @pytest.mark.parametrize("two_bm", [False, True])
    def test_worker_error_propagates(self, monkeypatch, two_bm):
        self.check_error_on("worker", monkeypatch, two_bm)

    @pytest.mark.parametrize("two_bm", [False, True])
    def test_caller_error_propagates(self, monkeypatch, two_bm):
        self.check_error_on("caller", monkeypatch, two_bm)

    def test_bits_equal_sequential_loop_one_blas_thread(self):
        # neither the lanes nor the oracle make a BLAS call, so they agree
        # at one BLAS thread as well
        test = f"{__file__}::TestFillPipeline::test_bits_equal_sequential_loop"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": str(TESTS.parent / "src")}
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                               test, "-k", "worker and 2000"], cwd=TESTS.parent,
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "2 passed" in proc.stdout

    def test_peak_memory_is_the_slab(self, monkeypatch):
        # Each lane's scratch: a reduce block of increments and two paths of
        # as many rows; with two BMs each lane also holds one slot of
        # BM1's increments for a chunk.  The slack is the fields and numpy's
        # iterator buffers (at this grid the running-trapezoid add buffers
        # its two inputs, 128 KiB per lane).
        grid_n, chunk = 1000, 200
        monkeypatch.setattr(car2.limits, "_CHUNK_ELEMENTS", chunk * (grid_n + 1))
        slot_bytes = 8 * chunk * grid_n
        rows = car2.limits._REDUCE_ELEMENTS // grid_n
        assert 1 < rows < chunk
        scratch_bytes = 8 * (rows * grid_n + 2 * rows * (grid_n + 1))
        for two_bm in (False, True):
            brownian_functionals(grid_n, seed=2, two_bm=two_bm, n_draws=3)  # warm up
            tracemalloc.start()
            try:
                brownian_functionals(grid_n, seed=2, two_bm=two_bm, n_draws=4 * chunk + 3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            lanes = 2 * (scratch_bytes + two_bm * slot_bytes)
            assert lanes <= peak <= lanes + 2**19, two_bm


class TestClosedFormSamplers:
    def test_ergodic_variances(self):
        params, roots, regime = setup("Ergodic")  # theta1=-3, theta2=-2
        draws = sample_limit(regime, params, 100_000, seed=5)
        n = draws.l1.size
        v1 = 2.0 * params.theta1**2
        v2 = 2.0 * abs(params.theta2) * params.theta1**2
        assert abs(draws.l1.var() - v1) <= 4.0 * v1 * math.sqrt(2.0 / n)
        assert abs(draws.l2.var() - v2) <= 4.0 * v2 * math.sqrt(2.0 / n)
        # independent coordinates
        corr = np.corrcoef(draws.l1, draws.l2)[0, 1]
        assert abs(corr) <= 4.0 / math.sqrt(n)
        assert draws.grid_n == 0

    def test_ergodic_unit_coefficient(self):
        params = ModelParams(theta1=-1.0, theta2=-1.0, sigma=1.0)
        roots = char_roots(params)
        draws = sample_limit(classify(roots), params, 100_000, seed=6)
        assert abs(draws.l1.var() - 2.0) <= 4.0 * 2.0 * math.sqrt(2.0 / draws.l1.size)

    def test_cauchy_zero_offset_median_and_iqr(self):
        # x0 = dx0 = 0: c = 0 and l1 is symmetric Cauchy with scale
        # 2(p+q)q/(p-q); median ~ 0 and IQR = 2*scale.
        params, roots, regime = setup("DistinctPositive")  # p=2, q=1
        scale = 2.0 * 3.0 * 1.0 / 1.0
        draws = sample_limit(regime, params, 100_000, seed=7)
        med = np.median(draws.l1)
        # SE of the median of a Cauchy sample: pi*scale/(2 sqrt(n))
        band = 4.0 * math.pi * scale / (2.0 * math.sqrt(draws.l1.size))
        assert abs(med) <= band
        iqr = np.percentile(draws.l1, 75) - np.percentile(draws.l1, 25)
        assert iqr == pytest.approx(2.0 * scale, rel=0.05)

    def test_coupling_exact(self):
        for name, factor_root in (("OppositeSign", "p"), ("DistinctPositive", "p"),
                                  ("PositiveDouble", "q")):
            params, roots, regime = setup(name)
            draws = sample_limit(regime, params, 1000, seed=8)
            root = roots.p.real if factor_root == "p" else (roots.p.real + roots.q.real) / 2
            np.testing.assert_array_equal(draws.l2, -root * draws.l1)

    def test_draws_record_the_horizon_their_law_read(self):
        # Only UnstableOscillation's law reads T (the phase 2 nu T).
        for name in ("Ergodic", "DistinctPositive", "UnstableOscillation"):
            params, _, regime = setup(name)
            draws = sample_limit(regime, params, 10, seed=2, horizon=5.0)
            assert draws.horizon == (5.0 if name == "UnstableOscillation" else None)

    def test_sigma_zero_rejected_where_offset_needed(self):
        for name in ("DistinctPositive", "PositiveDouble", "UnstableOscillation"):
            params, roots, regime = setup(name, sigma=0.0)
            with pytest.raises(ValueError):
                sample_limit(regime, params, 10, horizon=5.0)

    def test_no_samples_rejected(self):
        params, _, regime = setup("Ergodic")
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            sample_limit(regime, params, 0)

    def test_small_grid_rejected_for_functional_regime(self):
        params, roots, regime = setup("ZeroDouble")
        with pytest.raises(ValueError):
            sample_limit(regime, params, 10, grid_n=100)


class TestFunctionalSamplers:
    def test_zero_double_numerator_means(self):
        # E[w^2(1) - 1] = 0 and E[w(1)z1 - z2] = 0: the limit numerators are
        # centered even though the ratio laws themselves are skewed.
        fn = brownian_functionals(2000, seed=11, n_draws=20_000)
        n = fn.z1.size
        num_a = fn.w1_end**2 - 1.0
        num_b = fn.w1_end * fn.z1 - fn.z2
        assert abs(num_a.mean()) <= 4.0 * num_a.std() / math.sqrt(n)
        assert abs(num_b.mean()) <= 4.0 * num_b.std() / math.sqrt(n)
        params, roots, regime = setup("ZeroDouble")
        draws = sample_limit(regime, params, 5000, grid_n=2000, seed=11)
        assert np.isfinite(draws.l1).all() and np.isfinite(draws.l2).all()
        assert draws.grid_n == 2000

    def test_smaller_root_zero_coupling(self):
        params, roots, regime = setup("SmallerRootZero")
        draws = sample_limit(regime, params, 5000, grid_n=2000, seed=12)
        np.testing.assert_array_equal(draws.l2, -draws.l1)

    def test_larger_root_zero_independence(self):
        params, roots, regime = setup("LargerRootZero")
        draws = sample_limit(regime, params, 30_000, grid_n=1500, seed=13)
        corr = np.corrcoef(draws.l1, draws.l2)[0, 1]
        assert abs(corr) <= 4.0 / math.sqrt(draws.l1.size)
        v1 = 2.0 * params.theta1**2
        assert abs(draws.l1.var() - v1) <= 4.0 * v1 * math.sqrt(2.0 / draws.l1.size)

    def test_harmonic_medians_and_levy(self):
        params, roots, regime = setup("Harmonic")
        draws = sample_limit(regime, params, 20_000, grid_n=1500, seed=14)
        # l2 is symmetric; l1's numerator is mean zero but left-skewed
        assert abs(np.median(draws.l2)) <= 0.15
        assert abs(draws.l1.mean() * 0) == 0  # finite draws
        assert np.isfinite(draws.l1).all()

    def test_harmonic_draws_are_the_law_of_the_oracle_fields(self, monkeypatch):
        grid_n, chunk, n = 1000, 7, 30
        monkeypatch.setattr(car2.limits, "_CHUNK_ELEMENTS", chunk * (grid_n + 1))
        params, roots, regime = setup("Harmonic")
        draws = sample_limit(regime, params, n, grid_n=grid_n, seed=21)
        fn = sequential_functionals(grid_n, 21, True, n, chunk * (grid_n + 1))
        l1 = (fn["w1_end"]**2 + fn["w2_end"]**2 - 2.0) / fn["s2"]
        l2 = 2.0 * roots.nu * fn["levy"] / fn["s2"]
        assert draws.l1.tobytes() == l1.tobytes()
        assert draws.l2.tobytes() == l2.tobytes()

    def test_grid_refinement_percentile_stability(self):
        # 10/50/90 percentiles at grid 1e3 vs 1e4 differ < 2%.
        for name in ("ZeroDouble", "Harmonic"):
            params, roots, regime = setup(name)
            a = sample_limit(regime, params, 25_000, grid_n=1000, seed=15)
            b = sample_limit(regime, params, 25_000, grid_n=10_000, seed=16)
            pa = np.percentile(a.l1, [10, 50, 90])
            pb = np.percentile(b.l1, [10, 50, 90])
            spread = pb[2] - pb[0]
            assert np.all(np.abs(pa - pb) <= 0.02 * spread)


class TestSamplersAgainstSimulation:
    """Direct large-T simulation is the oracle for each sampler's law."""

    def test_positive_double_root(self):
        q = 0.7
        params = ModelParams(theta1=2 * q, theta2=-q * q, sigma=1.0, x0=0.5, dx0=-0.1)
        roots = char_roots(params)
        regime = classify(roots)
        T = 14.0
        d1, d2 = simulated_residuals(params, T, h=0.005, n_reps=1000)
        rate = math.exp(q * T) / (q * T)
        draws = sample_limit(regime, params, 20_000, seed=17)
        assert ks_two_sample(rate * d1, draws.l1) <= 0.12
        assert ks_two_sample(rate * d2, draws.l2) <= 0.12

    def test_smaller_root_zero_sign_convention(self):
        params = ModelParams(theta1=0.5, theta2=0.0, sigma=1.0, x0=0.3, dx0=-0.2)
        roots = char_roots(params)
        regime = classify(roots)
        T = 20.0
        d1, d2 = simulated_residuals(params, T, h=0.005, n_reps=600)
        draws = sample_limit(regime, params, 20_000, grid_n=4000, seed=18)
        l1_emp = params.theta1 * T * d1
        l2_emp = T * (d2 + params.theta2)  # theta2 = 0: this is T * theta2_hat
        ks_right = ks_two_sample(l1_emp, draws.l1)
        ks_wrong = ks_two_sample(l1_emp, -draws.l1)
        assert ks_right < 0.2
        assert ks_right < ks_wrong / 2.0
        # coupled coordinate carries the opposite sign of l1
        assert np.corrcoef(l1_emp, l2_emp)[0, 1] < -0.9
        assert ks_two_sample(l2_emp, draws.l2) < 0.2

    def test_unstable_oscillation_matrix_form(self):
        params, roots, regime = setup("UnstableOscillation", x0=0.4, dx0=-0.3)
        lam = roots.lam
        T = 24.0
        d1, d2 = simulated_residuals(params, T, h=0.01, n_reps=800)
        scale = math.exp(lam * T)
        draws = sample_limit(regime, params, 20_000, seed=19, horizon=T)
        assert ks_two_sample(scale * d1, draws.l1) <= 0.08
        assert ks_two_sample(scale * d2, draws.l2) <= 0.08

    def test_unstable_oscillation_requires_horizon(self):
        params, roots, regime = setup("UnstableOscillation")
        with pytest.raises(ValueError):
            sample_limit(regime, params, 10)

    @pytest.mark.parametrize("name", ["UnstableOscillation", "Ergodic"])
    @pytest.mark.parametrize("horizon", [math.nan, math.inf, -math.inf, 0.0, -5.0])
    def test_horizon_must_be_finite_and_positive(self, name, horizon):
        # nan gave all-NaN UnstableOscillation draws; other regimes ignored it.
        params, roots, regime = setup(name)
        with pytest.raises(ValueError, match="horizon"):
            sample_limit(regime, params, 10, horizon=horizon)

    def test_opposite_sign_normal_limit(self):
        # p = 1, q = -1; T keeps e^{pT}*eps far below the O(1) residual
        # process, the float64 information budget for this regime.
        params = ModelParams(theta1=0.0, theta2=1.0, sigma=1.0, x0=0.2, dx0=0.1)
        roots = char_roots(params)
        regime = classify(roots)
        q = abs(roots.q.real)
        T = 25.0
        d1, _ = simulated_residuals(params, T, h=0.005, n_reps=700)
        draws = sample_limit(regime, params, 20_000, seed=20)
        assert ks_two_sample(math.sqrt(q * T) * d1, draws.l1) <= 0.2
