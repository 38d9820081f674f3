import numpy as np
import pytest

from car2 import (
    ModelParams,
    SimConfig,
    SimulationOverflowError,
    char_roots,
    rescale_time,
    simulate,
    transition,
)
from car2.io import read_path_csv, write_path_csv
from car2.simulate import _BLOCK_ELEMENTS, SamplePath, simulate_exact

from conftest import sorted_regime_points


def reference_loop(params, cfg):
    """Naive per-step reference implementation of the exact scheme."""
    from car2 import rng as car2_rng
    from car2.simulate import _noise_factor

    h = cfg.horizon / cfg.n_steps
    kern = transition(params, h)
    factor = _noise_factor(kern.cov_matrix)
    gen = car2_rng.stream(cfg.seed, car2_rng.DOMAIN_SIM_EXACT, cfg.replication_index)
    draws = gen.standard_normal((cfg.n_steps, 3)) @ factor.T
    state = np.array([params.x0, params.dx0])
    xs, vs = [state[0]], [state[1]]
    # Reconstruct the homogeneous part exactly as simulate does, then add the
    # noise response step by step.
    from car2 import fundamental_solutions

    t = np.linspace(0.0, cfg.horizon, cfg.n_steps + 1)
    fs = fundamental_solutions(char_roots(params), t)
    hom_x = params.x0 * fs.x1 + params.dx0 * fs.x2
    hom_v = params.x0 * fs.dx1 + params.dx0 * fs.dx2
    z = np.zeros(2)
    for k in range(cfg.n_steps):
        z = kern.mean_matrix @ z + draws[k, 1:]
        xs.append(hom_x[k + 1] + z[0])
        vs.append(hom_v[k + 1] + z[1])
    return np.array(xs), np.array(vs), draws[:, 0]


class TestExactScheme:
    def test_matches_naive_loop(self):
        params = ModelParams(theta1=-1.5, theta2=-2.0, sigma=0.8, x0=1.0, dx0=-0.5)
        cfg = SimConfig(horizon=4.0, n_steps=400, record_noise=True, seed=11)
        path = simulate(params, cfg)
        x_ref, v_ref, dw_ref = reference_loop(params, cfg)
        np.testing.assert_allclose(path.x, x_ref, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(path.v, v_ref, rtol=1e-9, atol=1e-12)
        np.testing.assert_array_equal(path.dw, dw_ref)

    def test_deterministic_bit_identical(self):
        params = ModelParams(theta1=0.0, theta2=-1.0, sigma=1.0)
        cfg = SimConfig(horizon=3.0, n_steps=300, record_noise=True, seed=42,
                        replication_index=5)
        a = simulate(params, cfg)
        b = simulate(params, cfg)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.v, b.v)
        assert np.array_equal(a.dw, b.dw)

    def test_replications_differ(self):
        params = ModelParams(theta1=0.0, theta2=-1.0, sigma=1.0)
        a = simulate(params, SimConfig(horizon=1.0, n_steps=50, seed=42))
        b = simulate(params, SimConfig(horizon=1.0, n_steps=50, seed=42,
                                       replication_index=1))
        assert not np.array_equal(a.x, b.x)

    def test_noiseless_constant(self):
        params = ModelParams(theta1=0.0, theta2=0.0, sigma=0.0, x0=1.0, dx0=0.0)
        path = simulate(params, SimConfig(horizon=1.0, n_steps=100, record_noise=True))
        assert np.all(path.x == 1.0) and np.all(path.v == 0.0)
        assert np.all(path.dw == 0.0)

    def test_noiseless_linear_is_exact(self):
        params = ModelParams(theta1=0.0, theta2=0.0, sigma=0.0, x0=0.0, dx0=1.0)
        path = simulate(params, SimConfig(horizon=1.0, n_steps=1000))
        assert np.array_equal(path.x, path.t)
        assert np.all(path.v == 1.0)

    def test_grid_uniform(self):
        path = simulate(ModelParams(theta1=0.0, theta2=0.0), SimConfig(horizon=2.0, n_steps=7))
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
            path = simulate(params, SimConfig(horizon=1.0, n_steps=20, seed=3,
                                              replication_index=k))
            xs[k], vs[k] = path.x[-1], path.v[-1]
        band = 4.0 * np.sqrt(2.0 / n_reps)
        assert abs(vs.var() - 1.0) <= band
        assert abs(xs.var() - 1.0 / 3.0) <= band / 3.0 * 2.0

    def test_recorded_increments_have_brownian_variance(self):
        params = ModelParams(theta1=-1.0, theta2=-1.0, sigma=1.0)
        n_reps, T = 3000, 2.0
        sums = np.empty(n_reps)
        for k in range(n_reps):
            path = simulate(params, SimConfig(horizon=T, n_steps=40, seed=5,
                                              record_noise=True, replication_index=k))
            sums[k] = path.dw.sum()
        assert abs(sums.var() - T) <= 4.0 * T * np.sqrt(2.0 / n_reps)

    def test_overflow_reports_step(self):
        params = ModelParams(theta1=40.0, theta2=-1.0, sigma=1.0, x0=1.0, dx0=1.0)
        with pytest.raises(SimulationOverflowError) as err:
            simulate(params, SimConfig(horizon=40.0, n_steps=400))
        assert 0 < err.value.step <= 400

    @pytest.mark.parametrize("name,point", sorted_regime_points())
    def test_runs_in_every_regime(self, name, point):
        t1, t2, horizon = point
        params = ModelParams(theta1=t1, theta2=t2, sigma=1.0, x0=0.1, dx0=0.1)
        path = simulate(params, SimConfig(horizon=horizon, n_steps=200, seed=9,
                                          record_noise=True))
        assert np.isfinite(path.x).all() and np.isfinite(path.v).all()


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def exact_rows(params, *args, **kwargs):
    """(path, overflowed) of each replication, read off simulate_exact's blocks."""
    for blk in simulate_exact(params, *args, **kwargs):
        for i in range(len(blk.reps)):
            dw = None if blk.dw is None else blk.dw[i]
            yield (SamplePath(blk.t, blk.x[i], blk.v[i], dw, params.sigma, params),
                   bool(blk.overflow[i]))


class TestBlockKernel:
    # 700 steps: a block holds _BLOCK_ELEMENTS // 701 = 11 rows, and 25 reps
    # fill two blocks and part of a third.
    N_STEPS, N_REPS = 700, 25

    @pytest.mark.parametrize("theta", [(-3.0, -2.0), (2.0, -1.0), (0.5, -1.0625)],
                             ids=["distinct", "double", "complex"])
    @pytest.mark.parametrize("sigma", [0.0, 0.8])
    @pytest.mark.parametrize("record_noise", [False, True])
    def test_paths_equal_per_path_simulate(self, theta, sigma, record_noise):
        params = ModelParams(theta1=theta[0], theta2=theta[1], sigma=sigma,
                             x0=0.3, dx0=-0.2)
        assert self.N_REPS % (_BLOCK_ELEMENTS // (self.N_STEPS + 1)) != 0
        paths = list(exact_rows(params, 7.0, self.N_STEPS, range(self.N_REPS),
                                seed=4, record_noise=record_noise))
        assert len(paths) == self.N_REPS
        for k, (got, overflowed) in enumerate(paths):
            assert not overflowed
            want = simulate(params, SimConfig(horizon=7.0, n_steps=self.N_STEPS, seed=4,
                                              replication_index=k,
                                              record_noise=record_noise))
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
        assert _BLOCK_ELEMENTS // 710 > 9
        overflowed = []
        for k, (path, flag) in enumerate(exact_rows(params, 354.5, 709, range(24), seed=3)):
            cfg = SimConfig(horizon=354.5, n_steps=709, seed=3, replication_index=k)
            if flag:
                overflowed.append(k)
                with pytest.raises(SimulationOverflowError):
                    simulate(params, cfg)
            else:
                assert np.isfinite(path.x).all() and np.isfinite(path.v).all()
                assert_same_bits(path.x, simulate(params, cfg).x)
        assert overflowed == [9, 12, 15]

    def test_replication_subset(self):
        params = ModelParams(theta1=0.0, theta2=-1.0, sigma=1.0)
        paths = exact_rows(params, 2.0, 50, [7, 2], seed=1)
        for k, (path, _) in zip((7, 2), paths):
            want = simulate(params, SimConfig(horizon=2.0, n_steps=50, seed=1,
                                              replication_index=k))
            assert_same_bits(path.x, want.x)


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


class TestEulerScheme:
    def test_euler_weak_convergence_order_one(self):
        # Var X(T) under Euler approaches the exact value at rate ~ h.  The
        # step grid is coarse on purpose: at fine h the O(h) bias drops below
        # Monte Carlo noise and no order is measurable.
        params = ModelParams(theta1=-3.0, theta2=-2.0, sigma=1.0, x0=1.0, dx0=0.0)
        T = 5.0
        kern = transition(params, T)
        exact_mean = (kern.mean_matrix @ np.array([1.0, 0.0]))[0]
        exact_var = kern.cov_matrix[1, 1]
        steps = (16, 32, 64, 128)
        var_errs, mean_errs = [], []
        for n in steps:
            n_reps = 6000
            ends = np.empty(n_reps)
            for k in range(n_reps):
                path = simulate(params, SimConfig(horizon=T, n_steps=n, scheme="euler",
                                                  seed=13, replication_index=k))
                ends[k] = path.x[-1]
            var_errs.append(abs(ends.var() - exact_var))
            mean_errs.append(abs(ends.mean() - exact_mean))
        slope = np.polyfit(np.log([T / n for n in steps]), np.log(var_errs), 1)[0]
        assert 0.6 <= slope <= 1.9
        assert var_errs[-1] < var_errs[0] / 4
        # Mean errors stay at Monte Carlo noise level throughout.
        assert max(mean_errs) < 0.05

    def test_euler_noiseless_constant(self):
        params = ModelParams(theta1=0.0, theta2=0.0, sigma=0.0, x0=1.0, dx0=0.0)
        path = simulate(params, SimConfig(horizon=1.0, n_steps=64, scheme="euler"))
        assert np.all(path.x == 1.0) and np.all(path.v == 0.0)

    def test_euler_matches_explicit_recursion(self):
        params = ModelParams(theta1=-0.7, theta2=-1.2, sigma=0.9, x0=0.4, dx0=-0.1)
        cfg = SimConfig(horizon=1.0, n_steps=100, scheme="euler", seed=21,
                        record_noise=True)
        path = simulate(params, cfg)
        h = 0.01
        x, v = params.x0, params.dx0
        for k in range(cfg.n_steps):
            x, v = x + v * h, v + (params.theta2 * x + params.theta1 * v) * h \
                + params.sigma * path.dw[k]
            assert path.x[k + 1] == pytest.approx(x, rel=1e-9, abs=1e-12)
            assert path.v[k + 1] == pytest.approx(v, rel=1e-9, abs=1e-12)


class TestRescale:
    def test_identity(self):
        params = ModelParams(theta1=-1.0, theta2=-1.0, sigma=1.0)
        path = simulate(params, SimConfig(horizon=2.0, n_steps=100, seed=3,
                                          record_noise=True))
        same = rescale_time(path, 1.0)
        np.testing.assert_array_equal(same.t, path.t)
        np.testing.assert_array_equal(same.x, path.x)
        np.testing.assert_array_equal(same.v, path.v)

    def test_linear_path(self):
        # X(t) = t: rescaling by 2 gives X~(t) = 2t on half the horizon.
        params = ModelParams(theta1=0.0, theta2=0.0, sigma=0.0, x0=0.0, dx0=1.0)
        path = simulate(params, SimConfig(horizon=1.0, n_steps=10))
        scaled = rescale_time(path, 2.0)
        np.testing.assert_allclose(scaled.x, 2.0 * scaled.t, rtol=1e-12)
        assert np.all(scaled.v == 2.0)
        assert scaled.horizon == pytest.approx(0.5)

    def test_parameter_map(self):
        params = ModelParams(theta1=-1.0, theta2=-2.0, sigma=1.5, x0=1.0, dx0=0.3)
        path = simulate(params, SimConfig(horizon=2.0, n_steps=50, seed=1,
                                          record_noise=True))
        scaled = rescale_time(path, 2.0)
        assert scaled.params.theta1 == pytest.approx(-2.0)
        assert scaled.params.theta2 == pytest.approx(-8.0)
        assert scaled.params.sigma == pytest.approx(1.5 * 2**1.5)
        np.testing.assert_allclose(scaled.dw, path.dw / np.sqrt(2.0), rtol=1e-12)


class TestCsvRoundTrip:
    def test_round_trip_bit_exact(self, tmp_path):
        params = ModelParams(theta1=-0.3, theta2=-0.9, sigma=1.1, x0=0.2, dx0=0.0)
        path = simulate(params, SimConfig(horizon=1.0, n_steps=33, seed=8,
                                          record_noise=True))
        dest = tmp_path / "path.csv"
        write_path_csv(path, dest)
        back = read_path_csv(dest, params)
        assert np.array_equal(back.t, path.t)
        assert np.array_equal(back.x, path.x)
        assert np.array_equal(back.v, path.v)
        assert np.array_equal(back.dw, path.dw)

    def test_round_trip_without_noise(self, tmp_path):
        params = ModelParams(theta1=0.0, theta2=-1.0, sigma=1.0)
        path = simulate(params, SimConfig(horizon=1.0, n_steps=5, seed=2))
        dest = tmp_path / "path.csv"
        write_path_csv(path, dest)
        back = read_path_csv(dest, params)
        assert back.dw is None
        assert np.array_equal(back.x, path.x)
