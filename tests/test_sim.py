"""Simulation tests: stable sampler law, increment parametrization,
estimator consistency, batch determinism, stream order and memory."""
import math
import tracemalloc

import numpy as np
import pytest

from tsruin import (
    BatchResult,
    ClaimsModel,
    SimPlan,
    StableLawParams,
    run_batches,
    sample_stable,
    simulate_ruin_mc,
    simulate_ruin_naive,
    stable_increment_params,
)
from tsruin.sim import _chunk_draws, _tilted_subordinator_increments
from tsruin import _kernels
from tsruin._kernels import _BLOCK_ELEMENTS as BLOCK

from conftest import assert_close


def laplace_z(samples: np.ndarray, lam: float, theoretical: float):
    """z-score of the empirical Laplace transform against its target."""
    vals = np.exp(-lam * samples)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    return (vals.mean() - theoretical) / se


class TestStableLawParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            StableLawParams(rho=1.0, beta=1.0, mu=0.0, nu=1.0)
        with pytest.raises(ValueError):
            StableLawParams(rho=2.0, beta=1.0, mu=0.0, nu=1.0)
        with pytest.raises(ValueError):
            StableLawParams(rho=0.5, beta=1.5, mu=0.0, nu=1.0)
        with pytest.raises(ValueError):
            StableLawParams(rho=0.5, beta=1.0, mu=0.0, nu=0.0)
        StableLawParams(rho=1.5, beta=-1.0, mu=2.0, nu=0.3)  # rho in (1,2) is fine


class TestSampleStable:
    def test_positive_support_subordinator(self, rng_factory):
        # beta=1, rho<1, mu=0: one-sided law on (0, inf)
        p = StableLawParams(rho=0.7, beta=1.0, mu=0.0, nu=1.0)
        xs = sample_stable(p, rng_factory(11), size=100_000)
        assert xs.min() > 0.0

    def test_location_shift_pathwise(self, rng_factory):
        p0 = StableLawParams(rho=0.7, beta=1.0, mu=0.0, nu=1.0)
        p5 = StableLawParams(rho=0.7, beta=1.0, mu=5.0, nu=1.0)
        a = sample_stable(p0, rng_factory(99), size=1000)
        b = sample_stable(p5, rng_factory(99), size=1000)
        np.testing.assert_allclose(b, a + 5.0, rtol=0, atol=1e-12)

    def test_scalar_draw(self, rng_factory):
        p = StableLawParams(rho=0.7, beta=1.0, mu=0.0, nu=1.0)
        x = sample_stable(p, rng_factory(1))
        assert isinstance(x, float) and x > 0.0

    @pytest.mark.parametrize("rho,lam", [(0.5, 1.0), (0.7, 2.0), (0.99, 1.0)])
    def test_laplace_transform_subordinator(self, rng_factory, rho, lam):
        # E e^(-lam (S - mu)) = exp(-nu^rho sec(pi rho/2) lam^rho) for beta=1, rho<1
        nu = 0.8
        p = StableLawParams(rho=rho, beta=1.0, mu=0.0, nu=nu)
        xs = sample_stable(p, rng_factory(2024), size=400_000)
        want = math.exp(-(nu**rho) * lam**rho / math.cos(math.pi * rho / 2.0))
        assert abs(laplace_z(xs, lam, want)) < 4.0

    def test_laplace_transform_spectrally_positive(self, rng_factory):
        # rho in (1,2), beta=1: exponent -nu^rho sec(pi rho/2) lam^rho is positive
        rho, nu, lam = 1.5, 0.5, 0.5
        p = StableLawParams(rho=rho, beta=1.0, mu=0.0, nu=nu)
        xs = sample_stable(p, rng_factory(7), size=400_000)
        want = math.exp(-(nu**rho) * lam**rho / math.cos(math.pi * rho / 2.0))
        assert abs(laplace_z(xs, lam, want)) < 4.0


class TestIncrementParams:
    def test_reference_values(self, paper_ref):
        p = stable_increment_params(paper_ref, 0.01)
        assert p.beta == 1.0 and p.rho == paper_ref.rho
        assert_close(p.mu, -0.01193191021429806, rel=1e-12)
        want_nu = (-0.01 * 0.01 * math.cos(math.pi * 0.495) * paper_ref.gamma_neg_rho) ** (1 / 0.99)
        assert_close(p.nu, want_nu, rel=1e-12)

    def test_nu_positive_across_rho(self):
        for rho in [0.2, 0.5, 0.9, 0.99]:
            m = ClaimsModel.from_loading(0.05, 2.0, rho, 1.0 + (1 - rho) / rho)
            assert stable_increment_params(m, 0.5).nu > 0.0

    def test_infinitely_divisible(self, paper_ref, rng_factory):
        # sum of ten h-increments has the law of one 10h-increment
        h, k, n = 0.05, 10, 150_000
        p1 = stable_increment_params(paper_ref, h)
        p10 = stable_increment_params(paper_ref, k * h)
        parts = sample_stable(p1, rng_factory(31), size=n * k).reshape(n, k).sum(axis=1)
        whole = sample_stable(p10, rng_factory(32), size=n)
        for lam in (0.7, 2.0):
            a, b = np.exp(-lam * parts), np.exp(-lam * whole)
            se = math.hypot(a.std(ddof=1) / math.sqrt(n), b.std(ddof=1) / math.sqrt(n))
            assert abs(a.mean() - b.mean()) < 4.0 * se

    def test_h_validation(self, paper_ref):
        with pytest.raises(ValueError):
            stable_increment_params(paper_ref, 0.0)


class TestTiltedIncrements:
    def test_matches_tempered_cumulant(self, paper_ref, rng_factory):
        # E e^(-lam V) = exp(h psi_Y(-lam)) for the tilted increment V
        h, n = 0.01, 300_000
        params = stable_increment_params(paper_ref, h)
        theta0, scale0 = _kernels.cms_constants(params.rho, 1.0)
        v = _tilted_subordinator_increments(
            rng_factory(55), n, params.nu, params.rho, paper_ref.alpha, theta0, scale0
        )
        assert v.min() > 0.0
        for lam in (0.5, 1.0, 2.0):
            want = math.exp(h * float(paper_ref.psi_y(-lam)))
            assert abs(laplace_z(v, lam, want)) < 4.0


    def test_multi_round_bits_pinned(self, monkeypatch):
        # nu = 0.2, rho = 0.7, alpha = 1 rejects about half of each round's
        # proposals, so two blocks and a partial one take over a dozen
        # rounds; recorded before the first round was drawn block by block
        rho, nu, alpha, count = 0.7, 0.2, 1.0, 2 * BLOCK + 123
        theta0, scale0 = _kernels.cms_constants(rho, 1.0)
        sizes = []
        transform = _kernels.stable_standard
        monkeypatch.setattr(_kernels, "stable_standard",
                            lambda *a: sizes.append(np.size(a[0])) or transform(*a))
        rng = np.random.default_rng(606)
        v = _tilted_subordinator_increments(rng, count, nu, rho, alpha, theta0, scale0)
        assert len(sizes) - math.ceil(count / BLOCK) >= 2  # rounds after the first
        assert v.sum().hex() == "0x1.fe4da4946f5a6p+13"
        assert [x.hex() for x in v[[0, BLOCK, -1]]] == [
            "0x1.0e5a34c5d444fp-1", "0x1.628b8f01c57bfp+1", "0x1.6c0d6652daed5p-2"]
        assert rng.random().hex() == "0x1.412ac40c549f2p-1"  # the stream after the chunk


class TestChunkDraws:
    """A chunk's draws, split over two generators and read a block at a
    time, are the one-shot draws of the batch's stream."""

    # a partial last block in both
    @pytest.mark.parametrize("shape,rows", [((37, 11), 5), ((2 * BLOCK + 3,), BLOCK)])
    def test_equal_one_shot_draws(self, shape, rows):
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        u_parts, w_parts = [], []
        with _chunk_draws(rng, shape) as (u_ang, w_exp, after):
            assert u_ang.shape == w_exp.shape == shape and u_ang.size == math.prod(shape)
            for lo in range(0, shape[0], rows):
                u_parts.append(u_ang[lo:lo + rows].copy())
                w_parts.append(w_exp[lo:lo + rows].copy())
            tail = after.random(3)
        assert np.concatenate(u_parts).tobytes() == (np.pi * (ref.random(shape) - 0.5)).tobytes()
        assert np.concatenate(w_parts).tobytes() == ref.standard_exponential(shape).tobytes()
        assert tail.tobytes() == ref.random(3).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_rows_read_in_order_and_all(self):
        rng = np.random.default_rng(5)
        with pytest.raises(IndexError, match="in order"):
            with _chunk_draws(rng, (10, 3)) as (u_ang, _, _):
                u_ang[2:4]
        with pytest.raises(RuntimeError, match="unread"):
            with _chunk_draws(rng, (10, 3)) as (u_ang, w_exp, _):
                u_ang[0:10]


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """No Monte Carlo buffer grows with a chunk, except the naive sampler's
    one increment array."""

    def test_mc_batch_holds_no_chunk_draws(self, paper_ref):
        # one batch of 16384 paths x 200 steps is one chunk, whose angles and
        # exponentials take 2 x 26 MB when drawn whole
        plan = SimPlan(h=0.01, n=16384, N=1, seed=3)
        peak = _peak_bytes(lambda: simulate_ruin_mc(paper_ref, 0.1, 2.0, plan))
        assert peak < 2 * 16384 * 200 * 8 / 8

    def test_naive_chunk_holds_one_increment_array(self, paper_ref):
        # one chunk of 4096 x 200 increments (6.5 MB): draws, proposals,
        # drift and partial sums stay beside it a block at a time
        plan = SimPlan(h=0.01, n=4096, N=1, seed=3)
        peak = _peak_bytes(lambda: simulate_ruin_naive(paper_ref, 0.1, 2.0, plan))
        assert peak < 1.5 * 4096 * 200 * 8


class TestSimulators:
    def test_deterministic_same_plan(self, paper_ref):
        plan = SimPlan(h=0.05, n=512, N=5, seed=42, threads=1)
        a = simulate_ruin_mc(paper_ref, 0.2, 1.0, plan)
        b = simulate_ruin_mc(paper_ref, 0.2, 1.0, plan)
        assert a.mean == b.mean and a.stderr == b.stderr

    def test_thread_count_invariance(self, paper_ref):
        base = SimPlan(h=0.05, n=512, N=6, seed=43, threads=1)
        threaded = SimPlan(h=0.05, n=512, N=6, seed=43, threads=3)
        a = simulate_ruin_mc(paper_ref, 0.2, 1.0, base)
        b = simulate_ruin_mc(paper_ref, 0.2, 1.0, threaded)
        assert a.mean == b.mean and a.stderr == b.stderr
        an = simulate_ruin_naive(paper_ref, 0.2, 1.0, base)
        bn = simulate_ruin_naive(paper_ref, 0.2, 1.0, threaded)
        assert an.mean == bn.mean and an.stderr == bn.stderr
        # whole grids too
        for simulate in (simulate_ruin_mc, simulate_ruin_naive):
            a = simulate(paper_ref, [0.1, 0.2], [0.5, 1.0], base)
            b = simulate(paper_ref, [0.1, 0.2], [0.5, 1.0], threaded)
            assert np.array_equal(a.mean, b.mean) and np.array_equal(a.stderr, b.stderr)

    def test_unreachable_barrier(self, paper_ref):
        plan = SimPlan(h=0.1, n=256, N=3, seed=1, threads=1)
        res = simulate_ruin_mc(paper_ref, 50.0, 1.0, plan)
        assert res.mean == 0.0

    def test_monotone_in_t_and_u(self, paper_ref):
        # up to 3 combined stderr on a small grid
        plan = SimPlan(h=0.02, n=4096, N=8, seed=9, threads=1)
        by_t = [simulate_ruin_mc(paper_ref, 0.2, t, plan) for t in (0.5, 1.0, 2.0)]
        for a, b in zip(by_t, by_t[1:]):
            assert b.mean >= a.mean - 3.0 * math.hypot(a.stderr, b.stderr)
        by_u = [simulate_ruin_mc(paper_ref, u, 1.0, plan) for u in (0.1, 0.3, 0.6)]
        for a, b in zip(by_u, by_u[1:]):
            assert b.mean <= a.mean + 3.0 * math.hypot(a.stderr, b.stderr)

    def test_esscher_consistency_small(self, paper_ref):
        # the two estimators target the same discretized probability
        plan = SimPlan(h=0.02, n=4096, N=10, seed=77, threads=1)
        mc = simulate_ruin_mc(paper_ref, 0.1, 2.0, plan)
        nv = simulate_ruin_naive(paper_ref, 0.1, 2.0, plan)
        assert abs(mc.mean - nv.mean) <= 3.0 * math.hypot(mc.stderr, nv.stderr)

    def test_step_halving_bias_small(self, paper_ref):
        # halving h moves the mean by less than 3 combined stderr at this scale
        coarse = simulate_ruin_mc(paper_ref, 0.2, 1.0,
                                  SimPlan(h=0.01, n=4096, N=8, seed=13, threads=1))
        fine = simulate_ruin_mc(paper_ref, 0.2, 1.0,
                                SimPlan(h=0.005, n=4096, N=8, seed=14, threads=1))
        assert abs(coarse.mean - fine.mean) <= 3.0 * math.hypot(coarse.stderr, fine.stderr)

    def test_h_must_divide_t(self, paper_ref):
        plan = SimPlan(h=0.3, n=16, N=2, seed=0, threads=1)
        with pytest.raises(ValueError, match="divide"):
            simulate_ruin_mc(paper_ref, 0.5, 1.0, plan)
        with pytest.raises(ValueError, match="divide"):
            simulate_ruin_naive(paper_ref, 0.5, 1.0, plan)
        # every horizon of a grid is checked, not only the first ones
        for simulate in (simulate_ruin_mc, simulate_ruin_naive):
            with pytest.raises(ValueError, match="divide"):
                simulate(paper_ref, [0.5, 1.0], [0.6, 0.9, 1.0], plan)

    def test_h_larger_than_t(self, paper_ref):
        plan = SimPlan(h=2.0, n=16, N=2, seed=0, threads=1)
        with pytest.raises(ValueError):
            simulate_ruin_mc(paper_ref, 0.5, 1.0, plan)

    def test_domain(self, paper_ref):
        plan = SimPlan(h=0.1, n=16, N=2, seed=0, threads=1)
        with pytest.raises(ValueError):
            simulate_ruin_mc(paper_ref, 0.0, 1.0, plan)
        with pytest.raises(ValueError, match="positive"):
            simulate_ruin_naive(paper_ref, [0.5, -1.0], [0.6], plan)


class TestGridEstimator:
    """One path set per batch serves every (u, t) cell of a grid."""

    us = [0.1, 0.2, 0.4]
    ts = [0.5, 1.0, 1.5, 2.0]
    plan = SimPlan(h=0.05, n=1024, N=6, seed=2024, threads=1)

    @pytest.fixture(scope="class")
    def grids(self, paper_ref):
        return {f: f(paper_ref, self.us, self.ts, self.plan)
                for f in (simulate_ruin_mc, simulate_ruin_naive)}

    def test_one_cell_bits_pinned(self, paper_ref):
        # recorded before the grid estimator replaced the per-cell runs
        plan = SimPlan(h=0.05, n=512, N=5, seed=42, threads=1)
        mc = simulate_ruin_mc(paper_ref, 0.2, 1.0, plan)
        assert (mc.mean.hex(), mc.stderr.hex()) == ("0x1.25ed7660db010p-6", "0x1.0b61398a6da40p-9")
        nv = simulate_ruin_naive(paper_ref, 0.2, 1.0, plan)
        assert (nv.mean.hex(), nv.stderr.hex()) == ("0x1.2000000000000p-6", "0x1.deeea11683f49p-9")

    # recorded before the kernels were cache-blocked: many row blocks with a
    # partial last one, two chunks with a shorter last one, and threads=2
    @pytest.mark.parametrize("plan,t,mc,naive", [
        (SimPlan(h=0.01, n=3000, N=4, seed=81), 2.0,
         ("0x1.814ed42ba26ecp-6", "0x1.cbb536601cb4cp-11"),
         ("0x1.867c3ece2a535p-6", "0x1.c3f094c700373p-10")),
        (SimPlan(h=0.001, n=5000, N=2, seed=82), 1.0,
         ("0x1.04e07bde648aap-6", "0x1.79b13fc572b1fp-12"),
         ("0x1.fbe76c8b43958p-7", "0x1.6f0068db8bac0p-11")),
        (SimPlan(h=0.01, n=3000, N=4, seed=81, threads=2), 2.0,
         ("0x1.814ed42ba26ecp-6", "0x1.cbb536601cb4cp-11"),
         ("0x1.867c3ece2a535p-6", "0x1.c3f094c700373p-10")),
    ], ids=["row-blocks", "two-chunks", "threads-2"])
    def test_multi_block_bits_pinned(self, paper_ref, plan, t, mc, naive):
        for simulate, want in ((simulate_ruin_mc, mc), (simulate_ruin_naive, naive)):
            r = simulate(paper_ref, 0.2, t, plan)
            assert (r.mean.hex(), r.stderr.hex()) == want, simulate.__name__

    def test_grid_bits_pinned(self, paper_ref):
        plan = SimPlan(h=0.01, n=3000, N=4, seed=83)
        us, ts = [0.1, 0.2, 0.4], [0.5, 1.0, 2.0]
        mc = simulate_ruin_mc(paper_ref, us, ts, plan)
        assert [x.hex() for x in mc.mean.ravel()] == [
            "0x1.681ca44027ed6p-6", "0x1.02a5f76919eaap-5", "0x1.5a2734992e994p-5",
            "0x1.490218d48420cp-7", "0x1.0e943750f04dbp-6", "0x1.849193de92564p-6",
            "0x1.ed685a8e148b9p-9", "0x1.be05553c4db74p-8", "0x1.51cc693f967f4p-7"]
        assert [x.hex() for x in mc.stderr.ravel()] == [
            "0x1.76215a8ac3a39p-10", "0x1.54be25adda62ep-10", "0x1.c663d1f7a2000p-10",
            "0x1.49caeb6d77814p-11", "0x1.0201d69b6dbb4p-11", "0x1.62f8f2f71138ep-11",
            "0x1.767ac9e39c7e3p-12", "0x1.fff013f8de8d2p-13", "0x1.6076a0ee3c656p-12"]
        nv = simulate_ruin_naive(paper_ref, us, ts, plan)
        assert [x.hex() for x in nv.mean.ravel()] == [
            "0x1.6b2dbd1942380p-6", "0x1.ee402bb0cf87ep-6", "0x1.513cc1e098eadp-5",
            "0x1.5555555555556p-7", "0x1.f3b645a1cac08p-7", "0x1.7a32846ff513dp-6",
            "0x1.0624dd2f1a9fcp-8", "0x1.8ead65b7a3284p-8", "0x1.5810624dd2f1cp-7"]
        assert [x.hex() for x in nv.stderr.ravel()] == [
            "0x1.76fe6efae4677p-10", "0x1.96bcebb0862a3p-11", "0x1.89374bc6a7ef7p-10",
            "0x1.7c0cda54bf2efp-11", "0x1.17c1bb7619e5fp-11", "0x1.8fa2e314774fcp-11",
            "0x1.3f124edc3260ep-12", "0x1.9cf2b4bfb868fp-12", "0x1.430908b4ebacfp-11"]

    def test_shape_follows_inputs(self, paper_ref, grids):
        assert grids[simulate_ruin_mc].mean.shape == (3, 4)
        row = simulate_ruin_mc(paper_ref, 0.2, self.ts, self.plan)
        assert row.mean.shape == row.stderr.shape == (4,)
        assert isinstance(simulate_ruin_mc(paper_ref, 0.2, 1.0, self.plan).mean, float)

    @pytest.mark.parametrize("simulate", [simulate_ruin_mc, simulate_ruin_naive])
    def test_last_horizon_equals_one_cell_runs(self, paper_ref, grids, simulate):
        grid = grids[simulate]
        for i, u in enumerate(self.us):
            one = simulate(paper_ref, u, self.ts[-1], self.plan)
            assert grid.mean[i, -1] == one.mean and grid.stderr[i, -1] == one.stderr

    @pytest.mark.parametrize("simulate", [simulate_ruin_mc, simulate_ruin_naive])
    def test_cells_agree_with_independent_runs(self, paper_ref, grids, simulate):
        grid = grids[simulate]
        other = SimPlan(h=0.05, n=1024, N=6, seed=77, threads=1)
        for i, u in enumerate(self.us):
            for j, t in enumerate(self.ts):
                one = simulate(paper_ref, u, t, other)
                band = 4.0 * math.hypot(grid.stderr[i, j], one.stderr)
                assert abs(grid.mean[i, j] - one.mean) <= band, (u, t)

    def test_naive_hits_monotone_exactly(self, grids):
        mean = grids[simulate_ruin_naive].mean
        assert (np.diff(mean, axis=1) >= 0.0).all()  # non-decreasing in t
        assert (np.diff(mean, axis=0) <= 0.0).all()  # non-increasing in u
        assert mean[0, -1] > 0.0

    def test_mc_monotone_in_u(self, grids):
        mean = grids[simulate_ruin_mc].mean
        assert (mean[1:] <= mean[:-1] * (1.0 + 1e-12)).all()


class TestRunBatches:
    def test_single_batch_degenerate(self):
        plan = SimPlan(h=0.1, n=4, N=1, seed=5, threads=1)
        res = run_batches(lambda rng: float(rng.random()), plan)
        assert res.stderr == 0.0 and res.batches == 1

    def test_batches_get_distinct_streams(self):
        plan = SimPlan(h=0.1, n=1, N=6, seed=5, threads=1)
        seen = []
        run_batches(lambda rng: seen.append(float(rng.random())) or 0.0, plan)
        assert len(set(seen)) == len(seen)

    def test_seed_sensitivity(self):
        plan_a = SimPlan(h=0.1, n=4, N=4, seed=100, threads=1)
        plan_b = SimPlan(h=0.1, n=4, N=4, seed=101, threads=1)
        ra = run_batches(lambda rng: float(rng.random()), plan_a)
        rb = run_batches(lambda rng: float(rng.random()), plan_b)
        assert ra.mean != rb.mean

    def test_elapsed_recorded(self):
        plan = SimPlan(h=0.1, n=4, N=2, seed=5, threads=1)
        res = run_batches(lambda rng: 0.25, plan)
        assert res.elapsed_seconds >= 0.0 and res.paths_per_batch == 4


class TestPlanRecords:
    def test_plan_validation(self):
        with pytest.raises(ValueError):
            SimPlan(h=0.0, n=1, N=1, seed=0)
        with pytest.raises(ValueError):
            SimPlan(h=0.1, n=0, N=1, seed=0)
        with pytest.raises(ValueError):
            SimPlan(h=0.1, n=1, N=0, seed=0)
        with pytest.raises(ValueError):
            SimPlan(h=0.1, n=1, N=1, seed=0, threads=0)

    def test_batch_result_validation(self):
        with pytest.raises(ValueError):
            BatchResult(mean=-0.1, stderr=0.0, elapsed_seconds=0.0, batches=1, paths_per_batch=1)
        with pytest.raises(ValueError):
            BatchResult(mean=0.1, stderr=-1.0, elapsed_seconds=0.0, batches=1, paths_per_batch=1)
