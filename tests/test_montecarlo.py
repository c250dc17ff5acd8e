"""Simulator tests: determinism, statistical agreement, estimate contracts."""

import math
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest

from twoshock import montecarlo
from twoshock.catastrophic import CatastrophicModel, mean_fptf
from twoshock.cumulative import (
    CumulativeModel,
    GeneralCumulativeModel,
    damage_cdf,
    damage_mean,
    general_damage_cdf,
    general_damage_mean,
    model2_fptf_cdf,
    model2_fptf_curve,
    model2_fptf_mean,
)
from twoshock.distributions import Erlang, Exponential, Weibull
from twoshock.montecarlo import (
    SimulationConfig,
    SimulationEstimate,
    simulate_catastrophic,
    simulate_cumulative,
    simulate_fptf_cumulative,
    simulate_general_cumulative,
)

N = 100_000
EXP_PAIR = CatastrophicModel(Exponential(1.0), Exponential(2.0))
DAMAGE = CumulativeModel(1.0, 1.0, Exponential(1.0), Exponential(1.0), threshold=3.0)
ERLANG_RENEWALS = GeneralCumulativeModel(Erlang(2, 1.0), Erlang(2, 1.0),
                                         Exponential(1.0), Exponential(1.0), threshold=2.0)


def config(seed=42, workers=1, n=N):
    return SimulationConfig(replications=n, master_seed=seed, workers=workers)


class TestDeterminism:
    def test_same_seed_same_results(self):
        a = simulate_catastrophic(EXP_PAIR, config(seed=7), [0.5, 1.0])
        b = simulate_catastrophic(EXP_PAIR, config(seed=7), [0.5, 1.0])
        assert a == b

    def test_different_seed_different_results(self):
        a = simulate_catastrophic(EXP_PAIR, config(seed=7), [0.5])
        b = simulate_catastrophic(EXP_PAIR, config(seed=8), [0.5])
        assert a.fptf_mean.mean != b.fptf_mean.mean

    @pytest.mark.parametrize("workers", [2, 4, 8])
    def test_worker_count_never_changes_output(self, workers):
        base = simulate_catastrophic(EXP_PAIR, config(workers=1), [0.5, 1.0, 2.0])
        other = simulate_catastrophic(EXP_PAIR, config(workers=workers), [0.5, 1.0, 2.0])
        assert base == other

    # Blocks fill columns of one shared array and reduce their own sums;
    # two full blocks and a remainder run on up to three threads.
    @pytest.mark.parametrize("workers", [3, 8])
    def test_worker_count_invariance_for_damage_paths(self, workers, monkeypatch):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 8)
        n, grid = 2 * montecarlo._BLOCK_SIZE + 1000, [0.5, 1.5, 2.5]
        base = simulate_cumulative(DAMAGE, grid, config(workers=1, n=n))
        other = simulate_cumulative(DAMAGE, grid, config(workers=workers, n=n))
        assert base.means == other.means
        assert all(np.array_equal(x, y)
                   for x, y in zip(base._samples, other._samples))

    @pytest.mark.parametrize("workers", [3, 8])
    def test_worker_count_invariance_for_crossing_times(self, workers, monkeypatch):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 8)
        n = 2 * montecarlo._BLOCK_SIZE + 1000
        base = simulate_fptf_cumulative(DAMAGE, config(workers=1, n=n))
        other = simulate_fptf_cumulative(DAMAGE, config(workers=workers, n=n))
        assert base.mean == other.mean
        assert np.array_equal(base._times, other._times)

    def test_worker_count_invariance_for_renewal_damage_paths(self):
        n = 3 * montecarlo._BLOCK_SIZE
        grid = [0.5, 2.0, 5.0]
        base = simulate_general_cumulative(ERLANG_RENEWALS, grid, config(workers=1, n=n))
        other = simulate_general_cumulative(ERLANG_RENEWALS, grid, config(workers=3, n=n))
        assert base.means == other.means
        assert all(np.array_equal(x, y)
                   for x, y in zip(base._samples, other._samples))

    def test_thread_pool_capped_at_blocks_and_cpus(self, monkeypatch):
        requested = []

        class InlineExecutor:
            """Runs each task at submit time; starts no thread."""

            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", InlineExecutor)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 3)
        five_blocks = 5 * montecarlo._BLOCK_SIZE
        base = simulate_catastrophic(EXP_PAIR, config(workers=1, n=five_blocks), [0.5])
        assert requested == []
        wide = simulate_catastrophic(EXP_PAIR, config(workers=50_000, n=five_blocks), [0.5])
        assert requested == [3]
        assert wide == base
        two_blocks = 2 * montecarlo._BLOCK_SIZE
        simulate_catastrophic(EXP_PAIR, config(workers=50_000, n=two_blocks), [0.5])
        assert requested == [3, 2]


class TestCatastrophicSimulation:
    def test_exponential_minimum(self):
        sim = simulate_catastrophic(EXP_PAIR, config(n=1_000_000))
        est = sim.fptf_mean
        assert abs(est.mean - 1.0 / 3.0) <= 3.5 * est.std_error

    def test_erlang_pair_against_closed_form(self):
        model = CatastrophicModel(Erlang(2, 1.0), Erlang(1, 1.0))
        sim = simulate_catastrophic(model, config(n=1_000_000))
        assert abs(sim.fptf_mean.mean - 0.75) <= 3.5 * sim.fptf_mean.std_error

    def test_survival_curve_estimates(self):
        grid = [0.0, 0.3, 1.0]
        sim = simulate_catastrophic(EXP_PAIR, config(), grid)
        assert sim.grid == (0.0, 0.3, 1.0)
        for t, est in zip(grid, sim.survival):
            expected = math.exp(-3.0 * t)
            assert abs(est.mean - expected) <= max(3.5 * est.std_error, 1e-12)
            assert est.n == N

    def test_mixed_weibull_model(self):
        model = CatastrophicModel(Erlang(2, 1.0), Weibull(2.0, 1.0))
        sim = simulate_catastrophic(model, config(n=400_000))
        expected = mean_fptf(model)
        assert abs(sim.fptf_mean.mean - expected) <= 3.5 * sim.fptf_mean.std_error


class TestDamageSimulation:
    def test_degenerate_time_zero_grid_point(self):
        sim = simulate_cumulative(DAMAGE, [0.0, 1.0], config(n=10_000))
        assert sim.means[0].mean == 0.0
        assert sim.ecdf(0, 0.0).mean == 1.0

    def test_mean_against_closed_form(self):
        model = CumulativeModel(1.0, 2.0, Erlang(3, 2.0), Erlang(1, 1.0), threshold=5.0)
        sim = simulate_cumulative(model, [2.0], config(n=400_000))
        est = sim.means[0]
        assert abs(est.mean - damage_mean(model, 2.0)) <= 3.5 * est.std_error

    def test_ecdf_against_series(self):
        sim = simulate_cumulative(DAMAGE, [1.0], config(n=400_000))
        est = sim.ecdf(0, 2.0)
        expected = damage_cdf(DAMAGE, 1.0, 2.0)
        assert abs(est.mean - expected) <= 3.5 * est.std_error

    def test_poisson_paths_over_several_blocks(self):
        # Two full blocks and a remainder, each splitting its own Poisson totals.
        n = 2 * montecarlo._BLOCK_SIZE + 1000
        grid = [0.5, 1.0, 2.0]
        sim = simulate_cumulative(DAMAGE, grid, config(n=n))
        for i, t in enumerate(grid):
            est = sim.means[i]
            assert est.n == n
            assert abs(est.mean - damage_mean(DAMAGE, t)) <= 3.5 * est.std_error
            for x in (0.5, 2.0):
                est = sim.ecdf(i, x)
                assert abs(est.mean - damage_cdf(DAMAGE, t, x)) <= 3.5 * est.std_error

    @pytest.mark.parametrize("inter", [Exponential(1.0), Weibull(1.0, 1.0)])
    def test_path_shape(self, inter):
        grid = np.array([0.0, 0.5, 1.0, 3.0])
        streams = (("inter1", inter, Exponential(1.0)), ("inter2", inter, Erlang(2, 1.0)))
        paths = montecarlo._damage_paths(streams, grid, np.random.default_rng(5), 1000)
        assert paths.shape == (4, 1000)
        assert not paths[0].any()
        assert np.all(np.diff(paths, axis=0) >= 0.0)
        assert paths[-1].any()

    def test_ecdf_counts_are_exact(self):
        # Damage rows are counted unsorted; crossing times are sorted once and
        # searched.  At t = 0.5 over a third of the damage draws tie at 0.
        damage = simulate_cumulative(DAMAGE, [0.5, 1.0], config(n=10_000))
        crossing = simulate_fptf_cumulative(DAMAGE, config(n=10_000))
        assert np.all(np.diff(crossing._times) >= 0.0)
        cases = [(lambda x, i=i: damage.ecdf(i, x), damage._samples[i]) for i in range(2)]
        cases.append((crossing.ecdf, crossing._times))
        for ecdf, draws in cases:
            ordered, distinct = np.sort(draws), np.unique(draws)
            k = distinct.size // 2
            for x in (float(np.median(draws)), ordered[draws.size // 3],
                      0.5 * (distinct[k] + distinct[k + 1]), 0.0, math.inf, -math.inf):
                expected = np.searchsorted(ordered, x, side="right") / draws.size
                assert ecdf(x).mean == expected


class TestCrossingSimulation:
    def test_no_crossing_at_time_zero(self):
        sim = simulate_fptf_cumulative(DAMAGE, config(n=10_000))
        assert sim.ecdf(0.0).mean == 0.0

    def test_ecdf_against_series(self):
        sim = simulate_fptf_cumulative(DAMAGE, config(n=400_000))
        for t in (1.0, 2.0, 4.0):
            est = sim.ecdf(t)
            expected = model2_fptf_cdf(DAMAGE, t)
            assert abs(est.mean - expected) <= 3.5 * est.std_error

    def test_mean_against_quadrature(self):
        sim = simulate_fptf_cumulative(DAMAGE, config(n=400_000))
        expected = model2_fptf_mean(DAMAGE)
        assert abs(sim.mean.mean - expected) <= 3.5 * sim.mean.std_error

    def test_erlang_marks(self):
        model = CumulativeModel(1.0, 2.0, Erlang(3, 2.0), Erlang(1, 1.0), threshold=5.0)
        sim = simulate_fptf_cumulative(model, config(n=200_000))
        expected = model2_fptf_mean(model)
        assert abs(sim.mean.mean - expected) <= 3.5 * sim.mean.std_error

    def test_unequal_rates_and_mark_families(self):
        model = CumulativeModel(0.2, 3.0, Erlang(4, 0.5), Exponential(4.0), threshold=6.0)
        sim = simulate_fptf_cumulative(model, config(n=400_000))
        expected = model2_fptf_mean(model)
        assert abs(sim.mean.mean - expected) <= 3.5 * sim.mean.std_error
        for t in (0.5 * expected, expected, 2.0 * expected):
            est = sim.ecdf(t)
            assert abs(est.mean - model2_fptf_cdf(model, t)) <= 3.5 * est.std_error

    def test_many_chunks_ecdf_against_curve(self):
        # At K = 60 about half the replications run past the first chunk of shocks.
        model = CumulativeModel(1.0, 1.0, Exponential(1.0), Exponential(1.0), threshold=60.0)
        sim = simulate_fptf_cumulative(model, config(n=100_000))
        times = (25.0, 30.5, 36.0)
        cdf, _, _ = model2_fptf_curve(model, times)
        for t, expected in zip(times, cdf):
            est = sim.ecdf(t)
            assert abs(est.mean - expected) <= 3.5 * est.std_error

    def test_many_chunks_against_exact_mean(self):
        # Equal Exp(1) marks: N - 1 is Poisson(K), so E(T) = (1 + K) / lambda.
        # Rows carry over several chunks of marks at this threshold.
        model = CumulativeModel(1.0, 1.0, Exponential(1.0), Exponential(1.0), threshold=60.0)
        sim = simulate_fptf_cumulative(model, config(n=100_000))
        assert abs(sim.mean.mean - 61.0 / 2.0) <= 3.5 * sim.mean.std_error


class TestGeneralSimulation:
    def test_exponential_interarrivals_match_poisson_engine(self):
        g = GeneralCumulativeModel(Exponential(1.0), Exponential(1.0),
                                   Exponential(1.0), Exponential(1.0), threshold=3.0)
        a = simulate_cumulative(DAMAGE, [1.0, 2.0], config(n=50_000))
        b = simulate_general_cumulative(g, [1.0, 2.0], config(n=50_000))
        assert a.means == tuple(
            SimulationEstimate(e.mean, e.std_error, e.n,
                               e.quantity_tag.replace("general_damage", "damage"))
            for e in b.means)

    def test_erlang_interarrivals_against_series(self):
        g = GeneralCumulativeModel(Erlang(2, 1.0), Erlang(2, 1.0),
                                   Exponential(1.0), Exponential(1.0), threshold=2.0)
        sim = simulate_general_cumulative(g, [2.0], config(n=400_000))
        est = sim.ecdf(0, 1.0)
        expected = general_damage_cdf(g, 2.0, 1.0)
        assert abs(est.mean - expected) <= 3.5 * est.std_error
        mean_est = sim.means[0]
        expected_mean = general_damage_mean(g, 2.0)
        assert abs(mean_est.mean - expected_mean) <= 3.5 * mean_est.std_error

    def test_renewal_path_against_poisson_series(self):
        # Weibull(1, 1) is Exp(1) in law but takes the renewal branch.
        g = GeneralCumulativeModel(Weibull(1.0, 1.0), Weibull(1.0, 1.0),
                                   Exponential(1.0), Exponential(1.0), threshold=3.0)
        grid = [0.5, 1.0, 2.0]
        sim = simulate_general_cumulative(g, grid, config(n=200_000))
        for i, t in enumerate(grid):
            est = sim.means[i]
            assert abs(est.mean - damage_mean(DAMAGE, t)) <= 3.5 * est.std_error
            est = sim.ecdf(i, 1.0)
            assert abs(est.mean - damage_cdf(DAMAGE, t, 1.0)) <= 3.5 * est.std_error

    def test_renewal_counts_past_the_first_chunk(self):
        # Weibull(0.3, 1) counts spread widely: about a fifth of the
        # replications reach a fifth arrival by t = 4 and draw a second chunk.
        inter, n = Weibull(0.3, 1.0), 50_000
        grid = np.array([1.0, 4.0])
        rng = np.random.default_rng(11)
        slots = montecarlo._arrival_slots("inter1", inter, grid, rng, n)
        counts = np.bincount(slots, minlength=2 * n).reshape(2, n).cumsum(axis=0)
        times = inter.sample_n(rng, 100 * n).reshape(100, n).cumsum(axis=0)
        assert times[-1].min() > grid[-1]
        for i, t in enumerate(grid):
            reference = np.count_nonzero(times <= t, axis=0)
            for a, b in ((counts[i], reference), (counts[i] >= 5, reference >= 5)):
                se = math.sqrt((a.var() + b.var()) / n)
                assert abs(a.mean() - b.mean()) <= 3.5 * se

    def test_weibull_interarrivals_simulate_fine(self):
        g = GeneralCumulativeModel(Weibull(2.0, 1.0), Weibull(2.0, 1.0),
                                   Exponential(1.0), Exponential(1.0), threshold=2.0)
        sim = simulate_general_cumulative(g, [1.0], config(n=50_000))
        assert sim.means[0].mean > 0.0


class TestCalibration:
    def test_confidence_interval_coverage(self):
        # Nominal 95% interval should cover the true value in >= 40 of 50 runs.
        hits = 0
        for seed in range(50):
            sim = simulate_catastrophic(EXP_PAIR, config(seed=seed, n=20_000))
            est = sim.fptf_mean
            if abs(est.mean - 1.0 / 3.0) <= 1.96 * est.std_error:
                hits += 1
        assert hits >= 40


class TestEstimateContract:
    def test_standard_error_definition(self):
        sim = simulate_catastrophic(EXP_PAIR, config(n=5000))
        est = sim.fptf_mean
        assert est.n == 5000
        assert est.std_error > 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(replications=1, master_seed=0)
        with pytest.raises(ValueError):
            SimulationConfig(replications=100, master_seed=-1)
        with pytest.raises(ValueError):
            SimulationConfig(replications=100, master_seed=0, workers=0)

    def test_quantity_tags_print_plain_floats(self):
        cat = simulate_catastrophic(EXP_PAIR, config(n=100), [0.5, 1.0])
        assert cat.survival[1].quantity_tag == "survival@t=1.0"
        damage = simulate_cumulative(DAMAGE, [0.5], config(n=100))
        assert damage.means[0].quantity_tag == "damage_mean@t=0.5"
        assert damage.ecdf(0, np.float64(2.0)).quantity_tag == "damage_ecdf@t=0.5,x=2.0"

    @pytest.mark.parametrize("simulate, bound", [
        (lambda cfg: simulate_cumulative(DAMAGE, [0.5, 1.5, 2.5], cfg), 9 * 2**20),
        (lambda cfg: simulate_fptf_cumulative(DAMAGE, cfg), 4.5 * 2**20),
    ], ids=["damage", "crossing"])
    def test_draws_are_held_once(self, simulate, bound):
        # 2^18 draws per row take 2 MiB; blocks fill one array, with no
        # concatenated or sorted copy beside it.
        cfg = config(n=1 << 18)
        tracemalloc.start()
        try:
            simulate(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_ecdf_of_nan_raises(self):
        # No draw compares <= nan, yet searchsorted would put nan past every
        # draw: neither count is an ECDF value.
        damage = simulate_cumulative(DAMAGE, [0.5], config(n=100))
        with pytest.raises(ValueError, match="x must be a number, got nan"):
            damage.ecdf(0, math.nan)
        crossing = simulate_fptf_cumulative(DAMAGE, config(n=100))
        with pytest.raises(ValueError, match="t must be a number, got nan"):
            crossing.ecdf(math.nan)

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            simulate_catastrophic(EXP_PAIR, config(n=100), [1.0, 1.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            simulate_catastrophic(EXP_PAIR, config(n=100), [-1.0, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_grid_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            simulate_catastrophic(EXP_PAIR, config(n=100), [0.5, bad])
        with pytest.raises(ValueError, match="finite"):
            simulate_cumulative(DAMAGE, [0.5, bad], config(n=100))
        with pytest.raises(ValueError, match="finite"):
            simulate_general_cumulative(ERLANG_RENEWALS, [0.5, bad], config(n=100))
