"""Simulator tests: determinism, statistical agreement, estimate contracts."""

import math
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

    def test_worker_count_invariance_for_damage_paths(self):
        grid = [0.5, 1.5]
        base = simulate_cumulative(DAMAGE, grid, config(workers=1, n=30_000))
        other = simulate_cumulative(DAMAGE, grid, config(workers=4, n=30_000))
        assert base.means == other.means
        assert all(np.array_equal(x, y)
                   for x, y in zip(base._samples, other._samples))

    def test_worker_count_invariance_for_crossing_times(self):
        base = simulate_fptf_cumulative(DAMAGE, config(workers=1, n=30_000))
        other = simulate_fptf_cumulative(DAMAGE, config(workers=8, n=30_000))
        assert base.mean == other.mean
        assert np.array_equal(base._times, other._times)

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

    def test_ecdf_counts_are_exact(self):
        sim = simulate_cumulative(DAMAGE, [1.0], config(n=10_000))
        samples = sim._samples[0]
        x = float(np.median(samples))
        manual = float((samples <= x).sum()) / len(samples)
        assert sim.ecdf(0, x).mean == manual


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

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            simulate_catastrophic(EXP_PAIR, config(n=100), [1.0, 1.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            simulate_catastrophic(EXP_PAIR, config(n=100), [-1.0, 1.0])
