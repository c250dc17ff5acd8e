"""Layer microcases: fixed inputs, one public entry point of one layer each.

Every case runs in a fresh session after the traced workload, so "cold"
means cold for the process.  Times are medians over a few repeats; the
counts (``numerics.evals``, ``cumulative.calls_per_level`` in the traced
workload) are exact and repeat from run to run.
"""

from __future__ import annotations

import math
import statistics
import time
import tracemalloc

import numpy as np

BLOCK = 1 << 14


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _each_time(calls) -> float:
    """Median duration of a list of distinct zero-argument calls."""
    times = []
    for call in calls:
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run(ts) -> dict:
    d, cat, cum = ts.distributions, ts.catastrophic, ts.cumulative
    gc, mc, num = ts.gamma_convolution, ts.montecarlo, ts.numerics
    out = {}

    # distributions
    shapes = range(1, 201)
    out["distributions.erlang_survival_us"] = 1e6 * _median_time(
        lambda: [d.erlang_survival(m, float(m)) for m in shapes], 9) / len(shapes)
    rng = np.random.default_rng(12345)
    exponential = d.Exponential(1.0)
    out["distributions.sample_ns"] = 1e9 * _median_time(
        lambda: exponential.sample_n(rng, BLOCK), 31) / BLOCK

    # gamma_convolution: every call at a new x, so no cached value is reused
    small = gc.ErlangProduct(3, 1.0, 4, 2.0)
    out["gamma_convolution.cdf_float_us"] = 1e6 * _each_time(
        [lambda x=x: gc.convolution_cdf(small, x) for x in (1.5 + 0.001 * i for i in range(400))])
    wide = gc.ErlangProduct(200, 1.0, 200, 1.3)
    out["gamma_convolution.cdf_wide_ms"] = 1e3 * _each_time(
        [lambda x=x: gc.convolution_cdf(wide, x) for x in (325.0, 330.0, 335.0)])

    # cumulative: the README's model
    readme = cum.CumulativeModel(1.0, 2.0, d.Erlang(3, 2.0), d.Exponential(1.0), threshold=5.0)
    levels = (2.5, 3.0, 3.5)
    out["cumulative.damage_cdf_cold_ms"] = 1e3 * _each_time(
        [lambda x=x: cum.damage_cdf(readme, 1.0, x) for x in levels])
    out["cumulative.damage_cdf_warm_us"] = 1e6 * _each_time(
        [lambda t=t, x=x: cum.damage_cdf(readme, t, x)
         for x in levels for t in (0.3 + 0.01 * i for i in range(60))])
    renewal = cum.GeneralCumulativeModel(d.Erlang(2, 1.0), d.Erlang(2, 1.0),
                                         d.Exponential(1.0), d.Exponential(1.0), threshold=2.0)
    out["cumulative.general_damage_cdf_ms"] = 1e3 * _each_time(
        [lambda x=x: cum.general_damage_cdf(renewal, 2.0, x) for x in (1.0, 2.0, 3.0)])
    start = time.perf_counter()
    cum.model2_fptf_mean(readme)  # threshold 5.0 is a level no case above used
    out["cumulative.model2_fptf_mean_s"] = time.perf_counter() - start

    # numerics: the benchmark's own survival-product integrand, evaluations counted
    evals = [0]

    def integrand(t):
        evals[0] += 1
        return math.exp(-t) * (1.0 + t + 0.5 * t * t) * math.exp(-0.5 * t ** 1.5)

    def integrate():
        evals[0] = 0
        num.integrate_decaying(integrand, initial_scale=2.0)

    out["numerics.integrate_ms"] = 1e3 * _median_time(integrate, 5)
    out["numerics.evals"] = evals[0]

    # catastrophic
    survival_model = cat.CatastrophicModel(d.Erlang(50, 10.0), d.Weibull(1.5, 4.0))
    ts_grid = [0.05 * i for i in range(1, 201)]
    out["catastrophic.survival_us"] = 1e6 * _median_time(
        lambda: [cat.survival_probability(survival_model, t) for t in ts_grid], 9) / len(ts_grid)
    closed = cat.CatastrophicModel(d.Erlang(4, 1.0), d.Exponential(2.0))
    out["catastrophic.mean_closed_us"] = 1e6 * _median_time(
        lambda: [cat.mean_fptf(closed) for _ in range(100)], 9) / 100
    equal = cat.CatastrophicModel(d.Erlang(3, 1.0), d.Erlang(3, 2.0))
    out["catastrophic.mean_crosscheck_ms"] = 1e3 * _median_time(lambda: cat.mean_fptf(equal), 5)
    unequal = cat.CatastrophicModel(d.Erlang(3, 1.0), d.Erlang(5, 0.7))
    out["catastrophic.mean_quadrature_ms"] = 1e3 * _median_time(
        lambda: cat.mean_fptf(unequal), 5)

    # montecarlo: one block of BLOCK replications each, one worker
    equal_exp = cum.CumulativeModel(1.0, 1.0, d.Exponential(1.0), d.Exponential(1.0),
                                    threshold=3.0)
    one_block = mc.SimulationConfig(replications=BLOCK, master_seed=2024, workers=1)
    out["montecarlo.crossing_block_ms"] = 1e3 * _median_time(
        lambda: mc.simulate_fptf_cumulative(equal_exp, one_block), 5)
    out["montecarlo.damage_block_ms"] = 1e3 * _median_time(
        lambda: mc.simulate_cumulative(equal_exp, [0.5, 1.0, 2.0], one_block), 5)
    out["montecarlo.catastrophic_block_ms"] = 1e3 * _median_time(
        lambda: mc.simulate_catastrophic(closed, one_block, [0.5, 1.0]), 9)
    blocks = 8 * BLOCK
    single = _median_time(lambda: mc.simulate_fptf_cumulative(
        equal_exp, mc.SimulationConfig(replications=blocks, master_seed=2024, workers=1)), 3)
    double = _median_time(lambda: mc.simulate_fptf_cumulative(
        equal_exp, mc.SimulationConfig(replications=blocks, master_seed=2024, workers=2)), 3)
    out["montecarlo.scaling_2w"] = single / double
    tracemalloc.start()
    try:
        mc.simulate_cumulative(equal_exp, [0.5, 1.0, 2.0], one_block)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out["montecarlo.damage_block_alloc_mb"] = peak / 2 ** 20
    return out
