"""Poisson and negative-binomial kernels against their scipy counterparts.

The library computes these sums with numpy alone; scipy, installed with the
test extra, serves only as the reference here.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import special, stats

from _oracles import poisson_tail_decimal, poisson_tails_decimal
from twoshock import distributions
from twoshock.catastrophic import (
    CatastrophicModel,
    mean_fptf,
    survival_curve,
    survival_probability,
)
from twoshock.cumulative import GeneralCumulativeModel, _renewal_counts, general_damage_mean
from twoshock.distributions import (
    _ARRAY_SHAPE,
    Erlang,
    Exponential,
    _poisson_reach,
    _poisson_tail,
    erlang_cdf,
    erlang_survival,
)
from twoshock.gamma_convolution import _phase_pmf


@pytest.mark.parametrize("z", [1e-3, 0.5, 4.0, 100.0, 699.0, 701.0, 800.0, 9400.0])
def test_poisson_tail_matches_gammainc(z):
    n = int(z + 12.0 * math.sqrt(z)) + 60  # reaches tails far below 1e-300
    got = _poisson_tail(z, n)
    ref = special.gammainc(np.arange(n, dtype=float), z)
    ref[0] = 1.0  # P(N >= 0); gammainc(0, z) is 1 only for z > 0
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14)
    normal = ref > 1e-300  # the damage series stops on tails this small
    np.testing.assert_allclose(got[normal], ref[normal], rtol=1e-11)


def test_poisson_tail_keeps_shrinking_below_the_normal_range():
    # Unscaled, the terms past the mode stop shrinking at the smallest
    # subnormal, and the tail at 37,327 read 1.82e-320 for a value that rounds to 0.
    z, lo, hi = 30_000.0, 35_196, 37_328
    got = _poisson_tail(z, 37_400)[lo:hi]
    ref = np.array(poisson_tails_decimal(lo, hi, z))
    assert ref[-1] == 0.0 and np.count_nonzero(ref < 2.2250738585072014e-308) > 500
    for k, (value, exact) in enumerate(zip(got.tolist(), ref.tolist()), start=lo):
        assert value == pytest.approx(exact, rel=1e-12, abs=5e-324), k


@pytest.mark.parametrize("x", [700.5, 701.0, 800.0, 2000.0, 9400.0])
def test_erlang_survival_past_series_limit_matches_gammaincc(x):
    for shape in sorted({1, 2, 10, int(0.9 * x), int(x) - 5, int(x), int(x) + 1,
                         int(1.1 * x), int(1.3 * x), 10 ** 9}):
        got = erlang_survival(shape, x)
        ref = special.gammaincc(shape, x)
        if ref > 0.0:
            assert got == pytest.approx(ref, rel=1e-12, abs=0.0), shape
        else:  # scipy underflows to 0 below the normal range
            assert 0.0 <= got < 1e-300, shape


def _plain_series(shape: int, x: float) -> float:
    """exp(-x) sum_{l < shape} x^l / l!, every term in a Python loop, clamped at 1."""
    term = acc = 1.0
    for l in range(1, shape):
        term *= x / l
        acc += term
    return min(1.0, math.exp(-x) * acc)


# 5e-324 up to just below _SERIES_LIMIT, with x near the shapes below.
SERIES_XS = sorted({5e-324, 1e-300, 1e-20, 1e-3, 0.2340773591197066, 0.5, 1.0, 3.95,
                    *np.geomspace(1e-8, 699.0, 60).tolist(), 46.5, 47.0, 48.3, 59.9, 149.0,
                    199.0, 200.5, 650.0, math.nextafter(700.0, 0.0)})


def _exits(shape: int, x: float) -> bool:
    """Whether erlang_survival(shape, x) is 1 with no sum: the reach ends before the shape."""
    return shape >= _ARRAY_SHAPE and x < shape and shape >= _poisson_reach(x, 1)


@pytest.mark.parametrize("shape", sorted({47, 48, 49, _ARRAY_SHAPE - 1, _ARRAY_SHAPE,
                                          _ARRAY_SHAPE + 1, 200, 1000}))
def test_erlang_survival_is_the_plain_series_bit_for_bit(shape):
    # Below the reach the sum runs as numpy accumulates from shape
    # _ARRAY_SHAPE on, which may not change a bit of the full loop.  Past it
    # the value is exactly 1, the correctly rounded one: the tail is below
    # 2^-54 (where the full loop can round below 1).
    exits = [_exits(shape, x) for x in SERIES_XS]
    for x, exit in zip(SERIES_XS, exits):
        if exit:
            assert erlang_survival(shape, x) == 1.0, x
            assert poisson_tail_decimal(shape, x) < 2.0 ** -54, x
        else:
            assert erlang_survival(shape, x) == _plain_series(shape, x), x
    assert any(exits) == (shape >= _ARRAY_SHAPE) and not all(exits)


def test_erlang_survival_past_the_reach_sums_nothing(monkeypatch):
    def no_sum(*args):
        raise AssertionError("a series was summed past the reach")

    monkeypatch.setattr(distributions, "_recur_outward", no_sum)
    assert erlang_survival(200, 5.0) == 1.0
    assert erlang_survival(10 ** 9, 1e3) == 1.0  # past _SERIES_LIMIT
    grid = np.linspace(0.0, 100.0, 401)
    assert Erlang(10 ** 9, 1.0).survival_curve(grid).tolist() == [1.0] * grid.size


@pytest.mark.parametrize("shape", [_ARRAY_SHAPE, 200, 10 ** 6])
def test_survival_curve_straddling_the_exit_is_survival_probability(shape):
    grid = np.concatenate([np.linspace(0.0, 1000.0, 2001), np.linspace(0.985e6, 0.995e6, 201)])
    exits = [_exits(shape, x) for x in grid.tolist()]
    assert any(exits) and not all(exits)
    assert any(exits[:1401]) and any(x > 700.0 for x in grid)  # x = 700 is grid[1400]
    if shape == 10 ** 6:
        assert all(exits[:2001])  # exits past 700 too, through the scalar route
    model = CatastrophicModel(Erlang(shape, 1.0), Exponential(1e-7))
    got = survival_curve(model, grid)
    assert got.tolist() == [survival_probability(model, t) for t in grid.tolist()]
    assert (Erlang(shape, 1.0).survival_curve(grid)[exits] == 1.0).all()


def test_erlang_cdf_and_survival_sum_to_one_at_the_exit():
    points = [(shape, x) for shape in (_ARRAY_SHAPE, 200, 1000, 10 ** 6, 10 ** 9)
              for x in [*SERIES_XS, 1e3, 5e4] if _exits(shape, x)]
    assert len(points) > 200 and any(x > 700.0 for _, x in points)
    for shape, x in points:
        assert abs(erlang_cdf(shape, x) + erlang_survival(shape, x) - 1.0) <= 2.0 ** -52


@pytest.mark.parametrize("shape, x, call", [
    (10 ** 18, 650.0, lambda: erlang_survival(10 ** 18, 650.0)),
    (10 ** 9, 5.0, lambda: Erlang(10 ** 9, 1.0).survival(5.0)),
], ids=["shape-1e18", "shape-1e9"])
def test_huge_erlang_shapes_cost_no_more_than_their_reach(shape, x, call):
    start = time.perf_counter()
    got = call()
    assert time.perf_counter() - start < 0.1
    assert got == pytest.approx(special.gammaincc(shape, x), rel=1e-12, abs=0.0)


def test_huge_erlang_shape_curve_matches_gammaincc():
    grid = np.linspace(0.0, 100.0, 4001)
    model = CatastrophicModel(Erlang(10 ** 9, 1.0), Exponential(1.0))
    start = time.perf_counter()
    got = survival_curve(model, grid)
    assert time.perf_counter() - start < 0.1
    ref = special.gammaincc(1e9, grid) * np.exp(-grid)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("shape", [2, 120, 200])
@pytest.mark.parametrize("rate", [0.01, 0.3, 0.77, 0.999])
def test_phase_pmf_matches_log_gamma_formula(shape, rate):
    length = shape + 3000
    got = _phase_pmf(shape, rate, 1.0, length)
    k = np.arange(length - shape, dtype=float)
    ref = np.zeros(length)
    ref[shape:] = np.exp(special.gammaln(shape + k) - special.gammaln(k + 1.0)
                         - special.gammaln(shape) + shape * math.log(rate)
                         + k * math.log(1.0 - rate))
    assert not got[:shape].any()
    # The reference itself loses about eps * gammaln(shape + k), ~1e-11 here.
    kept = ref > 1e-280
    np.testing.assert_allclose(got[kept], ref[kept], rtol=5e-11)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13)


@pytest.mark.parametrize("a,ra,b,rb", [
    (2, 1.0, 1, 1.0), (3, 1.0, 3, 2.0), (4, 1.0, 1, 2.0), (50, 10.0, 3, 1.0),
    (200, 1.0, 7, 1e-3), (5000, 1.0, 5000, 1.1), (10_000, 1.0, 10_000, 1.0),
    (10_000, 1.0, 3, 1e-3),
])
def test_erlang_pair_mean_matches_nbdtr(a, ra, b, rb):
    # E[min] = (1/rate1) sum_{i <= m1} P(NegBin(i, p) <= m2 - 1), p = rate1 / L
    p = ra / (ra + rb)
    ref = float(special.nbdtr(b - 1, np.arange(1, a + 1), p).sum()) / ra
    model = CatastrophicModel(Erlang(a, ra), Erlang(b, rb))
    assert mean_fptf(model) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("shape", [1, 2, 3])
@pytest.mark.parametrize("mean", [0.0, 1e-3, 0.7, 5.0, 100.0, 745.3, 2000.0])
def test_renewal_counts_match_scipy_stats(mean, shape):
    # Erlang(shape) renewals: N = floor(P / shape), P ~ Poisson(mean), so the
    # k-fold convolution CDF is P(N >= k) = P(P >= k shape).
    tail_half = 1e-11
    weights = _renewal_counts(shape, mean, tail_half, 10_000)
    cut = len(weights) - 1
    ref = stats.poisson.pmf(np.arange(len(weights) * shape), mean)
    ref = ref.reshape(-1, shape).sum(axis=1)
    np.testing.assert_allclose(weights, ref, rtol=1e-11, atol=1e-300)
    assert stats.poisson.sf((cut + 1) * shape - 1, mean) < tail_half
    if cut:
        assert stats.poisson.sf(cut * shape - 1, mean) >= tail_half


@pytest.mark.parametrize("t", [0.6, 4.0])
def test_erlang_renewal_damage_mean_matches_gammainc(t):
    # E[N(t)] = sum_{k >= 1} P(Erlang(2k, 1) <= t) per stream; unit mark means.
    model = GeneralCumulativeModel(Erlang(2, 1.0), Erlang(2, 1.0),
                                   Exponential(1.0), Exponential(1.0), threshold=1.0)
    ref = 2.0 * math.fsum(special.gammainc(2.0 * np.arange(1, 200), t))
    assert general_damage_mean(model, t) == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_runs_without_scipy():
    code = """
import math, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import twoshock, twoshock.cli
from twoshock import (
    CatastrophicModel, CumulativeModel, Erlang, Exponential,
    SimulationConfig, damage_cdf, mean_fptf, model2_fptf_mean,
    simulate_catastrophic, survival_probability,
)
unit = CatastrophicModel(Erlang(2, 1.0), Exponential(1.0))
assert abs(survival_probability(unit, 1.0) - 2.0 * math.exp(-2.0)) <= 1e-15
assert abs(mean_fptf(unit) - 0.75) <= 1e-15
dam = CumulativeModel(1.0, 2.0, Erlang(3, 2.0), Erlang(1, 1.0), threshold=5.0)
assert 0.0 < damage_cdf(dam, t=2.0, x=5.0) < 1.0
assert model2_fptf_mean(dam) > 0.0
cfg = SimulationConfig(replications=1_000_000, master_seed=42, workers=4)
sim = simulate_catastrophic(unit, cfg, t_grid=[0.5, 1.0, 2.0])
assert abs(sim.fptf_mean.mean - 0.75) <= 6.0 * sim.fptf_mean.std_error
print("ok")
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
