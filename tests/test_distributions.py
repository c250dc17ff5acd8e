"""Distribution kernel tests: frozen values, quadrature oracles, sampling laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from twoshock.distributions import (
    Erlang,
    Exponential,
    Weibull,
    distribution_from_dict,
    distribution_to_dict,
)
from twoshock.errors import UnsupportedConvolutionError

RATES = st.floats(min_value=0.05, max_value=20.0, allow_nan=False)
TIMES = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


def rng_for(seed):
    return np.random.default_rng(seed)


class TestCdf:
    def test_exponential_at_origin(self):
        assert Exponential(1.0).cdf(0.0) == 0.0

    def test_erlang_frozen_value(self):
        # 1 - 2/e, cross-checked below against quadrature of the density
        assert Erlang(2, 1.0).cdf(1.0) == pytest.approx(0.26424111765711533, abs=1e-15)

    def test_erlang_cdf_matches_density_quadrature(self):
        dist = Erlang(2, 1.0)
        value, _ = integrate.quad(dist.pdf, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
        assert dist.cdf(1.0) == pytest.approx(value, abs=1e-12)

    def test_weibull_shape_one_reduces_to_exponential(self):
        assert Weibull(1.0, 2.0).cdf(2.0) == pytest.approx(0.6321205588285577, abs=1e-15)
        assert Weibull(1.0, 2.0).cdf(2.0) == Exponential(0.5).cdf(2.0)

    def test_negative_time_rejected(self):
        for dist in (Exponential(1.0), Erlang(2, 1.0), Weibull(2.0, 1.0)):
            with pytest.raises(ValueError, match="nonnegative"):
                dist.cdf(-0.5)
            with pytest.raises(ValueError, match="nonnegative"):
                dist.pdf(-0.5)

    def test_large_argument_switches_to_incomplete_gamma(self):
        dist = Erlang(3, 1.0)
        assert dist.survival(800.0) == pytest.approx(
            float(special.gammaincc(3, 800.0)), rel=1e-12)
        assert 0.0 <= dist.cdf(800.0) <= 1.0

    @given(rate=RATES, t1=TIMES, t2=TIMES)
    @settings(max_examples=200, derandomize=True)
    def test_monotone_and_bounded(self, rate, t1, t2):
        dist = Erlang(3, rate)
        lo, hi = sorted((t1, t2))
        c_lo, c_hi = dist.cdf(lo), dist.cdf(hi)
        assert 0.0 <= c_lo <= c_hi <= 1.0

    @given(shape=st.floats(min_value=0.3, max_value=5.0), scale=RATES, t1=TIMES, t2=TIMES)
    @settings(max_examples=200, derandomize=True)
    def test_weibull_monotone_and_bounded(self, shape, scale, t1, t2):
        dist = Weibull(shape, scale)
        lo, hi = sorted((t1, t2))
        assert 0.0 <= dist.cdf(lo) <= dist.cdf(hi) <= 1.0


class TestSurvival:
    def test_at_origin(self):
        for dist in (Exponential(3.0), Erlang(4, 2.0), Weibull(0.7, 1.5)):
            assert dist.survival(0.0) == 1.0

    def test_exponential_value(self):
        assert Exponential(3.0).survival(1.0) == pytest.approx(math.exp(-3.0), abs=1e-16)

    def test_erlang_complement(self):
        assert Erlang(2, 1.0).survival(1.0) == pytest.approx(2.0 * math.exp(-1.0), abs=1e-15)

    @given(rate=RATES, t=TIMES)
    @settings(max_examples=100, derandomize=True)
    def test_complement_identity(self, rate, t):
        dist = Erlang(2, rate)
        assert dist.cdf(t) + dist.survival(t) == pytest.approx(1.0, abs=1e-12)


class TestPdf:
    def test_exponential_at_origin(self):
        assert Exponential(2.0).pdf(0.0) == 2.0

    def test_erlang_value(self):
        assert Erlang(2, 1.0).pdf(1.0) == pytest.approx(math.exp(-1.0), abs=1e-16)

    def test_weibull_value(self):
        assert Weibull(2.0, 1.0).pdf(1.0) == pytest.approx(2.0 * math.exp(-1.0), abs=1e-15)

    def test_weibull_origin_cases(self):
        assert Weibull(2.0, 1.0).pdf(0.0) == 0.0
        assert Weibull(1.0, 2.0).pdf(0.0) == 0.5
        assert Weibull(0.5, 1.0).pdf(0.0) == math.inf

    @pytest.mark.parametrize("dist", [Exponential(2.0), Erlang(3, 1.5), Weibull(2.0, 1.0)])
    def test_integrates_to_one(self, dist):
        upper = dist.mean() * 40.0
        total, _ = integrate.quad(dist.pdf, 0.0, upper, epsabs=1e-12, epsrel=1e-12, limit=200)
        assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("dist", [Exponential(1.0), Erlang(2, 2.0), Weibull(1.5, 2.0)])
    def test_cdf_matches_integrated_density_on_grid(self, dist):
        for t in np.linspace(0.1, 4.0, 8):
            value, _ = integrate.quad(dist.pdf, 0.0, t, epsabs=1e-13, epsrel=1e-13)
            assert abs(dist.cdf(t) - value) <= 1e-10


class TestMean:
    def test_exponential(self):
        assert Exponential(4.0).mean() == 0.25

    def test_erlang(self):
        assert Erlang(3, 2.0).mean() == 1.5

    def test_weibull_gamma_function(self):
        dist = Weibull(2.0, 1.0)
        assert dist.mean() == pytest.approx(0.8862269254527580, abs=1e-14)
        value, _ = integrate.quad(lambda t: t * dist.pdf(t), 0.0, 40.0,
                                  epsabs=1e-13, epsrel=1e-13)
        assert dist.mean() == pytest.approx(value, rel=1e-11)


class TestKFoldConvolution:
    def test_zero_fold_is_unit_step(self):
        for dist in (Exponential(1.0), Erlang(2, 1.0), Weibull(2.0, 1.0)):
            assert dist.kfold_cdf(0, 5.0) == 1.0
            assert dist.kfold_cdf(0, 0.0) == 1.0

    def test_exponential_reproduces_erlang(self):
        assert Exponential(1.0).kfold_cdf(2, 1.0) == pytest.approx(
            0.26424111765711533, abs=1e-15)
        for t in (0.3, 1.0, 4.0):
            assert Exponential(1.0).kfold_cdf(2, t) == Erlang(2, 1.0).cdf(t)

    def test_erlang_fold_multiplies_shape(self):
        # Erlang(2,1) convolved twice = Erlang(4,1): 1 - e^-1 * (8/3) at t=1
        assert Erlang(2, 1.0).kfold_cdf(2, 1.0) == pytest.approx(
            0.018988156876153813, abs=1e-15)
        for t in (0.5, 1.0, 2.0):
            assert Erlang(2, 1.0).kfold_cdf(2, t) == Erlang(4, 1.0).cdf(t)

    def test_weibull_two_fold_unsupported(self):
        with pytest.raises(UnsupportedConvolutionError):
            Weibull(2.0, 1.0).kfold_cdf(2, 1.0)
        assert Weibull(2.0, 1.0).kfold_cdf(1, 1.0) == Weibull(2.0, 1.0).cdf(1.0)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="nonnegative integer"):
            Exponential(1.0).kfold_cdf(-1, 1.0)


class TestErlangExponentialIdentity:
    """Erlang(1, rate) must match Exponential(rate) to machine precision."""

    def test_evaluations_identical(self):
        e1, ex = Erlang(1, 1.7), Exponential(1.7)
        for t in (0.0, 0.2, 1.0, 3.5, 10.0):
            assert e1.cdf(t) == ex.cdf(t)
            assert e1.survival(t) == ex.survival(t)
            assert e1.pdf(t) == ex.pdf(t)
        assert e1.mean() == ex.mean()

    def test_samples_identical(self):
        draws_erlang = Erlang(1, 1.7).sample_n(rng_for(11), 1000)
        draws_exp = Exponential(1.7).sample_n(rng_for(11), 1000)
        assert np.array_equal(draws_erlang, draws_exp)


class TestSampling:
    def test_deterministic_for_fixed_seed(self):
        for dist in (Exponential(2.0), Erlang(3, 1.0), Weibull(0.8, 2.0)):
            a = dist.sample(rng_for(42))
            b = dist.sample(rng_for(42))
            assert a == b

    def test_weibull_shape_one_matches_exponential_draws(self):
        # scale 1/2 is exactly representable, so the two transforms agree bitwise
        weib = Weibull(1.0, 0.5).sample_n(rng_for(3), 2000)
        expo = Exponential(2.0).sample_n(rng_for(3), 2000)
        assert np.array_equal(weib, expo)

    @pytest.mark.parametrize("dist", [Exponential(2.0), Erlang(3, 1.0), Weibull(0.8, 2.0)])
    @pytest.mark.parametrize("n", [0, 1, 64])
    def test_draws_are_new_writable_float_arrays(self, dist, n):
        # Callers such as simulate_catastrophic write into the returned array.
        draws = dist.sample_n(rng_for(5), n)
        assert isinstance(draws, np.ndarray)
        assert draws.dtype == np.float64
        assert draws.shape == (n,)
        assert draws.flags.owndata
        assert draws.flags.writeable

    def test_law_of_large_numbers(self):
        draws = Exponential(1.0).sample_n(rng_for(99), 1_000_000)
        stderr = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 1.0) <= 3.5 * stderr

    @pytest.mark.parametrize("dist", [Exponential(1.5), Erlang(3, 2.0), Weibull(1.5, 1.0),
                                      Erlang(50, 20.0), Weibull(0.6, 2.0)])
    def test_empirical_cdf_matches_analytic(self, dist):
        n = 1_000_000
        draws = np.sort(dist.sample_n(rng_for(17), n))
        for p in np.arange(0.05, 1.0, 0.1):
            if isinstance(dist, Exponential):
                q = -math.log1p(-p) / dist.rate
            elif isinstance(dist, Erlang):
                q = float(special.gammaincinv(dist.shape, p)) / dist.rate
            else:
                q = dist.scale * (-math.log1p(-p)) ** (1.0 / dist.shape)
            p_hat = np.searchsorted(draws, q, side="right") / n
            assert abs(p_hat - p) <= 3.5 * math.sqrt(p * (1.0 - p) / n)


class TestValidation:
    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_positive_parameters_required(self, bad):
        with pytest.raises(ValueError):
            Exponential(bad)
        with pytest.raises(ValueError):
            Erlang(2, bad)
        with pytest.raises(ValueError):
            Weibull(bad, 1.0)
        with pytest.raises(ValueError):
            Weibull(1.0, bad)

    @pytest.mark.parametrize("bad_shape", [0, -1, 1.5, True])
    def test_erlang_shape_must_be_positive_integer(self, bad_shape):
        with pytest.raises(ValueError):
            Erlang(bad_shape, 1.0)


class TestJsonCodec:
    @pytest.mark.parametrize("obj,expected", [
        ({"type": "exponential", "rate": 2.0}, Exponential(2.0)),
        ({"type": "erlang", "shape": 3, "rate": 1.5}, Erlang(3, 1.5)),
        ({"type": "weibull", "shape": 2.0, "scale": 0.5}, Weibull(2.0, 0.5)),
    ])
    def test_round_trip(self, obj, expected):
        dist = distribution_from_dict(obj)
        assert dist == expected
        assert distribution_from_dict(distribution_to_dict(dist)) == dist

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            distribution_from_dict({"type": "exponential", "rate": 1.0, "mean": 1.0})

    def test_missing_fields_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            distribution_from_dict({"type": "erlang", "rate": 1.0})

    def test_erlang_shape_must_be_json_integer(self):
        with pytest.raises(ValueError, match="integer"):
            distribution_from_dict({"type": "erlang", "shape": 2.0, "rate": 1.0})

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown distribution type"):
            distribution_from_dict({"type": "gamma", "shape": 2.5, "rate": 1.0})
