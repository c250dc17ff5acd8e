"""Distribution kernel tests: frozen values, quadrature oracles, sampling laws."""

import functools
import math
import time
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from _oracles import poisson_cdf_decimal
from twoshock.cumulative import (
    CumulativeModel,
    GeneralCumulativeModel,
    compound_poisson_exponential_cdf,
)
from twoshock.distributions import (
    Erlang,
    Exponential,
    Weibull,
    _deviance,
    distribution_from_dict,
    distribution_to_dict,
    erlang_cdf,
    erlang_survival,
)
from twoshock.gamma_convolution import ErlangProduct
from twoshock.montecarlo import SimulationConfig

RATES = st.floats(min_value=0.05, max_value=20.0, allow_nan=False)
TIMES = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


def rng_for(seed):
    return np.random.default_rng(seed)


def _poisson_upper_tail(shape: int, x: float) -> float:
    """P(Poisson(x) >= shape) = P(Erlang(shape, 1) <= x), summed in 60-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 60
        z = Decimal(x)
        term = (-z).exp() * z ** shape / math.factorial(shape)
        total = Decimal(0)
        for k in range(shape + 1, shape + 400):
            total += term
            term = term * z / k
        return float(total)


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

    @pytest.mark.parametrize("t", [1e-300, 1e-12, 1e-6, 0.3, 2.0, 7.5, 40.0])
    def test_small_cdfs_keep_relative_accuracy(self, t):
        assert Exponential(2.0).cdf(t) == pytest.approx(-math.expm1(-2.0 * t), rel=1e-15, abs=0.0)
        for shape in (2, 3, 20):
            reference = _poisson_upper_tail(shape, 1.5 * t)
            if reference > 0.0:
                assert Erlang(shape, 1.5).cdf(t) == pytest.approx(reference, rel=1e-13, abs=0.0)
        assert Weibull(1.5, 2.0).cdf(t) == pytest.approx(
            -math.expm1(-(t / 2.0) ** 1.5), rel=1e-15, abs=0.0)

    def test_weibull_cdf_past_double_range(self):
        # z = 1e-600 underflows, z ** 0.5 = 1e-300 does not.
        assert Weibull(0.5, 1e300).cdf(1e-300) == pytest.approx(1e-300, rel=1e-12, abs=0.0)
        assert Weibull(0.001, 1e-300).cdf(1e300) == pytest.approx(
            -math.expm1(-10.0 ** 0.6), rel=1e-12, abs=0.0)

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

    def test_erlang_survival_never_above_one(self):
        # The series' rounding can carry exp(-x) * sum an ulp past 1 (at
        # shape 48, x = 0.2340773591197066); the scalar and curve clamp it.
        xs = np.concatenate([np.geomspace(1e-3, 699.0, 40), np.linspace(0.05, 3.0, 40)])
        for shape in range(2, 1001, 7):
            values = [erlang_survival(shape, x) for x in xs.tolist()]
            assert all(0.0 <= v <= 1.0 for v in values), shape
            assert Erlang(shape, 1.0).survival_curve(xs).tolist() == values
        assert erlang_survival(48, 0.2340773591197066) == 1.0

    @pytest.mark.parametrize("shape,x", [(10**7, 1e7), (10**9, 1e9), (10**9, 1e308)])
    def test_erlang_survival_past_limit_builds_only_terms_near_the_largest(self, shape, x):
        # Past x = 700 the sum keeps the terms within about 10 sqrt(x) + 40 of
        # the largest kept one: a few MiB at 1e9, nothing at 1e308, where a
        # min(shape, x + 10 sqrt(x) + 41)-term array would take gigabytes.
        tracemalloc.start()
        try:
            start = time.perf_counter()
            erlang_survival(shape, x)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert elapsed < 0.1

    def test_erlang_survival_past_limit_matches_decimal_sum(self):
        # Shapes within 12 sqrt(x) of x: the sum stops at the shape on one
        # side of the mode and is cut below the largest kept term on both.
        for x in np.geomspace(700.5, 1e7, 13).tolist():
            for k in range(-12, 13, 3):
                shape = int(x + k * math.sqrt(x))
                assert erlang_survival(shape, x) == pytest.approx(
                    poisson_cdf_decimal(shape - 1, x), rel=1e-12, abs=0.0), (shape, x)

    @pytest.mark.parametrize("shape", [3, 100])
    @pytest.mark.parametrize("x", [math.nan, -1.0])
    def test_erlang_survival_rejects_nan_and_negative_x(self, shape, x):
        with pytest.raises(ValueError, match=rf"^x must be nonnegative, got {x}$"):
            erlang_survival(shape, x)

    def test_erlang_survival_at_signed_zero(self):
        assert erlang_survival(3, -0.0) == erlang_survival(100, 0.0) == 1.0

    @pytest.mark.parametrize("shape", [1, 3, 100])
    @pytest.mark.parametrize("x", [math.nan, -1.0])
    def test_erlang_cdf_rejects_nan_and_negative_x(self, shape, x):
        with pytest.raises(ValueError, match=rf"^x must be nonnegative, got {x}$"):
            erlang_cdf(shape, x)

    def test_erlang_cdf_at_zero(self):
        assert erlang_cdf(3, 0.0) == erlang_cdf(1, 0.0) == erlang_cdf(100, -0.0) == 0.0

    def test_deviance_series_ends_on_nan(self):
        # The series near k = z is summed for at most a few dozen terms, so a
        # nan z, which never meets the stop, returns nan instead of looping.
        assert math.isnan(_deviance(5, math.nan))


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

    @pytest.mark.parametrize("shape", [9400, 9450])
    def test_erlang_past_series_limit_matches_decimal(self, shape):
        # x = 9400 is past the series range; the reference is x^k e^-x / k!
        # at 50 digits, k = shape - 1.
        x, k = 9400, shape - 1
        with localcontext() as context:
            context.prec = 50
            reference = Decimal(x) ** k * (-Decimal(x)).exp() / math.factorial(k)
        assert Erlang(shape, 1.0).pdf(float(x)) == pytest.approx(
            float(reference), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("shape, x", [(2, 1e-300), (3, 1e-100), (50, 1.0), (50, 40.0),
                                          (7, 699.0), (1000, 650.0), (1000, 990.0)])
    def test_erlang_matches_decimal_inside_series_range(self, shape, x):
        # One log-space form at every x; the reference is x^k e^-x / k! at 50 digits.
        k = shape - 1
        with localcontext() as context:
            context.prec = 50
            reference = Decimal(x) ** k * (-Decimal(x)).exp() / math.factorial(k)
        assert Erlang(shape, 1.0).pdf(x) == pytest.approx(float(reference), rel=1e-13, abs=0.0)

    def test_erlang_at_underflowing_rate_times_t(self):
        # 1e-10 * 1e-320 is 0: the density takes its value at the origin.
        assert Erlang(1, 1e-10).pdf(1e-320) == 1e-10
        assert Erlang(2, 1e-10).pdf(1e-320) == 0.0

    def test_erlang_at_overflowing_rate_times_t(self):
        # 1e300 * 1e10 is inf, the limit of ever larger x: the density is 0.
        assert Erlang(2, 1e300).pdf(1e10) == Erlang(2, 1e300).pdf(1.0) == 0.0

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

    def test_weibull_tiny_shape(self):
        # Gamma(1 + 1/0.005) = 200! overflows a double; the mean is infinite
        # at scale 1 and finite at a scale that brings it back into range.
        assert Weibull(0.005, 1.0).mean() == math.inf
        assert Weibull(0.005, 1e-300).mean() == pytest.approx(
            float(Decimal(1e-300) * math.factorial(200)), rel=1e-12)


class TestWeibullPastDoubleRange:
    """z = t / scale or z ** shape leaves the double range; log z does not.

    Each reference is the closed form with z written as a power of ten.
    """

    def test_power_overflow(self):
        dist = Weibull(3.0, 1e-10)  # z ** 3 = 1e330
        assert dist.survival(1e100) == 0.0
        assert dist.cdf(1e100) == 1.0
        assert dist.pdf(1e100) == 0.0

    def test_ratio_overflow(self):
        assert Weibull(3.0, 1e-300).pdf(1e300) == 0.0  # z = 1e600
        assert Weibull(0.001, 1e-300).survival(1e300) == pytest.approx(
            math.exp(-10.0 ** 0.6), rel=1e-12, abs=0.0)

    def test_ratio_underflow(self):
        # z = 1e-600: the density is 0.5e-300 * z ** -0.5 * exp(-1e-300) = 0.5.
        assert Weibull(0.5, 1e300).pdf(1e-300) == pytest.approx(0.5, rel=1e-12, abs=0.0)
        assert Weibull(0.01, 1e300).survival(1e-300) == pytest.approx(
            math.exp(-1e-6), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("shape", [0.3, 1.0, 2.5])
    @pytest.mark.parametrize("scale", [1e-5, 1.0, 1e5])
    def test_in_range_values_are_the_direct_formula(self, shape, scale):
        dist = Weibull(shape, scale)
        for t in scale * np.array([1e-3, 0.5, 1.0, 3.0, 30.0]):
            z = t / scale
            assert dist.survival(t) == math.exp(-(z ** shape))
            assert dist.pdf(t) == (shape / scale) * z ** (shape - 1.0) * math.exp(-(z ** shape))


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

    def test_exponential_is_the_shape_one_erlang(self):
        ex = Exponential(1.7)
        assert isinstance(ex, Erlang) and ex.shape == 1
        assert ex != Erlang(1, 1.7)  # equal values, distinct families
        assert repr(ex) == "Exponential(rate=1.7)"


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

    def test_erlang_draws_one_stage_at_a_time(self):
        # Stage-major uniforms, one log per group of up to 19 stages: the bits
        # of one (shape, n) block of complements 1 - u multiplied over rows
        # 0-18, 19-37 and 38-49, each product logged, the logs summed in that
        # order, in the memory of three n-long arrays.
        n = 100_000
        tracemalloc.start()
        try:
            draws = Erlang(50, 20.0).sample_n(rng_for(23), n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2 ** 20
        complements = 1.0 - rng_for(23).random((50, n))
        logs = [np.log(functools.reduce(np.multiply, complements[lo:hi]))
                for lo, hi in ((0, 19), (19, 38), (38, 50))]
        expected = (logs[0] + logs[1] + logs[2]) / -20.0
        assert np.array_equal(draws, expected)

    def test_erlang_stage_products_do_not_underflow(self):
        # Every uniform at its largest value, 1 - 2^-53: each complement is
        # 2^-53, the least there is, and 1000 stages give 1000 * 53 * ln 2.
        class LargestUniforms:
            def random(self, size=None, out=None):
                if out is None:
                    return np.full(size, 1.0 - 2.0 ** -53)
                out.fill(1.0 - 2.0 ** -53)
                return out

        draws = Erlang(1000, 1.0).sample_n(LargestUniforms(), 4)
        assert np.allclose(draws, 1000 * 53 * math.log(2.0), rtol=1e-12, atol=0.0)

    def test_law_of_large_numbers(self):
        draws = Exponential(1.0).sample_n(rng_for(99), 1_000_000)
        stderr = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 1.0) <= 3.5 * stderr

    @pytest.mark.parametrize("dist", [Exponential(1.5), Erlang(3, 2.0), Weibull(1.5, 1.0),
                                      Erlang(19, 3.0), Erlang(20, 3.0), Erlang(38, 5.0),
                                      Erlang(39, 5.0), Erlang(50, 20.0), Weibull(0.6, 2.0)])
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


# Every parameter the rule of _check_positive covers, one builder per field.
POSITIVE_FIELDS = {
    "Exponential.rate": lambda v: Exponential(v),
    "Erlang.rate": lambda v: Erlang(2, v),
    "Weibull.shape": lambda v: Weibull(v, 1.0),
    "Weibull.scale": lambda v: Weibull(1.0, v),
    "CumulativeModel.rate1": lambda v: CumulativeModel(v, 1.0, Exponential(1.0),
                                                       Exponential(1.0), 1.0),
    "CumulativeModel.rate2": lambda v: CumulativeModel(1.0, v, Exponential(1.0),
                                                       Exponential(1.0), 1.0),
    "CumulativeModel.threshold": lambda v: CumulativeModel(1.0, 1.0, Exponential(1.0),
                                                           Exponential(1.0), v),
    "GeneralCumulativeModel.threshold": lambda v: GeneralCumulativeModel(
        Exponential(1.0), Exponential(1.0), Exponential(1.0), Exponential(1.0), v),
    "ErlangProduct.rate_a": lambda v: ErlangProduct(1, v, 1, 1.0),
    "ErlangProduct.rate_b": lambda v: ErlangProduct(1, 1.0, 1, v),
    "compound_poisson_exponential_cdf.rate":
        lambda v: compound_poisson_exponential_cdf(v, 1.0, 1.0, 1.0),
    "compound_poisson_exponential_cdf.mark_rate":
        lambda v: compound_poisson_exponential_cdf(1.0, v, 1.0, 1.0),
}

INTEGER_FIELDS = {
    "Erlang.shape": lambda v: Erlang(v, 1.0),
    "ErlangProduct.shape_a": lambda v: ErlangProduct(v, 1.0, 1, 2.0),
    "ErlangProduct.shape_b": lambda v: ErlangProduct(1, 1.0, v, 2.0),
    "SimulationConfig.replications": lambda v: SimulationConfig(v, 1),
    "SimulationConfig.master_seed": lambda v: SimulationConfig(100, v),
    "SimulationConfig.workers": lambda v: SimulationConfig(100, 1, workers=v),
}


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

    @pytest.mark.parametrize("field", POSITIVE_FIELDS)
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 0, -1.0, True, "2.0", None,
                                     10 ** 400],
                             ids=["inf", "-inf", "nan", "0", "-1", "True", "str", "None",
                                  "10**400"])
    def test_every_positive_field_takes_only_finite_positive_reals(self, field, bad):
        with pytest.raises(ValueError, match=rf"^{field.split('.')[1]} must be"):
            POSITIVE_FIELDS[field](bad)

    @pytest.mark.parametrize("field", POSITIVE_FIELDS)
    @pytest.mark.parametrize("good", [np.float64(2.0), np.float32(0.5), np.int64(3), 2],
                             ids=["float64", "float32", "int64", "int"])
    def test_numpy_scalars_and_ints_accepted(self, field, good):
        POSITIVE_FIELDS[field](good)

    @pytest.mark.parametrize("field", INTEGER_FIELDS)
    def test_every_integer_field_takes_numpy_integers_not_bools(self, field):
        name = field.split(".")[1]
        assert getattr(INTEGER_FIELDS[field](np.int64(2)), name) == 2
        with pytest.raises(ValueError, match=rf"^{name} must be an integer"):
            INTEGER_FIELDS[field](True)

    @pytest.mark.parametrize("field", INTEGER_FIELDS)
    def test_every_integer_field_stores_a_python_int(self, field):
        # A numpy integer kept as given leaks into results and JSON output.
        assert type(getattr(INTEGER_FIELDS[field](np.int64(2)), field.split(".")[1])) is int

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

    def test_exponential_encodes_without_its_shape(self):
        assert distribution_to_dict(Exponential(1.7)) == {"type": "exponential", "rate": 1.7}
        with pytest.raises(ValueError, match="unknown fields"):
            distribution_from_dict({"type": "exponential", "rate": 1, "shape": 1})

    def test_missing_fields_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            distribution_from_dict({"type": "erlang", "rate": 1.0})

    def test_erlang_shape_must_be_json_integer(self):
        with pytest.raises(ValueError, match="integer"):
            distribution_from_dict({"type": "erlang", "shape": 2.0, "rate": 1.0})

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown distribution type"):
            distribution_from_dict({"type": "gamma", "shape": 2.5, "rate": 1.0})
