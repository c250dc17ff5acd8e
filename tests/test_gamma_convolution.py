"""Two-Erlang-sum tests: expansion identities, oracle convolutions, edge routing."""

import math
import warnings

import numpy as np
import pytest

from _oracles import trapezoid_convolution_cdf
from twoshock.distributions import Erlang, erlang_survival
from twoshock.errors import EqualRatesError, IllConditionedError
from twoshock.gamma_convolution import ErlangProduct, convolution_cdf, expand


def transform(product, coeffs_a, coeffs_b, s):
    ra, rb = product.rate_a, product.rate_b
    lhs = (ra / (s + ra)) ** product.shape_a * (rb / (s + rb)) ** product.shape_b
    rhs = sum(c * (ra / (s + ra)) ** j for j, c in enumerate(coeffs_a, start=1))
    rhs += sum(d * (rb / (s + rb)) ** j for j, d in enumerate(coeffs_b, start=1))
    return lhs, rhs


class TestExpand:
    def test_two_exponentials(self):
        # Solved by hand from the transform identity and verified at s in {0.5, 1, 3}
        ex = expand(ErlangProduct(1, 1.0, 1, 2.0))
        assert ex.coeffs_a == pytest.approx((2.0,), abs=1e-14)
        assert ex.coeffs_b == pytest.approx((-1.0,), abs=1e-14)
        for s in (0.5, 1.0, 3.0):
            lhs, rhs = transform(ErlangProduct(1, 1.0, 1, 2.0), ex.coeffs_a, ex.coeffs_b, s)
            assert rhs == pytest.approx(lhs, rel=1e-13)

    def test_coefficients_sum_to_one(self):
        for (a, ra, b, rb) in [(1, 1.0, 1, 2.0), (2, 1.0, 1, 3.0), (4, 0.5, 3, 2.0),
                               (4, 3.0, 4, 0.5), (2, 2.0, 5, 1.0)]:
            ex = expand(ErlangProduct(a, ra, b, rb))
            assert abs(sum(ex.coeffs_a) + sum(ex.coeffs_b) - 1.0) <= 1e-10

    def test_transform_reconstruction_at_random_points(self):
        product = ErlangProduct(2, 1.0, 1, 3.0)
        ex = expand(product)
        lhs, rhs = transform(product, ex.coeffs_a, ex.coeffs_b, 1.0)
        assert rhs == pytest.approx(lhs, rel=1e-12)
        rng = np.random.default_rng(0)
        for s in rng.uniform(0.01, 20.0, size=20):
            lhs, rhs = transform(product, ex.coeffs_a, ex.coeffs_b, float(s))
            assert rhs == pytest.approx(lhs, rel=1e-9)

    def test_equal_rates_signal(self):
        with pytest.raises(EqualRatesError):
            expand(ErlangProduct(2, 1.0, 3, 1.0))

    def test_near_equal_rates_signal(self):
        with pytest.raises(IllConditionedError):
            expand(ErlangProduct(2, 1.0, 3, 1.0 + 1e-8))

    def test_expansion_matches_phase_series(self):
        for (a, ra, b, rb) in [(1, 1.0, 1, 2.0), (2, 1.0, 1, 3.0), (4, 0.5, 3, 2.0),
                               (4, 3.0, 4, 0.5), (2, 2.0, 5, 1.0)]:
            product = ErlangProduct(a, ra, b, rb)
            ex = expand(product)
            for x in (0.2, 1.0, a / ra + b / rb, 10.0):
                inverted = 1.0 - math.fsum(
                    [c * erlang_survival(j, ra * x) for j, c in enumerate(ex.coeffs_a, 1)]
                    + [d * erlang_survival(j, rb * x) for j, d in enumerate(ex.coeffs_b, 1)])
                assert abs(inverted - convolution_cdf(product, x)) <= 1e-10

    def test_zero_shape_rejected(self):
        with pytest.raises(ValueError, match="shapes >= 1"):
            expand(ErlangProduct(0, 1.0, 3, 2.0))


class TestConvolutionCdf:
    def test_empty_sum_is_zero_damage(self):
        assert convolution_cdf(ErlangProduct(0, 1.0, 0, 2.0), 3.0) == 1.0
        assert convolution_cdf(ErlangProduct(0, 1.0, 0, 2.0), 0.0) == 1.0

    def test_two_exponentials_frozen_value(self):
        # CDF of Exp(1)+Exp(2) is 1 - 2e^-x + e^-2x; numerical convolution agrees
        value = convolution_cdf(ErlangProduct(1, 1.0, 1, 2.0), 1.0)
        assert value == pytest.approx(0.39957640089372803, abs=1e-14)
        assert value == pytest.approx(
            trapezoid_convolution_cdf(1, 1.0, 1, 2.0, 1.0), abs=1e-7)

    def test_equal_rates_reproduce_erlang(self):
        value = convolution_cdf(ErlangProduct(1, 1.0, 1, 1.0), 1.0)
        assert value == Erlang(2, 1.0).cdf(1.0)
        assert value == pytest.approx(0.26424111765711533, abs=1e-15)

    def test_equal_rate_path_exact_for_any_shapes(self):
        for (a, b, mu) in [(2, 3, 1.5), (4, 1, 0.5), (3, 3, 2.0)]:
            for x in (0.1, 1.0, 5.0):
                assert convolution_cdf(ErlangProduct(a, mu, b, mu), x) == \
                    Erlang(a + b, mu).cdf(x)

    def test_single_sided_degenerates_to_erlang(self):
        for x in (0.5, 2.0):
            assert convolution_cdf(ErlangProduct(0, 1.0, 3, 2.0), x) == \
                Erlang(3, 2.0).cdf(x)
            assert convolution_cdf(ErlangProduct(2, 1.5, 0, 1.0), x) == \
                Erlang(2, 1.5).cdf(x)

    def test_near_equal_rates_exact_without_warning(self):
        # The phase series is exact at any rate gap; the equal-rate limit
        # differs from it by O(gap).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = convolution_cdf(ErlangProduct(2, 1.0, 2, 1.0 + 1e-9), 3.0)
        assert abs(value - Erlang(4, 1.0).cdf(3.0)) <= 1e-8

    def test_negative_x_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            convolution_cdf(ErlangProduct(1, 1.0, 1, 2.0), -1.0)

    def test_matches_numerical_convolution(self):
        for (a, ra, b, rb) in [(1, 1.0, 2, 3.0), (3, 2.0, 2, 0.5), (4, 1.0, 4, 2.0)]:
            mean = a / ra + b / rb
            for x in (0.5 * mean, mean, 1.7 * mean):
                value = convolution_cdf(ErlangProduct(a, ra, b, rb), x)
                oracle = trapezoid_convolution_cdf(a, ra, b, rb, x)
                assert abs(value - oracle) <= 1e-6

    def test_symmetry_under_side_swap(self):
        for (a, ra, b, rb) in [(2, 1.0, 3, 2.0), (4, 0.5, 1, 3.0)]:
            for x in (0.3, 1.0, 4.0, 9.0):
                left = convolution_cdf(ErlangProduct(a, ra, b, rb), x)
                right = convolution_cdf(ErlangProduct(b, rb, a, ra), x)
                assert abs(left - right) <= 1e-12

    def test_monotone_bounded_and_saturates(self):
        product = ErlangProduct(3, 1.0, 2, 2.0)
        xs = np.linspace(0.0, 50.0 * (3 / 1.0 + 2 / 2.0), 60)
        values = [convolution_cdf(product, float(x)) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b - a >= -1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=1e-10)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(123)
        n = 1_000_000
        a, ra, b, rb = 2, 1.0, 1, 3.0
        draws = rng.gamma(a, 1.0 / ra, n) + rng.gamma(b, 1.0 / rb, n)
        draws.sort()
        for x in (0.8, 2.0, 4.0):
            p_hat = np.searchsorted(draws, x, side="right") / n
            p = convolution_cdf(ErlangProduct(a, ra, b, rb), x)
            assert abs(p_hat - p) <= 3.5 * math.sqrt(p * (1.0 - p) / n)

    def test_large_shapes_stay_accurate(self):
        # Deep lattice cells route through the high-precision evaluator;
        # spot-check against plain Monte Carlo.
        rng = np.random.default_rng(7)
        n = 500_000
        a, ra, b, rb = 24, 1.0, 18, 2.0
        draws = rng.gamma(a, 1.0 / ra, n) + rng.gamma(b, 1.0 / rb, n)
        draws.sort()
        for x in (24.0, 33.0, 45.0):
            p_hat = np.searchsorted(draws, x, side="right") / n
            p = convolution_cdf(ErlangProduct(a, ra, b, rb), x)
            assert abs(p_hat - p) <= 3.5 * math.sqrt(max(p * (1.0 - p), 1e-12) / n)


class TestValidation:
    def test_rates_positive(self):
        with pytest.raises(ValueError):
            ErlangProduct(1, 0.0, 1, 1.0)
        with pytest.raises(ValueError):
            ErlangProduct(1, 1.0, 1, -2.0)

    def test_shapes_nonnegative_integers(self):
        with pytest.raises(ValueError):
            ErlangProduct(-1, 1.0, 1, 2.0)
        with pytest.raises(ValueError):
            ErlangProduct(1.5, 1.0, 1, 2.0)
