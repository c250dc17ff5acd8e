"""Two-Erlang-sum tests: expansion identities, oracle convolutions, edge routing."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, special, stats

from _oracles import trapezoid_convolution_cdf
from twoshock.distributions import Erlang, _poisson_tail, erlang_survival
from twoshock.errors import EqualRatesError
from twoshock.gamma_convolution import (ErlangProduct, _bernstein_reach, _erlang_cdf_terms,
                                        _phase_pmf, _phase_reach, _phase_tail, convolution_cdf,
                                        expand)


def transform(product, coeffs_a, coeffs_b, s):
    ra, rb = product.rate_a, product.rate_b
    lhs = (ra / (s + ra)) ** product.shape_a * (rb / (s + rb)) ** product.shape_b
    rhs = sum(c * (ra / (s + ra)) ** j for j, c in enumerate(coeffs_a, start=1))
    rhs += sum(d * (rb / (s + rb)) ** j for j, d in enumerate(coeffs_b, start=1))
    return lhs, rhs


def exact_coefficient(j, m, r, n, s):
    """c_j of the pole stack (m, r) against (n, s), in exact arithmetic on the doubles."""
    delta = Fraction(s) - Fraction(r)
    return float(math.comb(m + n - j - 1, m - j) * Fraction(r) ** (m - j)
                 * Fraction(s) ** n * (-1) ** (m - j) / delta ** (m + n - j))


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

    @pytest.mark.parametrize("a, ra, b, rb", [(2, 1.0, 3, 1.0 + 1e-8), (3, 2.0, 2, 2.0 - 2e-8),
                                              (1, 1.0, 1, 1.0 + 1e-12), (2, 1.0, 2, 1.0 + 1e-12)])
    def test_near_equal_rates_match_exact_fractions(self, a, ra, b, rb):
        ex = expand(ErlangProduct(a, ra, b, rb))
        for coeffs, (m, r, n, s) in ((ex.coeffs_a, (a, ra, b, rb)), (ex.coeffs_b, (b, rb, a, ra))):
            for j, c in enumerate(coeffs, 1):
                assert c == pytest.approx(exact_coefficient(j, m, r, n, s), rel=1e-15, abs=0.0)

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

    def test_large_shapes_match_exact_fractions(self):
        # Many of these products overflow a double on the way, though every
        # coefficient, up to about 2.2e284, is a finite double.
        a, ra, b, rb = 600, 1.0, 600, 3.0
        ex = expand(ErlangProduct(a, ra, b, rb))
        for coeffs, (m, r, n, s) in ((ex.coeffs_a, (a, ra, b, rb)), (ex.coeffs_b, (b, rb, a, ra))):
            for j, c in enumerate(coeffs, 1):
                assert c == pytest.approx(exact_coefficient(j, m, r, n, s), rel=1e-11,
                                          abs=0.0), (m, j)

    def test_coefficients_past_double_range_saturate_with_sign(self):
        # delta = 1e-4 puts every coefficient past the double range; delta ** n
        # underflows to 0 rather than raising.
        a, ra, b, rb = 400, 1.0, 300, 1.0001
        ex = expand(ErlangProduct(a, ra, b, rb))
        for coeffs, (m, n, delta) in ((ex.coeffs_a, (a, b, rb - ra)),
                                      (ex.coeffs_b, (b, a, ra - rb))):
            for j, c in enumerate(coeffs, 1):
                sign = (-1) ** (m - j) * (1 if delta > 0 else -1) ** (m + n - j)
                assert c == sign * math.inf, (m, j)

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

    def test_shapes_past_1e5_match_swapped_factors_and_quadrature(self):
        # The faster factor is a shift of the slower pmf, so a series about
        # 2.3e5 phases long is one dot product.  The reference integrates
        # f_A(y) F_B(x - y) over A's bulk with scipy's gamma functions; at
        # 30 digits the value is 0.50029076193725014, 1.8e-11 from it.
        a, ra, b, rb = 100_000, 1.0, 120_000, 1.3
        x = a / ra + b / rb
        value = convolution_cdf(ErlangProduct(a, ra, b, rb), x)
        assert convolution_cdf(ErlangProduct(b, rb, a, ra), x) == value
        spread = 12.0 * math.sqrt(a) / ra
        reference, _ = integrate.quad(
            lambda y: stats.gamma.pdf(y, a, scale=1 / ra) * special.gammainc(b, rb * (x - y)),
            a / ra - spread, a / ra + spread, epsabs=1e-12, epsrel=0.0, limit=200)
        assert 0.4 < value < 0.6
        assert value == pytest.approx(reference, abs=1e-10)

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


def _first_below_reference(z, eps, max_terms):
    """_erlang_cdf_terms with its stop found by searching for the first value below eps."""
    cdfs = _poisson_tail(z, int(min(_bernstein_reach(z, eps), max_terms)) + 2)
    cdfs[0] = 1.0
    below = np.flatnonzero(cdfs < eps)
    if not below.size or below[0] > max_terms:
        return cdfs[:int(max_terms)], False
    return cdfs[:below[0]], True


class TestErlangCdfTerms:
    @pytest.mark.parametrize("z", [0.0, 5e-324, 3.0, 50.0, 699.0, 800.0, 9000.0, 20000.0,
                                   math.inf])
    @pytest.mark.parametrize("eps", [1e-10, 1e-17, 1e-300])
    def test_count_stop_is_the_first_value_below_eps(self, z, eps):
        # The values never increase, so a binary search for eps on the
        # reversed values finds the same stop as a scan for the first one below it.
        caps = [10_000] if z == math.inf else [10_000, math.inf]  # convolution_cdf uses inf
        for max_terms in caps:
            cdfs, converged = _erlang_cdf_terms(z, eps, max_terms)
            ref, ref_converged = _first_below_reference(z, eps, max_terms)
            assert converged is ref_converged
            assert len(cdfs) == len(ref)
            assert cdfs.tobytes() == ref.tobytes()


class TestPhaseKernelEdges:
    """_phase_pmf, _phase_reach and _phase_tail where a mark is an atom, absent or never done."""

    def test_ratio_that_underflows_to_zero_gives_zero_terms(self):
        for shape in (1, 3, 12):
            assert not _phase_pmf(shape, 1e-300, 1e300, 50).any()
            assert _phase_reach(shape, 1e-300, 1e300, 50) == 0
            assert _phase_tail(shape, 1e-300, 1e300, 50) == 1.0

    @pytest.mark.parametrize("rate,fast", [(5e-324, 1.0), (1e-310, 2.0)])
    def test_subnormal_ratio_gives_subnormal_terms(self, rate, fast):
        # q / p overflows here; every exact term is at most p, itself subnormal.
        for shape in (1, 3, 12):
            assert np.all(_phase_pmf(shape, rate, fast, 50) <= rate / fast)
            assert _phase_reach(shape, rate, fast, 50) in (0, 50)
            assert _phase_tail(shape, rate, fast, 50) == 1.0

    @pytest.mark.parametrize("shape,length", [(5, 5), (5, 3), (1, 1)])
    def test_shape_at_or_past_length(self, shape, length):
        assert not _phase_pmf(shape, 0.5, 1.0, length).any()
        assert _phase_reach(shape, 0.5, 1.0, length) == 0
        assert _phase_tail(shape, 0.5, 1.0, length) == 1.0

    @pytest.mark.parametrize("shape", [1, 4])
    def test_equal_rates_are_one_atom(self, shape):
        pmf = _phase_pmf(shape, 2.0, 2.0, 10)
        assert pmf[shape] == 1.0 and pmf.sum() == 1.0
        assert _phase_reach(shape, 2.0, 2.0, 10) == shape + 1
        assert _phase_tail(shape, 2.0, 2.0, 10) == 0.0

    @pytest.mark.parametrize("shape,ratio,n", [(1, 0.5, 2), (3, 0.3, 20), (12, 1e-3, 900),
                                               (40, 0.9, 60), (2, 1.0 - 1e-9, 3)])
    def test_tail_is_one_minus_the_pmf_head(self, shape, ratio, n):
        head = math.fsum(_phase_pmf(shape, ratio, 1.0, n))
        assert _phase_tail(shape, ratio, 1.0, n) == pytest.approx(1.0 - head, rel=1e-12, abs=1e-15)


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
