"""Damage-model tests: series values, truncation honesty, reductions, errors."""

import math

import pytest

from _oracles import compound_poisson_exponential_reference
from twoshock.cumulative import (
    CumulativeModel,
    GeneralCumulativeModel,
    TruncationPolicy,
    compound_poisson_exponential_cdf,
    damage_cdf,
    damage_mean,
    general_damage_cdf,
    general_damage_mean,
    model2_fptf_cdf,
    model2_fptf_mean,
)
from twoshock.distributions import Erlang, Exponential, Weibull
from twoshock.errors import NonConvergedError, UnsupportedConvolutionError

SYMMETRIC = CumulativeModel(1.0, 1.0, Exponential(1.0), Exponential(1.0), threshold=3.0)
MIXED = CumulativeModel(1.0, 2.0, Erlang(3, 2.0), Erlang(1, 1.0), threshold=5.0)


class TestDamageCdf:
    def test_no_shocks_at_time_zero(self):
        for x in (0.0, 1.0, 10.0):
            assert damage_cdf(SYMMETRIC, 0.0, x) == 1.0

    def test_total_mass_at_large_damage(self):
        policy = TruncationPolicy(tail_epsilon=1e-10)
        t = 1.5
        x = 50.0 * damage_mean(MIXED, t) + 50.0
        assert damage_cdf(MIXED, t, x, policy) >= 1.0 - 2.0 * policy.tail_epsilon

    def test_monotone_in_damage_level(self):
        values = [damage_cdf(MIXED, 1.0, x) for x in (0.0, 0.5, 1.0, 3.0, 8.0, 20.0)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_zero_damage_level_is_no_shock_probability(self):
        t = 0.7
        expected = math.exp(-(MIXED.rate1 + MIXED.rate2) * t)
        assert damage_cdf(MIXED, t, 0.0) == pytest.approx(expected, abs=1e-12)

    def test_truncation_honesty(self):
        points = [(0.5, 1.0), (1.0, 2.0), (2.0, 5.0), (3.0, 8.0)]
        for t, x in points:
            loose = damage_cdf(MIXED, t, x, TruncationPolicy(tail_epsilon=1e-6))
            tight = damage_cdf(MIXED, t, x, TruncationPolicy(tail_epsilon=1e-10))
            tighter = damage_cdf(MIXED, t, x, TruncationPolicy(tail_epsilon=1e-12))
            assert abs(loose - tight) < 1e-6
            assert abs(tight - tighter) < 1e-10

    def test_term_cap_raises(self):
        with pytest.raises(NonConvergedError):
            damage_cdf(SYMMETRIC, 5.0, 1.0, TruncationPolicy(tail_epsilon=1e-10,
                                                             max_terms_per_axis=3))

    def test_poisson_mean_past_exp_underflow(self):
        # exp(-800) underflows; the value is still well defined.
        model = CumulativeModel(799.5, 0.5, Exponential(1.0), Exponential(1.0),
                                threshold=900.0)
        reference = compound_poisson_exponential_reference(800.0, 1.0, 800.0)
        assert damage_cdf(model, 1.0, 800.0) == pytest.approx(reference, abs=1e-9)

    def test_tail_epsilon_below_double_resolution_is_honoured(self):
        for t, x in [(1.0, 2.0), (2.0, 5.0)]:
            loose = damage_cdf(MIXED, t, x, TruncationPolicy(tail_epsilon=1e-12))
            tiny = damage_cdf(MIXED, t, x, TruncationPolicy(tail_epsilon=1e-300))
            assert abs(tiny - loose) <= 1e-15

    def test_level_past_phase_cap_cut_by_pmf_mass(self):
        # mu_f * x = 9400 needs more phases than the default cap; the
        # compound-Poisson pmf (mean 2) has all its mass far below it.
        value = damage_cdf(SYMMETRIC, 1.0, 9400.0)
        assert 1.0 - 1e-10 <= value <= 1.0

    def test_level_past_phase_cap_raises_when_mass_cannot_show_bound(self):
        with pytest.raises(NonConvergedError):
            damage_cdf(SYMMETRIC, 1.0, 9400.0, TruncationPolicy(tail_epsilon=1e-300))

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            damage_cdf(SYMMETRIC, -1.0, 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            damage_cdf(SYMMETRIC, 1.0, -1.0)
        with pytest.raises(ValueError, match="finite"):
            damage_cdf(SYMMETRIC, math.inf, 1.0)
        with pytest.raises(ValueError, match="finite"):
            damage_cdf(SYMMETRIC, 1.0, math.inf)


class TestDamageMean:
    def test_zero_at_origin(self):
        assert damage_mean(MIXED, 0.0) == 0.0

    def test_frozen_value(self):
        # 3*1*2/2 + 1*2*2/1
        assert damage_mean(MIXED, 2.0) == 7.0

    def test_exponential_marks_reduce(self):
        model = CumulativeModel(1.0, 2.0, Exponential(2.0), Exponential(1.0), threshold=1.0)
        for t in (0.5, 1.0, 3.0):
            assert damage_mean(model, t) == pytest.approx(t / 2.0 + 2.0 * t, abs=1e-15)

    def test_linear_in_time(self):
        for t in (0.25, 1.0, 2.5):
            assert damage_mean(MIXED, 2.0 * t) == pytest.approx(
                2.0 * damage_mean(MIXED, t), abs=0.0)


class TestModel2Fptf:
    def test_zero_at_origin(self):
        assert model2_fptf_cdf(SYMMETRIC, 0.0) == 0.0

    def test_huge_threshold_keeps_failure_improbable(self):
        policy = TruncationPolicy(tail_epsilon=1e-10)
        t = 1.0
        big = CumulativeModel(1.0, 1.0, Exponential(1.0), Exponential(1.0),
                              threshold=100.0 * damage_mean(SYMMETRIC, t) + 100.0)
        assert model2_fptf_cdf(big, t, policy) <= 2.0 * policy.tail_epsilon

    def test_nondecreasing_in_time(self):
        values = [model2_fptf_cdf(MIXED, t) for t in (0.0, 0.3, 0.8, 1.5, 3.0, 6.0)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_mean_known_exponential_closed_form(self):
        # Single merged exponential-mark stream: E(T) = (1 + mu*K) / lambda.
        assert model2_fptf_mean(SYMMETRIC) == pytest.approx(2.0, rel=1e-9)

    def test_mean_vanishing_threshold_is_first_arrival(self):
        model = CumulativeModel(1.0, 1.0, Exponential(1.0), Exponential(1.0),
                                threshold=1e-8)
        assert model2_fptf_mean(model) == pytest.approx(0.5, abs=1e-7)

    def test_mean_monotone_in_threshold(self):
        means = [
            model2_fptf_mean(CumulativeModel(1.0, 1.0, Exponential(1.0),
                                             Exponential(1.0), threshold=k))
            for k in (1.0, 2.0, 4.0)
        ]
        assert means[0] <= means[1] <= means[2]

    def test_mean_large_threshold_closed_form(self):
        # Equal Exp(1) marks: E(T) = (1 + K) / lambda, here with exp(-K) underflowing.
        model = CumulativeModel(1.0, 1.0, Exponential(1.0), Exponential(1.0),
                                threshold=800.0)
        assert model2_fptf_mean(model) == pytest.approx(400.5, rel=1e-9)

    def test_mean_raises_when_term_budget_exhausted(self):
        with pytest.raises(NonConvergedError):
            model2_fptf_mean(SYMMETRIC, TruncationPolicy(max_terms_per_axis=3))


class TestMergedProcessReduction:
    def test_two_streams_collapse_to_one(self):
        policy = TruncationPolicy(tail_epsilon=1e-10)
        model = CumulativeModel(1.0, 2.0, Exponential(1.5), Exponential(1.5),
                                threshold=2.0)
        for t, x in [(0.5, 0.5), (1.0, 2.0), (2.0, 4.0), (3.0, 1.0)]:
            two = damage_cdf(model, t, x, policy)
            one = compound_poisson_exponential_cdf(3.0, 1.5, t, x, policy)
            assert abs(two - one) <= 2.0 * policy.tail_epsilon

    def test_poisson_mean_past_exp_underflow(self):
        policy = TruncationPolicy(tail_epsilon=1e-10)
        model = CumulativeModel(400.0, 400.0, Exponential(1.0), Exponential(1.0),
                                threshold=1.0)
        for x in (760.0, 800.0, 840.0):
            two = damage_cdf(model, 1.0, x, policy)
            one = compound_poisson_exponential_cdf(800.0, 1.0, 1.0, x, policy)
            assert abs(two - one) <= 2.0 * policy.tail_epsilon

    def test_erlang_shape_one_equals_exponential_marks(self):
        policy = TruncationPolicy(tail_epsilon=1e-10)
        erlang_marks = CumulativeModel(1.0, 2.0, Erlang(1, 1.5), Erlang(1, 1.5),
                                       threshold=2.0)
        expo_marks = CumulativeModel(1.0, 2.0, Exponential(1.5), Exponential(1.5),
                                     threshold=2.0)
        for t, x in [(0.5, 0.5), (1.0, 2.0), (2.0, 4.0)]:
            assert damage_cdf(erlang_marks, t, x, policy) == \
                damage_cdf(expo_marks, t, x, policy)


class TestGeneralEvaluators:
    def test_time_zero(self):
        g = GeneralCumulativeModel(Erlang(2, 1.0), Erlang(2, 1.0),
                                   Exponential(1.0), Exponential(1.0), threshold=2.0)
        assert general_damage_cdf(g, 0.0, 1.0) == 1.0
        assert general_damage_mean(g, 0.0) == 0.0

    def test_level_past_phase_cap_cut_by_pmf_mass(self):
        # As in damage_cdf: mu_f * x = 9400 needs more phases than the default
        # cap, and the phase-count pmf at t = 1 has all its mass far below it.
        g = GeneralCumulativeModel(Erlang(2, 1.0), Erlang(2, 1.0),
                                   Exponential(1.0), Exponential(1.0), threshold=2.0)
        assert 1.0 - 1e-10 <= general_damage_cdf(g, 1.0, 9400.0) <= 1.0
        with pytest.raises(NonConvergedError):
            general_damage_cdf(g, 1.0, 9400.0, TruncationPolicy(tail_epsilon=1e-300))

    def test_exponential_interarrivals_reduce_to_poisson_series(self):
        policy = TruncationPolicy(tail_epsilon=1e-10)
        g = GeneralCumulativeModel(Exponential(1.0), Exponential(2.0),
                                   Erlang(3, 2.0), Erlang(1, 1.0), threshold=5.0)
        for t, x in [(0.5, 1.0), (1.0, 2.0), (2.0, 5.0), (4.0, 8.0)]:
            series = damage_cdf(MIXED, t, x, policy)
            renewal = general_damage_cdf(g, t, x, policy)
            assert abs(series - renewal) <= 2.0 * policy.tail_epsilon

    def test_exponential_interarrival_mean_is_poisson_mean(self):
        policy = TruncationPolicy(tail_epsilon=1e-10)
        g = GeneralCumulativeModel(Exponential(1.0), Exponential(2.0),
                                   Erlang(3, 2.0), Erlang(1, 1.0), threshold=5.0)
        for t in (0.5, 2.0, 4.0):
            assert general_damage_mean(g, t, policy) == pytest.approx(
                damage_mean(MIXED, t), abs=2e-10)

    def test_weibull_interarrivals_unsupported_analytically(self):
        g = GeneralCumulativeModel(Weibull(2.0, 1.0), Exponential(1.0),
                                   Exponential(1.0), Exponential(1.0), threshold=1.0)
        with pytest.raises(UnsupportedConvolutionError):
            general_damage_cdf(g, 1.0, 1.0)

    def test_weibull_marks_unsupported_for_cdf_but_fine_for_mean(self):
        g = GeneralCumulativeModel(Exponential(1.0), Exponential(1.0),
                                   Weibull(2.0, 1.0), Exponential(1.0), threshold=1.0)
        with pytest.raises(UnsupportedConvolutionError):
            general_damage_cdf(g, 1.0, 1.0)
        # the mean needs no mark convolution, only E(mark) and the renewal count
        expected = Weibull(2.0, 1.0).mean() * 1.0 + 1.0
        assert general_damage_mean(g, 1.0) == pytest.approx(expected, abs=1e-9)


class TestValidation:
    def test_weibull_magnitudes_rejected_at_construction(self):
        with pytest.raises(UnsupportedConvolutionError):
            CumulativeModel(1.0, 1.0, Weibull(2.0, 1.0), Exponential(1.0), threshold=1.0)

    def test_positive_threshold_required(self):
        with pytest.raises(ValueError, match="threshold"):
            CumulativeModel(1.0, 1.0, Exponential(1.0), Exponential(1.0), threshold=0.0)

    def test_positive_rates_required(self):
        with pytest.raises(ValueError, match="rate1"):
            CumulativeModel(0.0, 1.0, Exponential(1.0), Exponential(1.0), threshold=1.0)

    def test_truncation_policy_bounds(self):
        with pytest.raises(ValueError):
            TruncationPolicy(tail_epsilon=1e-2)
        with pytest.raises(ValueError):
            TruncationPolicy(tail_epsilon=0.0)
        with pytest.raises(ValueError):
            TruncationPolicy(max_terms_per_axis=0)
