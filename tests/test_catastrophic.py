"""First-failure model tests: factorization, closed-form means, quadrature."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import quad_mean_of_min
from twoshock.catastrophic import (
    CatastrophicModel,
    fptf_cdf,
    mean_fptf,
    mean_fptf_quadrature,
    survival_probability,
)
from twoshock.distributions import Erlang, Exponential, Weibull
from twoshock.errors import NonConvergedError
from twoshock.numerics import QuadraturePolicy

RATES = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)


class TestSurvivalProbability:
    def test_one_at_origin(self):
        for model in (
            CatastrophicModel(Exponential(1.0), Exponential(2.0)),
            CatastrophicModel(Erlang(2, 1.0), Weibull(2.0, 1.0)),
        ):
            assert survival_probability(model, 0.0) == 1.0

    def test_exponential_pair_merges_rates(self):
        model = CatastrophicModel(Exponential(1.0), Exponential(2.0))
        assert survival_probability(model, 1.0) == pytest.approx(math.exp(-3.0), abs=1e-16)

    def test_erlang_pair_frozen_value(self):
        # exp(-2) * (1 + 1) * 1 at t=1
        model = CatastrophicModel(Erlang(2, 1.0), Erlang(1, 1.0))
        assert survival_probability(model, 1.0) == pytest.approx(
            0.2706705664732254, abs=1e-16)

    def test_factorizes_exactly(self):
        pairs = [
            (Exponential(1.3), Erlang(3, 0.7)),
            (Erlang(2, 1.0), Weibull(1.5, 2.0)),
            (Weibull(0.8, 1.0), Weibull(2.0, 0.5)),
        ]
        for p1, p2 in pairs:
            model = CatastrophicModel(p1, p2)
            for t in (0.0, 0.4, 1.7, 6.0):
                assert survival_probability(model, t) == p1.survival(t) * p2.survival(t)

    def test_negative_time_rejected(self):
        model = CatastrophicModel(Exponential(1.0), Exponential(1.0))
        with pytest.raises(ValueError, match="nonnegative"):
            survival_probability(model, -1.0)

    def test_readme_library_example(self):
        # The values the README's Library section prints for its `unit` model.
        unit = CatastrophicModel(Erlang(2, 1.0), Exponential(1.0))
        assert survival_probability(unit, 1.0) == pytest.approx(2.0 * math.exp(-2.0),
                                                                 abs=1e-16)
        assert mean_fptf(unit) == pytest.approx(0.75, rel=1e-15)


class TestFptfCdf:
    def test_zero_at_origin(self):
        model = CatastrophicModel(Weibull(2.0, 1.0), Weibull(2.0, 2.0))
        assert fptf_cdf(model, 0.0) == 0.0

    def test_weibull_pair_frozen_value(self):
        model = CatastrophicModel(Weibull(2.0, 1.0), Weibull(2.0, 2.0))
        assert fptf_cdf(model, 1.0) == pytest.approx(0.7134952031398099, abs=1e-15)

    def test_exponential_complement(self):
        model = CatastrophicModel(Exponential(1.0), Exponential(2.0))
        assert fptf_cdf(model, 1.0) == pytest.approx(1.0 - math.exp(-3.0), abs=1e-15)

    @given(rate1=RATES, rate2=RATES, t=st.floats(min_value=0.0, max_value=20.0))
    @settings(max_examples=150, derandomize=True)
    def test_complements_survival(self, rate1, rate2, t):
        model = CatastrophicModel(Erlang(2, rate1), Exponential(rate2))
        assert fptf_cdf(model, t) + survival_probability(model, t) == pytest.approx(
            1.0, abs=1e-15)


class TestMeanFptf:
    def test_exponential_pair(self):
        model = CatastrophicModel(Exponential(1.0), Exponential(2.0))
        assert mean_fptf(model) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_erlang_single_shape_branch(self):
        model = CatastrophicModel(Erlang(2, 1.0), Erlang(1, 1.0))
        assert mean_fptf(model) == pytest.approx(0.75, abs=1e-15)

    def test_erlang_branch_symmetric_in_arguments(self):
        a = CatastrophicModel(Erlang(3, 1.5), Exponential(0.5))
        b = CatastrophicModel(Exponential(0.5), Erlang(3, 1.5))
        assert mean_fptf(a) == mean_fptf(b)

    def test_erlang_shape_one_equals_exponential_dispatch(self):
        # Both spellings of the same model must take the same value.
        with_erlang = CatastrophicModel(Erlang(2, 1.0), Erlang(1, 2.0))
        with_expo = CatastrophicModel(Erlang(2, 1.0), Exponential(2.0))
        assert mean_fptf(with_erlang) == mean_fptf(with_expo)

    def test_weibull_equal_shape_branch(self):
        model = CatastrophicModel(Weibull(2.0, 1.0), Weibull(2.0, 1.0))
        assert mean_fptf(model) == pytest.approx(0.6266570686577501, abs=1e-13)

    @pytest.mark.parametrize("model", [
        CatastrophicModel(Erlang(2, 1.0), Erlang(2, 1.5)),      # equal shapes
        CatastrophicModel(Erlang(3, 2.0), Erlang(2, 1.0)),      # no closed form
        CatastrophicModel(Weibull(1.5, 1.0), Weibull(2.5, 2.0)),  # unequal alphas
        CatastrophicModel(Erlang(2, 1.0), Weibull(2.0, 1.0)),   # mixed families
    ])
    def test_all_branches_agree_with_quadrature(self, model):
        reference = mean_fptf_quadrature(model)
        assert mean_fptf(model) == pytest.approx(reference, rel=1e-8)

    def test_monotone_in_rates(self):
        base = mean_fptf(CatastrophicModel(Erlang(2, 1.0), Exponential(1.0)))
        for rate in (1.5, 2.0, 4.0):
            faster = mean_fptf(CatastrophicModel(Erlang(2, rate), Exponential(1.0)))
            assert faster <= base
            base = faster

    def test_monotone_in_weibull_scale(self):
        means = [
            mean_fptf(CatastrophicModel(Weibull(2.0, scale), Weibull(2.0, 1.0)))
            for scale in (2.0, 1.0, 0.5, 0.25)
        ]
        assert all(b <= a for a, b in zip(means, means[1:]))


class TestMeanFptfQuadrature:
    def test_exponential_exact(self):
        model = CatastrophicModel(Exponential(1.0), Exponential(1.0))
        assert mean_fptf_quadrature(model) == pytest.approx(0.5, abs=1e-10)

    def test_weibull_shape_one_reduction(self):
        model = CatastrophicModel(Weibull(1.0, 1.0), Weibull(1.0, 0.5))
        assert mean_fptf_quadrature(model) == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_against_scipy_reference(self):
        model = CatastrophicModel(Erlang(2, 1.0), Erlang(2, 1.0))
        reference = quad_mean_of_min(model.proc1.survival, model.proc2.survival, 80.0)
        assert mean_fptf_quadrature(model) == pytest.approx(reference, rel=1e-9)

    def test_budget_exhaustion_raises(self):
        model = CatastrophicModel(Exponential(1.0), Exponential(1.0))
        policy = QuadraturePolicy(rel_tol=1e-12, tail_cut=1e-16, max_evals=20)
        with pytest.raises(NonConvergedError):
            mean_fptf_quadrature(model, policy)
