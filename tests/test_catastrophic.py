"""First-failure model tests: factorization, closed-form means, quadrature."""

import math
import pathlib
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy import special

from _oracles import quad_mean_of_min
from twoshock.catastrophic import (
    _REACH_LENGTH,
    CatastrophicModel,
    fptf_cdf,
    mean_fptf,
    mean_fptf_quadrature,
    survival_curve,
    survival_probability,
)
from twoshock.distributions import _SERIES_LIMIT, Erlang, Exponential, Weibull
from twoshock.errors import NonConvergedError
from twoshock.gamma_convolution import _phase_pmf, _phase_reach
from twoshock import numerics
from twoshock.numerics import QuadraturePolicy

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
RATES = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)


class TestSurvivalProbability:
    @pytest.mark.parametrize("field", ["proc1", "proc2"])
    def test_processes_must_be_distributions(self, field):
        procs = {"proc1": Exponential(1.0), "proc2": Exponential(2.0), field: 1.0}
        with pytest.raises(ValueError, match=f"{field} must be a Distribution"):
            CatastrophicModel(**procs)

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
        # The README's Library block runs as written, imports included, and
        # its `unit` model gives the values the block prints.
        section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        names: dict = {}
        exec(block, names)
        unit = names["unit"]
        assert unit == CatastrophicModel(Erlang(2, 1.0), Exponential(1.0))
        assert survival_probability(unit, 1.0) == pytest.approx(2.0 * math.exp(-2.0),
                                                                 abs=1e-16)
        assert mean_fptf(unit) == pytest.approx(0.75, rel=1e-15)


PARAMS = st.floats(min_value=1e-3, max_value=1e3)
PROCESSES = st.one_of(st.builds(Exponential, PARAMS),
                      st.builds(Erlang, st.integers(1, 80), PARAMS),
                      st.builds(Weibull, st.floats(0.1, 10.0), PARAMS))


def _edge_times(model: CatastrophicModel) -> list:
    """0, a subnormal, huge times, inf, and rate * t a few ulps either side of _SERIES_LIMIT."""
    times = [0.0, 5e-324, 1e100, 1e300, math.inf]
    for proc in (model.proc1, model.proc2):
        if isinstance(proc, Erlang):
            edge = _SERIES_LIMIT / proc.rate
            times += [edge * (1.0 - 1e-15), edge, edge * (1.0 + 1e-15)]
    return times


class TestSurvivalCurve:
    @given(proc1=PROCESSES, proc2=PROCESSES,
           times=st.lists(st.floats(min_value=0.0, allow_nan=False), max_size=30))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_bit_identical_to_survival_probability(self, proc1, proc2, times):
        model = CatastrophicModel(proc1, proc2)
        grid = times + _edge_times(model)
        assert survival_curve(model, grid).tolist() == [
            survival_probability(model, t) for t in grid]

    @pytest.mark.parametrize("proc2", [Exponential(2.0), Weibull(1.5, 80.0)],
                             ids=["exponential", "weibull"])
    def test_long_erlang_series_bit_identical_to_survival_probability(self, proc2):
        # Shape 200 cuts the curve's recurrence at the reach of its largest
        # x; points with x << shape stop the scalar series far earlier.
        model = CatastrophicModel(Erlang(200, 1.0), proc2)
        grid = np.concatenate([np.geomspace(1e-6, 30.0, 40), np.linspace(150.0, 260.0, 45),
                               [5e-324, 199.0, 200.0, 201.0, 650.0]])
        assert survival_curve(model, grid).tolist() == [
            survival_probability(model, t) for t in grid.tolist()]

    def test_edge_times_straddle_the_series_limit(self):
        rate = 19.27
        x = [rate * t for t in _edge_times(CatastrophicModel(Erlang(50, rate), Weibull(1, 1)))]
        assert any(_SERIES_LIMIT - 1e-9 < v < _SERIES_LIMIT for v in x)
        assert any(_SERIES_LIMIT < v < _SERIES_LIMIT + 1e-9 for v in x)

    @pytest.mark.parametrize("proc", [Exponential(2.0), Erlang(3, 2.0), Weibull(0.8, 1.5)],
                             ids=["exponential", "erlang", "weibull"])
    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    def test_negative_or_nan_time_raises_as_the_scalar_path(self, proc, bad):
        model = CatastrophicModel(proc, proc)
        with pytest.raises(ValueError, match="nonnegative") as scalar:
            survival_probability(model, bad)
        with pytest.raises(ValueError, match="nonnegative") as curve:
            survival_curve(model, [0.5, bad, 1.0])
        assert str(curve.value) == str(scalar.value)

    @pytest.mark.parametrize("proc", [Erlang(3, 2.0), Weibull(0.8, 1.5)],
                             ids=["erlang", "weibull"])
    @pytest.mark.parametrize("grid, shape", [([[0.5, 1.0]], r"\(1, 2\)"), (1.0, r"\(\)")],
                             ids=["2-D", "scalar"])
    def test_grid_must_be_1d(self, proc, grid, shape):
        with pytest.raises(ValueError, match=rf"1-D, got shape {shape}$"):
            survival_curve(CatastrophicModel(proc, proc), grid)

    def test_empty_grid(self):
        curve = survival_curve(CatastrophicModel(Erlang(3, 1.0), Weibull(2.0, 1.0)), [])
        assert curve.shape == (0,) and curve.dtype == np.float64


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


    @pytest.mark.parametrize("t", [1e-12, 1e-9, 1e-6])
    def test_early_failure_keeps_relative_accuracy(self, t):
        # 1 - S1 S2 had relative errors 2.2e-5, 2.7e-8 and 5.3e-12 here.
        model = CatastrophicModel(Exponential(1.0), Exponential(1.0))
        assert fptf_cdf(model, t) == pytest.approx(-math.expm1(-2.0 * t), rel=1e-15, abs=0.0)

    def test_erlang_weibull_pair_matches_scipy(self):
        model = CatastrophicModel(Erlang(2, 1.0), Weibull(1.5, 2.0))
        for t in np.geomspace(1e-12, 10.0, 45):
            reference = (special.gammainc(2, t)
                         + special.gammaincc(2, t) * -math.expm1(-(t / 2.0) ** 1.5))
            assert fptf_cdf(model, float(t)) == pytest.approx(reference, rel=1e-14, abs=0.0)


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

    @pytest.mark.parametrize("shape, scale1, scale2, log_mean", [
        (2.0, 1e-200, 1e-200, math.log(1e-200) + math.lgamma(1.5) - 0.5 * math.log(2.0)),
        (2.0, 1e200, 1e200, math.log(1e200) + math.lgamma(1.5) - 0.5 * math.log(2.0)),
        (2.0, 1e-200, 1.0, math.log(1e-200) + math.lgamma(1.5)),  # pooled rate 1e400 + 1
        # pooled scale 1e-300 * 2^-100 underflows
        (0.01, 1e-300, 1e-300, math.log(1e-300) - 100.0 * math.log(2.0) + math.lgamma(101.0)),
    ], ids=["tiny-pair", "huge-pair", "tiny-and-one", "underflowing-pooled-scale"])
    def test_weibull_equal_shape_at_double_range(self, shape, scale1, scale2, log_mean):
        # Each scale ** -shape leaves the double range; the mean does not.
        model = CatastrophicModel(Weibull(shape, scale1), Weibull(shape, scale2))
        assert mean_fptf(model) == pytest.approx(math.exp(log_mean), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("model", [
        CatastrophicModel(Erlang(2, 1.0), Erlang(2, 1.5)),      # equal shapes
        CatastrophicModel(Erlang(3, 2.0), Erlang(2, 1.0)),      # no closed form
        CatastrophicModel(Weibull(1.5, 1.0), Weibull(2.5, 2.0)),  # unequal alphas
        CatastrophicModel(Erlang(2, 1.0), Weibull(2.0, 1.0)),   # mixed families
    ])
    def test_all_branches_agree_with_quadrature(self, model):
        reference = mean_fptf_quadrature(model)
        assert mean_fptf(model) == pytest.approx(reference, rel=1e-8)

    def test_weibull_tiny_shape_mixed_pair(self):
        # The Weibull mean is past the double range; the pair's is finite.
        model = CatastrophicModel(Erlang(2, 1.0), Weibull(0.005, 1.0))
        assert mean_fptf(model) == pytest.approx(0.73604290516537, rel=1e-10)

    @pytest.mark.parametrize("scale", [1e-300, 5e-308])
    def test_weibull_scale_at_bottom_of_double_range(self, scale):
        # The quadrature's left scan passes log t = -708, where t underflows
        # to 0 and the integrand ends; the Erlang leaves the Weibull's mean.
        model = CatastrophicModel(Weibull(1.5, scale), Erlang(2, 1.0))
        assert mean_fptf(model) == pytest.approx(scale * math.gamma(1.0 + 1.0 / 1.5),
                                                 rel=1e-12, abs=0.0)

    def test_two_infinite_means_raise(self):
        model = CatastrophicModel(Weibull(0.005, 1.0), Weibull(0.004, 1.0))
        with pytest.raises(NonConvergedError, match="initial_scale"):
            mean_fptf(model)

    def test_erlang_of_large_shape_beside_an_exponential_is_cheap(self):
        # The Exp(1) process's phase pmf, (1/2)^s, rounds to 0 past s = 1,075,
        # and the Erlang(10^7) one is 0 everywhere below 10^7 + 1.
        model = CatastrophicModel(Erlang(10 ** 7, 1.0), Exponential(1.0))
        tracemalloc.start()
        try:
            start = time.perf_counter()
            value = mean_fptf(model)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == pytest.approx(1.0, abs=1e-12)
        assert peak < 16 * 2 ** 20
        assert elapsed < 0.1

    def test_rate_ratio_below_the_smallest_double(self):
        # The slower rate over the summed one underflows to 0: its phase pmf is 0.
        model = CatastrophicModel(Exponential(1e-300), Exponential(1e300))
        assert mean_fptf(model) == pytest.approx(1e-300, rel=1e-15, abs=0.0)

    def test_cut_phase_pmfs_give_the_whole_sum_bit_for_bit(self):
        # The sum over all m1 + m2 phases, built whole.
        rng = np.random.default_rng(29)
        cuts = 0
        for _ in range(400):
            shapes = rng.integers(1, 2001, 2)
            rates = 10.0 ** rng.uniform(-2.0, 2.0, 2)
            first, second = (Erlang(int(m), float(r)) for m, r in zip(shapes, rates))
            total, length = first.rate + second.rate, first.shape + second.shape
            pmf = (_phase_pmf(first.shape, first.rate, total, length)
                   + _phase_pmf(second.shape, second.rate, total, length))
            whole = float(np.arange(length, dtype=float) @ pmf) / total
            assert mean_fptf(CatastrophicModel(first, second)) == whole
            cuts += length > _REACH_LENGTH and max(
                _phase_reach(mark.shape, mark.rate, total, length)
                for mark in (first, second)) < length
        assert cuts >= 50

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

    @pytest.mark.parametrize("model, upper", [
        (CatastrophicModel(Erlang(2, 1.0), Erlang(2, 1.0)), 80.0),
        (CatastrophicModel(Weibull(0.3, 1.0), Weibull(0.5, 2.0)), 1e4),
        (CatastrophicModel(Erlang(3, 1.14), Weibull(1.4, 1 / 1.52)), 80.0),
        (CatastrophicModel(Erlang(6, 1.46), Weibull(1.8, 1 / 1.28)), 80.0),
        # the peak lies below the larger mean and near the smaller one
        (CatastrophicModel(Erlang(200, 1.0), Weibull(0.6, 500.0)), 1e3),
    ], ids=["erlang-pair", "weibull-pair", "erlang3-weibull", "erlang6-weibull",
            "erlang200-weibull"])
    def test_against_scipy_reference(self, model, upper):
        reference = quad_mean_of_min(model.proc1.survival, model.proc2.survival, upper)
        assert mean_fptf_quadrature(model) == pytest.approx(reference, rel=1e-10)

    @pytest.mark.parametrize("factor", [1e-20, 1e20])
    def test_scale_invariance(self, factor):
        # Multiplying every rate by factor divides every time by it.
        model = CatastrophicModel(Erlang(3, 1.14), Weibull(1.4, 1 / 1.52))
        scaled = CatastrophicModel(Erlang(3, 1.14 * factor), Weibull(1.4, 1 / (1.52 * factor)))
        reference = quad_mean_of_min(model.proc1.survival, model.proc2.survival, 80.0)
        assert mean_fptf_quadrature(scaled) * factor == pytest.approx(reference, rel=1e-10)

    @pytest.mark.parametrize("y", [1e-3, 1e-2, 0.1, 0.5, 1.0, 3.0, 10.0, 30.0, 100.0])
    def test_exponential_weibull2_against_erfcx(self, y):
        # The integral of exp(-2 y t - t^2) over [0, inf) is (sqrt(pi) / 2) erfcx(y).
        model = CatastrophicModel(Exponential(2.0 * y), Weibull(2.0, 1.0))
        exact = 0.5 * math.sqrt(math.pi) * float(special.erfcx(y))
        assert mean_fptf(model) == pytest.approx(exact, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("shape", [0.05, 0.3, 1.0, 2.5, 7.0, 20.0])
    @pytest.mark.parametrize("base", [1.0, 1e-100, 1e100])
    @pytest.mark.parametrize("ratio", [1.0, 2.5, 0.3])
    def test_common_shape_weibull_against_closed_form(self, shape, base, ratio):
        model = CatastrophicModel(Weibull(shape, base), Weibull(shape, ratio * base))
        assert mean_fptf_quadrature(model) == pytest.approx(mean_fptf(model), rel=1e-12, abs=0.0)

    def test_erlang_weibull_mean_takes_few_survival_evaluations(self, monkeypatch):
        calls = [0]
        survival = Weibull.survival

        def counted(self, t):
            calls[0] += 1
            return survival(self, t)

        monkeypatch.setattr(Weibull, "survival", counted)
        value = mean_fptf(CatastrophicModel(Erlang(2, 0.5), Weibull(0.6, 0.5)))
        assert value == pytest.approx(0.6174270521238168, rel=1e-12, abs=0.0)
        assert calls[0] <= 100

    @pytest.mark.parametrize("bad", [1.0, 0.0])
    def test_rel_tol_must_be_below_one(self, bad):
        with pytest.raises(ValueError, match="rel_tol must be in"):
            QuadraturePolicy(rel_tol=bad)

    def test_budget_exhaustion_raises(self, monkeypatch):
        model = CatastrophicModel(Exponential(1.0), Exponential(1.0))
        monkeypatch.setattr(numerics, "_MAX_EVALS", 20)
        policy = QuadraturePolicy(rel_tol=1e-12)
        with pytest.raises(NonConvergedError):
            mean_fptf_quadrature(model, policy)
