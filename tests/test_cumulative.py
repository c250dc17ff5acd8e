"""Damage-model tests: series values, truncation honesty, reductions, errors."""

import math
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (compound_poisson_exponential_reference, equal_exponential_marks_failure_law,
                      merged_phase_sequences_decimal)
from twoshock import cumulative
from twoshock.cumulative import (
    CumulativeModel,
    GeneralCumulativeModel,
    TruncationPolicy,
    _compound_poisson_pmf,
    _erlang_axis,
    _random_sum_pmf,
    _mark_params,
    _renewal_counts,
    compound_poisson_exponential_cdf,
    damage_cdf,
    damage_mean,
    general_damage_cdf,
    general_damage_mean,
    model2_fptf_cdf,
    model2_fptf_curve,
    model2_fptf_mean,
)
from twoshock.distributions import Erlang, Exponential, Weibull, _poisson_reach
from twoshock.gamma_convolution import _erlang_cdf_terms, _phase_pmf
from twoshock.errors import NonConvergedError, UnsupportedConvolutionError

SYMMETRIC = CumulativeModel(1.0, 1.0, Exponential(1.0), Exponential(1.0), threshold=3.0)
MIXED = CumulativeModel(1.0, 2.0, Erlang(3, 2.0), Erlang(1, 1.0), threshold=5.0)
# The bench's MIX marks: a slower Erlang(2, 1) beside Exp(2).
MIX = CumulativeModel(0.5, 1.5, Erlang(2, 1.0), Exponential(2.0), threshold=4.0)
# rate1 * t overflows to inf at t = 1e10; at t = 1 it is the finite 1e300.
HUGE_RATE = CumulativeModel(1e300, 1.0, Exponential(1.0), Exponential(1.0), threshold=3.0)
HUGE_RENEWALS = GeneralCumulativeModel(Erlang(2, 1e300), Exponential(1.0),
                                       Exponential(1.0), Exponential(1.0), threshold=3.0)


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

    def test_term_cap_raises(self, monkeypatch):
        monkeypatch.setattr(cumulative, "_MAX_TERMS", 3)
        with pytest.raises(NonConvergedError):
            damage_cdf(SYMMETRIC, 5.0, 1.0, TruncationPolicy(tail_epsilon=1e-10))

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
        # mu_f * x = 9800 needs more phases than the default cap; the
        # compound-Poisson pmf (mean 2) has all its mass far below it.
        assert not _erlang_axis(SYMMETRIC, 9800.0, 1e-10)[3]
        value = damage_cdf(SYMMETRIC, 1.0, 9800.0)
        assert 1.0 - 1e-10 <= value <= 1.0

    def test_level_far_past_phase_cap_keeps_arrays_short(self):
        # The Erlang CDFs asked for at mu_f * x = 1e7 are all about 1; they
        # come from head sums of the capped length, not from a Poisson array
        # about 1e7 terms long.
        model = CumulativeModel(1.0, 1.0, Exponential(1.0), Exponential(1.0), threshold=2.0)
        tracemalloc.start()
        try:
            value = damage_cdf(model, 1.0, 1e7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 1.0 - 1e-10 <= value <= 1.0
        assert peak < 5e6

    def test_level_past_phase_cap_raises_when_mass_cannot_show_bound(self):
        with pytest.raises(NonConvergedError):
            damage_cdf(SYMMETRIC, 1.0, 9800.0, TruncationPolicy(tail_epsilon=1e-300))

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            damage_cdf(SYMMETRIC, -1.0, 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            damage_cdf(SYMMETRIC, 1.0, -1.0)
        with pytest.raises(ValueError, match="finite"):
            damage_cdf(SYMMETRIC, math.inf, 1.0)
        with pytest.raises(ValueError, match="finite"):
            damage_cdf(SYMMETRIC, 1.0, math.inf)


def test_panjer_forward_slices_match_reversed_recursion():
    # g(s) = (mean / s) sum_j j jumps(j) g(s - j), as a loop over g reversed in place
    jumps = np.zeros(60)
    jumps[1:] = np.exp(-0.3 * np.arange(1, 60))
    jumps /= jumps.sum()
    for mean in (0.5, 7.0, 600.0):  # the last is halved and squared back up
        got = _compound_poisson_pmf(mean, jumps)
        part, halvings = mean, 0
        while part > 500.0:
            part, halvings = part / 2.0, halvings + 1
        ref = np.zeros(len(jumps))
        ref[0] = math.exp(-part)
        weighted = part * np.arange(len(jumps)) * jumps
        for s in range(1, len(jumps)):
            ref[s] = weighted[1:s + 1] @ ref[s - 1::-1] / s
        for _ in range(halvings):
            ref = np.convolve(ref, ref)[:len(jumps)]
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-300)


@pytest.mark.parametrize("t,x", [(700.0 / 3.0, 800.0), (300.0, 1000.0), (300.0, 500.0),
                                 (582.0, 2000.0)])
def test_halved_panjer_matches_split_streams(t, x):
    # README marks at Poisson means 700, 900 and 1,746, past _PANJER_MAX_MEAN:
    # the merged Panjer pmf is halved and squared.  The oracle keeps the two
    # streams apart: the faster-rate mark on its lattice, the slower one
    # summed as Poisson-many Erlang marks, with no recursion and no squaring.
    _, _, cdfs, converged = _erlang_axis(MIXED, x, 1e-10)
    n = len(cdfs)
    fast = max(MIXED.mag1.rate, MIXED.mag2.rate)
    g = np.ones(1)
    for rate, mag in ((MIXED.rate1, MIXED.mag1), (MIXED.rate2, MIXED.mag2)):
        counts = _renewal_counts(1, rate * t, 0.0, n)
        g = np.convolve(g, _random_sum_pmf(counts, mag.shape, mag.rate, fast, n))[:n]
    assert converged
    assert damage_cdf(MIXED, t, x) == pytest.approx(float(g @ cdfs), rel=1e-13, abs=0.0)


def _mark_pmfs(model, fast: float, n: int) -> list[np.ndarray]:
    """Phase pmfs of mag1 and mag2 in Exp(fast) phases, cut at n."""
    return [_phase_pmf(mag.shape, mag.rate, fast, n) for mag in (model.mag1, model.mag2)]


def _merged_jumps(model: CumulativeModel, n: int) -> np.ndarray:
    """Per-shock phase pmf cut at n: the two marks' pmfs mixed by arrival rate."""
    f1, f2 = _mark_pmfs(model, max(model.mag1.rate, model.mag2.rate), n)
    return (model.rate1 * f1 + model.rate2 * f2) / (model.rate1 + model.rate2)


def _dense_renewal(model: CumulativeModel, n: int) -> np.ndarray:
    """U(s) for s < n from U(s) = sum_j f(j) U(s - j), f the merged per-shock phase pmf."""
    steps = _merged_jumps(model, n)
    u = np.zeros(n)
    u[0] = 1.0
    for s in range(1, n):
        u[s] = steps[1:s + 1] @ u[s - 1::-1]
    return u


def _convolution_powers(counts: np.ndarray, mark: np.ndarray) -> np.ndarray:
    """sum_k counts[k] mark^{*k}, each power a full-length convolution cut at len(mark)."""
    n = len(mark)
    power = np.zeros(n)
    power[0] = 1.0
    out = counts[0] * power
    for weight in counts[1:]:
        power = np.convolve(power, mark)[:n]
        out += weight * power
    return out


def _assert_close_to_subnormals(got, expected, rtol, subnormal_atol):
    """got within rtol of expected where that is a normal double, else within subnormal_atol."""
    normal = expected >= np.finfo(float).tiny
    np.testing.assert_allclose(got[normal], expected[normal], rtol=rtol, atol=0)
    np.testing.assert_allclose(got[~normal], expected[~normal], rtol=0, atol=subnormal_atol)


class TestLatticeRoutes:
    """Equal mark rates: every mark is a fixed number of phases."""

    # (mu, rate1, rate2, t, x): mark rates 1e-2 to 1e3; the third has a
    # Poisson mean of 850, past exp underflow, and the fourth needs more
    # phases than _MAX_TERMS, its series cut by the pmf mass.
    POINTS = [(1e-2, 1e-2, 1e3, 0.3, 500.0), (1e3, 2.0, 0.5, 1.5, 4e-3),
              (1.0, 400.0, 450.0, 1.0, 1500.0), (3.0, 0.7, 1.3, 2.0, 3500.0)]

    @pytest.mark.parametrize("m1", range(1, 6))
    @pytest.mark.parametrize("m2", range(1, 6))
    def test_damage_cdf_matches_merged_panjer_route(self, m1, m2):
        policy = TruncationPolicy()
        converged = []
        for mu, rate1, rate2, t, x in self.POINTS:
            model = CumulativeModel(rate1, rate2, Erlang(m1, mu), Erlang(m2, mu), threshold=1.0)
            _, z, cdfs, done = _erlang_axis(model, x, policy.tail_epsilon)
            g = _compound_poisson_pmf((rate1 + rate2) * t, _merged_jumps(model, len(cdfs)))
            panjer = cumulative._phase_series(g, cdfs, done, policy, z)
            assert damage_cdf(model, t, x, policy) == pytest.approx(panjer, abs=1e-13, rel=0.0)
            converged.append(done)
        assert converged == [True, True, True, False]

    @pytest.mark.parametrize("m1,m2", [(1, 1), (3, 3), (1, 2), (2, 1), (2, 5), (4, 3)])
    def test_two_atom_renewal_and_mean_match_dense_loop(self, m1, m2):
        for rate1, rate2, mu, threshold in [(1.0, 2.0, 1.0, 40.0), (0.01, 50.0, 3.0, 100.0),
                                            (7.0, 0.2, 0.5, 1e3)]:
            model = CumulativeModel(rate1, rate2, Erlang(m1, mu), Erlang(m2, mu),
                                    threshold=threshold)
            cdfs = _erlang_axis(model, threshold, 1e-10)[2]
            dense = _dense_renewal(model, len(cdfs))
            u = cumulative._lattice_renewal(model, m1, m2, len(cdfs))
            np.testing.assert_allclose(u, dense, rtol=1e-13, atol=1e-300)
            assert model2_fptf_mean(model) == pytest.approx(
                float(dense @ cdfs) / (rate1 + rate2), rel=1e-13)

    def test_mark_of_many_phases_pads_only_the_series_length(self):
        # The Erlang(10^7) mark's shift is past every phase of the few-term series.
        model = CumulativeModel(1.0, 1.0, Erlang(10 ** 7, 1.0), Exponential(1.0), threshold=1.0)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            value = model2_fptf_mean(model)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == 0.6967346701436794
        assert elapsed < 0.1
        assert peak < 16 * 2 ** 20

    @pytest.mark.parametrize("mu,rate1,rate2,threshold", [
        (1.0, 1.0, 1.0, 1.0), (2.0, 0.3, 5.0, 25.0), (0.5, 3.0, 1.0, 1400.0),
        (10.0, 0.01, 0.02, 500.0)])
    def test_equal_exponential_mean_is_closed_form(self, mu, rate1, rate2, threshold):
        # U == 1, so E[T] = (1 + mu K) / L less the terms past the stop S, which
        # sum to at most tail_epsilon (S + 1) / ((S + 1 - mu K) L); mu K up to 5,000.
        eps = 1e-10
        model = CumulativeModel(rate1, rate2, Exponential(mu), Exponential(mu), threshold)
        total = rate1 + rate2
        s = len(_erlang_axis(model, threshold, eps)[2])
        exact = (1.0 + mu * threshold) / total
        rounding = s * sys.float_info.epsilon * exact
        mean = model2_fptf_mean(model, TruncationPolicy(eps))
        assert exact - eps * (s + 1) / ((s + 1 - mu * threshold) * total) - rounding <= mean
        assert mean <= exact + rounding

    # A slower mark cut at n = shape + 1 is one atom of mass below 1: no lattice.
    @pytest.mark.parametrize("shape,rate,fast,n", [
        (1, 1.0, 1.0, 1), (1, 2.0, 2.0, 50), (3, 0.5, 0.5, 50), (7, 3.0, 3.0, 20),
        (20, 1.0, 1.0, 20), (3, 0.3 ** (1 / 3), 1.0, 4)])
    def test_random_sum_of_one_atom_mark_is_convolution_powers(self, shape, rate, fast, n):
        mark = _phase_pmf(shape, rate, fast, n)
        assert np.count_nonzero(mark) == (shape < n)
        counts = _renewal_counts(2, 30.0, 1e-12, n)
        power = np.zeros(n)
        power[0] = 1.0
        expected = counts[0] * power
        for weight in counts[1:]:
            power = np.convolve(power, mark)[:n]
            expected += weight * power
        got = _random_sum_pmf(counts, shape, rate, fast, n)
        assert not expected[len(got):].any()  # a fast-rate lattice may end before n
        assert got.tobytes() == expected[:len(got)].tobytes()

    @pytest.mark.parametrize("model", [
        SYMMETRIC, CumulativeModel(0.7, 1.3, Erlang(2, 1.0), Exponential(1.0), threshold=4.0)])
    def test_lattice_routes_build_no_mark_pmf(self, model, monkeypatch):
        expected = [damage_cdf(model, 2.0, 5.0), model2_fptf_mean(model)]

        def no_mark_pmfs(*args):
            raise AssertionError("a lattice route built a mark phase pmf")

        monkeypatch.setattr(cumulative, "_phase_pmf", no_mark_pmfs)
        assert [damage_cdf(model, 2.0, 5.0), model2_fptf_mean(model)] == expected


def _stage_model(shape: int, p: float, fast_shape: int, threshold: float = 1.0) -> CumulativeModel:
    """A slower Erlang(shape, 2p) mark beside a faster Erlang(fast_shape, 2); rates 0.7, 1.9."""
    return CumulativeModel(0.7, 1.9, Erlang(shape, 2.0 * p), Erlang(fast_shape, 2.0), threshold)


class TestStageRoutes:
    """Unequal mark rates: the slower mark's phases summed by running stage sums."""

    PROBS = (1e-6, 1e-3, 0.1, 0.5, 0.9, 1.0 - 1e-3, 1.0 - 1e-6)
    SHAPES = range(1, cumulative._STAGE_SHAPE + 2)  # the first shape past the constant too

    @pytest.mark.parametrize("shape", SHAPES)
    def test_stage_pmf_matches_dot_panjer(self, shape):
        # Both routes gain a few ulps of relative error per phase (up to
        # 8.6e-14 each from a 40-digit Panjer at mean 1,746), and each
        # squaring past _PANJER_MAX_MEAN can double a relative difference.
        n = 800
        for p in self.PROBS:
            for fast_shape in (1, 3):
                model = _stage_model(shape, p, fast_shape)
                jumps = _merged_jumps(model, n)
                stages = cumulative._stages(model)
                for mean, halvings in ((0.1, 0), (2.0, 0), (499.0, 0), (700.0, 1), (1746.0, 2),
                                       (math.inf, 0)):
                    dots = _compound_poisson_pmf(mean, jumps)
                    got = cumulative._halved(
                        mean, n, lambda part: cumulative._stage_panjer(part, stages, n))
                    kept = dots >= 1e-300
                    np.testing.assert_allclose(got[kept], dots[kept], rtol=1e-13 * 2 ** halvings,
                                               atol=0)
                    assert np.all(got[~kept] < 1e-290)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_stage_mean_matches_dot_loop(self, shape):
        for p in self.PROBS:
            for fast_shape, threshold in ((1, 40.0), (3, 300.0)):
                model = _stage_model(shape, p, fast_shape, threshold)
                cdfs = _erlang_axis(model, threshold, 1e-10)[2]
                total = model.rate1 + model.rate2
                dense = float(_dense_renewal(model, len(cdfs)) @ cdfs) / total
                stage = float(cumulative._stage_renewal(cumulative._stages(model), len(cdfs))
                              @ cdfs) / total
                assert stage == pytest.approx(dense, rel=1e-13, abs=0)
                assert model2_fptf_mean(model) == (
                    stage if shape <= cumulative._STAGE_SHAPE else pytest.approx(dense, rel=1e-14))

    @pytest.mark.parametrize("rates,marks,mean,n", [
        ((0.5, 1.5), ((2, 1.0), (1, 2.0)), 2.0, 200),  # MIX marks
        ((1.0, 2.0), ((3, 2.0), (1, 1.0)), 60.0, 400),  # README marks
        ((0.7, 1.9), ((4, 1.98), (3, 2.0)), 30.0, 300)])  # p = 0.99, the fast mark 3 phases
    def test_stage_sequences_match_decimal_panjer(self, rates, marks, mean, n):
        model = CumulativeModel(*rates, Erlang(*marks[0]), Erlang(*marks[1]), threshold=1.0)
        g_ref, u_ref = merged_phase_sequences_decimal(rates, marks, mean, n)
        stages = cumulative._stages(model)
        g = cumulative._stage_panjer(mean, stages, n)
        kept = g_ref >= 1e-300
        np.testing.assert_allclose(g[kept], g_ref[kept], rtol=1e-13, atol=0)
        np.testing.assert_allclose(cumulative._stage_renewal(stages, n), u_ref, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("rates,marks", [
        ((0.7, 1.9), ((3, 2.0), (1, 2.0))), ((0.7, 1.9), ((2, 2.0), (2, 2.0))),
        ((1.0, 2.0), ((3, 2.0), (1, 1.0))), ((0.5, 1.5), ((1, 2.0), (2, 1.0))),
        ((3.0, 0.2), ((12, 0.3), (4, 3.0))), ((1.0, 1.0), ((5, 1e-3), (5, 1.0)))])
    def test_jumps_are_the_marks_mixed_by_arrival_rate(self, rates, marks, monkeypatch):
        model = CumulativeModel(*rates, Erlang(*marks[0]), Erlang(*marks[1]), threshold=1.0)
        for n in (1, 3, 40, 800):
            expected = _merged_jumps(model, n)
            normal = expected >= np.finfo(float).tiny
            jumps = cumulative._stages(model).jumps(n)
            np.testing.assert_allclose(jumps[normal], expected[normal], rtol=1e-15, atol=0)
            np.testing.assert_allclose(jumps[~normal], expected[~normal], rtol=0, atol=1e-320)
        if marks[0][1] == marks[1][1]:  # equal rates: two atoms, no pmf

            def no_mark_pmfs(*args):
                raise AssertionError("jumps built a mark phase pmf at equal rates")

            monkeypatch.setattr(cumulative, "_phase_pmf", no_mark_pmfs)
            assert cumulative._stages(model).jumps(800).tobytes() == jumps.tobytes()

    @pytest.mark.parametrize("model", [MIXED, MIX])
    def test_stage_routes_build_no_mark_pmf(self, model, monkeypatch):
        points = [(0.5, 3.0), (1.0, 8.0), (300.0, 1000.0)]  # the last is halved and squared

        def evaluate():
            return [damage_cdf(model, t, x) for t, x in points] + [model2_fptf_mean(model)]

        stage = evaluate()
        monkeypatch.setattr(cumulative, "_STAGE_SHAPE", 0)
        dots = evaluate()
        assert stage == pytest.approx(dots, rel=1e-13, abs=1e-15)
        monkeypatch.undo()

        def no_mark_pmfs(*args):
            raise AssertionError("a stage route built a mark phase pmf")

        monkeypatch.setattr(cumulative, "_phase_pmf", no_mark_pmfs)
        assert evaluate() == stage


# Lattice routes (two shapes and one), Panjer with the dense renewal loop, renewal arrivals.
@pytest.mark.parametrize("model", [
    SYMMETRIC, CumulativeModel(0.7, 1.3, Erlang(2, 1.0), Exponential(1.0), threshold=4.0), MIXED,
    GeneralCumulativeModel(Erlang(2, 1.0), Exponential(0.5), Erlang(3, 2.0), Exponential(1.0),
                           threshold=4.0)])
def test_each_evaluator_builds_its_erlang_axis_once(model, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _erlang_cdf_terms(*args)

    monkeypatch.setattr(cumulative, "_erlang_cdf_terms", counted)
    if isinstance(model, GeneralCumulativeModel):
        evaluators = [lambda: general_damage_cdf(model, 2.0, 5.0)]
    else:
        evaluators = [lambda: damage_cdf(model, 2.0, 5.0), lambda: model2_fptf_cdf(model, 2.0),
                      lambda: model2_fptf_mean(model), lambda: model2_fptf_curve(model, [0.5, 2.0])]
    for evaluate in evaluators:
        calls.clear()
        evaluate()
        assert len(calls) == 1


AXIS_MEMO = cumulative._erlang_cdf_terms


class TestAxisMemo:
    """_erlang_axis keeps its last axes: one build per level, same values, bounded, read-only."""

    def setup_method(self):
        AXIS_MEMO.cache_clear()

    def test_points_at_one_level_build_one_axis(self):
        for t in np.linspace(0.0, 5.0, 100).tolist():
            model2_fptf_cdf(MIXED, t)
        assert AXIS_MEMO.cache_info().misses == 1

    def test_each_level_builds_its_axis_and_the_values_do_not_depend_on_the_memo(self):
        levels = np.linspace(0.5, 40.0, 40).tolist()
        first = [damage_cdf(MIX, 2.0, x).hex() for x in levels]
        assert AXIS_MEMO.cache_info().misses == 40
        AXIS_MEMO.cache_clear()
        again = [damage_cdf(MIX, 2.0, x).hex() for x in reversed(levels)]
        assert again[::-1] == first

    def test_a_kept_axis_is_read_only(self):
        cdfs = _erlang_axis(MIXED, 5.0, 1e-10)[2]
        with pytest.raises(ValueError, match="read-only"):
            cdfs[1] = 0.5
        assert _erlang_axis(MIXED, 5.0, 1e-10)[2] is cdfs

    def test_memo_holds_at_most_its_size_of_the_longest_axes(self):
        # Just below mu_f x = cap an axis is the cap plus the Poisson reach:
        # cap + 2 values of an array of at most _poisson_reach(cap + 2, cap + 2).
        cap = cumulative._MAX_TERMS
        levels = np.linspace(cap - 1000.0, cap - 1.0, 20).tolist()
        for x in levels:
            _erlang_axis(SYMMETRIC, x, 1e-10)
        info = AXIS_MEMO.cache_info()
        assert info.currsize == cumulative._AXIS_CACHE_SIZE == 16
        kept = [_erlang_axis(SYMMETRIC, x, 1e-10)[2] for x in levels[-16:]]
        assert AXIS_MEMO.cache_info().misses == info.misses  # the last 16 were kept
        held = {id(cdfs.base): cdfs.base.nbytes for cdfs in kept}
        assert sum(held.values()) <= 16 * _poisson_reach(cap + 2.0, cap + 2) * 8


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

    def test_mean_past_phase_cap(self):
        # Equal Exp(1) marks: E(T) = (1 + K) / L.  At K = 9,500 the series
        # takes about 10,100 phases, within the cap; at 9,700, and at 9,940
        # with the loosest tail_epsilon, it needs more.
        model = CumulativeModel(1.0, 1.0, Exponential(1.0), Exponential(1.0),
                                threshold=9500.0)
        assert model2_fptf_mean(model) == pytest.approx(4750.5, rel=1e-12)
        for k, policy in ((9700.0, None), (9940.0, TruncationPolicy(1e-3))):
            with pytest.raises(NonConvergedError, match=r"^phase series needs more than 10240 "
                                                        rf"terms at rate \* x = {k}$"):
                model2_fptf_mean(CumulativeModel(1.0, 1.0, Exponential(1.0), Exponential(1.0),
                                                 threshold=k), policy)

    @pytest.mark.parametrize("k, eps", [(6628.0, 5e-324), (6753.0, 1e-300), (9477.0, 1e-10),
                                        (9908.0, 1e-3)])
    def test_mean_converges_wherever_a_cut_at_10000_phases_was_accepted(self, k, eps):
        # The largest mu_f K at which a 10,000-phase cap, with a bound on the
        # terms left out, returned a mean.  Equal Exp(1) marks have U = 1,
        # the largest kept sum, so at any marks the series now stops
        # within the cap, and the mean is (1 + K) / L within the docstring's
        # bound eps (S + 1) / ((S + 1 - K) L), or 1e-14 relative for rounding.
        model = CumulativeModel(1.0, 1.0, Exponential(1.0), Exponential(1.0), threshold=k)
        _, _, cdfs, converged = _erlang_axis(model, k, eps)
        assert converged
        s = len(cdfs)
        assert model2_fptf_mean(model, TruncationPolicy(eps)) == pytest.approx(
            (1.0 + k) / 2.0, rel=1e-14, abs=eps * (s + 1) / ((s + 1 - k) * 2.0))

    def test_mean_far_past_phase_cap_keeps_arrays_short(self):
        # mu_f K = 1e12: the mean raises from an axis of the cap's length,
        # not an array about 1e12 long, before it builds U.
        model = CumulativeModel(1.0, 1.0, Exponential(1.0), Exponential(1.0), threshold=1e12)
        tracemalloc.start()
        try:
            with pytest.raises(NonConvergedError, match="needs more than 10240 terms"):
                model2_fptf_mean(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_mean_infinite_phase_mean_raises(self):
        # mu_f K = 1e200 * 1e200 overflows: every Poisson term is 0.
        model = CumulativeModel(1.0, 1.0, Exponential(1e200), Exponential(1e200),
                                threshold=1e200)
        with pytest.raises(NonConvergedError, match=r"rate \* x = inf"):
            model2_fptf_mean(model)

    def test_mean_raises_when_term_budget_exhausted(self, monkeypatch):
        monkeypatch.setattr(cumulative, "_MAX_TERMS", 3)
        with pytest.raises(NonConvergedError):
            model2_fptf_mean(SYMMETRIC)


# The three models of the bench's damage_curves workload, with their grid ends;
# the equal-Exp one is also the mc_oracle model (its CLI grid is 0:5:201).
CURVE_MODELS = [
    (CumulativeModel(1.0, 2.0, Erlang(3, 2.0), Exponential(1.0), threshold=2.0), 2.0),
    (SYMMETRIC, 5.0),
    (CumulativeModel(0.5, 1.5, Erlang(2, 1.0), Exponential(1.0), threshold=4.0), 5.0),
]


class TestFailureTimeCurve:
    @pytest.mark.parametrize("mu, threshold, rate1, rate2, t_max", [
        (1.0, 3.0, 1.0, 1.0, 30.0), (2.0, 1.5, 1.0, 1.5, 30.0), (1.0, 30.0, 0.5, 0.7, 150.0)])
    def test_equal_exponential_marks_follow_exact_law(self, mu, threshold, rate1, rate2, t_max):
        # N = 1 + Poisson(mu K): the CDF, survival and density to 1e-13
        # relative from t = 1e-12, where 1 - damage_cdf has lost 1e-3.
        model = CumulativeModel(rate1, rate2, Exponential(mu), Exponential(mu), threshold)
        ts = np.geomspace(1e-12, t_max, 80)
        exact = equal_exponential_marks_failure_law(mu * threshold, rate1 + rate2, ts)
        for policy, keep in ((TruncationPolicy(tail_epsilon=1e-200), ts > 0.0),
                             (TruncationPolicy(), ts <= 1.0)):
            curve = model2_fptf_curve(model, ts, policy)
            for got, want in zip(curve, exact):
                np.testing.assert_allclose(got[keep], want[keep], rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("model, t_max", CURVE_MODELS)
    def test_scalar_path_within_tail_epsilon(self, model, t_max):
        grid = np.linspace(0.0, t_max, 201)
        policy = TruncationPolicy()
        cdf, survival, _ = model2_fptf_curve(model, grid, policy)
        reference = np.array([model2_fptf_cdf(model, t, TruncationPolicy(tail_epsilon=1e-200))
                              for t in grid])
        assert np.max(np.abs(cdf - reference)) <= policy.tail_epsilon
        assert np.max(np.abs(survival - (1.0 - reference))) <= policy.tail_epsilon

    def test_density_integrates_to_cdf(self):
        model = CURVE_MODELS[2][0]
        grid = np.linspace(0.0, 4.0, 4001)
        cdf, _, density = model2_fptf_curve(model, grid)
        areas = np.concatenate(([0.0], np.cumsum((density[1:] + density[:-1]) / 2.0) * 1e-3))
        assert np.max(np.abs(areas - cdf)) <= 1e-6

    @given(rates=st.tuples(st.floats(0.1, 5.0), st.floats(0.1, 5.0)),
           marks=st.tuples(st.integers(1, 3), st.floats(0.2, 5.0),
                           st.integers(1, 3), st.floats(0.2, 5.0)),
           threshold=st.floats(0.01, 20.0),
           times=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=30))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_curve_is_a_distribution(self, rates, marks, threshold, times):
        model = CumulativeModel(*rates, Erlang(*marks[:2]), Erlang(*marks[2:]), threshold)
        ts = np.array(sorted(set(times) | {0.0}))
        cdf, survival, density = model2_fptf_curve(model, ts)
        assert cdf[0] == 0.0 and survival[0] == 1.0
        assert np.all(np.diff(cdf) >= 0.0)
        assert np.all(np.abs(cdf + survival - 1.0) <= 2.0 * np.finfo(float).eps)
        assert np.all(density >= 0.0)

    @pytest.mark.parametrize("model", [MIXED, SYMMETRIC])
    def test_each_value_depends_only_on_its_own_time(self, model):
        grid = np.linspace(0.0, 40.0, 201)
        curve = model2_fptf_curve(model, grid)
        for i, t in enumerate(grid):
            for column, alone in zip(curve, model2_fptf_curve(model, [t])):
                assert column[i] == alone[0]

    def test_phase_cap_as_scalar_path(self):
        # mu K = 9,800 needs about 10,500 phases against a cap of 10,240.
        model = CumulativeModel(1.0, 1.0, Exponential(1.0), Exponential(1.0), threshold=9800.0)
        cdf, survival, _ = model2_fptf_curve(model, [1.0, 4200.0, 4760.0])
        assert np.all(cdf + survival == 1.0)
        assert cdf[1] == pytest.approx(
            equal_exponential_marks_failure_law(9800.0, 2.0, [4200.0])[0][0], rel=1e-10)
        for t in (1.0, 4200.0, 4760.0):
            model2_fptf_cdf(model, t)
        with pytest.raises(NonConvergedError,
                           match=r"^phase series .* at level x = 9800\.0 and t = 4810\.0, "):
            model2_fptf_curve(model, [1.0, 4810.0])
        with pytest.raises(NonConvergedError, match="phase series"):
            model2_fptf_cdf(model, 4810.0)

    def test_negative_or_infinite_time_rejected(self):
        for ts in ([-1.0], [1.0, math.inf], [math.nan]):
            with pytest.raises(ValueError, match="t must be"):
                model2_fptf_curve(SYMMETRIC, ts)

    @pytest.mark.parametrize("ts, shape", [([[0.5, 1.0]], r"\(1, 2\)"), (1.0, r"\(\)")],
                             ids=["2-D", "scalar"])
    def test_grid_must_be_1d(self, ts, shape):
        with pytest.raises(ValueError, match=rf"1-D, got shape {shape}$"):
            model2_fptf_curve(SYMMETRIC, ts)


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

    def test_long_count_series_matches_two_streams(self):
        # rate t = mark_rate x = 4,000: about 4,400 Poisson counts.
        policy = TruncationPolicy()
        model = CumulativeModel(0.5, 0.5, Exponential(1.0), Exponential(1.0), threshold=1.0)
        two = damage_cdf(model, 4000.0, 4000.0, policy)
        one = compound_poisson_exponential_cdf(1.0, 1.0, 4000.0, 4000.0, policy)
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
        # As in damage_cdf: mu_f * x = 9800 needs more phases than the default
        # cap, and the phase-count pmf at t = 1 has all its mass far below it.
        g = GeneralCumulativeModel(Erlang(2, 1.0), Erlang(2, 1.0),
                                   Exponential(1.0), Exponential(1.0), threshold=2.0)
        assert not _erlang_axis(g, 9800.0, 5e-11)[3]
        assert 1.0 - 1e-10 <= general_damage_cdf(g, 1.0, 9800.0) <= 1.0
        with pytest.raises(NonConvergedError):
            general_damage_cdf(g, 1.0, 9800.0, TruncationPolicy(tail_epsilon=1e-300))

    def test_fast_rate_lattices_convolve_only_their_support(self, monkeypatch):
        # Equal Exp(1) marks at x = 9,800 give the cap's 10,240 phases, but the
        # Erlang(2, 1) renewal counts by t = 1 end within 26 counts: the
        # lattices stop there, and no length-n array is convolved.
        g = GeneralCumulativeModel(Erlang(2, 1.0), Erlang(2, 1.0),
                                   Exponential(1.0), Exponential(1.0), threshold=2.0)
        support = len(_renewal_counts(2, 1.0, 0.0, 10_000))
        lengths = []
        convolve = np.convolve

        def recording(a, v, *args, **kwargs):
            lengths.extend((len(a), len(v)))
            return convolve(a, v, *args, **kwargs)

        monkeypatch.setattr(np, "convolve", recording)
        assert 1.0 - 1e-10 <= general_damage_cdf(g, 1.0, 9800.0) <= 1.0
        assert lengths and max(lengths) <= support <= 26

    @pytest.mark.parametrize("model,t,x", [
        (GeneralCumulativeModel(Erlang(2, 1.0), Erlang(3, 2.0),
                                Erlang(2, 1.0), Exponential(1.5), threshold=2.0), 2.0, 3.0),
        (GeneralCumulativeModel(Exponential(1.0), Erlang(2, 0.5),
                                Erlang(3, 2.0), Erlang(2, 2.0), threshold=2.0), 4.0, 6.0),
        # past the phase cap, with equal and with unequal mark rates
        (GeneralCumulativeModel(Erlang(2, 1.0), Erlang(2, 1.0),
                                Exponential(1.0), Exponential(1.0), threshold=2.0), 1.0, 9800.0),
        (GeneralCumulativeModel(Erlang(2, 1.0), Erlang(2, 1.0),
                                Exponential(1.0), Exponential(1.3), threshold=2.0), 1.0, 7500.0),
    ])
    def test_random_sum_matches_full_convolutions(self, model, t, x):
        # k marks summed as one Erlang(k m) mark against k full-length convolutions.
        # Below the smallest normal double only an absolute bound holds: at
        # x = 7,300 subnormal entries differ by up to 6e-323.
        fast, _, cdfs, _ = _erlang_axis(model, x, 5e-11)
        marks = _mark_pmfs(model, fast, len(cdfs))
        for inter, mag, mark in zip((model.inter1, model.inter2), (model.mag1, model.mag2), marks):
            shape, rate = _mark_params(inter, "inter")
            counts = _renewal_counts(shape, rate * t, 2.5e-11, 10_000)
            got = _random_sum_pmf(counts, mag.shape, mag.rate, fast, len(cdfs))
            expected = _convolution_powers(counts, mark)
            assert not expected[len(got):].any()  # a fast-rate lattice may end before n
            _assert_close_to_subnormals(got, expected[:len(got)], rtol=1e-14,
                                        subnormal_atol=1e-322)

    @pytest.mark.parametrize("shape", [1, 3, 20])
    @pytest.mark.parametrize("ratio", [0.5, 0.05, 1e-3])
    def test_k_marks_are_one_erlang_mark(self, shape, ratio):
        # The identity _random_sum_pmf rests on: the phase pmf of Erlang(k m)
        # is the k-th convolution power of Erlang(m)'s, including at m = 20,
        # ratio 1e-3, k >= 6, where p^(k m) underflows and the pmf is
        # anchored at its mode.  Subnormal entries differ by up to 2.7e-321.
        n = 3000
        mark = _phase_pmf(shape, ratio, 1.0, n)
        power = mark
        for k in range(2, 9):
            power = np.convolve(power, mark)[:n]
            _assert_close_to_subnormals(_phase_pmf(k * shape, ratio, 1.0, n), power,
                                        rtol=1e-13, subnormal_atol=1e-320)

    def test_renewal_series_at_a_large_level_is_fast(self):
        # README marks, Exp(1) and Exp(2) arrivals, t = 300, x = 1,000: about
        # 2,300 phases and 600 arrivals of the slower mark.  Summed as powers
        # of its phase pmf this call took over a second.
        g = GeneralCumulativeModel(Exponential(1.0), Exponential(2.0),
                                   Erlang(3, 2.0), Exponential(1.0), threshold=5.0)
        policy = TruncationPolicy()
        seconds = []
        for _ in range(3):
            start = time.perf_counter()
            value = general_damage_cdf(g, 300.0, 1000.0, policy)
            seconds.append(time.perf_counter() - start)
        assert abs(value - damage_cdf(MIXED, 300.0, 1000.0, policy)) <= 2.0 * policy.tail_epsilon
        assert min(seconds) < 0.25

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

    def test_renewal_counts_past_cap_reduce_to_poisson_series(self):
        # Exp(1e5) arrivals bring about 1e5 shocks per stream by t = 1, ten
        # times the count cap; no count past the phase series is needed.
        g = GeneralCumulativeModel(Exponential(1e5), Exponential(1e5),
                                   Exponential(1.0), Exponential(1.0), threshold=2.0)
        poisson = CumulativeModel(1e5, 1e5, Exponential(1.0), Exponential(1.0), threshold=2.0)
        assert general_damage_cdf(g, 1.0, 2.0) == damage_cdf(poisson, 1.0, 2.0)

    def test_far_tail_counts_keep_relative_accuracy(self):
        # No Erlang(2, 1) renewal by t = 50 in either stream: P(N(50) = 0) = 51 e^-50.
        g = GeneralCumulativeModel(Erlang(2, 1.0), Erlang(2, 1.0),
                                   Exponential(1.0), Exponential(1.0), threshold=1.0)
        assert general_damage_cdf(g, 50.0, 0.0) == pytest.approx(
            (51.0 * math.exp(-50.0)) ** 2, rel=1e-12, abs=0.0)

    def test_renewal_count_cap_raises(self, monkeypatch):
        g = GeneralCumulativeModel(Erlang(2, 1.0), Erlang(2, 1.0),
                                   Exponential(1.0), Exponential(1.0), threshold=2.0)
        monkeypatch.setattr(cumulative, "_MAX_TERMS", 3)
        with pytest.raises(NonConvergedError, match="phase series"):
            general_damage_cdf(g, 4.0, 1.0)
        with pytest.raises(NonConvergedError, match="renewal"):
            general_damage_mean(g, 4.0)

    def test_counts_past_cap_rejected_before_poisson_arrays(self):
        # At rate * t >= shape * cap, P(N(t) >= cap) > 1e-3 for certain; the
        # Poisson arrays, about rate * t long, are never built.  The damage
        # CDF needs no count past its phase series, which is short at x = 1.
        g = GeneralCumulativeModel(Erlang(2, 1.0), Erlang(2, 1.0),
                                   Exponential(1.0), Exponential(1.0), threshold=2.0)
        tracemalloc.start()
        try:
            assert general_damage_cdf(g, 2e6, 1.0) == 0.0
            with pytest.raises(NonConvergedError, match="renewal"):
                general_damage_mean(g, 2e6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_renewal_mean_tails_stop_at_the_poisson_reach(self):
        # Erlang(1e7, 1) interarrivals by t = 2: tails out to a reach of the
        # shape were 1e7 Poisson terms (305 MiB at peak, about 0.3 s);
        # out to the reach of rate * t = 2 they are 57, and none reaches the shape.
        g = GeneralCumulativeModel(Erlang(10 ** 7, 1.0), Exponential(1.0),
                                   Exponential(1.0), Erlang(3, 2.0), threshold=2.0)
        tracemalloc.start()
        try:
            value = general_damage_mean(g, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == 2.0 * 1.5
        assert peak < 2**20

    def test_renewal_counts_stop_at_the_poisson_reach(self):
        # Past the phase cap the series length is 10,240 counts, 5.1e6 Poisson
        # terms at shape 500 (about 78 MiB of arrays), but only the terms out
        # to the Poisson reach of rate * t carry mass.
        g = GeneralCumulativeModel(Erlang(500, 1.0), Exponential(1.0),
                                   Exponential(1.0), Exponential(1.0), threshold=2e4)
        tracemalloc.start()
        try:
            assert general_damage_cdf(g, 1e3, 2e4) == pytest.approx(1.0, abs=1e-10)
            with pytest.raises(NonConvergedError, match="phase series"):
                general_damage_cdf(g, 1e5, 2e4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_cut_message_reports_the_mass_as_summed(self):
        # Stream 1 has no Erlang(500, 1) renewal mass below the cap at t = 1e5;
        # the rounding allowance enters the test, not the reported mass.
        g = GeneralCumulativeModel(Erlang(500, 1.0), Exponential(1.0),
                                   Exponential(1.0), Exponential(1.0), threshold=2e4)
        with pytest.raises(NonConvergedError, match=r"below the cap, 0\.0, is short") as err:
            general_damage_cdf(g, 1e5, 2e4)
        assert "e-12" not in str(err.value)

    def test_counts_short_of_cap_mass_raise_before_random_sums(self, monkeypatch):
        # mu_f x = 3e4 needs more phases than the cap, and stream 2's
        # Poisson(1e5) count lies far past it: the mass test on the counts
        # raises before stream 1's 200-odd convolutions of its mark.
        g = GeneralCumulativeModel(Erlang(500, 1.0), Exponential(1.0),
                                   Exponential(1.0), Erlang(2, 3.0), threshold=1e4)

        def no_random_sums(*args):
            raise AssertionError("random sum built")

        monkeypatch.setattr(cumulative, "_random_sum_pmf", no_random_sums)
        with pytest.raises(NonConvergedError, match="phase series"):
            general_damage_cdf(g, 1e5, 1e4)

    def test_weibull_interarrivals_rejected_at_every_t(self):
        g = GeneralCumulativeModel(Exponential(1.0), Weibull(2.0, 1.0),
                                   Exponential(1.0), Exponential(1.0), threshold=1.0)
        for t in (0.0, 1e-3):
            with pytest.raises(UnsupportedConvolutionError, match="inter2"):
                general_damage_cdf(g, t, 1.0)
            with pytest.raises(UnsupportedConvolutionError, match="inter2"):
                general_damage_mean(g, t)

    def test_weibull_interarrivals_unsupported_analytically(self):
        g = GeneralCumulativeModel(Weibull(2.0, 1.0), Exponential(1.0),
                                   Exponential(1.0), Exponential(1.0), threshold=1.0)
        with pytest.raises(UnsupportedConvolutionError):
            general_damage_cdf(g, 1.0, 1.0)

    def test_weibull_marks_unsupported_for_cdf_but_fine_for_mean(self):
        g = GeneralCumulativeModel(Exponential(1.0), Exponential(1.0),
                                   Weibull(2.0, 1.0), Exponential(1.0), threshold=1.0)
        for t in (0.0, 1.0):  # the marks are checked before any series reads a rate
            with pytest.raises(UnsupportedConvolutionError, match="mag1"):
                general_damage_cdf(g, t, 1.0)
        # the mean needs no mark convolution, only E(mark) and the renewal count
        expected = Weibull(2.0, 1.0).mean() * 1.0 + 1.0
        assert general_damage_mean(g, 1.0) == pytest.approx(expected, abs=1e-9)


class TestUnderflowingRateRatio:
    """A slower mark rate below the smallest double times the faster one: p = 0."""

    # The Erlang(12, 1e-300) mark takes the dot-loop route, the Erlang(2, 1e-300)
    # one the stage sums.  Its first shock takes the damage past any level, so
    # P(D(t) <= x) = exp(-rate1 t) P(Exp(1e300) marks of stream 2 sum to <= x).
    @pytest.mark.parametrize("shape", [12, 2])
    def test_damage_cdf_and_curve(self, shape):
        model = CumulativeModel(0.8, 1.3, Erlang(shape, 1e-300), Exponential(1e300),
                                threshold=3e-300)
        ts = [0.1, 1.0, 4.0]
        _, survival, _ = model2_fptf_curve(model, ts)
        for t, alive in zip(ts, survival):
            exact = math.exp(-0.8 * t) * compound_poisson_exponential_cdf(1.3, 1e300, t, 3e-300)
            assert damage_cdf(model, t, 3e-300) == pytest.approx(exact, abs=2e-10)
            assert alive == pytest.approx(exact, abs=2e-10)
        assert math.isfinite(model2_fptf_mean(model))


class TestValidation:
    @pytest.mark.parametrize("field", ["inter1", "inter2", "mag1", "mag2"])
    def test_general_model_fields_must_be_distributions(self, field):
        members = dict(inter1=Exponential(1.0), inter2=Exponential(1.0), mag1=Exponential(1.0),
                       mag2=Exponential(1.0), threshold=1.0)
        members[field] = 2.0
        with pytest.raises(ValueError, match=f"{field} must be a Distribution"):
            GeneralCumulativeModel(**members)

    def test_weibull_magnitudes_rejected_at_construction(self):
        with pytest.raises(UnsupportedConvolutionError):
            CumulativeModel(1.0, 1.0, Weibull(2.0, 1.0), Exponential(1.0), threshold=1.0)

    def test_positive_threshold_required(self):
        with pytest.raises(ValueError, match="threshold"):
            CumulativeModel(1.0, 1.0, Exponential(1.0), Exponential(1.0), threshold=0.0)

    def test_positive_rates_required(self):
        with pytest.raises(ValueError, match="rate1"):
            CumulativeModel(0.0, 1.0, Exponential(1.0), Exponential(1.0), threshold=1.0)

    def test_merged_rate_must_be_finite(self):
        # Each rate is a double but their sum is not: the series would never stop.
        with pytest.raises(ValueError, match=r"rate1 \+ rate2"):
            CumulativeModel(1e308, 1e308, Exponential(1.0), Exponential(1.0), threshold=1.0)

    def test_truncation_policy_bounds(self):
        with pytest.raises(ValueError):
            TruncationPolicy(tail_epsilon=1e-2)
        with pytest.raises(ValueError):
            TruncationPolicy(tail_epsilon=0.0)


class TestOverflowingPoissonMean:
    """A finite rate times a finite t that overflows acts as the limit of large means."""

    def test_damage_cdf_returns_instead_of_halving_forever(self):
        code = ("from twoshock.cumulative import CumulativeModel, damage_cdf\n"
                "from twoshock.distributions import Exponential\n"
                "m = CumulativeModel(1e300, 1, Exponential(1), Exponential(1), 3)\n"
                "print(damage_cdf(m, 1e10, 1.0))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=30, env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0.0\n", "")
        assert damage_cdf(HUGE_RATE, 1.0, 1.0) == 0.0

    def test_failure_cdf_and_curve(self):
        assert model2_fptf_cdf(HUGE_RATE, 1e10) == model2_fptf_cdf(HUGE_RATE, 1.0) == 1.0
        for t in (1.0, 1e10):
            cdf, survival, density = model2_fptf_curve(HUGE_RATE, [t])
            assert (cdf[0], survival[0], density[0]) == (1.0, 0.0, 0.0)

    def test_renewal_damage_cdf(self):
        assert general_damage_cdf(HUGE_RENEWALS, 1e10, 1.0) == 0.0
        assert general_damage_cdf(HUGE_RENEWALS, 1.0, 1.0) == 0.0

    def test_merged_reduction_stays_nonconverged(self):
        for t in (1.0, 1e10):
            with pytest.raises(NonConvergedError, match="Poisson counts"):
                compound_poisson_exponential_cdf(1e300, 1.0, t, 1.0)
