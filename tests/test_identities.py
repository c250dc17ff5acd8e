"""Exact identities between the evaluators, each checked at its documented bound.

Random models are drawn by hypothesis with a fixed seed and a bounded
example count.  Each pair of evaluators computes one exact quantity by two
different series; each side is within its documented error of the exact
value, so the two differ by at most the sum of the two bounds.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import binomial_cdf_decimal
from twoshock import cumulative
from twoshock.catastrophic import CatastrophicModel, mean_fptf, mean_fptf_quadrature
from twoshock.cumulative import (CumulativeModel, GeneralCumulativeModel, TruncationPolicy,
                                 _crossing_index, _erlang_axis, damage_cdf, general_damage_cdf,
                                 model2_fptf_curve, model2_fptf_mean)
from twoshock.distributions import Erlang, Exponential
from twoshock.gamma_convolution import _phase_tail
from twoshock.numerics import QuadraturePolicy

EPS = 1e-10  # the default tail_epsilon
IDENTITY = settings(max_examples=40, derandomize=True, deadline=None)
RATES = st.floats(min_value=0.1, max_value=10.0)
# Ratios of the slower mark rate to the faster one; 1 is equal rates.
RATIOS = st.one_of(st.just(1.0), st.floats(min_value=1e-3, max_value=1.0))


@st.composite
def models(draw, shapes=st.integers(1, 13)):
    """A CumulativeModel with mu_f K at most 60, so every series is short."""
    fast = draw(st.floats(min_value=0.5, max_value=4.0))
    slow = Erlang(draw(shapes), fast * draw(RATIOS))
    quick = Erlang(draw(st.integers(1, 5)), fast)
    marks = (slow, quick) if draw(st.booleans()) else (quick, slow)
    level = draw(st.floats(min_value=0.2, max_value=60.0)) / fast
    return CumulativeModel(draw(RATES), draw(RATES), *marks, threshold=level)


def _times(model: CumulativeModel) -> list:
    """Times from early to late on the scale of the mean failure time."""
    scale = (1.0 + max(model.mag1.rate, model.mag2.rate) * model.threshold) / (
        model.rate1 + model.rate2)
    return [scale * f for f in (1e-3, 0.1, 0.5, 1.0, 2.0, 5.0)]


@IDENTITY
@given(models())
def test_curve_survival_is_damage_cdf_at_the_threshold(model):
    # Esary, Marshall & Proschan: P(T > t) = P(D(t) <= K); each side within tail_epsilon.
    ts = _times(model)
    _, survival, _ = model2_fptf_curve(model, ts)
    for t, value in zip(ts, survival):
        assert abs(value - damage_cdf(model, t, model.threshold)) <= 2.0 * EPS


@IDENTITY
@given(models())
def test_mean_is_the_crossing_index_mean_over_the_rate(model):
    # E[T] = E[N] / L = sum_k P(N > k) / L.  Each P(N > k) that _crossing_index
    # gives is within tail_epsilon, and the U-loop mean's cut leaves out at
    # most tail_epsilon (S + 1) / ((S + 1 - mu_f K) L).
    policy = TruncationPolicy(EPS)
    h, _, _ = _crossing_index(model, model.threshold, policy)
    total = model.rate1 + model.rate2
    index_mean = sum(k * p for k, p in enumerate(h.tolist(), start=1)) / total
    _, z, cdfs, _ = _erlang_axis(model, model.threshold, EPS)
    s = len(cdfs)
    bound = (len(h) + 1) * EPS / total + EPS * (s + 1) / ((s + 1 - z) * total)
    assert abs(model2_fptf_mean(model, policy) - index_mean) <= bound


@IDENTITY
@given(models(), st.floats(min_value=0.05, max_value=5.0), st.floats(min_value=0.0, max_value=2.0))
def test_general_model_with_exponential_arrivals_is_the_poisson_model(model, t, level):
    general = GeneralCumulativeModel(Exponential(model.rate1), Exponential(model.rate2),
                                     model.mag1, model.mag2, model.threshold)
    x = level * model.threshold
    assert abs(general_damage_cdf(general, t, x) - damage_cdf(model, t, x)) <= 2.0 * EPS


@IDENTITY
@given(models(), st.floats(min_value=0.05, max_value=5.0), st.floats(min_value=0.0, max_value=2.0))
def test_stage_routes_match_dot_routes(model, t, level):
    # Below _STAGE_SHAPE the library takes the stage sums and the patched
    # constant sends it to the dot loops; above, the other way round.  Both
    # sides cut at the same phase S, so the damage CDFs are each within
    # tail_epsilon and the means each within tail_epsilon relative.
    slower = model.mag1 if model.mag1.rate < model.mag2.rate else model.mag2
    flipped = 0 if slower.shape <= cumulative._STAGE_SHAPE else slower.shape
    x = level * model.threshold
    cdf, mean = damage_cdf(model, t, x), model2_fptf_mean(model)
    with mock.patch.object(cumulative, "_STAGE_SHAPE", flipped):
        assert abs(damage_cdf(model, t, x) - cdf) <= 2.0 * EPS
        assert abs(model2_fptf_mean(model) - mean) <= 2.0 * EPS * mean


@IDENTITY
@given(st.integers(1, 8), RATES, st.integers(1, 8), RATES)
def test_erlang_pair_mean_is_the_integrated_survival(m1, r1, m2, r2):
    # The closed pair mean is exact to rounding; the quadrature within rel_tol.
    model = CatastrophicModel(Erlang(m1, r1), Erlang(m2, r2))
    closed = mean_fptf(model)
    assert abs(mean_fptf_quadrature(model) - closed) <= QuadraturePolicy().rel_tol * closed


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.integers(1, 400), st.floats(min_value=1e-6, max_value=1.0 - 1e-9),
       st.integers(1, 1500))
def test_phase_tail_is_a_binomial_cdf(shape, ratio, extra):
    # J >= n exactly when fewer than shape of the first n - 1 phases end a
    # stage: P(J >= n) = P(Binomial(n - 1, p) <= shape - 1).
    n = min(shape + extra, 1500)
    exact = binomial_cdf_decimal(shape - 1, n - 1, ratio, 1.0)
    got = _phase_tail(shape, ratio, 1.0, n)
    if exact >= 1e-290:
        assert abs(got - exact) <= 1e-12 * exact
    else:
        assert got <= 1e-280
