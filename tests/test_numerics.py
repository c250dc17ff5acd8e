"""Double-exponential rule, t = scale * exp(x - e^-x): scalar integrands with known integrals."""

import math

import pytest

from twoshock import numerics
from twoshock.errors import NonConvergedError
from twoshock.numerics import integrate_decaying


def scalar_only(f):
    """Wrap f so that any non-float argument fails the test."""
    def wrapped(t):
        assert type(t) is float
        return f(t)
    return wrapped


@pytest.mark.parametrize("scale", [1e-6, 2.0, 1e6])
@pytest.mark.parametrize("f, exact", [
    (lambda t: math.exp(-t) * (1.0 + t + 0.5 * t * t), 3.0),
    (lambda t: math.exp(-t * t), 0.5 * math.sqrt(math.pi)),
])
def test_known_integrals(f, exact, scale):
    assert integrate_decaying(scalar_only(f), initial_scale=scale) == pytest.approx(
        exact, rel=1e-12, abs=0.0)


def test_integrable_singularity_at_zero():
    # t f(t) = sqrt(t) exp(-t) vanishes at 0 though f does not.
    value = integrate_decaying(lambda t: math.exp(-t) / math.sqrt(t))
    assert value == pytest.approx(math.sqrt(math.pi), rel=1e-12, abs=0.0)


def test_bench_integrand_takes_few_evaluations():
    calls = [0]

    def f(t):
        calls[0] += 1
        return math.exp(-t) * (1.0 + t + 0.5 * t * t) * math.exp(-0.5 * t ** 1.5)

    integrate_decaying(f, initial_scale=2.0)
    assert calls[0] <= 120


def test_never_called_at_zero_and_left_end_named():
    # t f(t) = exp(-t) does not vanish at 0, so g rises as t underflows.
    with pytest.raises(NonConvergedError, match="left end"):
        integrate_decaying(scalar_only(lambda t: math.exp(-t) / t))


def test_integrand_overflow_is_named():
    # t ** -1.5 overflows before t underflows to 0.
    with pytest.raises(NonConvergedError, match="overflowed at t = "):
        integrate_decaying(scalar_only(lambda t: math.exp(-t) * t ** -1.5))


@pytest.mark.parametrize("scale", [math.inf, math.nan, 0.0])
def test_scale_must_be_positive_and_finite(scale):
    with pytest.raises(NonConvergedError, match="initial_scale"):
        integrate_decaying(math.exp, initial_scale=scale)


def test_integrand_that_never_decays_raises():
    with pytest.raises(NonConvergedError, match="tail cut"):
        integrate_decaying(lambda t: 1.0)


def test_budget_counts_every_evaluation(monkeypatch):
    monkeypatch.setattr(numerics, "_MAX_EVALS", 50)
    calls = [0]

    def f(t):
        calls[0] += 1
        return math.exp(-t)

    with pytest.raises(NonConvergedError, match="budget"):
        integrate_decaying(f)
    assert calls[0] == 50
