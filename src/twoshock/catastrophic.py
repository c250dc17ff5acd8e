"""Catastrophic shock model: the unit fails at the first shock from either process.

Failure time is min(X1, Y1), the smaller of the two first interarrival times,
so the survival probability factorizes into the product of the two marginal
survival functions.  The mean failure time has one closed form for every pair
of Erlang (or exponential) processes and one for Weibull pairs with a common
shape; every other pair, which includes a Weibull, integrates the survival
curve by the double-exponential rule, the trapezoid rule under
t = s exp(x - e^-x) (Takahashi & Mori 1974), centred at the smaller
marginal mean s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import _LOG_MAX, Distribution, Erlang, Weibull, _time_grid
from .gamma_convolution import _phase_pmf, _phase_reach
from .numerics import QuadraturePolicy, integrate_decaying

__all__ = [
    "CatastrophicModel",
    "survival_probability",
    "survival_curve",
    "fptf_cdf",
    "mean_fptf",
    "mean_fptf_quadrature",
]


@dataclass(frozen=True)
class CatastrophicModel:
    """Two independent shock processes named by their interarrival distributions."""

    proc1: Distribution
    proc2: Distribution

    def __post_init__(self):
        for name in ("proc1", "proc2"):
            if not isinstance(getattr(self, name), Distribution):
                raise ValueError(f"{name} must be a Distribution")


def survival_probability(model: CatastrophicModel, t: float) -> float:
    """P(no failure by t) = P(X1 > t) * P(Y1 > t)."""
    return model.proc1.survival(t) * model.proc2.survival(t)


def survival_curve(model: CatastrophicModel, grid) -> np.ndarray:
    """survival_probability at every time of the 1-D grid, bit for bit, as an array.

    Each process evaluates the whole grid in one pass (survival_curve of an
    Erlang or exponential runs its term recurrence over arrays; a Weibull
    maps its scalar survival).  fptf_cdf has no curve form: F1 + S1 F2
    needs the cancellation-free Erlang CDF series, which runs point by point.
    """
    t = _time_grid(grid)
    return model.proc1.survival_curve(t) * model.proc2.survival_curve(t)


def fptf_cdf(model: CatastrophicModel, t: float) -> float:
    """CDF of the time to first failure, as F1 + S1 F2.

    Both terms are nonnegative and each marginal CDF is free of cancellation,
    so early failure probabilities keep their relative accuracy.
    """
    value = model.proc1.cdf(t) + model.proc1.survival(t) * model.proc2.cdf(t)
    return min(1.0, value)


def mean_fptf_quadrature(model: CatastrophicModel,
                         policy: QuadraturePolicy | None = None) -> float:
    """Mean failure time as the integral of the survival probability.

    The rule is centred at the smaller marginal mean, since E[min] is at most
    either one.
    """
    scale = min(model.proc1.mean(), model.proc2.mean())
    return integrate_decaying(lambda t: survival_probability(model, t),
                              policy, initial_scale=scale)


# Up to this many phases _erlang_pair_mean builds both pmfs whole.  Finding
# their reach costs about 2 us; on a 2-core x86-64 host under Python 3.11 and
# numpy 2.4.6 (timeit minima) a whole pair mean took 8-28 us at 8-2,048
# phases, and at 2,048 the cut one only broke even where it kept about 1,100.
_REACH_LENGTH = 2048


def _erlang_pair_mean(first: Erlang, second: Erlang) -> float:
    """E[min] = E[M] / L, L = rate1 + rate2, from negative-binomial pmf terms.

    In the merged Poisson stream of rate L each event belongs to process i
    with probability p_i = rate_i / L, and min(X1, Y1) is the arrival time
    of event M, the first that completes either shape.  Process i completes
    its shape m_i at event T_i = m_i + NegBin(m_i, p_i), the phase count of
    an Erlang(m_i, rate_i) mark at rate L, and M = T_i for the one i with
    T_i < m1 + m2.  So E[M] = sum_{s < m1+m2} s (P(T1 = s) + P(T2 = s)): a
    sum of positive terms, symmetric in the two processes.  Past its
    _phase_reach every term of a pmf rounds to 0, so past _REACH_LENGTH
    phases both pmfs stop at the larger reach instead of at m1 + m2.
    """
    total = first.rate + second.rate
    length = first.shape + second.shape
    if length > _REACH_LENGTH:
        length = max(_phase_reach(mark.shape, mark.rate, total, length)
                     for mark in (first, second))
    pmf = (_phase_pmf(first.shape, first.rate, total, length)
           + _phase_pmf(second.shape, second.rate, total, length))
    return float(np.arange(length, dtype=float) @ pmf) / total


def mean_fptf(model: CatastrophicModel,
              policy: QuadraturePolicy | None = None) -> float:
    """Mean time to first failure.

    Closed forms cover every Erlang/exponential pair and Weibull pairs with
    a common shape; all remaining pairs integrate the survival curve by the
    double-exponential rule t = s exp(x - e^-x) of Takahashi & Mori
    (numerics.integrate_decaying), with s the smaller marginal mean.
    """
    if isinstance(model.proc1, Erlang) and isinstance(model.proc2, Erlang):
        return _erlang_pair_mean(model.proc1, model.proc2)

    if isinstance(model.proc1, Weibull) and isinstance(model.proc2, Weibull):
        if model.proc1.shape == model.proc2.shape:
            # The rates scale_i ** -alpha add; pooled around the smallest
            # scale, every power lies in [0, 1] and none leaves the double range.
            alpha = model.proc1.shape
            smallest = min(model.proc1.scale, model.proc2.scale)
            pooled = ((smallest / model.proc1.scale) ** alpha
                      + (smallest / model.proc2.scale) ** alpha)
            scale = smallest * pooled ** (-1.0 / alpha)
            if scale >= np.finfo(float).tiny:  # a normal double
                return Weibull(alpha, scale).mean()
            # The pooled scale underflows, but the mean scale Gamma(1 + 1/alpha) need not.
            log_mean = (math.log(smallest) - math.log(pooled) / alpha
                        + math.lgamma(1.0 + 1.0 / alpha))
            return math.exp(log_mean) if log_mean < _LOG_MAX else math.inf

    return mean_fptf_quadrature(model, policy)
