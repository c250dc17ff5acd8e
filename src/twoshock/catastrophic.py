"""Catastrophic shock model: the unit fails at the first shock from either process.

Failure time is min(X1, Y1), the smaller of the two first interarrival times,
so the survival probability factorizes into the product of the two marginal
survival functions.  The mean failure time has one closed form for every pair
of Erlang (or exponential) processes and one for Weibull pairs with a common
shape; every other pair, which includes a Weibull, goes through adaptive
quadrature of the survival curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .distributions import Distribution, Erlang, Exponential, Weibull
from .numerics import QuadraturePolicy, integrate_decaying

__all__ = [
    "CatastrophicModel",
    "survival_probability",
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


def fptf_cdf(model: CatastrophicModel, t: float) -> float:
    """CDF of the time to first failure."""
    return 1.0 - survival_probability(model, t)


def mean_fptf_quadrature(model: CatastrophicModel,
                         policy: QuadraturePolicy | None = None) -> float:
    """Mean failure time as the integral of the survival probability."""
    scale = max(model.proc1.mean(), model.proc2.mean())
    return integrate_decaying(lambda t: survival_probability(model, t),
                              policy, initial_scale=scale)


def _as_erlang(dist: Distribution) -> Erlang | None:
    if isinstance(dist, Erlang):
        return dist
    if isinstance(dist, Exponential):
        return Erlang(shape=1, rate=dist.rate)
    return None


def _erlang_pair_mean(first: Erlang, second: Erlang) -> float:
    """E[min] = (1/L) sum_{i<m1, j<m2} C(i+j, i) p^i (1-p)^j, p = rate1/L, L = rate1 + rate2.

    In the merged Poisson stream each event belongs to process 1 with
    probability p, and min(X1, Y1) is the arrival time of the first event
    that completes either shape.  The inner sum over j is a negative binomial
    CDF: sum_{j<m2} C(i+j, i) p^(i+1) (1-p)^j = nbdtr(m2-1, i+1, p).
    """
    p = first.rate / (first.rate + second.rate)
    counts = np.arange(1, first.shape + 1)
    return float(special.nbdtr(second.shape - 1, counts, p).sum()) / first.rate


def mean_fptf(model: CatastrophicModel,
              policy: QuadraturePolicy | None = None) -> float:
    """Mean time to first failure.

    Closed forms cover every Erlang/exponential pair and Weibull pairs with
    a common shape; all remaining pairs integrate the survival curve.
    """
    e1, e2 = _as_erlang(model.proc1), _as_erlang(model.proc2)
    if e1 is not None and e2 is not None:
        # One summation order for both argument orders keeps the mean symmetric.
        first, second = sorted((e1, e2), key=lambda e: (e.shape, e.rate))
        return _erlang_pair_mean(first, second)

    if isinstance(model.proc1, Weibull) and isinstance(model.proc2, Weibull):
        if model.proc1.shape == model.proc2.shape:
            alpha = model.proc1.shape
            pooled = (model.proc1.scale ** -alpha + model.proc2.scale ** -alpha)
            return pooled ** (-1.0 / alpha) * math.gamma(1.0 + 1.0 / alpha)

    return mean_fptf_quadrature(model, policy)
