"""Cumulative damage model: the unit fails when total damage exceeds a threshold.

Two marked shock streams contribute additive damage with Erlang (or
exponential) magnitudes.  With mu_f the larger mark rate, each mark is a
random number of Exp(mu_f) phases (see twoshock.gamma_convolution), so the
total damage is Erlang(S, mu_f) for a random phase count S with pmf g, and

    P(damage <= x) = sum_s g(s) P(Erlang(s, mu_f) <= x).

Under Poisson arrivals g is a compound-Poisson pmf, computed by the Panjer
(1981) recursion; under renewal arrivals it is the convolution over the two
streams of sum_k P(N_i(t) = k) f_i^{*k}, with f_i the phase pmf of one mark.
Arrivals are counted in phases too: Erlang(m, r) interarrivals give N_i(t) =
floor(P / m), P ~ Poisson(r t), whose pmf and mean are sums of Poisson terms.
The mean failure time uses the renewal sequence of the per-shock phase pmf
and needs no quadrature.  Every term is positive, and each series stops at
the first S whose Erlang CDF is below the requested bound.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .distributions import (Distribution, Erlang, Exponential, _poisson_pmf, _poisson_reach,
                            _poisson_tail, erlang_survival)
from .errors import NonConvergedError, UnsupportedConvolutionError
from .gamma_convolution import _bernstein_reach, _erlang_cdf_terms, _erlang_cdfs, _phase_pmf
from .numerics import integrate_decaying  # noqa: F401  (bench/tracer.py wraps this name)

__all__ = [
    "TruncationPolicy",
    "CumulativeModel",
    "GeneralCumulativeModel",
    "damage_cdf",
    "damage_mean",
    "model2_fptf_cdf",
    "model2_fptf_mean",
    "general_damage_cdf",
    "general_damage_mean",
    "compound_poisson_exponential_cdf",
]

# The Panjer recursion starts from exp(-mean), which underflows past ~745; a
# larger Poisson mean is halved until it is at most this, and the pmf squared
# back up.
_PANJER_MAX_MEAN = 500.0


@dataclass(frozen=True)
class TruncationPolicy:
    """Contract for cutting the infinite damage series.

    A damage series stops at the first phase count whose Erlang CDF is
    below its share of tail_epsilon, and a renewal-count pmf at the first
    count K whose left-out counts carry less than its share, giving an
    absolute error below tail_epsilon.  Needing more than max_terms_per_axis
    phases, or arrival counts outside general_damage_cdf, raises NonConvergedError,
    except in damage_cdf and general_damage_cdf when the phase counts past
    the cap carry less than tail_epsilon of probability.
    """

    tail_epsilon: float = 1e-10
    max_terms_per_axis: int = 10_000

    def __post_init__(self):
        if not 0.0 < self.tail_epsilon <= 1e-3:
            raise ValueError(f"tail_epsilon must be in (0, 1e-3], got {self.tail_epsilon}")
        if self.max_terms_per_axis < 1:
            raise ValueError(f"max_terms_per_axis must be positive, got {self.max_terms_per_axis}")


def _mark_params(dist: Distribution, name: str) -> tuple[int, float]:
    """(shape, rate) of the Erlang-family model member called name."""
    if isinstance(dist, Erlang):
        return dist.shape, dist.rate
    if isinstance(dist, Exponential):
        return 1, dist.rate
    raise UnsupportedConvolutionError(
        f"{name} must be Erlang or Exponential, got {type(dist).__name__}")


@dataclass(frozen=True)
class CumulativeModel:
    """Poisson shock arrivals (rate1, rate2) with additive Erlang-family magnitudes."""

    rate1: float
    rate2: float
    mag1: Distribution
    mag2: Distribution
    threshold: float

    def __post_init__(self):
        if not self.rate1 > 0:
            raise ValueError(f"rate1 must be positive, got {self.rate1}")
        if not self.rate2 > 0:
            raise ValueError(f"rate2 must be positive, got {self.rate2}")
        if not self.threshold > 0:
            raise ValueError(f"threshold must be positive, got {self.threshold}")
        _mark_params(self.mag1, "mag1")
        _mark_params(self.mag2, "mag2")


@dataclass(frozen=True)
class GeneralCumulativeModel:
    """Renewal shock arrivals with additive magnitudes.

    Analytic evaluators count in Exp phases and reject, at any t, members
    other than Erlang or Exponential (general_damage_mean takes any marks);
    the simulator, and so construction, accepts any sampleable distribution.
    """

    inter1: Distribution
    inter2: Distribution
    mag1: Distribution
    mag2: Distribution
    threshold: float

    def __post_init__(self):
        for name in ("inter1", "inter2", "mag1", "mag2"):
            if not isinstance(getattr(self, name), Distribution):
                raise ValueError(f"{name} must be a Distribution")
        if not self.threshold > 0:
            raise ValueError(f"threshold must be positive, got {self.threshold}")


def _check_nonneg(value: float, name: str) -> None:
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be nonnegative and finite, got {value}")


def _renewal_counts(shape: int, z: float, tail: float, n: int) -> np.ndarray:
    """P(N = k) for k < K <= n, N = floor(P / shape), P ~ Poisson(z), with P(K <= N < n) < tail.

    N counts Erlang(shape, r) renewals by t, z = r t: one every shape Exp(r)
    phases.  P(N = k) sums shape positive Poisson terms, so any tail a double
    holds is met.  Counts from n on are left out: every mark takes at least
    one phase, so they reach no phase below n.  At least one count is kept.
    """
    counts = _poisson_pmf(z, shape * n).reshape(n, shape).sum(axis=1)
    above = np.add.accumulate(counts[::-1])[::-1]
    return counts[:max(1, np.count_nonzero(above >= tail))]


def _fast_rate(mag1: Distribution, mag2: Distribution) -> float:
    return max(_mark_params(mag1, "mag1")[1], _mark_params(mag2, "mag2")[1])


def _phase_pmfs(mag1: Distribution, mag2: Distribution,
                length: int) -> tuple[np.ndarray, np.ndarray]:
    """Phase pmfs of both marks in units of the faster mark rate, cut at length."""
    (m1, mu1), (m2, mu2) = _mark_params(mag1, "mag1"), _mark_params(mag2, "mag2")
    fast = max(mu1, mu2)
    return _phase_pmf(m1, mu1, fast, length), _phase_pmf(m2, mu2, fast, length)


def _compound_poisson_pmf(mean: float, jumps: np.ndarray) -> np.ndarray:
    """pmf of a Poisson(mean) sum of i.i.d. phase jumps (jumps[0] == 0), cut at len(jumps).

    Panjer: g(0) = exp(-mean), g(s) = (mean/s) sum_j j jumps(j) g(s-j).  The
    first n values of a convolution need only the first n of each factor,
    so squaring the pmf at mean/2 is exact on the kept range.
    """
    halvings = 0
    while mean > _PANJER_MAX_MEAN:
        mean /= 2.0
        halvings += 1
    n = len(jumps)
    weighted = mean * np.arange(1, n) * jumps[1:]  # weighted[j - 1] = mean j jumps(j)
    rev = np.zeros(n)  # g reversed, so each step dots two forward slices
    rev[-1] = math.exp(-mean)
    for s in range(1, n):
        rev[n - 1 - s] = weighted[:s].dot(rev[n - s:]) / s
    g = rev[::-1]
    for _ in range(halvings):
        g = np.convolve(g, g)[:n]
    return g


def _phase_series(g: np.ndarray, cdfs: np.ndarray, converged: bool,
                  policy: TruncationPolicy, z: float) -> float:
    """sum_s g(s) cdfs(s) clamped to [0, 1], or NonConvergedError for a bad cut.

    A series cut at the cap (not converged) is allowed when the phase-count
    pmf g, as computed below the cap, has mass at least 1 - tail_epsilon:
    every term of the exact series is g(s) times a CDF, so it falls short of
    the exact value by at most the mass g misses.  The mass must clear that
    bound by a rounding allowance of one double epsilon per term.
    """
    if not converged:
        mass = math.fsum(g) - len(g) * sys.float_info.epsilon
        if mass < 1.0 - policy.tail_epsilon:
            raise NonConvergedError(
                f"phase series needs more than {policy.max_terms_per_axis} terms "
                f"at rate * x = {z}, and the phase-count mass below the cap, "
                f"{mass!r}, is short of 1 - {policy.tail_epsilon}")
    value = float(g @ cdfs)
    return min(1.0, max(0.0, value))


def damage_cdf(model: CumulativeModel, t: float, x: float,
               policy: TruncationPolicy | None = None) -> float:
    """P(total damage by time t is <= x), within tail_epsilon absolute.

    When the Erlang-CDF stop needs more than max_terms_per_axis phases, the
    series is cut at the cap if the phase-count pmf has mass at least
    1 - tail_epsilon below it (_phase_series).
    """
    policy = policy or TruncationPolicy()
    _check_nonneg(t, "t")
    _check_nonneg(x, "x")
    z = _fast_rate(model.mag1, model.mag2) * x
    cdfs, converged = _erlang_cdf_terms(z, policy.tail_epsilon, policy.max_terms_per_axis)
    f1, f2 = _phase_pmfs(model.mag1, model.mag2, len(cdfs))
    total = model.rate1 + model.rate2
    jumps = (model.rate1 * f1 + model.rate2 * f2) / total
    g = _compound_poisson_pmf(total * t, jumps)
    return _phase_series(g, cdfs, converged, policy, z)


def damage_mean(model: CumulativeModel, t: float) -> float:
    """E(total damage by time t); exact, linear in t."""
    _check_nonneg(t, "t")
    m1, mu1 = _mark_params(model.mag1, "mag1")
    m2, mu2 = _mark_params(model.mag2, "mag2")
    return m1 * model.rate1 * t / mu1 + m2 * model.rate2 * t / mu2


def model2_fptf_cdf(model: CumulativeModel, t: float,
                    policy: TruncationPolicy | None = None) -> float:
    """P(failure by t) = P(total damage by t exceeds the threshold)."""
    return 1.0 - damage_cdf(model, t, model.threshold, policy)


def model2_fptf_mean(model: CumulativeModel,
                     truncation: TruncationPolicy | None = None) -> float:
    """Mean failure time, exact: E[T] = (1/L) sum_s U(s) P(Erlang(s, mu_f) <= K).

    Shocks of the merged stream arrive at rate L = rate1 + rate2, and the
    unit outlives shock n when the damage D_n of the first n shocks is at
    most K, so E[T] = (1/L) sum_n P(D_n <= K).  U is the renewal sequence
    of the per-shock phase pmf f: U(0) = 1, U(s) = sum_j f(j) U(s-j).  The
    series stops at the first S with P(Erlang(S, mu_f) <= K) < tail_epsilon;
    past S each Erlang CDF is at most mu_f K / (S+1) times the one before,
    so the discarded time is below tail_epsilon (S+1) / ((S+1 - mu_f K) L).
    """
    truncation = truncation or TruncationPolicy()
    cdfs = _erlang_cdfs(_fast_rate(model.mag1, model.mag2) * model.threshold,
                        truncation.tail_epsilon, truncation.max_terms_per_axis)
    f1, f2 = _phase_pmfs(model.mag1, model.mag2, len(cdfs))
    total = model.rate1 + model.rate2
    jumps = (model.rate1 * f1 + model.rate2 * f2) / total
    n = len(cdfs)
    steps = jumps[1:]
    rev = np.zeros(n)  # U reversed, as in _compound_poisson_pmf
    rev[-1] = 1.0
    for s in range(1, n):
        rev[n - 1 - s] = steps[:s].dot(rev[n - s:])
    return float(rev @ cdfs[::-1]) / total


def _random_sum_pmf(counts: np.ndarray, mark: np.ndarray) -> np.ndarray:
    """Phase pmf of a random sum of marks: sum_k counts[k] mark^{*k}, cut at len(mark).

    The mark is convolved only over its support, and each power only as
    far as its own, cut at len(mark): every product left out is an exact 0.
    """
    n = len(mark)
    out = np.zeros(n)
    out[0] = counts[0]
    support = np.flatnonzero(mark)
    if not support.size:  # no mark fits below n phases
        return out
    mark = mark[:support[-1] + 1]
    power = np.ones(1)
    for weight in counts[1:]:
        power = np.convolve(power, mark)[:n]
        if not power.any():  # k marks take at least k phases: none fit any more
            break
        out[:len(power)] += weight * power
    return out


def general_damage_cdf(model: GeneralCumulativeModel, t: float, x: float,
                       policy: TruncationPolicy | None = None) -> float:
    """P(total damage by t is <= x) under renewal arrivals, within tail_epsilon.

    Half the bound goes to the phase series and a quarter to each stream's
    renewal counts, cut at the series length: k renewals take k phases.
    Past max_terms_per_axis phases the series is cut as in damage_cdf: the
    mass test there bounds the renewal cuts and the phase cut together.
    """
    policy = policy or TruncationPolicy()
    _check_nonneg(t, "t")
    _check_nonneg(x, "x")
    z = _fast_rate(model.mag1, model.mag2) * x
    cdfs, converged = _erlang_cdf_terms(z, policy.tail_epsilon / 2.0,
                                        policy.max_terms_per_axis)
    f1, f2 = _phase_pmfs(model.mag1, model.mag2, len(cdfs))
    g = np.ones(1)
    for name, inter, mark in (("inter1", model.inter1, f1), ("inter2", model.inter2, f2)):
        shape, rate = _mark_params(inter, name)
        counts = _renewal_counts(shape, rate * t, policy.tail_epsilon / 4.0, len(cdfs))
        g = np.convolve(g, _random_sum_pmf(counts, mark))[:len(cdfs)]
    return _phase_series(g, cdfs, converged, policy, z)


def general_damage_mean(model: GeneralCumulativeModel, t: float,
                        policy: TruncationPolicy | None = None) -> float:
    """E(total damage by t) = sum over streams of E(mark) E(N(t)), exact to rounding.

    E(N(t)) = sum_{k>=1} P(P >= k m), P ~ Poisson(r t), for Erlang(m, r)
    interarrivals, out to _poisson_reach.  It raises NonConvergedError when
    P(N(t) >= max_terms_per_axis) >= tail_epsilon.
    """
    policy = policy or TruncationPolicy()
    _check_nonneg(t, "t")
    cap = policy.max_terms_per_axis
    total = 0.0
    for name, inter, mag in (("inter1", model.inter1, model.mag1),
                             ("inter2", model.inter2, model.mag2)):
        shape, rate = _mark_params(inter, name)
        z = rate * t
        if z < shape * cap:  # else P(N(t) >= cap) >= P(P >= z) > 1e-3
            tails = _poisson_tail(z, _poisson_reach(z, shape))[shape::shape]
            if np.count_nonzero(tails >= policy.tail_epsilon) < cap:
                total += mag.mean() * float(tails.sum())
                continue
        raise NonConvergedError(f"renewal function needs more than {cap} counts (rate * t = {z})")
    return total


def compound_poisson_exponential_cdf(rate: float, mark_rate: float, t: float,
                                     x: float,
                                     policy: TruncationPolicy | None = None) -> float:
    """Damage CDF of a single Poisson stream with exponential magnitudes.

    This is the merged-process reduction: two exponential-mark streams with a
    common magnitude rate collapse into one stream with the summed arrival
    rate, and this evaluation must agree with the two-stream series.  It sums
    its own Poisson weights, apart from the phase-count kernel, for counts
    below n, where P(N >= n) < tail_epsilon / 4 by Bernstein's bound; n past
    max_terms_per_axis raises NonConvergedError.
    """
    policy = policy or TruncationPolicy()
    _check_nonneg(t, "t")
    _check_nonneg(x, "x")
    if not rate > 0 or not mark_rate > 0:
        raise ValueError("rate and mark_rate must be positive")
    n = int(_bernstein_reach(rate * t, policy.tail_epsilon / 4.0)) + 1
    if n > policy.max_terms_per_axis:
        raise NonConvergedError(f"Poisson counts need {n} terms (rate * t = {rate * t})")
    weights = _renewal_counts(1, rate * t, policy.tail_epsilon / 2.0, n)
    terms = [weights[0]]
    for k in range(1, len(weights)):
        terms.append(weights[k] * (1.0 - erlang_survival(k, mark_rate * x)))
    value = math.fsum(terms)
    return min(1.0, max(0.0, value))
