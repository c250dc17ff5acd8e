"""Cumulative damage model: the unit fails when total damage exceeds a threshold.

Two marked shock streams contribute additive damage with Erlang (or
exponential) magnitudes.  With mu_f the larger mark rate, each mark is a
random number of Exp(mu_f) phases (see twoshock.gamma_convolution), so the
total damage is Erlang(S, mu_f) for a random phase count S with pmf g, and

    P(damage <= x) = sum_s g(s) P(Erlang(s, mu_f) <= x).

Under Poisson arrivals g is a compound-Poisson pmf, computed by the Panjer
(1981) recursion; under renewal arrivals it is the convolution over the two
streams of sum_k P(N_i(t) = k) f_i^{*k}, with f_i the phase pmf of one mark.
The mean failure time uses the renewal sequence of the per-shock phase pmf
and needs no quadrature.  Every term is positive, and each series stops at
the first S whose Erlang CDF is below the requested bound.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy import special

from .distributions import Distribution, Erlang, Exponential, erlang_survival
from .errors import NonConvergedError, UnsupportedConvolutionError
from .gamma_convolution import _erlang_cdf_terms, _erlang_cdfs, _phase_pmf
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
    below its share of tail_epsilon, and renewal-count series where their
    discarded weight mass is below theirs, giving an absolute error below
    tail_epsilon.  Needing more than max_terms_per_axis phases or renewal
    counts raises NonConvergedError, except in damage_cdf and
    general_damage_cdf when the phase counts past the cap carry less than
    tail_epsilon of probability.
    """

    tail_epsilon: float = 1e-10
    max_terms_per_axis: int = 10_000

    def __post_init__(self):
        if not 0.0 < self.tail_epsilon <= 1e-3:
            raise ValueError(f"tail_epsilon must be in (0, 1e-3], got {self.tail_epsilon}")
        if self.max_terms_per_axis < 1:
            raise ValueError(f"max_terms_per_axis must be positive, got {self.max_terms_per_axis}")


def _mark_params(dist: Distribution) -> tuple[int, float]:
    """(shape, rate) of an Erlang-family magnitude distribution."""
    if isinstance(dist, Erlang):
        return dist.shape, dist.rate
    if isinstance(dist, Exponential):
        return 1, dist.rate
    raise UnsupportedConvolutionError(
        f"magnitudes must be Erlang or Exponential, got {type(dist).__name__}")


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
        _mark_params(self.mag1)
        _mark_params(self.mag2)


@dataclass(frozen=True)
class GeneralCumulativeModel:
    """Renewal shock arrivals with additive magnitudes.

    The analytic evaluators need closed-form k-fold convolutions throughout
    and reject Weibull members at call time; the simulator has no such
    restriction, so construction accepts any sampleable distributions.
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


def _poisson_weights(mean: float, tail_half: float, max_terms: int) -> np.ndarray:
    """Poisson(mean) pmf through the first index K with P(N > K) < tail_half.

    The weights come from log space, so exp(-mean) may underflow; the tail
    test uses the complemented CDF, so any tail_half a double holds is met.
    """
    k = 0
    while special.pdtrc(k, mean) >= tail_half:
        k += 1
        if k >= max_terms:
            raise NonConvergedError(
                f"Poisson tail bound not met within {max_terms} terms (mean {mean})")
    ks = np.arange(k + 1, dtype=float)
    return np.exp(special.xlogy(ks, mean) - mean - special.gammaln(ks + 1.0))


def _renewal_weights(inter: Distribution, t: float, tail: float,
                     max_terms: int) -> np.ndarray:
    """Increments F^(k)(t) - F^(k+1)(t); the telescoped remainder F^(K+1)(t) < tail."""
    out = []
    f_prev = 1.0
    k = 0
    while True:
        f_next = inter.kfold_cdf(k + 1, t)
        out.append(f_prev - f_next)
        if f_next < tail:
            return np.asarray(out)
        k += 1
        if k >= max_terms:
            raise NonConvergedError(
                f"renewal tail bound not met within {max_terms} terms (t={t})")
        f_prev = f_next


def _fast_rate(mag1: Distribution, mag2: Distribution) -> float:
    return max(_mark_params(mag1)[1], _mark_params(mag2)[1])


def _phase_pmfs(mag1: Distribution, mag2: Distribution,
                length: int) -> tuple[np.ndarray, np.ndarray]:
    """Phase pmfs of both marks in units of the faster mark rate, cut at length."""
    (m1, mu1), (m2, mu2) = _mark_params(mag1), _mark_params(mag2)
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
    weighted = mean * np.arange(n) * jumps
    g = np.zeros(n)
    g[0] = math.exp(-mean)
    for s in range(1, n):
        g[s] = weighted[1:s + 1] @ g[s - 1::-1] / s
    for _ in range(halvings):
        g = np.convolve(g, g)[:n]
    return g


def _check_mass_below_cap(g: np.ndarray, policy: TruncationPolicy, z: float) -> None:
    """Allow cutting the phase series at the cap, or raise NonConvergedError.

    The cut is allowed when the phase-count pmf g, as computed below the
    cap, has mass at least 1 - tail_epsilon: every term of the exact series
    is g(s) times a CDF, so it falls short of the exact value by at most the
    mass g misses.  The mass must clear that bound by a rounding allowance
    of one double epsilon per term.
    """
    mass = math.fsum(g) - len(g) * sys.float_info.epsilon
    if mass < 1.0 - policy.tail_epsilon:
        raise NonConvergedError(
            f"phase series needs more than {policy.max_terms_per_axis} terms "
            f"at rate * x = {z}, and the phase-count mass below the cap, "
            f"{mass!r}, is short of 1 - {policy.tail_epsilon}")


def damage_cdf(model: CumulativeModel, t: float, x: float,
               policy: TruncationPolicy | None = None) -> float:
    """P(total damage by time t is <= x), within tail_epsilon absolute.

    When the Erlang-CDF stop needs more than max_terms_per_axis phases, the
    series is cut at the cap if the phase-count pmf has mass at least
    1 - tail_epsilon below it (_check_mass_below_cap).
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
    if not converged:
        _check_mass_below_cap(g, policy, z)
    value = float(g @ cdfs)
    return min(1.0, max(0.0, value))


def damage_mean(model: CumulativeModel, t: float) -> float:
    """E(total damage by time t); exact, linear in t."""
    _check_nonneg(t, "t")
    m1, mu1 = _mark_params(model.mag1)
    m2, mu2 = _mark_params(model.mag2)
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
    renewal = np.zeros(len(cdfs))
    renewal[0] = 1.0
    for s in range(1, len(cdfs)):
        renewal[s] = jumps[1:s + 1] @ renewal[s - 1::-1]
    return float(renewal @ cdfs) / total


def _random_sum_pmf(counts: np.ndarray, mark: np.ndarray) -> np.ndarray:
    """Phase pmf of a random sum of marks: sum_k counts[k] mark^{*k}, cut at len(mark)."""
    n = len(mark)
    power = np.zeros(n)
    power[0] = 1.0
    out = counts[0] * power
    for weight in counts[1:]:
        power = np.convolve(power, mark)[:n]
        if not power.any():  # k marks take at least k phases: none fit any more
            break
        out += weight * power
    return out


def general_damage_cdf(model: GeneralCumulativeModel, t: float, x: float,
                       policy: TruncationPolicy | None = None) -> float:
    """P(total damage by t is <= x) under renewal arrivals, within tail_epsilon.

    Half the bound goes to the phase series and a quarter to each stream's
    renewal counts.  Past max_terms_per_axis phases the series is cut as in
    damage_cdf: the mass test there bounds the renewal cuts and the phase
    cut together.
    """
    policy = policy or TruncationPolicy()
    _check_nonneg(t, "t")
    _check_nonneg(x, "x")
    z = _fast_rate(model.mag1, model.mag2) * x
    cdfs, converged = _erlang_cdf_terms(z, policy.tail_epsilon / 2.0,
                                        policy.max_terms_per_axis)
    f1, f2 = _phase_pmfs(model.mag1, model.mag2, len(cdfs))
    quarter = policy.tail_epsilon / 4.0
    g1 = _random_sum_pmf(
        _renewal_weights(model.inter1, t, quarter, policy.max_terms_per_axis), f1)
    g2 = _random_sum_pmf(
        _renewal_weights(model.inter2, t, quarter, policy.max_terms_per_axis), f2)
    g = np.convolve(g1, g2)[:len(cdfs)]
    if not converged:
        _check_mass_below_cap(g, policy, z)
    value = float(g @ cdfs)
    return min(1.0, max(0.0, value))


def _renewal_function(inter: Distribution, t: float, eps: float,
                      max_terms: int) -> float:
    """Expected renewals by t: sum_{k>=1} F^(k)(t).

    Terms decay superexponentially for the supported families; summation
    stops once a term is below eps and at most half its predecessor, which
    bounds the remaining tail by the last term (< eps).
    """
    acc = 0.0
    prev = math.inf
    k = 1
    while True:
        term = inter.kfold_cdf(k, t)
        acc += term
        if term < eps and term <= 0.5 * prev:
            return acc
        k += 1
        if k > max_terms:
            raise NonConvergedError(
                f"renewal function series not converged within {max_terms} terms")
        prev = term


def general_damage_mean(model: GeneralCumulativeModel, t: float,
                        policy: TruncationPolicy | None = None) -> float:
    """E(total damage by t) = sum over processes of E(mark) * E(renewals by t)."""
    policy = policy or TruncationPolicy()
    _check_nonneg(t, "t")
    total = 0.0
    for inter, mag in ((model.inter1, model.mag1), (model.inter2, model.mag2)):
        mark_mean = mag.mean()
        eps = policy.tail_epsilon / (4.0 * max(1.0, mark_mean))
        total += mark_mean * _renewal_function(inter, t, eps, policy.max_terms_per_axis)
    return total


def compound_poisson_exponential_cdf(rate: float, mark_rate: float, t: float,
                                     x: float,
                                     policy: TruncationPolicy | None = None) -> float:
    """Damage CDF of a single Poisson stream with exponential magnitudes.

    This is the merged-process reduction: two exponential-mark streams with a
    common magnitude rate collapse into one stream with the summed arrival
    rate, and this evaluation must agree with the two-stream series.  It sums
    its own Poisson weights, apart from the phase-count kernel.
    """
    policy = policy or TruncationPolicy()
    _check_nonneg(t, "t")
    _check_nonneg(x, "x")
    if not rate > 0 or not mark_rate > 0:
        raise ValueError("rate and mark_rate must be positive")
    weights = _poisson_weights(rate * t, policy.tail_epsilon / 2.0,
                               policy.max_terms_per_axis)
    terms = [weights[0]]
    for k in range(1, len(weights)):
        terms.append(weights[k] * (1.0 - erlang_survival(k, mark_rate * x)))
    value = math.fsum(terms)
    return min(1.0, max(0.0, value))
