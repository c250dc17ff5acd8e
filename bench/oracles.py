"""Independent reference values for the benchmark's output checks.

Nothing here imports twoshock.  Erlang and Weibull pieces come from
scipy.special, and every cumulative-damage quantity uses the phase-count
representation: with mu_f the larger mark rate, an Exp(mu) mark is a
Geometric(mu / mu_f) number of Exp(mu_f) phases, so total damage is an
Erlang(S, mu_f) variable with a random phase count S.  All series are
positive-term sums with a rigorous truncation, so the references are accurate
to ~1e-13, well inside the tolerances below.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special, stats

# Tolerances mirror the acceptance suite (tests/test_acceptance.py) and the
# unit tests: 1e-12 absolute for single-distribution curves, 1e-8 relative
# for means, 1e-6 absolute for two-Erlang sums against a numerical oracle.
# Damage CDFs carry tail_epsilon = 1e-10 of series truncation plus the
# float route's documented ~2e-10 cancellation error, hence 1e-9.
CURVE_ATOL = 1e-12
MEAN_RTOL = 1e-8
CONVOLUTION_ATOL = 1e-6
DAMAGE_ATOL = 1e-9
Z_LIMIT = 3.5

_TAIL = 1e-16


def survival(dist: dict, t):
    """P(X > t) for a distribution given as a twoshock JSON dict; t may be an array."""
    t = np.asarray(t, dtype=float)
    kind = dist["type"]
    if kind == "exponential":
        return np.exp(-dist["rate"] * t)
    if kind == "erlang":
        return special.gammaincc(dist["shape"], dist["rate"] * t)
    if kind == "weibull":
        return np.exp(-((t / dist["scale"]) ** dist["shape"]))
    raise ValueError(f"unknown distribution {kind!r}")


def mean(dist: dict) -> float:
    kind = dist["type"]
    if kind == "exponential":
        return 1.0 / dist["rate"]
    if kind == "erlang":
        return dist["shape"] / dist["rate"]
    return dist["scale"] * math.gamma(1.0 + 1.0 / dist["shape"])


def _erlang_params(dist: dict) -> tuple[int, float] | None:
    if dist["type"] == "exponential":
        return 1, dist["rate"]
    if dist["type"] == "erlang":
        return dist["shape"], dist["rate"]
    return None


def catastrophic_survival(model: dict, t):
    """P(min(X, Y) > t), elementwise over an array of t."""
    return survival(model["proc1"], t) * survival(model["proc2"], t)


def catastrophic_mean(model: dict) -> float:
    """E[min(X, Y)]: a binomial double sum for Erlang pairs, QUADPACK otherwise.

    For Erlang(m1, l1) and Erlang(m2, l2), min(X, Y) is Exp(L) times the
    number of merged Poisson events before either stream completes its
    shape, so E = (1/L) sum_{i<m1, j<m2} C(i+j, i) p^i (1-p)^j, p = l1/L.
    """
    e1, e2 = _erlang_params(model["proc1"]), _erlang_params(model["proc2"])
    if e1 is not None and e2 is not None:
        (m1, l1), (m2, l2) = e1, e2
        total = l1 + l2
        p = l1 / total
        log_p, log_q = math.log(p), math.log1p(-p)
        acc = math.fsum(
            math.exp(special.gammaln(i + j + 1) - special.gammaln(i + 1)
                     - special.gammaln(j + 1) + i * log_p + j * log_q)
            for i in range(m1) for j in range(m2))
        return acc / total
    upper = 40.0 * max(mean(model["proc1"]), mean(model["proc2"]))
    value, _ = integrate.quad(lambda t: float(catastrophic_survival(model, t)), 0.0, upper,
                              epsabs=1e-14, epsrel=1e-13, limit=500)
    return value


def _phase_pmf(shape: int, rate: float, fast: float, length: int) -> np.ndarray:
    """pmf over Exp(fast) phase counts of one Erlang(shape, rate) mark."""
    out = np.zeros(length)
    if rate == fast:
        out[shape] = 1.0
        return out
    k = np.arange(length - shape)
    out[shape:] = stats.nbinom.pmf(k, shape, rate / fast)
    return out


def _phase_support(shape: int, rate: float, fast: float) -> int:
    if rate == fast:
        return shape + 1
    return shape + int(stats.nbinom.isf(_TAIL, shape, rate / fast)) + 2


def _counts_pmf(counts: np.ndarray, mark: np.ndarray, length: int) -> np.ndarray:
    """Phase-count pmf of a random sum: sum_k counts[k] * mark^{*k}, cut at length."""
    out = np.zeros(length)
    power = np.zeros(length)
    power[0] = 1.0
    for k, weight in enumerate(counts):
        if k:
            power = np.convolve(power, mark)[:length]
        out += weight * power
    return out


def _poisson_counts(mean_count: float) -> np.ndarray:
    top = int(stats.poisson.isf(_TAIL, mean_count)) + 2
    return stats.poisson.pmf(np.arange(top), mean_count)


def _renewal_counts(inter: dict, t: float) -> np.ndarray:
    """P(N(t) = k) = F^(k)(t) - F^(k+1)(t) for Erlang-family interarrivals."""
    shape, rate = _erlang_params(inter)
    cdf = [1.0]
    while cdf[-1] > _TAIL:
        cdf.append(float(special.gammainc(shape * len(cdf), rate * t)))
    cdf.append(0.0)
    return -np.diff(np.asarray(cdf))


def _damage_phase_pmf(model: dict, t: float, x_max: float) -> tuple[np.ndarray, float]:
    """(pmf of the total phase count at time t, fast rate), cut where it cannot matter.

    Phase counts above the cut have P(Erlang(s, fast) <= x_max) < 1e-16, so
    dropping them moves no CDF value at or below x_max by more than that.
    """
    (m1, r1), (m2, r2) = _erlang_params(model["mag1"]), _erlang_params(model["mag2"])
    fast = max(r1, r2)
    length = int(stats.poisson.isf(_TAIL, fast * x_max)) + 2 if x_max > 0 else 1
    if "rate1" in model:
        counts1 = _poisson_counts(model["rate1"] * t)
        counts2 = _poisson_counts(model["rate2"] * t)
    else:
        counts1 = _renewal_counts(model["inter1"], t)
        counts2 = _renewal_counts(model["inter2"], t)
    pmf1 = _counts_pmf(counts1, _phase_pmf(m1, r1, fast, _phase_support(m1, r1, fast)), length)
    pmf2 = _counts_pmf(counts2, _phase_pmf(m2, r2, fast, _phase_support(m2, r2, fast)), length)
    return np.convolve(pmf1, pmf2)[:length], fast


def _erlang_cdfs(length: int, z: float) -> np.ndarray:
    """P(Erlang(s, 1) <= z) for s = 0..length-1 (s = 0 is the unit step)."""
    out = special.gammainc(np.arange(length, dtype=float), z)
    out[0] = 1.0
    return out


def damage_cdf(model: dict, t: float, xs) -> list:
    """P(total damage by t <= x) for each x, Poisson or renewal arrivals."""
    xs = [float(x) for x in xs]
    pmf, fast = _damage_phase_pmf(model, t, max(xs))
    return [float(pmf @ _erlang_cdfs(len(pmf), fast * x)) for x in xs]


def fptf_mean(model: dict) -> float:
    """Mean failure time of a Poisson cumulative model, exact.

    E[T] = (1/L) sum_n P(damage after n shocks <= K)
         = (1/L) sum_s U(s) P(Erlang(s, fast) <= K),
    with U the renewal sequence of the per-shock phase-count pmf.
    """
    (m1, r1), (m2, r2) = _erlang_params(model["mag1"]), _erlang_params(model["mag2"])
    fast = max(r1, r2)
    total = model["rate1"] + model["rate2"]
    length = int(stats.poisson.isf(_TAIL, fast * model["threshold"])) + 2
    f = np.zeros(length)
    for shape, rate, share in ((m1, r1, model["rate1"] / total),
                               (m2, r2, model["rate2"] / total)):
        mark = _phase_pmf(shape, rate, fast, _phase_support(shape, rate, fast))[:length]
        f[:len(mark)] += share * mark
    renewal = np.zeros(length)
    renewal[0] = 1.0
    for s in range(1, length):
        renewal[s] = f[1:s + 1] @ renewal[s - 1::-1]
    return float(renewal @ _erlang_cdfs(length, fast * model["threshold"])) / total


def convolution_cdf(a: int, ra: float, b: int, rb: float, x: float) -> float:
    """P(Gamma(a, ra) + Gamma(b, rb) <= x) by QUADPACK on the convolution integral."""
    dist_a = stats.gamma(a, scale=1.0 / ra)
    dist_b = stats.gamma(b, scale=1.0 / rb)
    lo, hi = dist_a.ppf(1e-15), min(dist_a.isf(1e-15), x)
    if hi <= lo:
        return 0.0
    value, _ = integrate.quad(lambda y: dist_a.pdf(y) * dist_b.cdf(x - y), lo, hi,
                              epsabs=1e-13, epsrel=1e-11, limit=500)
    return value


def z_score(reference: float, estimate: float, std_error: float) -> float:
    if std_error == 0.0:
        return 0.0 if estimate == reference else math.inf
    return (estimate - reference) / std_error
