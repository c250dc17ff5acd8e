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

Failure-time curves use the law of the crossing index N, the shock of the
merged stream (rate L = rate1 + rate2) that takes the damage past the
threshold K.  With D_k the damage of k shocks, Esary, Marshall & Proschan
(1973) give P(T > t) = sum_k Pois(L t; k) P(D_k <= K), so T is Gamma(N, L)
and every curve value is a sum over h(k) = P(N = k) of positive Poisson
terms.  model2_fptf_curve builds h once per model, from positive sums and
one convolution per shock, and stops at the first k with P(N > k) below
tail_epsilon / 4; together with its phase cut and the trim of the jump pmf
every value is within tail_epsilon (_crossing_index).  Each time reads its
own Poisson(L t) terms from _poisson_pmf, so a value depends only on the
model, the level and its t.  The scalar damage_cdf and model2_fptf_cdf keep
the phase series: at a large threshold a single point costs less than the
whole sequence.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .distributions import (Distribution, Erlang, _check_positive, _poisson_pmf,
                            _poisson_reach, _poisson_tail)
from .errors import NonConvergedError, UnsupportedConvolutionError
from .gamma_convolution import _bernstein_reach, _erlang_cdf_terms, _phase_pmf, _phase_tail
from .numerics import integrate_decaying  # noqa: F401  (bench/tracer.py wraps this name)

__all__ = [
    "TruncationPolicy",
    "CumulativeModel",
    "GeneralCumulativeModel",
    "damage_cdf",
    "damage_mean",
    "model2_fptf_cdf",
    "model2_fptf_curve",
    "model2_fptf_mean",
    "general_damage_cdf",
    "general_damage_mean",
    "compound_poisson_exponential_cdf",
]

# The Panjer recursion starts from exp(-mean), which underflows past ~745; a
# larger Poisson mean is halved until it is at most this, and the pmf squared
# back up.
_PANJER_MAX_MEAN = 500.0

# Most phases, Poisson counts or renewal counts any series takes on one axis.
_MAX_TERMS = 10_000


@dataclass(frozen=True)
class TruncationPolicy:
    """Contract for cutting the infinite damage series.

    A damage series stops at the first phase count whose Erlang CDF is
    below its share of tail_epsilon, and a renewal-count pmf at the first
    count K whose left-out counts carry less than its share, giving an
    absolute error below tail_epsilon.  Needing more than _MAX_TERMS
    phases, or arrival counts outside general_damage_cdf, raises NonConvergedError,
    except in damage_cdf, general_damage_cdf and model2_fptf_curve when the
    phase counts past the cap carry less than tail_epsilon of probability.
    """

    tail_epsilon: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.tail_epsilon <= 1e-3:
            raise ValueError(f"tail_epsilon must be in (0, 1e-3], got {self.tail_epsilon}")


def _mark_params(dist: Distribution, name: str) -> tuple[int, float]:
    """(shape, rate) of the Erlang-family model member called name."""
    if isinstance(dist, Erlang):
        return dist.shape, dist.rate
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
        for name in ("rate1", "rate2", "threshold"):
            _check_positive(getattr(self, name), name)
        _check_positive(self.rate1 + self.rate2, "rate1 + rate2")  # the merged stream's rate
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
        _check_positive(self.threshold, "threshold")


def _check_nonneg(value: float, name: str) -> None:
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be nonnegative and finite, got {value}")


def _renewal_counts(shape: int, z: float, tail: float, n: int) -> np.ndarray:
    """P(N = k) for k < K <= n, N = floor(P / shape), P ~ Poisson(z), with P(K <= N < n) < tail.

    N counts Erlang(shape, r) renewals by t, z = r t: one every shape Exp(r)
    phases.  P(N = k) sums shape positive Poisson terms, so any tail a double
    holds is met.  Counts from n on are left out: every mark takes at least
    one phase, so they reach no phase below n.  Nor are counts past the
    Poisson reach built, where no term carries mass; at z = inf all mass
    lies past every count.  At least one count is kept.
    """
    built = 1 if z == math.inf else min(n, -(-_poisson_reach(z, 1) // shape))
    counts = _poisson_pmf(z, shape * built).reshape(built, shape).sum(axis=1)
    above = np.add.accumulate(counts[::-1])[::-1]
    return counts[:max(1, np.count_nonzero(above >= tail))]


def _phases(model: CumulativeModel | GeneralCumulativeModel, x: float, eps: float,
            extra: int = 0):
    """(z, cdfs, converged, f1, f2): the pieces of a phase series at damage level x.

    z = mu_f x for the faster mark rate mu_f; (cdfs, converged) are
    _erlang_cdf_terms(z, eps, _MAX_TERMS); f1 and f2 are the phase pmfs of
    mag1 and mag2 in units of mu_f, extra terms longer than cdfs.
    """
    (m1, mu1), (m2, mu2) = _mark_params(model.mag1, "mag1"), _mark_params(model.mag2, "mag2")
    fast = max(mu1, mu2)
    z = fast * x
    cdfs, converged = _erlang_cdf_terms(z, eps, _MAX_TERMS)
    n = len(cdfs) + extra
    return z, cdfs, converged, _phase_pmf(m1, mu1, fast, n), _phase_pmf(m2, mu2, fast, n)


def _merged(model: CumulativeModel, a, b):
    """(rate1 a + rate2 b) / L: a stream-1 and a stream-2 quantity mixed as one merged shock."""
    return (model.rate1 * a + model.rate2 * b) / (model.rate1 + model.rate2)


def _compound_poisson_pmf(mean: float, jumps: np.ndarray) -> np.ndarray:
    """pmf of a Poisson(mean) sum of i.i.d. phase jumps (jumps[0] == 0), cut at len(jumps).

    Panjer: g(0) = exp(-mean), g(s) = (mean/s) sum_j j jumps(j) g(s-j).  The
    first n values of a convolution need only the first n of each factor,
    so squaring the pmf at mean/2 is exact on the kept range.  An infinite
    mean puts all mass past the range: the pmf is 0.
    """
    if mean == math.inf:
        return np.zeros(len(jumps))
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


def _check_cut(mass: float, terms: int, policy: TruncationPolicy, z: float) -> None:
    """NonConvergedError unless the phase-count mass below the cap (or a bound above it) suffices.

    Each term of the exact series is a phase probability times a CDF, so a
    series cut at the cap falls short by at most the mass left out; the mass
    must clear 1 - tail_epsilon by one double epsilon of rounding per term.
    """
    if mass - terms * sys.float_info.epsilon < 1.0 - policy.tail_epsilon:
        raise NonConvergedError(
            f"phase series needs more than {_MAX_TERMS} terms "
            f"at rate * x = {z}, and the phase-count mass below the cap, "
            f"{mass!r}, is short of 1 - {policy.tail_epsilon}")


def _phase_series(g: np.ndarray, cdfs: np.ndarray, converged: bool,
                  policy: TruncationPolicy, z: float) -> float:
    """sum_s g(s) cdfs(s) clamped to [0, 1]; a series cut at the cap passes _check_cut first."""
    if not converged:
        _check_cut(math.fsum(g), len(g), policy, z)
    value = float(g @ cdfs)
    return min(1.0, max(0.0, value))


def damage_cdf(model: CumulativeModel, t: float, x: float,
               policy: TruncationPolicy | None = None) -> float:
    """P(total damage by time t is <= x), within tail_epsilon absolute.

    When the Erlang-CDF stop needs more than _MAX_TERMS phases, the series
    is cut at the cap if the phase-count pmf has mass at least
    1 - tail_epsilon below it (_phase_series).
    """
    policy = policy or TruncationPolicy()
    _check_nonneg(t, "t")
    _check_nonneg(x, "x")
    z, cdfs, converged, f1, f2 = _phases(model, x, policy.tail_epsilon)
    g = _compound_poisson_pmf((model.rate1 + model.rate2) * t, _merged(model, f1, f2))
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


def _crossing_index(model: CumulativeModel, x: float, policy: TruncationPolicy):
    """pmf of the index N of the shock that takes the damage past x.

    Returns (h, deficits, trim): h[k - 1] = P(N = k) for k = 1..K + 1, each
    a sum of positive terms; past the phase cap, deficits[k] bounds the
    phase-count mass of k shocks beyond it, for k = 0..K (None when the
    series converges); trim the bound on what trimming J loses.  With
    C(s) = P(Erlang(s, mu_f) <= x) = P(Poisson(z) >= s), z = mu_f x, and q_k
    the phase-count pmf of k shocks kept below the cut S,

        P(N = k + 1) = sum_s q_k(s) G(s),  G(s) = sum_{p >= s} pi(p) P(J > p - s),

    with pi the Poisson(z) pmf, its mass from S - 1 on lumped at S - 1, and
    J the phase count of one shock.  Then sum_{j > k} h(j) telescopes to
    b(k) = sum_s q_k(s) C(s), which is P(N > k) as cut at S.  One
    convolution per shock steps q_k.  The loop stops at the first K with
    b(K) < eps / 4 (past the cap: q_K has mass below eps / 4) and puts b(K)
    on K + 1, which moves less than eps / 4 of probability.  The cut S is
    where C(S) < eps / 2, and J is trimmed at the first w with
    P(J >= w) <= eps / (8 (1 + z)): N - 1 <= S_{N-1} <= Poisson(z), so
    E[N] <= 1 + z, and each shock loses at most 2 P(J >= w) of the mass
    still below x, in all less than eps / 4.  So a sum of h against values
    in [0, 1] is within eps of the exact one, or, past _MAX_TERMS phases,
    within trim plus the phase mass the cap leaves out.
    """
    eps = policy.tail_epsilon
    z, cdfs, converged, f1, f2 = _phases(model, x, eps / 2.0, extra=1)
    n = len(cdfs)
    lumped = _poisson_pmf(z, n)
    lumped[-1] = cdfs[-1]
    jumps = _merged(model, f1[:n], f2[:n])
    (m1, mu1), (m2, mu2) = _mark_params(model.mag1, "mag1"), _mark_params(model.mag2, "mag2")
    exceed = np.empty(n)  # P(J > i) for i < n
    exceed[-1] = _merged(model, _phase_tail(m1, mu1, max(mu1, mu2), f1),
                         _phase_tail(m2, mu2, max(mu1, mu2), f2))
    exceed[:-1] = np.add.accumulate(jumps[:0:-1])[::-1] + exceed[-1]
    width = n  # a jump of n phases or more leaves the cut from anywhere: nothing is lost
    small = np.flatnonzero(exceed[:-1] <= eps / (8.0 * (1.0 + z)))  # exceed[i] = P(J >= i + 1)
    if small.size:
        width = small[0] + 1
    crossing = np.correlate(np.concatenate((lumped, np.zeros(width - 1))), exceed[:width])
    step = jumps[:width]
    q = np.zeros(n)
    q[0] = 1.0
    h, masses, alive, visits = [], [1.0], 1.0, 0.0
    while True:
        h.append(float(q @ crossing))
        visits += alive
        q = np.convolve(q, step)[:n]
        alive = float(q @ cdfs)
        masses.append(float(q.sum()))
        if (alive if converged else masses[-1]) < eps / 4.0:
            break
    h.append(alive)
    trim = 2.0 * exceed[width - 1] * visits if width < n else 0.0
    if converged:
        return np.array(h), None, trim
    # each mass sums n terms: allow n roundings, as _phase_series does
    return np.array(h), 1.0 - np.array(masses) + n * sys.float_info.epsilon, trim


def _crossing_curve(model: CumulativeModel, x: float, ts, policy: TruncationPolicy | None = None
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(P(T <= t), P(T > t), density of T at t) over ts, T the time the damage passes x.

    T is Gamma(N, L) for the crossing index N, L = rate1 + rate2, so with
    M ~ Poisson(L t) each value is a positive sum over the Poisson pmf:

        P(T <= t) = sum_j P(M = j) P(N <= j),  P(T > t) = sum_j P(M = j) P(N > j),
        f(t) = L sum_j P(M = j) P(N = j + 1).

    N takes the values 1..k, k = len(h), with h[j] = P(N = j + 1), so P(N <= j)
    is P(N <= k) from j = k on and one tail P(M >= k) carries those terms
    (1 minus the first k at L t >= k, where it is at least 1/2).  The smaller
    of the two probabilities is summed and the other is 1 minus it, so they
    add to 1 and both keep their relative accuracy.  Each is within
    tail_epsilon of the exact value, and the density within L times that.
    Past _MAX_TERMS phases, a t raises NonConvergedError unless its omitted
    phase mass, sum_k P(M = k) (1 - mass_k), plus the trim bound of
    _crossing_index is below tail_epsilon.  The times are taken one at a
    time, so each value depends only on its own t.
    """
    policy = policy or TruncationPolicy()
    _check_nonneg(x, "x")
    for t in ts:
        _check_nonneg(t, "t")
    h, deficits, trim = _crossing_index(model, x, policy)
    k = len(h)
    below = np.add.accumulate(h)  # P(N <= j + 1) at j
    # P(N <= j - 1), P(N > j) and P(N = j + 1) at row j
    sums = np.column_stack((np.append(0.0, below[:-1]), np.add.accumulate(h[::-1])[::-1], h))
    total = model.rate1 + model.rate2
    out = np.empty((3, len(ts)))
    for i, t in enumerate(ts):
        z = total * float(t)  # a float product past the range is inf: head 0, tail 1
        if z < k:
            terms = _poisson_pmf(z, _poisson_reach(z, k + 1))
            head, tail = terms[:k], terms[k:].sum()
        else:
            head = _poisson_pmf(z, k)
            tail = 1.0 - head.sum()
        if deficits is not None:  # counts from k on may all be past the cap
            bound = head @ deficits + tail + trim
            if not bound < policy.tail_epsilon:
                raise NonConvergedError(
                    f"phase series needs more than {_MAX_TERMS} terms at level x = {x}, "
                    f"and the phase-count mass it leaves out at t = {t} "
                    f"reaches {float(bound)!r}")
        failed, alive, density = head @ sums
        failed += tail * below[-1]
        if failed <= alive:
            alive = 1.0 - failed
        else:
            failed = 1.0 - alive
        out[:, i] = failed, alive, total * density
    return out[0], out[1], out[2]


def model2_fptf_curve(model: CumulativeModel, ts, policy: TruncationPolicy | None = None
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(CDF, survival, density) arrays of the failure time over the times ts.

    One crossing-index sequence at the threshold serves every t; see
    _crossing_curve for the sums and their error bound.  The CDF keeps its
    relative accuracy at early times, where 1 - damage_cdf cancels.
    """
    return _crossing_curve(model, model.threshold, ts, policy)


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
    eps = (truncation or TruncationPolicy()).tail_epsilon
    z, cdfs, converged, f1, f2 = _phases(model, model.threshold, eps)
    if not converged:
        raise NonConvergedError(f"phase series needs more than {_MAX_TERMS} terms "
                                f"(Erlang CDF bound {eps} at rate * x = {z})")
    n = len(cdfs)
    steps = _merged(model, f1, f2)[1:]
    rev = np.zeros(n)  # U reversed, as in _compound_poisson_pmf
    rev[-1] = 1.0
    for s in range(1, n):
        rev[n - 1 - s] = steps[:s].dot(rev[n - s:])
    return float(rev @ cdfs[::-1]) / (model.rate1 + model.rate2)


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
    Past _MAX_TERMS phases the series is cut as in damage_cdf, whose mass
    test bounds the renewal cuts and the phase cut together.  It runs first
    on the product of the two kept count masses, which bounds g's mass
    because k marks take at least k phases.
    """
    policy = policy or TruncationPolicy()
    _check_nonneg(t, "t")
    _check_nonneg(x, "x")
    z, cdfs, converged, f1, f2 = _phases(model, x, policy.tail_epsilon / 2.0)
    streams = (_mark_params(model.inter1, "inter1"), _mark_params(model.inter2, "inter2"))
    counts = [_renewal_counts(shape, rate * t, policy.tail_epsilon / 4.0, len(cdfs))
              for shape, rate in streams]
    if not converged:
        _check_cut(math.fsum(counts[0]) * math.fsum(counts[1]), len(cdfs), policy, z)
    g = np.ones(1)
    for stream, mark in zip(counts, (f1, f2)):
        g = np.convolve(g, _random_sum_pmf(stream, mark))[:len(cdfs)]
    return _phase_series(g, cdfs, converged, policy, z)


def general_damage_mean(model: GeneralCumulativeModel, t: float,
                        policy: TruncationPolicy | None = None) -> float:
    """E(total damage by t) = sum over streams of E(mark) E(N(t)), exact to rounding.

    E(N(t)) = sum_{k>=1} P(P >= k m), P ~ Poisson(r t), for Erlang(m, r)
    interarrivals, out to _poisson_reach.  It raises NonConvergedError when
    P(N(t) >= _MAX_TERMS) >= tail_epsilon.
    """
    policy = policy or TruncationPolicy()
    _check_nonneg(t, "t")
    total = 0.0
    for name, inter, mag in (("inter1", model.inter1, model.mag1),
                             ("inter2", model.inter2, model.mag2)):
        shape, rate = _mark_params(inter, name)
        z = rate * t
        if z < shape * _MAX_TERMS:  # else P(N(t) >= cap) >= P(P >= z) > 1e-3
            tails = _poisson_tail(z, _poisson_reach(z, shape))[shape::shape]
            if np.count_nonzero(tails >= policy.tail_epsilon) < _MAX_TERMS:
                total += mag.mean() * float(tails.sum())
                continue
        raise NonConvergedError(
            f"renewal function needs more than {_MAX_TERMS} counts (rate * t = {z})")
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
    _MAX_TERMS raises NonConvergedError.  Given k marks the damage
    is Erlang(k, mark_rate), whose CDF at x is P(Poisson(mark_rate x) >= k):
    one array of positive tails serves every k.
    """
    policy = policy or TruncationPolicy()
    _check_nonneg(t, "t")
    _check_nonneg(x, "x")
    _check_positive(rate, "rate")
    _check_positive(mark_rate, "mark_rate")
    reach = _bernstein_reach(rate * t, policy.tail_epsilon / 4.0)  # inf if rate * t overflows
    if reach >= _MAX_TERMS:
        raise NonConvergedError(f"Poisson counts need more than {_MAX_TERMS} "
                                f"terms (rate * t = {rate * t})")
    n = int(reach) + 1
    weights = _renewal_counts(1, rate * t, policy.tail_epsilon / 2.0, n)
    value = math.fsum(weights * _poisson_tail(mark_rate * x, len(weights)))
    return min(1.0, value)
