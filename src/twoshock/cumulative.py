"""Cumulative damage model: the unit fails when total damage exceeds a threshold.

Two marked shock streams contribute additive damage with Erlang (or
exponential) magnitudes.  With mu_f the larger mark rate, each mark is a
random number of Exp(mu_f) phases (see twoshock.gamma_convolution), so the
total damage is Erlang(S, mu_f) for a random phase count S with pmf g, and

    P(damage <= x) = sum_s g(s) P(Erlang(s, mu_f) <= x).

Under Poisson arrivals g is a compound-Poisson pmf.  When the two marks
share their rate, an Erlang(m_i, mu) mark is exactly m_i phases, so
S = m1 P1 + m2 P2 with P_i ~ Poisson(rate_i t) the independent stream counts
(Poisson splitting, Kingman 1993, 5.1): g is the Poisson pmf of each stream
put on its m_i-lattice and the two convolved, or one Poisson pmf of the
summed rate when m1 = m2, every term a positive Poisson term at any mean.
At unequal mark rates g comes from the Panjer (1981) recursion over the
merged stream.  A merged shock (_Stages) is the faster mark, exactly m_f
phases, or the slower, Erlang(m, p mu_f), which is m + NegBin(m, p), so for
m up to _STAGE_SHAPE the recursion runs on m + 1 running stage sums of g
with positive coefficients p and q = 1 - p (_stage_panjer), and a larger m
takes one dot product per phase over the merged jump pmf (_Stages.jumps);
the lattice and stage routes build no mark pmf.  Every series reads its
Erlang-CDF terms from _erlang_axis, which builds them once per damage level
and keeps the last _AXIS_CACHE_SIZE levels: only g depends on t, so the
points of a failure-time curve and its mean share one axis.  Under renewal
arrivals g is the convolution over the two streams of
sum_k P(N_i(t) = k) f_ik, with f_ik the phase pmf of Erlang(k m_i, mu_i),
the sum of k marks: P(N_i(t) = k) on the m_i-lattice at mu_i = mu_f.
Arrivals are counted in phases too: Erlang(m, r) interarrivals give N_i(t) =
floor(P / m), P ~ Poisson(r t), whose pmf and mean are sums of Poisson terms.
The mean failure time uses the renewal sequence of the per-shock phase pmf
and needs no quadrature; at equal mark rates a shock takes m1 or m2 phases,
and the sequence is a two-term scalar recurrence; at unequal rates it
takes stage sums as g does (_stage_renewal).  Every term is positive,
and each series stops at the first S whose Erlang CDF is below the
requested bound.

Failure-time curves use the law of the crossing index N, the shock of the
merged stream (rate L = rate1 + rate2) that takes the damage past the
threshold K.  With D_k the damage of k shocks, Esary, Marshall & Proschan
(1973) give P(T > t) = sum_k Pois(L t; k) P(D_k <= K), so T is Gamma(N, L)
and every curve value is a sum over h(k) = P(N = k) of positive Poisson
terms.  model2_fptf_curve builds h once per model, from positive sums and
one convolution per shock, and stops at the first k with P(N > k) below
tail_epsilon / 4; together with its phase cut and the trim of the jump pmf
every value is within tail_epsilon (_crossing_index), and past the phase cap
each time passes the cut rule of the scalar series.  Each time reads its
own Poisson(L t) terms from _poisson_pmf, so a value depends only on the
model, the level and its t.  The scalar damage_cdf and model2_fptf_cdf keep
the phase series: at a large threshold a single point costs less than the
whole sequence.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .distributions import (Distribution, Erlang, _check_positive, _poisson_pmf,
                            _poisson_reach, _poisson_tail, _time_grid)
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

# At unequal mark rates a slower mark of at most this shape takes the
# stage-sum recursions (_stage_panjer, _stage_renewal), whose scalar steps
# cost O(shape); a larger one takes one dot product per phase over the mark
# pmfs.  Whole damage_cdf and model2_fptf_mean calls on three models, on a
# 2-core x86-64 host under Python 3.11 and numpy 2.4.6 (timeit minima): the
# stage route ran 1.4-2.4x as fast at shape 1, 1.7-1.9x at 3, 1.1-1.3x at
# 8, 1.0-1.2x at 10, 0.95-1.1x at 11, 0.65-0.85x at 20 and 0.3-0.4x at 50.
_STAGE_SHAPE = 10

# Most phases, Poisson counts or renewal counts any series takes on one axis:
# the smallest multiple of 256 at or above 10,219 terms, the longest whole
# series of any mean a bound on the left-out terms let a 10,000 cap return.
_MAX_TERMS = 10_240

# Most Erlang-CDF axes _erlang_axis keeps, keyed by (mu_f x, eps, _MAX_TERMS):
# floats and an int, so no model is kept alive.  An axis is at most the cap
# plus the Poisson reach, 11,294 doubles (90 KB), so all stay under 1.5 MB.
# The values are read-only, and each caller still runs its own cut check on
# them, so no error or warning is kept.
_AXIS_CACHE_SIZE = 16
_erlang_cdf_terms = functools.lru_cache(maxsize=_AXIS_CACHE_SIZE)(_erlang_cdf_terms)


@dataclass(frozen=True)
class TruncationPolicy:
    """Contract for cutting the infinite damage series.

    A damage series stops at the first phase count whose Erlang CDF is
    below its share of tail_epsilon, and a renewal-count pmf at the first
    count K whose left-out counts carry less than its share, giving an
    absolute error below tail_epsilon.  Past _MAX_TERMS terms a probability
    series (damage_cdf, general_damage_cdf, the failure-time curve) is cut
    at the cap when its phase-count mass below it clears 1 - tail_epsilon
    (_check_cut); model2_fptf_mean and a count axis (general_damage_mean,
    compound_poisson_exponential_cdf) are never cut: else NonConvergedError.
    """

    tail_epsilon: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.tail_epsilon <= 1e-3:
            raise ValueError(f"tail_epsilon must be in (0, 1e-3], got {self.tail_epsilon}")


# The policy of every call made without one; the class is frozen, so one serves all.
_DEFAULT_POLICY = TruncationPolicy()


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


def _erlang_axis(model: CumulativeModel | GeneralCumulativeModel, x: float, eps: float):
    """(fast, z, cdfs, converged): the Erlang-CDF axis of a phase series at damage level x.

    fast is the faster mark rate mu_f, z = mu_f x, and (cdfs, converged) are
    _erlang_cdf_terms(z, eps, _MAX_TERMS), read-only.  The axis depends on z
    and eps alone, so the last _AXIS_CACHE_SIZE of them are kept: points of a
    curve at one level, and a mean at the threshold, build it once.  A
    CumulativeModel checks at construction that its marks are Erlang;
    callers with a GeneralCumulativeModel check them first.
    """
    fast = max(model.mag1.rate, model.mag2.rate)
    z = fast * x
    cdfs, converged = _erlang_cdf_terms(z, eps, _MAX_TERMS)
    return fast, z, cdfs, converged


def _phase_shifts(model: CumulativeModel) -> tuple[int, int] | None:
    """(m1, m2) when the marks share a rate, so each is exactly its shape in phases; else None."""
    mag1, mag2 = model.mag1, model.mag2
    return (mag1.shape, mag2.shape) if mag1.rate == mag2.rate else None


def _on_lattice(counts: np.ndarray, m: int, n: int) -> np.ndarray:
    """Phase pmf of N marks of m phases each, N with pmf counts: counts[k] at k m, cut at n."""
    out = np.zeros(n)
    kept = counts[:-(-n // m)]
    out[:m * len(kept):m] = kept
    return out


def _poisson_lattice(z: float, m: int, n: int) -> np.ndarray:
    """Phase pmf of Poisson(z) marks of m phases each, cut at n and at the Poisson reach.

    The counts past _poisson_reach carry less than a double resolves, so
    the pmf may end before n; _phase_series reads such a g as 0 past its
    end.  At m = 1 the lattice is the Poisson pmf itself, with no copy.  At
    z = inf all mass lies past the range: the one count built is 0.
    """
    built = 1 if z == math.inf else min(-(-n // m), _poisson_reach(z, 1))
    pmf = _poisson_pmf(z, built)
    return pmf if m == 1 else _on_lattice(pmf, m, min(n, m * built))


def _halved(mean: float, n: int, panjer) -> np.ndarray:
    """A compound-Poisson(mean) phase pmf cut at n, from panjer(part) at part <= _PANJER_MAX_MEAN.

    Panjer starts from g(0) = exp(-mean), which underflows past ~745, so a
    larger mean is halved k times and the pmf at mean / 2^k squared k times.
    The first n values of a convolution need only the first n of each
    factor, so each squaring is exact on the kept range.  An infinite mean
    puts all mass past the range: the pmf is 0.
    """
    if mean == math.inf:
        return np.zeros(n)
    halvings = 0
    while mean > _PANJER_MAX_MEAN:
        mean /= 2.0
        halvings += 1
    g = panjer(mean)
    for _ in range(halvings):
        g = np.convolve(g, g)[:n]
    return g


def _compound_poisson_pmf(mean: float, jumps: np.ndarray) -> np.ndarray:
    """pmf of a Poisson(mean) sum of i.i.d. phase jumps (jumps[0] == 0), cut at len(jumps).

    Panjer: g(0) = exp(-mean), g(s) = (mean/s) sum_j j jumps(j) g(s-j), one
    dot product per phase, halved past _PANJER_MAX_MEAN (_halved).
    """
    n = len(jumps)

    def panjer(part: float) -> np.ndarray:
        weighted = part * np.arange(1, n) * jumps[1:]  # weighted[j - 1] = part j jumps(j)
        rev = np.zeros(n)  # g reversed, so each step dots two forward slices
        rev[-1] = math.exp(-part)
        for s in range(1, n):
            rev[n - 1 - s] = weighted[:s].dot(rev[n - s:]) / s
        return rev[::-1]

    return _halved(mean, n, panjer)


@dataclass(frozen=True)
class _Stages:
    """One merged shock in Exp(fast) phases, fast = mu_f the faster mark rate.

    It carries the faster mark, exactly fast_shape phases, with probability
    fast_weight, and with slow_weight the slower Erlang(shape, rate) mark,
    shape + NegBin(shape, p) phases, p = rate / fast and q = 1 - p.  Equal
    mark rates are p = 1, q = 0: both marks are atoms.
    """

    fast_shape: int
    fast_weight: float
    shape: int
    rate: float
    fast: float
    slow_weight: float
    p = property(lambda self: self.rate / self.fast)
    q = property(lambda self: (self.fast - self.rate) / self.fast)

    def jumps(self, n: int) -> np.ndarray:
        """P(J = j) for j < n, J the phase count of one merged shock."""
        if self.rate < self.fast:
            out = self.slow_weight * _phase_pmf(self.shape, self.rate, self.fast, n)
        else:  # equal rates: the slower mark is an atom too
            out = np.zeros(n)
            out[self.shape:self.shape + 1] = self.slow_weight  # a slice: empty past n
        out[self.fast_shape:self.fast_shape + 1] += self.fast_weight
        return out


def _stages(model: CumulativeModel) -> _Stages:
    """_Stages of a model; at equal mark rates mag1 is taken as the faster."""
    total = model.rate1 + model.rate2
    (fast, fast_rate), (slow, slow_rate) = sorted(
        [(model.mag1, model.rate1), (model.mag2, model.rate2)], key=lambda mark: -mark[0].rate)
    return _Stages(fast.shape, fast_rate / total, slow.shape, slow.rate, fast.rate,
                   slow_rate / total)


def _stage_panjer(mean: float, stages: _Stages, n: int) -> np.ndarray:
    """Panjer's g(s) for s < n at mean <= _PANJER_MAX_MEAN, by m + 1 running stage sums.

    With J = m + NegBin(m, p) the slower mark's phase count, j P(J = j) =
    m P(Bin(j, p) = m), so its part of sum_j j f(j) g(s - j) is m B_m(s),
    where B_k(s) = sum_j P(Bin(j, p) = k) g(s - j) steps as

        B_0(s) = g(s) + q B_0(s - 1),  B_k(s) = q B_k(s - 1) + p B_{k-1}(s - 1),

    and g(s) = (mean / s) (w_f m_f g(s - m_f) + w_s m B_m(s)).  B_m(s) reads
    g only up to s - 1, every coefficient is positive, and each B_k is at
    most the mass of g.  No mark pmf is built.
    """
    lead = min(stages.fast_shape, n)  # zeros before g(0), so g(s - m_f) reads 0 for s < m_f
    fast = mean * stages.fast_weight * stages.fast_shape
    m, p, q = stages.shape, stages.p, stages.q
    slow = mean * stages.slow_weight * m
    g = [0.0] * lead + [math.exp(-mean)]
    b = [g[-1]] + [0.0] * m  # B_k(0)
    for s in range(1, n):
        for k in range(m, 0, -1):
            b[k] = q * b[k] + p * b[k - 1]
        value = (fast * g[-lead] + slow * b[m]) / s
        g.append(value)
        b[0] = value + q * b[0]
    return np.array(g[lead:])


def _stage_renewal(stages: _Stages, n: int) -> np.ndarray:
    """Renewal sequence U(s) for s < n of the merged per-shock phase pmf, by m running stage sums.

    With J = m + NegBin(m, p), P(J = j) = p P(Bin(j - 1, p) = m - 1), so

        U(s) = w_f U(s - m_f) + w_s p B_{m-1}(s - 1),  U(0) = 1,

    with B_k the stage sums of _stage_panjer taken over U.
    """
    lead = min(stages.fast_shape, n)
    m, p, q = stages.shape, stages.p, stages.q
    fast, slow = stages.fast_weight, stages.slow_weight * p
    u = [0.0] * lead + [1.0]
    b = [1.0] + [0.0] * (m - 1)  # B_k(0)
    for _ in range(1, n):
        value = fast * u[-lead] + slow * b[m - 1]
        u.append(value)
        for k in range(m - 1, 0, -1):
            b[k] = q * b[k] + p * b[k - 1]
        b[0] = value + q * b[0]
    return np.array(u[lead:])


def _check_cut(mass: float, terms: int, policy: TruncationPolicy, where: str) -> None:
    """NonConvergedError unless the phase-count mass below the cap, or a bound on it, suffices.

    Each term of the exact series is a phase probability times a CDF, so a
    series cut at the cap falls short by at most the mass left out; the mass
    must clear 1 - tail_epsilon by one double epsilon of rounding per term.
    """
    if mass - terms * sys.float_info.epsilon < 1.0 - policy.tail_epsilon:
        raise NonConvergedError(
            f"phase series needs more than {_MAX_TERMS} terms "
            f"at {where}, and the phase-count mass below the cap, "
            f"{mass!r}, is short of 1 - {policy.tail_epsilon}")


def _phase_series(g: np.ndarray, cdfs: np.ndarray, converged: bool,
                  policy: TruncationPolicy, z: float) -> float:
    """sum_s g(s) cdfs(s) clamped to [0, 1], g no longer than cdfs and 0 past its end.

    A series cut at the cap passes _check_cut first.
    """
    if not converged:
        _check_cut(math.fsum(g), len(g), policy, f"rate * x = {z}")
    value = float(g @ cdfs[:len(g)])
    return min(1.0, max(0.0, value))


def damage_cdf(model: CumulativeModel, t: float, x: float,
               policy: TruncationPolicy | None = None) -> float:
    """P(total damage by time t is <= x), within tail_epsilon absolute.

    When the marks share their rate mu, an Erlang(m_i, mu) mark is exactly
    m_i Exp(mu) phases, so the phase count is m1 P1 + m2 P2 with P_i the
    Poisson(rate_i t) count of stream i: g is the convolution of the two
    Poisson pmfs on their lattices, or at m1 = m2 the Poisson((rate1 +
    rate2) t) pmf on one lattice.  That is the compound-Poisson law exactly,
    with positive terms at any mean.  At unequal rates the Panjer recursion
    gives g: by running stage sums of the slower mark when its shape is at
    most _STAGE_SHAPE (_stage_panjer), else by one dot product per phase
    over the merged jump pmf, the only route that builds a mark pmf.
    Past _MAX_TERMS phases the series is cut as TruncationPolicy says
    (_phase_series).
    """
    policy = policy or _DEFAULT_POLICY
    _check_nonneg(t, "t")
    _check_nonneg(x, "x")
    _, z, cdfs, converged = _erlang_axis(model, x, policy.tail_epsilon)
    n = len(cdfs)
    shifts = _phase_shifts(model)
    if shifts is None:
        mean = (model.rate1 + model.rate2) * t
        stages = _stages(model)
        if stages.shape <= _STAGE_SHAPE:
            g = _halved(mean, n, lambda part: _stage_panjer(part, stages, n))
        else:
            g = _compound_poisson_pmf(mean, stages.jumps(n))
    elif shifts[0] == shifts[1]:
        g = _poisson_lattice((model.rate1 + model.rate2) * t, shifts[0], n)
    else:
        g = np.convolve(_poisson_lattice(model.rate1 * t, shifts[0], n),
                        _poisson_lattice(model.rate2 * t, shifts[1], n))[:n]
    return _phase_series(g, cdfs, converged, policy, z)


def damage_mean(model: CumulativeModel, t: float) -> float:
    """E(total damage by time t); exact, linear in t."""
    _check_nonneg(t, "t")
    mag1, mag2 = model.mag1, model.mag2
    return mag1.shape * model.rate1 * t / mag1.rate + mag2.shape * model.rate2 * t / mag2.rate


def model2_fptf_cdf(model: CumulativeModel, t: float,
                    policy: TruncationPolicy | None = None) -> float:
    """P(failure by t) = P(total damage by t exceeds the threshold)."""
    return 1.0 - damage_cdf(model, t, model.threshold, policy)


def _crossing_index(model: CumulativeModel, x: float, policy: TruncationPolicy):
    """pmf of the index N of the shock that takes the damage past x.

    Returns (h, kept, n): h[k - 1] = P(N = k) for k = 1..K + 1, each a sum
    of positive terms; n the phase terms of the series; and, past the phase
    cap, kept[k] the phase-count mass of k shocks below it less the trim
    bound, for k = 0..K (None when the series converges).  With
    C(s) = P(Erlang(s, mu_f) <= x) = P(Poisson(z) >= s), z = mu_f x, and q_k
    the phase-count pmf of k shocks kept below the cut S,

        P(N = k + 1) = sum_s q_k(s) G(s),  G(s) = sum_{p >= s} pi(p) P(J > p - s),

    with pi the Poisson(z) pmf, its mass from S - 1 on lumped at S - 1, and
    J the phase count of one shock (_Stages).  Then sum_{j > k} h(j) telescopes to
    b(k) = sum_s q_k(s) C(s), which is P(N > k) as cut at S.  One
    convolution per shock steps q_k.  The loop stops at the first K with
    b(K) < eps / 4 (past the cap: q_K has mass below eps / 4) and puts b(K)
    on K + 1, which moves less than eps / 4 of probability.  The cut S is
    where C(S) < eps / 2, and J is trimmed at the first w with
    P(J >= w) <= eps / (8 (1 + z)): N - 1 <= S_{N-1} <= Poisson(z), so
    E[N] <= 1 + z, and each shock loses at most 2 P(J >= w) of the mass
    still below x, in all less than eps / 4.  So a sum of h against values
    in [0, 1] is within eps of the exact one, or, past _MAX_TERMS phases,
    within the trim bound plus the phase mass the cap leaves out.
    """
    eps = policy.tail_epsilon
    _, z, cdfs, converged = _erlang_axis(model, x, eps / 2.0)
    n = len(cdfs)
    lumped = _poisson_pmf(z, n)
    lumped[-1] = cdfs[-1]
    jumps = (stages := _stages(model)).jumps(n)
    exceed = np.empty(n)  # P(J > i) for i < n
    exceed[-1] = (stages.fast_weight * (stages.fast_shape >= n) + stages.slow_weight
                  * _phase_tail(stages.shape, stages.rate, stages.fast, n))
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
        masses.append(alive if converged else float(q.sum()))  # what the stop rule reads
        if masses[-1] < eps / 4.0:
            break
    h.append(alive)
    if converged:
        return np.array(h), None, n
    trim = 2.0 * exceed[width - 1] * visits if width < n else 0.0
    return np.array(h), np.array(masses) - trim, n


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
    Past _MAX_TERMS phases each t passes _check_cut on the phase mass it
    keeps, sum_{j < k} P(M = j) kept[j] (_crossing_index); counts from k on
    may all be past the cap and count as none kept.  The times are taken one
    at a time, so each value depends only on its own t.
    """
    policy = policy or _DEFAULT_POLICY
    _check_nonneg(x, "x")
    ts = _time_grid(ts).tolist()
    for t in ts:
        _check_nonneg(t, "t")
    h, kept, phases = _crossing_index(model, x, policy)
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
        if kept is not None:
            _check_cut(float(head @ kept), phases, policy, f"level x = {x} and t = {t}")
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
    """(CDF, survival, density) arrays of the failure time over the 1-D grid ts.

    One crossing-index sequence at the threshold serves every t; see
    _crossing_curve for the sums and their error bound.  The CDF keeps its
    relative accuracy at early times, where 1 - damage_cdf cancels.
    """
    return _crossing_curve(model, model.threshold, ts, policy)


def _lattice_renewal(model: CumulativeModel, m1: int, m2: int, n: int) -> np.ndarray:
    """U(s) for s < n when a shock takes exactly m1 or m2 phases.

    U(0) = 1, U(s) = p1 U(s - m1) + p2 U(s - m2), p_i = rate_i / L, in
    scalar steps.  Equal shapes give U = 1 on the multiples of m1, 0 elsewhere.
    """
    if m1 == m2:
        u = np.zeros(n)
        u[::m1] = 1.0
        return u
    total = model.rate1 + model.rate2
    p1, p2 = model.rate1 / total, model.rate2 / total
    d1, d2 = min(m1, n), min(m2, n)  # s < n, so a shift of n reads 0 as a longer one does
    u = [0.0] * max(d1, d2) + [1.0]  # zeros before U(0), so U(s - m) reads 0 for s < m
    for _ in range(1, n):
        u.append(p1 * u[-d1] + p2 * u[-d2])
    return np.array(u[-n:])


def model2_fptf_mean(model: CumulativeModel,
                     policy: TruncationPolicy | None = None) -> float:
    """Mean failure time, exact: E[T] = (1/L) sum_s U(s) P(Erlang(s, mu_f) <= K).

    Shocks of the merged stream arrive at rate L = rate1 + rate2, and the
    unit outlives shock n when the damage D_n of the first n shocks is at
    most K, so E[T] = (1/L) sum_n P(D_n <= K).  U is the renewal sequence
    of the per-shock phase pmf f: U(0) = 1, U(s) = sum_j f(j) U(s-j).  When
    the marks share their rate, a shock takes exactly m1 phases with
    probability p1 = rate1 / L and m2 with p2 = rate2 / L, so f has two atoms
    and U(s) = p1 U(s - m1) + p2 U(s - m2) is the same sequence in O(n)
    scalar steps (_lattice_renewal).  At unequal rates a slower mark of
    shape m up to _STAGE_SHAPE gives U in O(n m) scalar steps of running
    stage sums (_stage_renewal); a larger one takes a dot product over the
    merged jump pmf for each U(s), the only route that builds a mark pmf.
    The series stops at the first S with P(Erlang(S, mu_f) <= K) < tail_epsilon;
    past S each Erlang CDF is at most mu_f K / (S+1) times the one before,
    so the discarded time is below tail_epsilon (S+1) / ((S+1 - mu_f K) L).
    An S past _MAX_TERMS raises NonConvergedError before U is built.
    """
    eps = (policy or _DEFAULT_POLICY).tail_epsilon
    _, z, cdfs, converged = _erlang_axis(model, model.threshold, eps)
    if not converged:
        raise NonConvergedError(f"phase series needs more than {_MAX_TERMS} terms "
                                f"at rate * x = {z}")
    n = len(cdfs)
    shifts = _phase_shifts(model)
    if shifts is not None:
        u = _lattice_renewal(model, *shifts, n)
    elif (stages := _stages(model)).shape <= _STAGE_SHAPE:
        u = _stage_renewal(stages, n)
    else:
        steps = stages.jumps(n)[:0:-1].copy()  # f(n-1), ..., f(1)
        u = np.zeros(n)
        u[0] = 1.0
        for s in range(1, n):
            u[s] = steps[n - 1 - s:].dot(u[:s])
    return float(u @ cdfs) / (model.rate1 + model.rate2)


def _random_sum_pmf(counts: np.ndarray, shape: int, rate: float, fast: float,
                    n: int) -> np.ndarray:
    """Exp(fast) phase pmf of a random sum of Erlang(shape, rate) marks, cut at n phases.

    counts[k] is the probability of k marks.  k marks are one Erlang(k shape,
    rate) mark, so term k is counts[k] _phase_pmf(k shape, rate, fast, n), a
    positive pmf with no convolution powers; the terms stop at k shape >= n,
    since k marks take at least k shape phases.  A mark at the fast rate is
    exactly shape phases, so its sum is counts on the shape-lattice, which
    ends before shape * len(counts): that pmf may end before n, and reads
    as 0 past its end.
    """
    if rate == fast:
        return _on_lattice(counts, shape, min(n, shape * len(counts)))
    out = np.zeros(n)
    out[0] = counts[0]
    for k, weight in enumerate(counts[1:-(-n // shape)], start=1):
        out += weight * _phase_pmf(k * shape, rate, fast, n)
    return out


def general_damage_cdf(model: GeneralCumulativeModel, t: float, x: float,
                       policy: TruncationPolicy | None = None) -> float:
    """P(total damage by t is <= x) under renewal arrivals, within tail_epsilon.

    k Erlang(m, mu) marks are one Erlang(k m, mu) mark (_random_sum_pmf).
    Half the bound goes to the phase series and a quarter to each stream's
    renewal counts, cut at the series length: k renewals take k phases.
    Past _MAX_TERMS phases the series is cut as in damage_cdf, whose mass
    test bounds the renewal cuts and the phase cut together.  It runs first
    on the product of the two kept count masses, which bounds g's mass
    because k marks take at least k phases.
    """
    policy = policy or _DEFAULT_POLICY
    _check_nonneg(t, "t")
    _check_nonneg(x, "x")
    marks = (_mark_params(model.mag1, "mag1"), _mark_params(model.mag2, "mag2"))
    fast, z, cdfs, converged = _erlang_axis(model, x, policy.tail_epsilon / 2.0)
    streams = (_mark_params(model.inter1, "inter1"), _mark_params(model.inter2, "inter2"))
    counts = [_renewal_counts(shape, rate * t, policy.tail_epsilon / 4.0, len(cdfs))
              for shape, rate in streams]
    if not converged:
        _check_cut(math.fsum(counts[0]) * math.fsum(counts[1]), len(cdfs), policy,
                   f"rate * x = {z}")
    g1, g2 = (_random_sum_pmf(stream, shape, rate, fast, len(cdfs))
              for stream, (shape, rate) in zip(counts, marks))
    return _phase_series(np.convolve(g1, g2)[:len(cdfs)], cdfs, converged, policy, z)


def general_damage_mean(model: GeneralCumulativeModel, t: float,
                        policy: TruncationPolicy | None = None) -> float:
    """E(total damage by t) = sum over streams of E(mark) E(N(t)).

    E(N(t)) = sum_{k>=1} P(P >= k m), P ~ Poisson(r t), for Erlang(m, r)
    interarrivals, exact to rounding out to _poisson_reach(r t, 1), as in
    _renewal_counts; each tail past it is below 1e-18, and no array grows
    with m.  It raises NonConvergedError when P(N(t) >= _MAX_TERMS) >= tail_epsilon.
    """
    policy = policy or _DEFAULT_POLICY
    _check_nonneg(t, "t")
    total = 0.0
    for name, inter, mag in (("inter1", model.inter1, model.mag1),
                             ("inter2", model.inter2, model.mag2)):
        shape, rate = _mark_params(inter, name)
        z = rate * t
        if z < shape * _MAX_TERMS:  # else P(N(t) >= cap) >= P(P >= z) > 1e-3
            tails = _poisson_tail(z, _poisson_reach(z, 1))[shape::shape]
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
    policy = policy or _DEFAULT_POLICY
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
