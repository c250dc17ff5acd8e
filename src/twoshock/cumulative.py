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
merged stream.  Every series builds its Erlang-CDF terms once
(_erlang_axis), and only the routes that read the marks' phase pmfs build
them (_mark_pmfs): the lattice routes read the Erlang-CDF terms alone.  Under
renewal arrivals g is the convolution over the two streams of
sum_k P(N_i(t) = k) f_ik, with f_ik the phase pmf of Erlang(k m_i, mu_i),
the sum of k marks: P(N_i(t) = k) on the m_i-lattice at mu_i = mu_f.
Arrivals are counted in phases too: Erlang(m, r) interarrivals give N_i(t) =
floor(P / m), P ~ Poisson(r t), whose pmf and mean are sums of Poisson terms.
The mean failure time uses the renewal sequence of the per-shock phase pmf
and needs no quadrature; at equal mark rates a shock takes m1 or m2 phases,
and the sequence is a two-term scalar recurrence.  Every term is positive,
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

# Most phases, Poisson counts or renewal counts any series takes on one axis.
_MAX_TERMS = 10_000


@dataclass(frozen=True)
class TruncationPolicy:
    """Contract for cutting the infinite damage series.

    A damage series stops at the first phase count whose Erlang CDF is
    below its share of tail_epsilon, and a renewal-count pmf at the first
    count K whose left-out counts carry less than its share, giving an
    absolute error below tail_epsilon.  Past _MAX_TERMS terms a probability
    series (damage_cdf, general_damage_cdf, the failure-time curve) is cut
    at the cap when its phase-count mass below it clears 1 - tail_epsilon
    (_check_cut), model2_fptf_mean when the terms left out are below
    tail_epsilon of the kept sum, and a count axis (general_damage_mean,
    compound_poisson_exponential_cdf) never: else NonConvergedError.
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
    _erlang_cdf_terms(z, eps, _MAX_TERMS).  A CumulativeModel checks at
    construction that its marks are Erlang; callers with a
    GeneralCumulativeModel check them first.
    """
    fast = max(model.mag1.rate, model.mag2.rate)
    z = fast * x
    cdfs, converged = _erlang_cdf_terms(z, eps, _MAX_TERMS)
    return fast, z, cdfs, converged


def _mark_pmfs(model: CumulativeModel, fast: float, n: int) -> list[np.ndarray]:
    """Phase pmfs of mag1 and mag2 in Exp(fast) phases, cut at n."""
    return [_phase_pmf(mag.shape, mag.rate, fast, n) for mag in (model.mag1, model.mag2)]


def _merged(model: CumulativeModel, a, b):
    """(rate1 a + rate2 b) / L: a stream-1 and a stream-2 quantity mixed as one merged shock."""
    return (model.rate1 * a + model.rate2 * b) / (model.rate1 + model.rate2)


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
    gives g, from the two marks' phase pmfs; the lattice routes read only
    the Erlang-CDF terms and build no mark pmf.  Past _MAX_TERMS phases the
    series is cut as TruncationPolicy says (_phase_series).
    """
    policy = policy or _DEFAULT_POLICY
    _check_nonneg(t, "t")
    _check_nonneg(x, "x")
    fast, z, cdfs, converged = _erlang_axis(model, x, policy.tail_epsilon)
    n = len(cdfs)
    shifts = _phase_shifts(model)
    if shifts is None:
        g = _compound_poisson_pmf((model.rate1 + model.rate2) * t,
                                  _merged(model, *_mark_pmfs(model, fast, n)))
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
    within the trim bound plus the phase mass the cap leaves out.
    """
    eps = policy.tail_epsilon
    fast, z, cdfs, converged = _erlang_axis(model, x, eps / 2.0)
    n = len(cdfs)
    f1, f2 = _mark_pmfs(model, fast, n + 1)
    lumped = _poisson_pmf(z, n)
    lumped[-1] = cdfs[-1]
    jumps = _merged(model, f1[:n], f2[:n])
    exceed = np.empty(n)  # P(J > i) for i < n
    exceed[-1] = _merged(model, _phase_tail(model.mag1.shape, model.mag1.rate, fast, f1),
                         _phase_tail(model.mag2.shape, model.mag2.rate, fast, f2))
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
    """U(s) for s < n, reversed, when a shock takes exactly m1 or m2 phases.

    U(0) = 1, U(s) = p1 U(s - m1) + p2 U(s - m2), p_i = rate_i / L, in
    scalar steps.  Equal shapes give U = 1 on the multiples of m1, 0 elsewhere.
    """
    rev = np.zeros(n)
    if m1 == m2:
        rev[n - 1::-m1] = 1.0
        return rev
    total = model.rate1 + model.rate2
    p1, p2 = model.rate1 / total, model.rate2 / total
    lead = max(m1, m2)  # zeros before U(0), so U(s - m) reads 0 for s < m
    u = [0.0] * lead + [1.0]
    for _ in range(1, n):
        u.append(p1 * u[-m1] + p2 * u[-m2])
    rev[:] = u[:lead - 1:-1]
    return rev


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
    scalar steps (_lattice_renewal), read with the Erlang-CDF terms and no
    mark pmf; else each U(s) is a dot product over the marks' phase pmfs.
    The series stops at the first S with P(Erlang(S, mu_f) <= K) < tail_epsilon;
    past S each Erlang CDF is at most mu_f K / (S+1) times the one before,
    so the discarded time is below tail_epsilon (S+1) / ((S+1 - mu_f K) L).

    Past _MAX_TERMS phases the series is cut at n = _MAX_TERMS.  Every mark
    takes a phase at least, so U(s) <= 1 and the terms left out sum to at
    most E[(N - n + 1)^+], N ~ Poisson(mu_f K): below mu_f K = n the terms
    k >= n out to _poisson_reach, from there on (mu_f K - n + 1) plus
    sum_{k <= n-2} (n - 1 - k) P(N = k), two nonnegative parts of n terms.
    The cut mean, within tail_epsilon relative, is returned when that bound
    is below tail_epsilon times the kept sum; else NonConvergedError says so.
    """
    eps = (policy or _DEFAULT_POLICY).tail_epsilon
    fast, z, cdfs, converged = _erlang_axis(model, model.threshold, eps)
    n = len(cdfs)
    shifts = _phase_shifts(model)
    if shifts is None:
        steps = _merged(model, *_mark_pmfs(model, fast, n))[1:]
        rev = np.zeros(n)  # U reversed, as in _compound_poisson_pmf
        rev[-1] = 1.0
        for s in range(1, n):
            rev[n - 1 - s] = steps[:s].dot(rev[n - s:])
    else:
        rev = _lattice_renewal(model, *shifts, n)
    total = float(rev @ cdfs[::-1])
    if not converged:
        if z < n:
            left_out = _poisson_pmf(z, _poisson_reach(z, n))[n:]
            bound = float(left_out @ np.arange(1.0, left_out.size + 1.0))
        else:  # at z = inf too, where every P(N = k) is 0 and the bound is inf
            bound = z - n + 1 + float(_poisson_pmf(z, n - 1) @ np.arange(n - 1.0, 0.0, -1.0))
        if not bound < eps * total:
            raise NonConvergedError(
                f"phase series needs more than {_MAX_TERMS} terms at rate * x = {z}, "
                f"and the terms it leaves out may sum to {bound!r}, against {total!r} kept")
    return total / (model.rate1 + model.rate2)


def _random_sum_pmf(counts: np.ndarray, shape: int, rate: float, fast: float,
                    n: int) -> np.ndarray:
    """Exp(fast) phase pmf of a random sum of Erlang(shape, rate) marks, cut at n phases.

    counts[k] is the probability of k marks.  k marks are one Erlang(k shape,
    rate) mark, so term k is counts[k] _phase_pmf(k shape, rate, fast, n), a
    positive pmf with no convolution powers; the terms stop at k shape >= n,
    since k marks take at least k shape phases.  A mark at the fast rate is
    exactly shape phases, so its sum is counts on the shape-lattice.
    """
    if rate == fast:
        return _on_lattice(counts, shape, n)
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
    """E(total damage by t) = sum over streams of E(mark) E(N(t)), exact to rounding.

    E(N(t)) = sum_{k>=1} P(P >= k m), P ~ Poisson(r t), for Erlang(m, r)
    interarrivals, out to _poisson_reach.  It raises NonConvergedError when
    P(N(t) >= _MAX_TERMS) >= tail_epsilon.
    """
    policy = policy or _DEFAULT_POLICY
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
