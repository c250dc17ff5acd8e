"""CDF of a sum of two independent Erlang variables, by counting phases.

Let mu_f be the larger of the two rates.  An Exp(mu) stage with mu <= mu_f is
a Geometric(mu/mu_f) number of Exp(mu_f) phases, so an Erlang(m, mu) variable
is Erlang(m + N, mu_f) with an extra phase count N ~ NegBin(m, mu/mu_f).  Any
sum of such marks is then Erlang(S, mu_f) for a random phase count S with
pmf g, and its CDF is a series of positive terms,

    P(total <= x) = sum_s g(s) P(Erlang(s, mu_f) <= x).

For Gamma(a, mu1) + Gamma(b, mu2) this is the Moschopoulos (1985) series: g
is the convolution of the two marks' phase pmfs (_phase_pmf).  The cumulative
damage model uses the same two pieces with other phase-count pmfs.  The
Erlang CDF falls as s grows and g has mass at most 1, so stopping at the
first S whose Erlang CDF is below eps (_erlang_cdf_terms) discards less than
eps.  Equal rates need no series: the sum is Erlang(a+b).

expand() gives the paper's partial-fraction form of the same CDF.  For
mu1 != mu2 the transform (mu1/(s+mu1))^a (mu2/(s+mu2))^b splits over the two
pole stacks,

    sum_{j=1..a} c_j (mu1/(s+mu1))^j  +  sum_{j=1..b} d_j (mu2/(s+mu2))^j,

and the repeated-pole derivative formula gives, with delta = mu2 - mu1,

    c_j = C(a+b-j-1, a-j) * mu1^(a-j) * mu2^b * (-1)^(a-j) / delta^(a+b-j)

and symmetrically d_j, so the CDF is 1 - sum_j c_j S_j(mu1 x) - sum_j d_j
S_j(mu2 x) with S_j the unit-rate Erlang(j) survival.  The weights alternate
in sign and grow combinatorially with the shapes, so no CDF is evaluated
through them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (_LOG_MAX, _SERIES_LIMIT, _check_integer, _check_positive,
                            _log_poisson_term, _poisson_tail, _recur_outward, erlang_cdf,
                            erlang_survival)
from .errors import EqualRatesError

__all__ = ["ErlangProduct", "PartialFractionExpansion", "expand", "convolution_cdf"]

# Truncation bound of convolution_cdf: below the resolution of a double near 1.
_CDF_TAIL = 1e-17


@dataclass(frozen=True)
class ErlangProduct:
    """Transform product of two Erlang factors: shapes may be 0 (absent factor)."""

    shape_a: int
    rate_a: float
    shape_b: int
    rate_b: float

    def __post_init__(self):
        for name in ("shape_a", "shape_b"):
            _check_integer(self, name, 0)
        for name in ("rate_a", "rate_b"):
            _check_positive(getattr(self, name), name)


@dataclass(frozen=True)
class PartialFractionExpansion:
    """Signed Erlang-CDF weights for the two pole stacks; weights sum to 1."""

    coeffs_a: tuple
    coeffs_b: tuple
    rate_a: float
    rate_b: float


def _signed_coefficient(j: int, a: int, ra: float, b: int, rb: float) -> float:
    """Float c_j for pole stack a; +-inf only where its exact value leaves the double range."""
    n, k = a + b - j, a - j
    delta = rb - ra
    try:
        c = math.comb(n - 1, k) * ra ** k * rb ** b / delta ** n
    except (OverflowError, ZeroDivisionError):
        c = math.nan
    if not math.isfinite(c) or c == 0.0:  # a float * overflows, a float ** underflows silently
        log_c = (math.lgamma(n) - math.lgamma(k + 1) - math.lgamma(b) + k * math.log(ra)
                 + b * math.log(rb) - n * math.log(abs(delta)))
        c = math.exp(log_c) if log_c < _LOG_MAX else math.inf
        if delta < 0 and n % 2:
            c = -c
    return -c if k % 2 else c


def expand(product: ErlangProduct) -> PartialFractionExpansion:
    """Partial-fraction weights of the product transform over its two pole stacks.

    Requires both shapes >= 1.  Raises EqualRatesError when the rates
    coincide (merge to a single Erlang(a+b) instead).  At any other gap, a
    weight whose exact value leaves the double range saturates to +-inf;
    every other weight is finite.
    """
    a, b = product.shape_a, product.shape_b
    ra, rb = product.rate_a, product.rate_b
    if a < 1 or b < 1:
        raise ValueError("expand requires both shapes >= 1")
    if ra == rb:
        raise EqualRatesError("equal rates: merge to a single Erlang instead")
    return PartialFractionExpansion(
        coeffs_a=tuple(_signed_coefficient(j, a, ra, b, rb) for j in range(1, a + 1)),
        coeffs_b=tuple(_signed_coefficient(j, b, rb, a, ra) for j in range(1, b + 1)),
        rate_a=ra, rate_b=rb)


def _phase_pmf(shape: int, rate: float, fast: float, length: int) -> np.ndarray:
    """pmf of the Exp(fast) phase count of one Erlang(shape, rate) mark, cut at length.

    The count is shape + K with K ~ NegBin(shape, p = rate/fast), whose
    terms follow t[k] = t[k-1] q (shape + k - 1) / k with q = 1 - p.  As in
    _poisson_pmf the recurrence starts from t[0] = p^shape while that is a
    normal double, otherwise from m = min(mode, length - shape - 1)
    with t[m] = (shape/s) Pois(shape; s p) Pois(m; s q) / Pois(s; s),
    s = shape + m: three Poisson terms near their own modes, so no term
    overflows or loses accuracy at any shape.
    """
    out = np.zeros(length)
    p, q = rate / fast, (fast - rate) / fast
    if shape >= length or p == 0.0:  # p = 0: rate / fast underflows, and every term is 0
        return out
    if rate == fast:
        out[shape] = 1.0
        return out
    n = length - shape
    terms = out[shape:]
    terms[1:] = q * np.arange(shape, length - 1) / np.arange(1, n)
    if shape * math.log(p) >= -_SERIES_LIMIT:
        _recur_outward(terms, 0, p ** shape)
        return out
    m = int(min((shape - 1) * q / p, n - 1))  # q / p overflows at a subnormal p
    s = shape + m
    anchor = math.exp(math.log(shape / s) + _log_poisson_term(shape, s * p)
                      + _log_poisson_term(m, s * q) - _log_poisson_term(s, s))
    _recur_outward(terms, m, anchor)
    return out


# log(2^-1075), half the smallest subnormal double: a term below it rounds to 0.
_LOG_UNDERFLOW = -1075.0 * math.log(2.0)


def _phase_reach(shape: int, rate: float, fast: float, length: int) -> int:
    """Length past which every term of _phase_pmf(shape, rate, fast, length) is below 2^-1075.

    Such a term's exact value rounds to 0 (the recurrence may still carry
    it as a subnormal, _recur_outward), so a sum that leaves it out moves by
    less than one subnormal per term.  Past the mode of K ~ NegBin(shape, p)
    the terms fall, so the first one below the bound is bisected on log
    terms.  Returns 0 when no term in range reaches the bound, and length
    when the last one does.
    """
    if shape >= length:
        return 0
    if rate == fast:
        return shape + 1
    p, q = rate / fast, (fast - rate) / fast
    if p == 0.0:  # p^shape underflows: every term is 0
        return 0

    def log_term(k: int) -> float:
        return (math.lgamma(shape + k) - math.lgamma(shape) - math.lgamma(k + 1)
                + shape * math.log(p) + k * math.log(q))

    n = length - shape
    if log_term(n - 1) >= _LOG_UNDERFLOW:
        return length
    lo, hi = int(min((shape - 1) * q / p, n - 1)), n - 1  # the mode holds the largest term
    if log_term(lo) < _LOG_UNDERFLOW:
        return 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if log_term(mid) < _LOG_UNDERFLOW:
            hi = mid
        else:
            lo = mid
    return shape + hi


def _phase_tail(shape: int, rate: float, fast: float, n: int) -> float:
    """P(J >= n) for the Exp(fast) phase count J of one Erlang(shape, rate) mark.

    J = shape + K, K ~ NegBin(shape, p), p = rate/fast, counts the phases
    that end no stage, so J >= n exactly when the (n - shape)-th such phase
    comes before the shape-th that ends one: fewer than shape of the phases
    before it end a stage.  That count is NegBin(n - shape, q), q = 1 - p,
    so the tail is the last shape terms of
    _phase_pmf(n - shape, fast - rate, fast, n), all positive.
    """
    if shape >= n:
        return 1.0
    return float(_phase_pmf(n - shape, fast - rate, fast, n)[n - shape:].sum())


def _bernstein_reach(z: float, eps: float) -> float:
    """s = z + d with P(N >= s) <= exp(-d^2 / (2(z + d/3))) = eps, N ~ Poisson(z) (Bernstein)."""
    log_eps = -math.log(eps)
    return z + log_eps / 3.0 + math.sqrt(log_eps ** 2 / 9.0 + 2.0 * log_eps * z)


def _erlang_cdf_terms(z: float, eps: float, max_terms: float) -> tuple[np.ndarray, bool]:
    """P(Erlang(s, 1) <= z) for s = 0..S-1, where S is the first s with a value below eps.

    s = 0 is the unit step.  P(Erlang(s, 1) <= z) = P(N >= s), N ~ Poisson(z),
    evaluated out to _bernstein_reach.  The values never increase: past the
    unit step they are reverse sums of nonnegative terms, or 1 minus
    nondecreasing sums, and rounding keeps both monotone.  So S, the first
    index below eps, is the count of values at or above eps, found by one
    binary search on the reversed values.  Returns (values, True); when S
    would exceed max_terms, or no value built is below eps, returns (the
    first max_terms values, False).  The values are read-only, so a caller
    may share them (cumulative keeps recent ones).
    """
    cdfs = _poisson_tail(z, int(min(_bernstein_reach(z, eps), max_terms)) + 2)
    cdfs[0] = 1.0
    cdfs.flags.writeable = False
    stop = len(cdfs) - int(cdfs[::-1].searchsorted(eps))
    if stop == len(cdfs) or stop > max_terms:
        return cdfs[:int(max_terms)], False
    return cdfs[:stop], True


def convolution_cdf(product: ErlangProduct, x: float) -> float:
    """CDF of Gamma(shape_a, rate_a) + Gamma(shape_b, rate_b) at x >= 0.

    The faster factor takes exactly its shape in phases, so the phase-count
    pmf of the sum is the slower factor's pmf shifted by that shape: the
    series is one dot product, not a convolution.
    """
    if not x >= 0.0:
        raise ValueError(f"x must be nonnegative, got {x}")
    a, ra, b, rb = product.shape_a, product.rate_a, product.shape_b, product.rate_b
    if a == 0 and b == 0:
        return 1.0
    if b == 0:
        return erlang_cdf(a, ra * x)
    if a == 0:
        return erlang_cdf(b, rb * x)
    if ra == rb:
        return erlang_cdf(a + b, ra * x)
    # P(A+B > x) <= P(A > x/2) + P(B > x/2): far upper tail, and x = inf.
    if erlang_survival(a, ra * x / 2.0) + erlang_survival(b, rb * x / 2.0) < _CDF_TAIL:
        return 1.0
    if ra > rb:  # make b the faster factor
        a, ra, b, rb = b, rb, a, ra
    cdfs, _ = _erlang_cdf_terms(rb * x, _CDF_TAIL, math.inf)
    shifted = cdfs[b:]
    return min(1.0, float(_phase_pmf(a, ra, rb, len(shifted)) @ shifted))
