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
first S whose Erlang CDF is below eps (_erlang_cdfs) discards less than eps.
Equal rates need no series: the sum is Erlang(a+b).

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
from scipy import special

from .distributions import erlang_cdf
from .errors import EqualRatesError, IllConditionedError, NonConvergedError

__all__ = ["ErlangProduct", "PartialFractionExpansion", "expand", "convolution_cdf"]

# Relative rate gap below which the expansion is refused.
_RATE_GAP = 1e-6
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
            v = getattr(self, name)
            if not (isinstance(v, int) and not isinstance(v, bool) and v >= 0):
                raise ValueError(f"{name} must be a nonnegative integer, got {v!r}")
        for name in ("rate_a", "rate_b"):
            v = getattr(self, name)
            if not v > 0:
                raise ValueError(f"{name} must be positive, got {v}")


@dataclass(frozen=True)
class PartialFractionExpansion:
    """Signed Erlang-CDF weights for the two pole stacks; weights sum to 1."""

    coeffs_a: tuple
    coeffs_b: tuple
    rate_a: float
    rate_b: float


def _signed_coefficient(j: int, a: int, ra: float, b: int, rb: float) -> float:
    """Float c_j for pole stack a; saturates to +-inf instead of overflowing."""
    delta = rb - ra
    try:
        c = math.comb(a + b - j - 1, a - j) * ra ** (a - j) * rb ** b \
            / delta ** (a + b - j)
    except OverflowError:
        return _exp10_signed(_log10_coefficient(j, a, ra, b, rb),
                             _coefficient_sign(j, a, b, delta))
    return -c if (a - j) % 2 else c


def _log10_coefficient(j: int, a: int, ra: float, b: int, rb: float) -> float:
    delta = abs(rb - ra)
    return (
        (math.lgamma(a + b - j) - math.lgamma(a - j + 1) - math.lgamma(b))
        + (a - j) * math.log(ra) + b * math.log(rb)
        - (a + b - j) * math.log(delta)
    ) / math.log(10.0)


def _coefficient_sign(j: int, a: int, b: int, delta: float) -> float:
    neg = (a - j) % 2
    if delta < 0 and (a + b - j) % 2:
        neg ^= 1
    return -1.0 if neg else 1.0


def _exp10_signed(log10_mag: float, sign: float) -> float:
    try:
        return sign * 10.0 ** log10_mag
    except OverflowError:
        return sign * math.inf


def expand(product: ErlangProduct) -> PartialFractionExpansion:
    """Partial-fraction weights of the product transform over its two pole stacks.

    Requires both shapes >= 1.  Raises EqualRatesError when the rates
    coincide (merge to a single Erlang(a+b) instead) and IllConditionedError
    when their relative gap is below 1e-6.  For very large shapes individual
    weights can exceed the float range and saturate to +-inf.
    """
    a, b = product.shape_a, product.shape_b
    ra, rb = product.rate_a, product.rate_b
    if a < 1 or b < 1:
        raise ValueError("expand requires both shapes >= 1")
    if ra == rb:
        raise EqualRatesError("equal rates: merge to a single Erlang instead")
    if abs(ra - rb) / max(ra, rb) < _RATE_GAP:
        raise IllConditionedError(
            f"rates {ra} and {rb} are too close for a stable expansion")
    return PartialFractionExpansion(
        coeffs_a=tuple(_signed_coefficient(j, a, ra, b, rb) for j in range(1, a + 1)),
        coeffs_b=tuple(_signed_coefficient(j, b, rb, a, ra) for j in range(1, b + 1)),
        rate_a=ra, rate_b=rb)


def _phase_pmf(shape: int, rate: float, fast: float, length: int) -> np.ndarray:
    """pmf of the Exp(fast) phase count of one Erlang(shape, rate) mark, cut at length.

    The count is shape + NegBin(shape, rate/fast); the pmf is taken from
    log-gamma terms, so it neither overflows nor underflows at large shapes.
    """
    out = np.zeros(length)
    if shape >= length:
        return out
    if rate == fast:
        out[shape] = 1.0
        return out
    n = np.arange(length - shape, dtype=float)
    out[shape:] = np.exp(special.gammaln(shape + n) - special.gammaln(n + 1.0)
                         - special.gammaln(shape) + shape * math.log(rate / fast)
                         + n * math.log((fast - rate) / fast))
    return out


def _erlang_cdfs(z: float, eps: float, max_terms: float = math.inf) -> np.ndarray:
    """P(Erlang(s, 1) <= z) for s = 0..S-1, where S is the first s with a value below eps.

    s = 0 is the unit step.  P(Erlang(s, 1) <= z) = P(N >= s) for N ~
    Poisson(z), and Bernstein's bound P(N >= z + d) <= exp(-d^2 / (2(z + d/3)))
    gives the length to evaluate.  Raises NonConvergedError when S would
    exceed max_terms.
    """
    log_eps = -math.log(eps)
    reach = z + log_eps / 3.0 + math.sqrt(log_eps ** 2 / 9.0 + 2.0 * log_eps * z)
    cdfs = special.gammainc(np.arange(int(min(reach, max_terms)) + 2, dtype=float), z)
    cdfs[0] = 1.0
    below = np.flatnonzero(cdfs < eps)
    if not below.size or below[0] > max_terms:
        raise NonConvergedError(
            f"phase series needs more than {max_terms} terms "
            f"(Erlang CDF bound {eps} at rate * x = {z})")
    return cdfs[:below[0]]


def convolution_cdf(product: ErlangProduct, x: float) -> float:
    """CDF of Gamma(shape_a, rate_a) + Gamma(shape_b, rate_b) at x >= 0."""
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
    if special.gammaincc(a, ra * x / 2.0) + special.gammaincc(b, rb * x / 2.0) < _CDF_TAIL:
        return 1.0
    fast = max(ra, rb)
    cdfs = _erlang_cdfs(fast * x, _CDF_TAIL)
    n = len(cdfs)
    phases = np.convolve(_phase_pmf(a, ra, fast, n), _phase_pmf(b, rb, fast, n))[:n]
    return min(1.0, float(phases @ cdfs))
