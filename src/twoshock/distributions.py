"""Parametric distribution kernel: exponential, Erlang, and Weibull families.

Each family exposes the CDF, survival function, density, mean, and
inverse-CDF sampling from an injected uniform stream (a numpy Generator).
Evaluation methods are pure; sampling touches only the stream passed in.

An exponential is the Erlang of shape 1, and Exponential an Erlang subclass.

Draw layout: a Weibull or exponential draw of n values consumes n uniforms
u, transformed in place through log1p(-u).  An Erlang(shape >= 2) draw of n
values consumes shape * n uniforms stage-major, one stage of n at a time.
The complements 1 - u of up to 19 stages are multiplied into one n-long
buffer and logged once; the group logs are summed.  So Weibull(1, 1/r) draws
exactly what Exponential(r) draws when 1/r is a power of two.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Distribution",
    "Exponential",
    "Erlang",
    "Weibull",
    "erlang_survival",
    "erlang_cdf",
    "distribution_from_dict",
    "distribution_to_dict",
]

# Up to this value of rate*t, exp(-rate*t) is a normal double and the largest
# survival-series term, about e^(rate*t), is finite, so Poisson terms are run
# up from k = 0.  Past it they are anchored at the mode (_poisson_pmf).
_SERIES_LIMIT = 700.0
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_MAX = math.log(sys.float_info.max)
_LOG_MIN = math.log(sys.float_info.min)
_LN2 = math.log(2.0)
# A Poisson term below the smallest normal double, e^-708.4, is below e^36.1
# times 2^_SUBNORMAL_SHIFT: scaled by it, the terms of a sum that rounds to a
# nonzero double are normal, and none overflows.
_SUBNORMAL_SHIFT = 1074


def _check_positive(value, name: str) -> None:
    """Check one rate, scale, shape or threshold: a finite positive real, not a bool.

    Anything else, a string or an int past the double range too, raises
    ValueError naming the field.
    """
    try:
        valid = (isinstance(value, numbers.Real) and not isinstance(value, bool)
                 and 0.0 < float(value) < math.inf)
    except OverflowError:
        valid = False
    if not valid:
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")


def _check_integer(obj, name: str, low: int, high: int | None = None) -> None:
    """Check field name of obj, a numbers.Integral but not a bool, in [low, high); store an int."""
    value = getattr(obj, name)
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and low <= value and (high is None or value < high)):
        bounds = f">= {low}" if high is None else f"in [{low}, {high})"
        raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")
    object.__setattr__(obj, name, int(value))  # obj is a frozen dataclass


def _time_grid(ts) -> np.ndarray:
    """ts as a 1-D float array; a scalar or a grid of any other shape raises ValueError."""
    grid = np.asarray(ts, dtype=float)
    if grid.ndim != 1:
        raise ValueError(f"a time grid must be 1-D, got shape {grid.shape}")
    return grid


def _check_time(t: float) -> None:
    if not t >= 0.0:
        raise ValueError(f"time/damage argument must be nonnegative, got {t}")


def _log_complement(u: np.ndarray) -> np.ndarray:
    """log1p(-u), written over the uniforms u and returned: minus Exp(1) draws."""
    np.negative(u, out=u)
    return np.log1p(u, out=u)


# 1 - u is exact for numpy's 53-bit uniforms u and at least 2^-53, so a
# product of this many complements is at least 2^-1007: a normal double, with
# no underflow and no lost relative precision, and one log serves them all.
_STAGES_PER_LOG = 19


def _log_complement_product(rng: np.random.Generator, stages: int, scratch: np.ndarray,
                            out: np.ndarray) -> np.ndarray:
    """log of the product of 1 - u over `stages` stages of len(out) uniforms u, into out.

    The stages are drawn in turn, the first into out and each later one into
    scratch, and multiplied into out in stage order.
    """
    rng.random(out=out)
    np.subtract(1.0, out, out=out)
    for _ in range(1, stages):
        rng.random(out=scratch)
        np.subtract(1.0, scratch, out=scratch)
        out *= scratch
    return np.log(out, out=out)


def _stirling_error(k: int) -> float:
    """lgamma(k + 1) - (k + 1/2) log k + k - log(2 pi) / 2, for k >= 1.

    Past k = 15 five terms of Stirling's series are exact to a double; up to
    it lgamma is below 28, so the difference keeps about 1e-14.
    """
    if k <= 15:
        return math.lgamma(k + 1.0) - (k + 0.5) * math.log(k) + k - _HALF_LOG_2PI
    kk = float(k) * k
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * kk)) / kk) / kk) / kk) / k


def _deviance(k: int, z: float) -> float:
    """k log(k / z) + z - k, for k >= 1 and z > 0.

    Near k = z the two parts cancel, so there it is summed as
    (k - z) v + 2k (v^3/3 + v^5/5 + ...), v = (k - z) / (k + z), whose
    later terms add up to less than 4% of the first: nothing cancels.
    |v| < 0.1, so each term is below 1% of the one before and about ten
    reach a double's precision; the sum stops there, or after 31 terms,
    which no finite input needs and which ends the loop for a nan z.
    """
    d = k - z
    if abs(d) >= 0.1 * (k + z):
        return k * math.log(k / z) - d
    v = d / (k + z)
    total, power = d * v, 2.0 * k * v
    for j in range(3, 64, 2):
        power *= v * v
        step = total + power / j
        if step == total:
            break
        total = step
    return total


def _log_poisson_term(k: int, z: float) -> float:
    """log P(N = k) for N ~ Poisson(z), z > 0, in Loader's (2000) saddle-point form.

    The parts keep their relative accuracy, so the log is good to a few ulps
    of its own size, where k log z - z - lgamma(k + 1) loses about k log z
    ulps.  An infinite z is the limit of large ones: every log term is -inf.
    """
    if k == 0 or z == math.inf:
        return -z
    return -_stirling_error(k) - _deviance(k, z) - _HALF_LOG_2PI - 0.5 * math.log(k)


def _scaled_poisson_term(k: int, z: float) -> tuple[float, int]:
    """(P(N = k) 2^shift, shift), N ~ Poisson(z): the anchor of a sum of falling terms.

    shift is _SUBNORMAL_SHIFT when the term is subnormal, so the terms keep
    shrinking instead of sticking at the smallest subnormal, and ldexp(sum,
    -shift) is the sum; else 0.  exp(-z) at k = 0 is summed alone, so it is
    rounded once by exp and not scaled.
    """
    log_term = _log_poisson_term(k, z)
    shift = _SUBNORMAL_SHIFT if k and log_term < _LOG_MIN else 0
    return math.exp(log_term + shift * _LN2), shift


def _recur_outward(ratios: np.ndarray, m: int, anchor: float) -> np.ndarray:
    """Terms t[m] = anchor, t[k] = t[k-1] * ratios[k]; written over ratios and returned.

    One cumulative product runs up from m and one cumulative quotient down,
    each starting from the anchor, so every partial result is itself a term
    and none overflows when the terms are probabilities; ratios[0] is not
    read.  A term lost to underflow takes the terms beyond it along, so the
    anchor is t[0] while that is a normal double, else the mode or the last
    index below it.
    """
    if m:
        down = np.empty(m + 1)  # anchor, then the divisors of t[m-1], ..., t[0]
        down[0] = anchor
        down[1:] = ratios[m:0:-1]
        ratios[:m] = np.divide.accumulate(down)[:0:-1]
    ratios[m] = anchor
    np.multiply.accumulate(ratios[m:], out=ratios[m:])
    return ratios


def _poisson_pmf(z: float, n: int) -> np.ndarray:
    """P(N = k) for k < n, N ~ Poisson(z) with 0 <= z <= inf and n >= 1.

    t[k] = t[k-1] z / k.  Up to _SERIES_LIMIT the recurrence starts from
    t[0] = exp(-z); past it, from min(floor(z), n - 1), at or below the
    mode, whose term comes from _log_poisson_term.  All terms are positive
    or underflowed to 0; at z = inf, where a product of finite factors has
    overflowed, all mass lies past any index and every term is 0.
    """
    ratios = np.arange(n, dtype=float)
    ratios[1:] = z / ratios[1:]
    if z <= _SERIES_LIMIT:
        return _recur_outward(ratios, 0, math.exp(-z))
    m = int(min(z, n - 1))
    return _recur_outward(ratios, m, math.exp(_log_poisson_term(m, z)))


def _poisson_reach(z: float, n: int) -> int:
    """Number of Poisson(z) terms that carry P(N >= s), s < n, to a double.

    Past a = max(n - 1, floor(z)) each term is at most z / k times the one
    before, so 10 sqrt(z) + 40 terms beyond a they are below e^-50 t[a], and
    for z up to 1e8 the terms left out sum to less than 1e-18 of t[a].
    """
    return max(n, int(z) + 1) + int(10.0 * math.sqrt(z)) + 40


def _poisson_tail(z: float, n: int) -> np.ndarray:
    """P(N >= s) for s < n, N ~ Poisson(z): reverse cumulative sums of _poisson_pmf.

    Nothing cancels, so small tails keep their relative accuracy.  For n <= z
    each is at least 1/2 (the median is at least z - ln 2): 1 minus the head sums.
    Terms the recurrence carries below the smallest normal double stop
    shrinking at the smallest subnormal, so when the last one is that small
    the terms from the first such one past the mode on are rebuilt
    2^_SUBNORMAL_SHIFT up, as in erlang_survival, reverse-summed there and
    scaled back; their sum is carried into the reverse sums of the normal terms.
    """
    if n <= z:
        return np.concatenate(([1.0], 1.0 - np.add.accumulate(_poisson_pmf(z, n)[:-1])))
    pmf = _poisson_pmf(z, _poisson_reach(z, n))
    if pmf[-1] < sys.float_info.min and z > 0.0:  # z = 0: every term past 0 is exactly 0
        mode = int(z)  # from here on the terms fall
        first = mode + int(np.count_nonzero(pmf[mode:] >= sys.float_info.min))
        ratios = np.arange(first, len(pmf), dtype=float)
        ratios[1:] = z / ratios[1:]
        anchor = math.exp(_log_poisson_term(first, z) + _SUBNORMAL_SHIFT * _LN2)
        small = np.ldexp(np.add.accumulate(_recur_outward(ratios, 0, anchor)[::-1])[::-1],
                         -_SUBNORMAL_SHIFT)
        head = pmf[first - 1::-1]  # first > mode: the mode term is normal
        head[0] += small[0]
        return np.concatenate((np.add.accumulate(head)[::-1], small))[:n]
    return np.add.accumulate(pmf[::-1])[::-1][:n]


# From this shape on, erlang_survival sums its series in two numpy passes, not
# a Python loop.  Whole calls at x = 0.5, 0.8 and 1.2 times the shape, on a
# 2-core x86-64 host under Python 3.11 and numpy 2.4.6 (interleaved timeit
# minima): the loop took about 55 ns a term, the array path about 4 us at
# 64-84 terms, and the two cost the same at 72-76 terms.
_ARRAY_SHAPE = 75


def erlang_survival(shape: int, x: float) -> float:
    """Survival of a unit-rate Erlang at x (pass x = rate * t), at most 1.

    Evaluates exp(-x) * sum_{l < shape} x^l / l! = P(Poisson(x) < shape)
    with a multiplicative term recurrence; past _SERIES_LIMIT, where that
    overflows, the sum of the Poisson pmf terms near the largest kept one.
    From shape _ARRAY_SHAPE on, a shape at or past _poisson_reach(x, 1),
    about x + 10 sqrt(x) + 41, returns 1 with no sum: by Chernoff the tail
    P(N >= shape) is at most exp(-_deviance(reach, x)), and that deviance
    exceeds 50 at every x, so the tail is under 2^-72 and 1 is the
    correctly rounded value.  So the cost stops growing with the shape past
    the reach.  Below the reach, at those shapes and below the limit, the
    recurrence runs as two sequential numpy passes, a cumulative product of
    the ratios [1, x/1, x/2, ...] and a cumulative sum of the terms, which
    round exactly as the loop does.  Past the limit only about 20 sqrt(x) +
    80 terms round the largest are summed; when that term is below the
    smallest normal double they are summed 2^_SUBNORMAL_SHIFT up and scaled
    back, so they keep shrinking instead of sticking at the smallest
    subnormal.  Rounding can carry the sum an ulp past 1; it is clamped
    there.  Requires shape >= 1; x = 0 gives 1, and a negative or nan x
    raises ValueError.
    """
    if not x > 0.0:
        if x == 0.0:
            return 1.0
        raise ValueError(f"x must be nonnegative, got {x}")
    if shape >= _ARRAY_SHAPE and x < shape and shape >= _poisson_reach(x, 1):
        return 1.0
    if x > _SERIES_LIMIT:
        if x == math.inf:
            return 0.0
        # Terms [low, shape) of _poisson_pmf(x, shape), from its anchor m and
        # ratios, so each keeps its bits.  Below m each is at most m/x times the
        # one above: past min(10 sqrt(x) + 40, 50 / ln(x/m)) steps, under e^-50 t[m].
        m = int(min(x, shape - 1))
        steep = 50.0 / math.log(x / m) if 0 < m < x else math.inf
        low = max(0, m - int(min(10.0 * math.sqrt(x) + 40.0, steep)))
        ratios = np.arange(low, shape, dtype=float)
        ratios[1:] = x / ratios[1:]
        anchor, shift = _scaled_poisson_term(m, x)
        total = float(_recur_outward(ratios, m - low, anchor).sum())
        return min(1.0, math.ldexp(total, -shift))
    if shape < _ARRAY_SHAPE:
        term = 1.0
        acc = 1.0
        for l in range(1, shape):
            term *= x / l
            acc += term
    else:
        terms = np.arange(shape, dtype=float)
        terms[1:] = x / terms[1:]
        acc = float(np.add.accumulate(_recur_outward(terms, 0, 1.0))[-1])
    value = math.exp(-x) * acc
    return value if value < 1.0 else 1.0


def erlang_cdf(shape: int, x: float) -> float:
    """CDF of a unit-rate Erlang at x: P(Poisson(x) >= shape), free of cancellation.

    Shape 1 is -expm1(-x).  Below x = shape the Poisson terms from shape up
    fall by a factor x / k each, and are summed from the term at shape
    until they no longer change the sum, 2^_SUBNORMAL_SHIFT up when that
    term is subnormal (_scaled_poisson_term).  From x = shape on the
    survival is at most about 1/2, and the CDF is 1 minus it, clamped
    against one-ulp overshoot.  x = 0 gives 0, and a negative or nan x
    raises ValueError, as in erlang_survival.
    """
    if not x > 0.0:
        if x == 0.0:
            return 0.0
        raise ValueError(f"x must be nonnegative, got {x}")
    if shape == 1:
        return -math.expm1(-x)
    if x >= shape:
        return max(0.0, 1.0 - erlang_survival(shape, x))
    term, shift = _scaled_poisson_term(shape, x)
    total, k = term, shape
    while True:
        k += 1
        term *= x / k
        step = total + term
        if step == total:
            return math.ldexp(total, -shift)
        total = step


class Distribution(ABC):
    """Common surface of the three parametric families."""

    @abstractmethod
    def survival(self, t: float) -> float:
        """P(X > t)."""

    @abstractmethod
    def pdf(self, t: float) -> float:
        """Density at t."""

    @abstractmethod
    def mean(self) -> float:
        """E(X)."""

    @abstractmethod
    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n inverse-CDF draws from the given uniform stream, as a new float64 array.

        Weibull and exponential draws take n uniforms, one per draw.  An
        Erlang(shape) draw of n values takes shape * n uniforms, stage-major:
        the first n are stage 1 of every draw, the next n stage 2, and so
        on.  Each stage of n uniforms is drawn in turn and its complements
        multiplied into a group product; each group of up to 19 stages takes
        one log, and the logs are summed into the returned buffer, which the
        caller owns and may overwrite.
        """

    def cdf(self, t: float) -> float:
        """P(X <= t)."""
        return max(0.0, 1.0 - self.survival(t))

    def survival_curve(self, t: np.ndarray) -> np.ndarray:
        """survival at each time of the 1-D float array t, as a new array."""
        return np.fromiter(map(self.survival, t.tolist()), float, t.size)

    def sample(self, rng: np.random.Generator) -> float:
        return float(self.sample_n(rng, 1)[0])


@dataclass(frozen=True)
class Erlang(Distribution):
    """Integer-shape gamma: the sum of `shape` i.i.d. Exponential(rate) variables."""

    shape: int
    rate: float

    def __post_init__(self):
        _check_integer(self, "shape", 1)
        _check_positive(self.rate, "rate")

    def survival(self, t: float) -> float:
        _check_time(t)
        return erlang_survival(self.shape, self.rate * t)

    def cdf(self, t: float) -> float:
        _check_time(t)
        return erlang_cdf(self.shape, self.rate * t)

    def survival_curve(self, t: np.ndarray) -> np.ndarray:
        """survival at each time of the 1-D float array t, bit for bit.

        Up to x = rate * t = _SERIES_LIMIT, erlang_survival's term recurrence
        runs as whole-array steps, times exp(-x) from math.exp point by point
        (numpy's exp can differ from it by an ulp), clamped at 1 as there;
        points past the limit go to erlang_survival one at a time.  The
        steps stop at n = min(shape, _poisson_reach(x, 1)) for the largest
        such x: a point whose own reach is smaller adds only terms below half
        an ulp of its sum, so every value keeps erlang_survival's bits, and
        the curve costs at most about 1,000 steps at any shape.  From shape
        _ARRAY_SHAPE on, the points whose reach is at most n, so at most the
        shape, are erlang_survival's exit: they are 1 and take no step.  The
        reach floor(x) + floor(10 sqrt(x)) + 41 is exact in doubles below the
        limit, as sqrt and floor round exactly, so it is _poisson_reach's.
        """
        bad = ~(t >= 0.0)  # negative or nan
        if bad.any():
            _check_time(float(t[bad][0]))
        with np.errstate(over="ignore"):
            x = self.rate * t
        far = ~(x <= _SERIES_LIMIT)
        out = np.ones_like(x)
        out[far] = [erlang_survival(self.shape, v) for v in x[far].tolist()]
        near = ~far
        xs = x[near]
        n = min(self.shape, _poisson_reach(float(xs.max()), 1)) if xs.size else 1
        if self.shape >= _ARRAY_SHAPE:
            near[near] = np.floor(xs) + np.floor(10.0 * np.sqrt(xs)) + 41.0 > n
            xs = x[near]
        if xs.size:
            term = np.ones_like(xs)
            acc = np.ones_like(xs)
            for l in range(1, n):
                term *= xs / l
                acc += term
            acc *= np.fromiter(map(math.exp, (-xs).tolist()), float, xs.size)
            np.minimum(acc, 1.0, out=acc)
            out[near] = acc
        return out

    def pdf(self, t: float) -> float:
        _check_time(t)
        x = self.rate * t
        if x == 0.0:
            return self.rate if self.shape == 1 else 0.0
        return self.rate * math.exp(_log_poisson_term(self.shape - 1, x))

    def mean(self) -> float:
        return self.shape / self.rate

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.shape == 1:
            draws = _log_complement(rng.random(n))
        else:
            stage = np.empty(n)
            draws = _log_complement_product(rng, min(self.shape, _STAGES_PER_LOG),
                                            stage, np.empty(n))
            if self.shape > _STAGES_PER_LOG:
                group = np.empty(n)
                for first in range(_STAGES_PER_LOG, self.shape, _STAGES_PER_LOG):
                    draws += _log_complement_product(
                        rng, min(self.shape - first, _STAGES_PER_LOG), stage, group)
        draws /= -self.rate
        return draws


@dataclass(frozen=True)
class Exponential(Erlang):
    """Exponential with rate parameter (mean 1/rate): the Erlang of shape 1."""

    shape: int = dataclasses.field(default=1, init=False, repr=False)
    rate: float

    def survival(self, t: float) -> float:
        # The hot path of point calls (survival_probability, the mean
        # quadrature): exp(-rate t) without erlang_survival's call.
        _check_time(t)
        return math.exp(-self.rate * t)


@dataclass(frozen=True)
class Weibull(Distribution):
    """Weibull with shape alpha and scale beta; alpha = 1 is Exponential(1/beta)."""

    shape: float
    scale: float

    def __post_init__(self):
        _check_positive(self.shape, "shape")
        _check_positive(self.scale, "scale")

    # Where t / scale or one of its powers leaves the double range, the
    # cumulative hazard, survival and pdf work from log z = log t - log scale,
    # which stays in range.

    def _hazard(self, t: float) -> float:
        """(t / scale) ** shape, inf past the largest double."""
        _check_time(t)
        z = t / self.scale
        if 0.0 < z < math.inf or t == 0.0:
            try:
                return z ** self.shape
            except OverflowError:
                return math.inf
        log_power = self.shape * (math.log(t) - math.log(self.scale))
        return math.inf if log_power > _LOG_MAX else math.exp(log_power)

    def survival(self, t: float) -> float:
        return math.exp(-self._hazard(t))

    def cdf(self, t: float) -> float:
        return -math.expm1(-self._hazard(t))

    def pdf(self, t: float) -> float:
        _check_time(t)
        if t == 0.0:
            if self.shape > 1.0:
                return 0.0
            if self.shape == 1.0:
                return 1.0 / self.scale
            return math.inf
        z = t / self.scale
        if 0.0 < z < math.inf or self.shape == 1.0:  # shape 1 has no power to leave the range
            try:
                density = ((self.shape / self.scale) * z ** (self.shape - 1.0)
                           * math.exp(-(z ** self.shape)))
                if not math.isnan(density):  # nan is inf * 0 from the scale factor
                    return density
            except OverflowError:
                pass
        log_z = math.log(t) - math.log(self.scale)
        if self.shape * log_z > _LOG_MAX:
            return 0.0
        log_density = (math.log(self.shape) - math.log(self.scale)
                       + (self.shape - 1.0) * log_z - math.exp(self.shape * log_z))
        return math.exp(log_density) if log_density < _LOG_MAX else math.inf

    def mean(self) -> float:
        inverse = 1.0 / self.shape
        if inverse < 170.0:  # Gamma(1 + inverse) is a finite double
            return self.scale * math.gamma(1.0 + inverse)
        log_mean = math.log(self.scale) + math.lgamma(1.0 + inverse)
        return math.exp(log_mean) if log_mean < _LOG_MAX else math.inf

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        draws = _log_complement(rng.random(n))
        np.negative(draws, out=draws)
        draws **= 1.0 / self.shape
        draws *= self.scale
        return draws


_FAMILIES = {"exponential": Exponential, "erlang": Erlang, "weibull": Weibull}


def _require_keys(obj: dict, required: set, context: str, optional=frozenset()) -> None:
    extra = obj.keys() - required - optional
    if extra:
        raise ValueError(f"{context}: unknown fields {sorted(extra)}")
    missing = required - obj.keys()
    if missing:
        raise ValueError(f"{context}: missing fields {sorted(missing)}")


def distribution_from_dict(obj) -> Distribution:
    """Decode the JSON object form of a distribution.

    Accepted encodings, one field per parameter of the family:
        {"type": "exponential", "rate": R}
        {"type": "erlang", "shape": M, "rate": R}   (M a JSON integer)
        {"type": "weibull", "shape": A, "scale": B}
    Unknown or missing fields are rejected; the values go to the family's
    constructor as given, which checks them.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"distribution must be a JSON object, got {obj!r}")
    kind = obj.get("type")
    family = _FAMILIES.get(kind) if isinstance(kind, str) else None
    if family is None:
        raise ValueError(f"unknown distribution type: {kind!r}")
    names = [f.name for f in dataclasses.fields(family) if f.init]  # not an exponential's shape
    _require_keys(obj, {"type", *names}, f"{kind} distribution")
    return family(**{name: obj[name] for name in names})


def distribution_to_dict(dist: Distribution) -> dict:
    """Inverse of distribution_from_dict."""
    for kind, family in _FAMILIES.items():  # exponential first: it is an Erlang too
        if isinstance(dist, family):
            return {"type": kind, **{f.name: getattr(dist, f.name)
                                     for f in dataclasses.fields(dist) if f.init}}
    raise ValueError(f"not a known distribution: {dist!r}")
