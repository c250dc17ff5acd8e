"""Parametric distribution kernel: exponential, Erlang, and Weibull families.

Each family exposes the CDF, survival function, density, mean, exact k-fold
convolution CDFs where a closed form exists, and inverse-CDF sampling from an
injected uniform stream (a numpy Generator).  Evaluation methods are pure;
sampling touches only the stream passed in.

Draw layout: an exponential or Weibull draw of n values consumes n uniforms
u, transformed in place through log1p(-u).  An Erlang(shape) draw of n values
consumes shape * n uniforms stage-major, as a (shape, n) block whose row i is
stage i of every draw, each stage an exponential by inverse CDF; the rows
are summed.  So Erlang(1, r) draws exactly what Exponential(r) draws, and so
does Weibull(1, 1/r) when 1/r is a power of two.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import UnsupportedConvolutionError

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

# Beyond this value of rate*t the explicit survival series is replaced by the
# regularized incomplete gamma route; the largest series term is ~e^(rate*t)
# and would overflow soon after.
_SERIES_LIMIT = 700.0


def _check_time(t: float) -> None:
    if not t >= 0.0:
        raise ValueError(f"time/damage argument must be nonnegative, got {t}")


def _check_fold(k: int) -> None:
    if not (isinstance(k, (int, np.integer)) and not isinstance(k, bool) and k >= 0):
        raise ValueError(f"convolution order must be a nonnegative integer, got {k}")


def _log_complement(u: np.ndarray) -> np.ndarray:
    """log1p(-u), written over the uniforms u and returned: minus Exp(1) draws."""
    np.negative(u, out=u)
    return np.log1p(u, out=u)


def erlang_survival(shape: int, x: float) -> float:
    """Survival of a unit-rate Erlang at x (pass x = rate * t).

    Evaluates exp(-x) * sum_{l < shape} x^l / l! with a multiplicative term
    recurrence; for x past the overflow-safe range the regularized upper
    incomplete gamma takes over.  Requires shape >= 1.
    """
    if x == 0.0:
        return 1.0
    if x > _SERIES_LIMIT:
        return float(special.gammaincc(shape, x))
    term = 1.0
    acc = 1.0
    for l in range(1, shape):
        term *= x / l
        acc += term
    return math.exp(-x) * acc


def erlang_cdf(shape: int, x: float) -> float:
    """CDF complement of erlang_survival, clamped against one-ulp overshoot."""
    return max(0.0, 1.0 - erlang_survival(shape, x))


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
    def kfold_cdf(self, k: int, t: float) -> float:
        """CDF of the sum of k i.i.d. copies; k = 0 is the unit step at 0."""

    @abstractmethod
    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n inverse-CDF draws from the given uniform stream, as a new float64 array.

        Exponential and Weibull draws take n uniforms, one per draw.  An
        Erlang(shape) draw of n values takes shape * n uniforms, stage-major:
        the first n are stage 1 of every draw, the next n stage 2, and so
        on; each stage is an exponential by inverse CDF, and the stages are
        summed.  The array is computed in place in one buffer, which the
        caller owns and may overwrite.
        """

    def cdf(self, t: float) -> float:
        """P(X <= t)."""
        return max(0.0, 1.0 - self.survival(t))

    def sample(self, rng: np.random.Generator) -> float:
        return float(self.sample_n(rng, 1)[0])


@dataclass(frozen=True)
class Exponential(Distribution):
    """Exponential with rate parameter (mean 1/rate)."""

    rate: float

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError(f"rate must be positive, got {self.rate}")

    def survival(self, t: float) -> float:
        _check_time(t)
        return math.exp(-self.rate * t)

    def pdf(self, t: float) -> float:
        _check_time(t)
        return self.rate * math.exp(-self.rate * t)

    def mean(self) -> float:
        return 1.0 / self.rate

    def kfold_cdf(self, k: int, t: float) -> float:
        _check_fold(k)
        _check_time(t)
        if k == 0:
            return 1.0
        return erlang_cdf(int(k), self.rate * t)

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        draws = _log_complement(rng.random(n))
        draws /= -self.rate
        return draws


@dataclass(frozen=True)
class Erlang(Distribution):
    """Integer-shape gamma: the sum of `shape` i.i.d. Exponential(rate) variables."""

    shape: int
    rate: float

    def __post_init__(self):
        if not (isinstance(self.shape, (int, np.integer))
                and not isinstance(self.shape, bool) and self.shape >= 1):
            raise ValueError(f"shape must be an integer >= 1, got {self.shape!r}")
        if not self.rate > 0:
            raise ValueError(f"rate must be positive, got {self.rate}")

    def survival(self, t: float) -> float:
        _check_time(t)
        return erlang_survival(self.shape, self.rate * t)

    def pdf(self, t: float) -> float:
        _check_time(t)
        if t == 0.0:
            return self.rate if self.shape == 1 else 0.0
        x = self.rate * t
        if x <= _SERIES_LIMIT:
            # x^(shape-1)/(shape-1)! via the same recurrence as the survival
            # series; bounded by e^x, so no overflow inside the series range.
            term = 1.0
            for l in range(1, self.shape):
                term *= x / l
            return self.rate * math.exp(-x) * term
        log_pdf = (math.log(self.rate) + (self.shape - 1) * math.log(x)
                   - x - math.lgamma(self.shape))
        return math.exp(log_pdf)

    def mean(self) -> float:
        return self.shape / self.rate

    def kfold_cdf(self, k: int, t: float) -> float:
        _check_fold(k)
        _check_time(t)
        if k == 0:
            return 1.0
        return erlang_cdf(int(k) * self.shape, self.rate * t)

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        draws = _log_complement(rng.random((self.shape, n))).sum(axis=0)
        draws /= -self.rate
        return draws


@dataclass(frozen=True)
class Weibull(Distribution):
    """Weibull with shape alpha and scale beta; alpha = 1 is Exponential(1/beta)."""

    shape: float
    scale: float

    def __post_init__(self):
        if not self.shape > 0:
            raise ValueError(f"shape must be positive, got {self.shape}")
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    def survival(self, t: float) -> float:
        _check_time(t)
        return math.exp(-((t / self.scale) ** self.shape))

    def pdf(self, t: float) -> float:
        _check_time(t)
        if t == 0.0:
            if self.shape > 1.0:
                return 0.0
            if self.shape == 1.0:
                return 1.0 / self.scale
            return math.inf
        z = t / self.scale
        return (self.shape / self.scale) * z ** (self.shape - 1.0) * math.exp(-(z ** self.shape))

    def mean(self) -> float:
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)

    def kfold_cdf(self, k: int, t: float) -> float:
        _check_fold(k)
        _check_time(t)
        if k == 0:
            return 1.0
        if k == 1:
            return self.cdf(t)
        raise UnsupportedConvolutionError(
            "no closed-form k-fold convolution for Weibull with k >= 2")

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        draws = _log_complement(rng.random(n))
        np.negative(draws, out=draws)
        draws **= 1.0 / self.shape
        draws *= self.scale
        return draws


def _positive_number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return float(value)


def _require_keys(obj: dict, allowed: set) -> None:
    extra = set(obj) - allowed
    if extra:
        raise ValueError(f"unknown distribution fields: {sorted(extra)}")
    missing = allowed - set(obj)
    if missing:
        raise ValueError(f"missing distribution fields: {sorted(missing)}")


def distribution_from_dict(obj) -> Distribution:
    """Decode the JSON object form of a distribution.

    Accepted encodings:
        {"type": "exponential", "rate": R}
        {"type": "erlang", "shape": M, "rate": R}   (M a JSON integer)
        {"type": "weibull", "shape": A, "scale": B}
    Unknown or missing fields are rejected.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"distribution must be a JSON object, got {obj!r}")
    kind = obj.get("type")
    if kind == "exponential":
        _require_keys(obj, {"type", "rate"})
        return Exponential(rate=_positive_number(obj["rate"], "rate"))
    if kind == "erlang":
        _require_keys(obj, {"type", "shape", "rate"})
        shape = obj["shape"]
        if isinstance(shape, bool) or not isinstance(shape, int):
            raise ValueError(f"erlang shape must be a JSON integer, got {shape!r}")
        return Erlang(shape=shape, rate=_positive_number(obj["rate"], "rate"))
    if kind == "weibull":
        _require_keys(obj, {"type", "shape", "scale"})
        return Weibull(shape=_positive_number(obj["shape"], "shape"),
                       scale=_positive_number(obj["scale"], "scale"))
    raise ValueError(f"unknown distribution type: {kind!r}")


def distribution_to_dict(dist: Distribution) -> dict:
    """Inverse of distribution_from_dict."""
    if isinstance(dist, Exponential):
        return {"type": "exponential", "rate": dist.rate}
    if isinstance(dist, Erlang):
        return {"type": "erlang", "shape": dist.shape, "rate": dist.rate}
    if isinstance(dist, Weibull):
        return {"type": "weibull", "shape": dist.shape, "scale": dist.scale}
    raise ValueError(f"not a known distribution: {dist!r}")
