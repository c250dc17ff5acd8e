"""Independent numerical oracles shared by the test modules.

Everything here deliberately avoids the library's own evaluation paths:
Erlang pieces come straight from scipy.special, Poisson weights from
scipy.stats, convolutions are numerical quadrature, and integrals use scipy's
adaptive QUADPACK wrapper.  Where scipy's own error is too large, Poisson
sums are taken in 40-digit decimal arithmetic.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
from scipy import integrate, special, stats


def erlang_pdf_grid(shape: int, rate: float, y: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    pos = y > 0
    yp = y[pos]
    out[pos] = np.exp(shape * np.log(rate) + (shape - 1) * np.log(yp)
                      - rate * yp - special.gammaln(shape))
    if shape == 1:
        out[y == 0] = rate
    return out


def erlang_cdf_grid(shape: int, rate: float, y: np.ndarray) -> np.ndarray:
    return special.gammainc(shape, rate * np.maximum(y, 0.0))


def trapezoid_convolution_cdf(shape_a: int, rate_a: float,
                              shape_b: int, rate_b: float,
                              x: float, step: float = 2.5e-4) -> float:
    """P(A + B <= x) by trapezoidal quadrature of f_A(y) * F_B(x - y).

    At the default ``step=2.5e-4`` the error is below about 5e-8 on the
    acceptance grid (shapes 1-4, rates 0.5-3, x up to 1.7 means), measured
    against ``integrate.quad`` at 1e-14: well inside the 1e-6 the
    convolution checks allow.
    """
    n = max(int(np.ceil(x / step)), 8)
    y = np.linspace(0.0, x, n + 1)
    integrand = erlang_pdf_grid(shape_a, rate_a, y) * erlang_cdf_grid(
        shape_b, rate_b, x - y)
    return float(integrate.trapezoid(integrand, y))


def compound_poisson_exponential_reference(mean: float, mark_rate: float,
                                           x: float) -> float:
    """P(sum of N Exp(mark_rate) marks <= x) for N ~ Poisson(mean).

    Given N = n the sum is Erlang(n, mark_rate); Poisson weights past the
    1e-16 upper quantile are dropped.
    """
    n = np.arange(int(stats.poisson.isf(1e-16, mean)) + 2)
    cdfs = special.gammainc(n, mark_rate * x)
    cdfs[0] = 1.0
    return float(stats.poisson.pmf(n, mean) @ cdfs)


def quad_mean_of_min(survival1, survival2, upper: float) -> float:
    """Integral of the product survival curve; reference for mean failure times."""
    value, _ = integrate.quad(lambda t: survival1(t) * survival2(t),
                              0.0, upper, epsabs=1e-13, epsrel=1e-13, limit=500)
    return value


def binomial_band(p_hat: float, n: int) -> float:
    """3.5 binomial standard errors at the observed proportion."""
    return 3.5 * np.sqrt(p_hat * (1.0 - p_hat) / n)


def equal_exponential_marks_failure_law(mean_marks: float, rate: float, ts) -> tuple:
    """(CDF, survival, density) of Gamma(N, rate) with N = 1 + Poisson(mean_marks).

    Equal Exp(mu) marks at threshold K give the crossing index N = 1 +
    Poisson(mu K): the damage of k shocks is Erlang(k, mu), at most K with
    probability P(Poisson(mu K) >= k).  Each value is an fsum over N of
    scipy.stats Poisson weights times regularized incomplete gamma functions.
    """
    j = np.arange(int(mean_marks + 40.0 * np.sqrt(mean_marks) + 200.0))
    weights = stats.poisson.pmf(j, mean_marks)
    ts = np.asarray(ts, dtype=float)
    cdf = [math.fsum(weights * special.gammainc(j + 1, rate * t)) for t in ts]
    survival = [math.fsum(weights * special.gammaincc(j + 1, rate * t)) for t in ts]
    density = [math.fsum(weights * stats.gamma.pdf(t, j + 1, scale=1.0 / rate)) for t in ts]
    return np.array(cdf), np.array(survival), np.array(density)


def poisson_cdf_decimal(k: int, z: float) -> float:
    """P(Poisson(z) <= k) summed at 40 significant digits, for min(k, z) >= 300.

    scipy.special.pdtr is off by up to 2e-11 near 1 at z = 1e7.  The sum runs
    outward from its largest term, t[min(k, floor(z))], whose log takes
    log k! from Stirling's series (the first term left out is below 1e-30
    past 300), and stops 15 sqrt(z) + 100 terms away, where the terms are
    below e^-100 of it.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        top = min(k, math.floor(z))
        m, zd = Decimal(top), Decimal(z)
        pi = Decimal("3.141592653589793238462643383279502884197")
        log_factorial = ((m + Decimal("0.5")) * m.ln() - m + (2 * pi).ln() / 2 + 1 / (12 * m)
                         - 1 / (360 * m ** 3) + 1 / (1260 * m ** 5) - 1 / (1680 * m ** 7))
        anchor = (top * zd.ln() - zd - log_factorial).exp()
        reach = int(15.0 * math.sqrt(z)) + 100
        total = term = anchor
        for j in range(top, max(0, top - reach), -1):
            term = term * j / zd
            total += term
        term = anchor
        for j in range(top + 1, min(k, top + reach) + 1):
            term = term * zd / j
            total += term
        return float(total)
