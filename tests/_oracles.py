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


def poisson_tail_decimal(k: int, z: float) -> float:
    """P(Poisson(z) >= k) summed at 40 significant digits, for k >= 1 and any z up to ~1e4.

    poisson_cdf_decimal needs min(k, z) >= 300; this series needs no
    Stirling term.  The terms run up from t[0] = exp(-z) by t[l] = t[l-1] z / l,
    and the tail sums them from l = k on until, past the mode, a term is at
    most 1e-45 of the sum.
    """
    return poisson_tails_decimal(k, k + 1, z)[0]


def poisson_tails_decimal(lo: int, hi: int, z: float) -> list:
    """[P(Poisson(z) >= k) for lo <= k < hi] at 40 digits, from one run of the terms.

    The terms run up from exp(-z) until, past hi and the mode, one is at
    most 1e-45 of those from hi - 1 on; the tails are their reverse sums.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        zd = Decimal(z)
        term, l, terms, rest = (-zd).exp(), 0, [], Decimal(0)
        while True:
            if l >= lo:
                terms.append(term)
            if l >= hi - 1:
                rest += term
                if l > z and term <= rest * Decimal("1e-45"):
                    break
            l += 1
            term = term * zd / l
        tails, total = [], Decimal(0)
        for term in reversed(terms):
            total += term
            tails.append(total)
        return [float(v) for v in tails[::-1][:hi - lo]]


def merged_phase_sequences_decimal(rates, marks, mean: float, n: int) -> tuple:
    """(g, U) for s < n at 40 significant digits, as floats: Panjer's pmf and the renewal sequence.

    rates are the two stream rates and marks their (shape, rate) Erlang marks
    at unequal rates.  A shock of the merged stream is mark i with
    probability rate_i / L; in Exp(mu_f) phases, mu_f the larger mark rate,
    the faster mark is its shape and the slower one shape + NegBin(shape, p),
    p = rate / mu_f, with pmf C(j - 1, shape - 1) p^shape q^(j - shape).
    g is the compound-Poisson(mean) pmf by the dense Panjer sum, g(s) =
    (mean / s) sum_j j f(j) g(s - j), and U(s) = sum_j f(j) U(s - j).
    """
    with localcontext() as ctx:
        ctx.prec = 40
        total = Decimal(rates[0]) + Decimal(rates[1])
        fast = max(rate for _, rate in marks)
        jumps = [Decimal(0)] * n
        for weight, (shape, rate) in zip(rates, marks):
            weight = Decimal(weight) / total
            if rate == fast:
                if shape < n:
                    jumps[shape] += weight
                continue
            p = Decimal(rate) / Decimal(fast)
            for j in range(shape, n):
                jumps[j] += (weight * math.comb(j - 1, shape - 1)
                             * p ** shape * (1 - p) ** (j - shape))
        lam = Decimal(mean)
        g, u = [(-lam).exp()], [Decimal(1)]
        for s in range(1, n):
            g.append(lam / s * sum(j * jumps[j] * g[s - j] for j in range(1, s + 1)))
            u.append(sum(jumps[j] * u[s - j] for j in range(1, s + 1)))
        return np.array([float(v) for v in g]), np.array([float(v) for v in u])


def binomial_cdf_decimal(k: int, trials: int, rate: float, fast: float) -> float:
    """P(Binomial(trials, p) <= k), p = rate / fast, summed at 40 significant digits, as a float.

    p and q = 1 - p are taken exactly from the two doubles; the k + 1 terms
    C(trials, i) p^i q^(trials - i) run up from i = 0 by their ratio.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        p = Decimal(rate) / Decimal(fast)
        q = 1 - p
        term = q ** trials
        total = term
        for i in range(1, min(k, trials) + 1):
            term = term * (trials - i + 1) / i * p / q
            total += term
        return float(total)
