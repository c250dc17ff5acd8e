"""Quadrature contract and the double-exponential rule for decaying integrands.

integrate_decaying maps [0, inf) onto the line by t = scale * exp(x - e^-x),
the double-exponential substitution for integrands that decay exponentially
(Takahashi & Mori, Publ. RIMS 9 (1974) 721-741; Mori & Sugihara, J. Comput.
Appl. Math. 127 (2001) 287-296), and applies the trapezoid rule in x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonConvergedError

__all__ = ["QuadraturePolicy"]

_LOG_LIMIT = 708.0  # log t past which t nears the largest double
_TAIL_CUT = 1e-16  # relative to the running node sum: where the rule's range ends
_MAX_EVALS = 1_000_000  # integrand evaluations; more raise NonConvergedError


@dataclass(frozen=True)
class QuadraturePolicy:
    """Numerical contract for improper integrals over [0, inf).

    rel_tol: relative tolerance on the integral value.  The tail cut and the
    evaluation budget are fixed: _TAIL_CUT and _MAX_EVALS.
    """

    rel_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError(f"rel_tol must be in (0, 1), got {self.rel_tol}")


def integrate_decaying(f, policy: QuadraturePolicy | None = None,
                       initial_scale: float = 1.0) -> float:
    """Integral of a nonnegative f over [0, inf) by the double-exponential rule.

    With t = initial_scale * exp(x - e^-x) (Takahashi & Mori 1974; Mori &
    Sugihara 2001) the integral is that of g(x) = t (1 + e^-x) f(t) over the
    line.  Where f decays exponentially, as the survival curves of the
    Erlang and Weibull families do, g decays doubly exponentially at both
    ends, and the plain trapezoid rule converges exponentially in the step
    (Trefethen & Weideman, SIAM Review 56 (2014) 385-458).  The rule costs
    more when initial_scale lies far to the right of the mass, where the
    left side's nodes spread doubly exponentially, and at extreme scales
    such as 1e300 the left scan can step over the mass to t = 0.

    A scan at step 1/2 walks out from x = 0 on each side until g is below
    _TAIL_CUT times the running node sum and not rising, so a start past
    the peak of a unimodal g walks back over it; the step is then halved,
    evaluating only the new midpoints, until two successive estimates agree
    to policy.rel_tol.  f is never called at t = 0: the left scan ends where
    t underflows to 0, and raises NonConvergedError if g is still rising
    there, as it is when t f(t) does not vanish at 0.  An OverflowError
    raised by f is raised as NonConvergedError naming t.
    """
    policy = policy or QuadraturePolicy()
    if not 0.0 < initial_scale < math.inf:
        raise NonConvergedError(
            f"initial_scale must be positive and finite, got {initial_scale}")
    log_scale = math.log(initial_scale)
    evals = 0

    def node(x: float) -> tuple[float, float]:
        """t and g at x; g is 0 where t underflows, and f is never called at 0."""
        nonlocal evals
        if evals >= _MAX_EVALS:
            raise NonConvergedError(f"quadrature evaluation budget of {_MAX_EVALS} exhausted")
        u = math.exp(-x)
        log_t = log_scale + x - u
        if log_t > _LOG_LIMIT:
            raise NonConvergedError(f"integrand never fell below the tail cut {_TAIL_CUT}")
        t = math.exp(log_t)
        if t == 0.0:
            return t, 0.0
        evals += 1
        try:
            value = f(t)
        except OverflowError as err:
            raise NonConvergedError(f"integrand overflowed at t = {t!r}") from err
        return t, t * (1.0 + u) * value

    h, total = 0.5, node(0.0)[1]
    ends = []
    # Left side first: a start where g has underflowed to 0 walks back to
    # the mass before the right side stops.
    for step in (-h, h):
        x, previous, value = 0.0, math.inf, total
        while value >= _TAIL_CUT * total or value > previous:
            x += step
            t, g = node(x)
            if t == 0.0:  # the left end: t rises with x, so never on the right
                if value > previous:
                    raise NonConvergedError(
                        "integrand still rising at the left end, where t underflows "
                        "to 0: t f(t) does not vanish there, or initial_scale lies "
                        "far to the right of the mass")
                break
            previous, value = value, g
            total += value
        ends.append(x)
    low, high = ends

    estimate, refined = math.inf, h * total
    while abs(refined - estimate) > policy.rel_tol * refined:
        total += sum(node(low + (k + 0.5) * h)[1] for k in range(round((high - low) / h)))
        h *= 0.5
        estimate, refined = refined, h * total
    return refined
