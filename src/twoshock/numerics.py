"""Quadrature contract and the trapezoid rule in log time for decaying integrands."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonConvergedError

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
    """Integral of a nonnegative f over [0, inf) by the trapezoid rule in log time.

    With t = initial_scale * e^x the integral is that of g(x) = t f(t) over
    the line.  Where g decays exponentially at both ends, as t S(t) does for
    the survival curves of the Erlang and Weibull families, the plain
    trapezoid rule converges exponentially in the step (Trefethen & Weideman,
    SIAM Review 56 (2014) 385-458).  A scan at step 1/2 walks out from x = 0
    on each side until g is below _TAIL_CUT times the running node sum
    and not rising, so a start past the peak of a unimodal g walks back over
    it; the step is then halved, evaluating only the new midpoints, until
    two successive estimates agree to policy.rel_tol.
    """
    policy = policy or QuadraturePolicy()
    if not 0.0 < initial_scale < math.inf:
        raise NonConvergedError(
            f"initial_scale must be positive and finite, got {initial_scale}")
    log_scale = math.log(initial_scale)
    evals = 0

    def g(x: float) -> float:
        nonlocal evals
        if evals >= _MAX_EVALS:
            raise NonConvergedError(f"quadrature evaluation budget of {_MAX_EVALS} exhausted")
        if log_scale + x > _LOG_LIMIT:  # on the left t underflows to 0, and g with it
            raise NonConvergedError(f"integrand never fell below the tail cut {_TAIL_CUT}")
        evals += 1
        t = math.exp(log_scale + x)
        return t * f(t)

    h, total = 0.5, g(0.0)
    ends = []
    # Left side first: g keeps its factor t there, so a start where g has
    # underflowed to 0 walks back to the mass before the right side stops.
    for step in (-h, h):
        x, previous, value = 0.0, math.inf, total
        while value >= _TAIL_CUT * total or value > previous:
            x += step
            previous, value = value, g(x)
            total += value
        ends.append(x)
    low, high = ends

    estimate, refined = math.inf, h * total
    while abs(refined - estimate) > policy.rel_tol * refined:
        total += sum(g(low + (k + 0.5) * h) for k in range(round((high - low) / h)))
        h *= 0.5
        estimate, refined = refined, h * total
    return refined
