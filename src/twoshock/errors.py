"""Exceptions shared across the toolkit."""

__all__ = ["NonConvergedError", "EqualRatesError", "UnsupportedConvolutionError"]


class NonConvergedError(RuntimeError):
    """A series or quadrature exhausted its budget before meeting tolerance."""


class EqualRatesError(ValueError):
    """Partial fractions are undefined when both pole locations coincide."""


class UnsupportedConvolutionError(ValueError):
    """A model member has no phase-count form: only Erlang and exponential do."""
