"""Exceptions shared across the toolkit."""


class NonConvergedError(RuntimeError):
    """A series or quadrature exhausted its budget before meeting tolerance."""


class EqualRatesError(ValueError):
    """Partial fractions are undefined when both pole locations coincide."""


class IllConditionedError(ValueError):
    """Pole locations too close for a numerically meaningful expansion."""


class UnsupportedConvolutionError(ValueError):
    """A k-fold convolution was requested where no closed form exists."""
