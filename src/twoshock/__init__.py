"""Reliability models for a single unit exposed to two independent shock processes.

Two failure mechanisms are covered: a catastrophic model, where the first
shock from either process destroys the unit, and a cumulative damage model,
where shock magnitudes add until a threshold is exceeded.  Analytic
evaluators (survival curves, failure-time distributions and means, damage
distributions) are paired with an independent Monte Carlo renewal simulator
for cross-validation.
"""

# Each star-import also binds its submodule's name here, which __all__ reads.
from .catastrophic import *
from .cumulative import *
from .distributions import *
from .errors import *
from .gamma_convolution import *
from .montecarlo import *
from .numerics import *

__version__ = "0.1.0"

__all__ = [name for module in (catastrophic, cumulative, distributions, errors, gamma_convolution,
                               montecarlo, numerics)
           for name in module.__all__]
