"""Reliability models for a single unit exposed to two independent shock processes.

Two failure mechanisms are covered: a catastrophic model, where the first
shock from either process destroys the unit, and a cumulative damage model,
where shock magnitudes add until a threshold is exceeded.  Analytic
evaluators (survival curves, failure-time distributions and means, damage
distributions) are paired with an independent Monte Carlo renewal simulator
for cross-validation.
"""

from .catastrophic import (
    CatastrophicModel,
    fptf_cdf,
    mean_fptf,
    mean_fptf_quadrature,
    survival_curve,
    survival_probability,
)
from .cumulative import (
    CumulativeModel,
    GeneralCumulativeModel,
    TruncationPolicy,
    compound_poisson_exponential_cdf,
    damage_cdf,
    damage_mean,
    general_damage_cdf,
    general_damage_mean,
    model2_fptf_cdf,
    model2_fptf_curve,
    model2_fptf_mean,
)
from .distributions import (
    Distribution,
    Erlang,
    Exponential,
    Weibull,
    distribution_from_dict,
    distribution_to_dict,
)
from .errors import (
    EqualRatesError,
    NonConvergedError,
    UnsupportedConvolutionError,
)
from .gamma_convolution import (
    ErlangProduct,
    PartialFractionExpansion,
    convolution_cdf,
    expand,
)
from .montecarlo import (
    SimulationConfig,
    SimulationEstimate,
    simulate_catastrophic,
    simulate_cumulative,
    simulate_fptf_cumulative,
    simulate_general_cumulative,
)
from .numerics import QuadraturePolicy

__version__ = "0.1.0"

__all__ = [
    "CatastrophicModel",
    "CumulativeModel",
    "Distribution",
    "EqualRatesError",
    "Erlang",
    "ErlangProduct",
    "Exponential",
    "GeneralCumulativeModel",
    "NonConvergedError",
    "PartialFractionExpansion",
    "QuadraturePolicy",
    "SimulationConfig",
    "SimulationEstimate",
    "TruncationPolicy",
    "UnsupportedConvolutionError",
    "Weibull",
    "compound_poisson_exponential_cdf",
    "convolution_cdf",
    "damage_cdf",
    "damage_mean",
    "distribution_from_dict",
    "distribution_to_dict",
    "expand",
    "fptf_cdf",
    "general_damage_cdf",
    "general_damage_mean",
    "mean_fptf",
    "mean_fptf_quadrature",
    "model2_fptf_cdf",
    "model2_fptf_curve",
    "model2_fptf_mean",
    "simulate_catastrophic",
    "simulate_cumulative",
    "simulate_fptf_cumulative",
    "simulate_general_cumulative",
    "survival_curve",
    "survival_probability",
]
