"""Perpetual American option pricing with asset-level-dependent discounting.

Spectrally negative geometric Levy models (Black-Scholes and Brownian motion
minus compound Poisson exponential jumps), state-dependent discount rates,
scale-function machinery, closed-form value assembly with free-boundary
optimisation, and an independent Monte Carlo / Bermudan verification engine.
"""

from .levy import LevyModel, RootDecomposition, martingale_drift
from .discount import (
    Constant,
    Linear,
    LogArea,
    Rational,
    Step,
    Tabulated,
    check_flat_below_one,
)
from .scale import LogGrid, ScaleTable, build_scale_table
from .pricer import Boundaries, PricingProblem, PricingResult, optimize_boundaries
from .mc import McEstimate, bermudan_dp, stopped_value

__all__ = [
    "LevyModel",
    "RootDecomposition",
    "martingale_drift",
    "Constant",
    "Step",
    "Linear",
    "Rational",
    "LogArea",
    "Tabulated",
    "check_flat_below_one",
    "LogGrid",
    "ScaleTable",
    "build_scale_table",
    "Boundaries",
    "PricingProblem",
    "PricingResult",
    "optimize_boundaries",
    "McEstimate",
    "bermudan_dp",
    "stopped_value",
]

__version__ = "0.1.0"
