"""Pricing of discretely-sampled volatility/variance swaps and calls under a
mean-reverting (Ornstein-Uhlenbeck log-price) commodity model.

Realized variance is a positively-weighted sum of independent noncentral
chi-squares; this package evaluates its Laguerre-series density, fractional
moments with truncation-error bounds, closed-form constant-regime strikes and
vegas, option prices via a moment expansion, and a Monte Carlo oracle.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateExponent,
    DegenerateInterval,
    DomainError,
    InvalidConfig,
    NoConvergence,
    PreconditionError,
    RegimeError,
    VolswapError,
)
from .model import (
    ReturnMoments,
    Schedule,
    SchwartzParams,
    ou_covariance,
    ou_mean,
    ou_variance,
    return_moments,
    iid_return_moments,
)
from .specfun import SeriesResult
from .rvdist import ExpansionCoeffs, ExpansionConfig
from .swaps import Method, SwapQuote
from .options import MomentProvider, OptionSpec, LaguerreMoments, NcchiMoments
from .mc import McConfig, McEstimate

from . import mc, model, options, rvdist, specfun, swaps  # noqa: E402

__all__ = [
    "__version__",
    "VolswapError",
    "DomainError",
    "NoConvergence",
    "InvalidConfig",
    "PreconditionError",
    "DegenerateInterval",
    "RegimeError",
    "DegenerateExponent",
    "SchwartzParams",
    "Schedule",
    "ReturnMoments",
    "ou_mean",
    "ou_variance",
    "ou_covariance",
    "return_moments",
    "iid_return_moments",
    "SeriesResult",
    "ExpansionConfig",
    "ExpansionCoeffs",
    "Method",
    "SwapQuote",
    "OptionSpec",
    "MomentProvider",
    "LaguerreMoments",
    "NcchiMoments",
    "McConfig",
    "McEstimate",
    "model",
    "specfun",
    "rvdist",
    "swaps",
    "options",
    "mc",
]
