"""Fair-strike pricing of volatility and variance swaps.

Two regimes are supported:

* time-varying per-interval volatility — strikes come from fractional
  moments of the realized-variance Laguerre expansion (``*_tv``);
* constant per-interval volatility — realized variance reduces to a single
  scaled noncentral chi-square, giving closed forms (``*_ncchi`` for any
  noncentrality lambda_bar >= 0, ``*_central`` and ``*_const_c`` its
  lambda_bar = 0 cases), plus analytic vegas.  Every volatility strike and
  vega is the chi-square's E[RV^{1/2}] or its sigma-derivative from
  :func:`options.ncchi_moment`; the variance strike
  ``sigma_N^2/T (eta+lambda_bar) 100^2`` needs no special function.  All
  share the input check of ``options``.

Volatility strikes are quoted in volatility points (x100), variance strikes
in variance points (x100^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

from . import rvdist
from .errors import DomainError, InvalidConfig, RegimeError
from .model import ReturnMoments, SchwartzParams
from .options import _check_constant_regime, ncchi_moment, ncchi_moment_dsigma

__all__ = [
    "Method",
    "SwapQuote",
    "vol_swap_tv",
    "var_swap_tv",
    "vol_swap_const_c",
    "var_swap_const_c",
    "vol_swap_ncchi",
    "vol_swap_central",
    "var_swap_ncchi",
    "var_swap_central",
    "vega_vol_swap",
    "vega_var_swap",
]


class Method(str, Enum):
    LAGUERRE_SERIES = "laguerre_series"
    CONSTANT_C = "constant_c"
    NCCHI_CLOSED_FORM = "ncchi_closed_form"
    CENTRAL_CLOSED_FORM = "central_closed_form"


@dataclass(frozen=True)
class SwapQuote:
    """A fair strike with provenance: pricing method, series length and
    (when certified) a rigorous truncation-error bound."""

    strike: float
    method: Method
    terms_used: int
    error_bound: Optional[float] = None


def _tv_quote(rm: ReturnMoments, cfg: Optional[rvdist.ExpansionConfig], ell: float) -> SwapQuote:
    if cfg is None:
        cfg = rvdist.ExpansionConfig.defaults(rm)
    if not cfg.beta_bar > 0.5 * rm._alpha_range[1]:
        raise InvalidConfig("requires beta_bar > max(alpha_bar)/2")
    co = rvdist.coeffs(rm, cfg)
    mom = rvdist.raw_moment(rm, cfg, co, ell)
    # beta_bar > max(alpha_bar)/2 and coeffs' alpha_bar_i > 0 certify zeta < 1.
    return SwapQuote(
        strike=mom.value,
        method=Method.LAGUERRE_SERIES,
        terms_used=mom.terms_used,
        error_bound=rvdist.truncation_bound(rm, cfg, ell, cfg.k_max),
    )


def vol_swap_tv(rm: ReturnMoments, cfg: Optional[rvdist.ExpansionConfig] = None) -> SwapQuote:
    """Volatility-swap fair strike E[sqrt(RV)] via the Laguerre moment series."""
    return _tv_quote(rm, cfg, 0.5)


def var_swap_tv(rm: ReturnMoments, cfg: Optional[rvdist.ExpansionConfig] = None) -> SwapQuote:
    """Variance-swap fair strike E[RV] via the Laguerre moment series."""
    return _tv_quote(rm, cfg, 1.0)


def vol_swap_const_c(c: float, nu: float, T: float) -> SwapQuote:
    """Volatility-swap strike when every interval has common variance c:
    ``sqrt(2 c / T) * Gamma((nu+1)/2)/Gamma(nu/2) * 100``, which is
    :func:`vol_swap_central` with sigma_N = sqrt(c).

    ``c`` enters as a variance (per-interval log-return variance).
    """
    if not c > 0:
        raise DomainError(f"vol_swap_const_c requires c > 0, got {c}")
    return replace(vol_swap_central(nu, math.sqrt(c), T), method=Method.CONSTANT_C)


def var_swap_const_c(c: float, nu: float, T: float) -> SwapQuote:
    """Variance-swap strike for common per-interval volatility c:
    ``(2 c^2 / T) * Gamma(nu/2+1)/Gamma(nu/2) * 100^2 = (nu c^2 / T) * 100^2``,
    which is :func:`var_swap_ncchi` with sigma_N = c and lambda_bar = 0.

    Note the convention difference from :func:`vol_swap_const_c`, whose ``c``
    is a variance; here ``c`` plays the role of sigma_N and enters squared.
    """
    return replace(var_swap_ncchi(nu, 0.0, c, T), method=Method.CONSTANT_C)


def vol_swap_ncchi(eta: float, lambda_bar: float, sigma_N: float, T: float) -> SwapQuote:
    """Constant-regime volatility-swap strike, E[RV^{1/2}] =
    ``sigma_N sqrt(pi/(2T)) L_{1/2}^{(eta/2-1)}(-lambda_bar/2) * 100``, for
    any lambda_bar >= 0."""
    strike = ncchi_moment(0.5, eta, lambda_bar, sigma_N, T)
    return SwapQuote(strike, Method.NCCHI_CLOSED_FORM, terms_used=1)


def vol_swap_central(eta: float, sigma_N: float, T: float) -> SwapQuote:
    """Constant-regime, zero-drift volatility-swap strike E[RV^{1/2}] =
    ``sigma_N sqrt(2/T) Gamma((eta+1)/2)/Gamma(eta/2) * 100``,
    :func:`vol_swap_ncchi` at lambda_bar = 0."""
    return replace(vol_swap_ncchi(eta, 0.0, sigma_N, T), method=Method.CENTRAL_CLOSED_FORM)


def var_swap_ncchi(eta: float, lambda_bar: float, sigma_N: float, T: float) -> SwapQuote:
    """Constant-regime variance-swap strike: ``sigma_N^2/T (eta+lambda_bar) 100^2``."""
    _check_constant_regime(eta, lambda_bar, sigma_N, T)
    strike = sigma_N**2 / T * (eta + lambda_bar) * 100.0**2
    return SwapQuote(strike, Method.NCCHI_CLOSED_FORM, terms_used=1)


def var_swap_central(eta: float, sigma_N: float, T: float) -> SwapQuote:
    """Constant-regime, zero-drift variance-swap strike: ``sigma_N^2/T eta 100^2``,
    :func:`var_swap_ncchi` at lambda_bar = 0."""
    return replace(var_swap_ncchi(eta, 0.0, sigma_N, T), method=Method.CENTRAL_CLOSED_FORM)


def _require_constant_regime(rm: ReturnMoments) -> None:
    if not rm.is_constant_regime():
        raise RegimeError(
            "analytic vega requires the constant per-interval volatility regime "
            "(heterogeneous vega is not available)"
        )


def vega_vol_swap(rm: ReturnMoments, params: SchwartzParams) -> float:
    """d(strike)/d(sigma) of the constant-regime volatility swap,
    :func:`options.ncchi_moment_dsigma` at ell = 1/2.

    Uses sigma_N proportional to sigma and lambda_bar proportional to
    1/sigma^2 (interval means held fixed), so the drift term reduces the vega.
    """
    _require_constant_regime(rm)
    return ncchi_moment_dsigma(0.5, rm.eta, rm.lambda_bar, rm.sigma_N, params.sigma, rm.horizon)


def vega_var_swap(rm: ReturnMoments, params: SchwartzParams) -> float:
    """d(strike)/d(sigma) of the constant-regime variance swap.

    The noncentrality contribution cancels exactly, leaving
    ``2 sigma_N^2 eta 100^2 / (sigma T)`` for both drift branches.
    """
    _require_constant_regime(rm)
    return 2.0 * rm.sigma_N**2 * rm.eta * 100.0**2 / (params.sigma * rm.horizon)
