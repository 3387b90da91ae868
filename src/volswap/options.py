"""Call options on realized volatility (rho = 1/2) and variance (rho = 1).

Prices come from a Laguerre-type expansion of E[(Y - K)^+] for Y = RV^rho:
writing tau_j = a - b + j + 2, the expansion coefficients are finite
alternating combinations of the fractional moments E[Y^{tau_j}] =
E[RV^{rho tau_j}].  A moment provider serves those raw RV moments as mpmath
values at a requested precision: ``LaguerreMoments`` from the realized-
variance series for any weights, ``NcchiMoments`` from the constant-regime
noncentral chi-square closed form, which also serves the sigma-derivatives
that vega differentiates the same series through.  Those closed forms are
written once, in mpmath: ``ncchi_moment`` and ``ncchi_moment_dsigma``, which
also give the swaps' volatility strikes and vegas, round their value at 30
digits.  They serve every lambda_bar >= 0 with one formula, behind one
check (``_check_constant_regime``) that every closed form shares.  A
double-precision E[RV] or E[sqrt(RV)] for the time-varying regime is the
strike of ``swaps.var_swap_tv`` or ``swaps.vol_swap_tv``.

Two numerical safeguards are essential and handled internally:

* the expansion converges usefully only when Y is measured on a scale
  matched to its Laguerre weight, so the pricer renormalizes Y by an
  internal moment-based scale (the priced value is scale-invariant);
* the coefficient sums cancel across tens of orders of magnitude, so the
  whole pipeline (moments included) runs in arbitrary-precision arithmetic
  sized to the series length.

Neither the scale nor the coefficients h_k depend on the strike, so they are
built once per moment provider and (price or vega, rho, a, b, k_terms,
precision) and kept while the provider lives; a strike then costs only its
Laguerre polynomials and front factor.  A smile on one provider pays for
its moments and coefficients once.

mpmath is imported on the first arbitrary-precision call (a price, a vega
or a constant-regime closed form), not with this module: the swap CLI and
the benchmark import this module for its names, and a swap series quote or
a Monte Carlo run never needs mpmath.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Protocol

from . import rvdist
from .errors import DegenerateExponent, DomainError, InvalidConfig, NoConvergence
from .model import ReturnMoments
from .specfun import MP_LOCK, DeferredMpmath, SeriesResult, laguerre_polys

mpm = DeferredMpmath(globals())

__all__ = [
    "OptionSpec",
    "MomentProvider",
    "LaguerreMoments",
    "NcchiMoments",
    "ncchi_moment",
    "ncchi_moment_dsigma",
    "call_price",
    "vega_call",
]

DEFAULT_K_TERMS = 40

# Coefficient-extension ceiling for the high-precision moment backend.
_HP_K_CAP = 2048


@dataclass(frozen=True)
class OptionSpec:
    """Contract and expansion parameters for a realized-variance call.

    rho selects the payoff (1/2: volatility call, 1: variance call); strike
    is in matching units (vol points x100 / variance points x100^2); (a, b)
    parameterize the expansion and must satisfy ``a > 2 max(b, 0) - 1``;
    discount is the accumulated discount factor exp(-integral of r).
    """

    rho: float
    strike: float
    a: float = 0.0
    b: float = 0.0
    discount: float = 1.0
    k_terms: int = DEFAULT_K_TERMS

    def __post_init__(self) -> None:
        if self.rho not in (0.5, 1.0):
            raise InvalidConfig(f"rho must be 1/2 or 1, got {self.rho}")
        if not self.strike > 0:
            raise InvalidConfig(f"strike must be > 0, got {self.strike}")
        if not self.a > 2.0 * max(self.b, 0.0) - 1.0:
            raise InvalidConfig(
                f"expansion requires a > 2 max(b,0) - 1, got a={self.a}, b={self.b}"
            )
        if not 0 < self.discount <= 1:
            raise InvalidConfig(f"discount must be in (0, 1], got {self.discount}")
        if self.k_terms < 1:
            raise InvalidConfig(f"k_terms must be >= 1, got {self.k_terms}")
        for j in range(self.k_terms + 1):
            if self.tau(j) in (0.0, 1.0):
                raise DegenerateExponent(
                    f"tau_j = {self.tau(j)} at j={j} hits a forbidden value (0 or 1)"
                )

    def tau(self, j: int) -> float:
        """Order of the j-th moment of Y = RV^rho: tau_j = a - b + j + 2.

        The corresponding raw-RV moment order is rho * tau_j.
        """
        return self.a - self.b + j + 2.0

    def rho_tau(self, j: int) -> float:
        """Raw-RV moment order entering the j-th ingredient: rho * tau_j."""
        return self.rho * self.tau(j)


class MomentProvider(Protocol):
    """Source of raw moments E[RV^ell] (and optionally their sigma-derivatives)
    for the option pricer.

    Both return mpmath values computed with at least ``dps`` decimal digits:
    the pricer's coefficient cancellation destroys double-precision inputs.
    The pricer keeps the series it builds from a provider's moments for the
    provider's life, so those moments must not change.
    """

    def moment_hp(self, ell: float, dps: int): ...

    def dmoment_dsigma_hp(self, ell: float, dps: int): ...


class LaguerreMoments:
    """Time-varying-regime moments from the realized-variance expansion.

    The high-precision path keeps one coefficient list, built lazily at the
    largest precision asked for and extended in place: each moment series is
    summed once, drawing coefficients until it stagnates at working
    precision (integer orders terminate at k = ell, fractional orders
    converge through coefficient decay).  When the list runs out it is
    continued by a quarter of its order (80 at first), up to ``_HP_K_CAP``;
    it carries the fixed-point state of :func:`rvdist.coeffs_hp`, so each
    continuation forms only the new power sums and coefficients.  The
    envelope scale beta_bar is the default, max alpha_bar.  The state is
    guarded by ``MP_LOCK``, which all arbitrary-precision work holds.
    """

    def __init__(self, rm: ReturnMoments):
        self._rm = rm
        self._cfg = rvdist.ExpansionConfig.defaults(rm)
        self._c_hp: list = []
        self._hp_dps = 0
        self._hp_cache: dict[float, tuple] = {}

    def _coeffs_hp(self):
        """Yield c_0, c_1, ..., c_{_HP_K_CAP}, continuing the list when the
        consumer reaches its end."""
        k = 0
        while k <= _HP_K_CAP:
            if k == len(self._c_hp):
                k_max = min(max(80, (k - 1) * 5 // 4), _HP_K_CAP)
                self._c_hp = rvdist.coeffs_hp(
                    self._rm, self._cfg, k_max, self._hp_dps + 10, self._c_hp
                )
            yield self._c_hp[k]
            k += 1

    def moment_hp(self, ell: float, dps: int):
        ell = float(ell)
        with MP_LOCK:
            cached = self._hp_cache.get(ell)
            if cached is not None and cached[1] >= dps:
                return cached[0]
            if dps > self._hp_dps:
                self._c_hp, self._hp_dps = [], dps
            value, converged = rvdist.raw_moment_hp(
                self._rm, self._cfg, self._coeffs_hp(), ell, dps
            )
            if not converged:
                raise NoConvergence(
                    f"moment series for ell={ell} did not stagnate within "
                    f"{_HP_K_CAP} coefficients"
                )
            self._hp_cache[ell] = (value, dps)
            return value

    def dmoment_dsigma_hp(self, ell: float, dps: int):
        raise NotImplementedError(
            "sigma-derivatives are only available in the constant-volatility regime"
        )


@dataclass(frozen=True)
class NcchiMoments:
    """Constant-regime moments from the noncentral chi-square closed form.

    Frozen, because the pricer keeps each provider's strike-independent
    series: changed parameters would be served a stale one.
    """

    eta: float
    lambda_bar: float
    sigma_N: float
    sigma: float
    T: float

    def moment_hp(self, ell: float, dps: int):
        with MP_LOCK, mpm.workdps(dps):
            return _ncchi_moment(ell, self.eta, self.lambda_bar, self.sigma_N, self.T)

    def dmoment_dsigma_hp(self, ell: float, dps: int):
        with MP_LOCK, mpm.workdps(dps):
            return _ncchi_moment_dsigma(
                ell, self.eta, self.lambda_bar, self.sigma_N, self.sigma, self.T
            )


# Digits of the mpmath values the double-precision moments round.
_FLOAT_DPS = 30


def _scaled_gamma_ratio(ell, eta, sigma_N: float, T: float, shift: int):
    """scaling^ell 2^ell Gamma(shift+ell+eta/2)/Gamma(shift+eta/2), where
    RV = scaling W for W ~ chi2_eta(lambda), scaling = 100^2 sigma_N^2 / T."""
    scaling = 100.0**2 * mpm.mpf(sigma_N) ** 2 / mpm.mpf(T)
    return scaling**ell * mpm.exp(
        ell * mpm.log(2) + mpm.loggamma(shift + ell + eta / 2) - mpm.loggamma(shift + eta / 2)
    )


def _check_constant_regime(eta: float, lambda_bar: float, sigma_N: float, T: float) -> None:
    """Reject closed-form inputs unless finite, eta, sigma_N, T > 0, lambda_bar >= 0."""
    if not (all(map(math.isfinite, (eta, lambda_bar, sigma_N, T)))
            and min(eta, sigma_N, T) > 0 and lambda_bar >= 0):
        raise DomainError(
            "constant-regime closed forms require eta, sigma_N, T > 0 and lambda_bar >= 0, "
            f"all finite; got eta={eta}, lambda_bar={lambda_bar}, sigma_N={sigma_N}, T={T}"
        )


def _ncchi_moment(ell, eta, lambda_bar, sigma_N, T):
    """The closed form behind every constant-regime moment, for any
    lambda_bar >= 0: at lambda_bar = 0 the exponential and 1F1 are exactly 1."""
    if not ell > 0:
        raise DomainError(f"ncchi_moment requires ell > 0, got {ell}")
    _check_constant_regime(eta, lambda_bar, sigma_N, T)
    ell, eta, lam = mpm.mpf(ell), mpm.mpf(eta), mpm.mpf(lambda_bar)
    base = _scaled_gamma_ratio(ell, eta, sigma_N, T, 0)
    return base * mpm.exp(-lam / 2) * mpm.hyp1f1(ell + eta / 2, eta / 2, lam / 2)


def _ncchi_moment_dsigma(ell, eta, lambda_bar, sigma_N, sigma, T):
    if not 0 < sigma < math.inf:
        raise DomainError(f"the sigma-derivative requires a finite sigma > 0, got {sigma}")
    mom = _ncchi_moment(ell, eta, lambda_bar, sigma_N, T)
    ell, eta, lam, sigma = mpm.mpf(ell), mpm.mpf(eta), mpm.mpf(lambda_bar), mpm.mpf(sigma)
    extra = (
        _scaled_gamma_ratio(ell, eta, sigma_N, T, 1)
        * (lam * mpm.exp(-lam / 2) / sigma)
        * mpm.hyp1f1(1 + ell + eta / 2, 1 + eta / 2, lam / 2)
    )
    return (lam + 2 * ell) / sigma * mom - extra


def ncchi_moment(ell: float, eta: float, lambda_bar: float, sigma_N: float, T: float) -> float:
    """E[RV^ell] in the constant regime, for any lambda_bar >= 0:
    ``scaling^ell 2^ell e^{-lambda/2} Gamma(ell+eta/2)/Gamma(eta/2)
    1F1(ell+eta/2; eta/2; lambda/2)``.
    """
    with MP_LOCK, mpm.workdps(_FLOAT_DPS):
        return float(_ncchi_moment(ell, eta, lambda_bar, sigma_N, T))


def ncchi_moment_dsigma(
    ell: float, eta: float, lambda_bar: float, sigma_N: float, sigma: float, T: float
) -> float:
    """d/d(sigma) of E[RV^ell] in the constant regime.

    sigma_N scales with sigma and lambda_bar with 1/sigma^2 (interval means
    fixed), giving::

        (lambda + 2 ell)/sigma E[RV^ell]
        - scaling 2^ell (lambda e^{-lambda/2}/sigma)
          Gamma(1+ell+eta/2)/Gamma(1+eta/2) 1F1(1+ell+eta/2; 1+eta/2; lambda/2)

    whose second term vanishes in the central case.
    """
    with MP_LOCK, mpm.workdps(_FLOAT_DPS):
        return float(_ncchi_moment_dsigma(ell, eta, lambda_bar, sigma_N, sigma, T))


def _working_dps(spec: OptionSpec) -> int:
    # Cancellation in the coefficient sums grows with the series length.
    return 40 + spec.k_terms


def _inner_coeffs(spec: OptionSpec, ingredients: list) -> list:
    """g_j = (-1)^j m_j / (Gamma(j+a+1) j! (tau_j - 1) tau_j) as mpf values."""
    a = mpm.mpf(spec.a)
    b = mpm.mpf(spec.b)
    g = []
    for j, m_j in enumerate(ingredients):
        tau = a - b + j + 2
        sign = -1 if j % 2 else 1
        g.append(
            sign * m_j / (mpm.gamma(j + a + 1) * mpm.factorial(j) * (tau - 1) * tau)
        )
    return g


def _h_coeffs(g: list):
    """Yield h_k = k! sum_{j<=k} g_j/(k-j)! for k = 0..len(g)-1 as mpmath
    reals: each a dot product of g with the reciprocal factorials 1/m!,
    which are computed once."""
    inv_fact = [1 / mpm.factorial(m) for m in range(len(g))]
    for k in range(len(g)):
        yield mpm.factorial(k) * mpm.fdot(g[: k + 1], inv_fact[k::-1])


def _series_hp(spec: OptionSpec, scale, h: tuple, rel_tol: float) -> SeriesResult:
    """Evaluate discount * scale * K^b e^{-K} sum_k h_k L_k^{(a)}(K) with
    K = strike/scale.

    Stagnation rule: three consecutive terms below rel_tol * |partial sum|
    flag convergence and stop the series.
    """
    a = mpm.mpf(spec.a)
    K = mpm.mpf(spec.strike) / scale
    tol = mpm.mpf(rel_tol)
    total = mpm.mpf(0)
    streak = 0
    terms = 0
    last = mpm.mpf(0)
    converged = False
    for k, (h_k, lag) in enumerate(zip(h, laguerre_polys(a, K))):
        term = h_k * lag
        total += term
        terms = k + 1
        last = term
        if total != 0 and abs(term) <= tol * abs(total):
            streak += 1
            if streak >= 3:
                converged = True
                break
        else:
            streak = 0
    front = mpm.mpf(spec.discount) * scale * K ** mpm.mpf(spec.b) * mpm.exp(-K)
    return SeriesResult(
        value=float(front * total),
        terms_used=terms,
        last_term=float(abs(front * last)),
        converged=converged,
    )


def _normalization_scale(spec: OptionSpec, mp: MomentProvider, dps: int):
    """Internal scale s for Y = RV^rho / s.

    rho = 1: the natural Gamma scale var/mean matches the envelope of the
    chi-square-sum density.  rho = 1/2: the density of sqrt(RV) decays like
    a Gaussian, which no Gamma weight matches exactly; centering its bulk
    well inside the weight (mean/16) gives the best observed convergence.
    """
    if spec.rho == 1.0:
        m1 = mp.moment_hp(1.0, dps)
        m2 = mp.moment_hp(2.0, dps)
        return (m2 - m1 * m1) / m1
    return mp.moment_hp(0.5, dps) / 16


# Per provider, the strike-independent series (scale, [h_0..h_K]) by key
# (kind, rho, a, b, k_terms, dps); kind is "call_price" or "vega_call".
_SERIES = weakref.WeakKeyDictionary()


def _strike_free_series(kind: str, spec: OptionSpec, mp: MomentProvider, dps: int):
    """The normalization scale s and h_0..h_K of the expansion, with the
    ingredients E[Y^tau_j] / s^tau_j taken from the moments (kind
    "call_price") or their sigma-derivatives (kind "vega_call"); called inside
    ``mpm.workdps(dps)``.

    None of it depends on the strike or the discount, so it is built once
    per provider and key and kept while the provider lives.
    """
    key = (kind, spec.rho, spec.a, spec.b, spec.k_terms, dps)
    try:
        cache = _SERIES.setdefault(mp, {})
    except TypeError:  # a provider that is unhashable or not weakly referable
        cache = {}
    if key not in cache:
        s = _normalization_scale(spec, mp, dps)
        moment = mp.moment_hp if kind == "call_price" else mp.dmoment_dsigma_hp
        ingredients = [
            moment(spec.rho_tau(j), dps) / s ** mpm.mpf(spec.tau(j))
            for j in range(spec.k_terms + 1)
        ]
        cache[key] = (s, tuple(_h_coeffs(_inner_coeffs(spec, ingredients))))
    return cache[key]


def _call_series(
    kind: str, spec: OptionSpec, mp: MomentProvider, rel_tol: float
) -> SeriesResult:
    """The body of ``call_price`` and ``vega_call`` (``kind``): the series at
    the working precision, refused with NoConvergence unless it stagnated."""
    dps = _working_dps(spec)
    with MP_LOCK, mpm.workdps(dps):
        result = _series_hp(spec, *_strike_free_series(kind, spec, mp, dps), rel_tol)
    if not result.converged:
        raise NoConvergence(
            f"{kind} series not stagnated after {result.terms_used} terms "
            f"(last term {result.last_term:.3e}); increase k_terms"
        )
    return result


def call_price(spec: OptionSpec, mp: MomentProvider, rel_tol: float = 1e-10) -> SeriesResult:
    """Price of the call (RV^rho - K)^+ under the fitted expansion:
    ``discount K^b e^{-K} sum_k h_k L_k^{(a)}(K)`` (after the internal
    renormalization of RV^rho, which leaves the value unchanged).
    """
    return _call_series("call_price", spec, mp, rel_tol)


def vega_call(spec: OptionSpec, mp: MomentProvider, rel_tol: float = 1e-10) -> SeriesResult:
    """d(price)/d(sigma): the price series with each moment replaced by its
    sigma-derivative (constant regime only).

    The internal normalization scale is held fixed under the derivative
    (it is a reparameterization choice, not a function of the market), so
    differentiating the moments term by term is exact.
    """
    return _call_series("vega_call", spec, mp, rel_tol)
