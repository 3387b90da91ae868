"""Distribution of realized variance RV = sum_i alpha_bar_i * Y_i with
Y_i ~ noncentral chi-square(1, delta_bar_i).

The paper expands the density in generalized Laguerre polynomials around a
Gamma(p, 2*beta_bar) envelope, p = nu/2, with a free shape center mu0:

    f(y) = g(y) sum_k k!/(p)_k c_k L_k^{(p-1)}(p y / (2 beta_bar mu0)),

where g is the envelope density and (p)_k = Gamma(p+k)/Gamma(p).  With
r_i = alpha_bar_i/beta_bar, h_i = 1 + r_i (p/mu0 - 1), xi_i = (1 - r_i)/h_i
and w_i = delta_bar_i alpha_bar_i / (beta_bar mu0 h_i), the coefficients are
those of the generating function

    G(z) = sum_k c_k z^k
         = c_0 prod_i (1 - xi_i z)^{-1/2}
           exp(-(1/2) sum_i w_i z ((p - mu0) xi_i + mu0) / (1 - xi_i z)),

    ln c_0 = p ln(p/mu0) - (1/2) sum_i ln h_i
             - (p - mu0)/(2 beta_bar mu0) sum_i delta_bar_i alpha_bar_i / h_i,

and a raw moment of any order ell > 0 is the series
E[RV^ell] = (2 beta_bar)^ell Gamma(p+ell)/Gamma(p) sum_k c_k
2F1(-k, p+ell; p; p/mu0).

The library evaluates the expansion at mu0 = nu/2 only, where h_i = 1,
c_0 = 1, xi_i = 1 - alpha_bar_i/beta_bar, the noncentral sums reduce to
U_m = sum_i delta_bar_i alpha_bar_i xi_i^m, and the hypergeometric factor
collapses to (-ell)_k/(p)_k (Chu-Vandermonde).  The coefficients then satisfy a linear
recurrence driven by power sums of xi, and a rigorous tail bound is
available when the contraction factor zeta = max |xi_i| < 1.

The coefficient recurrence runs in double precision in :func:`coeffs`, and
for the option pricer in :func:`coeffs_hp`: a resumable integer kernel of
P = (working precision + 64) bits forms the power sums, the d_j and the
c_k, and continues an earlier list instead of rebuilding it.
:func:`raw_moment_hp` sums the moment series in the same fixed point, and
:func:`raw_moment` in double precision.  Each fixed-point product is
truncated once (an error below 2^-P) and each exact sum rounded once to an
mpmath real.  Both multiply by the front factor
(2 beta_bar)^ell Gamma(p+ell)/Gamma(p), formed by the same expression in
``math`` and in mpmath at the working precision.

mpmath is imported on the first call of :func:`coeffs_hp` or
:func:`raw_moment_hp`, not with this module: the swap quotes and the Monte
Carlo oracle run in double precision only, and every ``import volswap``
would otherwise pay for loading it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import accumulate, count
from operator import mul
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InvalidConfig, NoConvergence, PreconditionError
from .model import ReturnMoments
from .specfun import MP_LOCK, DeferredMpmath, SeriesResult, laguerre_polys

mpm = DeferredMpmath(globals())

__all__ = [
    "ExpansionConfig",
    "ExpansionCoeffs",
    "coeffs",
    "pdf",
    "raw_moment",
    "coeff_bound",
    "coeffs_hp",
    "raw_moment_hp",
    "truncation_bound",
    "DEFAULT_K_PRICING",
    "DEFAULT_K_PDF",
]

DEFAULT_K_PRICING = 3
DEFAULT_K_PDF = 25

_BOUND_TAIL_CAP = 100_000

# Bits the fixed-point sums of ``coeffs_hp`` and ``raw_moment_hp`` carry
# beyond mpmath's precision.
_GUARD_BITS = 64

# Correct digits ``raw_moment_hp`` must keep after cancellation: a double's
# 17 and three more.
_MIN_DIGITS = 20


@dataclass(frozen=True)
class ExpansionConfig:
    """Laguerre expansion parameters.

    beta_bar is the Gamma-envelope scale, k_max the truncation order K (the
    series keeps terms 0..K).
    """

    beta_bar: float
    k_max: int

    def __post_init__(self) -> None:
        if not self.beta_bar > 0:
            raise InvalidConfig(f"beta_bar must be > 0, got {self.beta_bar}")
        if self.k_max < 0:
            raise InvalidConfig(f"k_max must be >= 0, got {self.k_max}")

    @classmethod
    def defaults(cls, rm: ReturnMoments, k_max: int = DEFAULT_K_PRICING) -> "ExpansionConfig":
        """Default choice: beta_bar = max alpha_bar_i."""
        return cls(beta_bar=rm._alpha_range[1], k_max=k_max)


@dataclass(frozen=True)
class ExpansionCoeffs:
    """Computed expansion coefficients.

    ``c[k]`` for k = 0..K; ``d[j]`` for j = 1..K (``d[0]`` is unused and 0);
    ``zeta`` is the contraction factor.
    """

    c: np.ndarray = field(repr=False)
    d: np.ndarray = field(repr=False)
    zeta: float


def _ratios(rm: ReturnMoments, cfg: ExpansionConfig) -> tuple[float, float]:
    """zeta = max |xi_i| and min xi_i, xi_i = 1 - alpha_bar_i/beta_bar: xi_i
    falls with alpha_bar_i, rounding included, so the extreme weights give them."""
    lo, hi = rm._alpha_range
    xi_min = 1 - hi / cfg.beta_bar
    return max(abs(xi_min), abs(1 - lo / cfg.beta_bar)), xi_min


def _check_weights(rm: ReturnMoments) -> None:
    if not rm._alpha_range[0] > 0.0:
        raise InvalidConfig("all alpha_bar_i must be > 0 for the expansion")


def coeffs(rm: ReturnMoments, cfg: ExpansionConfig) -> ExpansionCoeffs:
    """The expansion coefficients c_0..c_K in double precision, in one loop
    over the orders j = 1..K.

    c_0 = 1 and ``j c_j = sum_{i=1..j} d_i c_{j-i}`` with
    ``d_j = 1/2 s_j - (j / (2 beta)) U_{j-1}``, where s_j = sum_i xi_i^j is a
    power sum and U_m = sum_i delta_i alpha_bar_i xi_i^m a noncentral sum
    (those of ``ReturnMoments.mean_forms``), each power formed from the last
    by one product.
    """
    _check_weights(rm)
    K, beta = cfg.k_max, cfg.beta_bar
    xi = xij = 1 - rm.alpha_bar / beta
    v = rm._delta_alpha  # delta_i alpha_bar_i xi_i^(j-1)
    c = np.zeros(K + 1)
    c[0] = 1.0
    d = np.zeros(K + 1)
    for j in range(1, K + 1):
        if j > 1:
            xij = xij * xi
            v = v * xi
        d[j] = float(np.sum(xij)) / 2 - j / (2 * beta) * float(np.sum(v))
        c[j] = np.dot(c[:j][::-1], d[1 : j + 1]) / j
    return ExpansionCoeffs(c=c, d=d, zeta=_ratios(rm, cfg)[0])


def _check_bound_preconditions(rm: ReturnMoments, cfg: ExpansionConfig) -> tuple[float, float]:
    """Certify zeta < 1; returns (zeta, min xi) of ``_ratios`` or raises
    PreconditionError."""
    thresh = 0.5 * rm._alpha_range[1]
    if not cfg.beta_bar > thresh:
        raise PreconditionError(
            f"bound requires beta_bar > {thresh} (half of max alpha_bar), got {cfg.beta_bar}"
        )
    zeta, xi_min = _ratios(rm, cfg)
    if zeta >= 1.0:
        raise PreconditionError(f"zeta >= 1 (zeta = {zeta}); tail bound not certified")
    return zeta, xi_min


def pdf(rm: ReturnMoments, cfg: ExpansionConfig, co: ExpansionCoeffs, y):
    """Truncated series density of realized variance at y > 0.

    Accepts a scalar or ndarray.  Truncation can produce tiny negative
    values in extreme tails; they are returned as-is so that quadrature and
    moment identities remain honest (clamp only for display).
    """
    y_arr = np.asarray(y, dtype=float)
    if np.any(y_arr <= 0.0):
        raise DomainError("pdf requires y > 0")
    p = rm.nu / 2.0
    x = y_arr / (2.0 * cfg.beta_bar)
    # sum_k [k!/(p)_k] c_k L_k^{(p-1)}(x); k!/(p)_k = (-ell)_k/(p)_k at ell = -1
    terms = zip(co.c, laguerre_polys(p - 1.0, x), _poch_ratios(-1.0, p))
    acc = sum(weight * ck * lag for ck, lag, weight in terms)

    # The Gamma(p, 2 beta) log-density: with Gamma(p) here, not in the
    # weights, neither overflows at large N.
    log_env = -x + (p - 1.0) * np.log(y_arr) - p * math.log(2.0 * cfg.beta_bar) - math.lgamma(p)
    out = np.exp(log_env) * acc
    return out if out.ndim else float(out)


def _poch_ratios(ell: float, p: float):
    """(-ell)_k/(p)_k for k = 0, 1, ..., each by the O(1) step (k-1-ell)/(p+k-1)."""
    return accumulate(((k - 1 - ell) / (p + k - 1) for k in count(1)), mul, initial=1)


def raw_moment(
    rm: ReturnMoments, cfg: ExpansionConfig, co: ExpansionCoeffs, ell: float
) -> SeriesResult:
    """Raw moment E[RV^ell] for any ell > 0 from the truncated expansion,
    the sum of ``(2 beta)^ell Gamma(p+ell)/Gamma(p) c_k (-ell)_k/(p)_k``
    over k = 0..K; converged when the last term is within 1e-8 of the sum.

    (-ell)_k/(p)_k is 2F1(-k, p+ell; p; 1) in closed form (Chu-Vandermonde);
    the finite sum would cancel catastrophically for large k, so the closed
    form is stepped by ``_poch_ratios``.  For integer ell it is exactly 0
    from k = ell + 1 on: the series ends there, and the sum stops before the
    c_k past its end, which may have overflowed.
    """
    if not ell > 0:
        raise DomainError(f"raw_moment requires ell > 0, got {ell}")
    p = rm.nu / 2
    front = math.exp(ell * math.log(2 * cfg.beta_bar) + math.lgamma(p + ell) - math.lgamma(p))
    total = 0.0
    last = 0.0
    for ck, hyp in zip(co.c, _poch_ratios(ell, p)):
        if not hyp:
            last = 0.0
            break
        last = front * ck * hyp
        total += last

    converged = abs(last) <= 1e-8 * abs(total)
    if not converged:
        # Without a certified tail bound an inconclusive last term is an error.
        try:
            _check_bound_preconditions(rm, cfg)
        except PreconditionError as exc:
            raise NoConvergence(
                f"raw_moment(ell={ell}): last term {last:.3e} above tolerance and "
                f"no certified tail bound available ({exc})"
            ) from exc
    return SeriesResult(
        value=total, terms_used=cfg.k_max + 1, last_term=abs(last), converged=converged
    )


class _Majorant(NamedTuple):
    """Closed-form majorant of the coefficients' generating function

        G(z) = sum_k c_k z^k
             = prod_i (1 - xi_i z)^{-1/2}
               exp(-(z / (2 beta)) sum_i delta_i alpha_bar_i / (1 - xi_i z)):

    on |z| = r < 1/zeta, ``|G| <= (1 - zeta r)^{-half_n}
    exp(r (s + a/(1 - zeta r))/2)``.  At most one of ``s`` and ``a`` is
    nonzero.
    """

    half_n: float
    zeta: float
    s: float
    a: float

    @property
    def constant(self) -> bool:
        """G is the constant c_0 = 1, so every c_k with k >= 1 vanishes."""
        return self.zeta == 0.0 and self.s == 0.0 and self.a == 0.0


def _majorant(rm: ReturnMoments, cfg: ExpansionConfig) -> _Majorant:
    """Reduce the components to the majorant's constants, once, in O(n).

    |1 - xi_i z| >= 1 - zeta r bounds the product.  The exponent weights
    delta_i alpha_bar_i / beta are >= 0 and sum to S = U_0 / beta
    (``ReturnMoments.mean_forms``).  With every xi_i >= 0,
    min Re z/(1 - xi z) = -r/(1 + xi r) >= -r on |z| = r, so the exponential
    is at most e^{S r/2} (``s`` = S).  A beta_bar below max alpha_bar makes
    some xi_i < 0; then |z/(1 - xi_i z)| <= r/(1 - zeta r) gives ``a`` = S.
    """
    zeta, xi_min = _check_bound_preconditions(rm, cfg)
    drift = float(rm.mean_forms(1, cfg.beta_bar)[0]) / cfg.beta_bar
    if xi_min >= 0.0:
        return _Majorant(0.5 * rm.alpha_bar.size, zeta, drift, 0.0)
    return _Majorant(0.5 * rm.alpha_bar.size, zeta, 0.0, drift)


def _log_coeff_bounds(maj: _Majorant, k: np.ndarray) -> np.ndarray:
    """ln of the Cauchy bound min_{0<r<1/zeta} r^{-k} max_{|z|=r} |G(z)| for
    each order k >= 1 (a float array), O(1) per order.

    The minimizing radius is the root in (0, 1/zeta) of a quadratic: the
    stationarity condition of the majorant's logarithm times r (1 - zeta r)
    (``s`` form) or r (1 - zeta r)^2 (``a`` form).
    """
    if maj.constant:
        return np.full(k.shape, -np.inf)
    zeta, h = maj.zeta, maj.half_n
    if maj.a == 0.0:
        b = (k + h) * zeta + 0.5 * maj.s
        disc = b * b - 2.0 * maj.s * zeta * k
    else:
        b = (2.0 * k + h) * zeta + 0.5 * maj.a
        disc = b * b - 4.0 * zeta * zeta * (k + h) * k
    r = 2.0 * k / (b + np.sqrt(disc))
    zr = zeta * r
    return -k * np.log(r) - h * np.log1p(-zr) + 0.5 * r * (maj.s + maj.a / (1.0 - zr))


def _exp(log_x: float) -> float:
    """exp that saturates to inf: a bound too large for a float is still valid."""
    try:
        return math.exp(log_x)
    except OverflowError:
        return math.inf


def coeff_bound(rm: ReturnMoments, cfg: ExpansionConfig, k: int) -> float:
    """Rigorous bound on |c_k| from Cauchy's estimate on the generating function
    G(z) = sum_k c_k z^k (see ``_Majorant``): the minimum over 0 < r < 1/zeta
    of r^{-k} max_{|z|=r} |G(z)|, in closed form.

    The bound is c_0 = 1 itself at k = 0 and exactly 0 for k >= 1 only when
    zeta = 0 and there is no drift (G is then constant).  Requires a
    certified zeta < 1; returns inf when the bound overflows.
    """
    if k < 0:
        raise DomainError(f"coeff_bound requires k >= 0, got {k}")
    maj = _majorant(rm, cfg)
    if k == 0:
        return 1.0
    return _exp(float(_log_coeff_bounds(maj, np.array([float(k)]))[0]))


def _log_abs_poch(ell: float, k: int) -> float:
    """ln |(-ell)_k|; for integer ell only k <= ell (beyond, it vanishes)."""
    if ell == int(ell):
        return math.lgamma(ell + 1.0) - math.lgamma(ell + 1.0 - k)
    # (-ell)_k = Gamma(k-ell)/Gamma(-ell); lgamma gives ln|Gamma|.
    return math.lgamma(k - ell) - math.lgamma(-ell)


@dataclass
class _HpKernel:
    """The recurrence of :func:`coeffs` in fixed point, resumable: every number
    is a Python integer scaled by 2^P, P = prec + ``_GUARD_BITS``.

    ``x`` and ``w`` hold floor(xi_i 2^P) and floor(delta_i alpha_bar_i 2^P)
    of the exact rationals the float inputs define, ``beta`` is beta_bar as
    an exact ratio, ``power`` holds xi_i^J for the last order J of ``d``,
    and ``d``/``c`` hold d_0..d_J and c_0..c_K.  Each power is the previous
    one times xi_i, truncated once by ``>> P``; every sum is exact, and each
    d_j and c_k is truncated once, by less than 2^-P.  The j-th power of
    xi_i is off by about 2 j max(1, |xi_i|)^j 2^-P at most, an absolute
    error that leaves s_j within 2 n j 2^-64 units of 2^-prec when every
    |xi_i| <= 1.
    """

    P: int
    beta: tuple[int, int]
    x: list
    w: list
    power: list
    d: list
    c: list

    @classmethod
    def start(cls, rm: ReturnMoments, cfg: ExpansionConfig, P: int) -> "_HpKernel":
        _check_weights(rm)
        bn, bd = float(cfg.beta_bar).as_integer_ratio()
        x, w = [], []
        for a, delta in zip(rm.alpha_bar.tolist(), rm.delta_bar.tolist()):
            an, ad = a.as_integer_ratio()
            dn, dd = delta.as_integer_ratio()
            x.append(((bn * ad - an * bd) << P) // (bn * ad))  # xi_i = 1 - a_i/beta
            w.append((dn * an << P) // (dd * ad))  # w_i = delta_i a_i
        return cls(P, (bn, bd), x, w, [1 << P] * len(x), [0], [1 << P])

    def _power_order(self) -> None:
        """Append d_j = s_j/2 - j U_{j-1}/(2 beta), j the next order."""
        j, P, (bn, bd) = len(self.d), self.P, self.beta
        u = sum(map(mul, self.w, self.power))  # U_{j-1}, scaled by 2^(2P)
        self.power = [(p * x) >> P for p, x in zip(self.power, self.x)]
        self.d.append((sum(self.power) >> 1) - j * bd * u // (bn << (P + 1)))

    def _coeff_order(self) -> None:
        """Append c_k = sum_{j=1..k} d_j c_{k-j} / k, k the next order."""
        c, k = self.c, len(self.c)
        c.append(sum(map(mul, reversed(c), self.d[1 : k + 1])) // (k << self.P))

    def extend(self, K: int) -> None:
        """Form the orders up to K that are not yet formed."""
        while len(self.d) <= K:
            self._power_order()
        while len(self.c) <= K:
            self._coeff_order()


class _HpCoeffs(list):
    """The list :func:`coeffs_hp` returns: mpmath reals, with the
    ``_HpKernel`` that continues them (it may hold more orders)."""

    __slots__ = ("kernel",)


def coeffs_hp(
    rm: ReturnMoments, cfg: ExpansionConfig, k_max: int, dps: int, prefix: list = ()
) -> list:
    """Expansion coefficients c_0..c_{k_max} as mpmath reals at ``dps`` digits.

    The option pricer's coefficient sums cancel across tens of orders of
    magnitude, so its moment inputs must carry far more than double
    precision end to end.  This is the recurrence of :func:`coeffs`, with the
    noncentral sums U_m taken over the per-component noncentralities so that
    the coefficients are exact for one distribution, run in an integer
    kernel (``_HpKernel``) of P = prec + ``_GUARD_BITS`` bits; each c_k is
    rounded once to an mpmath real.

    ``prefix``, the list of an earlier call with the same model, config and
    ``dps``, is continued rather than rebuilt: the kernel it carries forms
    only the power sums and coefficients beyond its orders, and each order
    equals that of a fresh build bit for bit (c_k does not depend on k_max).
    The prefix itself is left unchanged.
    """
    if k_max < 0:
        raise DomainError(f"k_max must be >= 0, got {k_max}")
    with MP_LOCK, mpm.workdps(dps):
        P = mpm.mp.prec + _GUARD_BITS
        if not prefix:
            kernel = _HpKernel.start(rm, cfg, P)
        elif prefix.kernel.P == P:  # d and c grow in place, the rest is replaced
            kernel = replace(prefix.kernel, d=prefix.kernel.d[:], c=prefix.kernel.c[:])
        else:
            raise DomainError(f"prefix was built at {prefix.kernel.P} bits, not {P}")
        kernel.extend(k_max)
        out = _HpCoeffs(prefix[: k_max + 1])
        out.extend(mpm.mpf((ck, -P)) for ck in kernel.c[len(out) : k_max + 1])
        out.kernel = kernel
        return out


def raw_moment_hp(rm: ReturnMoments, cfg: ExpansionConfig, c_hp, ell: float, dps: int):
    """Raw moment E[RV^ell] using the arbitrary-precision coefficients.

    ``c_hp`` is any iterable of the coefficients c_0, c_1, ... as mpmath
    reals, consumed only as far as the series needs: a generator may extend
    its list as it goes.  Returns ``(value, converged)`` where ``converged``
    reports whether the series stagnated (three consecutive terms below
    10^-(dps-5) of the partial sum) before the coefficients ran out.

    Stagnation cannot see cancellation: terms far larger than the sum leave
    it with dps minus log10(max |term| / |sum|) correct digits, and a sum
    left with fewer than ``_MIN_DIGITS`` raises NoConvergence.

    The terms are those of :func:`raw_moment`, summed once in fixed point as
    in ``_HpKernel``: with P = prec + ``_GUARD_BITS``, each c_k is cut
    to a multiple of 2^-P, the factor (-ell)_k/(p)_k is stepped by the exact
    rational (k-1-ell)/(p+k-1) of the float inputs and truncated once per
    step, the products are summed exactly, and the sum is rounded once to an
    mpmath real before the front factor multiplies it.  For integer ell the
    series is exact once k reaches ell; for fractional ell the terms decay
    like k^{-(p+ell)} on top of the coefficient decay.
    """
    if not ell > 0:
        raise DomainError(f"raw_moment_hp requires ell > 0, got {ell}")
    with MP_LOCK, mpm.workdps(dps):
        P = mpm.mp.prec + _GUARD_BITS
        en, ed = float(ell).as_integer_ratio()
        pn, pd = (rm.nu / 2).as_integer_ratio()
        inv_tol = 10 ** (dps - 5)
        hyp = 1 << P
        total = streak = peak = 0
        converged = False
        for k, ck in enumerate(c_hp):
            if k:
                # (k-1-ell)/(p+k-1) = ((k-1) ed - en) pd / (((k-1) pd + pn) ed)
                hyp = hyp * (((k - 1) * ed - en) * pd) // (((k - 1) * pd + pn) * ed)
            sign, man, exp, _ = ck._mpf_
            shift = exp + P
            term = (man << shift if shift >= 0 else man >> -shift) * hyp
            size = abs(term)
            peak = max(peak, size)
            total += -term if sign else term
            if total and size * inv_tol <= abs(total):
                streak += 1
                if streak >= 3:
                    converged = True
                    break
            else:
                streak = 0
        if peak * 10**_MIN_DIGITS > abs(total) * 10**dps:
            kept = dps - math.log10(peak) + math.log10(abs(total)) if total else -math.inf
            raise NoConvergence(
                f"raw_moment_hp(ell={ell}): cancellation leaves {kept:.1f} of {dps} "
                f"digits, fewer than {_MIN_DIGITS}; raise dps"
            )
        # (2 beta)^ell Gamma(p+ell)/Gamma(p), as in :func:`raw_moment`
        p, ell = mpm.mpf(rm.nu) / 2, mpm.mpf(ell)
        front = mpm.exp(ell * mpm.log(2 * mpm.mpf(cfg.beta_bar))
                        + mpm.loggamma(p + ell) - mpm.loggamma(p))
        return front * mpm.mpf((total, -2 * P)), converged


def truncation_bound(rm: ReturnMoments, cfg: ExpansionConfig, ell: float, K: int) -> float:
    """Rigorous bound on the tail |sum_{k>K} term_k| of the moment series.

    ``B = (2 beta)^ell sum_{k>K} Gamma(p+ell)/Gamma(p) |(-ell)_k|/(p)_k b_k``
    with b_k the :func:`coeff_bound` of |c_k|; requires a certified
    zeta < 1 and ell > 0, except for integer ell <= K, where the tail
    vanishes exactly and the bound is 0 without one.
    It is summed in log space, in blocks of orders, until the running term
    falls below 1e-16 of the accumulated sum (hard cap 1e5 terms); it
    returns inf once the sum exceeds the float range.
    """
    if K < 0:
        raise DomainError(f"truncation_bound requires K >= 0, got {K}")
    if not ell > 0:
        raise DomainError(f"truncation_bound requires ell > 0, got {ell}")
    if ell == int(ell) and K >= ell:
        return 0.0  # the series ends at k = ell, whatever zeta is
    maj = _majorant(rm, cfg)
    if maj.constant:
        return 0.0
    p = rm.nu / 2.0
    log_front = ell * math.log(2.0 * cfg.beta_bar)
    # ln of the factor at order K+1; each later order adds ``step``.
    log_f_next = _log_abs_poch(ell, K + 1) + math.lgamma(p + ell) - math.lgamma(p + K + 1)
    log_tail = -math.inf
    # The summands decay like zeta^k, so a first block of about
    # ln(1e16)/ln(1/zeta) orders usually holds the whole tail.
    k0 = K + 1
    size = 32 if maj.zeta == 0.0 else min(32 + int(40.0 / -math.log(maj.zeta)), 4096)
    with np.errstate(divide="ignore"):
        while k0 <= _BOUND_TAIL_CAP:
            k = np.arange(k0, min(k0 + size, _BOUND_TAIL_CAP + 1), dtype=float)
            # |(-ell)_{k+1}| / (p)_{k+1} = |(-ell)_k| / (p)_k * |k - ell| / (p + k)
            step = np.log(np.abs(k - ell) / (p + k))
            log_f = log_f_next + np.concatenate(([0.0], np.cumsum(step[:-1])))
            log_f_next = float(log_f[-1] + step[-1])
            log_t = log_f + _log_coeff_bounds(maj, k)
            shift = max(log_tail, float(np.max(log_t)))
            t = np.exp(log_t - shift)
            cum = math.exp(log_tail - shift) + np.cumsum(t)
            # Integer ell truncates the tail exactly (all later summands vanish).
            done = np.flatnonzero(t < 1e-16 * cum)
            if done.size:
                return _exp(log_front + shift + math.log(cum[done[0]]))
            log_tail = shift + math.log(cum[-1])
            if math.isinf(_exp(log_front + log_tail)):
                return math.inf  # the summands are positive: the rest only adds
            k0 += size
            size = min(2 * size, 4096)
    raise NoConvergence("truncation_bound tail sum hit the term cap")
