"""Special-function kernel: log-gamma, the confluent hypergeometric series,
generalized Laguerre polynomials and functions, and the two arithmetics the
series run in.

Everything here is pure and stateless.  Series evaluations return a
:class:`SeriesResult` recording how many terms were used and how small the
final term was, so callers can propagate convergence diagnostics.  A formula
that is needed both in double precision and at many digits is written once
against an :class:`Arithmetic` and evaluated with :data:`FLOAT` or
:data:`MPMATH`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import mpmath as mpm

from .errors import DomainError, NoConvergence

__all__ = [
    "SeriesResult",
    "Arithmetic",
    "FLOAT",
    "MPMATH",
    "log_gamma",
    "kummer_1f1",
    "laguerre_polys",
    "laguerre_frac",
]

_MAX_TERMS = 10_000


@dataclass(frozen=True)
class SeriesResult:
    """A computed series value with convergence diagnostics."""

    value: float
    terms_used: int
    last_term: float
    converged: bool

    def __float__(self) -> float:
        return self.value


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if not x > 0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def gamma_ratio(num: float, den: float) -> float:
    """Gamma(num)/Gamma(den) for positive arguments, via log space."""
    return math.exp(log_gamma(num) - log_gamma(den))


def _kahan_add(total: float, comp: float, term: float) -> tuple[float, float]:
    # Compensated (Kahan) accumulation step.
    y = term - comp
    t = total + y
    comp = (t - total) - y
    return t, comp


def kummer_1f1(
    a: float, b: float, z: float, rel_tol: float = 1e-12, max_terms: int = _MAX_TERMS
) -> SeriesResult:
    """Confluent hypergeometric 1F1(a; b; z).

    For ``z < 0`` the Kummer transform ``1F1(a;b;z) = e^z 1F1(b-a;b;-z)``
    is applied so the series has positive terms whenever ``b > a`` there,
    avoiding catastrophic cancellation.
    """
    if b <= 0 and b == int(b):
        raise DomainError(f"1F1 undefined for nonpositive integer b = {b}")
    if z < 0:
        inner = kummer_1f1(b - a, b, -z, rel_tol=rel_tol, max_terms=max_terms)
        scale = math.exp(z)
        return SeriesResult(
            value=scale * inner.value,
            terms_used=inner.terms_used,
            last_term=scale * inner.last_term,
            converged=inner.converged,
        )
    total, comp = 1.0, 0.0
    term = 1.0
    for m in range(max_terms):
        term *= (a + m) / (b + m) * z / (m + 1)
        total, comp = _kahan_add(total, comp, term)
        if abs(term) <= rel_tol * abs(total):
            return SeriesResult(total, m + 2, abs(term), True)
        # negative-integer a terminates the series exactly
        if term == 0.0:
            return SeriesResult(total, m + 2, 0.0, True)
    raise NoConvergence(f"1F1({a};{b};{z}) did not converge in {max_terms} terms")


def laguerre_polys(a, x):
    """Generalized Laguerre polynomials L_0^{(a)}(x), L_1^{(a)}(x), ... without
    end, in the arithmetic of ``a`` and ``x`` (float, ndarray or mpmath real).

    Uses the stable three-term recurrence in n.
    """
    prev, cur = 1, 1 + a - x
    yield prev
    m = 0
    while True:
        yield cur
        m += 1
        prev, cur = cur, ((2 * m + 1 + a - x) * cur - (m + a) * prev) / (m + 1)


def laguerre_frac(a: float, b: float, x: float) -> SeriesResult:
    """Generalized Laguerre function of fractional degree b.

    Evaluated through the confluent representation
    ``L_b^{(a)}(x) = Gamma(a+b+1) / (Gamma(b+1) Gamma(a+1)) 1F1(-b; a+1; x)``,
    which converges for any real x (the direct factorial series does not
    terminate at fractional degree).
    """
    if a <= -1:
        raise DomainError(f"laguerre_frac requires a > -1, got {a}")
    if a + b + 1 <= 0 or b + 1 <= 0:
        raise DomainError(
            f"laguerre_frac normalization needs a+b+1 > 0 and b+1 > 0, got a={a}, b={b}"
        )
    front = math.exp(log_gamma(a + b + 1.0) - log_gamma(b + 1.0) - log_gamma(a + 1.0))
    series = kummer_1f1(-b, a + 1.0, x)
    return SeriesResult(
        value=front * series.value,
        terms_used=series.terms_used,
        last_term=front * series.last_term,
        converged=series.converged,
    )


class Arithmetic(NamedTuple):
    """The numbers a formula is evaluated in: all that differs between double
    precision and mpmath reals.  Each takes scalars: ``num`` converts a
    float, ``lgamma`` is ln Gamma of a positive argument."""

    num: Callable
    log: Callable
    exp: Callable
    lgamma: Callable
    hyp1f1: Callable


# Python floats (libm, as in ``math``).
FLOAT = Arithmetic(
    num=lambda x: x,
    log=math.log,
    exp=math.exp,
    lgamma=math.lgamma,
    hyp1f1=lambda a, b, z: kummer_1f1(a, b, z).value,
)

# mpmath reals, used inside ``mpmath.workdps``.
MPMATH = Arithmetic(
    num=mpm.mpf,
    log=mpm.log,
    exp=mpm.exp,
    lgamma=mpm.loggamma,
    hyp1f1=mpm.hyp1f1,
)
