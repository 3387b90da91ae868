"""Special-function kernel: log-gamma, generalized Laguerre polynomials, the
:class:`SeriesResult` record the library's series return, and the two
arithmetics the realized-variance moment front factor is evaluated in.

Everything here is pure and stateless.  ``rvdist._moment_front``, needed in
double precision and at many digits, is written once against an
:class:`Arithmetic` and evaluated with :data:`FLOAT` or :data:`MPMATH`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import mpmath as mpm

from .errors import DomainError

__all__ = [
    "SeriesResult",
    "Arithmetic",
    "FLOAT",
    "MPMATH",
    "log_gamma",
    "laguerre_polys",
]


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


class Arithmetic(NamedTuple):
    """The numbers a formula is evaluated in: all that differs between double
    precision and mpmath reals.  Each takes scalars: ``num`` converts a
    float, ``lgamma`` is ln Gamma of a positive argument."""

    num: Callable
    log: Callable
    exp: Callable
    lgamma: Callable


# Python floats (libm, as in ``math``).
FLOAT = Arithmetic(
    num=lambda x: x,
    log=math.log,
    exp=math.exp,
    lgamma=math.lgamma,
)

# mpmath reals, used inside ``mpmath.workdps``.
MPMATH = Arithmetic(
    num=mpm.mpf,
    log=mpm.log,
    exp=mpm.exp,
    lgamma=mpm.loggamma,
)
