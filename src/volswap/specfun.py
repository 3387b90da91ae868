"""Special-function kernel: generalized Laguerre polynomials and the
:class:`SeriesResult` record the library's series return.

Everything here is pure and stateless.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "SeriesResult",
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
