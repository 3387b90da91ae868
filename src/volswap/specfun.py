"""Special-function kernel: generalized Laguerre polynomials, the
:class:`SeriesResult` record the library's series return, and how the
arbitrary-precision modules reach mpmath: the :class:`DeferredMpmath`
stand-in and :data:`MP_LOCK`.

Everything here is pure and stateless, apart from the one rebinding
:class:`DeferredMpmath` makes on first use.
"""

from __future__ import annotations

import threading
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


# mpmath's working precision is one setting for the whole process, so the
# library sets and uses it only while holding this lock; two threads pricing
# at once would otherwise compute at each other's precision.
MP_LOCK = threading.RLock()


class DeferredMpmath:
    """Stand-in for the mpmath module under a module's global name ``mpm``.

    The first attribute read imports mpmath and rebinds ``mpm`` in
    ``namespace`` (the owning module's ``globals()``) to it, so later reads
    are ordinary global lookups.  Threads that race to the first read are
    serialized by the import system's per-module lock and all rebind to the
    same module object.
    """

    def __init__(self, namespace: dict):
        self._namespace = namespace

    def __getattr__(self, name: str):
        import mpmath

        self._namespace["mpm"] = mpmath
        return getattr(mpmath, name)
