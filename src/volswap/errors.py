"""Exception hierarchy shared across the library."""


class VolswapError(Exception):
    """Base class for all library errors."""


class DomainError(VolswapError):
    """Argument outside the mathematical domain of a function."""


class NoConvergence(VolswapError):
    """A series failed to converge within its term budget."""


class InvalidConfig(VolswapError):
    """Expansion configuration violates a structural requirement."""


class PreconditionError(VolswapError):
    """Error-bound preconditions (e.g. a certified contraction factor) fail."""


class DegenerateInterval(VolswapError):
    """An observation interval has zero variance but nonzero mean."""


class RegimeError(VolswapError):
    """Operation requires the constant per-interval volatility regime."""


class DegenerateExponent(VolswapError):
    """A series exponent lands on a forbidden value (0 or 1)."""
