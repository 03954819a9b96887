"""Exception types shared across the package."""


class MortcastError(Exception):
    """Base class for all package-specific errors."""


class DomainError(MortcastError, ValueError):
    """A numeric input lies outside the mathematical domain of an operation.

    Raised for things like negative death rates, probabilities at or past
    their boundaries, or non-monotone survival curves. When the offending
    value sits in a surface or a block of sample paths, the message names
    its cell: the age and year, and the path if there is one.
    """


class ParseError(MortcastError, ValueError):
    """Malformed input text. The message carries the 1-based line number."""


class FitError(MortcastError, RuntimeError):
    """A fit reached a degenerate state it cannot recover from on its own.

    The message names that state.
    """
