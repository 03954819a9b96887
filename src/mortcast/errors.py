"""Exception types shared across the package."""


class MortcastError(Exception):
    """Base class for all package-specific errors."""


class DomainError(MortcastError, ValueError):
    """A numeric input lies outside the mathematical domain of an operation.

    Raised for things like negative death rates, probabilities at or past
    their boundaries, or non-monotone survival curves. When the offending
    value sits in a surface, the message names the (age, year) cell.

    ``cell`` is the index of the offending element when a check ran over a
    bare array, so a caller that knows what the axes mean can name the
    cell in its own terms; it is None otherwise.
    """

    def __init__(self, message: str = "", cell: tuple[int, ...] | None = None):
        super().__init__(message)
        self.cell = cell


class ParseError(MortcastError, ValueError):
    """Malformed input text. The message carries the 1-based line number."""


class FitError(MortcastError, RuntimeError):
    """A fit reached a degenerate state it cannot recover from on its own.

    The message names that state.
    """
