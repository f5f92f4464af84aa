"""Domain errors shared across the package.

The CLI echoes a domain failure as its class name and message (exit code
65, or 3 for ``CapExceeded``), so the class names are part of its output.
"""


class ParakatError(Exception):
    """Base class for all domain errors raised by this package."""


class NotUpper(ParakatError):
    """An operation required an upper tuple (entry at position i must be >= i)."""


class NotIncreasingUpper(ParakatError):
    """An operation required an increasing upper tuple."""


class NotGapless(ParakatError):
    """An operation required a gapless tuple."""


class NotFlagCriticalList(ParakatError):
    """A construction required a flag critical list."""


class NotAvoiding(ParakatError):
    """An operation required a 312-avoiding input."""


class DomainMismatch(ParakatError):
    """Two values were combined that live over different n or carrel sets."""


class ShapeMismatch(ParakatError):
    """A tableau-side operation was given inputs whose carrel sets disagree."""


class CapExceeded(ParakatError):
    """A tableau set or shape exceeded ``PARAKAT_CAP``, or a suite range its bound."""
