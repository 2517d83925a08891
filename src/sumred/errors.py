"""Exception types shared across the package.

Engine failures raise subclasses of SummationError so the CLI can map them
to a single exit code. Plain ZeroDivisionError is reserved for actual
division by a zero value or polynomial.
"""


class SummationError(Exception):
    """Base class for all engine errors."""


class UnsupportedFactorizationError(SummationError):
    """An irreducible factorization was requested that cannot be supplied.

    The factorizer covers every level and degree, so the engine itself no
    longer raises this; the type stays part of the error vocabulary that
    callers catch and report."""


class InvalidTowerError(SummationError):
    """A declared generator fails the adjunction test (its difference is
    already a difference of an existing element), or a generator's
    difference refers to variables at or above its own level."""


class ParseError(SummationError):
    """Expression or tower-file syntax error; carries a position."""

    def __init__(self, message, position=None, line=None):
        self.message = message
        self.position = position
        self.line = line
        where = ""
        if line is not None:
            where += f" at line {line}"
        if position is not None:
            where += f" at column {position}"
        super().__init__(message + where)


class IntegerLimitError(SummationError):
    """An integer exceeded the configured bit-size cap, or has more digits
    than Python converts between integers and text."""
