"""Exception hierarchy shared by all modules.

Each of the three broad classes carries the CLI exit code of its errors
as ``exit_code``: ParseError 2, ValidationError 3, NumericDomainError 4.
``check_count`` is the one rule for sizes, counts and powers.
"""

import numbers


class TeichlenError(Exception):
    """Base class for all library errors."""


class ParseError(TeichlenError):
    """A text input could not be parsed."""

    exit_code = 2

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(TeichlenError):
    """Structurally invalid data: bad gluings, bad parameters, bad shapes."""

    exit_code = 3


class NumericDomainError(TeichlenError):
    """Inputs outside the numeric domain of a formula."""

    exit_code = 4


class ProjectionUndefinedError(NumericDomainError):
    """Orthogonal projection of an ideal point onto a geodesic it bounds."""


class NotCrossingError(NumericDomainError):
    """Two geodesics were required to cross transversally but do not."""


class NoCrossingsError(NumericDomainError):
    """A twist was requested for a curve pair with no intersections."""


class DegenerateHexagonError(NumericDomainError):
    """Alternating side lengths do not bound a right-angled hexagon."""


class NoCollarError(NumericDomainError):
    """Collar parameters leave no room for an embedded annulus."""


class TwistUndefinedError(NumericDomainError):
    """Twist estimate requested where the curve misses the pants curve."""


class TwistSpreadWarning(UserWarning):
    """Per-crossing twists spread wider than the conjugation bound allows."""


def check_count(value, what: str, minimum: int | None = 0) -> None:
    """Raise ValidationError unless value is an integer >= minimum (any integer for None)."""
    if not (isinstance(value, numbers.Integral) and (minimum is None or value >= minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValidationError(f"{what} must be an integer{bound}, got {value!r}")
