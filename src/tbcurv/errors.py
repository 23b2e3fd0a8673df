"""Exception types shared across the package, the rule for a positive
finite number given from outside it, and the texts of values and errors
in messages."""

import math
import numbers


class TbcurvError(Exception):
    """Base class for all package errors."""


class ParseError(TbcurvError):
    """Malformed expression text. Carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ParseError):
    """Identifier other than ``t`` or a supported function name."""


class DomainError(TbcurvError):
    """Evaluation outside the real domain of an expression node."""

    def __init__(self, message: str, node: str, t: float):
        t = float(t)
        super().__init__(f"{message}: {node} at t={t!r}")
        self.node = node
        self.t = t


class ValidityError(TbcurvError):
    """Metric family violates alpha > 0 or alpha + t*beta > 0."""


class NonFiniteError(TbcurvError):
    """A computed value is not finite (it overflowed), so it is not a result."""


class SingularMetricError(TbcurvError):
    """Metric matrix failed a positive-definiteness (Cholesky) check."""


class StencilOutOfDomainError(TbcurvError):
    """Differentiation stencil would leave the chart domain."""


class DegenerateInputError(TbcurvError):
    """Vectors supplied to a frame construction do not span."""


class ConfigError(TbcurvError):
    """Bad run configuration (CLI exit code 2)."""


def is_finite_real(value) -> bool:
    """Whether value is a real number (a boolean or a string is not one)
    that is finite as a double."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the range of a double
        return False


def shown(value) -> str:
    """repr(value), with each integer in it beyond the range of a double
    (alone, or in lists and tuples) as inf or -inf, as the command line reads it."""

    def read(item):
        if isinstance(item, (list, tuple)):
            return (list if isinstance(item, list) else tuple)(map(read, item))
        if isinstance(item, int):
            try:
                float(item)
            except OverflowError:
                return math.inf if item > 0 else -math.inf
        return item

    return repr(read(value))


def error_text(exc: Exception) -> str:
    """An error as a report or a table row gives it: its type and message."""
    return f"{type(exc).__name__}: {exc}"


def check_positive(value, name: str, below: float = math.inf) -> None:
    """Raise a ValueError naming value unless it is a real number, finite as
    a double, with 0 < value < below."""
    if not (is_finite_real(value) and value > 0):
        raise ValueError(f"{name} must be a positive finite number, got {shown(value)}")
    if value >= below:
        raise ValueError(f"{name} must be below {below:g}, got {shown(value)}")
