"""Exception and warning types shared across the package, and the rule
for a positive finite number given from outside it."""

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


class ConditioningWarning(UserWarning):
    """Bundle metric condition number is large; results may lose digits."""


def is_finite_real(value) -> bool:
    """Whether value is a real number (a boolean or a string is not one)
    that is finite as a double."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the range of a double
        return False


def check_positive(value, name: str, below: float = math.inf) -> None:
    """Raise a ValueError naming value unless it is a real number, finite as
    a double, with 0 < value < below."""
    if not (is_finite_real(value) and value > 0):
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    if value >= below:
        raise ValueError(f"{name} must be below {below:g}, got {value!r}")
