"""Exception and warning types shared across the package."""


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
