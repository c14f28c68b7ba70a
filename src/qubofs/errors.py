"""Exception types shared across the toolkit.

Each error class carries the command line's exit code and message prefix
through its base: ``ConfigInvalid`` (2), ``DataError`` (3) or ``Infeasible``
(4).
"""


class QubofsError(ValueError):
    """Base class for all toolkit errors; ``exit_code`` and ``prefix`` are
    what the command line exits with and prints before the message."""

    exit_code: int
    prefix: str


class ConfigInvalid(QubofsError):
    exit_code, prefix = 2, "config error"


class DataError(QubofsError):
    """Input data or a stored artifact that cannot be used."""

    exit_code, prefix = 3, "data error"


class Infeasible(QubofsError):
    """Valid input on which a stage cannot run."""

    exit_code, prefix = 4, "infeasible"


class IndexOutOfRange(DataError):
    pass


class DimensionMismatch(DataError):
    pass


class NegativeBase(Infeasible):
    """Non-integer power of a negative stored value."""


class ParseError(DataError):
    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class NegativeValue(DataError):
    pass


class NonFinite(DataError):
    """A stored value or a computed score that is inf or nan, such as a
    product of finite inputs that overflows."""


class EmptyDataset(DataError):
    pass


class QuotaInfeasible(Infeasible):
    pass


class InfeasibleConfig(Infeasible):
    pass


class RankTooLarge(Infeasible):
    pass


class TooLarge(Infeasible):
    pass


class DegenerateCatalog(Infeasible):
    pass
