"""Exception types shared across the toolkit."""


class QubofsError(ValueError):
    """Base class for all toolkit errors."""


class IndexOutOfRange(QubofsError):
    pass


class DimensionMismatch(QubofsError):
    pass


class NegativeBase(QubofsError):
    """Non-integer power of a negative stored value."""


class ParseError(QubofsError):
    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class NegativeValue(QubofsError):
    pass


class NonFinite(QubofsError):
    """A stored value or a computed score that is inf or nan, such as a
    product of finite inputs that overflows."""


class EmptyDataset(QubofsError):
    pass


class QuotaInfeasible(QubofsError):
    pass


class InfeasibleConfig(QubofsError):
    pass


class RankTooLarge(QubofsError):
    pass


class TooLarge(QubofsError):
    pass


class DegenerateCatalog(QubofsError):
    pass


class ConfigInvalid(QubofsError):
    pass
