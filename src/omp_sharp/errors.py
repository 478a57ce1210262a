"""Exception types shared across the package."""


class OmpSharpError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(OmpSharpError):
    pass


class RankDeficient(OmpSharpError):
    """Selected columns are numerically linearly dependent."""


class InvalidOrder(OmpSharpError):
    pass


class BudgetExceeded(OmpSharpError):
    """Subset enumeration would exceed the configured budget."""

    def __init__(self, message, requested=None):
        super().__init__(message)
        self.requested = requested


class OutOfSharpRegion(OmpSharpError):
    """delta >= 1/sqrt(K+1), outside the recovery-guarantee region."""


class InvalidDeltaOrder(OmpSharpError):
    """delta_2 > delta_{K+1}, which violates RIC monotonicity."""


class DegenerateDenominator(OmpSharpError):
    pass


class GammaOutOfRange(OmpSharpError):
    pass


class ParameterOutOfRange(OmpSharpError):
    pass


class NotProperSubset(OmpSharpError):
    pass


class DegenerateMatrix(OmpSharpError):
    pass


class ParseError(OmpSharpError):
    """Malformed input file; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line
