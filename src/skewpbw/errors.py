"""Exception types shared across the package."""


class SkewPBWError(Exception):
    """Base class for all package-specific errors."""


class KindMismatch(SkewPBWError):
    """An element payload does not belong to the ring it was used with."""


class NotAUnit(SkewPBWError):
    """Inversion was requested for a non-invertible element."""


class InfiniteRing(SkewPBWError):
    """Exhaustive enumeration was requested for an infinite ring."""


class ParseError(SkewPBWError):
    def __init__(self, message, line=1, col=1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class SemanticError(SkewPBWError):
    """Input is grammatical but violates a structural constraint."""


class UnknownAlgebra(SkewPBWError):
    pass


class BadParams(SkewPBWError):
    pass


class MissingDimR(SkewPBWError):
    """A bound formula needs the coefficient-ring dimension and none was given."""


class DimensionMismatch(SkewPBWError):
    pass


class UnsupportedCoefficientRing(SkewPBWError):
    pass


class InvalidRing(SkewPBWError):
    """A finite ring table failed the construction-time law checks."""


class RingTooLarge(SkewPBWError):
    """A finite ring has more elements than its index tables are allowed to cover."""


class PreconditionFailed(SkewPBWError):
    pass


class LimitExceeded(SkewPBWError):
    """A computation would need more than a fixed limit allows."""


class NotFoundWithinBound(SkewPBWError):
    """A certificate exists but was not found within the requested degree bound."""
