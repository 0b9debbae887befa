"""Exception taxonomy shared across the package.

Netlist errors carry the 1-based source line when known so the CLI can
point at the offending card.
"""


class DtlsimError(Exception):
    """Base class for everything raised deliberately by this package."""


class NetlistError(DtlsimError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnknownElementKind(NetlistError):
    pass


class ArityError(NetlistError):
    pass


class DuplicateName(NetlistError):
    pass


class MalformedNumber(NetlistError):
    pass


class UnknownModel(NetlistError):
    pass


class DomainError(DtlsimError, ValueError):
    """Argument outside a device equation's domain or an analysis' range;
    also a ValueError, so code that catches ValueError still catches it."""


class SolverError(DtlsimError):
    pass


class NoConvergence(SolverError):
    def __init__(self, message: str, residual: float | None = None, at: float | None = None):
        self.residual = residual
        self.at = at
        super().__init__(message)


class SingularMatrix(SolverError):
    def __init__(self, message: str, node: str | None = None):
        self.node = node
        super().__init__(message)


class InvalidThreshold(DtlsimError):
    """Threshold parameters violate the unit's validity conditions."""


class AnalysisEmpty(DtlsimError):
    """A response exists but carries no extractable feature."""


class NotUnimodal(AnalysisEmpty):
    pass


class NoBand(AnalysisEmpty):
    pass


class NoRing(AnalysisEmpty):
    pass


class PgmError(DtlsimError):
    pass


class BadMagic(PgmError):
    pass


class BadHeader(PgmError):
    pass


class TruncatedData(PgmError):
    pass


class UnsupportedMaxval(PgmError):
    pass


class LutRangeError(DtlsimError):
    """Requested input range falls outside the lookup table's grid."""
