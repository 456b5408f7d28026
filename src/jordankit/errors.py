"""Exception types shared across the package.

Every partially-defined operation signals its failure mode with one of
these; nothing is reported through return codes or None at the API level.
"""


class JordankitError(Exception):
    """Base class for all domain errors raised by this package."""


class RingMismatch(JordankitError):
    pass


class NotAUnit(JordankitError):
    pass


class NotDual(JordankitError):
    pass


class NotInvertible(JordankitError):
    pass


class SingularOperator(JordankitError):
    pass


class NotInSubspace(JordankitError):
    pass


class NotQuasiInvertible(JordankitError):
    pass


class NotInChart(JordankitError):
    pass


class NotTransversal(JordankitError):
    pass


class NotInSpace(JordankitError):
    pass


class SeriesNotInvertible(JordankitError):
    pass


class DomainViolation(JordankitError):
    pass


class ShapeMismatch(JordankitError):
    pass


class NonFiniteResult(JordankitError):
    """A float result holds a NaN or an infinity, which JSON cannot carry."""
