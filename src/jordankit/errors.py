"""Exception types shared across the package.

Every partially-defined operation signals its failure mode with one of
these; nothing is reported through return codes or None at the API level.
"""

import reprlib
from itertools import islice


class _Echo(reprlib.Repr):
    """reprlib with dict keys in their own order, as repr shows them."""

    def repr_dict(self, x, level):
        if not x or level <= 0:
            return "{...}" if x else "{}"
        items = [f"{self.repr1(k, level - 1)}: {self.repr1(v, level - 1)}"
                 for k, v in islice(x.items(), self.maxdict)]
        if len(x) > self.maxdict:
            items.append("...")
        return "{" + ", ".join(items) + "}"


_ECHO = _Echo()
_ECHO.maxlevel, _ECHO.maxlist, _ECHO.maxdict = 4, 8, 8
_ECHO.maxstring = _ECHO.maxlong = _ECHO.maxother = 60


def _echo(value):
    """The repr of a request value as error details echo it: cut to 4
    levels, 8 items a container, 60 characters a scalar and 200 in all."""
    text = _ECHO.repr(value)
    return text if len(text) <= 200 else text[:200] + "..."


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
