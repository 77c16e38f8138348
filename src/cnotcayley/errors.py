"""Exception hierarchy shared across the package."""


class CnotCayleyError(Exception):
    """Base class for everything raised deliberately by this package."""


class OrderError(CnotCayleyError, ValueError):
    """Matrix order outside the supported range."""


class DimensionError(CnotCayleyError, ValueError):
    """Operands of mismatched order."""


class SingularError(CnotCayleyError, ValueError):
    """A matrix that must be invertible is not."""


class FormatError(CnotCayleyError, ValueError):
    """Malformed textual input (matrix, circuit, permutation, coefficients)."""


class HorizonError(CnotCayleyError, LookupError):
    """The requested element lies beyond the explored ball.

    Distinct from malformed input: the query was well-formed, the
    exploration simply does not reach far enough to answer it.
    """


class MissingRecordError(CnotCayleyError, LookupError):
    """A coefficient file has no record of the degree a request needs.

    Bad input, like a malformed record: the file falls short, not an
    exploration's horizon.
    """


class ConsistencyError(CnotCayleyError, RuntimeError):
    """An internal cross-check failed; indicates a bug, not bad input."""


class DatabaseError(CnotCayleyError, ValueError):
    """A distance database file is corrupt, truncated or wrong-version."""
