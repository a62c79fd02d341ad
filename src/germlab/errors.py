"""Exception types shared across the package."""


class GermlabError(Exception):
    """Base class for all errors raised by germlab."""


class DimensionMismatchError(GermlabError, ValueError):
    """Operands live in different ambient variable counts."""


class ZeroPolynomialError(GermlabError, ValueError):
    """An operation that needs a nonzero polynomial received zero."""


class SingularMatrixError(GermlabError, ValueError):
    """A coordinate change matrix is not invertible."""


class UnitIdealError(GermlabError, ValueError):
    """The ideal contains a unit, so the germ-level operation is undefined."""


class NotFlatError(GermlabError, ValueError):
    """The map germ is not flat, so the requested bound does not exist."""


class ParseError(GermlabError, ValueError):
    """Malformed polynomial text or job file.

    Carries the 1-based line and column of the offending character when the
    error has one; errors about a job's structure leave both None.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = "" if line is None else f" (line {line}, column {column})"
        super().__init__(message + where)
        self.reason = message
        self.line = line
        self.column = column


class ResourceLimitError(GermlabError, RuntimeError):
    """A configured resource bound was exceeded; nothing was truncated."""

    def __init__(self, bound: str, limit: int):
        super().__init__(f"resource limit exceeded: {bound} > {limit}")
        self.bound = bound
        self.limit = limit
