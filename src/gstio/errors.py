"""Exception types raised across the package.

Two broad families matter to callers: :class:`NumericalError` (a linear
system cannot be solved, typically a non-productive coefficient matrix) and
everything else, which signals invalid data or mismatched inputs. The CLI
maps the families to distinct exit codes.

Any error may name its place in a file, kept as ``path``, ``line`` and ``column``
(1-based, None where not given); its message then starts ``path:line:column: ``
as far as they are given from the left, so a column counts only with a line.

Every error pickles with its message, its place and its other attributes, so
one raised in a worker process reaches its parent whole.
"""

import copyreg


class GstioError(Exception):
    """Base class for all errors raised by this package."""

    def __init__(self, message, *, path=None, line=None, column=None):
        self.path = None if path is None else str(path)
        self.line, self.column = line, column
        if path is not None:
            where = self.path
            if line is not None:
                where += f":{line}" if column is None else f":{line}:{column}"
            message = f"{where}: {message}"
        super().__init__(message)

    def __reduce__(self):
        # rebuilt from the class, the message as formatted and every attribute,
        # without the constructor, whose arguments differ by subclass
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class NumericalError(GstioError):
    """A computation failed for numerical reasons (not bad input data)."""


class NonProductive(NumericalError):
    """Coefficient matrix has spectral radius >= 1; (I - A) is not safely invertible."""


class DimensionMismatch(GstioError):
    """Array shapes or index sets do not line up."""


class InvalidSchedule(GstioError):
    """Rate schedule with a statutory rate, share or category outside its domain."""


class BasisMismatch(GstioError):
    """Expenditure matrix is keyed by item codes where sector codes are required (or vice versa)."""


class ZeroOutput(GstioError):
    """Some sector's gross output is <= 0, below an input cell or tiny beside its flows; from a file, at its cell."""


class Unbalanced(GstioError):
    """Row/column accounting identities of an IO table violated beyond tolerance."""


class EmptyGroup(GstioError):
    """Household groups with zero total expenditure; read from a file, at the first one's line."""

    def __init__(self, groups, *, path=None, line=None):
        self.groups = tuple(groups)
        super().__init__(f"groups with zero total expenditure: {', '.join(self.groups)}", path=path, line=line)


class NonPositiveBase(GstioError):
    """Percent change requested against a base value <= 0."""


class UnknownBaseGroup(GstioError):
    """Gap ratios requested against a group id not present in the totals."""


class ZeroValueAdded(GstioError):
    """A sector has zero labor plus capital coefficient; tax-to-value-added ratio undefined."""


class UnmappedItem(GstioError):
    """Codes missing from a concordance, the sector set or a category map; read from a file, at the first one's line."""

    def __init__(self, items, context="", *, path=None, line=None):
        self.items = tuple(sorted(items))
        self.context = context
        suffix = f" ({context})" if context else ""
        super().__init__(f"unmapped item codes{suffix}: {', '.join(self.items)}", path=path, line=line)


class MissingArtifact(GstioError):
    """A report was requested from a run directory that lacks the needed file."""


class LoadError(GstioError):
    """Error tied to a position in an input file, whose ``path`` it always names."""

    def __init__(self, message, *, path, line=None, column=None):
        super().__init__(message, path=path, line=line, column=column)


class ParseError(LoadError):
    """A cell could not be parsed (bad number, wrong field count)."""


class SchemaError(LoadError):
    """File structure does not match the documented schema (missing row/column/header)."""


class UnknownSector(LoadError):
    """File references a sector id that is not in the sector set."""


class InvalidShare(LoadError):
    """Standard-rated share or concordance weight outside its valid range."""
