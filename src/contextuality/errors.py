"""Exception hierarchy shared by all modules.

``DataError`` subclasses signal problems with user-supplied data or
problem sizes (CLI exit status 2); ``SolverFailure`` signals numerical
breakdown inside a feasibility solve, which must never be confused with
a genuine "infeasible" verdict (CLI exit status 3).  Invalid arguments
to a library call, such as a pair given twice to ``build_problem``,
raise ``ValueError``, which the CLI also reports with exit status 2.
"""

from __future__ import annotations


class ContextualityError(Exception):
    """Base class for all errors raised by this package."""


class DataError(ContextualityError):
    """A problem with the input data or requested problem size."""


class UnknownObservable(DataError):
    """An observable id is not present in the dataset or observable set."""


class EmptyPairData(DataError):
    """No records or logged measurement pairs exist for the requested pair."""


class ZeroConditioningRow(DataError):
    """A conditional probability is undefined: conditioning outcome never occurs
    and no smoothing was requested."""


class TooFewObservables(DataError):
    """Triple sampling needs at least three observables."""


class SampleExceedsPopulation(DataError):
    """More distinct triples requested than exist."""


class ProblemTooLarge(DataError):
    """The requested problem exceeds the supported desk-scale size."""


class ParseError(DataError):
    """A data file failed to parse.

    Attributes:
        line: 1-based line number of the offending input, 0 if unknown.
        column: 1-based field position within the line, 0 if unknown.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"line {line}, column {column}: {message}" if column else f"line {line}: {message}"
        super().__init__(message)


class NonBinaryValue(ParseError):
    """A value field held something other than 0 or 1."""


class HeaderMismatch(ParseError):
    """A file header does not match the required format."""


class SolverFailure(ContextualityError):
    """The linear-feasibility solver broke down numerically.

    Distinct from an infeasible verdict: infeasibility is a result,
    this is the absence of one.
    """
