"""Exception types shared across the package.

The hierarchy separates caller mistakes (``ParameterError`` and friends,
subclasses of ``ValueError``) from numerical / statistical conditions that
arise at run time (subclasses of ``EstimatorError`` / ``RuntimeError``).
"""


class ParameterError(ValueError):
    """A parameter is outside its documented domain."""


class TruncationError(RuntimeError):
    """A photon-number distribution cannot be truncated below the tail cutoff."""


class UndefinedRatioError(RuntimeError):
    """A requested ratio (QBER, g2, ...) is undefined because its denominator is zero."""


class EstimatorError(RuntimeError):
    """Base class for failures of the security estimator."""


class DegenerateStatisticsError(EstimatorError):
    """A fluctuation bound divides by sqrt(N*X) with X == 0.

    Carries the name of the offending observable in ``observable``.
    """

    def __init__(self, observable: str, message: str | None = None):
        self.observable = observable
        super().__init__(message or f"observable {observable!r} is zero; "
                         f"finite-size bound 1/sqrt(N*{observable}) is undefined")


class DegenerateHeraldingError(EstimatorError):
    """Single-photon bounds are undefined for eta_a in {0, 1}."""


class UnboundedErrorRate(EstimatorError):
    """The single-photon error rate cannot be bounded (zero yield bound).

    Key-rate evaluation must treat the single-photon term as worthless.
    """


class ConfigError(ValueError):
    """A configuration file failed to parse or validate.

    ``path`` and ``line`` (1-based, or None) locate the problem.
    """

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}:" if line is None else f"{path}:{line}:"
        super().__init__(f"{where} {message}" if where else message)


class DataFormatError(ValueError):
    """A data file (events, results, tally) is malformed."""

    def __init__(self, message: str, path: str | None = None, row: int | None = None):
        self.path = path
        self.row = row
        where = ""
        if path is not None:
            where = f"{path}:" if row is None else f"{path}:row {row}:"
        super().__init__(f"{where} {message}" if where else message)
