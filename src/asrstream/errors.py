"""Exception taxonomy; every error raised by the package derives from AsrError."""


class AsrError(Exception):
    """Base class for all package errors."""


class InvalidInput(AsrError):
    """Data or parameters violate an operation's preconditions."""


class EmptyInput(AsrError):
    """At least one element is required."""


class InsufficientData(AsrError):
    """Too few samples for the requested statistic."""


class FilterDiverged(AsrError):
    """IIR output went non-finite; the coefficients are unstable."""


class NotSymmetric(AsrError):
    """Matrix is not symmetric within tolerance."""


class CalibrationDegenerate(AsrError):
    """Calibration covariance is degenerate beyond eigenvalue clamping."""


class WindowTooShort(AsrError):
    """The statistics window must span at least 1.5x the channel count."""


class ChannelMismatch(AsrError):
    """Chunk dimensions do not match the calibration."""


class InvalidLifecycle(AsrError):
    """Operation not valid in the pipeline's current lifecycle state."""


class PrepareFailed(AsrError):
    """Pipeline preparation failed."""


class WorkerDied(AsrError):
    """The pipeline's worker thread stopped; chunks in flight are lost."""


class ShapeMismatch(AsrError):
    """Operands must have identical dimensions."""


class InvalidSpec(AsrError):
    """Synthetic-data description is inconsistent."""


class RaggedCsv(AsrError):
    """CSV rows have unequal lengths."""

    def __init__(self, row: int, message: str | None = None):
        self.row = row
        super().__init__(message or f"row {row} has a different length than row 1")


class ParseError(AsrError):
    """A cell or structural element failed to parse."""

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        self.row = row
        self.col = col
        pos = ""
        if row is not None:
            pos = f" (row {row}" + (f", col {col})" if col is not None else ")")
        super().__init__(message + pos)


class EmptyFile(AsrError):
    """The file contains no data rows."""


class UnsupportedVersion(AsrError):
    """File was written by an incompatible format version."""


class MissingKey(AsrError):
    """A required configuration key is absent."""

    def __init__(self, key: str):
        self.key = key
        super().__init__(f"missing required key {key!r}")


class InvalidValue(AsrError):
    """A configuration value violates its constraint."""

    def __init__(self, name: str, reason: str):
        self.name = name
        self.reason = reason
        super().__init__(f"{name}: {reason}")
