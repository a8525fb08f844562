"""Exception types shared across the package.

Everything raised on purpose derives from :class:`EcgBalanceError`, so
callers (including the command line front end) can catch one base class
and map it to a data-error exit without swallowing genuine bugs.
"""


class EcgBalanceError(Exception):
    """Base class for all errors raised by this package."""


class MalformedRecord(EcgBalanceError):
    """A record could not be parsed into a rectangular numeric matrix."""

    def __init__(self, record_id: str, detail: str = ""):
        self.record_id = record_id
        msg = f"record {record_id!r}: {detail}" if detail else f"record {record_id!r} is malformed"
        super().__init__(msg)


class NonFiniteSample(EcgBalanceError):
    """A record contains a NaN or infinite amplitude.

    ``row`` and ``col`` locate the offending value in record-file
    coordinates: row is the sample index, column is the channel index.
    """

    def __init__(self, record_id: str, row: int, col: int):
        self.record_id = record_id
        self.row = row
        self.col = col
        super().__init__(f"record {record_id!r}: non-finite value at row {row}, column {col}")


class UnknownClass(EcgBalanceError):
    """A label lies outside the dataset's class range."""


class SpecError(EcgBalanceError):
    """A generator, split, or experiment description is internally inconsistent."""


class WindowOutOfRange(EcgBalanceError):
    """A requested window does not fit inside the record."""


class DimensionError(EcgBalanceError):
    """Operands disagree on channel count or vector length."""


class EncodeError(EcgBalanceError):
    """Image encoding preconditions were violated."""


class EmptyDataset(EcgBalanceError):
    """The operation needs at least one record (or one nonempty class)."""


class ConfigError(EcgBalanceError):
    """A training or loss configuration is unusable."""


class OutputError(EcgBalanceError):
    """An output file or directory cannot be written."""
