"""Exception types shared across the package."""


class GanBalanceError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(GanBalanceError, ValueError):
    """Array dimensions do not match what an operation requires."""


class CsvParseError(GanBalanceError, ValueError):
    """A CSV cell could not be parsed; carries 1-based row/column position."""

    def __init__(self, message: str, row: int, column: int):
        super().__init__(f"{message} (row {row}, column {column})")
        self.row = row
        self.column = column


class SchemaError(GanBalanceError, ValueError):
    """The input table is missing required columns or has invalid labels."""


class CapacityError(GanBalanceError, ValueError):
    """A split request asks for more rows of a class than the table holds."""


class DegenerateDataError(GanBalanceError, ValueError):
    """Training data contains a single class where two are required."""


class EmptyMinorityError(GanBalanceError, ValueError):
    """No positive rows exist, so there is no minority class to model."""


class NothingToBalanceError(GanBalanceError, ValueError):
    """The training set is already balanced (or inverted); nothing to append."""


class UndefinedAucError(GanBalanceError, ValueError):
    """ROC/AUC is undefined because the truth labels contain a single class."""


class ConsistencyError(GanBalanceError, RuntimeError):
    """A network cannot serve the operation asked of it (e.g. backward without a loss layer)."""


class GanStalledError(GanBalanceError, RuntimeError):
    """The GAN's generator stopped receiving any gradient; ``log`` is its training log."""

    def __init__(self, message: str, log: list):
        super().__init__(message)
        self.log = log


class RunFailureError(GanBalanceError, RuntimeError):
    """One or more (mode, model) runs failed; partial results were written."""


class PreconditionError(GanBalanceError, ValueError):
    """An operation was called outside its documented preconditions."""
