"""Exception types shared across the pipeline.

Each class carries the exit code the CLI returns for it: 3 for a fault in
the config or the input files, 4 for data the statistics cannot handle.
"""


class PCRiskError(Exception):
    """Base class for all pcrisk errors."""

    exit_code = 3


class InvalidInputError(PCRiskError):
    """Caller passed a value that violates a precondition (bad bbox, inverted window, ...)."""


class OutOfBoundsError(PCRiskError):
    """A point or cell falls outside the grid."""


class SchemaError(PCRiskError):
    """An input file is missing a mapped column or has an unusable layout."""


class DuplicateTimestampError(PCRiskError):
    """A cell series contains two samples with the same timestamp."""


class MissingVariableError(PCRiskError):
    """No finite samples exist for a required environmental variable."""


class InsufficientDataError(PCRiskError):
    """Too few samples (or a single class) for the requested statistic."""

    exit_code = 4


class UndefinedTestError(PCRiskError):
    """A contingency table has a zero margin, so the exact test is undefined."""

    exit_code = 4


class DegeneratePartitionError(PCRiskError):
    """A hypothesis predicate selects every cell or no cell."""

    exit_code = 4


class StratificationError(PCRiskError):
    """A class is too small to appear on both sides of a stratified split."""

    exit_code = 4


class NonConvergenceError(PCRiskError):
    """Iterative training diverged; carries the last observed loss."""

    exit_code = 4

    def __init__(self, message, last_loss=None):
        super().__init__(message)
        self.last_loss = last_loss


class ValidationError(PCRiskError):
    """An output artifact failed its own validity check before writing."""
