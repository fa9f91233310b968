"""Exception types raised across the package."""


class SdmError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(SdmError, ValueError):
    """An input's length does not match the declared axis size. Also a
    ValueError, so callers that catch ValueError keep working."""

    def __init__(self, axis: str, expected: int, got: int):
        self.axis = axis
        self.expected = expected
        self.got = got
        super().__init__(f"{axis} dimension mismatch: expected {expected}, got {got}")


class SettingError(SdmError, ValueError):
    """A refused setting: a value outside its range, such as a negative seed,
    a malformed command line or config line, or a file that a setting names
    and that cannot be read or written. Also a ValueError."""


class DivergedError(SdmError):
    """An iteration produced a non-finite evaluation or iterate.

    Carries the iterates computed before the breakdown in `trajectory`,
    a (k, p) array, and in `row` the failing row of a run on rows, shown as " (row i)".
    """

    def __init__(self, message: str, trajectory, row: int | None = None):
        self.trajectory = trajectory
        self.row = row
        super().__init__(message)

    def __str__(self) -> str:
        return self.args[0] if self.row is None else f"{self.args[0]} (row {self.row})"


class DegenerateNeighborhoodError(SettingError):
    """A neighborhood radius or grid that leaves no usable points around the anchor."""


class NotMonotoneError(SdmError):
    """A construction that requires monotonicity was given a non-monotone map."""


class RankDeficiencyError(SdmError):
    """A least-squares stage cannot be solved without regularization."""


class InvalidProjectionError(SdmError):
    """A 3D point projected with non-positive depth."""

    def __init__(self, message: str, indices=()):
        self.indices = tuple(indices)
        super().__init__(message)


class TrainingDivergedError(SdmError):
    """A training sample produced a non-finite evaluation mid-training."""

    def __init__(self, stage: int, sample: int):
        self.stage = stage
        self.sample = sample
        super().__init__(f"non-finite evaluation at stage {stage}, sample {sample}")


class NumericalBreakdownError(SdmError):
    """An internal invariant of a recursive update was violated."""


class PartitionError(SdmError):
    """Region-partition fields are malformed, or an operation that keeps
    one step per stage was given a region-partitioned sequence."""


class ModelFormatError(SdmError):
    """A serialized model file is malformed or has an unsupported version."""
