"""Exception types shared across the package.

Each class carries the exit code `bohmstat run` returns when a run raises it:
2 for input the package rejects or does not support, 3 for a numerical
failure found while the run computes.
"""


class BohmstatError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 2


class MemoryBudgetExceeded(BohmstatError):
    pass


class InvalidExtent(BohmstatError):
    """A Grid value out of range; carries the name of its grid key."""

    def __init__(self, field, message):
        self.field, self.message = field, message
        super().__init__(f"{field}: {message}")


class AxisMismatch(BohmstatError):
    pass


class ConvergenceFailure(BohmstatError):
    exit_code = 3


class NonuniformFrames(BohmstatError):
    pass


class PartitionMismatch(BohmstatError):
    pass


class DenseBudgetExceeded(BohmstatError):
    pass


class TrajectoryEscapedDomain(BohmstatError):
    exit_code = 3


class NotADensityMatrix(BohmstatError):
    exit_code = 3


class OutsideAllCells(BohmstatError):
    exit_code = 3


class TruncationInsufficient(BohmstatError):
    exit_code = 3


class GridTooCoarse(BohmstatError):
    pass


class WindowEmpty(BohmstatError):
    exit_code = 3


class NonPositiveBeta(BohmstatError):
    """A canonical state asked for at beta <= 0."""


class DiagonalizationBudget(BohmstatError):
    pass


class AnalyticDensityUnavailable(BohmstatError):
    pass


class MalformedFile(BohmstatError):
    """A binary file whose header or payload length does not fit its format."""


class ConfigError(BohmstatError):
    """Invalid experiment configuration; carries the offending config path."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")
