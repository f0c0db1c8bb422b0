"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration / file-format problems
exit 3, numerical failures exit 4. Infeasibility of a planning problem is
not an exception anywhere in the library; it is a typed outcome.
"""


class IrsPlanError(Exception):
    """Base class for all package errors."""


class ConfigError(IrsPlanError):
    """Bad scenario configuration. Carries the offending key path."""

    def __init__(self, message, key=None):
        self.key = key
        super().__init__(f"{key}: {message}" if key else message)


class FileFormatError(IrsPlanError):
    """Malformed artifact file. Carries file, line number and field."""

    def __init__(self, message, path=None, line=None, field=None):
        self.path = path
        self.line = line
        self.field = field
        loc = "".join(
            [
                f"{path}: " if path else "",
                f"line {line}: " if line is not None else "",
                f"field '{field}': " if field else "",
            ]
        )
        super().__init__(loc + message)


class UnsupportedVersionError(FileFormatError):
    """Artifact file written by an incompatible format version."""


class InvalidTrajectoryError(IrsPlanError):
    """Trajectory has the wrong number of waypoints or non-finite entries."""


class InvalidObstacleError(IrsPlanError):
    """Obstacle shape matrix is not symmetric positive definite."""


class DegenerateChannelError(IrsPlanError):
    """All-zero effective channel; no beamformer is defined."""


class GraphInfeasibleError(IrsPlanError):
    """No layer-respecting start-to-goal path exists in the time-expanded graph."""


class FitFailureError(IrsPlanError):
    """A class fit has non-finite parameters, or stopped at its iteration cap still moving."""


class AssemblyError(IrsPlanError):
    """Conic subproblem assembly received inconsistent dimensions."""


class SubproblemError(IrsPlanError):
    """A convex subproblem failed inside the descent loop. Carries the trace so far."""

    def __init__(self, message, trace=None):
        self.trace = trace
        super().__init__(message)
