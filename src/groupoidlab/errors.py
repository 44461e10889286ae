"""Exception and warning types shared across the package."""


class GroupoidLabError(Exception):
    """Base class for all package errors."""


class DomainError(GroupoidLabError):
    """A point left its coordinate box; chart maps are only defined on the boxes."""


class SamplingError(GroupoidLabError):
    """Rejection sampling could not find enough admissible composable triples."""


class ConvergenceError(GroupoidLabError):
    """An iteration (Newton, power iteration, grid refinement) failed to converge."""


class SingularJacobianError(GroupoidLabError):
    """A Jacobian required by a solve or a density evaluation is numerically singular."""


class GridMismatchError(GroupoidLabError):
    """Two sampled symbols do not share the grid an operation requires."""


class MissingDataError(GroupoidLabError):
    """Tabulated algebroid data does not cover the base nodes of the grid in use."""


class DecayError(GroupoidLabError):
    """A symbol does not decay below threshold at the edge of the configured grid."""


class DecayWarning(UserWarning):
    """Non-strict counterpart of DecayError."""


class ConfigError(GroupoidLabError):
    """Configuration failed to parse or validate.

    ``violations`` lists every problem found, not just the first.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
