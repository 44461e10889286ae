"""Exception and warning types shared across the package."""


class GroupoidLabError(Exception):
    """Base class for all package errors."""


class DomainError(GroupoidLabError):
    """A point left its coordinate box; chart maps are only defined on the boxes."""


class SamplingError(GroupoidLabError):
    """Rejection sampling could not find enough admissible composable triples."""


class ConvergenceError(GroupoidLabError):
    """An iteration (Newton, grid refinement) failed to converge."""


class SingularJacobianError(GroupoidLabError):
    """A Jacobian required by a solve or a density evaluation is numerically singular."""


class GridMismatchError(GroupoidLabError):
    """Two sampled symbols do not share the grid an operation requires."""


class MissingDataError(GroupoidLabError):
    """Tabulated algebroid data does not cover the base nodes of the grid in use."""


class DecayWarning(GroupoidLabError, UserWarning):
    """A symbol or a transform does not decay below threshold at the edge of its grid.

    Library code only warns.  Strict runs promote the warning to an error
    with ``warnings.simplefilter("error", DecayWarning)``; the raised warning
    is then a GroupoidLabError like any other computation failure.
    """


class ConfigError(GroupoidLabError):
    """Configuration failed to parse or validate.

    ``violations`` lists every problem found, not just the first.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
