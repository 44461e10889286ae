"""Exception and warning types shared across the package, and the JSON number reader."""

import json
import numbers


class GroupoidLabError(Exception):
    """Base class for all package errors."""


class DomainError(GroupoidLabError):
    """An input outside a computation's domain: a point outside its coordinate box, or a bad t sweep.

    Chart maps are only defined on the boxes; the sweep rules are those of
    :mod:`groupoidlab.config`.
    """


class SamplingError(GroupoidLabError):
    """Rejection sampling could not find enough admissible composable triples."""


class ConvergenceError(GroupoidLabError):
    """An iteration (Newton, grid refinement) failed to converge."""


class SingularJacobianError(GroupoidLabError):
    """A Jacobian required by a solve or a density evaluation is numerically singular."""


class GridMismatchError(GroupoidLabError):
    """Two sampled symbols do not share the grid an operation requires."""


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


def json_number(value, requirement: str, integer: bool = False):
    """``value``, a JSON number (an int or a float: a bool or a string raises TypeError).

    ``requirement`` starts the message, e.g. "half_width must be a number".
    With ``integer`` an integral float reads as its int; any other raises ValueError.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{requirement}, not {json.dumps(value, default=repr)}")
    if integer and not isinstance(value, numbers.Integral):
        if not float(value).is_integer():
            raise ValueError(f"{requirement}: {value!r} is not an integer")
        return int(value)
    return value
