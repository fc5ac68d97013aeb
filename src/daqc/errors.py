"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: validation problems exit 2, internal
cross-check and solver failures exit 4.  Synthesis has no infeasible
outcome: the program over every pattern always has a solution, so an LP that
finds none is an internal failure.
"""


class DaqcError(Exception):
    """Base class for package-specific errors."""


class ValidationError(DaqcError, ValueError):
    """Input violates a documented precondition or format."""


class SimulabilityError(ValidationError):
    """A nonzero target coupling has no nonzero source coupling behind it."""


class LpSolverStallError(DaqcError):
    """Simplex exceeded its pivot budget without reaching a verdict."""


class InternalConsistencyError(DaqcError):
    """Two independent computations of the same quantity disagree."""
