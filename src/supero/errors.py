"""Exception vocabulary shared across the workbench.

Every failure mode that callers are expected to handle gets its own class so
the batch front end can map it to a stable exit code.
"""


class WorkbenchError(Exception):
    """Base class for all errors raised by supero."""


class InvalidAlgebraError(WorkbenchError):
    """Structure constants violate a superalgebra axiom; carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class GradingError(WorkbenchError):
    """Unknown grading kind, or grading data inconsistent with the bracket."""


class DominanceError(WorkbenchError):
    """A weight required to be dominant integral is not."""


class WindowError(WorkbenchError):
    """A weight window is malformed, or a monomial family is unbounded
    for want of a degree cutoff; lists the missing weights if known."""

    def __init__(self, message, missing=()):
        super().__init__(message)
        self.missing = list(missing)


class ResourceLimitError(WorkbenchError):
    """A configured dimension/iteration budget was exceeded."""


class TruncationError(WorkbenchError):
    """A truncated slice is used where the whole module is needed, or
    carries no degree cutoff to validate against."""


class CliffordWeightError(WorkbenchError):
    """No rational Clifford representation exists for the requested weight."""
