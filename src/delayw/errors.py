"""Exception types shared across the delayw package."""


class DelayWError(Exception):
    """Base class for all delayw-specific errors."""


class NonFiniteInput(DelayWError, ValueError):
    """An input that must be finite is NaN or infinite."""


class BranchOutOfRange(DelayWError, ValueError):
    """Requested Lambert W branch index exceeds the kernel bound K_MAX."""


class NoConvergence(DelayWError, RuntimeError):
    """Iteration cap hit without meeting the convergence criteria."""


class DomainError(DelayWError, ValueError):
    """Argument lies outside the mathematical domain of the operation."""


class InvalidGain(DelayWError, ValueError):
    """Gain pair is incompatible with the system structure."""


class NotAssignableAsRightmost(DelayWError):
    """The target can be made an eigenvalue, but not the rightmost one.

    Carries the would-be design so callers can inspect the spectrum that
    proves a root lies to the right of the target.
    """

    def __init__(self, message, gains=None, closed_loop=None, window=None):
        super().__init__(message)
        self.gains = gains
        self.closed_loop = closed_loop
        self.window = window


class ConditionViolated(DelayWError):
    """An existence condition for the requested design mode fails.

    ``residual`` holds the violated equality's residual, or the margin of
    the violated inequality.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class AlphaOutOfRange(DelayWError, ValueError):
    """Chosen decay parameter exceeds the admissible bound for the target."""

    def __init__(self, message, margin=None):
        super().__init__(message)
        self.margin = margin


class BoundaryRootSuspected(DelayWError, RuntimeError):
    """A root appears to sit on the search rectangle boundary after retries."""


class MismatchDetected(DelayWError, RuntimeError):
    """The two independent root-finding paths disagree."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class InvalidStep(DelayWError, ValueError):
    """Simulation step size is unusable."""


class InsufficientData(DelayWError, ValueError):
    """Trajectory tail too short to estimate the dominant eigenvalue."""
