"""Exception types shared across the delayw package, and the input
checks that raise them."""

import math
from collections import _tuplegetter  # the C field descriptor of a named tuple

# the largest finite double
_DBL_MAX = 1.7976931348623157e308


class _Record(tuple):
    """Base of every public record: an immutable tuple with a named tuple's
    field API (_fields, _field_defaults, _make, _replace, _asdict, its
    repr and pickling), built without collections' per-class eval.

    A record names its fields in the class statement, ``class
    R(_Record, fields="a b"):``, sets ``__slots__ = ()`` and defines
    ``__new__(cls, a, b)``; _field_defaults are that __new__'s defaults.
    As a named tuple's, _make and _replace skip __new__ and its checks.
    """

    __slots__ = ()

    def __init_subclass__(cls, fields, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__match_args__ = names = tuple(fields.split())
        defaults = cls.__new__.__defaults__ or ()
        cls._field_defaults = dict(zip(names[len(names) - len(defaults):], defaults))
        for i, name in enumerate(names):
            setattr(cls, name, _tuplegetter(i, f"Alias for field number {i}"))

    @classmethod
    def _make(cls, iterable):
        result = tuple.__new__(cls, iterable)
        if len(result) != len(cls._fields):
            raise TypeError(f"Expected {len(cls._fields)} arguments, got {len(result)}")
        return result

    def _replace(self, /, **kwds):
        result = self._make(map(kwds.pop, self._fields, self))
        if kwds:
            raise ValueError(f"Got unexpected field names: {list(kwds)!r}")
        return result

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{n}={v!r}' for n, v in zip(self._fields, self))})"

    def _asdict(self):
        return dict(zip(self._fields, self))

    def __getnewargs__(self):
        return tuple(self)


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


def _real_fault(v):
    """None for a finite real number, else the error class and the word
    for its message: DomainError, "a real number" for what is not one (a
    bool included: it would pass as 0 or 1), NonFiniteInput, "finite"
    for NaN, an infinity or an int past the double range."""
    try:
        if math.isfinite(v) and type(v) is not bool:
            return None
        real = type(v) is not bool
    except TypeError:  # raised for anything but a real number
        real = False
    except (OverflowError, ValueError):  # an int past the double range, a signaling NaN
        real = True
    return (NonFiniteInput, "finite") if real else (DomainError, "a real number")


def _require_finite(names, *values):
    """The values, each a finite real number, as a tuple that works in
    float arithmetic: an int or a float as given, any other (a Decimal, a
    Fraction, a numpy scalar) as float(v).  Raises _real_fault's error for
    the first that is not; names, space-separated, label the values."""
    admitted = values
    for v in values:
        if type(v) is float and math.isfinite(v):
            continue
        if fault := _real_fault(v):
            # an earlier value that is v itself would have failed first
            name = next(n for n, x in zip(names.split(), values) if x is v)
            raise fault[0](f"{name} must be {fault[1]}, got {v!r}")
        if type(v) is not int:
            admitted = None
    return admitted or tuple(v if type(v) is float or type(v) is int else float(v) for v in values)


def _require_complex(name, z):
    """complex(z), numeric strings included; DomainError for what
    complex() rejects and for a bool, NonFiniteInput for NaN, an infinity
    or an int past the double range."""
    if z is True or z is False:  # complex() would read it as 1 or 0
        raise DomainError(f"{name} must be a number, got {z!r}")
    try:
        z = complex(z)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a number, got {z!r}") from None
    except OverflowError:  # an int past the double range
        raise NonFiniteInput(f"{name} must be finite, got {z!r}") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise NonFiniteInput(f"{name} must be finite, got {z!r}")
    return z


def _require_tolerance(name, tol):
    """Raise DomainError unless tol is an int or float, not a bool, and
    neither NaN, negative nor past the double range: NaN would switch a
    check off, a negative value fail every one."""
    if isinstance(tol, bool) or not isinstance(tol, (int, float)):
        raise DomainError(f"{name} must be a real number, got {tol!r}")
    if not 0.0 <= tol <= _DBL_MAX:
        raise DomainError(f"{name} must be finite and non-negative, got {tol!r}")
