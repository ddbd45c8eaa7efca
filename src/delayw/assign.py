"""Feedback design placing the rightmost eigenvalue at a chosen point.

For the closed loop x'(t) = alpha*x(t) + beta*x(t-h), a complex target
S = u + iv (v > 0) is the branch-0 root exactly when (S - alpha)*h lies
on the curve {-eta*cot(eta) + i*eta : 0 < eta < pi}, which pins

    alpha = u + v*cot(v h),      beta = -v*e^{u h} / sin(v h).

Each design mode solves for the gains its free parameters allow and
certifies the algebraic condition the remaining parameters must already
satisfy.  All gain arithmetic is carried out in real form; the target
is normalized to v >= 0 first, so conjugate targets give identical
results.  Targets with v*h outside (0, pi) still become eigenvalues but
of a higher branch, never the rightmost one.
"""

import enum
import math
import sys

from .errors import (
    AlphaOutOfRange,
    ConditionViolated,
    DelayWError,
    DomainError,
    NonFiniteInput,
    NotAssignableAsRightmost,
    _Record,
    _require_complex,
    _require_finite,
    _require_tolerance,
)
from .lambertw import on_w0_boundary
# no mode calls spectrum; the benchmark's tracer rebinds assign.spectrum
from .spectrum import ClosedLoopParams, Gains, spectrum

__all__ = [
    "Target",
    "AssignmentMode",
    "AssignmentResult",
    "ModeCheck",
    "FeasibilityReport",
    "as_target",
    "assign_both",
    "assign_delay_only",
    "assign_current_only",
    "assign_real_both",
    "assign_input_delay",
    "feasibility_report",
]

# relative tolerance for algebraic feasibility conditions; every cond_tol
# that is not a finite non-negative int or float raises DomainError
COND_TOL_DEFAULT = 1e-9


class Target(_Record, fields="S u v"):
    """Desired rightmost eigenvalue, normalized to Im S >= 0."""

    __slots__ = ()

    def __new__(cls, S, u, v):
        return tuple.__new__(cls, (S, u, v))


def as_target(S):
    """Normalize a number (or Target) into a Target with v >= 0."""
    if isinstance(S, Target):
        return S
    S = _require_complex("target", S)
    u = S.real
    v = abs(S.imag)
    return Target(S=complex(u, v), u=u, v=v)


class AssignmentMode(enum.Enum):
    BOTH_GAINS = "both_gains"
    DELAY_ONLY = "delay_only"
    CURRENT_ONLY = "current_only"
    REAL_BOTH = "real_both"
    INPUT_DELAY = "input_delay"


class AssignmentResult(_Record, fields="mode gains closed_loop predicted_rightmost feasible certificate"):
    """Outcome of one design mode.

    closed_loop holds the designed coefficients (alpha, beta) directly;
    re-deriving them from the plant and gains (a1d + b*k1d) can erase
    beta through cancellation whenever |beta| << |a1d|, so the two agree
    only to absolute rounding in the gain representation.
    """

    __slots__ = ()

    def __new__(cls, mode, gains, closed_loop, predicted_rightmost, feasible, certificate):
        return tuple.__new__(cls, (mode, gains, closed_loop, predicted_rightmost, feasible, certificate))


def _applicable(fn, sys, S):
    """The normalized target, once fn's mode applies to the plant form and
    the target kind; DomainError naming fn otherwise.

    feasibility_report lists that DomainError's message as the detail of
    a mode that does not apply.
    """
    if fn is assign_input_delay:
        if not sys.input_delay:
            raise DomainError(f"{fn.__name__} applies to input-delay plants only")
    elif sys.input_delay:
        raise DomainError(
            f"{fn.__name__} applies to delayed-state plants; use assign_input_delay for input-delay plants"
        )
    t = as_target(S)
    if fn is assign_both and t.v == 0.0:
        raise DomainError(f"{fn.__name__} needs a complex target; for a real target use assign_real_both")
    if fn is assign_real_both and t.v != 0.0:
        raise DomainError(f"{fn.__name__} needs a real target; for a complex target use assign_both")
    return t


def _exp(x, name, factor=0.0):
    """e^x, or NonFiniteInput naming the quantity when it overflows.

    Given the factor that e^x scales into a delayed coefficient, also
    raises DomainError when e^x falls below the normal double range
    while that factor is not zero: the coefficient would keep few bits
    of the design, or none, and the loop would miss its target.
    """
    try:
        e = math.exp(x)
    except OverflowError:
        raise NonFiniteInput(f"{name} overflows: exponent {x!r}") from None
    if e < sys.float_info.min and factor:
        raise DomainError(f"{name} underflows: exponent {x!r}; the delayed coefficient would miss the target")
    return e


def _window(t, h):
    """v*h and the signed distance by which it leaves the branch-0 window
    (0, pi), None inside it."""
    vh = t.v * h
    if math.isinf(vh):
        raise NonFiniteInput(f"v*h overflows for v = {t.v!r}, h = {h!r}")
    if vh <= 0.0:
        return vh, vh
    if vh >= math.pi:
        return vh, vh - math.pi
    return vh, None


def _in_window(fn, t, h):
    """v*h with its sine and cosine, for the single-gain mode of fn.

    Outside the window fn cannot make S the rightmost root; the raised
    ConditionViolated carries the signed distance to the window.
    """
    vh, viol = _window(t, h)
    if viol is not None:
        raise ConditionViolated(
            f"v*h = {vh:.9g} outside (0, pi); {fn.__name__} cannot make S the rightmost root",
            residual=viol,
        )
    return vh, math.sin(vh), math.cos(vh)


def _condition(text, r, scale, cond_tol, vh):
    """Certificate that the equality text holds: its residual r vanishes
    to cond_tol relative to scale; ConditionViolated otherwise."""
    if abs(r) > cond_tol * scale:
        raise ConditionViolated(
            f"{text} fails: residual {r:.6g} exceeds tol {cond_tol:g} (relative)",
            residual=r,
        )
    return f"{text} holds (residual {r:.3e}); window 0 < v*h < pi holds (v*h = {vh:.9g})"


def assign_both(sys, S):
    """Place a complex target using both feedback gains.

    alpha and beta are fully determined by the target, so the only
    obstacle is the window 0 < v*h < pi.  Outside it the same gains
    still make S an eigenvalue, just not the rightmost one; the raised
    NotAssignableAsRightmost carries those would-be gains.
    """
    t = _applicable(assign_both, sys, S)
    h = sys.h
    vh, viol = _window(t, h)
    sv = math.sin(vh)
    cv = math.cos(vh)
    if sv == 0.0:
        raise NotAssignableAsRightmost(
            f"v*h = {vh:.9g} is a multiple of pi; the gain formulas are singular there",
            window=(0.0, math.pi / h),
        )
    alpha = t.u + t.v * cv / sv
    beta = -t.v * _exp(t.u * h, "e^(u*h)", t.v) / sv
    gains = Gains(k=(alpha - sys.a) / sys.b, k1d=(beta - sys.a1d) / sys.b)
    # carry the designed coefficients, not close_loop(sys, gains): the
    # gain round trip a1d + b*k1d loses beta to cancellation once
    # |beta| << |a1d| (deep-left targets make beta ~ e^{u h})
    cl = ClosedLoopParams(alpha, beta, h)
    if viol is not None:
        raise NotAssignableAsRightmost(
            f"v*h = {vh:.9g} outside (0, pi): S would be an eigenvalue of a higher branch, "
            f"so a root with larger real part exists",
            gains=gains,
            closed_loop=cl,
            window=(0.0, math.pi / h),
        )
    on_boundary = on_w0_boundary(complex((t.u - alpha) * h, vh), 1e-9)
    cert = f"window 0 < v*h < pi holds (v*h = {vh:.9g}); (S - alpha)*h on branch-0 boundary: {on_boundary}"
    return AssignmentResult(AssignmentMode.BOTH_GAINS, gains, cl, t.S, True, cert)


def _delay_only_value(fn, sys, S, cond_tol):
    """Normalized target, real value of (S - a)*e^{S h} and certificate,
    with the preconditions of fn's mode checked."""
    _require_tolerance("cond_tol", cond_tol)
    t = _applicable(fn, sys, S)
    a, h = sys.a, sys.h
    if t.v == 0.0:
        margin = t.u - (a - 1.0 / h)
        if margin < 0.0:
            raise ConditionViolated(
                f"real target must satisfy S >= a - 1/h = {a - 1.0 / h:.9g}; margin {margin:.6g}",
                residual=margin,
            )
        cert = f"S >= a - 1/h holds with margin {margin:.6g}"
        if margin == 0.0:
            cert += "; marginal: double rightmost root"
        return t, (t.u - a) * _exp(t.u * h, "e^(u*h)", t.u - a), cert
    vh, sv, cv = _in_window(fn, t, h)
    cot_term = t.v * cv / sv
    cert = _condition("a = u + v*cot(v*h)", a - t.u - cot_term,
                      max(t.v, abs(a), abs(t.u), abs(cot_term)), cond_tol, vh)
    value = (t.u - a) * cv - t.v * sv
    return t, _exp(t.u * h, "e^(u*h)", value) * value, cert


def assign_delay_only(sys, S, cond_tol=COND_TOL_DEFAULT):
    """Place the target with the delayed-state gain alone (k = 0).

    alpha stays at the plant's a, so a complex target must already
    satisfy a = u + v*cot(v h), to cond_tol relative to the largest of
    v, |a|, |u| and |v*cot(v h)|: relative to 1 instead, a tiny target
    would pass at any a; a real target needs S >= a - 1/h.
    """
    t, value, cert = _delay_only_value(assign_delay_only, sys, S, cond_tol)
    gains = Gains(k=0.0, k1d=(value - sys.a1d) / sys.b)
    cl = ClosedLoopParams(sys.a, value, sys.h)
    return AssignmentResult(AssignmentMode.DELAY_ONLY, gains, cl, t.S, True, cert)


def assign_current_only(sys, S, cond_tol=COND_TOL_DEFAULT):
    """Place the target with the current-state gain alone (k1d = 0).

    beta stays at the plant's a1d.  A complex target needs
    a1d + v*e^{u h}*csc(v h) = 0.  A real target always becomes an
    eigenvalue, but it is the rightmost one only when the implied
    (S - alpha)*h >= -1 (Hayes 1950); the feasible flag reports that
    rule instead of an exception, and the certificate prints its value.
    """
    _require_tolerance("cond_tol", cond_tol)
    t = _applicable(assign_current_only, sys, S)
    a, a1d, h = sys.a, sys.a1d, sys.h
    if t.v == 0.0:
        shift = a1d * _exp(-t.u * h, "e^(-u*h)")
    else:
        vh, sv, cv = _in_window(assign_current_only, t, h)
        csc_term = t.v * _exp(t.u * h, "e^(u*h)", t.v) / sv
        cert = _condition("a1d + v*e^(u*h)*csc(v*h) = 0", a1d + csc_term,
                          max(abs(a1d), abs(csc_term)), cond_tol, vh)
        shift = a1d * _exp(-t.u * h, "e^(-u*h)") * cv
    # k from S - a directly: (alpha - a)/b would add alpha's rounding
    gains = Gains(k=(t.u - a - shift) / sys.b, k1d=0.0)
    cl = ClosedLoopParams(t.u - shift, a1d, h)
    if t.v != 0.0:
        return AssignmentResult(AssignmentMode.CURRENT_ONLY, gains, cl, t.S, True, cert)
    x = a1d * h * math.exp(-t.u * h)  # (S - alpha)*h at the designed gain
    value = f"{x:.9g}"
    if math.isinf(x):  # the rule in logs: the sign of a1d, e^(log|a1d| + log h - u*h)
        value = f"{'-' if x < 0.0 else '+'}e^{math.log(abs(a1d)) + math.log(h) - t.u * h:.9g}"
    cert = f"S is an eigenvalue by construction; (S - alpha)*h = {value} ({'>=' if x >= -1.0 else '<'} -1)"
    return AssignmentResult(AssignmentMode.CURRENT_ONLY, gains, cl, t.S, x >= -1.0, cert)


def assign_real_both(sys, S, alpha_choice=None):
    """Place a real target using both gains, one degree of freedom free.

    Any alpha <= S + 1/h works; beta = (S - alpha)*e^{S h} then puts
    the branch-0 root at S.  The default alpha = S gives beta = 0, a
    delay-free closed loop.  An alpha_choice that is not a real number
    (a bool included) raises DomainError, one that is not finite
    NonFiniteInput.
    """
    t = _applicable(assign_real_both, sys, S)
    h = sys.h
    alpha = t.u
    if alpha_choice is not None:
        alpha, = _require_finite("alpha_choice", alpha_choice)
    bound = t.u + 1.0 / h
    if alpha > bound:
        raise AlphaOutOfRange(
            f"alpha = {alpha:.9g} exceeds S + 1/h = {bound:.9g}; the branch-0 root would lie right of S",
            margin=bound - alpha,
        )
    beta = (t.u - alpha) * _exp(t.u * h, "e^(u*h)", t.u - alpha)
    gains = Gains(k=(alpha - sys.a) / sys.b, k1d=(beta - sys.a1d) / sys.b)
    cl = ClosedLoopParams(alpha, beta, sys.h)
    cert = f"alpha = {alpha:.9g} <= S + 1/h = {bound:.9g}"
    if alpha == bound:
        cert += "; marginal: double rightmost root"
    return AssignmentResult(AssignmentMode.REAL_BOTH, gains, cl, t.S, True, cert)


def assign_input_delay(sys, S, cond_tol=COND_TOL_DEFAULT):
    """Place the target for a plant driven through a delayed input.

    The loop gives alpha = a, beta = b*k, so the feasibility conditions
    match the delay-only mode and k = (S - a)*e^{S h}/b.
    """
    t, value, cert = _delay_only_value(assign_input_delay, sys, S, cond_tol)
    gains = Gains(k=value / sys.b, k1d=0.0)
    cl = ClosedLoopParams(sys.a, value, sys.h)
    return AssignmentResult(AssignmentMode.INPUT_DELAY, gains, cl, t.S, True, cert)


class ModeCheck(_Record, fields="mode applicable feasible detail residual alpha_interval"):
    """One design mode's line in a FeasibilityReport."""

    __slots__ = ()

    def __new__(cls, mode, applicable, feasible, detail, residual=None, alpha_interval=None):
        return tuple.__new__(cls, (mode, applicable, feasible, detail, residual, alpha_interval))


class FeasibilityReport(_Record, fields="target checks"):
    """Every design mode's ModeCheck against one target."""

    __slots__ = ()

    def __new__(cls, target, checks):
        return tuple.__new__(cls, (target, checks))

    def feasible_modes(self):
        return tuple(c.mode for c in self.checks if c.applicable and c.feasible)


# every design mode with its function, in AssignmentMode order; the
# function name gives the error text and the CLI's --mode name
_MODES = (
    (AssignmentMode.BOTH_GAINS, assign_both),
    (AssignmentMode.DELAY_ONLY, assign_delay_only),
    (AssignmentMode.CURRENT_ONLY, assign_current_only),
    (AssignmentMode.REAL_BOTH, assign_real_both),
    (AssignmentMode.INPUT_DELAY, assign_input_delay),
)


def feasibility_report(sys, S, cond_tol=COND_TOL_DEFAULT):
    """Check every design mode against one target.

    The checks come in AssignmentMode order.  A mode that does not apply
    to the plant form or target kind is listed with applicable=False,
    its detail the DomainError message its assign function raises.  The
    rest carry the certificate, or the message and condition residual of
    any DelayWError, of their assign function: a design whose closed
    form leaves the double range is listed infeasible, not raised.
    real_both instead reports the whole admissible alpha interval.  A
    cond_tol that is not a finite non-negative number raises DomainError.
    """
    _require_tolerance("cond_tol", cond_tol)
    t = as_target(S)
    checks = []
    for mode, fn in _MODES:
        try:
            _applicable(fn, sys, t)
        except DomainError as exc:
            checks.append(ModeCheck(mode, False, False, str(exc)))
            continue
        if fn is assign_real_both:
            bound = t.u + 1.0 / sys.h
            checks.append(ModeCheck(mode, True, True, f"feasible for any alpha <= S + 1/h = {bound:.9g}",
                                    alpha_interval=(-math.inf, bound)))
            continue
        try:
            res = fn(sys, t) if fn is assign_both else fn(sys, t, cond_tol)
            checks.append(ModeCheck(mode, True, res.feasible, res.certificate))
        except DelayWError as exc:
            checks.append(ModeCheck(mode, True, False, str(exc), getattr(exc, "residual", None)))
    return FeasibilityReport(target=t.S, checks=tuple(checks))
