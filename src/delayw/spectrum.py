"""Characteristic spectrum of the scalar single-delay system.

The closed loop x'(t) = alpha*x(t) + beta*x(t-h) has characteristic
function f(s) = s - alpha - beta*e^{-s h}, whose roots are

    s_k = alpha + W_k(beta*h*e^{-alpha*h}) / h

one per Lambert W branch.  The principal branch gives the rightmost
root, so stability reduces to the sign of Re s_0.

``spectrum`` takes branches 0 and -1 from ``lambert_w`` and every
branch k >= 1 from the kernel's range entry, z being checked once per
call: the range entry forms Log z once, seeds each branch one
asymptotic term deep and mostly stops after one Halley step.  Each
branch k >= 1 also gives the conjugate root of its partner branch.
The records are sorted by descending real part, ties by ascending
imaginary part, in two stable passes, so exact ties keep the order in
which the branches were listed.
"""

import cmath
import math
from collections import namedtuple
from operator import attrgetter

from .errors import InvalidGain, NonFiniteInput, DomainError, _require_complex, _require_finite
from .lambertw import BRANCH_POINT_Z, K_MAX, _branches, _eval_complex, lambert_w

__all__ = [
    "SystemParams",
    "Gains",
    "ClosedLoopParams",
    "SpectrumRoot",
    "Spectrum",
    "close_loop",
    "char_residual",
    "spectrum",
    "is_stable",
]


class SystemParams(namedtuple("SystemParams", "a a1d b h input_delay")):
    """Open-loop plant x'(t) = a*x(t) + a1d*x(t-h) + b*u(t).

    With ``input_delay=True`` the plant is x'(t) = a*x(t) + b*u(t-h)
    instead; the delayed-state coefficient a1d must then be zero.
    """

    __slots__ = ()

    def __new__(cls, a, a1d, b, h, input_delay=False):
        a, a1d, b, h = _require_finite("a a1d b h", a, a1d, b, h)
        if h <= 0:
            raise DomainError(f"delay h must be positive, got {h}")
        if b == 0:
            raise DomainError("input gain b must be nonzero")
        if input_delay and a1d != 0:
            raise DomainError("an input-delay plant has no delayed-state term; a1d must be 0")
        return super().__new__(cls, a, a1d, b, h, input_delay)


class Gains(namedtuple("Gains", "k k1d")):
    """Feedback law u(t) = k*x(t) + k1d*x(t-h)."""

    __slots__ = ()

    def __new__(cls, k, k1d=0.0):
        k, k1d = _require_finite("k k1d", k, k1d)
        return super().__new__(cls, k, k1d)


class ClosedLoopParams(namedtuple("ClosedLoopParams", "alpha beta h")):
    """Closed loop x'(t) = alpha*x(t) + beta*x(t-h)."""

    __slots__ = ()

    def __new__(cls, alpha, beta, h):
        alpha, beta, h = _require_finite("alpha beta h", alpha, beta, h)
        if h <= 0:
            raise DomainError(f"delay h must be positive, got {h}")
        return super().__new__(cls, alpha, beta, h)

    @property
    def w_argument(self):
        """beta*h*e^{-alpha*h}, the argument handed to Lambert W.

        Raises NonFiniteInput when it lies past the double range, but
        not when only beta*h or e^{-alpha h} does.
        """
        try:
            z = self.beta * self.h * math.exp(-self.alpha * self.h)
        except OverflowError:
            z = math.nan
        if math.isfinite(z):
            return z
        # beta*h or e^{-alpha h} left the double range, yet z itself may
        # lie inside it (or underflow): form it from the logs
        lead = math.log(abs(self.beta)) + math.log(self.h) - self.alpha * self.h if self.beta else -math.inf
        try:
            z = math.copysign(math.exp(lead), self.beta)
        except OverflowError:
            z = math.inf
        if math.isinf(z):
            raise NonFiniteInput(
                f"W argument beta*h*e^(-alpha*h) overflows for alpha = {self.alpha!r}, "
                f"beta = {self.beta!r}, h = {self.h!r}"
            )
        return z


SpectrumRoot = namedtuple("SpectrumRoot", "branch s multiplicity", defaults=(1,))

_REAL, _IMAG = attrgetter("s.real"), attrgetter("s.imag")


class Spectrum(namedtuple("Spectrum", "roots rightmost", defaults=((), 0j))):
    """Branch-labelled characteristic roots, rightmost first."""

    __slots__ = ()


def close_loop(sys, gains):
    """Combine plant and feedback law into closed-loop coefficients.

    For the direct-input plant: alpha = a + b*k, beta = a1d + b*k1d.
    For the input-delay plant the gain acts on the delayed channel:
    alpha = a, beta = b*k, and k1d must be zero.
    """
    if sys.input_delay:
        if gains.k1d != 0:
            raise InvalidGain("input-delay systems admit only the current-state gain; k1d must be 0")
        return ClosedLoopParams(alpha=sys.a, beta=sys.b * gains.k, h=sys.h)
    return ClosedLoopParams(alpha=sys.a + sys.b * gains.k, beta=sys.a1d + sys.b * gains.k1d, h=sys.h)


def char_residual(cl, s):
    """Value of the characteristic function s - alpha - beta*e^{-s h}.

    Zero exactly at the characteristic roots.  Raises DomainError if s
    is not a number, NonFiniteInput if it is not finite or e^{-s h}
    overflows.
    """
    s = _require_complex("s", s)
    x = -s * cl.h
    try:
        e = cmath.exp(x)
    except OverflowError:
        e = complex(math.inf)
    if not cmath.isfinite(e):
        raise NonFiniteInput(f"e^(-s*h) overflows: exponent {x!r}")
    return s - cl.alpha - cl.beta * e


def _root(cl, w):
    return cl.alpha + w / cl.h


def _rightmost(cl):
    """Branch-0 root, the rightmost one."""
    if cl.beta == 0.0:
        # delay term vanishes; W_k(0) exists only for k = 0
        return complex(cl.alpha, 0.0)
    z = cl.w_argument
    # W_0(0) = 0, where z underflows
    return _root(cl, _eval_complex(0, complex(z), abs(z))[0] if z else 0j)


def spectrum(cl, n_branches):
    """Enumerate characteristic roots branch by branch.

    Parameters
    ----------
    cl : ClosedLoopParams
    n_branches : int
        Highest branch index to include, at most the W kernel's K_MAX;
        anything but a non-negative int (a bool included) raises
        DomainError.  The root set is kept closed under conjugation, so
        for negative real W arguments the partner of branch k is branch
        -k-1 and the listing extends to -(n+1).

    Returns
    -------
    Spectrum
        Roots sorted by descending real part (ties by ascending
        imaginary part).  ``Spectrum.rightmost`` is the branch-0 root,
        with Im >= 0; for an oscillatory loop ``roots[0]`` is its
        branch -1 conjugate, which sorts first.  For a W argument z in
        [-1/e, 0), branches 0 and -1 are reported once, as branch 0 with
        multiplicity 2, exactly when the kernel returns the same W for
        both, as it does where its compensated e*z + 1 is zero.  Next
        to the branch point they stay two simple roots, however close.

    Raises
    ------
    NonFiniteInput
        If the W argument beta*h*e^{-alpha h} overflows.
    DomainError
        If n_branches is invalid, or the W argument underflows to 0 with
        beta != 0: W_k(0) diverges for every k != 0.
    """
    if isinstance(n_branches, bool) or not isinstance(n_branches, int):
        raise DomainError(f"n_branches must be an integer, got {n_branches!r}")
    if n_branches < 0:
        raise DomainError(f"n_branches must be >= 0, got {n_branches}")
    if n_branches > K_MAX:
        raise DomainError(f"n_branches = {n_branches} exceeds K_MAX = {K_MAX}")
    if cl.beta == 0.0:
        s0 = _rightmost(cl)
        return Spectrum(roots=(SpectrumRoot(0, s0),), rightmost=s0)
    z = cl.w_argument
    if z == 0.0:
        raise DomainError(
            f"W argument beta*h*e^(-alpha*h) underflows to 0 for alpha = {cl.alpha!r}, "
            f"beta = {cl.beta!r}, h = {cl.h!r}; W_k(0) diverges for the branches k != 0"
        )
    w0 = lambert_w(0, z).w
    s0 = _root(cl, w0)
    roots = [SpectrumRoot(0, s0)]
    if z < BRANCH_POINT_Z:
        # on the cut: branch -1 is the conjugate partner of branch 0
        roots.append(SpectrumRoot(-1, s0.conjugate()))
    elif z < 0.0:
        # -1/e <= z < 0: branch -1 is the second real root.  The kernel
        # returns it equal to W_0 (both -1) only where its compensated
        # e*z + 1 is zero, and there the two are one double root
        w1 = lambert_w(-1, z).w
        if w1 == w0:
            roots[0] = SpectrumRoot(0, s0, 2)
        else:
            roots.append(SpectrumRoot(-1, _root(cl, w1)))
    # for z < 0 branch k pairs with branch -k-1, for z > 0 with -k.  z is
    # checked once here, so branches k >= 1 skip lambert_w's checks and
    # residual.  Each root is alpha + w/h as in _root; each record is
    # built as SpectrumRoot._make builds it
    zc, az = complex(z), abs(z)
    alpha, h = cl.alpha, cl.h
    shift = 0 if z > 0.0 else 1
    record, append = tuple.__new__, roots.append
    for k, (w, _, _) in enumerate(_branches(zc, az, range(1, n_branches + 1)), 1):
        sk = alpha + w / h
        append(record(SpectrumRoot, (k, sk, 1)))
        append(record(SpectrumRoot, (-k - shift, sk.conjugate(), 1)))
    # descending Re s, ties by ascending Im s: two stable sorts, the
    # secondary key first
    roots.sort(key=_IMAG)
    roots.sort(key=_REAL, reverse=True)
    return Spectrum(roots=tuple(roots), rightmost=s0)


def is_stable(cl):
    """Stability verdict from the rightmost root.

    Reads the same branch-0 root that ``spectrum`` reports.

    Returns
    -------
    (stable, margin) : (bool, float)
        margin is Re s_0; the loop is exponentially stable iff it is
        negative.
    """
    margin = _rightmost(cl).real
    return margin < 0.0, margin
