"""Characteristic spectrum of the scalar single-delay system.

The closed loop x'(t) = alpha*x(t) + beta*x(t-h) has characteristic
function f(s) = s - alpha - beta*e^{-s h}, whose roots are

    s_k = alpha + W_k(beta*h*e^{-alpha*h}) / h

one per Lambert W branch.  The principal branch gives the rightmost
root, so stability reduces to the sign of Re s_0.

``spectrum`` takes branches 0 and -1 from ``lambert_w`` and every
branch k >= 1, with the conjugate root of its partner, from the
kernel's range entry: it forms Log z once (``_w_arg``'s off the normal
range of z), seeds one asymptotic term deep and mostly stops after one
Halley step; the kernel hands back bare W values.  The roots come by
descending real part, ties by ascending imaginary part.  For a real z
the branch bands of W give that order by construction: Re s_k falls and
Im s_k > 0 grows with k, so each pair k >= 1, conjugate first, follows
the at most two roots of branches 0 and -1, and one compare orders
those two.  Where a check of each root finds otherwise, as where every
root has the same real part, all records are sorted in two stable
passes, so exact ties keep the order in which the branches were listed.

All records go into one list, which becomes the result's tuple.  Below
_RECORD_PASS branches the branch loop builds each record as it forms
the root; from there on the loop forms the values alone and one C pass
(map over zip) labels them and builds every record.  That pass saves
bytecode per branch but costs a fixed set-up that a few branches do
not repay, so small spectra, such as the n = 3 of a design check, keep
the loop.
"""

import cmath
import math
import sys
from itertools import repeat
from operator import attrgetter

from .errors import InvalidGain, NonFiniteInput, DomainError, _Record, _require_complex, _require_finite
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


class SystemParams(_Record, fields="a a1d b h input_delay"):
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
        return tuple.__new__(cls, (a, a1d, b, h, input_delay))


class Gains(_Record, fields="k k1d"):
    """Feedback law u(t) = k*x(t) + k1d*x(t-h)."""

    __slots__ = ()

    def __new__(cls, k, k1d=0.0):
        k, k1d = _require_finite("k k1d", k, k1d)
        return tuple.__new__(cls, (k, k1d))


class ClosedLoopParams(_Record, fields="alpha beta h"):
    """Closed loop x'(t) = alpha*x(t) + beta*x(t-h)."""

    __slots__ = ()

    def __new__(cls, alpha, beta, h):
        alpha, beta, h = _require_finite("alpha beta h", alpha, beta, h)
        if h <= 0:
            raise DomainError(f"delay h must be positive, got {h}")
        return tuple.__new__(cls, (alpha, beta, h))

    @property
    def w_argument(self):
        """beta*h*e^{-alpha*h}, the argument handed to Lambert W, from _w_arg.

        Raises NonFiniteInput when it lies past the double range, but
        not when only beta*h or e^{-alpha h} does.
        """
        z = _w_arg(self)[0]
        if math.isinf(z):
            raise NonFiniteInput(f"W argument beta*h*e^(-alpha*h) overflows for alpha = {self.alpha!r}, "
                                 f"beta = {self.beta!r}, h = {self.h!r}")
        return z


# the least normal double, and the range of x where e^x is a normal double
_DBL_MIN, _LOG_MIN, _LOG_MAX = sys.float_info.min, math.log(sys.float_info.min), math.log(sys.float_info.max)


def _w_arg(cl):
    """(z, Log z) for z = beta*h*e^{-alpha h}: Log z is None where beta*h,
    e^{-alpha h} and z are normal doubles.  Elsewhere it is log|beta| +
    log h - alpha*h (+ i*pi for beta < 0), infinite where alpha*h overflows
    or beta = 0, and z is its exp, which may be subnormal, +-0 or inf."""
    alpha, beta, h = cl
    ah, bh = alpha * h, beta * h
    z = bh * math.exp(-ah) if _LOG_MIN <= -ah <= _LOG_MAX and abs(bh) >= _DBL_MIN else 0.0
    if _DBL_MIN <= abs(z) < math.inf:
        return z, None
    lead = math.log(abs(beta)) + math.log(h) - ah if beta else -math.inf
    z = math.copysign(math.exp(lead) if lead <= _LOG_MAX else math.inf, beta)
    return z, complex(lead, math.pi if beta < 0.0 else 0.0)


class SpectrumRoot(_Record, fields="branch s multiplicity"):
    """One characteristic root, labelled by its Lambert W branch."""

    __slots__ = ()

    def __new__(cls, branch, s, multiplicity=1):
        return tuple.__new__(cls, (branch, s, multiplicity))


_REAL, _IMAG = attrgetter("s.real"), attrgetter("s.imag")

# branches from which spectrum builds its records in one C pass after its
# branch loop instead of in it: the pass costs about 1.3 us to set up and
# saves about 0.075 us per branch, so the two break even near 19 branches
_RECORD_PASS = 20


class Spectrum(_Record, fields="roots rightmost"):
    """Branch-labelled characteristic roots, rightmost first."""

    __slots__ = ()

    def __new__(cls, roots=(), rightmost=0j):
        return tuple.__new__(cls, (roots, rightmost))


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
    overflows, in modulus or in its phase Im(s)*h.
    """
    s = _require_complex("s", s)
    x = -s * cl.h
    try:
        e = cmath.exp(x)
    except (OverflowError, ValueError):  # ValueError: Im(s)*h overflows
        e = complex(math.inf)
    if not cmath.isfinite(e):
        raise NonFiniteInput(f"e^(-s*h) overflows: exponent {x!r}")
    return s - cl.alpha - cl.beta * e


def _root(cl, w, lz=None):
    """alpha + w/h.  Given _w_arg's Log z and |w| > 1, the same root as
    (log|beta h| + i*Im Log z + 2*pi*i*m - Log w)/h, w + Log w = Log z +
    2*pi*i*m: no alpha cancels against w/h, and Log w keeps a few ulps."""
    if lz is None or abs(w) <= 1.0:
        return cl.alpha + w / cl.h
    lw = cmath.log(w)
    m = round((w.imag + lw.imag - lz.imag) / math.tau)
    return complex(math.log(abs(cl.beta)) + math.log(cl.h) - lw.real, lz.imag + math.tau * m - lw.imag) / cl.h


def _rightmost(cl):
    """Branch-0 root, the rightmost one: alpha where z is +-0 (W_0 = 0), and
    (log|beta| - log(-alpha) + i*Im Log z)/h where alpha*h overflows to
    -inf, as W_0 is then Log z to double precision."""
    z, lz = _w_arg(cl)
    if lz is not None and lz.real == math.inf:
        return complex(math.log(abs(cl.beta)) - math.log(-cl.alpha), lz.imag) / cl.h
    return _root(cl, _eval_complex(0, complex(z), abs(z), lz)[0], lz)


def spectrum(cl, n_branches):
    """Enumerate characteristic roots branch by branch.

    Parameters
    ----------
    cl : ClosedLoopParams
    n_branches : int
        Highest branch index to include, at most the W kernel's K_MAX;
        anything but a non-negative int (a bool included) raises
        DomainError.  The root set is kept closed under conjugation, so
        for beta < 0 (a negative W argument) the partner of branch k is
        branch -k-1 and the listing extends to -(n+1).

    Returns
    -------
    Spectrum
        Roots by descending real part, ties by ascending imaginary
        part.  They come in that order by construction, branches 0 and
        -1 and then each pair k >= 1 conjugate first, and are sorted
        only where a root breaks it (Re s_k not strictly below the root
        before, or Im s_k <= 0), as where every root has one real part.
        ``Spectrum.rightmost`` is the branch-0 root, with Im >= 0; for
        an oscillatory loop ``roots[0]`` is its branch -1 conjugate,
        which sorts first.  For a W argument z in
        [-1/e, 0), branches 0 and -1 are reported once, as branch 0 with
        multiplicity 2, exactly when the kernel returns the same W for
        both, as it does where its compensated e*z + 1 is zero.  Next
        to the branch point they stay two simple roots, however close.

    Raises
    ------
    DomainError
        If n_branches is invalid, alpha*h overflows (Log z is not
        finite; the roots are, but spectrum refuses to form them), or a
        root passes the double range, as where |W_k|/h overflows for a
        tiny h.
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
    z, lz = _w_arg(cl)
    if lz is not None and math.isinf(lz.real):
        # the roots are finite (at (-1e308, 1, 10) -70.9196209 +
        # 2*pi*i*k/10), but Log z is not
        raise DomainError(f"alpha*h overflows for alpha = {cl.alpha!r}, h = {cl.h!r}; Log z is not finite")
    # each record is tuple.__new__'s, as in SpectrumRoot.__new__ but
    # without its Python frame
    record = tuple.__new__
    zc, az = complex(z), abs(z)
    # branches 0 and -1 pay lambert_w's residual exp: bench/worker.py's Tracer counts W by that name
    w0 = lambert_w(0, z).w if lz is None else _eval_complex(0, zc, az, lz)[0]
    s0 = _root(cl, w0, lz)
    roots = [record(SpectrumRoot, (0, s0, 1))]
    last, s1 = s0.real, None
    if z < BRANCH_POINT_Z:
        # on the cut: branch -1 is the conjugate partner of branch 0
        s1 = s0.conjugate()
    elif cl.beta < 0.0:
        # -1/e <= z <= -0.0: branch -1 is the second real root, equal to W_0
        # (both -1, one double root) only where the kernel's e*z + 1 is zero
        w1 = lambert_w(-1, z).w if lz is None else _eval_complex(-1, zc, az, lz)[0]
        if w1 == w0:
            roots[0] = record(SpectrumRoot, (0, s0, 2))
        else:
            s1 = _root(cl, w1, lz)
    if s1 is not None:
        roots.append(record(SpectrumRoot, (-1, s1, 1)))
        last = min(last, s1.real)
    nh = len(roots)
    # for beta < 0 branch k pairs with branch -k-1, for beta > 0 with -k,
    # listed conjugate first.  z is checked once here, so branches k >= 1
    # skip lambert_w's checks and residual; each root is _root's.  The
    # branches follow the head in order where Re s_k falls strictly, from
    # below the head's, and Im s_k > 0, as the branch bands of W make it
    # for a real z
    alpha, h, n = cl.alpha, cl.h, n_branches
    shift = 0 if cl.beta > 0.0 else 1
    ws, ordered = _branches(zc, az, range(1, n + 1), lz)[0], True
    if n < _RECORD_PASS:
        append = roots.append
        for k, w in enumerate(ws, 1):
            sk = alpha + w / h if lz is None else _root(cl, w, lz)
            re = sk.real
            if not (re < last and sk.imag > 0.0):
                ordered = False
            last = re
            append(record(SpectrumRoot, (-k - shift, sk.conjugate(), 1)))
            append(record(SpectrumRoot, (k, sk, 1)))
    else:
        # the loop forms the values alone; one C pass labels them and
        # builds every record
        vals = []
        append = vals.append
        for w in ws:
            sk = alpha + w / h if lz is None else _root(cl, w, lz)
            re = sk.real
            if not (re < last and sk.imag > 0.0):
                ordered = False
            last = re
            append(sk.conjugate())
            append(sk)
        labels = [0] * (2 * n)
        labels[::2], labels[1::2] = range(-1 - shift, -n - 1 - shift, -1), range(1, n + 1)
        roots += map(record, repeat(SpectrumRoot), zip(labels, vals, repeat(1)))
    # Re s_k falls and |Im s_k| grows with k: branch 0, branch -1 (or,
    # with a one-record head, branch 1 at roots[2]) and branch -n - shift
    # at roots[-2] bound the rest
    for r in (roots[0], roots[3 - nh], roots[-2]) if len(roots) > 1 else roots:
        if not cmath.isfinite(r.s):
            raise DomainError(f"the root of branch {r.branch} passes the double range: {r.s}")
    if ordered:
        # descending Re s, ties by ascending Im s: only the head's two
        # records can be out of order, and branch -1 goes first only where
        # it sorts strictly first, as the stable sorts below would place it
        if s1 is not None and (s1.real > s0.real or s1.real == s0.real and s1.imag < s0.imag):
            roots[0], roots[1] = roots[1], roots[0]
    else:
        # sort every record, each pair back to branch k first, so exact ties
        # keep the order in which the branches are listed: two stable
        # sorts, the secondary key first
        roots[nh::2], roots[nh + 1::2] = roots[nh + 1::2], roots[nh::2]
        roots.sort(key=_IMAG)
        roots.sort(key=_REAL, reverse=True)
    return record(Spectrum, (tuple(roots), s0))


def is_stable(cl):
    """Stability verdict from the delay-margin rule, with the rightmost root.

    The verdict needs no W (Hayes, J. London Math. Soc. 25, 1950): the
    loop is unstable if alpha + beta >= 0; otherwise stable if |beta| <=
    |alpha|; otherwise stable iff h < atan2(w, alpha)/w, the delay margin,
    with w = sqrt(|beta| - |alpha|)*sqrt(|beta| + |alpha|).  Each factor
    rounds once, where sqrt(beta^2 - alpha^2) would cancel as |beta|
    nears |alpha|.

    Returns
    -------
    (stable, margin) : (bool, float)
        margin is Re s_0, from the same branch-0 root that ``spectrum``
        reports.  Its sign agrees with the verdict except where it lies
        within its own rounding error of 0, next to the delay margin,
        and it is +-inf where Re s_0 passes the double range.  Where
        alpha*h overflows to -inf, Re s_0 is (log|beta| - log(-alpha))/h.
    """
    margin = _rightmost(cl).real
    alpha, beta, h = cl
    lo, hi = abs(alpha), abs(beta)
    if alpha + beta >= 0.0 or hi <= lo:
        return alpha + beta < 0.0, margin
    # |alpha| + |beta| over the double range: 2*sqrt(sum/4) is sqrt(sum)
    total = lo + hi
    w = math.sqrt(hi - lo) * (math.sqrt(total) if total < math.inf else 2.0 * math.sqrt(0.25 * lo + 0.25 * hi))
    return h < math.atan2(w, alpha) / w, margin
