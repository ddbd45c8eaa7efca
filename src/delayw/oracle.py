"""Argument-principle root oracle for f(s) = s - alpha - beta*e^{-s h}.

Counts roots inside a rectangle from the phase change of f around its
boundary, isolates them one to a cell and polishes each with Newton's
method.  Nothing here touches Lambert W, so agreement with the
branch-based spectrum is a genuine two-path check rather than a
self-comparison.

Most edges cost no sample points.  Where f provably keeps to one open
half-plane along an edge, the edge's phase change follows from its two
end phases in closed form.  One rule serves both orientations: as
Im f = v + beta*e^{-uh}*sin(vh), an edge on one side of the axis keeps
Im f to the sign of v once every |v| > |beta|e^{-uh}*S, S = |sin vh| on
a horizontal edge and 1 on a vertical one.  On a line Im s = j*pi/h,
j != 0, Im f = j*pi/h exactly, so it holds there for any beta and no
root lies on it (the root-free lines of exponential polynomials, Bellman
& Cooke 1963).  A vertical edge at Re s = c is also clear once
|c - alpha| > |beta|e^{-ch}, or once |beta|e^{-ch} exceeds every
|s - alpha| on it.  Each bound carries a rounding slack derived from how
f is evaluated.  An edge failing the rule only towards its left end, or
in the band |v| <= |beta|e^{-ch}, is split at a lattice knot past the
crossing; the rest is walked knot by knot and refined until each piece
turns under pi/2.

find_roots isolates the roots by the strips between these lines.  The
W argument z = beta*h*e^{-alpha h} is real, and the branch ranges of W
(Corless et al. 1996) put at most one root in each strip off the axis:
above it, only in (j*pi/h, (j+1)*pi/h) with j odd when z > 0 and with j
even when z < 0.  So Newton runs from the centre of each strip that can
hold a root, and n roots met in n distinct strips of a cell that winds
to n are all of its roots; no strip is ever wound, and a shortfall
raises.  Newton from a strip's centre first steps on the log form
log(s - alpha) + sh = log(beta) + 2*pi*i*m, which is close to linear in
s, then polishes on f itself, and accepts once |f| is within the same
derived rounding bound the edge slacks use.

Every root off the real axis is simple.  f = f' = 0 forces
beta*e^{-sh} = -1/h and hence s = alpha - 1/h, where f'' = h != 0: the
only multiple root is the real double root at the Lambert W branch
point.  That even-order root produces no phase signature along a line
through it: f stays in one half-plane, so a contour walk sails past
without a jump and the count silently splits.  The real roots are
therefore found on the axis, where f'' has one sign (so f has at most
one extremum and two roots), by Newton on the real-branch W equation.
Walks near a real root, or the axis extremum, insert extra knots scaled
to the edge's distance from that point, to resolve the phase swing it
concentrates there.  The coefficients are real, so f(conj s) =
conj f(s): only the upper half-plane is searched, and the roots below
are the exact conjugates.  A rectangle below the axis is searched as
its mirror, one that meets the axis as its mirror hull alone, [-T, T]
with T its farther side from the axis but at least pi/h: less the real
roots, that count is twice the pairs the strips of [0, T] hold, and
the rectangle's roots are the hull's roots that it contains.  On
cross_validate's rectangles, symmetric about the axis, the hull is the
rectangle itself.  The lower half of a symmetric contour repeats the
upper half's phase change, so only the upper half is wound.

One function, _df, evaluates f and f' everywhere: on the contour, in
Newton polishing and in the real-axis sign scan; only the log-form seed
steps, the real-axis steps in y and an overflowing phase use their own.
"""

import cmath
import math
from itertools import chain, pairwise

from .errors import (BoundaryRootSuspected, DomainError, MismatchDetected, NoConvergence, NonFiniteInput, _Record,
                     _require_finite, _require_tolerance)
from .spectrum import _IMAG, _REAL, spectrum

__all__ = [
    "SearchRect",
    "LocatedRoot",
    "RootSet",
    "CrossValidation",
    "count_roots",
    "find_roots",
    "cross_validate",
]

_EPS = 2.220446049250313e-16
# accept a boundary segment once its phase change is below this
_PHASE_STEP = math.pi / 2
_NUDGE_FRACTION = 1e-3
_MAX_NUDGES = 5
_MAX_EDGE_DEPTH = 60
# Newton steps on the log form before polishing on f (a cap: from a strip
# centre they take 2 to 7 on the benchmark's verify pools), and the
# relative step at which they hand over: still above the rounding noise
# of either form, so the last digits come from f alone, and one or two
# quadratic steps on f from there reach full precision
_LOG_STEPS = 40
_LOG_SEED_STEP = 1e-5
_TWO_PI = 2.0 * math.pi
# knot offsets (in units of the edge-to-root distance) bracketing the
# phase swing a nearby root concentrates around its closest approach
_FOCUS_LADDER = (-128.0, -64.0, -32.0, -16.0, -8.0, -4.0, -2.0, -1.0, 0.0,
                 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


class SearchRect(_Record, fields="re_min re_max im_min im_max"):
    """Closed rectangle [re_min, re_max] x [im_min, im_max], non-empty.

    Its bounds follow the rule every real field follows (an int or a
    float kept as given, any other finite real stored as its float), but
    every bound that breaks it raises DomainError, as a degenerate
    rectangle does.
    """

    __slots__ = ()

    def __new__(cls, re_min, re_max, im_min, im_max):
        try:
            vals = _require_finite("re_min re_max im_min im_max", re_min, re_max, im_min, im_max)
        except NonFiniteInput as exc:  # every bad bound is a DomainError here
            raise DomainError(str(exc)) from None
        re_min, re_max, im_min, im_max = vals
        if not (re_min < re_max and im_min < im_max):
            raise DomainError(f"degenerate rectangle {vals}")
        return tuple.__new__(cls, vals)

    @property
    def diameter(self):
        return math.hypot(self.re_max - self.re_min, self.im_max - self.im_min)

    @property
    def center(self):
        return complex((self.re_min + self.re_max) / 2.0, (self.im_min + self.im_max) / 2.0)

    def contains(self, s, tol=0.0):
        return (self.re_min - tol <= s.real <= self.re_max + tol
                and self.im_min - tol <= s.imag <= self.im_max + tol)

    def expanded(self, delta):
        return SearchRect(self.re_min - delta, self.re_max + delta,
                          self.im_min - delta, self.im_max + delta)


class LocatedRoot(_Record, fields="s multiplicity"):
    """A root the oracle found, with its multiplicity."""

    __slots__ = ()

    def __new__(cls, s, multiplicity):
        return tuple.__new__(cls, (s, multiplicity))


class RootSet(_Record, fields="roots total_count"):
    """The roots in a rectangle; their multiplicities add up to total_count."""

    __slots__ = ()

    def __new__(cls, roots, total_count):
        if sum(r.multiplicity for r in roots) != total_count:
            raise DomainError("multiplicities do not add up to the boundary count")
        return tuple.__new__(cls, (roots, total_count))


def _cexpm1(z):
    """e^z - 1 without cancellation for small |z|."""
    x, y = z.real, z.imag
    return complex(
        math.expm1(x) * math.cos(y) - 2.0 * math.sin(0.5 * y) ** 2,
        math.exp(x) * math.sin(y),
    )


def _df(cl, s, order):
    """The characteristic function (order 0) or its derivative (order 1) at s.

    The value itself is written as (s - alpha - beta) - beta*(e^{-sh}-1)
    so that roots near the origin (where s - alpha and beta*e^{-sh}
    cancel to working precision in the naive form) stay evaluable; the
    double root of the coalesced branch case often sits exactly there.
    Past e^709, beta*e^{-sh} is sign(beta)*e^{log|beta| - sh}; where that
    overflows, f comes back infinite, an out-of-range probe to Newton, its
    real part with the sign of the delay term for the real-axis scan.
    beta != 0 and Im(s)*h is finite: count_roots and find_roots settle
    both before any contour work.
    """
    if -s.real * cl.h > 709.0:
        lead = math.log(abs(cl.beta)) - s * cl.h
        if lead.real > 709.0:
            return complex(-cl.beta * (-cl.h) ** order * math.inf, math.inf)
        term = math.copysign(1.0, cl.beta) * cmath.exp(lead)
        return s - cl.alpha - term if order == 0 else 1.0 + cl.h * term
    if order == 0:
        return (s - cl.alpha - cl.beta) - cl.beta * _cexpm1(-s * cl.h)
    return 1.0 + cl.beta * cl.h * cmath.exp(-s * cl.h)


def _checked_phase(cl, s):
    """Phase of f at the contour point s, read in logarithms where f overflows; a zero f raises."""
    f = _df(cl, s, 0)
    if f == 0.0:
        raise BoundaryRootSuspected(f"characteristic function vanishes on the contour at {s}")
    if not cmath.isfinite(f):  # f/(2e^m), m = max(lead, 0), lead = log|beta| - Re(s)*h: no term overflows
        lead = math.log(abs(cl.beta)) - s.real * cl.h
        f = ((0.5 * s - 0.5 * cl.alpha) * math.exp(-max(lead, 0.0))
             - math.copysign(0.5, cl.beta) * cmath.exp(complex(min(lead, 0.0), -s.imag * cl.h)))
    try:
        return cmath.phase(f)
    except OverflowError:  # atan2 underflows: the phase is +-0 to double precision
        return math.atan2(f.imag, f.real)


def _wrap(d):
    return (d + math.pi) % _TWO_PI - math.pi


def _edge_knots(sa, sb, h, focus):
    """Sample points strictly inside the segment sa -> sb, in walk order.

    Uniform knots sit on the lattice j*pi/(4h) along the segment's line,
    which keeps each piece under a quarter turn of the delay term's
    rotation (rate h along the segment).  An edge longer than 65,536
    pieces raises: a coarser step would let a piece hide whole turns.
    Focus knots, at fx + k*d, resolve the phase swing concentrated where
    the line passes a focus point fx on the axis, at distance d: closest
    at Re s = fx (horizontal) or Im s = 0 (vertical).
    """
    horizontal = sa.imag == sb.imag
    if horizontal:
        a, b, fixed = sa.real, sb.real, sa.imag
    else:
        a, b, fixed = sa.imag, sb.imag, sa.real
    lo, hi = (a, b) if a < b else (b, a)
    step = 0.25 * math.pi / h
    if hi - lo > 65536.0 * step:
        raise DomainError(f"walking the edge {sa} -> {sb} takes over 65,536 pieces; shrink the rectangle")
    xs = [x for j in range(math.floor(lo / step), math.ceil(hi / step) + 1)
          if lo < (x := j * step) < hi]
    for fx in focus:
        c, dist = (fx, abs(fixed)) if horizontal else (0.0, abs(fixed - fx))
        d = max(dist, 1e-14 * max(1.0, abs(fx)))
        xs += [x for k in _FOCUS_LADDER if lo < (x := c + k * d) < hi]
    if focus:
        # the lattice alone comes out sorted and free of duplicates
        xs = sorted(set(xs))
    if b < a:
        xs.reverse()
    if horizontal:
        return [complex(x, fixed) for x in xs]
    return [complex(fixed, x) for x in xs]


def _decay(cl, x):
    """|beta|*e^{-x h}, the modulus of the delay term on the line Re s = x,
    past e^709 read from its logarithm; infinite where it overflows."""
    if -x * cl.h <= 709.0:
        return abs(cl.beta) * math.exp(-x * cl.h)
    lead = math.log(abs(cl.beta)) - x * cl.h
    return math.exp(lead) if lead <= 709.0 else math.inf


def _f_noise(cl, x, y):
    """Bound on the rounding error of the f that _df evaluates, at every
    s on the line Re s = x with |Im s| <= |y|.

    With u = eps/2 the unit roundoff, B = |beta|e^{-xh} and
    Z = (|x| + |y|)h: _df rounds -sh by u|sh| (which moves e^{-sh} by
    B*u*Z), takes exp, sin and cos to an ulp and adds a few roundings, so
    its error is below u*(4(|s| + |alpha|) + 28|beta| + B(16 + Z)); Im f
    alone carries only the B part, as its (s - alpha - beta) term is
    exact.  A bound that compares against B computed as
    |beta|*exp(-xh) is off by a further u*B*(4 + Z).  Summed, and rounded
    up to whole eps = 2u, that is eps*B*(12 + 2Z) for Im f (_edge_arg's
    Im f slack) plus eps*(4(|s| + |alpha|) + 16|beta|).  Where B
    underflows to 0 its share is 0, even where Z overflows.
    """
    z = (abs(x) + abs(y)) * cl.h
    reach = abs(x) + abs(y) + abs(cl.alpha)
    b = _decay(cl, x)
    return _EPS * ((b * (12.0 + 2.0 * z) if b else 0.0) + 4.0 * reach + 16.0 * abs(cl.beta))


def _edge_arg(cl, sa, sb, pa, pb, focus):
    """Total phase change of f along the segment sa -> sb.

    With s = u + iv, Im f = v + beta*e^{-uh}*sin(vh) and
    Re f = u - alpha - beta*e^{-uh}*cos(vh).  Writing B for |beta|e^{-uh}
    at the left end (its largest value on the edge), the edge is decided
    once, in this order:

    - vertical, at Re s = c: if |c - alpha| > B, Re f has the sign of
      c - alpha;
    - on one side of the axis: if every |v| > B*S, with S = |sin vh| on a
      horizontal edge and 1 on a vertical one, Im f has the sign of v;
      on the lines v = j*pi/h, j != 0, this holds whatever B is;
    - vertical: if every |s - alpha| < B, then f = -beta*e^{-sh}*(1 - q)
      with |q| < 1, whose phase is that of -beta, minus vh, plus a part
      inside (-pi/2, pi/2).

    In the fixed half-planes the change is the difference of the end
    phases measured from the half-plane's centre direction; in the last
    case it is -h*dv plus wrap(pb - pa + h*dv).  An edge that passes
    none is split at a lattice knot j*pi/(4h) strictly inside it, where
    it meets the Im f rule: B falls as u grows, so a horizontal edge
    fails it only left of u* = (log(|beta| S) - log|v|)/h, and a vertical
    one only inside the band |v| <= B*S; the knot is the first past u*,
    or past the band on either side of the axis.  Both parts are decided
    again; an edge with no such knot is walked.

    Each bound carries a slack that covers both the exact f along the
    edge and the f that _df evaluates at its ends: for Im f, S grows by
    _f_noise's Im f share over B, eps*(12 + 2Z) with Z = (max|u| +
    max|v|)h, which also covers sin(vh) being off by u|vh|; _f_noise over
    the whole edge for the others.  The last case also needs the end
    phases, h*dv and the wrap, together off by at most x = eps*(4|h dv|
    + 32), to keep the part inside (-pi/2, pi/2) from reaching +-pi: its
    |q| <= rho has |phase(1 - q)| <= asin(rho), and pi/2 - asin(rho) >=
    sqrt(2(1 - rho)) exceeds x/2 once 1 - rho > x^2/8.
    """
    h = cl.h
    horizontal = sa.imag == sb.imag
    u0, u1 = (sa.real, sb.real) if sa.real < sb.real else (sb.real, sa.real)
    v0, v1 = (sa.imag, sb.imag) if sa.imag < sb.imag else (sb.imag, sa.imag)
    decay = _decay(cl, u0)
    vmax = v1 if v1 > -v0 else -v0
    if not horizontal:
        slack = _f_noise(cl, u0, vmax)
        if abs(u0 - cl.alpha) > decay + slack:
            centre = 0.0 if u0 > cl.alpha else math.pi
            return _wrap(pb - centre) - _wrap(pa - centre)
    sine = ((abs(math.sin(v0 * h)) if horizontal else 1.0)
            + _EPS * (12.0 + 2.0 * ((u1 if u1 > -u0 else -u0) + vmax) * h))
    bound = decay * sine  # NaN if B = 0 and the slack is infinite
    if v0 > bound or -v1 > bound:  # bound >= 0: only on one side of the axis
        centre = math.copysign(0.5 * math.pi, sa.imag)
        return _wrap(pb - centre) - _wrap(pa - centre)
    if not horizontal:
        turn = h * (sb.imag - sa.imag)
        x = _EPS * (4.0 * abs(turn) + 32.0)
        if decay * (1.0 - 0.125 * x * x) > math.hypot(u0 - cl.alpha, vmax) + slack:
            return _wrap(pb - pa + turn) - turn
    step = 0.25 * math.pi / h
    if horizontal:
        lo, hi = u0, u1
        cross = (math.log(abs(cl.beta)) + math.log(sine) - math.log(vmax)) / h if vmax else math.nan
        knots = ((math.floor(cross / step) + 1) * step,) if lo < cross < hi else ()
    else:
        lo, hi = v0, v1
        y = (math.floor(bound / step) + 1) * step if bound < vmax else math.inf
        knots = (y, -y)
    at = next((k for k in knots if lo < k < hi), None)
    if at is None:
        return _walk(cl, sa, sb, pa, pb, focus)
    knot = complex(at, sa.imag) if horizontal else complex(sa.real, at)
    pk = _checked_phase(cl, knot)
    return _edge_arg(cl, sa, knot, pa, pk, focus) + _edge_arg(cl, knot, sb, pk, pb, focus)


def _walk(cl, sa, sb, pa, pb, focus):
    """Phase change of f along sa -> sb, summed knot by knot."""
    knots = [sa, *_edge_knots(sa, sb, cl.h, focus), sb]
    phases = [pa, *(_checked_phase(cl, s) for s in knots[1:-1]), pb]
    stack = [(*piece, 0) for piece in zip(knots, knots[1:], phases, phases[1:])]
    total = 0.0
    while stack:
        a, b, ph_a, ph_b, depth = stack.pop()
        d = _wrap(ph_b - ph_a)
        if abs(d) < _PHASE_STEP:
            total += d
            continue
        if depth >= _MAX_EDGE_DEPTH:
            raise BoundaryRootSuspected(
                f"phase refinement exhausted near {0.5 * (a + b)}; a root sits on or next to the contour")
        m = 0.5 * (a + b)
        ph_m = _checked_phase(cl, m)
        stack.append((a, m, ph_a, ph_m, depth + 1))
        stack.append((m, b, ph_m, ph_b, depth + 1))
    return total


def _winding(cl, rect, focus):
    """Exact root count inside rect from the boundary phase sum, wound on
    the upper half alone if rect is symmetric about the axis."""
    half = rect.im_min == -rect.im_max
    base = 0.0 if half else rect.im_min
    path = [complex(rect.re_max, base), complex(rect.re_max, rect.im_max),
            complex(rect.re_min, rect.im_max), complex(rect.re_min, base)]
    ends = [_checked_phase(cl, s) for s in path]
    if not half:  # close the loop, back to the first corner
        path, ends = path + path[:1], ends + ends[:1]
    total = (2.0 if half else 1.0) * sum(_edge_arg(cl, sa, sb, pa, pb, focus)
                                         for sa, sb, pa, pb in zip(path, path[1:], ends, ends[1:]))
    n = round(total / _TWO_PI)
    if abs(total / _TWO_PI - n) > 0.25:
        raise BoundaryRootSuspected(
            f"boundary phase sum {total / _TWO_PI:.6f} is far from an integer; contour too close to a root")
    if n < 0:
        raise DomainError("negative winding number; the function has no poles, so this cannot happen")
    return n


def _real_df(cl, x, order=0):
    """_df at the real point x, as a float."""
    return _df(cl, complex(x, 0.0), order).real


def _real_root(cl, lo, hi, lbh, x_ext):
    """The root in [lo, hi], a sign change of f on one side of x_ext.

    In y = hx - lbh, lbh = log|beta h| = h*x_ext, h*f is y + expm1(-y) + L
    (convex, least at x_ext) for beta < 0 and y - e^{-y} + L (increasing,
    concave) for beta > 0: the real-branch W equation (Corless et al.
    1996), where Newton needs no bracket.  Up to two steps on _df in x,
    kept in the bracket while |f| does not grow, undo the cancellation.
    """
    L = lbh - cl.alpha * cl.h
    if cl.beta < 0.0:
        L = min(L + 1.0, -_EPS)  # negative up to its rounding, as the sign scan found a root
        side = 0.5 * lo + 0.5 * hi - x_ext
        y = (math.copysign(math.sqrt(-2.0 * L), side) if L > -1.0 else 1.0 - L if side > 0.0
             else -math.log(1.0 - L + math.log(1.0 - L)))
    else:
        y = -L if L < -1.0 else -math.log(L) if L > 1.0 else 0.5 * (1.0 - L)
    for _ in range(40):  # a cap: from these seeds it takes 1 to 4 steps
        e = math.expm1(-y)
        y -= (step := (y + e + L) / -e if cl.beta < 0.0 else (y - e - 1.0 + L) / (2.0 + e))
        if not abs(step) > 1e-6 * abs(y):
            break
    x = min(max((lbh + y) / cl.h, lo), hi)
    f = _real_df(cl, x)
    for _ in range(2):
        nx = x - f / fp if (fp := _real_df(cl, x, 1)) else x
        if not (lo <= nx <= hi and abs(nf := _real_df(cl, nx)) <= abs(f)):
            break
        x, f = nx, nf
    if not (math.isfinite(f) and abs(f) <= _f_noise(cl, x, 0.0)):  # _f_noise is inf where f overflows
        raise NoConvergence(f"Newton on the real axis found no root in [{lo}, {hi}]")
    return x


def _axis(cl, rect):
    """(focus, reals) on the rectangle's stretch of the real axis.

    reals lists the real roots in (re_min, re_max) with multiplicity,
    bracketed by sign and found by _real_root, with no phase walking: f on
    the axis has a single-signed second derivative, hence at most one
    interior extremum x_ext, and so at most two simple roots or one
    double root exactly at x_ext.  focus holds the abscissae whose
    nearby edges need extra knots: the real roots, and x_ext, where a
    near-coalescent conjugate pair concentrates two cancelling phase
    swings even though no real root exists.  Edges that skim the axis
    need them on rectangles off it too.  beta != 0: the entries answer a
    delay-free loop themselves.
    """
    re_lo, re_hi = rect.re_min, rect.re_max
    nodes = [re_lo, re_hi]
    lbh = math.log(abs(cl.beta)) + math.log(cl.h)  # log|beta h|, in range where beta*h is not
    x_ext = lbh / cl.h
    # for beta < 0, f'(x) = 0 has the single solution x_ext; f' itself is monotone
    if cl.beta < 0.0 and re_lo < x_ext < re_hi:
        scale = max(1.0, abs(x_ext), abs(cl.alpha) + abs(cl.beta))
        if abs(_real_df(cl, x_ext)) <= 8.0 * _EPS * scale:
            # the extremum touches zero: double root, location exact
            return (x_ext, x_ext), [LocatedRoot(complex(x_ext, 0.0), 2)]
        nodes = [re_lo, x_ext, re_hi]
    reals = []
    for lo, hi in zip(nodes, nodes[1:]):
        if (_real_df(cl, lo) > 0.0) != (_real_df(cl, hi) > 0.0):
            reals.append(LocatedRoot(complex(_real_root(cl, lo, hi, lbh, x_ext), 0.0), 1))
    # the interior node, if any, is x_ext
    return tuple([r.s.real for r in reals] + nodes[1:-1]), reals


def _as_rect(rect):
    """rect, a SearchRect or any 4-sequence, as a SearchRect, with an
    edge that lies within 1e-14*max(1, |re_min|, |re_max|) of the real
    axis, the closest distance _edge_knots' focus knots resolve, moved
    onto it: the real roots would sit on that edge, out of reach of a
    winding, and a nudge could take in a neighbouring root."""
    try:
        rect = SearchRect(*rect)
    except TypeError:  # not four values
        raise DomainError(f"a rectangle is four bounds (re_min, re_max, im_min, im_max), got {rect!r}") from None
    near = 1e-14 * max(1.0, abs(rect.re_min), abs(rect.re_max))
    if rect.im_min and abs(rect.im_min) <= near < rect.im_max:
        return rect._replace(im_min=0.0)
    if rect.im_max and abs(rect.im_max) <= near < -rect.im_min:
        return rect._replace(im_max=0.0)
    return rect


def _counted_rect(cl, rect):
    """Winding count, the rectangle it was taken on and the real roots
    there, with outward nudges when the boundary grazes a root."""
    delta = _NUDGE_FRACTION * rect.diameter
    last = None
    for attempt in range(_MAX_NUDGES + 1):
        if math.isinf(max(rect.im_max, -rect.im_min) * cl.h):
            raise DomainError(f"Im(s)*h passes the double range on {tuple(rect)}: e^(-s*h) has no phase there")
        focus, reals = _axis(cl, rect)
        try:
            return _winding(cl, rect, focus), rect, reals
        except BoundaryRootSuspected as exc:
            last = exc
            rect = rect.expanded(delta)
    raise BoundaryRootSuspected(
        f"root stays on the contour after {_MAX_NUDGES} outward nudges: {last}")


def count_roots(cl, rect):
    """Number of characteristic roots in rect, counted with multiplicity.

    Evaluated from the boundary of rect (a SearchRect or any 4-sequence):
    (1/2pi) times the phase change of f around it, read in logarithms where
    f overflows.  If a root sits on the boundary the rectangle is grown
    outward by 1e-3 of its diameter, up to 5 times, before giving up.  A
    rectangle with an edge on the real axis, where its real roots lie,
    counts half of its mirror hull [-T, T], T its farther side, and half of
    its real roots.  An edge within 1e-14*max(1, |re_min|, |re_max|) of the
    axis lies on it: a root that close to an edge counts as on it.  For
    beta = 0 the count is that of find_roots, with no winding.  Raises
    DomainError where Im(s)*h passes the double range on a rectangle to be
    wound, a nudged one included: e^{-sh} has no phase there.
    """
    rect = _as_rect(rect)
    if cl.beta == 0.0:
        return find_roots(cl, rect).total_count
    if rect.im_min == 0.0 or rect.im_max == 0.0:
        top = max(rect.im_max, -rect.im_min)
        n, _, reals = _counted_rect(cl, SearchRect(rect.re_min, rect.re_max, -top, top))
        return (n + sum(r.multiplicity for r in reals)) // 2
    n, _, _ = _counted_rect(cl, rect)
    return n


def _log_seed(cl, s0, log_beta):
    """s0 moved by Newton steps on the log form of f(s) = 0.

    Off the real axis f(s) = 0 iff log(s - alpha) + sh = log(beta) +
    2*pi*i*m for one integer m, read here from s0.  The left side is
    close to linear in s except near alpha - 1/h, so the steps reach a
    root's neighbourhood where Newton on f, whose exponential term
    swings by e^{h|ds|} over a step, would take many.  s0 lies above
    the real axis, and the steps stop once one is small, turns
    non-finite or would leave that half-plane, where the principal log
    jumps; s0 comes back unmoved if none was taken.
    """
    lead = (cmath.log(s0 - cl.alpha) + s0 * cl.h - log_beta).imag / _TWO_PI
    target = log_beta + complex(0.0, _TWO_PI * round(lead))
    s = s0
    for _ in range(_LOG_STEPS):
        w = s - cl.alpha
        step = (cmath.log(w) + s * cl.h - target) / (1.0 / w + cl.h)
        nxt = s - step
        if not (math.isfinite(nxt.real) and math.isfinite(nxt.imag) and nxt.imag > 0.0):
            break
        s = nxt
        if abs(step) <= _LOG_SEED_STEP * max(1.0, abs(s)):
            break
    return s


def _newton(cl, s0, log_beta):
    """Newton iteration on f, started from the log-form seed of s0.

    Returns the last iterate if f there is within _f_noise, that is,
    indistinguishable from zero in _df's arithmetic; None otherwise.
    """
    s = _log_seed(cl, s0, log_beta)
    for _ in range(80):
        f = _df(cl, s, 0)
        fp = _df(cl, s, 1)
        if fp == 0.0 or not (math.isfinite(fp.real) and math.isfinite(fp.imag)):
            return None
        step = f / fp
        s = s - step
        if not (math.isfinite(s.real) and math.isfinite(s.imag)):
            return None
        if abs(step) <= 1e-15 * max(1.0, abs(s)):
            break
    return s if abs(_df(cl, s, 0)) <= _f_noise(cl, s.real, s.imag) else None


def _resolve(cl, cell, n):
    """The n simple roots that a winding count puts in cell, as a list.

    The lines Im s = j*pi/h cut cell, which lies on or above the real
    axis, into strips that each hold at most one root, and strips of one
    parity none, nor any strip above the reach |beta|e^{-re_min h}.
    Newton runs from the centre of each other strip and keeps a result
    strictly inside its strip and the cell's real range: n such roots,
    in n distinct strips of a cell that winds to n, leave no other root.
    Short of n, raises NoConvergence.
    """
    gap = math.pi / cl.h
    re_lo, re_hi, im_lo, im_hi = cell
    mid_re = (re_lo + re_hi) / 2.0
    log_beta = cmath.log(cl.beta)  # once per cell, not per strip
    # from the top down: on cross_validate's rectangles an empty strip
    # may lie next to the axis, and the pass stops before it.  A root
    # with Re s > re_lo has |Im s| <= |s - alpha| = |beta|e^{-Re(s) h},
    # under the reach (with _edge_arg's Im f slack), so the pass starts
    # at the first cut past it; an overflow skips nothing
    reach = _decay(cl, re_lo) * (1.0 + _EPS * (12.0 + 2.0 * (abs(re_lo) + im_hi) * cl.h))
    top = min(im_hi, (math.floor(reach / gap) + 1) * gap) if reach < im_hi else im_hi
    cuts = (y for j in range(math.ceil(top / gap), math.floor(im_lo / gap) - 1, -1)
            if im_lo < (y := j * gap) < top)
    held = []
    for hi, lo in pairwise(chain((top,), cuts, (im_lo,))):
        if len(held) == n:
            break
        mid = complex(mid_re, (lo + hi) / 2.0)
        # the strip (j*pi/h, (j+1)*pi/h) can hold a root only with j odd
        # when z > 0, j even when z < 0
        if math.floor(mid.imag / gap) % 2 == (cl.beta > 0.0):
            s = _newton(cl, mid, log_beta)
            if s is not None and re_lo < s.real < re_hi and lo < s.imag < hi:
                held.append(LocatedRoot(s, 1))
    if len(held) < n:
        raise NoConvergence(f"Newton placed {len(held)} of the {n} roots of the cell around {cell.center}")
    return held


def find_roots(cl, rect):
    """Locate every characteristic root in rect, a SearchRect or 4-sequence.

    Real roots are resolved directly on the axis (where any multiple
    root of this function family must lie), the others by Newton runs in
    the pi/h strips between the lines Im s = j*pi/h above the axis, each
    holding at most one root, against the winding count, as count_roots
    takes it, of rect's image above the axis or, if rect meets the axis
    or a nudge takes it across, of its mirror hull alone.  Every root is
    Newton-polished until |f(s)| is below a bound derived from the
    rounding error of evaluating f at s; the roots below the axis are
    the exact conjugates of those above.  Roots are ordered by
    descending real part, ties by ascending imaginary part, and
    total_count is their multiplicity sum.  Raises NoConvergence if
    Newton places fewer roots than a count, and BoundaryRootSuspected if
    a contour cannot be counted or the hull holds an odd number of
    non-real roots.  An edge within 1e-14*max(1, |re_min|, |re_max|) of
    the real axis lies on it: a root that close to an edge counts as on it.
    A delay-free loop, beta = 0, has the one root alpha, returned with no
    winding if the closed rectangle, so snapped, holds it.  Raises
    DomainError as count_roots does where Im(s)*h passes the double range.
    """
    rect = _as_rect(rect)
    if cl.beta == 0.0:  # f = s - alpha: its one root, if the closed rect holds it
        found = (LocatedRoot(complex(cl.alpha, 0.0), 1),) if rect.contains(complex(cl.alpha, 0.0)) else ()
        return RootSet(roots=found, total_count=len(found))
    # rect or, below the axis, its mirror: f(conj s) = conj f(s)
    up = rect if rect.im_max > 0.0 else SearchRect(rect.re_min, rect.re_max, -rect.im_max, -rect.im_min)
    cell, reals = up, []
    if up.im_min > 0.0:
        n, cell, _ = _counted_rect(cl, up)
    grown = cell.im_max - up.im_max
    if cell.im_min <= 0.0:
        # the hull holds the real roots and conjugate pairs; with
        # top >= pi/h the strip on the axis is whole
        top = max(cell.im_max, -cell.im_min, math.pi / cl.h)
        n, hull, reals = _counted_rect(cl, SearchRect(cell.re_min, cell.re_max, -top, top))
        n -= sum(r.multiplicity for r in reals)
        if n < 0 or n % 2:
            raise BoundaryRootSuspected(f"hull around {hull.center} holds {n} non-real roots, not an even count")
        n //= 2
        grown += hull.im_max - top
        cell = SearchRect(hull.re_min, hull.re_max, 0.0, hull.im_max)
    above = _resolve(cl, cell, n)
    # rect's top and bottom move out by the nudges, if any; a root on
    # either counts as inside, as count_roots' nudge has it
    lo, hi = rect.im_min - grown, rect.im_max + grown
    found = [r for r in chain(reals, above, (LocatedRoot(r.s.conjugate(), 1) for r in above)) if lo <= r.s.imag <= hi]
    # descending Re s, ties by ascending Im s, as spectrum orders its roots
    found.sort(key=_IMAG)
    found.sort(key=_REAL, reverse=True)
    return RootSet(roots=tuple(found), total_count=sum(r.multiplicity for r in found))


class CrossValidation(_Record, fields="rect spectrum_count oracle_count max_distance"):
    """cross_validate's report: the rectangle searched, each path's root
    count and the largest distance between matched roots."""

    __slots__ = ()

    def __new__(cls, rect, spectrum_count, oracle_count, max_distance):
        return tuple.__new__(cls, (rect, spectrum_count, oracle_count, max_distance))


def _enclosing_rect(roots, h):
    res = [r.s.real for r in roots]
    ims = [r.s.imag for r in roots]
    re_lo, re_hi = min(res), max(res)
    im_lo, im_hi = min(ims), max(ims)
    # 0.5/h keeps the rectangle invariant under the time rescaling
    # (alpha, beta, h) -> (alpha/c, beta/c, c*h), as pi/h does below
    re_pad = max(0.1 * (re_hi - re_lo), 0.5 / h)
    # cap the imaginary margin below the half-gap to the next branch so
    # the rectangle holds exactly the branches being checked
    gap = math.pi / h
    im_pad = max(min(0.1 * (im_hi - im_lo), 0.45 * gap), 0.1 * gap)
    return SearchRect(re_lo - re_pad, re_hi + re_pad, im_lo - im_pad, im_hi + im_pad)


def cross_validate(cl, n_branches, match_tol=1e-8):
    """Check the branch-based spectrum against the boundary oracle.

    Encloses the requested branches in a padded rectangle, re-locates
    its roots from scratch with find_roots, and pairs the two sorted
    root lists by position (its largest distance is at least the best
    matching's, so it hides no disagreement).  Raises MismatchDetected
    on any count difference or a pair further apart than match_tol;
    either would mean a bug in one of the two paths.
    Raises DomainError if match_tol is not a number, or is NaN, negative
    or infinite.
    """
    _require_tolerance("match_tol", match_tol)
    sp = spectrum(cl, n_branches)
    rect = _enclosing_rect(sp.roots, cl.h)
    located = find_roots(cl, rect)

    # both lists come sorted by (-Re, Im), so expanding keeps the order
    def expand(roots):
        return [r.s for r in roots for _ in range(r.multiplicity)]

    from_spectrum, from_oracle = expand(sp.roots), expand(located.roots)
    n_sp, n_or = len(from_spectrum), len(from_oracle)
    if n_sp != n_or:
        raise MismatchDetected(f"root count differs: spectrum lists {n_sp}, oracle found {n_or}",
                               report=CrossValidation(rect, n_sp, n_or, math.inf))
    max_distance = max((abs(a - b) for a, b in zip(from_spectrum, from_oracle)))
    report = CrossValidation(rect, n_sp, n_or, max_distance)
    if max_distance > match_tol:
        raise MismatchDetected(
            f"matched roots disagree by {max_distance:.3e} (tolerance {match_tol:.1e})",
            report=report,
        )
    return report
