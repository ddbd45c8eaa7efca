"""Argument-principle root oracle for f(s) = s - alpha - beta*e^{-s h}.

Counts roots inside a rectangle by walking its boundary and summing
phase increments of f (refined until every segment turns by less than
pi/2), then isolates individual roots by recursive bisection and
polishes them with Newton's method.  Nothing here touches Lambert W,
so agreement with the branch-based spectrum is a genuine two-path
check rather than a self-comparison.

Every root off the real axis is simple.  f = f' = 0 forces
beta*e^{-sh} = -1/h and hence s = alpha - 1/h, where f'' = h != 0: the
only multiple root is the real double root at the Lambert W branch
point.  That even-order root produces no phase signature along a line
through it: f stays in one half-plane, so a contour walk sails past
without a jump and the count silently splits.  The real axis is
therefore handled by direct sign analysis (f restricted to the reals
has a single-signed second derivative, hence at most one interior
extremum and at most two real roots), and winding cells keep a
strictly positive distance from the axis.  Boundary walks near a
known real root, or near the axis extremum, insert extra sample knots
scaled to the edge's distance from that point, which resolves the
concentrated phase swing it induces on nearby edges.

One function, _df, evaluates f and f' everywhere: on the contour, in
Newton polishing and in the real-axis sign analysis.
"""

import cmath
import math
from dataclasses import dataclass, replace

from .errors import BoundaryRootSuspected, DomainError, MismatchDetected, NoConvergence
from .spectrum import spectrum

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
# the bisection stops at cells this wide, or at this fraction of the
# original rectangle if that is larger; a root Newton cannot place in
# such a cell raises NoConvergence
_MIN_CELL = 1e-6
_MIN_CELL_FRACTION = 1e-9
# split fractions tried when a root sits on (or hugs) the dividing line;
# exact 0.5 is deliberately absent: conjugate symmetry would put real
# roots exactly on the midline of symmetric cells
_FRACTIONS = (0.531, 0.468, 0.553, 0.447, 0.571, 0.415, 0.49)
_NUDGE_FRACTION = 1e-3
_MAX_NUDGES = 5
_MAX_EDGE_DEPTH = 60
_TWO_PI = 2.0 * math.pi
# knot offsets (in units of the edge-to-root distance) bracketing the
# phase swing a nearby root concentrates around its closest approach
_FOCUS_LADDER = (-128.0, -64.0, -32.0, -16.0, -8.0, -4.0, -2.0, -1.0, 0.0,
                 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


@dataclass(frozen=True)
class SearchRect:
    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        vals = (self.re_min, self.re_max, self.im_min, self.im_max)
        if not all(math.isfinite(v) for v in vals):
            raise DomainError(f"rectangle bounds must be finite, got {vals}")
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise DomainError(f"degenerate rectangle {vals}")

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


@dataclass(frozen=True)
class LocatedRoot:
    s: complex
    multiplicity: int


@dataclass(frozen=True)
class RootSet:
    roots: tuple
    total_count: int

    def __post_init__(self):
        if sum(r.multiplicity for r in self.roots) != self.total_count:
            raise DomainError("multiplicities do not add up to the boundary count")


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
    Points where the exponential overflows double range come back as
    infinities rather than exceptions; iterations treat them as
    out-of-range probes.  Their real part keeps the sign of the
    exponential term, which the real-axis sign analysis reads.
    """
    if cl.beta != 0.0 and -s.real * cl.h > 709.0:
        return complex(-cl.beta * (-cl.h) ** order * math.inf, math.inf)
    if order == 0:
        return (s - cl.alpha - cl.beta) - cl.beta * _cexpm1(-s * cl.h)
    return 1.0 + cl.beta * cl.h * cmath.exp(-s * cl.h)


def _checked_phase(cl, s):
    f = _df(cl, s, 0)
    if f == 0.0:
        raise BoundaryRootSuspected(f"characteristic function vanishes on the contour at {s}")
    if not (math.isfinite(f.real) and math.isfinite(f.imag)):
        raise DomainError(f"characteristic function overflows on the contour at {s}; shrink the rectangle")
    return cmath.phase(f)


def _wrap(d):
    return (d + math.pi) % _TWO_PI - math.pi


def _edge_knots(sa, sb, h, focus):
    """Initial parameter knots for the walk from sa to sb.

    Uniform knots keep each piece under a quarter turn of the delay
    term's rotation (rate h along the segment); focus knots resolve the
    phase swing concentrated where the segment passes a focus point fx
    on the axis, closest at Re s = fx (horizontal) or Im s = 0.
    """
    length = abs(sb - sa)
    pieces = max(1, min(65536, math.ceil(length * h / (math.pi / 4.0))))
    ts = {i / pieces for i in range(1, pieces)}
    horizontal = sa.imag == sb.imag
    start, span = (sa.real, sb.real - sa.real) if horizontal else (sa.imag, sb.imag - sa.imag)
    for fx in focus:
        c, dist = (fx, abs(sa.imag)) if horizontal else (0.0, abs(sa.real - fx))
        d = max(dist, 1e-14 * max(1.0, abs(fx)))
        for k in _FOCUS_LADDER:
            t = (c + k * d - start) / span
            if 0.0 < t < 1.0:
                ts.add(t)
    return sorted(ts)


def _edge_arg(cl, sa, sb, pa, pb, focus):
    """Total phase change of f along the segment sa -> sb."""
    stack = []
    prev_s, prev_p = sa, pa
    for t in _edge_knots(sa, sb, cl.h, focus):
        cur_s = sa + (sb - sa) * t
        cur_p = _checked_phase(cl, cur_s)
        stack.append((prev_s, cur_s, prev_p, cur_p, 0))
        prev_s, prev_p = cur_s, cur_p
    stack.append((prev_s, sb, prev_p, pb, 0))
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


def _winding(cl, rect, focus=()):
    """Exact root count inside rect from the boundary phase sum."""
    corners = (
        complex(rect.re_min, rect.im_min),
        complex(rect.re_max, rect.im_min),
        complex(rect.re_max, rect.im_max),
        complex(rect.re_min, rect.im_max),
    )
    phases = [_checked_phase(cl, c) for c in corners]
    total = 0.0
    for i in range(4):
        a, b = corners[i], corners[(i + 1) % 4]
        total += _edge_arg(cl, a, b, phases[i], phases[(i + 1) % 4], focus)
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


def _real_bracketed(cl, lo, hi):
    """One real root in [lo, hi] with a sign change: Newton with a
    bisection safety net."""
    flo = _real_df(cl, lo)
    x = 0.5 * (lo + hi)
    for _ in range(200):
        fx = _real_df(cl, x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (flo > 0.0):
            lo = x
        else:
            hi = x
        fp = _real_df(cl, x, 1)
        step = fx / fp if fp != 0.0 else math.inf
        nx = x - step
        if not (lo < nx < hi):
            nx = 0.5 * (lo + hi)
        if abs(nx - x) <= 4.0 * abs(x) * _EPS + 5e-324:
            return nx
        x = nx
    return x


def _axis(cl, rect):
    """(focus, reals) on the rectangle's stretch of the real axis.

    reals lists the real roots in (re_min, re_max) with multiplicity,
    found by sign inspection with no phase walking near the axis: f on
    the axis has a single-signed second derivative, hence at most one
    interior extremum x_ext, and so at most two simple roots or one
    double root exactly at x_ext.  focus holds the abscissae whose
    nearby edges need extra knots: the real roots, and x_ext, where a
    near-coalescent conjugate pair concentrates two cancelling phase
    swings even though no real root exists.
    """
    if not (rect.im_min < 0.0 < rect.im_max):
        return (), []
    re_lo, re_hi = rect.re_min, rect.re_max
    if cl.beta == 0.0:
        reals = [LocatedRoot(complex(cl.alpha, 0.0), 1)] if re_lo < cl.alpha < re_hi else []
        return tuple(r.s.real for r in reals), reals
    nodes = [re_lo, re_hi]
    if cl.beta * cl.h < 0.0:
        # f'(x) = 0 has the single solution below; f' itself is monotone
        x_ext = math.log(-cl.beta * cl.h) / cl.h
        if re_lo < x_ext < re_hi:
            scale = max(1.0, abs(x_ext), abs(cl.alpha) + abs(cl.beta))
            if abs(_real_df(cl, x_ext)) <= 8.0 * _EPS * scale:
                # the extremum touches zero: double root, location exact
                return (x_ext, x_ext), [LocatedRoot(complex(x_ext, 0.0), 2)]
            nodes = [re_lo, x_ext, re_hi]
    reals = []
    for lo, hi in zip(nodes, nodes[1:]):
        if (_real_df(cl, lo) > 0.0) != (_real_df(cl, hi) > 0.0):
            reals.append(LocatedRoot(complex(_real_bracketed(cl, lo, hi), 0.0), 1))
    # the interior node, if any, is x_ext
    return tuple([r.s.real for r in reals] + nodes[1:-1]), reals


def _counted_rect(cl, rect):
    """Winding count with outward nudges when the boundary grazes a root."""
    delta = _NUDGE_FRACTION * rect.diameter
    last = None
    for attempt in range(_MAX_NUDGES + 1):
        focus, reals = _axis(cl, rect)
        try:
            return _winding(cl, rect, focus), rect, reals, focus
        except BoundaryRootSuspected as exc:
            last = exc
            rect = rect.expanded(delta)
    raise BoundaryRootSuspected(
        f"root stays on the contour after {_MAX_NUDGES} outward nudges: {last}")


def count_roots(cl, rect):
    """Number of characteristic roots in rect, counted with multiplicity.

    Evaluated purely from the boundary: (1/2pi) times the phase change
    of f around the rectangle.  If a root sits on the boundary the
    rectangle is grown outward by 1e-3 of its diameter, up to 5 times,
    before giving up.
    """
    n, _, _, _ = _counted_rect(cl, rect)
    return n


def _newton(cl, s0):
    """Newton iteration on f from s0; None when it fails."""
    s = s0
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
    if abs(_df(cl, s, 0)) <= 1e-13 * max(1.0, abs(s)):
        return s
    return None


def _partition(cl, pairs, n, focus):
    """First candidate (c1, c2) whose windings add up to n, as
    (c1, c2, n1, n2); None if no candidate does."""
    for c1, c2 in pairs:
        try:
            n1, n2 = _winding(cl, c1, focus), _winding(cl, c2, focus)
        except BoundaryRootSuspected:
            continue
        if n1 + n2 == n:
            return c1, c2, n1, n2
    return None


def _split_lines(cell):
    """Halves of cell split across its longer side, one pair per fraction."""
    if cell.re_max - cell.re_min >= cell.im_max - cell.im_min:
        for frac in _FRACTIONS:
            mid = cell.re_min + frac * (cell.re_max - cell.re_min)
            yield replace(cell, re_max=mid), replace(cell, re_min=mid)
    else:
        for frac in _FRACTIONS:
            mid = cell.im_min + frac * (cell.im_max - cell.im_min)
            yield replace(cell, im_max=mid), replace(cell, im_min=mid)


def _resolve(cl, cell, n, diam0, out, focus):
    """Append the n simple roots that the winding count puts in cell to out.

    A lone root is Newton-polished from the cell centre.  The count
    puts it strictly inside, so a failed or escaped Newton run (a value
    outside the cell is another root) shrinks the cell by a split like
    any other; at the minimum cell size that raises NoConvergence.
    """
    if n == 0:
        return
    if n == 1:
        s = _newton(cl, cell.center)
        if s is not None and cell.contains(s, tol=1e-9 * cell.diameter + 1e-13):
            out.append(LocatedRoot(s, 1))
            return
    if cell.diameter <= max(_MIN_CELL, _MIN_CELL_FRACTION * diam0):
        what = "Newton failed to converge" if n == 1 else f"{n} roots stay unseparated"
        raise NoConvergence(f"{what} inside cell around {cell.center}")
    parts = _partition(cl, _split_lines(cell), n, focus)
    if parts is None:
        what = "isolate the root" if n == 1 else f"partition {n} roots"
        raise BoundaryRootSuspected(f"could not {what} near {cell.center}")
    c1, c2, n1, n2 = parts
    _resolve(cl, c1, n1, diam0, out, focus)
    _resolve(cl, c2, n2, diam0, out, focus)


def find_roots(cl, rect):
    """Locate every characteristic root in rect.

    Real roots are resolved directly on the axis (where any multiple
    root of this function family must lie), the off-axis remainder by
    winding-guided bisection until each cell holds one root; every
    root is Newton-polished to |f(s)| <= 1e-12*max(1, |s|).  Roots are
    ordered by descending real part, ties by ascending imaginary part.
    """
    n, rect, reals, focus = _counted_rect(cl, rect)
    found = []
    if rect.im_min < 0.0 < rect.im_max:
        # winding cells must keep clear of the axis: an even-order real
        # root on a cell edge leaves no phase signature at all
        n_real = sum(r.multiplicity for r in reals)
        scale = max(1.0, -rect.im_min, rect.im_max)
        strips = ((replace(rect, im_min=m), replace(rect, im_max=-m))
                  for m in (1e-7 * scale, 1e-9 * scale, 1e-11 * scale)
                  if rect.im_min < -m and m < rect.im_max)
        parts = _partition(cl, strips, n - n_real, focus)
        if parts is None:
            raise BoundaryRootSuspected(
                "roots too close to the real axis to separate from it")
        upper, lower, n_up, n_lo = parts
        found.extend(reals)
        _resolve(cl, upper, n_up, rect.diameter, found, focus)
        _resolve(cl, lower, n_lo, rect.diameter, found, focus)
    else:
        _resolve(cl, rect, n, rect.diameter, found, ())
    found.sort(key=lambda r: (-r.s.real, r.s.imag))
    return RootSet(roots=tuple(found), total_count=n)


@dataclass(frozen=True)
class CrossValidation:
    rect: SearchRect
    spectrum_count: int
    oracle_count: int
    max_distance: float


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
    every root from scratch via count/bisect/polish, and matches the
    two root multisets with multiplicity.  Raises MismatchDetected on
    any count difference or a matched pair further apart than
    match_tol; either would mean a bug in one of the two paths.
    Raises DomainError if match_tol is NaN, negative or infinite.
    """
    if not 0.0 <= match_tol < math.inf:
        raise DomainError(f"match_tol must be finite and non-negative, got {match_tol!r}")
    sp = spectrum(cl, n_branches)
    rect = _enclosing_rect(sp.roots, cl.h)
    located = find_roots(cl, rect)

    def expand(entries):
        return sorted((s for s, m in entries for _ in range(m)), key=lambda s: (-s.real, s.imag))

    from_spectrum = expand((r.s, r.multiplicity) for r in sp.roots)
    from_oracle = expand((r.s, r.multiplicity) for r in located.roots)
    report_counts = (len(from_spectrum), len(from_oracle))
    if report_counts[0] != report_counts[1]:
        report = CrossValidation(rect, report_counts[0], report_counts[1], math.inf)
        raise MismatchDetected(
            f"root count differs: spectrum lists {report_counts[0]}, oracle found {report_counts[1]}",
            report=report,
        )
    # greedy nearest matching; index pairing would misorder conjugate
    # pairs whose polished real parts differ by one rounding step
    remaining = list(from_oracle)
    max_distance = 0.0
    for s in from_spectrum:
        j = min(range(len(remaining)), key=lambda i: abs(remaining[i] - s))
        max_distance = max(max_distance, abs(remaining[j] - s))
        remaining.pop(j)
    report = CrossValidation(rect, report_counts[0], report_counts[1], max_distance)
    if max_distance > match_tol:
        raise MismatchDetected(
            f"matched roots disagree by {max_distance:.3e} (tolerance {match_tol:.1e})",
            report=report,
        )
    return report
