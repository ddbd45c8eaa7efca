"""Tests for the argument-principle root oracle."""

import cmath
import hashlib
import math
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import delayw
from delayw import (
    BRANCH_POINT_Z,
    BoundaryRootSuspected,
    ClosedLoopParams,
    CrossValidation,
    DelayWError,
    DomainError,
    LocatedRoot,
    MismatchDetected,
    NoConvergence,
    RootSet,
    SearchRect,
    char_residual,
    count_roots,
    cross_validate,
    find_roots,
    is_stable,
    spectrum,
)
from delayw import oracle
from delayw.oracle import _checked_phase, _df, _edge_arg, _edge_knots, _enclosing_rect, _f_noise, _walk

import recipes
from recipes import mp_real_root, mp_root_error, mp_roots, over_budget

# e*z + 1 = -2.1e-13 for the W argument z: a conjugate pair 5e-5 off the axis
NEAR_BRANCH_POINT = ClosedLoopParams(-4.268065811676514, -26.546180901730136, 0.013104286990555977)

# rectangles across the axis, one taller above it and one taller below;
# their horizontal edges lie on lines Im s = j*pi/h, where Im f = j*pi/h
# and so no root lies
ASYMMETRIC = [
    (ClosedLoopParams(-1.0, -2.0, 1.0), SearchRect(-3.1, 0.5, -3.0 * math.pi, 5.0 * math.pi)),
    (ClosedLoopParams(0.5, 2.0, 0.7), SearchRect(-4.0, 1.5, -7.0 * math.pi / 0.7, 2.0 * math.pi / 0.7)),
]


# z = 0.99*BRANCH_POINT_Z: two real roots 0.28 apart, at -2.1486 and
# -1.8648, and the nearest pair at -4.0992 +- 7.4602i
TWO_REALS = ClosedLoopParams(-1.0, BRANCH_POINT_Z * 0.99 * math.exp(-1.0), 1.0)


def sorted_roots(roots):
    return sorted(roots, key=lambda s: (-s.real, s.imag))


def simple_roots_found(rs, truth, rect):
    """How many roots of truth lie in rect, asserting that find_roots'
    answer rs on rect holds exactly those, each simple and within 1e-12
    of it relative to max(1, |s|)."""
    expected = sorted_roots(s for s in truth if rect.contains(s))
    assert rs.total_count == len(rs.roots) == len(expected), rect
    for root, ref in zip(rs.roots, expected):
        assert root.multiplicity == 1 and abs(root.s - ref) <= 1e-12 * max(1.0, abs(ref)), (rect, root.s, ref)
    return len(expected)


def residual_ok(cl, s, tol=1e-12):
    return abs(char_residual(cl, s)) <= tol * max(1.0, abs(s))


def oracle_work(fn, *args):
    """fn(*args), the Newton steps _real_root took in it (one math.expm1
    call per step in y, one f' evaluation per step on _df) and its phase
    evaluations: the calls of cmath.phase from delayw.oracle."""
    steps = phases = 0
    real_root, real_df = oracle._real_root.__code__, oracle._real_df.__code__

    def profile(frame, event, arg):
        nonlocal steps, phases
        if event == "c_call" and arg is math.expm1 and frame.f_code is real_root:
            steps += 1
        elif event == "c_call" and arg is cmath.phase and frame.f_globals.get("__name__") == "delayw.oracle":
            phases += 1
        elif event == "call" and frame.f_code is real_df and frame.f_back.f_code is real_root:
            steps += frame.f_locals["order"]

    sys.setprofile(profile)
    try:
        out = fn(*args)
    finally:
        sys.setprofile(None)
    return out, steps, phases


class TestCountRoots:
    def test_mid_regime_full_window(self):
        # alpha=1, beta=-1, h=1: double root at 0 plus three conjugate
        # pairs inside this window
        cl = ClosedLoopParams(1.0, -1.0, 1.0)
        rect = SearchRect(-3.6, 0.5, -21.7, 21.7)
        assert count_roots(cl, rect) == 8

    def test_single_real_root(self):
        cl = ClosedLoopParams(-1.0, 0.0, 1.0)
        assert count_roots(cl, SearchRect(-2.0, 0.0, -1.0, 1.0)) == 1

    def test_empty_region(self):
        cl = ClosedLoopParams(0.0, 0.0, 1.0)
        assert count_roots(cl, SearchRect(1.0, 2.0, -1.0, 1.0)) == 0

    def test_root_on_boundary_recovers_by_nudging(self):
        # the left edge passes exactly through the root at -1; the
        # count must survive via outward expansion
        cl = ClosedLoopParams(-1.0, 0.0, 1.0)
        assert count_roots(cl, SearchRect(-1.0, 0.0, -1.0, 1.0)) == 1
        # across the axis find_roots winds only the mirror hull, so a
        # root on the rectangle's shorter side must still count as inside
        cl = ClosedLoopParams(-1.0, -2.0, 1.0)
        s = find_roots(cl, SearchRect(-3.1, 0.5, 19.0, 21.0)).roots[0].s
        for rect in (SearchRect(-3.1, 0.5, -s.imag, 25.0), SearchRect(-3.1, 0.5, -25.0, s.imag)):
            assert find_roots(cl, rect).total_count == count_roots(cl, rect) == 8

    def test_subdivision_additivity(self):
        cl = ClosedLoopParams(1.0, -1.0, 1.0)
        whole = count_roots(cl, SearchRect(-3.6, 0.5, -21.7, 21.7))
        for cut in (-9.3, -2.6, 3.8, 11.1):
            top = count_roots(cl, SearchRect(-3.6, 0.5, cut, 21.7))
            bottom = count_roots(cl, SearchRect(-3.6, 0.5, -21.7, cut))
            assert top + bottom == whole

    @pytest.mark.parametrize("m", [1e-3, 1e-5, 1e-7, 1e-9])
    def test_edge_skimming_two_real_roots(self, m):
        # an edge at distance m from two real roots sees each one turn the
        # phase by nearly pi within about m of it; the focus knots from
        # the rectangle's stretch of the axis resolve that whether or not
        # the rectangle crosses the axis
        cl = TWO_REALS
        r1, r2 = sorted(r.s.real for r in spectrum(cl, 1).roots if r.s.imag == 0.0)
        assert count_roots(cl, SearchRect(r1 - 1.0, r2 + 1.0, m, 1.0)) == 0
        assert count_roots(cl, SearchRect(r1 - 1.0, r2 + 1.0, -1.0, -m)) == 0
        assert count_roots(cl, SearchRect(r1 - 1.0, r2 + 1.0, -1.0, m)) == 2
        truth = [r.s for r in spectrum(cl, 3).roots]
        for rect, n in ((SearchRect(-6.0, 1.0, m, 3.0 * math.pi), 1), (SearchRect(-6.0, 1.0, -3.0 * math.pi, -m), 1),
                        (SearchRect(r1 - 1.0, r2 + 1.0, -1.0, m), 2)):
            assert simple_roots_found(find_roots(cl, rect), truth, rect) == n

    def test_degenerate_rect_rejected(self):
        with pytest.raises(DomainError):
            SearchRect(1.0, 1.0, -1.0, 1.0)
        with pytest.raises(DomainError):
            SearchRect(0.0, 1.0, 2.0, -2.0)
        with pytest.raises(DomainError):
            SearchRect(0.0, math.inf, -1.0, 1.0)


class TestFindRoots:
    def test_three_branch_window(self):
        # alpha=-1, beta=-2, h=1: rightmost pair plus three more pairs
        cl = ClosedLoopParams(-1.0, -2.0, 1.0)
        rs = find_roots(cl, SearchRect(-3.1, 0.5, -21.0, 21.0))
        assert rs.total_count == 8
        expected = [
            complex(-0.092484, 1.99730),
            complex(-0.092484, -1.99730),
            complex(-1.36300, 7.80750),
            complex(-1.36300, -7.80750),
            complex(-1.95315, 14.0695),
            complex(-1.95315, -14.0695),
            complex(-2.32231, 20.3555),
            complex(-2.32231, -20.3555),
        ]
        assert len(rs.roots) == 8
        for root, ref in zip(rs.roots, sorted_roots(expected)):
            assert root.multiplicity == 1
            assert abs(root.s - ref) < 5e-4
            assert residual_ok(cl, root.s)

    def test_single_root(self):
        cl = ClosedLoopParams(-1.0, 0.0, 1.0)
        rs = find_roots(cl, SearchRect(-2.0, 0.0, -1.0, 1.0))
        assert rs.roots == (LocatedRoot(complex(-1.0, 0.0), 1),)

    def test_double_root_exact(self):
        # alpha=1, beta=-1, h=1 has a genuine double root at the origin
        cl = ClosedLoopParams(1.0, -1.0, 1.0)
        rs = find_roots(cl, SearchRect(-0.4, 0.4, -0.4, 0.4))
        assert rs.total_count == 2
        (root,) = rs.roots
        assert root.multiplicity == 2
        assert root.s == 0j

    def test_double_root_in_wide_window(self):
        cl = ClosedLoopParams(1.0, -1.0, 1.0)
        rs = find_roots(cl, SearchRect(-3.6, 0.5, -21.7, 21.7))
        assert rs.total_count == 8
        mults = sorted(r.multiplicity for r in rs.roots)
        assert mults == [1, 1, 1, 1, 1, 1, 2]
        double = max(rs.roots, key=lambda r: r.multiplicity)
        assert double.s == 0j

    def test_ordering(self):
        cl = ClosedLoopParams(-1.0, -2.0, 1.0)
        rs = find_roots(cl, SearchRect(-3.1, 0.5, -21.0, 21.0))
        keys = [(-r.s.real, r.s.imag) for r in rs.roots]
        assert keys == sorted(keys)

    def test_conjugate_symmetry(self):
        # real coefficients: f(conj s) = conj f(s), so below the axis, up
        # to the shorter half's height, the roots are the exact conjugates
        # of those above it
        def key(s):
            return s.real, s.imag

        cases = [
            (ClosedLoopParams(0.3, -2.4, 1.7), SearchRect(-4.0, 1.5, -10.0, 10.0)),
            # next to the branch point, on the rectangle cross_validate(cl, 2)
            # builds, where a pair 5e-5 off the axis must still mirror exactly
            (NEAR_BRANCH_POINT, _enclosing_rect(spectrum(NEAR_BRANCH_POINT, 2).roots, NEAR_BRANCH_POINT.h)),
        ] + ASYMMETRIC
        for cl, rect in cases:
            low = min(rect.im_max, -rect.im_min)
            bag = [r.s for r in find_roots(cl, rect).roots for _ in range(r.multiplicity) if abs(r.s.imag) < low]
            assert bag and sorted(bag, key=key) == sorted((s.conjugate() for s in bag), key=key)

    @pytest.mark.parametrize("cl, rect", ASYMMETRIC, ids=["taller-above", "taller-below"])
    def test_asymmetric_rect_agrees_with_spectrum(self, cl, rect):
        truth = [r.s for r in spectrum(cl, 8).roots for _ in range(r.multiplicity)]
        assert simple_roots_found(find_roots(cl, rect), truth, rect) == 5

    def test_off_axis_rect(self):
        # a window that avoids the real axis entirely
        cl = ClosedLoopParams(-1.0, -2.0, 1.0)
        rs = find_roots(cl, SearchRect(-3.1, 0.5, 1.0, 10.0))
        assert rs.total_count == 2
        ims = sorted(r.s.imag for r in rs.roots)
        assert abs(ims[0] - 1.99730) < 5e-4
        assert abs(ims[1] - 7.80750) < 5e-4

    @pytest.mark.parametrize("cl, rect, n", [
        (ClosedLoopParams(-1.0, -2.0, 1.0), SearchRect(-3.1, 0.5, 0.5 * math.pi, 41.0 * math.pi), 7),
        (ClosedLoopParams(0.5, 2.0, 0.7), SearchRect(-4.0, 1.5, 0.5 * math.pi / 0.7, 41.0 * math.pi / 0.7), 3),
    ], ids=["h1", "h0.7"])
    def test_tall_sparse_rect_off_axis(self, cl, rect, n):
        # about 40 pi/h strips, all above or all below the axis, whose
        # roots sit in the ones nearest it: the pass over the strips meets
        # the lines j*pi/h with j < 0 and stops once it holds every root
        mirror = SearchRect(rect.re_min, rect.re_max, -rect.im_max, -rect.im_min)
        above, below = find_roots(cl, rect), find_roots(cl, mirror)
        assert simple_roots_found(above, [r.s for r in spectrum(cl, 60).roots], rect) == n
        assert below.total_count == n
        assert [r.s for r in below.roots] == sorted_roots(r.s.conjugate() for r in above.roots)

    def test_closely_spaced_simple_roots_separate(self):
        # at h = 1e8 six simple roots sit 2*pi/h ~ 6.3e-8 apart, in a cell
        # below the bisection's minimum size; cuts at the root-free lines
        # Im s = j*pi/h separate them, though each root lies 1.6e-15 to
        # 4.7e-15 below such a line
        cl = ClosedLoopParams(-1.0, -2.0, 1e8)
        rect = SearchRect(-1e-7, 1e-7, 1e-7, 5e-7)
        assert count_roots(cl, rect) == 6
        rs = find_roots(cl, rect)
        assert rs.total_count == len(rs.roots) == 6
        assert all(r.multiplicity == 1 for r in rs.roots)
        ims = sorted(r.s.imag for r in rs.roots)
        for r in rs.roots:
            assert residual_ok(cl, r.s, tol=1e-13)
        for lo, hi in zip(ims, ims[1:]):
            assert hi - lo == pytest.approx(2.0 * math.pi / cl.h, rel=1e-6)

    @pytest.mark.parametrize("alpha, beta, h, rect, n", [
        (-4.715371764610683, -662.746456237954, 88.16817207436287,
         SearchRect(0.04955815185930507, 0.06228330330609371, -0.7717745241248456, 0.3571169362624423), 16),
        (0.5333610378421003, 893.4119044206329, 52.83757299427533,
         SearchRect(-0.09713038621647657, 0.3897788455680033, -0.5575306594949437, 3.0521625516828603), 30),
    ], ids=["beta-663", "beta+893"])
    def test_large_beta_roots_accepted_at_rounding_bound(self, alpha, beta, h, rect, n):
        # |beta| in the hundreds puts f's rounding error above 1e-13 at the
        # roots, so Newton stops there with |f| above that but within
        # _f_noise; each strip holds one root, so nothing else can place it
        cl = ClosedLoopParams(alpha, beta, h)
        truth = [r.s for r in spectrum(cl, 400).roots if rect.contains(r.s)]
        rs = find_roots(cl, rect)
        assert rs.total_count == len(rs.roots) == len(truth) == n
        for r in rs.roots:
            assert min(abs(r.s - s) for s in truth) <= 1e-14 * max(1.0, abs(r.s))

    @pytest.mark.parametrize("locate", [count_roots, find_roots])
    def test_tall_rect_raises_rather_than_miscount(self, monkeypatch, locate):
        # only the band |Im s| <= 2e^3 of the left edge at Re s = -3 is
        # walked, as Im f has the sign of Im s above it, and the other
        # edges take the closed form at any height; a coarser step than
        # pi/(4h) once gave a count of 4 at +-1e6, where 14 roots lie.
        # Newton runs only in the strips under that reach, 2e^3 =
        # |beta|e^{-re_min h}, not in the 159,155 above it at +-1e6.  A
        # walk of over 65,536 pieces still raises: at +-1e300 the
        # rounding slack widens the right edge's band past that, and at
        # Re s = -12 the band |Im s| <= 2e^12 of the left edge is itself
        # that long
        cl = ClosedLoopParams(-1.0, -2.0, 1.0)
        truth = sum(r.s.real > -3.0 for r in spectrum(cl, 1000).roots)
        assert truth == 14
        newton_runs = _newton_runs(monkeypatch)
        for height in (1e4, 1e5, 1e6):
            newton_runs.clear()
            got = locate(cl, SearchRect(-3.0, 1.0, -height, height))
            assert (got if locate is count_roots else got.total_count) == truth
            assert len(newton_runs) <= 8
        for rect in (SearchRect(-3.0, 1.0, -1e300, 1e300), SearchRect(-12.0, 1.0, -1e6, 1e6)):
            with pytest.raises(DomainError, match=r"takes over 65,536 pieces; shrink the rectangle"):
                locate(cl, rect)

    @pytest.mark.parametrize("locate", [count_roots, find_roots])
    def test_rect_given_as_a_sequence(self, locate):
        # any 4-sequence is read as (re_min, re_max, im_min, im_max) and
        # validated as a SearchRect; int bounds are read as floats
        cl = ClosedLoopParams(-1.0, -2.0, 1.0)
        assert locate(cl, (-3.0, 1.0, -5.0, 5.0)) == locate(cl, SearchRect(-3.0, 1.0, -5.0, 5.0))
        assert locate(cl, [-3.0, 1.0, -5.0, 5.0]) == locate(cl, SearchRect(-3.0, 1.0, -5.0, 5.0))
        assert locate(cl, (-3, 1, -5, 5)) == locate(cl, (-3.0, 1.0, -5.0, 5.0))
        # any other finite real counts as its float
        for kind in (Decimal, Fraction):
            assert locate(cl, (kind("-3.1"), 1, kind("-5.5"), 5.0)) == locate(cl, (-3.1, 1.0, -5.5, 5.0))
        for bad in ((-3.0, 1.0, 5.0, -5.0), (1.0, 1.0, -5.0, 5.0), (-3.0, 1.0, -5.0), 5.0):
            with pytest.raises(DomainError):
                locate(cl, bad)
        # a bound that is not a finite real number, a bool included (not
        # read as 0 or 1): DomainError, not a bare TypeError, OverflowError
        # or ValueError
        for bad in (True, "a", None, 5j, math.nan, math.inf, -math.inf, -10**400, Decimal("sNaN")):
            for at in range(4):
                rect = [-3.0, 1.0, -5.0, 5.0]
                rect[at] = bad
                with pytest.raises(DomainError):
                    locate(cl, rect)

    @pytest.mark.parametrize("locate", [count_roots, find_roots])
    def test_contour_past_the_double_range(self, locate):
        # f overflows all along [-800, -700] x [-1, 1], where no root lies
        # (each root there has |Im s| ~ e^750), and on the left part of
        # [-800, 1] x [-30, 30], which holds the 10 roots of spectrum(cl,
        # 4): the phase of f, read in logarithms, counts both, and find_roots
        # locates each root that spectrum lists.  Where s - alpha itself
        # overflows, beta = 0 included, the rectangle is counted too
        empty = 0 if locate is count_roots else RootSet((), 0)
        for far in ((-1e308, 0.0, 1e-300), (-1e308, 1.0, 1e-300)):
            assert locate(ClosedLoopParams(*far), (1e308, 1.0001e308, -1.0, 1.0)) == empty
        cl = ClosedLoopParams(-1.0, -2.0, 1.0)
        assert locate(cl, SearchRect(-800.0, -700.0, -1.0, 1.0)) == empty
        got = locate(cl, SearchRect(-800.0, 1.0, -30.0, 30.0))
        expected = [r.s for r in spectrum(cl, 4).roots]
        assert len(expected) == 10
        if locate is count_roots:
            assert got == 10
            return
        assert got.total_count == 10
        assert max(abs(r.s - s) for r, s in zip(got.roots, expected)) <= 1e-13

    @pytest.mark.parametrize("locate", [count_roots, find_roots])
    def test_tiny_beta_past_e709_is_evaluated(self, locate):
        # e^{-sh} passes the double range all along the left edge, but
        # |beta| = 1e-300 keeps beta*e^{-sh} inside it: f is finite there
        # (|f(-720 - i)| = 4.92e12), and the one root inside, real, is
        # s = alpha + W_{-1}(beta*h*e^{-alpha h})/h in 40-digit mpmath
        mpmath = pytest.importorskip("mpmath")
        cl = ClosedLoopParams(1.8e8, -1e-300, 1.0)
        rect = SearchRect(-720.0, -600.0, -1.0, 1.0)
        with mpmath.workdps(40):
            b, h = mpmath.mpf(cl.beta), mpmath.mpf(cl.h)
            inside = [s for s in mp_roots(cl, range(-3, 4), 40) if rect.contains(complex(s))]
            assert len(inside) == 1
            got = locate(cl, rect)
            if locate is count_roots:
                assert got == 1
                return
            assert got.total_count == 1
            (root,) = got.roots
            assert root.multiplicity == 1 and root.s.imag == 0.0
            x = mpmath.mpf(root.s.real)
            slope = abs(1 - b * h * mpmath.exp(-inside[0] * h))
            assert abs(x - inside[0]) <= _f_noise(cl, root.s.real, 0.0) / slope

    def test_rootset_multiplicity_bookkeeping(self):
        with pytest.raises(DomainError):
            RootSet(roots=(LocatedRoot(0j, 1),), total_count=2)


class TestCrossValidate:
    def test_double_root_case(self):
        rep = cross_validate(ClosedLoopParams(1.0, -1.0, 1.0), 3)
        assert rep.spectrum_count == rep.oracle_count == 8
        assert rep.max_distance < 1e-12

    def test_oscillatory_case(self):
        rep = cross_validate(ClosedLoopParams(-1.0, -2.0, 1.0), 4)
        assert rep.spectrum_count == rep.oracle_count == 10
        assert rep.max_distance < 1e-10

    def test_delay_free_case(self):
        rep = cross_validate(ClosedLoopParams(-1.0, 0.0, 1.0), 1)
        assert rep.spectrum_count == rep.oracle_count == 1
        assert rep.max_distance == 0.0

    def test_delay_free_loop_past_the_exponential_range(self):
        # with beta = 0, f = s - alpha is evaluated directly, also where
        # e^{-sh} overflows: neither the contour nor the real axis raises
        assert count_roots(ClosedLoopParams(-1.0, 0.0, 1.0), (-800.0, 1.0, -1.0, 1.0)) == 1
        rep = cross_validate(ClosedLoopParams(-1000.0, 0.0, 1.0), 2)
        assert rep.spectrum_count == rep.oracle_count == 1
        assert rep.max_distance == 0.0

    def test_positive_argument_case(self):
        # beta > 0 keeps one real root plus symmetric pairs
        rep = cross_validate(ClosedLoopParams(0.5, 2.0, 0.7), 4)
        assert rep.spectrum_count == rep.oracle_count == 9

    def test_mismatch_carries_report(self):
        with pytest.raises(MismatchDetected) as info:
            cross_validate(ClosedLoopParams(-1.0, -2.0, 1.0), 2, match_tol=1e-300)
        report = info.value.report
        assert isinstance(report, CrossValidation)
        assert report.spectrum_count == report.oracle_count == 6
        assert report.max_distance > 1e-300

    def test_count_mismatch_carries_report(self, monkeypatch):
        # an oracle that loses a root: the lists cannot be paired, so the
        # report has no distance to give
        locate = oracle.find_roots

        def one_short(cl, rect):
            found = locate(cl, rect)
            return RootSet(found.roots[:-1], found.total_count - found.roots[-1].multiplicity)

        monkeypatch.setattr(oracle, "find_roots", one_short)
        with pytest.raises(MismatchDetected, match="^root count differs: spectrum lists 8, oracle found 7$") as info:
            cross_validate(ClosedLoopParams(-1.0, -2.0, 1.0), 3)
        report = info.value.report
        assert report.spectrum_count == report.oracle_count + 1
        assert report.max_distance == math.inf

    def test_non_integer_branch_count(self):
        with pytest.raises(DomainError):
            cross_validate(ClosedLoopParams(-1.0, -2.0, 1.0), 2.5)

    def test_malformed_match_tol(self):
        # NaN would switch the distance check off, a negative value would
        # report every loop as a mismatch
        for bad in (math.nan, -1.0, math.inf, 10**400):
            with pytest.raises(DomainError, match="match_tol must be finite and non-negative"):
                cross_validate(ClosedLoopParams(-1.0, -2.0, 1.0), 2, match_tol=bad)
        # a string, a bool (True would read as 1.0), None or a complex
        # number is no tolerance at all
        for bad in ("1e-8", True, False, None, 1e-8j):
            with pytest.raises(DomainError, match="match_tol must be a real number"):
                cross_validate(ClosedLoopParams(-1.0, -2.0, 1.0), 2, match_tol=bad)
        assert cross_validate(ClosedLoopParams(-1.0, -2.0, 1.0), 2, match_tol=1).max_distance < 1e-10
        assert cross_validate(ClosedLoopParams(-1.0, 0.0, 1.0), 1, match_tol=0.0).max_distance == 0.0

    @pytest.mark.parametrize("h", [1e3, 1.5e3, 1e5])
    def test_time_rescaled_loop(self, h):
        # (alpha, beta, h) -> (alpha/h, beta/h, h) scales every root of the
        # (-1, -2, 1) loop by 1/h; the enclosing rectangle must scale with
        # them, or its contour reaches where e^{-sh} overflows, and so
        # must the walk: lattice knots at j*pi/(4h), focus knots at
        # multiples of their distance, hence the same number of phase
        # evaluations
        for n in (3, 30):
            base, _, base_calls = oracle_work(cross_validate, ClosedLoopParams(-1.0, -2.0, 1.0), n)
            rep, _, calls = oracle_work(cross_validate, ClosedLoopParams(-1.0 / h, -2.0 / h, h), n)
            assert rep.spectrum_count == rep.oracle_count == base.spectrum_count
            assert rep.max_distance * h <= 1e-12
            for side in ("re_min", "re_max", "im_min", "im_max"):
                assert getattr(rep.rect, side) * h == pytest.approx(getattr(base.rect, side), rel=1e-9)
            assert calls == base_calls

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
        beta=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False).filter(
            lambda b: b == 0.0 or abs(b) >= 1e-6),
        h=st.floats(min_value=0.2, max_value=3.0, allow_nan=False),
        n=st.integers(min_value=1, max_value=5),
    )
    def test_random_systems_agree(self, alpha, beta, h, n):
        cl = ClosedLoopParams(alpha, beta, h)
        # next to the branch point the real roots of branches 0 and -1
        # nearly coincide, and the oracle's real-axis sign analysis may
        # report them as one double root; skip that sliver
        z = cl.w_argument
        if abs(z + math.exp(-1.0)) <= 1e-9:
            return
        rep = cross_validate(cl, n)
        assert rep.spectrum_count == rep.oracle_count
        assert rep.max_distance <= 1e-8

    @pytest.mark.xfail(raises=MismatchDetected, strict=True,
                       reason="_df's form (s - alpha - beta) - beta*expm1(-sh) carries an error of eps*|beta|")
    @pytest.mark.parametrize("beta", [-1e9, -1e12, 1e12, -1e15])
    def test_large_beta_matches(self, beta):
        # at a root with Re(s) h >> 1, |s - alpha| = |beta|e^{-Re(s) h} is
        # far below eps*|beta|, so the oracle's roots drift (6.9e-10 and
        # 1.9e-7 relative), while spectrum's stay within a few ulps of
        # 50-digit mpmath; the match distance runs from 1.3e-8 to 1.2e-2
        cl = ClosedLoopParams(0.0, beta, 1.0)
        assert mp_root_error(cl, spectrum(cl, 3).roots, 50, floor=0) <= 1e-15
        cross_validate(cl, 3)

    def test_wide_parameter_space_agrees(self):
        # log-uniform delays and gains with unstable plants and long delays
        # push |beta*h*e^{-alpha*h}| down to ~1e-280, where a W kernel
        # with an absolute stopping rule drifts from the oracle by ~1e-6
        for cl in recipes.verify_space_loops(7, 400):
            rep = cross_validate(cl, 3)
            assert rep.spectrum_count == rep.oracle_count

    def test_located_roots_satisfy_equation(self):
        cl = ClosedLoopParams(0.8, -1.9, 2.3)
        sp = spectrum(cl, 3)
        lo = min(r.s.real for r in sp.roots) - 0.6
        hi = max(r.s.real for r in sp.roots) + 0.6
        band = math.pi / cl.h
        rs = find_roots(cl, SearchRect(lo, hi, -3.5 * 2 * band, 3.5 * 2 * band))
        assert rs.total_count >= sum(r.multiplicity for r in sp.roots)
        for root in rs.roots:
            assert residual_ok(cl, root.s)


# loops of the wide verify space whose rectangles cross many pi/h strips
H20 = (16.393277104736335, 9.11212309351023, 20.456574920080563)
H23 = (11.044532312121724, -0.04801816730893112, 23.14904106214897)


@pytest.mark.parametrize("alpha, beta, h, n, budget", [
    pytest.param(-1.0, -2.0, 1.0, 3, 4, id="h1-n3"),
    pytest.param(-1.0, -2.0, 1.0, 10, 4, id="h1-n10"),
    pytest.param(-1.0, -2.0, 1.0, 30, 4, id="h1-n30"),
    # |beta|e^{-uh} reaches ~1e15 at the left edge of these rectangles, so
    # the lines j*pi/h pass the first bound only right of a split knot;
    # walking them whole took 5,145 and 5,308 evaluations, and winding
    # both halves of the contour 92 and 76
    pytest.param(*H20, 30, 48, id="h20-n30"),
    pytest.param(*H23, 30, 40, id="h23-n30"),
])
def test_phase_evaluation_budget(alpha, beta, h, n, budget):
    # the oracle's work is its phase evaluations, here all on the upper
    # half of the rectangle's own contour: its mirror hull is the
    # rectangle itself; cheaper walks may lower the counts, never raise
    # them
    _, _, calls = oracle_work(cross_validate, ClosedLoopParams(alpha, beta, h), n)
    assert 0 < calls <= budget


@pytest.mark.parametrize("cl, rect", ASYMMETRIC, ids=["taller-above", "taller-below"])
def test_asymmetric_phase_evaluation_budget(cl, rect):
    # across the axis only the mirror hull is wound, four corners whose
    # edges all take the closed form; winding the rectangle too took 6
    _, _, calls = oracle_work(find_roots, cl, rect)
    assert 0 < calls <= 4


def _newton_runs(monkeypatch):
    """The list that each later oracle._newton run appends its result to."""
    runs = []
    newton = oracle._newton

    def counted(*args):
        runs.append(newton(*args))
        return runs[-1]

    monkeypatch.setattr(oracle, "_newton", counted)
    return runs


def _recorded_windings(monkeypatch):
    """The rectangles that find_roots winds from now on, in order."""
    windings = []
    winding = oracle._winding

    def recorded(cl, rect, focus):
        windings.append(rect)
        return winding(cl, rect, focus)

    monkeypatch.setattr(oracle, "_winding", recorded)
    return windings


@pytest.mark.parametrize("alpha, beta, h, n", [
    pytest.param(-1.0, -2.0, 1.0, 3, id="h1-n3"),
    pytest.param(-1.0, -2.0, 1.0, 10, id="h1-n10"),
    pytest.param(-1.0, -2.0, 1.0, 30, id="h1-n30"),
    pytest.param(*H20, 30, id="h20-n30"),
    pytest.param(*H23, 30, id="h23-n30"),
])
def test_winding_budget(monkeypatch, alpha, beta, h, n):
    # a winding is one argument-principle count around a rectangle: here
    # the rectangle, its own mirror hull, whose strips Newton resolves
    # without winding them; this budget may only ever be lowered
    windings = _recorded_windings(monkeypatch)
    cross_validate(ClosedLoopParams(alpha, beta, h), n)
    assert len(windings) == 1


# sha256 over repr(find_roots(...)) on each verify pool of the benchmark,
# in pool order, on the rectangles cross_validate builds
VERIFY_POOL_DIGESTS = {
    1: "01a82d634b014c39bbb4235ff314c6eb326ef080afa192149b83889e88bcfcfb",
    7919: "f2b134b962f619ba468e1781c6c5a275de4f621b7eeedfd3c9e60275823ff667",
}
# Newton runs of find_roots over each pool; these may only ever fall
VERIFY_POOL_NEWTON_RUNS = {1: 6267, 7919: 6268}
# Newton steps of find_roots on the real axis over each pool, in y and
# on _df; these may only ever fall
VERIFY_POOL_REAL_STEPS = {1: 2200, 7919: 2199}
# phase evaluations of find_roots over each pool; these may only ever
# fall: winding both halves of the mirror-symmetric contours, and
# walking whole vertical edges, took 10,359 and 9,022
VERIFY_POOL_PHASE_EVALS = {1: 3283, 7919: 3243}


def _verify_rects(seed):
    """(cl, rect) for each task of the benchmark's verify pool, rect the
    rectangle cross_validate builds."""
    pool = recipes.bench_module().verify_pool(delayw, seed)
    return [(cl, _enclosing_rect(spectrum(cl, n).roots, cl.h)) for cl, n in pool]


@pytest.mark.parametrize("seed", sorted(VERIFY_POOL_DIGESTS))
def test_find_roots_bits_on_verify_pools(monkeypatch, seed):
    # the located roots are pinned to the last bit: a faster search may
    # wind and evaluate less, but must land on exactly these roots
    tasks = _verify_rects(seed)
    windings = _recorded_windings(monkeypatch)
    newton_runs = _newton_runs(monkeypatch)
    digest = hashlib.sha256()
    real_steps = phase_evals = 0
    for cl, rect in tasks:
        rs, steps, phases = oracle_work(find_roots, cl, rect)
        digest.update(repr(rs).encode())
        real_steps += steps
        phase_evals += phases
    assert digest.hexdigest() == VERIFY_POOL_DIGESTS[seed]
    assert len(newton_runs) <= VERIFY_POOL_NEWTON_RUNS[seed]
    assert 0 < real_steps <= VERIFY_POOL_REAL_STEPS[seed]
    assert 0 < phase_evals <= VERIFY_POOL_PHASE_EVALS[seed]
    assert len(windings) <= len(tasks)


# verify-pool loops, with their branch counts, whose real roots Newton
# with a bisection net left 5 to 7.5 ulps off, outside the noise ball
NOISE_BALL_LOOPS = [
    ((8.946206350657334, -0.033277193174607554, 0.746972828850663), 3),
    ((-16.822134887854887, 0.0002430936429125217, 2.015397533390913), 10),
    ((-8.684904469463904, 0.0030137758665911593, 7.249915170825774), 30),
    ((-5.00142982877084, -0.005920376975767841, 0.010928265599487164), 10),
    ((14.83120062530643, -0.00018309125814590515, 12.686088364660929), 3),
]


def test_real_roots_within_noise_ball():
    # each simple real root find_roots returns lies within the noise
    # ball _f_noise/|f'| of the exact root, 50-digit mpmath: where _df
    # cannot tell f from zero; every 4th task of both verify pools, and
    # the loops above
    mpmath = pytest.importorskip("mpmath")
    tasks = _verify_rects(1)[::4] + _verify_rects(7919)[::4]
    for loop, n in NOISE_BALL_LOOPS:
        cl = ClosedLoopParams(*loop)
        tasks.append((cl, _enclosing_rect(spectrum(cl, n).roots, cl.h)))
    checked = 0
    with mpmath.workdps(50):
        for cl, rect in tasks:
            a, b, h = map(mpmath.mpf, cl)
            for r in find_roots(cl, rect).roots:
                if r.s.imag != 0.0 or r.multiplicity != 1:
                    continue
                x = r.s.real
                exact = mp_real_root(cl, x)
                ball = _f_noise(cl, x, 0.0) / abs(1 + b * h * mpmath.exp(-exact * h))
                assert abs(x - exact) <= ball, (cl, x, float(abs(x - exact) / ball))
                checked += 1
    assert checked >= 240


@pytest.mark.parametrize("alpha, beta, h, rect", [
    pytest.param(-1.0, -1e-300, 1e-30, (-3.0, 1.0, -1e30, 1e30), id="beta-h-underflows-neg"),
    pytest.param(0.5, 1e-300, 1e-30, (-3.0, 1.0, -1e30, 1e30), id="beta-h-underflows-pos"),
    pytest.param(-1.0, -1e-200, 1e-200, (-3.0, 1.0, -1.0, 1.0), id="tiny-h"),
    pytest.param(-1.0, 1e-320, 1.0, (-3.0, 1.0, -1.0, 1.0), id="subnormal-beta"),
])
def test_real_root_where_beta_h_leaves_the_normal_range(alpha, beta, h, rect):
    # beta*h rounds to 0 or is subnormal, where log(-beta*h) is no
    # use; the one root next to alpha comes back correctly rounded
    cl = ClosedLoopParams(alpha, beta, h)
    exact = float(mp_real_root(cl, alpha))
    rs = find_roots(cl, rect)
    assert rs.roots == (LocatedRoot(complex(exact, 0.0), 1),)


def test_real_root_where_the_delay_term_underflows_and_z_overflows():
    # on x = 1, |beta|e^{-xh} underflows to 0 while (|x| + |y|)h
    # overflows: the delay term adds nothing to f's noise, so the root
    # alpha is accepted rather than compared against a NaN bound
    cl = ClosedLoopParams(1.0, 1e-320, 1.7e308)
    assert _f_noise(cl, 1.0, 0.0) == _f_noise(ClosedLoopParams(1.0, 1e-320, 1.0), 1.0, 0.0)
    assert oracle._axis(cl, SearchRect(-1.5, 1.5, -1.0, 1.0)) == ((1.0,), [LocatedRoot(1.0 + 0j, 1)])


def test_real_roots_beside_x_ext():
    # next to the branch point f(x_ext) is at the rounding level, and the
    # sign scan may find a root where L rounds to 0 or above; on ranges
    # that end at or next to x_ext, each simple real root the scan
    # brackets comes back inside its range with |f| within _f_noise
    found = 0
    for cl, lo, hi in recipes.x_ext_ranges():
        _, reals = oracle._axis(cl, SearchRect(lo, hi, -1.0, 1.0))
        for r in reals:
            x = r.s.real
            if r.multiplicity == 1:
                assert lo <= x <= hi and abs(_df(cl, r.s, 0)) <= _f_noise(cl, x, 0.0), (cl, lo, hi, x)
                found += 1
    assert found >= 500


def test_find_roots_makes_no_w_call(monkeypatch):
    # the oracle is the W-free path of the two-path check: with every
    # function of delayw.lambertw raising, wherever it was imported, it
    # still locates the same roots on cross_validate's rectangles
    tasks = _verify_rects(1)[::4]
    want = [repr(find_roots(cl, rect)) for cl, rect in tasks]

    def no_w(*args):
        raise AssertionError("the oracle called into delayw.lambertw")

    patched = 0
    for module in [m for name, m in sys.modules.items() if name == "delayw" or name.startswith("delayw.")]:
        for name, value in list(vars(module).items()):
            if callable(value) and getattr(value, "__module__", None) == "delayw.lambertw":
                monkeypatch.setattr(module, name, no_w)
                patched += 1
    assert patched >= 8
    with pytest.raises(AssertionError, match="called into"):
        spectrum(tasks[0][0], 3)
    assert [repr(find_roots(cl, rect)) for cl, rect in tasks] == want


def test_at_most_one_root_per_strip():
    # find_roots isolates roots by pi/h strips alone: with z the real W
    # argument, the branch ranges of W put one root in each strip
    # [j*pi/h, (j+1)*pi/h] above the axis with j odd when z > 0, with j
    # even when z < 0, and none in the others
    for cl in recipes.strip_loops():
        h, beta = cl.h, cl.beta
        roots = [r.s for r in spectrum(cl, 6).roots]
        lo = min(s.real for s in roots) - 0.5 / h
        hi = max(s.real for s in roots) + 0.5 / h
        gap = math.pi / h
        for j in range(1, 11):
            n = count_roots(cl, SearchRect(lo, hi, j * gap, (j + 1) * gap))
            assert n == (1 if (j % 2 == 1) == (beta > 0.0) else 0), (cl, j, n)
            assert n == sum(j * gap < s.imag < (j + 1) * gap for s in roots), (cl, j, n)


# a cell above the axis whose partial top strip and the parity strips
# below it hold roots left of re_min, where Newton from their centres lands
OFF_AXIS_CELL = (ClosedLoopParams(-1.0, -2.0, 1.0), SearchRect(-3.1, 0.5, 0.5 * math.pi, 21.5 * math.pi))


@pytest.mark.parametrize("miss", ["fails-once", "lands-one-strip-down"])
def test_newton_shortfall_raises(monkeypatch, miss):
    # a Newton run that fails, or lands in another root's strip, leaves
    # the cell short of its count; no strip winding stands in for it
    cl, rect = OFF_AXIS_CELL
    newton = oracle._newton
    missed = []

    def missing(cl, s0, log_beta):
        # the first run that would hold a root misses it
        s = newton(cl, s0, log_beta)
        if missed or not (s is not None and rect.contains(s)):
            return s
        missed.append(s)
        return None if miss == "fails-once" else newton(cl, s0 - 2j * math.pi / cl.h, log_beta)

    monkeypatch.setattr(oracle, "_newton", missing)
    with pytest.raises(NoConvergence, match=r"^Newton placed 6 of the 7 roots of the cell around "):
        find_roots(cl, rect)
    assert missed


@pytest.mark.parametrize("cl, rect, wound", [
    pytest.param(*OFF_AXIS_CELL, OFF_AXIS_CELL[1], id="off-axis"),
    pytest.param(*ASYMMETRIC[0], SearchRect(-3.1, 0.5, -5.0 * math.pi, 5.0 * math.pi), id="taller-above"),
    pytest.param(*ASYMMETRIC[1], SearchRect(-4.0, 1.5, -7.0 * math.pi / 0.7, 7.0 * math.pi / 0.7), id="taller-below"),
    pytest.param(TWO_REALS, SearchRect(-3.0, -1.0, -0.5, 0.5), SearchRect(-3.0, -1.0, -math.pi, math.pi), id="thin"),
])
def test_find_roots_winds_one_rectangle(monkeypatch, cl, rect, wound):
    # find_roots counts a rectangle off the axis, and one across it only
    # on its mirror hull [-T, T], T at least pi/h; Newton places the
    # roots strip by strip, and no strip is ever wound
    want = find_roots(cl, rect)
    windings = _recorded_windings(monkeypatch)
    assert find_roots(cl, rect) == want
    assert windings == [wound]


def test_cells_above_the_axis_agree_with_spectrum():
    # rectangles wholly above the axis, for both signs of beta, with
    # partial strips at top and bottom and real ranges that cut some
    # strips' roots out: Newton from those strips' centres lands outside
    for cl, rect, roots in recipes.cells_above_axis():
        simple_roots_found(find_roots(cl, rect), roots, rect)


def test_straddling_rects_agree_with_spectrum():
    # the band between the lines -pi/h and pi/h holds the real roots and
    # at most one pair; on thin rectangles that pair lies outside and the
    # roots must still add up to the rectangle's count
    for cl, rect in recipes.straddling_rects():
        rs = find_roots(cl, rect)
        got = [r.s for r in rs.roots for _ in range(r.multiplicity)]
        expected = sorted_roots(r.s for r in spectrum(cl, 12).roots for _ in range(r.multiplicity)
                                if rect.contains(r.s))
        assert rs.total_count == len(got) == len(expected), (cl, rect)
        for s, ref in zip(got, expected):
            assert abs(s - ref) <= 1e-12 * max(1.0, abs(ref)), (cl, rect, s, ref)


@pytest.mark.parametrize("seed", [11, 23])
def test_edge_on_axis_rects_agree_with_spectrum(seed):
    # the real roots of a rectangle with an edge on the axis lie on that
    # edge: both find_roots and count_roots hold every root of the closed
    # rectangle and none further than 1e-9 outside it
    for cl, rect in recipes.edge_on_axis_rects(seed):
        roots = [r.s for r in spectrum(cl, 12).roots for _ in range(r.multiplicity)]
        inside = [s for s in roots if rect.contains(s)]
        near = [s for s in roots if rect.contains(s, 1e-9)]
        rs = find_roots(cl, rect)
        got = [r.s for r in rs.roots for _ in range(r.multiplicity)]
        assert len(inside) <= len(got) == rs.total_count == count_roots(cl, rect) <= len(near), (cl, rect)
        for s, pool in [(s, near) for s in got] + [(s, got) for s in inside]:
            assert min(abs(s - ref) for ref in pool) <= 1e-12 * max(1.0, abs(s)), (cl, rect, s)


@pytest.mark.parametrize("edge", [0.0, 1e-17, 1e-300, -1e-17, -1e-300])
def test_real_root_on_or_next_to_an_edge(edge):
    # the one real root of (-1, 0.2, 1) lies on the bottom edge of
    # [-3, 1] x [edge, 3], or within rounding of it, where it counts as
    # on the edge, and so inside; find_roots holds what count_roots
    # counts, and the rectangle's mirror below the axis the same
    cl = ClosedLoopParams(-1.0, 0.2, 1.0)
    real = LocatedRoot(complex(-0.6259832407340479, 0.0), 1)
    for rect in (SearchRect(-3.0, 1.0, edge, 3.0), SearchRect(-3.0, 1.0, -3.0, -edge)):
        rs = find_roots(cl, rect)
        assert rs.total_count == count_roots(cl, rect) == 1
        assert rs.roots == (real,)


@pytest.mark.parametrize("edge", [1e-17, 1e-300, -1e-300])
def test_edge_within_rounding_of_the_axis_takes_in_no_neighbour(edge):
    # the top edge lies on the axis to within the resolution of the focus
    # knots, so it is counted there: a nudge off it, 0.237 wide, would
    # take in the root -66.1065 - 198.7707i, 0.155 left of re_min
    cl = ClosedLoopParams(-2.095171586917628, -2.1030952658153725, 0.06955559880785149)
    rect = (-65.95166802068606, 9.926327042877025, -224.91506333163196, edge)
    on_axis = find_roots(cl, rect[:3] + (0.0,))
    assert on_axis.total_count == count_roots(cl, rect[:3] + (0.0,)) == 3
    assert find_roots(cl, rect) == on_axis and count_roots(cl, rect) == 3


def test_delay_free_loop_is_settled_at_the_entry():
    # with beta = 0, f = s - alpha: both entries answer whether the closed
    # rectangle holds alpha, an edge within 1e-14*max(1, |re_min|,
    # |re_max|) of the axis taken as on it, also where alpha lies on an
    # edge, where a winding meets the root and its nudges may not clear it
    cases = list(recipes.delay_free_rects())
    cases.append((ClosedLoopParams(-1.0722985209754519, 0.0, 0.773955687595389),
                  SearchRect(-1.072298520975456, -1.0722985209754519, -1e-17, 1e-17)))
    held = on_edge = 0
    for cl, rect in cases:
        near = 1e-14 * max(1.0, abs(rect.re_min), abs(rect.re_max))
        lo, hi = rect.im_min, rect.im_max
        on_axis = lo <= 0.0 <= hi or abs(lo) <= near < hi or abs(hi) <= near < -lo
        inside = on_axis and rect.re_min <= cl.alpha <= rect.re_max
        want = (LocatedRoot(complex(cl.alpha, 0.0), 1),) if inside else ()
        assert find_roots(cl, rect) == RootSet(want, len(want)), (cl, rect)
        assert count_roots(cl, rect) == len(want), (cl, rect)
        held += inside
        on_edge += inside and cl.alpha in (rect.re_min, rect.re_max)
    assert held > 200 and on_edge > 100, (held, on_edge)


def test_below_axis_rects_are_conjugates_of_their_mirror():
    # a rectangle below the axis is searched as its mirror above it, so
    # its roots are the conjugates of the mirror's to the last bit; the
    # same holds with an edge on the axis, where the real roots are
    # shared, and where a root on an edge makes the count nudge
    cases = recipes.below_axis_rects()
    # the right edge passes through the root at -1.3630 + 7.8075i
    cl = ClosedLoopParams(-1.0, -2.0, 1.0)
    s = next(r.s for r in spectrum(cl, 2).roots if r.s.imag > 5.0)
    cases.append((cl, SearchRect(-3.1, s.real, 1.0, 10.0)))
    for cl, rect in cases:
        mirror = SearchRect(rect.re_min, rect.re_max, -rect.im_max, -rect.im_min)
        above, below = find_roots(cl, rect).roots, find_roots(cl, mirror).roots
        expected = [LocatedRoot(r.s.conjugate() if r.s.imag else r.s, r.multiplicity) for r in above]
        assert below == tuple(sorted(expected, key=lambda r: (-r.s.real, r.s.imag))), (cl, rect)


def test_f_noise_bounds_df_error():
    # the one rounding bound behind the closed-form edges and Newton's
    # acceptance must cover _df's error, against 50-digit mpmath, near
    # roots, far from them and where s - alpha cancels
    mpmath = pytest.importorskip("mpmath")
    checked = 0
    with mpmath.workdps(50):
        for cl, s in recipes.f_noise_points():
            if -s.real * cl.h > 700.0:
                continue
            ms = mpmath.mpc(s.real, s.imag)
            exact = ms - mpmath.mpf(cl.alpha) - mpmath.mpf(cl.beta) * mpmath.exp(-ms * mpmath.mpf(cl.h))
            err = abs(mpmath.mpc(_df(cl, s, 0)) - exact)
            assert err <= _f_noise(cl, s.real, s.imag), (cl, s, float(err))
            checked += 1
    assert checked >= 1400


def test_near_branch_point_raise_budget():
    # next to the branch point the oracle's double-root snap in _axis
    # trips cross_validate on about half of these loops, almost all as a
    # mismatch of the near-double pair that Newton polishes in the strip
    # between the axis and pi/h; no loop may end in NoConvergence or
    # DomainError
    raised = Counter()
    for cl, _ in recipes.near_branch_point_loops(1, 600, (-17.0, -12.0)):
        try:
            cross_validate(cl, 2)
        except (MismatchDetected, BoundaryRootSuspected) as exc:
            raised[type(exc).__name__] += 1
    assert not over_budget("near_branch_point", raised)


def test_range_end_grid_raises_only_library_errors():
    # 2,601 loops at the ends of the double range: spectrum raises no
    # NoConvergence and returns no non-finite root, is_stable answers on
    # every loop, and the oracle and char_residual raise nothing but the
    # library's own errors.  The refusals of spectrum(cl, 3) and of
    # cross_validate(cl, 1) stay within BUDGETS, so that the loops that
    # answer, 1,721 and 312 today, may only grow
    refused, raised = Counter(), Counter()
    for cl in recipes.range_end_grid():
        try:
            roots = spectrum(cl, 3).roots
        except DomainError as exc:
            roots = ()
            refused[next((text for text in ("alpha*h overflows", "passes the double range") if text in str(exc)),
                         str(exc))] += 1
        assert all(cmath.isfinite(r.s) for r in roots), cl
        is_stable(cl)
        try:
            cross_validate(cl, 1)
        except DelayWError as exc:
            raised[type(exc).__name__] += 1
        calls = [lambda rect=rect: count_roots(cl, rect) for rect in recipes.RANGE_END_RECTS]
        for call in calls + [lambda: char_residual(cl, complex(-1e300, 1e300))]:
            try:
                call()
            except DelayWError:
                pass
    assert not over_budget("range_end_grid spectrum(cl, 3)", refused)
    assert not over_budget("range_end_grid cross_validate(cl, 1)", raised)


@pytest.mark.parametrize("locate", [count_roots, find_roots])
def test_im_s_h_past_the_double_range_raises(locate):
    # e^{-sh} has no phase where Im(s)*h overflows: the rectangle is
    # refused before any winding, and so is the nudge that the root s = 0
    # on the corner of the second one forces, which takes 2*Im s from
    # 1.797e308 past the range; a delay-free loop is answered at the entry
    with pytest.raises(DomainError, match=r"Im\(s\)\*h passes the double range on \(-1\.0, 1\.0, 1\d{10}\.0, 2\d{10}\.0\)"):
        locate(ClosedLoopParams(0.0, 1.0, 1e300), (-1.0, 1.0, 1e10, 2e10))
    with pytest.raises(DomainError, match=r"Im\(s\)\*h passes the double range on \(-1\.797e\+305, "):
        locate(ClosedLoopParams(1.0, -1.0, 2.0), (-1.0, 0.0, -8.985e307, 8.985e307))
    empty = 0 if locate is count_roots else RootSet((), 0)
    assert locate(ClosedLoopParams(0.0, 0.0, 1e300), (-1.0, 1.0, 1e10, 2e10)) == empty


def _census_raises(loops):
    """cross_validate(cl, n) over the (cl, n) loops: its raises by exception class."""
    raised = Counter()
    for cl, n in loops:
        try:
            cross_validate(cl, n)
        except DelayWError as exc:
            raised[type(exc).__name__] += 1
    return raised


def test_wide_space_census():
    # the two paths across the whole loop space, the W argument past the
    # double range, subnormal or flushed to 0 included, agree on every loop
    assert not over_budget("census", _census_raises(recipes.census()))


def test_underflow_band_census():
    # the oracle reads x_ext and log|beta h| from log|beta| + log h, not
    # from the rounded beta*h, and the two paths agree on every loop
    assert not over_budget("underflow_band", _census_raises(recipes.underflow_band()))


def test_census_roots_off_the_normal_range():
    # every census loop whose W argument is not a normal double (504 of
    # 2,300): spectrum returns each root within 1e-12 of the exact root,
    # relative to max(1, |s|), where one 60-digit mpmath Newton step on f
    # from s measures the distance.  The worst is about 2.4e-14; alpha +
    # w/h alone would give about 2.5e-12 from its cancellation at |alpha
    # h| ~ 2e4
    mpmath = pytest.importorskip("mpmath")
    loops = worst = 0
    with mpmath.workdps(60):
        for cl, n in recipes.census():
            alpha, beta, h = (mpmath.mpf(x) for x in cl)
            if sys.float_info.min <= abs(beta * h * mpmath.exp(-alpha * h)) <= sys.float_info.max:
                continue
            loops += 1
            for r in spectrum(cl, n).roots:
                s = mpmath.mpc(r.s.real, r.s.imag)
                e = beta * mpmath.exp(-s * h)
                worst = max(worst, float(abs((s - alpha - e) / (1 + h * e)) / max(1, abs(s))))
    assert loops == 504
    assert worst <= 1e-12


@settings(max_examples=200, deadline=None)
@given(
    h=st.floats(min_value=1e-2, max_value=1e2),
    horizontal=st.booleans(),
    offset=st.floats(min_value=-20.0, max_value=20.0),
    ends=st.lists(st.floats(min_value=-20.0, max_value=20.0), min_size=4, max_size=4, unique=True),
    focus=st.lists(st.floats(min_value=-20.0, max_value=20.0), max_size=2),
)
def test_edge_knots_depend_only_on_the_line(h, horizontal, offset, ends, focus):
    # knots sit on a lattice of the line alone: a walk along part of an
    # edge, such as either half of a split edge, samples exactly the
    # edge's own points there, in either direction
    lo, a, b, hi = sorted(ends)
    assume((hi - lo) * h <= 65536 * math.pi / 4.0)

    def at(x):
        return complex(x, offset) if horizontal else complex(offset, x)

    def along(s):
        return s.real if horizontal else s.imag

    full = _edge_knots(at(lo), at(hi), h, focus)
    inside = [s for s in full if a < along(s) < b]
    assert _edge_knots(at(a), at(b), h, focus) == inside
    assert _edge_knots(at(b), at(a), h, focus) == inside[::-1]
    assert _edge_knots(at(hi), at(lo), h, focus) == full[::-1]


def test_lattice_step_where_4h_overflows():
    # pi/(4h) is 0 where 4h overflows; 0.25*pi/h is the same double
    # wherever 4h is finite, and a subnormal step past it, so that the
    # walk and the knot split of an edge never divide by 0
    h = 1.7e308
    step = 0.25 * math.pi / h
    assert step > 0.0 and all(0.25 * math.pi / x == math.pi / (4.0 * x) for x in (1e-300, 1.0, 4e307))
    assert _edge_knots(0j, complex(0.0, 1e-307), h, ()) == [complex(0.0, j * step) for j in range(1, 22)]
    with pytest.raises(DelayWError):  # the roots, about 1e-308, are subnormal
        cross_validate(ClosedLoopParams(0.0, 1e-320, h), 1)


def test_phase_where_atan2_underflows():
    # f = 1e300 + 7.85e-301i at this lattice knot: cmath.phase raises
    # OverflowError as atan2 underflows, and the phase is read from
    # math.atan2 instead
    cl = ClosedLoopParams(-1e300, -1.7e308, 1e300)
    s = complex(1.0, 0.25 * math.pi / 1e300)
    assert _checked_phase(cl, s) == math.atan2(_df(cl, s, 0).imag, _df(cl, s, 0).real) == 0.0
    with pytest.raises(DomainError, match="takes over 65,536 pieces"):
        count_roots(cl, (-1.0, 1.0, -1.0, 1.0))


def test_edge_knots_cap_the_piece_count():
    # an edge takes at most 65,536 pieces of pi/(4h); a longer one raises,
    # as a coarser step would let a piece hide whole turns of the delay
    # term: 0 -> 1e5 at h = 10 would take 318,310
    step = math.pi / 40.0
    assert _edge_knots(0j, complex(65536.0 * step, 0.0), 10.0, ()) == \
        [complex(j * step, 0.0) for j in range(1, 65536)]
    with pytest.raises(DomainError, match=r"takes over 65,536 pieces; shrink the rectangle"):
        _edge_knots(0j, complex(1e5, 0.0), 10.0, ())


def _edge_decisions(monkeypatch):
    """Records how each later _edge_arg call decides its edge: a closed
    form makes no phase evaluation, a split evaluates its knot before any
    walk, and a walk evaluates inside _walk alone.  Returns decide(cl,
    sa, sb, pa, pb) -> (phase change, "closed" | "split" | "walked",
    knot or None)."""
    events = []
    phase, walk = oracle._checked_phase, oracle._walk

    def traced_phase(cl, s):
        events.append(("phase", s))
        return phase(cl, s)

    def traced_walk(*args):
        events.append(("walk", None))
        return walk(*args)

    monkeypatch.setattr(oracle, "_checked_phase", traced_phase)
    monkeypatch.setattr(oracle, "_walk", traced_walk)

    def decide(cl, sa, sb, pa, pb):
        events.clear()
        got = _edge_arg(cl, sa, sb, pa, pb, ())
        if not events:
            return got, "closed", None
        kind, at = events[0]
        return (got, "split", at) if kind == "phase" else (got, "walked", None)

    return decide


def _im_band(cl, c, ymax):
    """|beta|e^{-ch} with the Im f slack of a vertical edge at Re s = c
    up to |Im s| = ymax: outside it Im f has the sign of Im s."""
    return abs(cl.beta) * math.exp(-c * cl.h) * (1.0 + 2.0 ** -52 * (12.0 + 2.0 * (abs(c) + ymax) * cl.h))


def test_closed_form_agrees_with_walk(monkeypatch):
    # a closed-form edge, and a horizontal edge split at a lattice knot,
    # must give the phase change the knotted walk finds on the same edge
    decide = _edge_decisions(monkeypatch)
    fired = {}
    for kind, cl, sa, sb in recipes.closed_form_cases():
        try:
            pa, pb = _checked_phase(cl, sa), _checked_phase(cl, sb)
            walked = _walk(cl, sa, sb, pa, pb, ())
        except (BoundaryRootSuspected, DomainError):
            continue
        got, how, _ = decide(cl, sa, sb, pa, pb)
        assert abs(got - walked) <= 1e-9, (kind, cl, sa, sb, got, walked)
        hit = fired.setdefault(kind, [0, 0, 0])
        hit[0] += 1
        hit[1] += how == "closed"
        hit[2] += how == "split"
    # the closed form must fire often, splits must occur, and near the
    # bounds the closed form must both pass and fail
    assert fired["random"][1] >= fired["random"][0] // 4
    assert fired["line"][1] >= fired["line"][0] // 2 and fired["line"][2] > 0
    for kind in ("near-horizontal", "near-vertical"):
        assert 0 < fired[kind][1] < fired[kind][0]


def test_vertical_band_agrees_with_walk(monkeypatch):
    # on the line Re s = c, Im f = v + beta*e^{-ch}*sin(vh) has the sign
    # of v outside the band |v| <= _im_band: a vertical edge on one side
    # of the axis and outside the band takes the closed form, which must
    # give the phase change the knotted walk finds; an edge from the
    # axis is split past the band and walked below it only, and one
    # across the axis at both ends of the band; |c - alpha|
    # < |beta|e^{-ch} keeps the first vertical case off, and half the
    # edges start within 1e-10 relative of the band, on either side
    decide = _edge_decisions(monkeypatch)
    fired = {"band": 0, "inside": 0, "split": 0}
    for cl, c, y0, y1, side, sa, sb in recipes.vertical_band_edges():
        s0, sc = complex(c, 0.0), complex(c, -side * y0)
        try:
            pa, pb, p0, pc = (_checked_phase(cl, s) for s in (sa, sb, s0, sc))
            walked = _walk(cl, sa, sb, pa, pb, ())
            from_axis = _walk(cl, s0, sb, p0, pb, ())
            across = _walk(cl, sc, sb, pc, pb, ())
        except (BoundaryRootSuspected, DomainError):
            continue
        got, how, _ = decide(cl, sa, sb, pa, pb)
        assert abs(got - walked) <= 1e-9, (cl, sa, sb, got, walked)
        band = _im_band(cl, c, y1)
        fired["band" if y0 > band else "inside"] += 1
        if y0 > band:
            assert how == "closed", (cl, sa, sb)
        got, how, knot = decide(cl, s0, sb, p0, pb)
        if how == "split":
            assert knot.real == c and band < abs(knot.imag) < y1 and knot.imag * side > 0.0
            fired["split"] += 1
        assert abs(got - from_axis) <= 1e-9, (cl, sb, got, from_axis)
        got, _, _ = decide(cl, sc, sb, pc, pb)
        assert abs(got - across) <= 1e-9, (cl, sc, sb, got, across)
    assert min(fired.values()) >= 40, fired


def test_half_path_counts_agree_with_spectrum():
    # a rectangle symmetric about the axis is wound on its upper half
    # alone and the change doubled; that count must be the number of
    # spectrum roots inside, with every edge 1e-3 of the diameter clear
    # of every root
    for cl, rect, roots in recipes.half_path_rects():
        assert count_roots(cl, rect) == sum(rect.contains(s) for s in roots), (cl, rect)
