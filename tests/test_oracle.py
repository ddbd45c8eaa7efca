"""Tests for the argument-principle root oracle."""

import cmath
import math
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from delayw import (
    ClosedLoopParams,
    CrossValidation,
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
    spectrum,
)
from delayw.oracle import _edge_knots


def residual_ok(cl, s, tol=1e-12):
    return abs(char_residual(cl, s)) <= tol * max(1.0, abs(s))


def phase_evaluations(cl, n):
    """cross_validate(cl, n) and the number of phase evaluations it made:
    the calls of cmath.phase from delayw.oracle."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "c_call" and arg is cmath.phase and frame.f_globals.get("__name__") == "delayw.oracle":
            calls += 1

    sys.setprofile(profile)
    try:
        rep = cross_validate(cl, n)
    finally:
        sys.setprofile(None)
    return rep, calls


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

    def test_subdivision_additivity(self):
        cl = ClosedLoopParams(1.0, -1.0, 1.0)
        whole = count_roots(cl, SearchRect(-3.6, 0.5, -21.7, 21.7))
        for cut in (-9.3, -2.6, 3.8, 11.1):
            top = count_roots(cl, SearchRect(-3.6, 0.5, cut, 21.7))
            bottom = count_roots(cl, SearchRect(-3.6, 0.5, -21.7, cut))
            assert top + bottom == whole

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
        for root, ref in zip(rs.roots, sorted(expected, key=lambda s: (-s.real, s.imag))):
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
        cl = ClosedLoopParams(0.3, -2.4, 1.7)
        rs = find_roots(cl, SearchRect(-4.0, 1.5, -10.0, 10.0))
        bag = sorted((round(r.s.real, 9), round(r.s.imag, 9)) for r in rs.roots)
        mirrored = sorted((re, -im) for re, im in bag)
        assert bag == mirrored

    def test_off_axis_rect(self):
        # a window that avoids the real axis entirely
        cl = ClosedLoopParams(-1.0, -2.0, 1.0)
        rs = find_roots(cl, SearchRect(-3.1, 0.5, 1.0, 10.0))
        assert rs.total_count == 2
        ims = sorted(r.s.imag for r in rs.roots)
        assert abs(ims[0] - 1.99730) < 5e-4
        assert abs(ims[1] - 7.80750) < 5e-4

    def test_unseparated_simple_roots_raise(self):
        # at h = 1e8 six simple roots share a cell below the minimum size;
        # every root off the real axis is simple, so none is reported as
        # one multiple root
        cl = ClosedLoopParams(-1.0, -2.0, 1e8)
        rect = SearchRect(-1e-7, 1e-7, 1e-7, 5e-7)
        assert count_roots(cl, rect) == 6
        with pytest.raises(NoConvergence) as info:
            find_roots(cl, rect)
        assert "multiplicity" not in str(info.value)

    @pytest.mark.parametrize("locate", [count_roots, find_roots])
    def test_contour_overflow_raises(self, locate):
        # e^{-sh} passes the double range all along this rectangle
        with pytest.raises(DomainError, match=r"characteristic function overflows on the contour "
                                              r".*; shrink the rectangle"):
            locate(ClosedLoopParams(-1.0, -2.0, 1.0), SearchRect(-800.0, -700.0, -1.0, 1.0))

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

    def test_non_integer_branch_count(self):
        with pytest.raises(DomainError):
            cross_validate(ClosedLoopParams(-1.0, -2.0, 1.0), 2.5)

    def test_malformed_match_tol(self):
        # NaN would switch the distance check off, a negative value would
        # report every loop as a mismatch
        for bad in (math.nan, -1.0, math.inf):
            with pytest.raises(DomainError):
                cross_validate(ClosedLoopParams(-1.0, -2.0, 1.0), 2, match_tol=bad)
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
            base, base_calls = phase_evaluations(ClosedLoopParams(-1.0, -2.0, 1.0), n)
            rep, calls = phase_evaluations(ClosedLoopParams(-1.0 / h, -2.0 / h, h), n)
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

    def test_wide_parameter_space_agrees(self):
        # log-uniform delays and gains with unstable plants and long delays
        # push |beta*h*e^{-alpha*h}| down to ~1e-280, where a W kernel
        # with an absolute stopping rule drifts from the oracle by ~1e-6
        rng = __import__("random").Random(7)
        for _ in range(400):
            h = 10.0 ** rng.uniform(-2.0, 1.5)
            alpha = rng.uniform(-20.0, 20.0)
            beta = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-4.0, 2.0)
            rep = cross_validate(ClosedLoopParams(alpha, beta, h), 3)
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


@pytest.mark.parametrize("n, budget", [(3, 176), (10, 601), (30, 1930)])
def test_phase_evaluation_budget(n, budget):
    # the oracle's work is its phase evaluations; cheaper walks may lower
    # the counts, never raise them
    _, calls = phase_evaluations(ClosedLoopParams(-1.0, -2.0, 1.0), n)
    assert 0 < calls <= budget


@settings(max_examples=200, deadline=None)
@given(
    h=st.floats(min_value=1e-2, max_value=1e2),
    horizontal=st.booleans(),
    offset=st.floats(min_value=-20.0, max_value=20.0),
    ends=st.lists(st.floats(min_value=-20.0, max_value=20.0), min_size=4, max_size=4, unique=True),
    focus=st.lists(st.floats(min_value=-20.0, max_value=20.0), max_size=2),
)
def test_edge_knots_depend_only_on_the_line(h, horizontal, offset, ends, focus):
    # the per-call phase table pays off only if a walk along part of an
    # edge samples exactly the edge's own points there, in either direction
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


def test_edge_knots_cap_the_piece_count():
    # past 65,536 pieces of pi/(4h) the step doubles until the edge fits:
    # 0 -> 1e5 at h = 10 takes 32 times pi/(4h), and a walk along a
    # stretch at the same doubling samples the edge's own points
    step = 32.0 * math.pi / 40.0
    knots = _edge_knots(0j, complex(1e5, 0.0), 10.0, ())
    assert len(knots) == 39788
    assert knots == [complex(j * step, 0.0) for j in range(1, 39789)]
    assert _edge_knots(complex(5e3, 0.0), complex(9.5e4, 0.0), 10.0, ()) == \
        [s for s in knots if 5e3 < s.real < 9.5e4]
