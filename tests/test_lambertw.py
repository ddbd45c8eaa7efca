"""Tests for the multi-branch Lambert W kernel."""

import cmath
import math
import sys

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from delayw import lambertw
from delayw.errors import BranchOutOfRange, DomainError, NoConvergence, NonFiniteInput
from delayw.lambertw import (
    _EPS,
    _MAX_ITER,
    _ONE_STEP,
    _TOL,
    BRANCH_POINT_Z,
    K_MAX,
    lambert_w,
    lambert_w_real,
    on_w0_boundary,
    w0_boundary_point,
)
from delayw.spectrum import ClosedLoopParams, spectrum

from recipes import (BUDGETS, log_uniform_grid, micro_sample, mpmath_sample, predictive_stop_sample,
                     real_axis_arguments, scipy_sample, top_of_range_sample, wide_sample)

OMEGA = 0.56714329040978384  # W_0(1)


def residual_ok(k, z, budget=1e-13):
    res = lambert_w(k, z)
    w = res.w
    assert abs(w * cmath.exp(w) - z) <= budget * max(1.0, abs(z))
    return w


class TestPinnedValues:
    def test_w0_at_zero(self):
        res = lambert_w(0, 0.0)
        assert res.w == 0.0
        assert res.residual == 0.0
        assert res.iterations == 0

    def test_w0_at_e(self):
        assert lambert_w(0, math.e).w == pytest.approx(1.0, abs=1e-15)

    def test_omega_constant(self):
        assert lambert_w(0, 1.0).w.real == pytest.approx(OMEGA, abs=1e-16)
        assert lambert_w(0, 1.0).w.imag == 0.0

    def test_branch_point_both_real_branches(self):
        assert lambert_w(0, BRANCH_POINT_Z).w == -1.0
        assert lambert_w(-1, BRANCH_POINT_Z).w == -1.0
        assert lambert_w_real(0, BRANCH_POINT_Z) == -1.0
        assert lambert_w_real(-1, BRANCH_POINT_Z) == -1.0

    def test_branch_one_at_branch_point(self):
        w = lambert_w(1, BRANCH_POINT_Z).w
        assert w == pytest.approx(complex(-3.08884, 7.46149), abs=5e-5)

    def test_wm1_deep_value(self):
        # W_-1(-0.1): check through the defining identity rather than a
        # transcribed constant
        w = lambert_w_real(-1, -0.1)
        assert w < -1.0
        assert w * math.exp(w) == pytest.approx(-0.1, abs=1e-15)

    def test_small_argument_principal(self):
        # W_0(z) ~ z - z^2 for small z
        w = lambert_w(0, 1e-8).w
        assert w == pytest.approx(1e-8 - 1e-16, rel=1e-12)


class TestErrors:
    def test_branch_out_of_range(self):
        for k in (K_MAX + 1, -K_MAX - 1):
            with pytest.raises(BranchOutOfRange):
                lambert_w(k, 1.0)
        lambert_w(K_MAX, 1.0)
        lambert_w(-K_MAX, 1.0)

    def test_non_integer_branch(self):
        with pytest.raises(DomainError):
            lambert_w(0.5, 1.0)
        with pytest.raises(DomainError):
            lambert_w(True, 1.0)  # a bool is not a branch index

    def test_nonfinite(self):
        for bad in (math.nan, math.inf, complex(0, math.inf), 10**400):
            with pytest.raises(NonFiniteInput):
                lambert_w(0, bad)
        with pytest.raises(NonFiniteInput):
            lambert_w_real(0, 10**400)

    def test_not_a_number(self):
        # anything complex() rejects; what it takes, a numeric string
        # included, is evaluated
        for bad in ("x", None, [1.0]):
            with pytest.raises(DomainError, match="z must be a number"):
                lambert_w(0, bad)
            with pytest.raises(DomainError, match="x must be a real number"):
                lambert_w_real(0, bad)
        assert lambert_w(0, "1+1j") == lambert_w(0, 1 + 1j)
        # the real entry takes real numbers only, like every other real input
        with pytest.raises(DomainError, match="x must be a real number"):
            lambert_w_real(0, "1.0")

    def test_bool_is_not_a_number(self):
        # complex(True) and float(True) read 1: a bool must not pass as W(1)
        for value in (True, False):
            with pytest.raises(DomainError, match="z must be a number"):
                lambert_w(0, value)
            with pytest.raises(DomainError, match="x must be a real number"):
                lambert_w_real(0, value)
            with pytest.raises(DomainError, match="w must be a number"):
                on_w0_boundary(value, 1e-9)

    def test_origin_off_principal(self):
        with pytest.raises(DomainError):
            lambert_w(1, 0.0)
        with pytest.raises(DomainError):
            lambert_w(-1, 0.0)

    def test_real_domains(self):
        with pytest.raises(DomainError):
            lambert_w_real(0, BRANCH_POINT_Z - 1e-9)
        with pytest.raises(DomainError):
            lambert_w_real(-1, 0.0)
        with pytest.raises(DomainError):
            lambert_w_real(-1, 0.1)
        with pytest.raises(DomainError):
            lambert_w_real(2, 1.0)
        with pytest.raises(NonFiniteInput):
            lambert_w_real(0, math.nan)


def test_real_domains_exactly_real():
    # W_0 on [-1/e, inf) and W_-1 on [-1/e, 0) are real; the kernel must
    # return Im w == +0.0 there, for a float argument and for either
    # signed zero imaginary part, up to both ends of the double range
    for k, xs in zip((0, -1), real_axis_arguments()):
        for x in xs:
            for z in (x, complex(x, 0.0), complex(x, -0.0)):
                w = lambert_w(k, z).w
                assert w.imag == 0.0 and math.copysign(1.0, w.imag) == 1.0, (k, z, w)


class TestCutConvention:
    def test_signed_zero_normalized(self):
        # -0.0 imaginary part evaluates as the limit from above
        for k in (0, 1, -1, -2):
            above = lambert_w(k, complex(-1.0, 0.0)).w
            below_zero = lambert_w(k, complex(-1.0, -0.0)).w
            assert above == below_zero

    def test_cut_values_have_positive_imag_on_w0(self):
        w = lambert_w(0, complex(-2.0, 0.0)).w
        assert 0.0 < w.imag < math.pi

    def test_cut_conjugate_pairing(self):
        # on the cut the conjugate of branch k is branch -k-1
        for x in (-0.5, -2.0, -40.0):
            for k in (0, 1, 3):
                wk = lambert_w(k, complex(x, 0.0)).w
                wpair = lambert_w(-k - 1, complex(x, 0.0)).w
                assert abs(wk.conjugate() - wpair) <= 1e-13 * max(1.0, abs(wk))

    def test_continuity_from_above(self):
        for k in (0, 2, -3):
            on_cut = lambert_w(k, complex(-2.0, 0.0)).w
            near = lambert_w(k, complex(-2.0, 1e-12)).w
            assert abs(on_cut - near) <= 1e-9


class TestBoundaryCurve:
    def test_point_on_curve(self):
        p = w0_boundary_point(2.0)
        assert p.imag == 2.0
        assert on_w0_boundary(p, 1e-12)
        assert not on_w0_boundary(p + 0.1, 1e-6)
        assert not on_w0_boundary(complex(1.0, 4.0), 1e-6)

    def test_cut_image_lands_on_curve(self):
        # W_0 maps the cut onto the boundary curve
        w = lambert_w(0, complex(-3.0, 0.0)).w
        assert on_w0_boundary(w, 1e-9)

    def test_domain(self):
        for eta in (0.0, math.pi, -1.0, 4.0):
            with pytest.raises(DomainError):
                w0_boundary_point(eta)
        for bad in (0.0, math.nan, math.inf, -1.0, 10**400, "x", None, True):
            with pytest.raises(DomainError):
                on_w0_boundary(1j, bad)
        # eta and w as the record fields and lambert_w's z are checked
        for bad in ("x", None, True):
            with pytest.raises(DomainError, match="eta must be a real number"):
                w0_boundary_point(bad)
        for bad in ("x", None, [1.0]):
            with pytest.raises(DomainError, match="w must be a number"):
                on_w0_boundary(bad, 1e-9)
        for bad in (10**400, math.nan):
            with pytest.raises(NonFiniteInput, match="eta must be finite"):
                w0_boundary_point(bad)
            with pytest.raises(NonFiniteInput, match="w must be finite"):
                on_w0_boundary(bad, 1e-9)
        assert w0_boundary_point(2) == w0_boundary_point(2.0)


@st.composite
def complex_args(draw):
    scale = 10.0 ** draw(st.integers(min_value=-3, max_value=3))
    re = draw(st.floats(min_value=-6.0, max_value=6.0)) * scale
    im = draw(st.floats(min_value=-6.0, max_value=6.0)) * scale
    z = complex(re, im)
    assume(z != 0)
    return z


@settings(max_examples=150, deadline=None)
@given(k=st.integers(min_value=-50, max_value=50), z=complex_args())
def test_defining_identity(k, z):
    residual_ok(k, z)


@settings(max_examples=100, deadline=None)
@given(k=st.integers(min_value=-50, max_value=50), z=complex_args())
def test_conjugate_symmetry(k, z):
    assume(abs(z.imag) > 1e-12 * abs(z))
    assume(abs(z - BRANCH_POINT_Z) > 1e-8)
    wk = lambert_w(k, z).w
    wc = lambert_w(-k, z.conjugate()).w
    assert abs(wc - wk.conjugate()) <= 1e-13 * max(1.0, abs(wk))


@settings(max_examples=100, deadline=None)
@given(k=st.integers(min_value=-50, max_value=50), z=complex_args())
# just off the real sheet of W_-1 / W_1, where Im w is tiny but nonzero
@example(k=-1, z=complex(-0.03125, 9.154579230048015e-238))
@example(k=1, z=complex(-0.03125, -9.154579230048015e-238))
def test_band_membership_off_axis(k, z):
    # interior points stay strictly inside branch k's horizontal band.
    # The bands are asymmetric: each branch k != 0 is bounded on the
    # side facing the principal branch by the curve -t*cot(t) + i*t
    # rather than by a horizontal line, so its range extends one extra
    # pi toward zero (e.g. branch 1 reaches Im w down to 0, not pi).
    assume(z.imag != 0.0)
    w = lambert_w(k, z).w
    if k == 0:
        assert -math.pi < w.imag < math.pi
    elif k > 0:
        assert (2 * k - 2) * math.pi < w.imag < (2 * k + 1) * math.pi
    else:
        assert (2 * k - 1) * math.pi < w.imag < (2 * k + 2) * math.pi


@settings(max_examples=60, deadline=None)
@given(z=complex_args())
def test_branches_ordered_by_imag(z):
    # needs a genuinely off-axis argument: as Im z -> 0 the two real
    # branches' imaginary parts merge at machine zero
    assume(abs(z.imag) > 1e-12 * abs(z))
    ims = [lambert_w(k, z).w.imag for k in range(-4, 5)]
    assert all(lo < hi for lo, hi in zip(ims, ims[1:]))


@settings(max_examples=60, deadline=None)
@given(k=st.integers(min_value=-50, max_value=50), z=complex_args())
def test_band_envelope_everywhere(k, z):
    # covers the real axis too: the closure never moves a value by more
    # than one band
    w = lambert_w(k, z).w
    assert abs(w.imag - 2.0 * math.pi * k) <= 2.0 * math.pi


@settings(max_examples=100, deadline=None)
@given(x=st.floats(min_value=-1.0, max_value=10.0))
def test_real_identity_w0(x):
    # W(fl(x*e^x)) differs from x by the rounding of the argument times
    # W', which blows up like 1/|1+x| toward the branch point; the flat
    # budget is honest only away from it
    assume(abs(x + 1.0) >= 1e-2)
    arg = x * math.exp(x)
    w = lambert_w(0, arg).w
    assert w.imag == 0.0
    assert abs(w.real - x) <= 1e-13 * max(1.0, abs(x))
    assert lambert_w_real(0, arg) == w.real


@settings(max_examples=100, deadline=None)
@given(x=st.floats(min_value=-20.0, max_value=-1.0))
def test_real_identity_wm1(x):
    assume(abs(x + 1.0) >= 1e-2)
    arg = x * math.exp(x)
    w = lambert_w_real(-1, arg)
    assert abs(w - x) <= 1e-13 * max(1.0, abs(x))


@settings(max_examples=60, deadline=None)
@given(t=st.floats(min_value=1e-12, max_value=1e-2))
def test_real_identity_conditioned_near_branch_point(t):
    # one rounding of the argument moves the root by ~eps/t until the
    # square-root geometry caps it near sqrt(eps)
    eps = 2.220446049250313e-16
    budget = min(300.0 * eps / t, 4e-8) + 1e-13
    for x, branch in ((-1.0 + t, 0), (-1.0 - t, -1)):
        w = lambert_w_real(branch, x * math.exp(x))
        assert abs(w - x) <= budget
        if branch == 0:
            assert w >= -1.0
        else:
            assert w <= -1.0


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(min_value=BRANCH_POINT_Z, max_value=50.0),
    y=st.floats(min_value=BRANCH_POINT_Z, max_value=50.0),
)
def test_w0_monotone_real(x, y):
    lo, hi = sorted((x, y))
    assume(lo < hi)
    assert lambert_w_real(0, lo) <= lambert_w_real(0, hi)


class TestCrossChecks:
    def test_against_scipy(self):
        scipy_special = pytest.importorskip("scipy.special")
        for k, z in scipy_sample():
            # scipy's seeding loses accuracy near the branch point and
            # the cut; compare only on clearly separated arguments
            if abs(z - BRANCH_POINT_Z) < 0.05 or abs(z.imag) < 1e-6 or abs(z) < 1e-6:
                continue
            ours = lambert_w(k, z).w
            theirs = complex(scipy_special.lambertw(z, k))
            assert abs(ours - theirs) <= 1e-10 * max(1.0, abs(theirs))

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for k, z in mpmath_sample():
                if abs(z) < 1e-6 or (z.imag == 0 and z.real < 0):
                    continue
                ours = lambert_w(k, z).w
                theirs = complex(mpmath.lambertw(mpmath.mpc(z.real, z.imag), k))
                assert abs(ours - theirs) <= 1e-12 * max(1.0, abs(theirs))

    def test_near_branch_point_against_mpmath(self):
        # the seeding region scipy gets wrong; series + Halley must hold
        # full precision here
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for delta in (1e-14, 1e-10, 1e-6, 1e-3, 1e-2):
                for phase in (0.0, 0.7, 2.3, 3.9, 5.1):
                    z = BRANCH_POINT_Z + delta * cmath.exp(1j * phase)
                    for k in (0, -1, 1):
                        ours = lambert_w(k, z).w
                        theirs = complex(mpmath.lambertw(mpmath.mpc(z.real, z.imag), k))
                        assert abs(ours - theirs) <= 1e-12 * max(1.0, abs(theirs)), (k, z)

    def test_subnormal_arguments_against_mpmath(self):
        # exp(w) underflows for these, so the kernel switches to an
        # exponential-free log-space iteration
        mpmath = pytest.importorskip("mpmath")
        cases = [
            (1, 5e-324j),
            (-1, 5e-324j),
            (1, complex(5e-324, 0.0)),
            (3, complex(-1e-320, 2e-310)),
            (-50, complex(1e-310, 1e-312)),
            # next to the real sheet of W_-1, where the log-space iteration
            # straddles the negative axis
            (-1, complex(-5.56017e-319, 5e-324)),
            (1, complex(-3.7095074e-316, -5e-324)),
        ]
        with mpmath.workdps(60):
            for k, z in cases:
                ours = lambert_w(k, z).w
                theirs = complex(mpmath.lambertw(mpmath.mpc(z.real, z.imag), k))
                assert abs(ours - theirs) <= 1e-12 * abs(theirs), (k, z)

    def test_log_uniform_grid_against_mpmath(self):
        # |z| over the whole double range on the positive axis, the
        # negative axis (cut included) and off-axis; the stopping rule is
        # relative, so tiny and huge |z| get the same relative accuracy
        mpmath = pytest.importorskip("mpmath")
        # none next to the branch point, where the conditioning 1/|1+W| dominates
        eps = 2.220446049250313e-16
        with mpmath.workdps(50):
            for z, ks in log_uniform_grid():
                for k in ks:
                    ours = lambert_w(k, z).w
                    theirs = mpmath.lambertw(mpmath.mpc(z.real, z.imag), k)
                    err = abs(mpmath.mpc(ours.real, ours.imag) - theirs) / abs(theirs)
                    assert err <= 4 * eps, (k, z, float(err))

    def test_top_of_double_range_against_mpmath(self):
        # |z| from 1e300 up to the largest double, where |w|*|z|, and with
        # it Halley's step and residual floor, can leave the double range
        mpmath = pytest.importorskip("mpmath")
        eps = 2.220446049250313e-16
        with mpmath.workdps(50):
            for z in top_of_range_sample():
                for k in (0, 1, -1, 5, 1000, K_MAX):
                    ours = lambert_w(k, z).w
                    theirs = mpmath.lambertw(mpmath.mpc(z.real, z.imag), k)
                    err = abs(mpmath.mpc(ours.real, ours.imag) - theirs) / abs(theirs)
                    assert err <= 4 * eps, (k, z, float(err))

    def test_predictive_stop_against_mpmath(self):
        # away from the branch point Halley returns its next iterate once
        # the derived error bound 2*|dw|^3 is below an ulp of w; the
        # result must hold full precision on every branch and scale, and
        # the residual bound lambert_w documents
        mpmath = pytest.importorskip("mpmath")
        eps = 2.220446049250313e-16
        draws, ws = predictive_stop_sample()
        with mpmath.workdps(50):
            # W on both sides of the circle |1 + w| = 2 that bounds the region
            for w in ws:
                z = w * cmath.exp(w)
                k = min((-1, 0, 1), key=lambda j: abs(complex(mpmath.lambertw(mpmath.mpc(z.real, z.imag), j)) - w))
                draws.append((k, z))
            for k, z in draws:
                res = lambert_w(k, z)
                ours = res.w
                theirs = mpmath.lambertw(mpmath.mpc(z.real, z.imag), k)
                err = abs(mpmath.mpc(ours.real, ours.imag) - theirs) / abs(theirs)
                assert err <= 4 * eps, (k, z, float(err))
                assert res.residual <= (1e-14 + 4 * eps * (abs(1.0 + ours) + 2.0)) * abs(z), (k, z)


def test_halley_step_budget():
    # Halley and log-form Newton steps over micro's sample
    assert 0 < sum(lambert_w(k, z).iterations for k, z in micro_sample()) <= BUDGETS["micro_sample", "halley_steps"]


def loop_halley(z, az, w, lz=None):
    """_halley on one seed, forming its convergence test on every
    iteration, the first included: the reference that _halley must match
    bit for bit."""
    if w.real < lambertw._LOG_DOMAIN_RE or math.isinf(abs(w) * az):
        return lambertw._newton_log(z, w, az, lz)
    step_prev = math.inf
    for it in range(_MAX_ITER):
        ew = cmath.exp(w)
        f = w * ew - z
        res = abs(f)
        wp1 = w + 1.0
        fp = wp1 * ew
        afp = abs(fp)
        aw = abs(w)
        step_tol = _TOL * aw + 8.0 * _EPS * az / max(afp, 1e-300)
        res_floor = 2.0 * _EPS * (aw * afp + 2.0 * az)
        if res <= _TOL * az + res_floor and step_prev <= step_tol:
            return w, res, it
        if fp == 0.0:
            w = w + 1e-7
            step_prev = math.inf
            continue
        dw = f / (fp - f * (w + 2.0) / (2.0 * wp1))
        w = w - dw
        step_prev = abs(dw)
        if 2.0 * step_prev**3 <= _EPS * aw and abs(wp1) >= 2.0:
            return w, None, it + 1
    raise NoConvergence(f"Halley iteration did not converge for z={z!r} (last step {step_prev:.3e})")


def test_halley_matches_loop_reference(monkeypatch):
    # every seed the kernel polishes on micro's sample, the wide sample
    # and spectra whose W argument is off the normal range (so the
    # caller's Log z), fed to both: identical w bits for every seed, the
    # summed steps of every call and a single seed's whole (w, residual,
    # iterations); no caller reads the residual of several seeds
    calls, mismatches = 0, []

    def both(z, az, seeds, lz=None):
        nonlocal calls
        got = halley(z, az, seeds, lz)
        wants = [loop_halley(z, az, w, lz) for w in seeds]
        for w, g, want in zip(seeds, got[0], wants):
            calls += 1
            if repr(g) != repr(want[0]):
                mismatches.append((z, w, g, want))
        if len(got[0]) != len(seeds) or got[2] != sum(it for _, _, it in wants):
            mismatches.append((z, seeds, got, wants))
        if len(seeds) == 1 and repr((got[0][0],) + got[1:]) != repr(wants[0]):
            mismatches.append((z, seeds, got, wants))
        return got

    halley = lambertw._halley
    monkeypatch.setattr(lambertw, "_halley", both)
    for k, z in micro_sample() + wide_sample():
        lambert_w(k, z)
    # the top branches on both sides of |z| = 1e290, below which the
    # kernel skips its overflow check on |w|*|z|
    for k in (K_MAX, -K_MAX):
        for z in (1e289, 1e290, 1e291, -1e291, 1.7e308):
            lambert_w(k, z)
    for alpha, beta, h in ((740.0, 1.0, 1.0), (740.0, -1.0, 1.0), (300.0, -1.0, 3.0), (-300.0, -1.0, 3.0)):
        spectrum(ClosedLoopParams(alpha, beta, h), 50)
    assert calls >= 15000
    assert not mismatches, mismatches[:3]


def fresh_branch(z, az, k, lz):
    """W_k(z) from the asymptotic seed with Log z taken anew (or the
    caller's lz) and the seed polished by the loop reference: what the
    range entry, which forms Log z once, must give."""
    l1 = (cmath.log(z) if lz is None else lz) + lambertw._TWO_PI * k * 1j
    l2 = cmath.log(l1)
    return loop_halley(z, az, l1 - l2 + l2 / l1 + l2 * (l2 - 2.0) / (2.0 * l1 * l1), lz)


def test_branch_range_matches_fresh_halley(monkeypatch):
    # every range-entry call the kernel makes on micro's sample, the wide
    # sample and spectra over whole branch ranges, tiny and huge z among
    # them, against one fresh reference run per branch: identical w bits
    # for every branch, the summed steps of every call and a single
    # branch's whole (w, residual, iterations); no caller reads the
    # residual of several branches
    calls, mismatches = 0, []

    def both(z, az, ks, lz=None):
        nonlocal calls
        got = branches(z, az, ks, lz)
        wants = [fresh_branch(z, az, k, lz) for k in ks]
        for k, g, want in zip(ks, got[0], wants):
            calls += 1
            if repr(g) != repr(want[0]):
                mismatches.append((k, z, g, want))
        if len(got[0]) != len(ks) or got[2] != sum(it for _, _, it in wants):
            mismatches.append((ks, z, got, wants))
        if len(ks) == 1 and repr((got[0][0],) + got[1:]) != repr(wants[0]):
            mismatches.append((ks, z, got, wants))
        return got

    branches = lambertw._branches
    monkeypatch.setattr(lambertw, "_branches", both)
    monkeypatch.setattr(sys.modules["delayw.spectrum"], "_branches", both)
    for k, z in micro_sample() + wide_sample():
        lambert_w(k, z)
    # |z| = 1e290 and 1e291 sit on both sides of the kernel's overflow
    # check; at alpha*h = 700 every seed takes the log form, and at -45
    # and 150, |Re Log z| >> Im w, so seeds the fixed bound of one step
    # cannot close take the full predictive test, and some of them a
    # second step
    for alpha, beta, h in ((-1.0, 2.0, 1.0), (0.0, -0.2, 1.0), (-1.0, -2.0, 1.0), (710.0, 1.0, 1.0),
                           (710.0, -1.0, 1.0), (0.0, 1e305, 1.0), (0.0, -1e305, 1.0), (300.0, 1.0, 3.0),
                           (-300.0, -1.0, 3.0), (744.0, 1e300, 1.0), (0.0, 1e290, 1.0), (0.0, -1e291, 1.0),
                           (700.0, 1.0, 1.0), (-45.0, 1.0, 1.0), (150.0, 1.0, 1.0)):
        spectrum(ClosedLoopParams(alpha, beta, h), 600)
    assert calls >= 20000
    assert not mismatches, mismatches[:3]


def test_fixed_bound_implies_predictive_stop():
    # a first step with |dw| <= _ONE_STEP at Im w >= 2 passes the full
    # predictive stop, 2*|dw|^3 <= eps*|w| and |1 + w| >= 2, in doubles,
    # so closing it on that one compare gives the same bits
    hits = 0
    for im in (2.0, math.nextafter(2.0, 3.0), math.pi, 2.0 * math.pi, 1e3, 3e10):
        for re in (-3e10, -1e3, -1.0, 0.0, 1.0, 1e3, 3e10):
            w = complex(re, im)
            assert abs(w + 1.0) >= 2.0, w
            for d in (1.0, 1j, -1.0, -1j, 0.6 + 0.8j, -0.8 - 0.6j, cmath.exp(0.3j), cmath.exp(2.5j)):
                step = abs(_ONE_STEP * d)
                if step <= _ONE_STEP:
                    hits += 1
                    assert 2.0 * step**3 <= _EPS * abs(w), (w, d)
    # the four axis directions give |dw| = _ONE_STEP exactly
    assert hits >= 4 * 6 * 7


def test_spectrum_exp_budget():
    # the exponentials the kernel evaluates for spectrum(n=1000): mostly
    # one per branch, with no residual for the branches k >= 1; the
    # budget may only ever be lowered
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "c_call" and arg is cmath.exp and frame.f_globals.get("__name__") == "delayw.lambertw":
            calls += 1

    sys.setprofile(profile)
    try:
        spectrum(ClosedLoopParams(-1.0, -2.0, 1.0), 1000)
    finally:
        sys.setprofile(None)
    assert 0 < calls <= 1016


def test_spectrum_abs_budget():
    # the abs calls the kernel makes for spectrum(n=1000): one per branch
    # k >= 1 where the certificate of one step closes the seed, against
    # three for the full predictive test; the budget may only ever be
    # lowered
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "c_call" and arg is abs and frame.f_globals.get("__name__") == "delayw.lambertw":
            calls += 1

    sys.setprofile(profile)
    try:
        spectrum(ClosedLoopParams(-1.0, -2.0, 1.0), 1000)
    finally:
        sys.setprofile(None)
    assert 0 < calls <= 1100


class TestExtremeArguments:
    def test_real_wm1_near_zero(self):
        # w ~ log(-x) is far below exp's underflow threshold; the result
        # must still satisfy the defining identity within quantization
        for x in (-5e-324, -1e-310, -1e-306, -1e-300):
            w = lambert_w_real(-1, x)
            assert w < -690.0
            assert abs(w * math.exp(w) - x) <= 1e-14

    def test_tiny_z_stays_in_band(self):
        for k in (-3, -1, 1, 3):
            w = lambert_w(k, complex(1e-320, -3e-315)).w
            if k > 0:
                assert (2 * k - 2) * math.pi < w.imag < (2 * k + 1) * math.pi
            else:
                assert (2 * k - 1) * math.pi < w.imag < (2 * k + 2) * math.pi

    def test_principal_branch_tiny_z(self):
        r = lambert_w(0, 5e-324j)
        assert abs(r.w - 5e-324j) <= 1e-30
