"""Tests for the multi-branch Lambert W kernel."""

import cmath
import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from delayw.errors import BranchOutOfRange, DomainError, NonFiniteInput
from delayw.lambertw import (
    BRANCH_POINT_Z,
    K_MAX,
    lambert_w,
    lambert_w_real,
    on_w0_boundary,
    w0_boundary_point,
)

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
        for bad in (math.nan, math.inf, complex(0, math.inf)):
            with pytest.raises(NonFiniteInput):
                lambert_w(0, bad)

    def test_malformed_tolerance(self):
        for bad in (math.nan, -1.0, math.inf):
            with pytest.raises(DomainError):
                lambert_w(0, 1.0, tol=bad)
        # tol = 0 asks for the conditioning floor and stays valid
        assert abs(lambert_w(0, 1.0, tol=0.0).w - 0.5671432904097838) < 1e-15

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
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                on_w0_boundary(1j, bad)


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
        rng = __import__("random").Random(7)
        for _ in range(300):
            k = rng.randint(-8, 8)
            z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            # scipy's seeding loses accuracy near the branch point and
            # the cut; compare only on clearly separated arguments
            if abs(z - BRANCH_POINT_Z) < 0.05 or abs(z.imag) < 1e-6 or abs(z) < 1e-6:
                continue
            ours = lambert_w(k, z).w
            theirs = complex(scipy_special.lambertw(z, k))
            assert abs(ours - theirs) <= 1e-10 * max(1.0, abs(theirs))

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        rng = __import__("random").Random(11)
        for _ in range(40):
            k = rng.randint(-4, 4)
            z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            if abs(z) < 1e-6 or (z.imag == 0 and z.real < 0):
                continue
            ours = lambert_w(k, z).w
            theirs = complex(mpmath.lambertw(mpmath.mpc(z.real, z.imag), k))
            assert abs(ours - theirs) <= 1e-12 * max(1.0, abs(theirs))

    def test_near_branch_point_against_mpmath(self):
        # the seeding region scipy gets wrong; series + Halley must hold
        # full precision here
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
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
        mpmath.mp.dps = 60
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
        for k, z in cases:
            ours = lambert_w(k, z).w
            theirs = complex(mpmath.lambertw(mpmath.mpc(z.real, z.imag), k))
            assert abs(ours - theirs) <= 1e-12 * abs(theirs), (k, z)

    def test_log_uniform_grid_against_mpmath(self):
        # |z| over the whole double range on the positive axis, the
        # negative axis (cut included) and off-axis; the stopping rule is
        # relative, so tiny and huge |z| get the same relative accuracy
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        rng = __import__("random").Random(3)
        eps = 2.220446049250313e-16
        for i in range(300):
            r = 10.0 ** rng.uniform(-300.0, 300.0)
            z = (complex(r, 0.0), complex(-r, 0.0), r * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))[i % 3]
            if abs(math.e * z + 1.0) <= 1e-3:
                continue  # conditioning 1/|1+W| dominates next to the branch point
            for k in (0, 1, -1, 2, -2, 3, -3, K_MAX, -K_MAX,
                      rng.choice((-1000, -317, -40, 40, 317, 1000))):
                ours = lambert_w(k, z).w
                theirs = mpmath.lambertw(mpmath.mpc(z.real, z.imag), k)
                err = abs(mpmath.mpc(ours.real, ours.imag) - theirs) / abs(theirs)
                assert err <= 4 * eps, (k, z, float(err))


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
