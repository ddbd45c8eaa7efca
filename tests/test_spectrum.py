import cmath
import math
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delayw
from delayw import (
    BRANCH_POINT_Z,
    K_MAX,
    ClosedLoopParams,
    DomainError,
    Gains,
    InvalidGain,
    NonFiniteInput,
    SystemParams,
    char_residual,
    close_loop,
    cross_validate,
    is_stable,
    lambert_w,
    spectrum,
)
from delayw.lambertw import _eval_complex
from delayw.spectrum import _RECORD_PASS, Spectrum, SpectrumRoot, _rightmost, _root, _w_arg

from recipes import bench_module, delay_margin_loops, mp_root_error, near_branch_point_loops, verify_space_loops

# published 6sf reference spectra for h = 1, upper-half representatives
REFERENCE = {
    (1.0, -1.0): [0.0 + 0.0j, -2.08880 + 7.46150j, -2.66407 + 13.8791j, -3.02630 + 20.2238j],
    (-1.0, -2.0): [-0.092484 + 1.99730j, -1.36300 + 7.80750j, -1.95315 + 14.0695j, -2.32231 + 20.3555j],
    (-1.0, -1.0): [-0.60502 + 1.78820j, -2.05280 + 7.71840j, -2.64736 + 14.0202j, -3.01658 + 20.3214j],
}


@pytest.mark.parametrize("ab", sorted(REFERENCE))
def test_reference_spectra(ab):
    # branches 0 to 3 within 1e-4 per component, each a simple root with
    # its exact conjugate on branch -k-1, but for the double root at 0
    alpha, beta = ab
    cl = ClosedLoopParams(alpha=alpha, beta=beta, h=1.0)
    spec = spectrum(cl, n_branches=3)
    by_branch = {r.branch: r for r in spec.roots}
    assert len(spec.roots) == 2 * len(REFERENCE[ab]) - (0j in REFERENCE[ab])
    for k, want in enumerate(REFERENCE[ab]):
        got = by_branch[k]
        assert abs(got.s.real - want.real) < 1e-4
        assert abs(got.s.imag - want.imag) < 1e-4
        assert got.multiplicity == (2 if want == 0j else 1)
        assert want == 0j or by_branch[-k - 1].s == got.s.conjugate()


def test_coalesced_double_root():
    # beta*h*e^{-alpha h} = -1/e exactly: branches 0 and -1 merge at s = alpha - 1/h
    cl = ClosedLoopParams(alpha=1.0, beta=-1.0, h=1.0)
    spec = spectrum(cl, n_branches=3)
    root0 = next(r for r in spec.roots if r.branch == 0)
    assert root0.multiplicity == 2
    assert root0.s == 0.0
    assert -1 not in {r.branch for r in spec.roots}
    assert sum(r.multiplicity for r in spec.roots) == 8


def test_coalescence_band_against_mpmath():
    # W arguments (1 + d)(-1/e) with 1e-15 <= |d| <= 1e-12, on both sides
    # of the branch point: the real pair (d < 0) or conjugate pair (d > 0)
    # of branches 0 and -1 sits sqrt(2|d|)/h apart, and each root must
    # match its 50-digit reference within the benchmark's conditioning
    # bound root_tolerance, not the branch point alpha - 1/h
    mpmath = pytest.importorskip("mpmath")
    root_tolerance = bench_module().root_tolerance
    with mpmath.workdps(50):
        for cl, d in near_branch_point_loops(20, 200, (-15.0, -12.0)):
            alpha, h = cl.alpha, cl.h
            spec = spectrum(cl, 0)
            got = {r.branch: r.s for r in spec.roots}
            if -1 not in got:
                assert spec.roots[0].multiplicity == 2
                got[-1] = got[0]
            z = mpmath.mpf(cl.beta) * cl.h * mpmath.exp(-mpmath.mpf(cl.alpha) * cl.h)
            for k in (0, -1):
                w = complex(mpmath.lambertw(z, k))
                assert abs(got[k] - (alpha + w / h)) <= root_tolerance(alpha, h, w), (cl, k, d)


def test_branches_past_one_thousand():
    # branch indices beyond 1024 are evaluated like any other
    cl = ClosedLoopParams(alpha=-1.0, beta=-2.0, h=1.0)
    roots = spectrum(cl, 1100).roots
    assert len({r.branch for r in roots}) == 2 * 1101
    assert mp_root_error(cl, [r for r in roots if r.branch in (1025, 1100)], 50, floor=0) <= 4 * 2.220446049250313e-16


@pytest.mark.parametrize("alpha, beta, h", [
    pytest.param(-1.0, 2.0, 1.0, id="z-positive"),
    pytest.param(0.0, -0.2, 1.0, id="z-above-branch-point"),
    pytest.param(-1.0, -2.0, 1.0, id="z-below-branch-point"),
])
def test_high_branches_share_the_kernel(alpha, beta, h):
    # spectrum checks z once and takes branches k >= 1 from the range
    # entry, forming alpha + w/h inline: the same seed, Halley path and
    # root arithmetic as lambert_w, so the same bits
    cl = ClosedLoopParams(alpha, beta, h)
    z = cl.w_argument
    roots = [r for r in spectrum(cl, 200).roots if r.branch >= 1]
    assert len(roots) == 200
    for r in roots:
        assert r.s == cl.alpha + lambert_w(r.branch, z).w / cl.h, r.branch


def test_rightmost_is_branch_zero():
    cl = ClosedLoopParams(alpha=-1.0, beta=-2.0, h=1.0)
    spec = spectrum(cl, n_branches=6)
    assert spec.rightmost == next(r.s for r in spec.roots if r.branch == 0)
    assert all(r.s.real <= spec.rightmost.real + 1e-15 for r in spec.roots)


def test_ordering():
    cl = ClosedLoopParams(alpha=0.3, beta=-2.5, h=0.7)
    spec = spectrum(cl, n_branches=5)
    keys = [(-r.s.real, r.s.imag) for r in spec.roots]
    assert keys == sorted(keys)


def test_beta_zero_single_root():
    cl = ClosedLoopParams(alpha=-1.5, beta=0.0, h=1.0)
    spec = spectrum(cl, n_branches=7)
    assert len(spec.roots) == 1
    assert spec.roots[0].s == -1.5
    assert spec.rightmost == -1.5


def test_root_counts_by_sign():
    h = 1.0
    n = 4
    pos = spectrum(ClosedLoopParams(0.0, 2.0, h), n)        # z > 0
    cut = spectrum(ClosedLoopParams(0.0, -3.0, h), n)       # z < -1/e
    mid = spectrum(ClosedLoopParams(0.0, -0.2, h), n)       # -1/e < z < 0
    assert len(pos.roots) == 2 * n + 1
    assert len(cut.roots) == 2 * n + 2
    assert len(mid.roots) == 2 * n + 2
    # the two real roots of the in-between regime
    reals = [r for r in mid.roots if r.s.imag == 0.0]
    assert {r.branch for r in reals} == {0, -1}
    assert reals[0].s.real > reals[1].s.real


def test_close_loop_direct():
    sys = SystemParams(a=1.0, a1d=-1.0, b=1.0, h=1.0)
    cl = close_loop(sys, Gains(k=-2.0, k1d=-1.0))
    assert (cl.alpha, cl.beta, cl.h) == (-1.0, -2.0, 1.0)


def test_close_loop_input_delay():
    sys = SystemParams(a=0.5, a1d=0.0, b=2.0, h=0.3, input_delay=True)
    cl = close_loop(sys, Gains(k=-1.25))
    assert (cl.alpha, cl.beta, cl.h) == (0.5, -2.5, 0.3)
    with pytest.raises(InvalidGain):
        close_loop(sys, Gains(k=-1.25, k1d=0.1))


def test_is_stable_matches_rightmost():
    loops = [(1.0, -1.0), (-1.0, -2.0), (0.5, -0.1), (-3.0, 0.0)]
    # W arguments within 5e-13 of -1/e on both sides, where branches 0 and
    # -1 give two real roots (or a conjugate pair) about 1e-6 apart
    loops += [(-0.5, (BRANCH_POINT_Z + d) * math.exp(-0.5)) for d in (1e-13, 5e-13, -5e-13)]
    for alpha, beta in loops:
        cl = ClosedLoopParams(alpha, beta, 1.0)
        stable, margin = is_stable(cl)
        spec = spectrum(cl, n_branches=2)
        assert margin == spec.rightmost.real
        assert stable == (margin < 0)


def _hayes_stable(alpha, beta, h):
    """W-free verdict of Hayes (J. London Math. Soc. 25, 1950): with
    a = alpha*h and b = beta*h, every root has Re s < 0 iff a < 1 and
    a < -b < sqrt(x^2 + a^2), x the root of x*cos(x) = a*sin(x) in (0, pi)."""
    a, b = alpha * h, beta * h
    if not a < 1.0:
        return False
    lo, hi = 0.0, math.pi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if mid * math.cos(mid) > a * math.sin(mid) else (lo, mid)
    return a < -b < math.hypot(lo, a)


def test_is_stable_agrees_with_hayes():
    verdicts = set()
    for cl in verify_space_loops(1950, 2000):
        stable = _hayes_stable(*cl)
        assert is_stable(cl)[0] == stable, cl
        verdicts.add(stable)
    assert verdicts == {True, False}


def test_is_stable_next_to_the_delay_margin():
    # beta < -|alpha| and h within 1e-12 to 1e-1 of the delay margin h*,
    # where the sign of Re s_0 cancels to about eps*|alpha|: the verdict
    # must match the rule evaluated in 50-digit mpmath on every loop
    mpmath = pytest.importorskip("mpmath")
    wrong = []
    with mpmath.workdps(50):
        for alpha, beta, h in delay_margin_loops():
            a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
            wm = mpmath.sqrt(b * b - a * a)
            if is_stable(ClosedLoopParams(alpha, beta, h))[0] != (h < mpmath.atan2(wm, a) / wm):
                wrong.append((alpha, beta, h))
    assert wrong == []


def test_validation_errors():
    with pytest.raises(DomainError):
        ClosedLoopParams(alpha=0.0, beta=1.0, h=0.0)
    with pytest.raises(DomainError):
        SystemParams(a=0.0, a1d=0.0, b=0.0, h=1.0)
    for h in (0.0, -1.0):
        with pytest.raises(DomainError):
            SystemParams(a=0.0, a1d=0.5, b=1.0, h=h)
    with pytest.raises(DomainError):
        SystemParams(a=0.0, a1d=0.5, b=1.0, h=1.0, input_delay=True)
    with pytest.raises(NonFiniteInput):
        ClosedLoopParams(alpha=math.nan, beta=1.0, h=1.0)
    with pytest.raises(NonFiniteInput):
        Gains(k=math.inf)
    # one rule for a real input, in every record and call that takes one
    cl = ClosedLoopParams(-1.0, -2.0, 1.0)
    plant = SystemParams(-1.0, 0.5, 1.0, 1.0)

    def run(init):
        return delayw.simulate(cl, init, 3.0, 0.01)

    def loop(beta):
        cl = ClosedLoopParams(-1.0, beta, 1.0)
        return spectrum(cl, 3), is_stable(cl), cross_validate(cl, 3)

    takes_real = {  # each call puts v in one field and uses the result
        "SystemParams": lambda v: delayw.assign_both(SystemParams(-1.0, v, 1.0, 0.5), -1.0 + 2.0j),
        "Gains": lambda v: spectrum(close_loop(plant, Gains(0.25, v)), 3),
        "ClosedLoopParams": loop,
        "ConstantHistory": lambda v: run(delayw.InitialData(1.0, delayw.ConstantHistory(v))),
        "LinearHistory": lambda v: run(delayw.InitialData(1.0, delayw.LinearHistory(1.0, v))),
        "SampledHistory": lambda v: run(delayw.InitialData(1.0, delayw.SampledHistory(((-1.0, v), (-0.5, 1.0))))),
        "InitialData": lambda v: run(delayw.InitialData(v, delayw.ConstantHistory(1.0))),
        "lambert_w_real": lambda v: delayw.lambert_w_real(0, v),
        "w0_boundary_point": delayw.w0_boundary_point,
        "alpha_choice": lambda v: delayw.assign_real_both(plant, 2.5, alpha_choice=v),
    }
    # not a real number, a bool included; NaN, an infinity, an int past
    # the double range, a signaling NaN
    bad_reals = [(bad, DomainError, "must be a real number") for bad in (True, "1.0", 1j, None)]
    bad_reals += [(bad, NonFiniteInput, "must be finite")
                  for bad in (math.nan, math.inf, -math.inf, 10**400, Decimal("sNaN"))]
    for bad, cls, text in bad_reals:
        for record, n in ((SystemParams, 4), (Gains, 2), (ClosedLoopParams, 3)):
            for at in range(n):  # in every field
                with pytest.raises(cls, match=text):
                    record(*(bad if i == at else 1.0 for i in range(n)))
    for name, call in takes_real.items():
        for bad, cls, text in bad_reals:
            if not (bad is None and name == "alpha_choice"):  # None: the default alpha
                with pytest.raises(cls, match=text):
                    call(bad)
        # any other finite real counts as its float, and an int as itself
        for value, same in ((2.0, (Decimal("2"), Fraction(2), 2)), (2.1, (Decimal("2.1"), Fraction("2.1")))):
            want = call(value)
            for v in same:
                assert call(v) == want, (name, v)
    # a record stores an int or a float as given, any other real as its float
    assert [type(x) for x in ClosedLoopParams(Decimal("-1"), Fraction(-2), 1)] == [float, float, int]
    assert ClosedLoopParams(-1, -2, 1) == ClosedLoopParams(-1.0, -2.0, 1.0)
    with pytest.raises(NonFiniteInput, match="s must be finite"):
        char_residual(ClosedLoopParams(-1.0, -2.0, 1.0), complex(math.nan, 1.0))
    for bad in ("x", None, [1.0], False):
        with pytest.raises(DomainError, match="s must be a number"):
            char_residual(ClosedLoopParams(-1.0, -2.0, 1.0), bad)
    with pytest.raises(NonFiniteInput, match="s must be finite"):
        char_residual(ClosedLoopParams(-1.0, -2.0, 1.0), 10**400)
    # whatever complex() takes, a numeric string included
    cl = ClosedLoopParams(-1.0, -2.0, 1.0)
    assert char_residual(cl, "1j") == char_residual(cl, 1j)
    # e^{-sh} overflows, for s itself finite, in modulus or in its phase
    # Im(s)*h, where cmath.exp raises ValueError
    for cl, s in ((ClosedLoopParams(-1.0, -2.0, 1.0), -800.0), (ClosedLoopParams(-1.0, -2.0, 10.0), -1e308),
                  (ClosedLoopParams(0.0, 0.0, 1e10), complex(-1e300, 1e300))):
        with pytest.raises(NonFiniteInput, match=r"e\^\(-s\*h\) overflows: exponent"):
            char_residual(cl, s)
    cl = ClosedLoopParams(alpha=0.0, beta=1.0, h=1.0)
    with pytest.raises(DomainError):
        spectrum(cl, n_branches=-1)
    with pytest.raises(DomainError):
        spectrum(cl, n_branches=K_MAX + 1)
    for bad in (2.5, 2.0, math.nan, True):
        with pytest.raises(DomainError):
            spectrum(cl, n_branches=bad)


@pytest.mark.parametrize("alpha, beta", [(-300.0, 1.0), (-230.0, 1e10)])
def test_w_argument_overflow(alpha, beta):
    # e^{-alpha h} itself overflows, or only its product with beta*h:
    # w_argument raises, while spectrum, is_stable and cross_validate read
    # Log z from the parameters and place every root to a few ulps
    cl = ClosedLoopParams(alpha, beta, 3.0)
    with pytest.raises(NonFiniteInput, match=r"beta\*h\*e\^\(-alpha\*h\) overflows"):
        cl.w_argument
    spec = spectrum(cl, 30)
    assert mp_root_error(cl, spec.roots) <= 5e-14
    assert is_stable(cl) == (spec.rightmost.real < 0.0, spec.rightmost.real)
    cv = cross_validate(cl, 2)
    assert cv.spectrum_count == cv.oracle_count == 5


@pytest.mark.parametrize("beta", [-1.0, 1.0])
def test_w_argument_underflow(beta):
    # z = +-3e-391 flushes to a signed zero: W_0(z) = 0 still gives the
    # rightmost root, and every other branch comes from Log z
    cl = ClosedLoopParams(300.0, beta, 3.0)
    assert cl.w_argument == 0.0 and math.copysign(1.0, cl.w_argument) == beta
    assert is_stable(cl) == (False, 300.0)
    spec = spectrum(cl, 30)
    assert spec.rightmost == 300.0
    assert len(spec.roots) == (62 if beta < 0.0 else 61)
    assert mp_root_error(cl, spec.roots) <= 5e-14


@pytest.mark.parametrize("alpha, beta, h", [(1.0, -1e300, 1e10), (1e-8, 1e300, 1e10), (-1e13, 1e-300, 1e-10),
                                            (-2.3e172, 1e-170, 1e-170), (744.0, 1e300, 1.0), (740.0, -1e300, 1.0)])
def test_w_argument_past_a_factor_overflow(alpha, beta, h):
    # beta*h overflows while e^{-alpha h} underflows (z is -0.0, not
    # NaN), one factor leaves the double range while z stays inside it,
    # or beta*h underflows to 0 while z = 7.7e-241, or e^{-alpha h} is
    # subnormal while z is normal: z and every root agree with mpmath
    mpmath = pytest.importorskip("mpmath")
    cl = ClosedLoopParams(alpha, beta, h)
    with mpmath.workdps(50):
        z = mpmath.mpf(beta) * h * mpmath.exp(-mpmath.mpf(alpha) * h)
        margin = float(alpha + mpmath.lambertw(z).real / h)
    assert cl.w_argument == pytest.approx(float(z), rel=1e-12)
    assert math.copysign(1.0, cl.w_argument) == math.copysign(1.0, beta)
    assert is_stable(cl) == (margin < 0.0, pytest.approx(margin, rel=1e-12))
    assert mp_root_error(cl, spectrum(cl, 10).roots) <= 5e-14


@pytest.mark.parametrize("alpha, beta, h", [(740.0, -1.0, 1.0), (300.0, -1.0, 3.0), (1.0, -1e300, 1e10)])
def test_second_real_root_below_the_normal_range(alpha, beta, h):
    # beta < 0 with z subnormal (4e-322, two bits) or flushed to -0.0:
    # branch -1 is the second real root, read from the sign of beta and
    # from Log z, and it stays exactly real
    cl = ClosedLoopParams(alpha, beta, h)
    roots = [r for r in spectrum(cl, 3).roots if r.branch in (0, -1)]
    assert [r.s.imag for r in roots] == [0.0, 0.0]
    assert mp_root_error(cl, roots) <= 5e-14


def test_alpha_h_overflow():
    # alpha*h overflows to +inf: z is -0.0, so the rightmost root is
    # alpha, but Log z, which every other branch needs, is not finite;
    # to -inf, z and Log z are both past the double range.  Every root is
    # finite there (at (-1e308, 1, 10) they are -70.9196209 + 2 pi i k/10),
    # but spectrum refuses to form them: it ends in a DomainError naming
    # alpha*h, never in NoConvergence or NaN, and is_stable reads the
    # rightmost root alone, as W_0 is Log z to double precision there
    cl = ClosedLoopParams(3.366325060362924e307, -0.28563946144005314, 66.67958104486705)
    assert cl.w_argument == 0.0
    assert is_stable(cl) == (False, cl.alpha)
    for n in (0, 3):
        with pytest.raises(DomainError, match=r"alpha\*h overflows for alpha = 3\.366325060362924e\+307"):
            spectrum(cl, n)
    cl = ClosedLoopParams(-1e308, 1.0, 10.0)
    with pytest.raises(NonFiniteInput, match=r"beta\*h\*e\^\(-alpha\*h\) overflows"):
        cl.w_argument
    with pytest.raises(DomainError, match=r"alpha\*h overflows for alpha = -1e\+308, h = 10\.0"):
        spectrum(cl, 3)
    stable, margin = is_stable(cl)
    assert stable and mp_root_error(cl, [SpectrumRoot(0, complex(margin))], dps=700) <= 2.0 * sys.float_info.epsilon


@pytest.mark.parametrize("alpha, beta, h", [
    (-1e308, -1.0, 10.0), (-1.7e308, 2.0, 1e10), (-1e300, -1e-300, 1e154),
    (-3.0, -1e200, 1e308), (-1e154, 1e-320, 1e155), (-1e154, 1.7e308, 1e155),
])
def test_rightmost_where_alpha_h_overflows(alpha, beta, h):
    # alpha*h is -inf, so W_0 = Log z - Log W_0 is Log z to double
    # precision: the rightmost root is (log|beta| - log(-alpha) + i*Im Log
    # z)/h, within a few ulps of 700-digit mpmath, and is_stable's margin
    # is its real part
    cl = ClosedLoopParams(alpha, beta, h)
    s0 = _rightmost(cl)
    assert mp_root_error(cl, [SpectrumRoot(0, s0)], 700, floor=0) <= 4 * sys.float_info.epsilon
    assert is_stable(cl)[1] == s0.real


@pytest.mark.parametrize("alpha, beta, h", [(-1e307, -1e-320, 1.0), (-1e154, -1e-300, 1e154)])
def test_huge_log_z_seeds(alpha, beta, h):
    # |Log z| is about 1e307 and 1e308: the seed's last term is below an
    # ulp there, and forming it made the seed NaN, so that Halley spent
    # its steps and raised NoConvergence.  Every root is within a few
    # ulps of 700-digit mpmath
    cl = ClosedLoopParams(alpha, beta, h)
    assert mp_root_error(cl, spectrum(cl, 3).roots, 700, floor=0) <= 4 * sys.float_info.epsilon
    assert is_stable(cl) == (True, _rightmost(cl).real)
    # the examples whose roots are next to the subnormal range
    assert len(spectrum(ClosedLoopParams(-1.0, -2.0, 1e308), 1).roots) == 4
    assert is_stable(ClosedLoopParams(-1.0, 2.0, 1e308)) == (False, _rightmost(ClosedLoopParams(-1.0, 2.0, 1e308)).real)


def test_roots_past_the_double_range_raise():
    # with h = 1e-320 every root but the rightmost is near -1.5e323, past
    # the double range: spectrum names the first such root it meets
    # instead of returning (-inf+-infj); is_stable reads only the
    # rightmost root, which is finite
    cl = ClosedLoopParams(0.0, 1e-320, 1e-320)
    with pytest.raises(DomainError, match=r"the root of branch 1 passes the double range: \(-inf\+infj\)"):
        spectrum(cl, 3)
    assert spectrum(cl, 0).roots == (SpectrumRoot(0, _rightmost(cl)),)
    assert is_stable(cl)[0] is False
    # only Im s_k passes it: z = 1, so Im W_k is about 2*pi*k - pi/2,
    # and Re s_3 is -5.7e307
    cl = ClosedLoopParams(0.0, 2e307, 5e-308)
    assert all(cmath.isfinite(r.s) for r in spectrum(cl, 1).roots)
    with pytest.raises(DomainError, match=r"the root of branch -3 passes the double range: \(-5\.7\d*e\+307-infj\)"):
        spectrum(cl, 3)


@pytest.mark.parametrize("alpha, beta, h, margin", [
    (-1e20, 1.0, 1.0, -46.051701859880914), (-1e17, 1.0, 1.0, -39.14394658089878),
    (1e20, 1.0, 1.0, 1e20), (1e20, -1.0, 1.0, 1e20), (-1e300, 1.0, 1e-5, -69077552.78982136)])
def test_huge_finite_alpha_h(alpha, beta, h, margin):
    # |alpha*h| is huge but finite: w is about -alpha*h, so alpha + w/h
    # would cancel to ulp(alpha*h)/h (Re s_0 = 0.0 instead of -46.05 at
    # (-1e20, 1, 1)); every root with |w| > 1 comes from log|beta*h| and
    # Log w instead.  The 60-digit reference keeps 40 digits past the
    # cancellation at 1e20; (-1e300, 1, 1e-5) needs 330
    cl = ClosedLoopParams(alpha, beta, h)
    assert is_stable(cl) == (margin < 0.0, margin)
    spec = spectrum(cl, 20)
    assert spec.rightmost.real == margin
    assert mp_root_error(cl, spec.roots, 60 if abs(alpha) < 1e100 else 330) <= 5e-14


finite = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
# |beta| below ~1e-6 with large |alpha*h| pushes the branch -1 root so far
# left that e^{-s h} is not representable; the residual oracle only makes
# sense where it can be evaluated
betas = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False).filter(
    lambda b: b == 0.0 or abs(b) >= 1e-6
)
delays = st.floats(min_value=0.05, max_value=5.0, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(alpha=finite, beta=betas, h=delays, n=st.integers(min_value=0, max_value=8))
def test_spectrum_properties(alpha, beta, h, n):
    cl = ClosedLoopParams(alpha=alpha, beta=beta, h=h)
    spec = spectrum(cl, n_branches=n)
    # every listed value is a characteristic root
    for r in spec.roots:
        res = abs(char_residual(cl, r.s))
        assert res <= 1e-10 * max(1.0, abs(r.s))
    # closed under conjugation, counting multiplicity
    vals = sorted((round(r.s.real, 9), round(r.s.imag, 9)) for r in spec.roots for _ in range(r.multiplicity))
    conj = sorted((round(r.s.real, 9), round(-r.s.imag, 9)) for r in spec.roots for _ in range(r.multiplicity))
    assert vals == conj
    # branch labels unique, rightmost dominates
    labels = [r.branch for r in spec.roots]
    assert len(labels) == len(set(labels))
    assert all(r.s.real <= spec.rightmost.real + 1e-12 for r in spec.roots)


@settings(max_examples=80, deadline=None)
@given(alpha=finite, beta=betas, h=delays)
def test_distinct_roots_across_branches(alpha, beta, h):
    cl = ClosedLoopParams(alpha=alpha, beta=beta, h=h)
    z = cl.w_argument
    if abs(z - BRANCH_POINT_Z) <= 1e-9:
        return  # near-coalescent pairs are legitimately close
    spec = spectrum(cl, n_branches=4)
    pts = [r.s for r in spec.roots]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert abs(pts[i] - pts[j]) > 1e-7 * max(1.0, abs(pts[i]))


def loop_spectrum(cl, n_branches):
    """spectrum with one SpectrumRoot call per record and one keyed sort:
    the reference that spectrum must match bit for bit, order included."""
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
        raise DomainError(f"alpha*h overflows for alpha = {cl.alpha!r}, h = {cl.h!r}; Log z is not finite")
    zc, az = complex(z), abs(z)
    w0 = lambert_w(0, z).w if lz is None else _eval_complex(0, zc, az, lz)[0]
    s0 = _root(cl, w0, lz)
    roots = [SpectrumRoot(0, s0)]
    if z < BRANCH_POINT_Z:
        roots.append(SpectrumRoot(-1, s0.conjugate()))
    elif cl.beta < 0.0:
        w1 = lambert_w(-1, z).w if lz is None else _eval_complex(-1, zc, az, lz)[0]
        if w1 == w0:
            roots[0] = SpectrumRoot(0, s0, 2)
        else:
            roots.append(SpectrumRoot(-1, _root(cl, w1, lz)))
    for k in range(1, n_branches + 1):
        sk = _root(cl, _eval_complex(k, zc, az, lz)[0], lz)
        roots.append(SpectrumRoot(k, sk))
        roots.append(SpectrumRoot(-k if cl.beta > 0.0 else -k - 1, sk.conjugate()))
    roots.sort(key=lambda r: (-r.s.real, r.s.imag))
    return Spectrum(roots=tuple(roots), rightmost=s0)


def spectrum_outcome(fn, cl, n):
    """Every bit of a spectrum (repr round-trips each float, -0.0
    included, with branch, multiplicity and order), or the error."""
    try:
        return repr(fn(cl, n))
    except (DomainError, NonFiniteInput) as exc:
        return f"{type(exc).__name__}: {exc}"


def enumerate_pool():
    """The benchmark's seed-1 enumerate pool: (cl, n, sampled branches)."""
    return bench_module().enumerate_pool(delayw, 1)


def test_matches_loop_reference_on_enumerate_pool():
    # every 8th task of the benchmark's seed-1 enumerate pool
    pool = enumerate_pool()[::8]
    assert len(pool) >= 50
    for cl, n, _ in pool:
        assert spectrum_outcome(spectrum, cl, n) == spectrum_outcome(loop_spectrum, cl, n), (cl, n)


CRAFTED_LOOPS = {
    "z-positive": ((-1.0, 2.0, 1.0), 300),
    "z-above-branch-point": ((0.0, -0.2, 1.0), 300),
    # beta*h*e^{-alpha h} = -1/e exactly: one double root
    "coalescence": ((1.0, -1.0, 1.0), 50),
    "z-below-branch-point": ((-1.0, -2.0, 1.0), 300),
    # a real pair 1e-6 apart and a conjugate pair next to the branch point
    "near-coalescence-real": ((-0.5, (BRANCH_POINT_Z + 5e-13) * math.exp(-0.5), 1.0), 50),
    "near-coalescence-pair": ((-0.5, (BRANCH_POINT_Z - 5e-13) * math.exp(-0.5), 1.0), 50),
    "beta-zero": ((-1.5, 0.0, 1.0), 20),
    "n-zero": ((-1.0, -2.0, 1.0), 0),
    # subnormal z: seeds left of exp's range take the log-form Newton
    "tiny-z": ((710.0, 1.0, 1.0), 200),
    "tiny-z-negative": ((710.0, -1.0, 1.0), 200),
    # |seed|*|z| overflows from some branch on: log-form Newton again
    "huge-z": ((0.0, 1e305, 1.0), 600),
    "huge-z-negative": ((0.0, -1e305, 1.0), 600),
    # z flushes to a signed zero, or alpha*h overflows: Log z from the
    # parameters, or a DomainError naming alpha*h
    "underflow": ((300.0, 1.0, 3.0), 5),
    "underflow-negative": ((300.0, -1.0, 3.0), 5),
    "alpha-h-overflow": ((3.366325060362924e307, -0.28563946144005314, 66.67958104486705), 3),
    # z is normal, but e^{-alpha h} is subnormal
    "subnormal-factor": ((744.0, 1e300, 1.0), 50),
    # alpha*h = -1e300: every root has Re s = -690.7755278982137, so the
    # branches k >= 1 do not come out in order and only the sort orders them
    "equal-real": ((-1e300, 1.0, 1.0), 50),
    "equal-real-negative": ((-1e300, -1.0, 1.0), 50),
}


@pytest.mark.parametrize("name", sorted(CRAFTED_LOOPS))
def test_matches_loop_reference_on_crafted_loops(name):
    (alpha, beta, h), n = CRAFTED_LOOPS[name]
    cl = ClosedLoopParams(alpha, beta, h)
    assert spectrum_outcome(spectrum, cl, n) == spectrum_outcome(loop_spectrum, cl, n)


@pytest.mark.parametrize("n", [0, 1, _RECORD_PASS - 1, _RECORD_PASS, _RECORD_PASS + 1, 300])
@pytest.mark.parametrize("name", ["z-positive", "z-below-branch-point", "z-above-branch-point", "coalescence",
                                  "equal-real", "equal-real-negative"])
def test_matches_loop_reference_on_both_record_paths(name, n):
    # below _RECORD_PASS branches spectrum builds each record in its
    # branch loop, from there on in one pass after it: z > 0, the cut,
    # two real roots, the double root and the two loops that take the
    # sort, on both sides
    cl = ClosedLoopParams(*CRAFTED_LOOPS[name][0])
    assert spectrum_outcome(spectrum, cl, n) == spectrum_outcome(loop_spectrum, cl, n)


def test_second_halley_step_share_on_enumerate_pool(monkeypatch):
    # the benchmark's whole seed-1 enumerate pool: from the asymptotic
    # seed through the L2*(L2 - 2)/(2*L1^2) term, the branches k >= 1 take
    # at most 5% more steps than one each.  A seed of s steps adds s - 1
    # >= [s >= 2], so this bounds the share taking a second step too
    pool = enumerate_pool()
    module = sys.modules["delayw.spectrum"]
    branches, counts = module._branches, [0, 0]

    def counted(z, az, ks, lz=None):
        out = branches(z, az, ks, lz)
        counts[0] += len(out[0])
        counts[1] += out[2]
        return out

    monkeypatch.setattr(module, "_branches", counted)
    for cl, n, _ in pool:
        spectrum(cl, n)
    n_branches, steps = counts
    assert n_branches == sum(n for _, n, _ in pool)
    assert steps - n_branches <= 0.05 * n_branches


def count_key_reads(monkeypatch):
    """Rebind spectrum's two sort keys to wrappers that record, per key,
    the branch of every record read."""
    module = sys.modules["delayw.spectrum"]
    reads = {}
    for name in ("_IMAG", "_REAL"):
        key, reads[name] = getattr(module, name), []

        def counted(r, key=key, branches=reads[name]):
            branches.append(r.branch)
            return key(r)

        monkeypatch.setattr(module, name, counted)
    return reads


def test_spectrum_sort_key_budget(monkeypatch):
    # every 8th task of the benchmark's seed-1 enumerate pool: branches
    # k >= 1 come out of the branch loop in order, and one compare orders
    # the 0/-1 head, so a call reads no sort key; the budget may only ever
    # be lowered
    reads = count_key_reads(monkeypatch)
    pool = enumerate_pool()[::8]
    assert len(pool) >= 50
    for cl, n, _ in pool:
        spectrum(cl, n)
        for branches in reads.values():
            assert not branches, (cl, n)


@pytest.mark.parametrize("name", ["equal-real", "equal-real-negative"])
def test_equal_real_parts_take_the_sort(monkeypatch, name):
    # no root is left of another, so spectrum sorts every record, as the
    # crafted-loop test checks against the reference
    (alpha, beta, h), n = CRAFTED_LOOPS[name]
    reads = count_key_reads(monkeypatch)
    roots = spectrum(ClosedLoopParams(alpha, beta, h), n).roots
    for branches in reads.values():
        assert sorted(branches) == sorted(r.branch for r in roots)
