import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    spectrum,
)

# published 6sf reference spectra for h = 1, upper-half representatives
REFERENCE = {
    (1.0, -1.0): [0.0 + 0.0j, -2.08880 + 7.46150j, -2.66407 + 13.8791j, -3.02630 + 20.2238j],
    (-1.0, -2.0): [-0.092484 + 1.99730j, -1.36300 + 7.80750j, -1.95315 + 14.0695j, -2.32231 + 20.3555j],
    (-1.0, -1.0): [-0.60502 + 1.78820j, -2.05280 + 7.71840j, -2.64736 + 14.0202j, -3.01658 + 20.3214j],
}


@pytest.mark.parametrize("ab", sorted(REFERENCE))
def test_reference_spectra(ab):
    alpha, beta = ab
    cl = ClosedLoopParams(alpha=alpha, beta=beta, h=1.0)
    spec = spectrum(cl, n_branches=3)
    by_branch = {r.branch: r.s for r in spec.roots}
    for k, want in enumerate(REFERENCE[ab]):
        got = by_branch[k]
        assert abs(got.real - want.real) < 1e-4
        assert abs(got.imag - want.imag) < 1e-4


def test_coalesced_double_root():
    # beta*h*e^{-alpha h} = -1/e exactly: branches 0 and -1 merge at s = alpha - 1/h
    cl = ClosedLoopParams(alpha=1.0, beta=-1.0, h=1.0)
    spec = spectrum(cl, n_branches=3)
    root0 = next(r for r in spec.roots if r.branch == 0)
    assert root0.multiplicity == 2
    assert root0.s == 0.0
    assert -1 not in {r.branch for r in spec.roots}
    assert sum(r.multiplicity for r in spec.roots) == 8


def _conditioned_tol(alpha, h, w):
    """Distance a root alpha + w/h may sit from the true one, from
    conditioning: the W argument carries a relative uncertainty rho (the
    kernel's 1e-14 residual plus the rounding of beta*h*e^{-alpha h}),
    which moves W by rho|w|/|1 + w|, or by at most sqrt(rho) next to the
    branch point.  A factor 4 covers the first-order constants."""
    eps = 2.220446049250313e-16
    rho = 1e-14 + 4.0 * eps * (1.0 + abs(alpha * h))
    dw = 4.0 * rho * abs(w) / max(abs(1.0 + w), math.sqrt(rho)) + 4.0 * eps * abs(w)
    return dw / h + 4.0 * eps * abs(alpha)


def test_coalescence_band_against_mpmath():
    # W arguments (1 + d)(-1/e) with 1e-15 <= |d| <= 1e-12, on both sides
    # of the branch point: the real pair (d < 0) or conjugate pair (d > 0)
    # of branches 0 and -1 sits sqrt(2|d|)/h apart, and each root must
    # match its 50-digit reference, not the branch point alpha - 1/h
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20)
    with mpmath.workdps(50):
        for i in range(200):
            h = 10.0 ** rng.uniform(-2.0, 1.0)
            alpha = rng.uniform(-5.0, 5.0)
            d = (1.0 if i % 2 else -1.0) * 10.0 ** rng.uniform(-15.0, -12.0)
            cl = ClosedLoopParams(alpha, BRANCH_POINT_Z * (1.0 + d) * math.exp(alpha * h) / h, h)
            spec = spectrum(cl, 0)
            got = {r.branch: r.s for r in spec.roots}
            if -1 not in got:
                assert spec.roots[0].multiplicity == 2
                got[-1] = got[0]
            z = mpmath.mpf(cl.beta) * cl.h * mpmath.exp(-mpmath.mpf(cl.alpha) * cl.h)
            for k in (0, -1):
                w = complex(mpmath.lambertw(z, k))
                assert abs(got[k] - (alpha + w / h)) <= _conditioned_tol(alpha, h, w), (cl, k, d)


def test_branches_past_one_thousand():
    # branch indices beyond 1024 are evaluated like any other
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    cl = ClosedLoopParams(alpha=-1.0, beta=-2.0, h=1.0)
    by_branch = {r.branch: r.s for r in spectrum(cl, 1100).roots}
    assert len(by_branch) == 2 * 1101
    z = mpmath.mpf(cl.beta) * cl.h * mpmath.exp(-cl.alpha * cl.h)
    for k in (1025, 1100):
        want = cl.alpha + mpmath.lambertw(z, k) / cl.h
        got = by_branch[k]
        assert abs(mpmath.mpc(got.real, got.imag) - want) <= 4 * 2.220446049250313e-16 * abs(want)


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
        assert margin == pytest.approx(spec.rightmost.real, abs=1e-14)
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
    rng = random.Random(1950)
    verdicts = set()
    for _ in range(2000):
        h = 10.0 ** rng.uniform(-2.0, 1.5)
        alpha = rng.uniform(-20.0, 20.0)
        beta = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-4.0, 2.0)
        stable = _hayes_stable(alpha, beta, h)
        assert is_stable(ClosedLoopParams(alpha, beta, h))[0] == stable, (alpha, beta, h)
        verdicts.add(stable)
    assert verdicts == {True, False}


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
    # e^{-alpha h} itself overflows, or only its product with beta*h
    cl = ClosedLoopParams(alpha, beta, 3.0)
    for call in (lambda: cl.w_argument, lambda: spectrum(cl, 2), lambda: is_stable(cl),
                 lambda: cross_validate(cl, 2)):
        with pytest.raises(NonFiniteInput, match=r"beta\*h\*e\^\(-alpha\*h\) overflows"):
            call()


@pytest.mark.parametrize("beta", [-1.0, 1.0])
def test_w_argument_underflow(beta):
    # W_0(0) still gives the rightmost root, W_k(0) for k != 0 diverges
    cl = ClosedLoopParams(300.0, beta, 3.0)
    assert is_stable(cl) == (False, 300.0)
    with pytest.raises(DomainError, match="underflows to 0"):
        spectrum(cl, 0)


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
