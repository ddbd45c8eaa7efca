"""Multi-branch complex Lambert W function.

Evaluates W_k(z), the k-th branch of the inverse of w -> w*e^w, for any
integer branch index, including points on and near the branch cut
(-inf, -1/e) and the branch point -1/e.  Real arguments on the cut are
evaluated as the limit from above (counter-clockwise continuity), so a
-0.0 imaginary part is treated as +0.0.

The kernel is Halley's method on f(w) = w*e^w - z, started from one of
four seeds: a square-root series about the branch point, a rational
fit of the principal branch near the origin, the real-axis expansion of
W_-1 in log(-z) next to its real domain, or the asymptotic series in
L1 = Log z + 2*pi*i*k and L2 = Log L1 through L2*(L2 - 2)/(2*L1^2)
(Corless et al., "On the Lambert W function", Adv. Comput. Math. 5,
1996, eq. 4.19).  It runs at full double precision, with a stopping
rule relative to |z| and |w|, so accuracy does not depend on the scale
of the argument.  Away from the branch point it stops once a derived
bound puts the error of its next iterate below an ulp: from the
asymptotic seed, one step and one exp on about 24 branches in 25.
That seed has one entry for a range of branches of one z, which forms
Log z once, runs Halley on all of them in one loop and returns their
bare W values, with no record per branch; a single branch uses it too.
Over such a range one compare of the first step against a bound taken
from seeds the full test closed settles most seeds, with the same bits,
and the overflow check on |w|*|z| runs only where |z| > 1e290.  Real
arguments run through the same complex kernel;
on the two real domains (branch 0 on [-1/e, inf), branch -1 on [-1/e, 0))
every seed is real and the iterations keep Im w = +0.0, so w is real.
"""

import cmath
import math

from .errors import (BranchOutOfRange, DomainError, NoConvergence, _Record, _require_complex, _require_finite,
                     _require_tolerance)

__all__ = [
    "K_MAX",
    "BRANCH_POINT_Z",
    "WValue",
    "lambert_w",
    "lambert_w_real",
    "w0_boundary_point",
    "on_w0_boundary",
]

# Largest |k| the kernel evaluates.  W_k exists for every integer k;
# the bound sits well inside the range where the kernel stays within
# one eps of 50-digit mpmath (|k| up to 2^40, |z| over the double range).
K_MAX = 2**32

# z at which branches 0 and -1 meet, w = -1 there.
BRANCH_POINT_Z = -math.exp(-1.0)

_E = math.e
_EPS = 2.220446049250313e-16
_TWO_PI = 2.0 * math.pi
_MAX_ITER = 60
_TOL = 1e-14  # relative residual and step tolerance of Halley's method

# Coefficients of w = -1 + p - p^2/3 + ... about the branch point,
# p = sqrt(2*(e*z + 1)).
_BP_SERIES = (
    -1.0,
    1.0,
    -1.0 / 3.0,
    11.0 / 72.0,
    -43.0 / 540.0,
    769.0 / 17280.0,
)

# |p| below which the branch-point series alone is full double precision
# (next omitted term is ~0.03*|p|^6); Halley is skipped there because the
# vanishing derivative at the branch point makes its steps pure noise.
_BP_DIRECT = 5e-3

# Radius around -1/e inside which the series seeds the iteration.
_BP_SEED_RADIUS = 0.3

# Radius around the origin inside which the left half of the real sheet
# of W_-1 is seeded from its real-axis expansion.
_WM1_SEED_RADIUS = 0.3

# e as a double-double pair: math.e plus the digits rounding dropped.
_E_LO = 1.4456468917292502e-16

_SPLITTER = 134217729.0  # 2^27 + 1, Dekker's splitting constant


def _two_prod(a, b):
    """a*b as the rounded product plus its exact rounding error."""
    p = a * b
    ca = _SPLITTER * a
    a_hi = ca - (ca - a)
    a_lo = a - a_hi
    cb = _SPLITTER * b
    b_hi = cb - (cb - b)
    b_lo = b - b_hi
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, err


def _ez_plus_1(z):
    """e*z + 1, with the real part compensated for the cancellation at -1/e.

    The naive product keeps only half the digits of the difference
    there, and the square root in the branch-point series promotes that
    to ~1e-8 of absolute error in w.  Splitting the product recovers
    its rounding error and _E_LO restores the digits of e itself.  The
    double closest to -1/e sits on the far side of the true branch
    point by less than one ulp; for real z the clamp keeps the real
    branches pinned at w = -1 there instead of leaking a ~8e-9
    imaginary part.
    """
    prod, err = _two_prod(_E, z.real)
    re = (prod + 1.0) + (err + _E_LO * z.real)
    if re < 0.0 and z.imag == 0.0 and z.real >= BRANCH_POINT_Z:
        re = 0.0
    return complex(re, _E * z.imag + _E_LO * z.imag)


class WValue(_Record, fields="w residual iterations"):
    """Result of a Lambert W evaluation.

    Attributes
    ----------
    w : complex
        The branch value, satisfying ``w*exp(w) == z`` to ``residual``.
    residual : float
        ``abs(w*exp(w) - z)`` at the returned point.
    iterations : int
        Halley or log-form Newton steps taken (0 when a closed form or
        direct series evaluation sufficed).
    """

    __slots__ = ()

    def __new__(cls, w, residual, iterations):
        return tuple.__new__(cls, (w, residual, iterations))


def _bp_series(p):
    """Branch-point expansion w(p); exact at p = 0."""
    s = _BP_SERIES
    return s[0] + p * (s[1] + p * (s[2] + p * (s[3] + p * (s[4] + p * s[5]))))


def _pade0(z):
    """Rational fit of W_0 about the origin, degree (3, 2).

    Matches the Taylor series z - z^2 + 3/2 z^3 - ... through z^5; good
    to ~0.03 as a seed for |z| <= 2.
    """
    return z * (60.0 + z * (114.0 + 17.0 * z)) / (60.0 + z * (174.0 + 101.0 * z))


# exp(w) leaves the normal double range below this; Halley's f and f'
# turn into subnormal noise (or exact zeros) and the quotient is garbage
_LOG_DOMAIN_RE = -705.0


def _newton_log(z, w, az, lz):
    """Newton on g(w) = w + Log(w) - (Log(z) + 2*pi*i*m), exponential-free.

    Used when the seed lies so far left that exp(w) underflows, or when
    |w|*|z| overflows.  Any root of g satisfies w*e^w = z exactly; the
    integer m is pinned by the seed's band.  The defining residual is
    |z|*|exp(g) - 1|, reported to first order as |z|*|g|; az is |z|, inf
    past the largest double; lz is Log z as for _eval_complex.
    """
    lz = cmath.log(z) if lz is None else lz
    m = round((w.imag + cmath.phase(w) - lz.imag) / _TWO_PI)
    # Log(w) is continued from the seed w0 as Log(w0) + Log(w/w0): the
    # principal Log jumps by 2*pi*i across the negative axis, where the
    # real sheet of W_-1 lies, and a sign flip of a zero Im w would
    # otherwise throw the iteration into the neighbouring band
    w0 = w
    c = cmath.log(w0) - (lz + _TWO_PI * m * 1j)
    g = w + c
    it = 0
    for it in range(1, _MAX_ITER + 1):
        if abs(g) <= 4.0 * _EPS * abs(w):
            break
        w = w - w * g / (w + 1.0)
        g = w + cmath.log(w / w0) + c
    return w, az * abs(g) if az < math.inf else abs(z * abs(g)), it


_ITERATIONS = range(1, _MAX_ITER)

# |z| up to which |w|*|z| stays finite for every seed: see _halley
_AZ_FINITE = 1e290


def _halley(z, az, seeds, lz=None):
    """(ws, residual, steps): ws holds the root w of f(w) = w*e^w - z
    reached from each seed, in seed order, by Halley's method, or by the
    exponential-free iteration where Halley's quantities leave the double
    range.  steps is the sum of every seed's steps.  residual is |f(w)|
    for a single seed, None where the predictive stop below closed it,
    and is not defined over several.  Only single-seed callers read the
    two, so a range call builds no per-seed record.  z, az and lz as for
    _eval_complex.

    Halley stops once the residual is within _TOL*|z| and the last step
    within _TOL*|w|.  Both tolerances carry conditioning floors, scaled
    like the quantities they bound: the step cannot shrink below the
    noise of f divided by |f'| (which vanishes at the branch point), and
    the residual cannot shrink below |f'| times the quantization of w
    itself (which grows with |w|, i.e. with |k|); demanding less would
    spin until the iteration cap.

    Where u = 1 + w has |u| >= 2 it returns w - dw, residual None, once
    2*|dw|^3 <= eps*|w|.  With e = w - W, f*e^-w = w - W*e^-e exactly and
    e - dw = C*e^3 + O(e^4), C = 1/12 + 1/(6u) + 1/(4u^2), |C| <= 11/48.
    The stop needs |dw| <= 0.02 (|w| < 3e10 here), so w is within 0.3
    of a root, where |e - dw| <= 0.25*|dw|^3 (60-digit grid over u, e):
    the next error is below eps*|w|/8 plus the noise of f, as above.

    After the first step a certificate stands in for that test.  Let m
    be the least Im w >= 2 of a seed the test has closed after one step
    in this call, and t = 0.999*(eps*m/2)^(1/3).  A seed with Im w >= m
    and |dw| <= t has |1 + w| >= Im w >= 2, |w| >= m and 2*|dw|^3 <=
    0.997*eps*m <= eps*|w|, so the test would pass and the result is the
    same; the 0.3% covers the rounding of abs, pow and the products.  A
    range of branches k >= 1 has Im w growing with k, so most of its
    seeds close on one compare.  m and t choose the test, never the bits.

    The overflow check on |w|*|z| runs only where |z| > 1e290.  A
    nonzero double z has |Log z| < 746, so every seed of a branch with
    |k| <= K_MAX has |w| < 3e10 and |w|*|z| < 3e300.  A caller's Log z
    past that range comes with z = 0, where the product is 0 or NaN, or
    with |z| = inf, where the check runs.
    """
    ws = []
    append, inf = ws.append, math.inf
    # steps beyond one per seed, so a seed closed on the first step adds
    # nothing; only the full test and the log form set res, so a single
    # seed that the predictive stop closed keeps None
    extra, res = 0, None
    # no certificate until the full test has closed a seed with Im w >= 2
    m, t = inf, -1.0
    huge = az > _AZ_FINITE
    for w in seeds:
        # exp(w) underflows left of _LOG_DOMAIN_RE; Halley's residual floor
        # |w|*|f'| is about |w|*|z|, and where that leaves the double range
        # its quotients overflow too and the step reads 0
        if w.real < _LOG_DOMAIN_RE or (huge and math.isinf(abs(w) * az)):
            w, res, it = _newton_log(z, w, az, lz)
            append(w)
            extra += it - 1
            continue
        # the first step: there is no previous step to test yet
        ew = cmath.exp(w)
        f = w * ew - z
        wp1 = w + 1.0
        fp = wp1 * ew
        if fp == 0.0:
            # sitting exactly on the singular derivative; nudge off it
            w = w + 1e-7
            step_prev = inf
        else:
            dw = f / (fp - f * (w + 2.0) / (2.0 * wp1))
            step_prev = abs(dw)
            if step_prev <= t and w.imag >= m:
                append(w - dw)
                continue
            if 2.0 * step_prev**3 <= _EPS * abs(w) and abs(wp1) >= 2.0:
                if 2.0 <= w.imag < m:
                    m = w.imag
                    t = 0.999 * (0.5 * _EPS * m) ** (1.0 / 3.0)
                append(w - dw)
                continue
            w = w - dw
        for it in _ITERATIONS:
            ew = cmath.exp(w)
            f = w * ew - z
            wp1 = w + 1.0
            fp = wp1 * ew
            aw = abs(w)
            # the test needs a previous step; after a nudge step_prev is
            # inf and it cannot pass, so it is not formed.  The residual
            # is formed only once the step passes
            if step_prev < inf:
                afp = abs(fp)
                if step_prev <= _TOL * aw + 8.0 * _EPS * az / max(afp, 1e-300):
                    af = abs(f)
                    if af <= _TOL * az + 2.0 * _EPS * (aw * afp + 2.0 * az):
                        append(w)
                        res, extra = af, extra + it - 1
                        break
            if fp == 0.0:
                w = w + 1e-7
                step_prev = inf
                continue
            dw = f / (fp - f * (w + 2.0) / (2.0 * wp1))
            w = w - dw
            step_prev = abs(dw)
            if 2.0 * step_prev**3 <= _EPS * aw and abs(wp1) >= 2.0:
                append(w)
                extra += it
                break
        else:
            raise NoConvergence(f"Halley iteration did not converge for z={z!r} (last step {step_prev:.3e})")
    return ws, res, len(ws) + extra


def _eval_complex(k, z, az, lz=None):
    """Seed selection and iteration: the one kernel behind every argument.

    Takes a checked complex z, az = |z| (inf past the largest double) and
    lz, Log z of a real z formed by its caller (z may then be 0 or inf),
    or None; returns (w, residual or None, steps)."""
    # the sheet of W_-1 above the axis and of W_1 below it that is real on
    # [-1/e, 0)
    real_wm1 = (k == -1 and z.imag >= 0.0) or (k == 1 and z.imag < 0.0)
    # branch-point neighbourhood, on branch 0 and that real sheet only;
    # |z| <= 1 covers it and keeps abs() from overflowing
    if (k == 0 or real_wm1) and az <= 1.0 and abs(z - BRANCH_POINT_Z) <= _BP_SEED_RADIUS:
        p = cmath.sqrt(2.0 * _ez_plus_1(z))
        seed = _bp_series(p if k == 0 else -p)
        if abs(p) <= _BP_DIRECT:
            return seed, None, 0
        ws, res, it = _halley(z, az, (seed,))
    elif k == 0 and az <= 2.0 and z.real >= BRANCH_POINT_Z:
        ws, res, it = _halley(z, az, (_pade0(z),))
    elif real_wm1 and az <= _WM1_SEED_RADIUS and (z.real if lz is None else -lz.imag) < 0.0:
        # w = L - log(-L) with L = log(-z), the real-axis expansion as
        # z -> 0-; unlike log(z) + 2*pi*i*k it keeps a tiny Im w exact
        # instead of rounding it away against pi
        l1 = cmath.log(-z) if lz is None else complex(lz.real)
        ws, res, it = _halley(z, az, (l1 - cmath.log(-l1),), lz)
    else:
        ws, res, it = _branches(z, az, (k,), lz)
    return ws[0], res, it


def _branches(z, az, ks, lz=None):
    """_halley's (ws, residual, steps) for W_k(z), k in ks, from the
    asymptotic seed, with Log z formed once; z, az and lz as for
    _eval_complex."""
    if not ks:
        return [], None, 0
    lz = cmath.log(z) if lz is None else lz
    # past |Log z| = 1e150 the last term is below an ulp of the seed, and
    # from about 1e297 on 2*l1*l1 overflows and would make the seed NaN
    full = abs(lz.real) < 1e150
    seeds = []
    for k in ks:
        l1 = lz + _TWO_PI * k * 1j
        l2 = cmath.log(l1)
        seed = l1 - l2 + l2 / l1
        seeds.append(seed + l2 * (l2 - 2.0) / (2.0 * l1 * l1) if full else seed)
    return _halley(z, az, seeds, lz)


def lambert_w(k, z):
    """Evaluate branch k of the Lambert W function at z.

    Parameters
    ----------
    k : int
        Branch index, |k| <= K_MAX.
    z : complex
        Argument, any finite complex number, also one whose modulus
        passes the largest double.  A real part below -1/e with
        imaginary part +-0.0 is evaluated on the branch cut as the
        limit from above.

    Returns
    -------
    WValue
        Branch value with its residual and iteration count, where
        ``abs(w*exp(w) - z) <= (1e-14 + 4*eps*(abs(1 + w) + 2))*abs(z)``,
        eps = 2**-52: 1e-14 plus a few ulps of ``w*exp(w)`` and of ``z``.

    Raises
    ------
    BranchOutOfRange
        If |k| > K_MAX, the bound of the checked range; branches beyond
        it are rejected rather than approximated.
    NonFiniteInput
        If z is NaN or infinite, or an int past the double range.
    DomainError
        If k is not an int (a bool is rejected too), z is not a number
        (a bool, or anything complex() rejects), or z == 0 with k != 0 (every
        branch but the principal one diverges at the origin).
    NoConvergence
        If the iteration cap is hit; indicates a kernel bug.
    """
    if isinstance(k, bool) or not isinstance(k, int):
        raise DomainError(f"branch index must be an integer, got {k!r}")
    if abs(k) > K_MAX:
        raise BranchOutOfRange(f"|k| = {abs(k)} exceeds K_MAX = {K_MAX}")
    z = _require_complex("z", z)
    if z == 0:
        if k == 0:
            return WValue(complex(0.0, 0.0), 0.0, 0)
        raise DomainError("W_k(0) diverges for k != 0")
    if z.imag == 0.0:
        z = complex(z.real, 0.0)  # -0.0 -> +0.0: cut values are the limit from above
    try:
        az = abs(z)
    except OverflowError:
        az = math.inf  # finite parts, modulus past the largest double
    w, res, it = _eval_complex(k, z, az)
    if res is None:
        res = abs(w * cmath.exp(w) - z)
    # WValue.__new__'s record without its Python frame
    return tuple.__new__(WValue, (complex(w), res, it))


def lambert_w_real(branch, x):
    """Real-valued W on the two branches that are real on part of the axis.

    The domain checks of the real branches in front of ``lambert_w``,
    whose result is exactly real on these domains.

    Parameters
    ----------
    branch : {0, -1}
        0 needs x >= -1/e; -1 needs -1/e <= x < 0.
    x : float
        A real number, not a bool or a string: DomainError otherwise,
        NonFiniteInput for NaN, an infinity or an int past the double range.

    Returns
    -------
    float
        W_0(x) >= -1, monotone increasing, or W_{-1}(x) <= -1, monotone
        decreasing, respectively.
    """
    x, = _require_finite("x", x)
    if branch == 0:
        if x < BRANCH_POINT_Z:
            raise DomainError(f"W_0 is real only for x >= -1/e, got {x}")
    elif branch == -1:
        if not BRANCH_POINT_Z <= x < 0.0:
            raise DomainError(f"W_-1 is real only for -1/e <= x < 0, got {x}")
    else:
        raise DomainError(f"real evaluation exists only for branches 0 and -1, got {branch}")
    return lambert_w(branch, x).w.real


def w0_boundary_point(eta):
    """Point of the upper boundary curve of the principal branch's range.

    The image of the branch cut under W_0 is the curve
    ``{-eta*cot(eta) + i*eta : 0 < eta < pi}``; this returns the point at
    parameter eta.  An eta that is not a real number (a bool included)
    raises DomainError, one that is not finite NonFiniteInput.
    """
    eta, = _require_finite("eta", eta)
    if not 0.0 < eta < math.pi:
        raise DomainError(f"eta must lie in (0, pi), got {eta}")
    return complex(-eta * math.cos(eta) / math.sin(eta), eta)


def on_w0_boundary(w, tol):
    """True iff w lies on the upper boundary of the W_0 range, within tol.

    The test is Im w in (0, pi) and |Re w + Im w * cot(Im w)| <= tol.
    A tol that is not a positive finite int or float, or a w that is a
    bool or that complex() rejects, raises DomainError; a w that is not
    finite NonFiniteInput.
    """
    _require_tolerance("tol", tol)
    if tol == 0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    w = _require_complex("w", w)
    eta = w.imag
    if not 0.0 < eta < math.pi:
        return False
    return abs(w.real + eta * math.cos(eta) / math.sin(eta)) <= tol
