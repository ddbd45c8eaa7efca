"""Multi-branch complex Lambert W function.

Evaluates W_k(z), the k-th branch of the inverse of w -> w*e^w, for any
integer branch index, including points on and near the branch cut
(-inf, -1/e) and the branch point -1/e.  Real arguments on the cut are
evaluated as the limit from above (counter-clockwise continuity), so a
-0.0 imaginary part is treated as +0.0.

The kernel is Halley's method on f(w) = w*e^w - z, started from one of
four seeds: a square-root series about the branch point, a rational
fit of the principal branch near the origin, the real-axis expansion of
W_-1 in log(-z) next to its real domain, or the standard logarithmic
asymptotic expansion.  Its stopping rule is relative to
|z| and |w|, so accuracy does not depend on the scale of the argument.
Real arguments run through the same complex kernel; on the two real
domains (branch 0 on [-1/e, inf), branch -1 on [-1/e, 0)) the result is
projected exactly onto the real axis.
"""

import cmath
import math
from dataclasses import dataclass

from .errors import BranchOutOfRange, DomainError, NoConvergence, NonFiniteInput

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


@dataclass(frozen=True)
class WValue:
    """Result of a Lambert W evaluation.

    Attributes
    ----------
    w : complex
        The branch value, satisfying ``w*exp(w) == z`` to ``residual``.
    residual : float
        ``abs(w*exp(w) - z)`` at the returned point.
    iterations : int
        Halley iterations consumed (0 when a closed form or direct
        series evaluation sufficed).
    """

    w: complex
    residual: float
    iterations: int


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


def _asymptotic(z, k):
    """Log-based seed valid for large |z| and for every branch k != 0."""
    l1 = cmath.log(z) + _TWO_PI * k * 1j
    l2 = cmath.log(l1)
    return l1 - l2 + l2 / l1


# exp(w) leaves the normal double range below this; Halley's f and f'
# turn into subnormal noise (or exact zeros) and the quotient is garbage
_LOG_DOMAIN_RE = -705.0


def _newton_log(z, w):
    """Newton on g(w) = w + Log(w) - (Log(z) + 2*pi*i*m), exponential-free.

    Used when the seed lies so far left that exp(w) underflows.  Any root
    of g satisfies w*e^w = z exactly; the integer m is pinned by the
    seed's band.  The defining residual is |z|*|exp(g) - 1|, reported to
    first order as |z|*|g| (far below any tolerance here, since |z| is
    tiny by construction).
    """
    lz = cmath.log(z)
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
    return w, abs(z) * abs(g), it


def _halley(z, w, res_tol, rtol):
    """Polish w with Halley's method on f(w) = w*e^w - z.

    Stops once the residual is within res_tol (tol*|z|) and the last step
    within rtol*|w|.  Both tolerances carry conditioning floors, scaled
    like the quantities they bound: the step cannot shrink below the
    noise of f divided by |f'| (which vanishes at the branch point), and
    the residual cannot shrink below |f'| times the quantization of w
    itself (which grows with |w|, i.e. with |k|); demanding less than
    either would spin until the iteration cap.
    """
    az = abs(z)
    step_prev = math.inf
    for it in range(_MAX_ITER):
        ew = cmath.exp(w)
        f = w * ew - z
        res = abs(f)
        wp1 = w + 1.0
        fp = wp1 * ew
        afp = abs(fp)
        aw = abs(w)
        step_tol = rtol * aw + 8.0 * _EPS * az / max(afp, 1e-300)
        res_floor = 2.0 * _EPS * (aw * afp + 2.0 * az)
        if res <= res_tol + res_floor and step_prev <= step_tol:
            return w, res, it
        if fp == 0.0:
            # sitting exactly on the singular derivative; nudge off it
            w = w + 1e-7
            step_prev = math.inf
            continue
        dw = f / (fp - f * (w + 2.0) / (2.0 * wp1))
        w = w - dw
        step_prev = abs(dw)
    raise NoConvergence(f"Halley iteration did not converge for z={z!r} (last step {step_prev:.3e})")


def _eval_complex(k, z, res_tol, rtol):
    """Seed selection and iteration: the one kernel behind every argument."""
    # the sheet of W_-1 above the axis and of W_1 below it that is real on
    # [-1/e, 0)
    real_wm1 = (k == -1 and z.imag >= 0.0) or (k == 1 and z.imag < 0.0)
    # branch-point neighbourhood, branches 0 and +-1 only
    if abs(z - BRANCH_POINT_Z) <= _BP_SEED_RADIUS and k in (0, 1, -1):
        p = cmath.sqrt(2.0 * _ez_plus_1(z))
        if k == 0:
            seed = _bp_series(p)
        elif real_wm1:
            seed = _bp_series(-p)
            p = -p
        else:
            seed = None
        if seed is not None:
            if abs(p) <= _BP_DIRECT:
                res = abs(seed * cmath.exp(seed) - z)
                return seed, res, 0
            return _halley(z, seed, res_tol, rtol)
    if k == 0:
        if abs(z) <= 2.0 and z.real >= BRANCH_POINT_Z:
            seed = _pade0(z)
        else:
            seed = _asymptotic(z, 0)
    elif real_wm1 and z.real < 0.0 and abs(z) <= _WM1_SEED_RADIUS:
        # w = L - log(-L) with L = log(-z), the real-axis expansion as
        # z -> 0-; unlike log(z) + 2*pi*i*k it keeps a tiny Im w exact
        # instead of rounding it away against pi
        l1 = cmath.log(-z)
        seed = l1 - cmath.log(-l1)
    else:
        seed = _asymptotic(z, k)
    if seed.real < _LOG_DOMAIN_RE:
        return _newton_log(z, seed)
    return _halley(z, seed, res_tol, rtol)


def lambert_w(k, z, tol=1e-14):
    """Evaluate branch k of the Lambert W function at z.

    Parameters
    ----------
    k : int
        Branch index, |k| <= K_MAX.
    z : complex
        Argument.  A real part below -1/e with imaginary part +-0.0 is
        evaluated on the branch cut as the limit from above.
    tol : float, optional
        Relative residual tolerance; the returned value satisfies
        ``abs(w*exp(w) - z) <= tol*abs(z)``, up to the conditioning floor
        of a few ulps of ``w*exp(w)`` and of ``z``.

    Returns
    -------
    WValue
        Branch value with its residual and iteration count.

    Raises
    ------
    BranchOutOfRange
        If |k| > K_MAX, the bound of the checked range; branches beyond
        it are rejected rather than approximated.
    NonFiniteInput
        If z is NaN or infinite.
    DomainError
        If k is not an int (a bool is rejected too), tol is NaN,
        negative or infinite, or z == 0 with k != 0 (every branch but
        the principal one diverges at the origin).
    NoConvergence
        If the iteration cap is hit; indicates a kernel bug.
    """
    if isinstance(k, bool) or not isinstance(k, int):
        raise DomainError(f"branch index must be an integer, got {k!r}")
    if abs(k) > K_MAX:
        raise BranchOutOfRange(f"|k| = {abs(k)} exceeds K_MAX = {K_MAX}")
    if not 0.0 <= tol < math.inf:
        raise DomainError(f"tol must be finite and non-negative, got {tol!r}")
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise NonFiniteInput(f"z must be finite, got {z!r}")
    if z == 0:
        if k == 0:
            return WValue(complex(0.0, 0.0), 0.0, 0)
        raise DomainError("W_k(0) diverges for k != 0")
    if z.imag == 0.0:
        z = complex(z.real, 0.0)  # -0.0 -> +0.0: cut values are the limit from above
    w, res, it = _eval_complex(k, z, tol * abs(z), tol)
    x = z.real
    if z.imag == 0.0 and ((k == 0 and x >= BRANCH_POINT_Z) or (k == -1 and BRANCH_POINT_Z <= x < 0.0)):
        w = complex(w.real, 0.0)  # real domain: drop the rounding-level imaginary part
    return WValue(complex(w), res, it)


def lambert_w_real(branch, x):
    """Real-valued W on the two branches that are real on part of the axis.

    The domain checks of the real branches in front of ``lambert_w``,
    whose result is exactly real on these domains.

    Parameters
    ----------
    branch : {0, -1}
        0 needs x >= -1/e; -1 needs -1/e <= x < 0.
    x : float

    Returns
    -------
    float
        W_0(x) >= -1, monotone increasing, or W_{-1}(x) <= -1, monotone
        decreasing, respectively.
    """
    x = float(x)
    if not math.isfinite(x):
        raise NonFiniteInput(f"x must be finite, got {x!r}")
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
    parameter eta.
    """
    eta = float(eta)
    if not 0.0 < eta < math.pi:
        raise DomainError(f"eta must lie in (0, pi), got {eta}")
    return complex(-eta * math.cos(eta) / math.sin(eta), eta)


def on_w0_boundary(w, tol):
    """True iff w lies on the upper boundary of the W_0 range, within tol.

    The test is Im w in (0, pi) and |Re w + Im w * cot(Im w)| <= tol;
    a tol that is not positive and finite raises DomainError.
    """
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol!r}")
    w = complex(w)
    eta = w.imag
    if not 0.0 < eta < math.pi:
        return False
    return abs(w.real + eta * math.cos(eta) / math.sin(eta)) <= tol
