"""The seeded cases of the test suite, their outcome budgets, and the
references the tests share.

Every seeded random stream of the suite is a recipe here: a plain
function that seeds its own random.Random and returns, or yields, its
cases.  No other test module builds one (test_recipes_have_one_home).
BUDGETS maps (recipe, outcome class) to today's count; a pair that is
not listed has budget 0, and a count may only fall.  README's
"Verification and tests" says how to add a band.
"""

import cmath
import functools
import importlib
import itertools
import math
import random
import sys
from pathlib import Path

import pytest

from delayw import (BRANCH_POINT_Z, K_MAX, ClosedLoopParams, ConstantHistory, LinearHistory, SampledHistory,
                    SearchRect, SystemParams, assign_both, assign_current_only, assign_delay_only, assign_real_both,
                    spectrum)
from delayw.oracle import _enclosing_rect

BENCH = Path(__file__).resolve().parents[1] / "bench"

BUDGETS = {
    # cross_validate(cl, 2) next to the branch point (defect 2)
    ("near_branch_point", "MismatchDetected"): 273,
    ("near_branch_point", "BoundaryRootSuspected"): 1,
    # assign_both's deep-left targets where e^{u h} leaves the double range
    ("deep_left_designs", "DomainError"): 29,
    ("deep_left_designs", "NonFiniteInput"): 20,
    # assign_current_only's real targets where e^{-S h}, or the gain, overflows
    ("current_only_real_designs", "NonFiniteInput"): 108,
    # the 2,601 range-end loops; the rest of each call's loops answer
    ("range_end_grid cross_validate(cl, 1)", "DomainError"): 1216,
    ("range_end_grid cross_validate(cl, 1)", "BoundaryRootSuspected"): 625,
    ("range_end_grid cross_validate(cl, 1)", "NoConvergence"): 256,
    ("range_end_grid cross_validate(cl, 1)", "MismatchDetected"): 192,
    ("range_end_grid spectrum(cl, 3)", "alpha*h overflows"): 608,
    ("range_end_grid spectrum(cl, 3)", "passes the double range"): 272,
    # Halley and log-form Newton steps of lambert_w over micro_sample()
    ("micro_sample", "halley_steps"): 1255,
}


def over_budget(recipe, counts):
    """The outcome classes of counts, {class: count}, past their BUDGETS entry."""
    return {cls: n for cls, n in counts.items() if n > BUDGETS.get((recipe, cls), 0)}


def bench_module(name="workloads"):
    """A fresh import of bench/<name>.py, which imports its neighbours by
    bare name; sys.path and sys.modules are left as they were."""
    saved = sys.path[:]
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path[:] = saved
        for mod in ("worker", "calibrate", "workloads"):
            sys.modules.pop(mod, None)


def mp_roots(cl, branches, dps=60):
    """alpha + W_k(z)/h for each branch k in dps-digit mpmath, at the
    exact z = beta*h*e^{-alpha h}."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        alpha, beta, h = (mpmath.mpf(x) for x in cl)
        z = beta * h * mpmath.exp(-alpha * h)
        return [alpha + mpmath.lambertw(z, k) / h for k in branches]


def mp_root_error(cl, roots, dps=60, floor=1):
    """Largest |s - s_k| / max(floor, |s_k|) over the roots, s_k from mp_roots."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        wants = mp_roots(cl, [r.branch for r in roots], dps)
        return max((float(abs(mpmath.mpc(r.s.real, r.s.imag) - want) / max(floor, abs(want)))
                    for r, want in zip(roots, wants)), default=0.0)


def mp_real_root(cl, x, dps=50):
    """The real root of s - alpha - beta*e^{-sh} that dps-digit
    mpmath.findroot reaches from x."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        a, b, h = (mpmath.mpf(v) for v in cl)
        return mpmath.findroot(lambda t: t - a - b * mpmath.exp(-t * h), mpmath.mpf(x))


# ------------------------------------------------------------ Lambert W

def real_axis_arguments():
    """(xs0, xs1): real arguments of W_0 on [-1/e, inf) and W_-1 on
    [-1/e, 0), next to the branch point and over the double range."""
    rng = random.Random(5)
    xs0 = [BRANCH_POINT_Z, math.nextafter(BRANCH_POINT_Z, 0.0), -5e-324, 1.7976931348623157e308]
    xs1 = [BRANCH_POINT_Z, math.nextafter(BRANCH_POINT_Z, 0.0), -5e-324]
    for _ in range(400):
        xs0.append(BRANCH_POINT_Z + 10.0 ** rng.uniform(-17.0, 0.0))
        xs0.append(rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-323.0, 308.25))
        xs1.append(max(BRANCH_POINT_Z, BRANCH_POINT_Z + 10.0 ** rng.uniform(-17.0, -0.44)))
        xs1.append(min(-5e-324, -(10.0 ** rng.uniform(-323.5, -0.44))))
    return [x for x in xs0 if x >= BRANCH_POINT_Z], xs1


def scipy_sample():
    """300 (k, z): |k| <= 8, z in the square of side 10."""
    rng = random.Random(7)
    return [(rng.randint(-8, 8), complex(rng.uniform(-5, 5), rng.uniform(-5, 5))) for _ in range(300)]


def mpmath_sample():
    """40 (k, z): |k| <= 4, z in the square of side 8."""
    rng = random.Random(11)
    return [(rng.randint(-4, 4), complex(rng.uniform(-4, 4), rng.uniform(-4, 4))) for _ in range(40)]


def log_uniform_grid():
    """(z, ks): |z| = 10^U(-300, 300) on the positive axis, the negative
    axis and off it in turn, none within 1e-3 of e*z = -1."""
    rng = random.Random(3)
    for i in range(300):
        r = 10.0 ** rng.uniform(-300.0, 300.0)
        z = (complex(r, 0.0), complex(-r, 0.0), r * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))[i % 3]
        if abs(math.e * z + 1.0) <= 1e-3:
            continue
        yield z, (0, 1, -1, 2, -2, 3, -3, K_MAX, -K_MAX, rng.choice((-1000, -317, -40, 40, 317, 1000)))


def top_of_range_sample():
    """z with |z| from 1e300 past the largest double."""
    rng = random.Random(5)
    top = sys.float_info.max
    # the last two have |z| past the largest double, where abs(z) raises
    zs = [complex(1e308, 1e308), complex(top, 0.0), complex(-top, 0.0), complex(0.0, top),
          complex(-top / 2.0, -top / 3.0), complex(top, top), complex(-1.7e308, -6e307)]
    for i in range(150):
        r = 10.0 ** rng.uniform(300.0, math.log10(top))
        zs.append((complex(r, 0.0), complex(-r, 0.0), r * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))[i % 3])
    return zs


def predictive_stop_sample():
    """(draws, ws): 450 (k, z) over every branch scale and |z| =
    10^U(-300, 300), and 90 w on both sides of the circle |1 + w| = 2."""
    rng = random.Random(17)
    draws = []
    for i in range(450):
        k = rng.choice((-1, 1)) * round(10.0 ** rng.uniform(0.0, math.log10(K_MAX)))
        r = 10.0 ** rng.uniform(-300.0, 300.0)
        draws.append((k, (complex(r, 0.0), complex(-r, 0.0),
                          r * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))[i % 3]))
    ws = [-1.0 + 2.0 * (1.0 + (-1) ** i * 10.0 ** rng.uniform(-12.0, -1.0))
          * cmath.exp(1j * rng.uniform(-math.pi, math.pi)) for i in range(90)]
    return draws, ws


@functools.lru_cache(maxsize=None)
def micro_sample():
    """The lambert_w sample of bench/micro.py: 1,000 (k, z) off the real axis."""
    rng = random.Random(9)
    args = []
    while len(args) < 1000:
        z = complex(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0))
        if z.imag != 0.0:
            args.append((rng.randint(-50, 50), z))
    return tuple(args)


@functools.lru_cache(maxsize=None)
def wide_sample():
    """20,000 (k, z): |k| up to K_MAX, |z| log-uniform in [1e-300,
    1e300], one in four on the real axis with a +0.0 or -0.0 imaginary part."""
    rng = random.Random(20)
    args = []
    for _ in range(20000):
        k = rng.choice((0, -1, 1, rng.randint(-50, 50), rng.randint(-K_MAX, K_MAX)))
        r, t = 10.0 ** rng.uniform(-300.0, 300.0), rng.uniform(-math.pi, math.pi)
        im = rng.choice((r * math.sin(t), r * math.sin(t), r * math.sin(t), rng.choice((0.0, -0.0))))
        args.append((k, complex(r * math.cos(t), im)))
    return tuple(args)


def lambert_w_conformance():
    """10,000 (k, z): |k| <= 50, z off the real axis in the square of side 20."""
    rng = random.Random(9)
    made = 0
    while made < 10_000:
        k = rng.randint(-50, 50)
        z = complex(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0))
        if z != 0 and z.imag != 0.0:
            yield k, z
            made += 1


def real_identity_sample():
    """1,000 x in [-1, 10]."""
    rng = random.Random(0)
    return [rng.uniform(-1.0, 10.0) for _ in range(1000)]


# --------------------------------------------------------------- loops

def verify_space_loops(seed, count):
    """count loops of the benchmark's wide space: h = 10^U(-2, 1.5),
    alpha = U(-20, 20), beta = +-10^U(-4, 2)."""
    rng = random.Random(seed)
    for _ in range(count):
        h = 10.0 ** rng.uniform(-2.0, 1.5)
        alpha = rng.uniform(-20.0, 20.0)
        beta = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-4.0, 2.0)
        yield ClosedLoopParams(alpha, beta, h)


def oracle_equivalence_loops():
    """200 loops with alpha, beta = U(-3, 3) and h = U(0.2, 3)."""
    rng = random.Random(5)
    return [ClosedLoopParams(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0), rng.uniform(0.2, 3.0))
            for _ in range(200)]


def near_branch_point_loops(seed, count, log_d):
    """(cl, d): W argument (1 + d)(-1/e), |d| = 10^U(*log_d), with
    d < 0 on even draws; h = 10^U(-2, 1), alpha = U(-5, 5)."""
    rng = random.Random(seed)
    for i in range(count):
        h = 10.0 ** rng.uniform(-2.0, 1.0)
        alpha = rng.uniform(-5.0, 5.0)
        d = (-1.0 if i % 2 == 0 else 1.0) * 10.0 ** rng.uniform(*log_d)
        yield ClosedLoopParams(alpha, BRANCH_POINT_Z * (1.0 + d) * math.exp(alpha * h) / h, h), d


def x_ext_ranges():
    """2,000 (cl, lo, hi): e*z + 1 = +-10^U(-19, -6), h = 10^U(-3, 3)."""
    rng = random.Random(3)
    for _ in range(2000):
        h = 10.0 ** rng.uniform(-3.0, 3.0)
        alpha = rng.uniform(-5.0, 5.0) / h
        d = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-19.0, -6.0)
        cl = ClosedLoopParams(alpha, BRANCH_POINT_Z * (1.0 + d) * math.exp(alpha * h) / h, h)
        x_ext = math.log(-cl.beta * h) / h
        width = 10.0 ** rng.uniform(-9.0, 1.0) / h
        lo, hi = rng.choice([(x_ext - width, x_ext), (x_ext, x_ext + width),
                             sorted((x_ext + width * rng.uniform(-1.0, 1.0), x_ext + width * rng.uniform(-1.0, 1.0)))])
        yield cl, lo, hi


def strip_loops():
    """200 loops: h = 10^U(-2, 2), beta = +-10^U(-3, 3), alpha = U(-5, 5)."""
    rng = random.Random(3)
    for _ in range(200):
        h = 10.0 ** rng.uniform(-2.0, 2.0)
        beta = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.0)
        yield ClosedLoopParams(rng.uniform(-5.0, 5.0), beta, h)


def delay_margin_loops():
    """2,000 (alpha, beta, h) next to the delay margin atan2(w, alpha)/w,
    w = sqrt(beta^2 - alpha^2)."""
    rng = random.Random(11)
    for _ in range(2000):
        alpha = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.0)
        beta = -abs(alpha) * (1.0 + 10.0 ** rng.uniform(-8.0, 2.0))
        w = math.sqrt(beta * beta - alpha * alpha)
        yield alpha, beta, math.atan2(w, alpha) / w * (1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, -1.0))


def _census_loops(rng, wide, narrow):
    for i in range(wide + narrow):
        h = 10.0 ** rng.uniform(-3.0, 3.0)
        bh = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, 4.5)
        if i < wide:
            ah = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, 4.5)
        else:
            ah = math.log(abs(bh)) - rng.uniform(-744.0, -708.5)
        yield ClosedLoopParams(ah / h, bh / h, h), rng.choice((0, 1, 3, 10, 30, 100))


@functools.lru_cache(maxsize=None)
def census():
    """2,300 (cl, n) over the wide loop space: h = 10^U(-3, 3), beta h and
    alpha h each +-10^U(-12, 4.5), n from {0, 1, 3, 10, 30, 100}; the
    last 300 instead take alpha h so that log|z|, z the W argument, is
    U(-744, -708.5), where z is subnormal or underflows."""
    return tuple(_census_loops(random.Random(7), 2000, 300))


def underflow_band():
    """300 (cl, n) with h = 10^U(-3, -0.5), beta = +-10^U(-323.3, -321),
    so that beta*h is subnormal or rounds to +-0, alpha h = +-10^U(-12,
    2.5) and n from {0, 1, 3, 10}."""
    rng = random.Random(5)
    for _ in range(300):
        h = 10.0 ** rng.uniform(-3.0, -0.5)
        beta = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-323.3, -321.0)
        ah = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, 2.5)
        yield ClosedLoopParams(ah / h, beta, h), rng.choice((0, 1, 3, 10))


# the ends of the double range, each signed, and 0; the delays; and four
# rectangles: a unit square, one high above the axis, one wide along it,
# and one with an edge within rounding of it
RANGE_ENDS = (0.0, *(s * v for v in (1e-320, 1e-300, 1.0, 2.0, 1e154, 1e300, 1e307, 1.7e308) for s in (1.0, -1.0)))
RANGE_END_DELAYS = (1e-320, 1e-300, 1e-10, 1.0, 1e10, 1e154, 1e300, 1e307, 1.7e308)
RANGE_END_RECTS = ((-1.0, 1.0, -1.0, 1.0), (-1.0, 1.0, 1e10, 2e10), (-1e300, 1e300, 0.0, 1.0), (-2.0, 1.0, -1e-300, 3.0))


def range_end_grid():
    """The 2,601 loops (alpha, beta, h) of RANGE_ENDS^2 x RANGE_END_DELAYS."""
    return (ClosedLoopParams(*loop) for loop in itertools.product(RANGE_ENDS, RANGE_ENDS, RANGE_END_DELAYS))


# ------------------------------------------------------------- designs

def _plant(rng):
    return SystemParams(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
                        rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0), rng.uniform(0.1, 5.0))


def round_trip_designs():
    """500 feasible (mode, plant, S): 250 complex targets inside the
    window for assign_both, 125 real ones for assign_real_both, and 125
    for the single-gain modes, which reach only a one-parameter family
    of targets, aimed at a random loop's actual rightmost root."""
    rng = random.Random(42)
    for _ in range(250):
        plant = _plant(rng)
        yield assign_both, plant, complex(rng.uniform(-5.0, 5.0), rng.uniform(0.05, math.pi - 0.05) / plant.h)
    for _ in range(125):
        yield assign_real_both, _plant(rng), rng.uniform(-5.0, 5.0)
    made = 0
    while made < 125:
        plant = _plant(rng)
        if made % 2 == 0:
            cl = ClosedLoopParams(plant.a, plant.a1d + plant.b * rng.uniform(-3.0, 3.0), plant.h)
        else:
            cl = ClosedLoopParams(plant.a + plant.b * rng.uniform(-3.0, 3.0), plant.a1d, plant.h)
        # an oscillatory rightmost pair, clear of the coalescence
        if cl.beta * cl.h * math.exp(-cl.alpha * cl.h) >= -math.exp(-1.0) * 1.001:
            continue
        S = spectrum(cl, 1).rightmost
        if S.imag <= 1e-6:
            continue
        yield (assign_current_only if made % 2 else assign_delay_only), plant, S
        made += 1


def infeasible_targets():
    """100 (plant, S) with v*h in [pi, 15], clear of the poles of cot(v*h)."""
    rng = random.Random(21)
    made = 0
    while made < 100:
        h = rng.uniform(0.3, 2.0)
        vh = rng.uniform(math.pi, 15.0)
        if min(abs(vh - m * math.pi) for m in range(1, 6)) < 0.1:
            continue
        S = complex(rng.uniform(-2.0, 2.0), vh / h)
        yield SystemParams(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
                           rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0), h), S
        made += 1


def deep_left_designs():
    """600 (plant, S): complex S with |u h| = 10^U(-6, 3.5) and h = 10^U(-3, 3)."""
    rng = random.Random(9)
    for _ in range(600):
        h = 10.0 ** rng.uniform(-3.0, 3.0)
        uh = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 3.5)
        yield SystemParams(a=0.3 / h, a1d=-0.2 / h, b=1.0, h=h), complex(uh / h, rng.uniform(0.0, math.pi) / h)


def current_only_real_designs():
    """2,000 (a, a1d, h, S)."""
    rng = random.Random(5)
    for _ in range(2000):
        h = 10.0 ** rng.uniform(-3.0, 3.0)
        a, a1d, S = (rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 4.0) / h for _ in range(3))
        yield a, a1d, h, S


# ---------------------------------------------------------- rectangles

def cells_above_axis():
    """200 (cl, rect, roots), roots those of spectrum(cl, 14) above the
    axis, none within 1e-3*pi/h or 1e-3/h of an edge."""
    rng = random.Random(29)
    made = 0
    while made < 200:
        h = 10.0 ** rng.uniform(-2.0, 2.0)
        beta = (1.0 if made % 2 else -1.0) * 10.0 ** rng.uniform(-3.0, 3.0)
        cl = ClosedLoopParams(rng.uniform(-5.0, 5.0) / (h if rng.random() < 0.5 else 1.0), beta, h)
        gap = math.pi / h
        roots = [r.s for r in spectrum(cl, 14).roots if r.s.imag > 0.0]
        im_lo = rng.uniform(0.0, 4.0) * gap
        im_hi = im_lo + rng.uniform(0.2, 20.0) * gap
        near = sorted(s.real for s in roots if im_lo < s.imag < im_hi)
        if not near:
            continue
        re_lo = near[rng.randrange(len(near))] - rng.uniform(0.01, 1.0) / h
        re_hi = near[-1] + rng.uniform(0.01, 1.0) / h
        rect = SearchRect(re_lo, re_hi, im_lo, im_hi)
        if -re_lo * h > 700.0 or any(min(abs(s.imag - im_lo), abs(s.imag - im_hi)) < 1e-3 * gap
                                     or min(abs(s.real - re_lo), abs(s.real - re_hi)) < 1e-3 / h for s in roots):
            continue
        yield cl, rect, roots
        made += 1


def straddling_rects():
    """300 (cl, rect) across the real axis: a third taller on one side, a
    third thin (half-height down to 1e-9*pi/h) and a third as
    cross_validate builds them.  No horizontal edge comes within
    1e-3*pi/h of a root off the axis, and every edge stays clear of the
    exponential's overflow."""
    rng = random.Random(17)
    made = 0
    while made < 300:
        h = 10.0 ** rng.uniform(-2.0, 2.0)
        alpha = rng.uniform(-5.0, 5.0) / (h if rng.random() < 0.5 else 1.0)
        cl = ClosedLoopParams(alpha, rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.0), h)
        gap = math.pi / h
        roots = [r.s for r in spectrum(cl, 12).roots]
        kind = made % 3
        if kind == 2:
            rect = _enclosing_rect(spectrum(cl, rng.randint(0, 5)).roots, h)
        else:
            near = [s.real for s in roots if abs(s.imag) < rng.uniform(0.5, 6.0) * gap]
            re_lo = min(near) - rng.uniform(0.05, 1.0) / h
            re_hi = max(near) + rng.uniform(0.05, 1.0) / h
            if kind == 0:
                rect = SearchRect(re_lo, re_hi, -rng.uniform(0.1, 6.0) * gap, rng.uniform(0.1, 6.0) * gap)
            else:
                half = 10.0 ** rng.uniform(-9.0, 0.0) * gap
                rect = SearchRect(re_lo, re_hi, -half * rng.uniform(0.5, 1.5), half * rng.uniform(0.5, 1.5))
        if -rect.re_min * h > 700.0 or any(abs(s.imag - y) < 1e-3 * gap for s in roots if s.imag != 0.0
                                           for y in (rect.im_min, rect.im_max)):
            continue
        made += 1
        yield cl, rect


def _edge_on_axis_rects(rng, count):
    for i in range(count):
        h = 10.0 ** rng.uniform(-1.5, 1.5)
        alpha = rng.uniform(-5.0, 5.0)
        beta = 0.0 if i % 10 == 9 else rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-2.0, 2.5)
        height = rng.uniform(0.1, 6.0) * math.pi / h
        re_lo, re_hi = alpha - rng.uniform(0.5, 8.0) / h, alpha + rng.uniform(0.1, 4.0) / h
        yield ClosedLoopParams(alpha, beta, h), SearchRect(re_lo, re_hi, *((0.0, height) if i % 2 else (-height, 0.0)))


def edge_on_axis_rects(seed):
    """1,200 (cl, rect) with an edge on the real axis: the bottom edge on
    odd draws, the top one on even draws, and beta = 0 on every tenth
    loop.  Heights run to 6*pi/h, and the real range from alpha - 8/h
    to alpha + 4/h."""
    return _edge_on_axis_rects(random.Random(seed), 1200)


def below_axis_rects():
    """120 (cl, rect) off the axis above it, or with its bottom edge on
    it: the first 60 rectangles of the edge-on-axis family, each lifted
    by U(0.01, 4)*pi/h and left in place."""
    rng = random.Random(23)
    return [(cl, SearchRect(r.re_min, r.re_max, lo, lo + r.im_max - r.im_min))
            for cl, r in _edge_on_axis_rects(rng, 60) for lo in (rng.uniform(0.01, 4.0) * math.pi / cl.h, 0.0)]


def delay_free_rects():
    """(cl, rect) with beta = 0, from 2,000 draws: real edges on alpha,
    within 1e-16*|alpha| of it or up to 5/h away, imaginary edges on the
    axis, within 1e-17 of it, at 1e-300 or up to 30/h away."""
    rng = random.Random(3)
    for _ in range(2000):
        h = 10.0 ** rng.uniform(-3.0, 3.0)
        alpha = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.0)
        re = sorted(alpha + rng.choice((0.0, rng.uniform(-1e-16, 1e-16) * alpha, rng.uniform(-5.0, 5.0) / h))
                    for _ in range(2))
        im = sorted(rng.choice((0.0, 1e-17, -1e-17, 1e-300, rng.uniform(-30.0, 30.0) / h)) for _ in range(2))
        if re[0] < re[1] and im[0] < im[1]:
            yield ClosedLoopParams(alpha, 0.0, h), SearchRect(*re, *im)


def half_path_rects():
    """200 (cl, rect, roots), roots those of spectrum(cl, 12) with their
    multiplicity."""
    rng = random.Random(37)
    made = 0
    while made < 200:
        h = 10.0 ** rng.uniform(-2.0, 2.0)
        alpha = rng.uniform(-5.0, 5.0) / (h if rng.random() < 0.5 else 1.0)
        cl = ClosedLoopParams(alpha, rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.0), h)
        roots = [r.s for r in spectrum(cl, 12).roots for _ in range(r.multiplicity)]
        top = rng.uniform(0.05, 8.0) * math.pi / h
        near = [s.real for s in roots if abs(s.imag) < top]
        if not near:
            continue
        rect = SearchRect(rng.choice(near) - rng.uniform(0.05, 1.0) / h, max(near) + rng.uniform(0.05, 1.0) / h,
                          -top, top)
        clear = 1e-3 * rect.diameter
        if -rect.re_min * h > 700.0 or any(min(abs(s.real - rect.re_min), abs(s.real - rect.re_max),
                                               abs(abs(s.imag) - top)) < clear for s in roots):
            continue
        yield cl, rect, roots
        made += 1


def f_noise_points():
    """1,500 (cl, s)."""
    rng = random.Random(11)
    for _ in range(1500):
        h = 10.0 ** rng.uniform(-2.0, 2.0)
        alpha = rng.uniform(-5.0, 5.0) / (h if rng.random() < 0.5 else 1.0)
        beta = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.0)
        cl = ClosedLoopParams(alpha, beta, h)
        kind = rng.randrange(3)
        if kind == 0:
            s = rng.choice(spectrum(cl, 5).roots).s
            s *= 1.0 + 10.0 ** rng.uniform(-16.0, -6.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        elif kind == 1:
            s = 10.0 ** rng.uniform(-3.0, 3.0) / h * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        else:
            s = complex(alpha + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-16.0, 0.0),
                        rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-3.0, 3.0) / h)
        yield cl, s


def closed_form_cases():
    """Edges as (kind, cl, sa, sb): random edges, edges on the lines Im s
    = j*pi/h with |beta|e^{-uh} up to 1e15 at their left end, and edges
    within 1e-12 relative of each bound of the closed form, on either side."""
    rng = random.Random(13)

    def loop(alpha=None, beta=None):
        h = 10.0 ** rng.uniform(-2.0, 1.0)
        if alpha is None:
            alpha = rng.uniform(-5.0, 5.0) / h
        if beta is None:
            beta = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.0) / h
        return ClosedLoopParams(alpha, beta, h)

    def flip(sa, sb):
        return (sa, sb) if rng.random() < 0.5 else (sb, sa)

    for _ in range(150):
        cl = loop()
        a, b, c = (rng.uniform(-6.0, 6.0) / cl.h for _ in range(3))
        if rng.random() < 0.5:
            yield ("random", cl) + flip(complex(a, c), complex(b, c))
        else:
            yield ("random", cl) + flip(complex(c, a), complex(c, b))
    for _ in range(150):
        cl = loop()
        v = rng.choice((-1, 1)) * rng.randint(1, 40) * (math.pi / cl.h)
        lo = (math.log(abs(cl.beta)) - math.log(10.0 ** rng.uniform(0.0, 15.0))) / cl.h
        yield ("line", cl) + flip(complex(lo, v), complex(lo + rng.uniform(0.1, 40.0) / cl.h, v))
    for side in (-1.0, 1.0):
        for _ in range(100):
            rel = 1.0 + side * 10.0 ** rng.uniform(-14.0, -12.0)
            cl = loop()
            h, beta = cl.h, abs(cl.beta)
            kind = rng.randrange(3)
            if kind == 0:
                # |v| = |beta|e^{-uh}|sin vh| * rel at the left end
                v = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 6.0) / h
                lo = (math.log(beta * abs(math.sin(v * h))) - math.log(abs(v) * rel)) / h
                yield ("near-horizontal", cl) + flip(complex(lo, v), complex(lo + rng.uniform(0.1, 10.0) / h, v))
                continue
            c = rng.uniform(-3.0, 3.0) / h
            a, b = (rng.uniform(-6.0, 6.0) / h for _ in range(2))
            if kind == 1:
                # |c - alpha| = |beta|e^{-ch} * rel
                alpha = c - rng.choice((-1.0, 1.0)) * beta * math.exp(-c * h) * rel
                cl = ClosedLoopParams(alpha, cl.beta, h)
            else:
                # max |s - alpha| = |beta|e^{-ch} * rel
                dist = max(math.hypot(c - cl.alpha, a), math.hypot(c - cl.alpha, b))
                cl = ClosedLoopParams(cl.alpha, math.copysign(dist * math.exp(c * h) / rel, cl.beta), h)
            yield ("near-vertical", cl) + flip(complex(c, a), complex(c, b))


def vertical_band_edges():
    """200 (cl, c, y0, y1, side, sa, sb): the edge sa -> sb on Re s = c,
    on the side of the axis that side gives, from |Im s| = y0 to y1."""
    rng = random.Random(23)
    for i in range(200):
        h = 10.0 ** rng.uniform(-2.0, 1.0)
        c = rng.uniform(-3.0, 3.0) / h
        beta = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 1.8) * math.exp(c * h) / h
        decay = abs(beta) * math.exp(-c * h)
        cl = ClosedLoopParams(c + rng.uniform(-1.0, 1.0) * decay, beta, h)
        y0 = decay * (1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-16.0, -10.0) if i % 2
                      else rng.uniform(0.0, 3.0))
        y1 = y0 + rng.uniform(0.1, 20.0) / h
        side = rng.choice((-1.0, 1.0))
        sa, sb = complex(c, side * y0), complex(c, side * y1)
        if rng.random() < 0.5:
            sa, sb = sb, sa
        yield cl, c, y0, y1, side, sa, sb


def history_grids():
    """(phi, taus) for 300 built-in histories: each over simulate's node
    and midpoint taus, j*dt - h and (j + 0.5)*dt - h, and a sampled one
    also over those taus merged with its stamps and with points before
    its first stamp and past its last.  Values are ints, signed
    zeros or floats; a sampled history's first stamp is -h, within
    1e-9*h of it, or a grid point, and the rest are grid points or
    drawn."""
    rng = random.Random("history_grids")

    def value():
        return rng.choice((rng.randint(-3, 3), 0.0, -0.0, rng.uniform(-2.0, 2.0)))

    for i in range(300):
        h = 10.0 ** rng.uniform(-3.0, 3.0)
        n_per = rng.randint(1, 60)
        dt = h / n_per
        nodes = [j * dt - h for j in range(n_per)]
        mids = [(j + 0.5) * dt - h for j in range(n_per)]
        kind = i % 3
        if kind == 0:
            phi = ConstantHistory(value())
        elif kind == 1:
            phi = LinearHistory(value(), rng.choice((value(), value() / h)))
        else:
            first = rng.choice((-h, -h * (1.0 + rng.uniform(-1e-9, 1e-9)), rng.choice(nodes)))
            later = {*rng.sample(nodes + mids, min(2 * n_per, rng.randint(1, 6))),
                     *(rng.uniform(first, 0.0) for _ in range(rng.randint(0, 4)))}
            stamps = [first, *sorted(t for t in later if first < t < 0.0)]
            if len(stamps) < 2:
                stamps.append(first / 2.0)
            phi = SampledHistory(tuple((t, value()) for t in stamps))
            yield phi, sorted({*nodes, *mids, *stamps, first - rng.uniform(0.0, h), stamps[-1] / 2.0})
        yield phi, nodes
        yield phi, mids
