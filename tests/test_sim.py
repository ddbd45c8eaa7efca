"""Tests for the method-of-steps integrator and eigenvalue estimator."""

import bisect
import copy
import math
import pickle
import sys
from decimal import Decimal
from fractions import Fraction
from functools import reduce
from itertools import repeat
from operator import add, mul

import pytest
from hypothesis import given, settings, strategies as st

import delayw
from delayw import (
    ClosedLoopParams,
    DomainError,
    Gains,
    InsufficientData,
    InvalidStep,
    NonFiniteInput,
    SystemParams,
    assign_both,
    close_loop,
    sim,
    spectrum,
)
from delayw.sim import (
    ConstantHistory,
    EigEstimate,
    InitialData,
    LinearHistory,
    SampledHistory,
    TAIL_FRACTION,
    Trajectory,
    estimate_dominant_eig_detailed,
    simulate,
)

from recipes import bench_module, history_call_taus, history_grids

UNIT = InitialData(1.0, ConstantHistory(1.0))


def rk4_method_of_steps(cl, init, t_final, step):
    """Stage-by-stage RK4 with cubic Hermite dense output: the reference
    for simulate's folded one-line recurrence.  Returns (values, truncated)."""
    alpha, beta, h, phi = cl.alpha, cl.beta, cl.h, init.phi
    n_per = max(1, math.ceil(h / step - 1e-12))
    dt = h / n_per
    total = math.floor(t_final / dt + 1e-9)
    xs = [init.x0]
    fs = [alpha * init.x0 + beta * phi(-h)]

    def node_delayed(j):
        return xs[j - n_per] if j >= n_per else phi(j * dt - h)

    def mid_delayed(j):
        jj = j - n_per
        if jj < 0:
            return phi((j + 0.5) * dt - h)
        return 0.5 * (xs[jj] + xs[jj + 1]) + 0.125 * dt * (fs[jj] - fs[jj + 1])

    for i in range(total):
        x, d_mid, d_end = xs[i], mid_delayed(i), node_delayed(i + 1)
        k1 = fs[i]
        k2 = alpha * (x + 0.5 * dt * k1) + beta * d_mid
        k3 = alpha * (x + 0.5 * dt * k2) + beta * d_mid
        k4 = alpha * (x + dt * k3) + beta * d_end
        x_next = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not math.isfinite(x_next) or abs(x_next) > 1e300:
            return xs, True
        xs.append(x_next)
        fs.append(alpha * x_next + beta * d_end)
    return xs, False


# every history kind, and the edge cases below: shared by the stagewise
# and the bitwise comparisons
RK4_CASES = [
    (ClosedLoopParams(-1.0, -2.0, 1.0), UNIT, 6.0, 0.01),
    (ClosedLoopParams(-0.5, -1.0, 0.7), InitialData(0.3, LinearHistory(1.0, -2.0)), 5.0, 0.003),
    (ClosedLoopParams(0.4, -1.5, 1.3),
     InitialData(-0.2, SampledHistory(((-1.3, 0.5), (-0.9, -1.0), (-0.2, 0.25)))), 9.0, 0.013),
    # t_final == h: the history phase alone
    (ClosedLoopParams(-1.0, -2.0, 0.7), InitialData(1.0, LinearHistory(0.5, 1.0)), 0.7, 0.01),
    # step >= h: one step per delay, whose delayed end node is x0
    (ClosedLoopParams(-0.3, -0.4, 1.0), InitialData(2.0, LinearHistory(-1.0, 3.0)), 30.0, 2.0),
    # overflow in the stored phase and in the history phase
    (ClosedLoopParams(2.0, 0.5, 1.0), UNIT, 400.0, 0.01),
    (ClosedLoopParams(800.0, 1.0, 1.0), UNIT, 2.0, 0.01),
]


def folded_rk4(cl, init, t_final, step):
    """simulate's recurrence written index by index, with the same
    coefficients and the same order of operations: simulate must match
    it bit for bit.  The first delay interval takes the folded step
    x_{n+1} = c0 x_n + c1 f_n + c2 d_mid + c3 d_end on history values;
    later steps take x_{n+1} = x_n + (A x_n + B x_{n-N} + C x_{n+1-N} +
    D (x_{n-2N} - x_{n+1-2N})), N steps per delay, where x_{j-N}, j < N,
    is the history node phi(j dt - h).  Returns (values, truncated)."""
    alpha, beta, h, phi = cl.alpha, cl.beta, cl.h, init.phi
    n_per = max(1, math.ceil(h / step - 1e-12))
    dt = h / n_per
    total = math.floor(t_final / dt + 1e-9)
    a = alpha * dt
    e0 = a * (5.0 / 6.0 + a / 3.0 + a * a / 12.0)
    c0 = 1.0 + e0
    c1 = dt / 6.0 * (1.0 + a + a * a / 2.0 + a * a * a / 4.0)
    c2 = beta * dt / 6.0 * (4.0 + 2.0 * a + a * a / 2.0)
    c3 = beta * dt / 6.0
    q = 0.125 * dt
    A = e0 + c1 * alpha
    B = c1 * beta + 0.5 * c2 + c2 * q * alpha
    C = 0.5 * c2 - c2 * q * alpha + c3
    D = c2 * q * beta
    xs = [init.x0]

    def node(j):
        return xs[j] if j >= 0 else phi((j + n_per) * dt - h)

    f = alpha * init.x0 + beta * phi(-h)
    for i in range(total):
        if i < n_per:
            d_end = node(i + 1 - n_per)
            x = c0 * xs[i] + c1 * f + c2 * phi((i + 0.5) * dt - h) + c3 * d_end
            f = alpha * x + beta * d_end
        else:
            x = xs[i]
            x += A * x + B * node(i - n_per) + C * node(i + 1 - n_per) + D * (
                node(i - 2 * n_per) - node(i + 1 - 2 * n_per))
        if not abs(x) <= 1e300:
            return xs, True
        xs.append(x)
    return xs, False


def exact_scheme(mpmath, cl, init, t_final, step, max_steps):
    """The folded step x_{n+1} = c0 x_n + c1 f_n + c2 d_mid + c3 d_end,
    with the Hermite midpoint of stored nodes past the first delay, run
    in the working precision of mpmath on simulate's grid and history
    values, with coefficients exact for them: what simulate computes,
    less its rounding.  At most max_steps steps; returns (values,
    truncated)."""
    alpha, beta, h, phi = cl.alpha, cl.beta, cl.h, init.phi
    n_per = max(1, math.ceil(h / step - 1e-12))
    dt = h / n_per
    total = math.floor(t_final / dt + 1e-9)
    al, b, d = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(dt)
    a = al * d
    c0 = 1 + a * (mpmath.mpf(5) / 6 + a / 3 + a * a / 12)
    c1 = d / 6 * (1 + a + a * a / 2 + a * a * a / 4)
    c2 = b * d / 6 * (4 + 2 * a + a * a / 2)
    c3 = b * d / 6
    nodes = [mpmath.mpf(phi(j * dt - h)) for j in range(n_per)] + [mpmath.mpf(init.x0)]
    fs = [al * nodes[n_per] + b * nodes[0]]
    for i in range(min(total, max_steps)):
        x, f = nodes[i + n_per], fs[i]
        if i < n_per:
            d_mid = mpmath.mpf(phi((i + 0.5) * dt - h))
        else:
            d_mid = (nodes[i] + nodes[i + 1]) / 2 + d / 8 * (fs[i - n_per] - fs[i + 1 - n_per])
        d_end = nodes[i + 1]
        x = c0 * x + c1 * f + c2 * d_mid + c3 * d_end
        if abs(x) > 1e300:
            return nodes[n_per:], True
        nodes.append(x)
        fs.append(al * x + b * d_end)
    return nodes[n_per:], False


def loop_estimate(traj):
    """The estimator written as index-by-index loops over the tail: the
    reference that estimate_dominant_eig_detailed must match field for
    field, InsufficientData message included, on finite tails.  Its sums
    add left to right, as sum() does up to Python 3.11."""
    def total(xs):
        return reduce(add, xs, 0)

    def lsq_slope(ts, ys):
        n = len(ts)
        tm = total(ts) / n
        ym = total(ys) / n
        num = total((t - tm) * (y - ym) for t, y in zip(ts, ys))
        den = total((t - tm) ** 2 for t in ts)
        slope = num / den
        icept = ym - slope * tm
        rss = total((y - (icept + slope * t)) ** 2 for t, y in zip(ts, ys))
        return slope, math.sqrt(rss / n)

    n = len(traj.values)
    start = n - math.ceil(n * TAIL_FRACTION)
    ts = traj.times[start:]
    xs = traj.values[start:]
    if len(xs) < 20:
        raise InsufficientData(f"tail holds {len(xs)} samples; need at least 20")
    amax = max(abs(x) for x in xs)
    if amax == 0.0:
        raise InsufficientData("tail is identically zero; no mode is excited")
    spread = max(xs) - min(xs)
    if spread <= 1e-9 * amax:
        return EigEstimate(0j, "constant", spread, 0)
    crossings = []
    for i in range(len(xs) - 1):
        a, b = xs[i], xs[i + 1]
        if a == 0.0:
            crossings.append(ts[i])
        elif (a > 0.0) != (b > 0.0) and b != 0.0:
            crossings.append(ts[i] + (ts[i + 1] - ts[i]) * a / (a - b))
    if xs[-1] == 0.0:
        crossings.append(ts[-1])
    if len(crossings) >= 10:
        spacings = [t1 - t0 for t0, t1 in zip(crossings, crossings[1:])]
        omega = math.pi / (total(spacings) / len(spacings))
        peak_ts, peak_logs = [], []
        k = 0
        for t0, t1 in zip(crossings, crossings[1:]):
            best_t, best_a = None, 0.0
            while k < len(xs) and ts[k] <= t1:
                if ts[k] >= t0 and abs(xs[k]) > best_a:
                    best_t, best_a = ts[k], abs(xs[k])
                k += 1
            k = max(0, k - 1)
            if best_t is not None and best_a > 0.0:
                peak_ts.append(best_t)
                peak_logs.append(math.log(best_a))
        if len(peak_ts) < 4:
            raise InsufficientData("oscillatory tail with too few usable envelope peaks")
        rate, resid = lsq_slope(peak_ts, peak_logs)
        return EigEstimate(complex(rate, omega), "oscillatory", resid, len(crossings))
    if crossings:
        raise InsufficientData(
            f"tail crosses zero {len(crossings)} times: too few for a frequency fit, "
            "too many for a monotone fit")
    efold = abs(math.log(abs(xs[-1])) - math.log(abs(xs[0])))
    if efold < 10.0:
        raise InsufficientData(
            f"monotone tail spans {efold:.2f} e-foldings; need 10 for a trustworthy rate")
    rate, resid = lsq_slope(ts, [math.log(abs(x)) for x in xs])
    return EigEstimate(complex(rate, 0.0), "monotone", resid, 0)


def outcome(estimator, traj):
    """Every bit of an estimate (repr round-trips each float, -0.0
    included), or the InsufficientData message."""
    try:
        return repr(estimator(traj))
    except InsufficientData as exc:
        return f"InsufficientData: {exc}"


def old_times(traj):
    """The uniform grid as a plain tuple of step * j."""
    return tuple(map(mul, repeat(traj.step), range(len(traj.values))))


def bits(xs):
    return tuple(map(float.hex, xs))


def point_value(phi, tau):
    """A built-in history at one tau by its formula, edge holds and
    interpolation weight as documented: the reference for its grid
    reads."""
    if type(phi) is ConstantHistory:
        return phi.c
    if type(phi) is LinearHistory:
        return phi.c0 + phi.c1 * tau
    pts = phi.points
    if tau <= pts[0][0]:
        return pts[0][1]
    if tau >= pts[-1][0]:
        return pts[-1][1]
    hi = bisect.bisect_right(pts, tau, key=lambda p: p[0])
    (t0, x0), (t1, x1) = pts[hi - 1], pts[hi]
    w = (tau - t0) / (t1 - t0)
    return x0 * (1.0 - w) + x1 * w


def decaying_sine(n, dt, rate=-0.1, omega=6.0):
    ts = tuple(i * dt for i in range(n))
    return ts, [math.exp(rate * t) * math.sin(omega * t) for t in ts]


def _edited_sine(edits):
    """A 400-sample decaying sine with edits(xs) -> [(index, value)] applied."""
    ts, xs = decaying_sine(400, 0.05)
    for i, x in edits(xs):
        xs[i] = x
    return Trajectory(times=ts, values=tuple(xs), step=0.05)


def _tail_sign_changes(xs):
    return [i for i in range(200, len(xs) - 1) if (xs[i] > 0.0) != (xs[i + 1] > 0.0)]


def _signed_zeros(xs):
    # a double zero at a sign change, a lone -0.0 at another, and a 0.0
    # at the top of a positive run
    c = _tail_sign_changes(xs)
    top = max(range(200, len(xs)), key=xs.__getitem__)
    return [(c[0], 0.0), (c[0] + 1, -0.0), (c[3] + 1, -0.0), (top, 0.0)]


def _tiny_at_sign_changes(xs):
    # a tiny sample on either side of a sign change puts the interpolated
    # crossing exactly on a sample time
    c = _tail_sign_changes(xs)
    return [(i, math.copysign(1e-300, xs[i])) for i in (c[1], c[4] + 1)]


def _equal_opposite_peaks(sign):
    # tail times one ulp apart from 1.0, so every crossing rounds onto a
    # sample; moduli 1, 1, 2, 2, ... with alternating signs put m and -m,
    # in the order sign decides, in one segment (the tie between them
    # rounds to the even time)
    m = 30
    head = tuple(i * 0.9 / m for i in range(m))
    tail = tuple(1.0 + k * math.ulp(1.0) for k in range(m))
    xs = tuple(0.5 for _ in range(m)) + tuple(sign * (-1.0) ** k * (1 + k // 2) for k in range(m))
    return Trajectory(times=head + tail, values=xs, step=0.9 / m)


def _subnormal_at_sign_change(xs):
    # the sample before a sign change becomes the least subnormal of its sign
    i = _tail_sign_changes(xs)[2]
    return [(i, math.copysign(5e-324, xs[i]))]


def _inside_run(xs, positive):
    # a sample two past the start of a positive or a negative run
    return next(i + 2 for i in _tail_sign_changes(xs) if (xs[i + 1] > 0.0) == positive)


CRAFTED_TAILS = {
    "signed_zeros": lambda: _edited_sine(_signed_zeros),
    "zero_last_sample": lambda: _edited_sine(lambda xs: [(len(xs) - 1, 0.0)]),
    "negative_zero_last_sample": lambda: _edited_sine(lambda xs: [(len(xs) - 1, -0.0)]),
    "crossing_on_sample": lambda: _edited_sine(_tiny_at_sign_changes),
    # samples whose high byte is 0x00 or 0x80: the signs are read sample by sample
    "subnormal_at_sign_change": lambda: _edited_sine(_subnormal_at_sign_change),
    "tiny_inside_positive_run": lambda: _edited_sine(lambda xs: [(_inside_run(xs, True), 2.0 ** -1010)]),
    # finite samples whose high byte is 0x7f or 0xff, like an inf's or a
    # NaN's: the tail takes the whole-tail checks and passes them
    "huge_finite_in_mixed_tail": lambda: _edited_sine(lambda xs: [(_inside_run(xs, True), 2.0 ** 1010)]),
    "huge_negative_in_mixed_tail": lambda: _edited_sine(lambda xs: [(_inside_run(xs, False), -2.0 ** 1010)]),
    # no x > 0 flag changes at it: a crossing only the zero scan finds
    "lone_negative_zero": lambda: _edited_sine(lambda xs: [(_inside_run(xs, False), -0.0)]),
    "equal_opposite_peaks_positive_first": lambda: _equal_opposite_peaks(1.0),
    "equal_opposite_peaks_negative_first": lambda: _equal_opposite_peaks(-1.0),
    # the golden simulate-truncated command: a monotone run cut at overflow
    "monotone_truncated": lambda: simulate(ClosedLoopParams(1.0, 2.0, 1.0), UNIT, 800.0, 0.5),
    "monotone_decay": lambda: simulate(ClosedLoopParams(-1.0, 0.0, 1.0), UNIT, 25.0, 0.01),
    "constant": lambda: simulate(ClosedLoopParams(1.0, -1.0, 1.0), UNIT, 10.0, 0.01),
    "zero": lambda: simulate(ClosedLoopParams(-1.0, -2.0, 1.0), InitialData(0.0, ConstantHistory(0.0)), 10.0),
    "too_few_efoldings": lambda: simulate(ClosedLoopParams(-0.05, 0.0, 1.0), UNIT, 20.0, 0.01),
    "too_few_crossings": lambda: Trajectory(
        times=tuple(i * 0.01 for i in range(2000)),
        values=tuple(math.sin(0.005 * i) for i in range(2000)), step=0.01),
    "short": lambda: Trajectory(times=tuple(i * 0.1 for i in range(30)),
                                values=tuple(1.0 for _ in range(30)), step=0.1),
    # a monotone tail through 600 decades: the ratio of its end samples
    # underflows to 0
    "monotone_600_decades": lambda: Trajectory(
        times=tuple(i * 0.1 for i in range(100)),
        values=(1e300,) * 50 + tuple(10.0 ** (300 - 600 * k / 49) for k in range(50)), step=0.1),
}


class TestHistories:
    def test_constant(self):
        phi = ConstantHistory(2.5)
        assert phi(-1.0) == phi(-0.001) == 2.5
        with pytest.raises(NonFiniteInput):
            ConstantHistory(math.nan)

    def test_linear(self):
        phi = LinearHistory(1.0, 2.0)
        assert phi(-0.5) == 0.0
        assert phi(0.0) == 1.0
        for c0, c1 in ((math.nan, 0.0), (0.0, math.inf)):
            with pytest.raises(NonFiniteInput):
                LinearHistory(c0, c1)

    def test_sampled_interpolates(self):
        phi = SampledHistory(((-1.0, 0.0), (-0.5, 1.0), (-0.25, 1.0)))
        assert phi(-0.75) == pytest.approx(0.5)
        assert phi(-1.0) == 0.0
        # edge hold outside the stamped range
        assert phi(-2.0) == 0.0
        assert phi(-0.1) == 1.0

    def test_call_checks_tau(self):
        # a call takes tau by the rule of every real input, then reads
        # the history through its grid interpolation
        for phi in (ConstantHistory(2.5), LinearHistory(1.0, -0.75),
                    SampledHistory(((-1.0, 0.0), (-0.5, 1.0), (-0.25, -2.0)))):
            for bad in (math.nan, math.inf, -math.inf, 10**400):
                with pytest.raises(NonFiniteInput, match="tau must be finite"):
                    phi(bad)
            for bad in ("a", "-0.5", True, False, 1j, None):
                with pytest.raises(DomainError, match="tau must be a real number"):
                    phi(bad)
            taus = [-1.0, -0.5, -0.25, 0.0, -2, 0, *history_call_taus()]
            for tau in taus + [math.nextafter(t, d) for t in (-1.0, -0.5, -0.25) for d in (-2.0, 0.0)]:
                assert bits([phi(tau)]) == bits(phi._at((tau,))), (phi, tau)
            # any other finite real counts as its float
            assert bits([phi(Fraction(-3, 4)), phi(Decimal("-0.75"))]) == bits([phi(-0.75)] * 2)

    def test_sampled_validation(self):
        with pytest.raises(DomainError):
            SampledHistory(((-1.0, 0.0),))
        with pytest.raises(DomainError):
            SampledHistory(((-0.5, 0.0), (-1.0, 1.0)))
        with pytest.raises(DomainError):
            SampledHistory(((-1.0, 0.0), (0.0, 1.0)))
        with pytest.raises(NonFiniteInput):
            SampledHistory(((-1.0, math.inf), (-0.5, 0.0)))
        with pytest.raises(NonFiniteInput):
            SampledHistory(((-1.0, 0.0), (math.nan, 1.0), (-0.5, 0.0)))

    def test_sampled_span_checked_at_simulate(self):
        cl = ClosedLoopParams(-1.0, -0.5, 1.0)
        short = InitialData(1.0, SampledHistory(((-0.4, 1.0), (-0.2, 1.0))))
        with pytest.raises(DomainError):
            simulate(cl, short, 3.0, 0.01)

    def test_sampled_span_check_is_scale_free(self):
        # a first stamp off -h by 0.5e-9*h passes and one off by 2e-9*h
        # fails, whatever the time unit: the loop and its history
        # rescaled by a power of two keep their verdict
        for off, fits in ((0.5e-9, True), (-0.5e-9, True), (2e-9, False), (-2e-9, False)):
            for c in (2.0 ** -20, 1.0, 2.0 ** 20):
                h = 0.7 * c
                cl = ClosedLoopParams(-1.0 / c, -0.5 / c, h)
                init = InitialData(1.0, SampledHistory(((-h + off * h, 1.0), (-0.5 * h, 0.5))))
                if fits:
                    simulate(cl, init, 3.0 * h, 0.01 * h)
                else:
                    with pytest.raises(DomainError, match="span"):
                        simulate(cl, init, 3.0 * h, 0.01 * h)

    def test_grids_match_calls(self):
        # each built-in history reads a list of taus with the bits and
        # types of its calls and of its formula, tau by tau: ints stay ints
        def typed_bits(values):
            return [(type(v), float(v).hex()) for v in values]

        for phi, taus in history_grids():
            want = typed_bits([point_value(phi, t) for t in taus])
            assert typed_bits(phi._at(taus)) == want == typed_bits([phi(t) for t in taus]), phi
        for phi in (ConstantHistory(2), LinearHistory(1, 2), SampledHistory(((-1, 3), (-0.5, 4)))):
            assert phi._at([]) == []

    def test_initial_data_validation(self):
        with pytest.raises(NonFiniteInput):
            InitialData(math.inf, ConstantHistory(0.0))
        with pytest.raises(DomainError):
            InitialData(0.0, "not callable")
        # a value that is not a real number, a bool included, and an int
        # past the double range
        for bad in ("a", None, 1j, True):
            for record in (lambda: InitialData(bad, UNIT.phi), lambda: ConstantHistory(bad),
                           lambda: LinearHistory(bad, 0.0), lambda: LinearHistory(1.0, bad)):
                with pytest.raises(DomainError, match="must be a real number"):
                    record()
        for record in (lambda: InitialData(10**400, UNIT.phi), lambda: ConstantHistory(-10**400),
                       lambda: LinearHistory(1.0, 10**400)):
            with pytest.raises(NonFiniteInput):
                record()
        for bad in ([(-1.0, None), (-0.5, 1.0)], [(-1.0, "a"), (-0.5, 1.0)], [(-1.0,), (-0.5, 1.0)], 5):
            with pytest.raises(DomainError):
                SampledHistory(bad)
        # the same checks as the other histories: float() would take a
        # bool as 0 or 1 and a numeric string as its value
        for bad in ([(-1.0, True), (-0.5, "2.0")], [(-1.0, 0.0), (False, 1.0)],
                    [("-1.0", 0.0), (-0.5, 1.0)], [(-1.0, 1j), (-0.5, 1.0)]):
            with pytest.raises(DomainError, match="must be a real number"):
                SampledHistory(bad)
        for bad in ([(-1.0, 10**400), (-0.5, 1.0)], [(-10**400, 0.0), (-0.5, 1.0)]):
            with pytest.raises(NonFiniteInput):
                SampledHistory(bad)
        # ints are taken as given, any other finite real as its float
        for pts, types in (([(-1, 0), (-0.5, 2)], [int, int, float, int]),
                           ([(Decimal("-1"), Fraction(1, 2)), (-0.5, 2)], [float, float, float, int])):
            points = SampledHistory(pts).points
            assert points == tuple(pts) and [type(x) for pt in points for x in pt] == types


class TestSimulate:
    def test_delay_free_exponential(self):
        traj = simulate(ClosedLoopParams(-1.0, 0.0, 1.0), UNIT, 5.0, 1e-3)
        err = max(abs(x - math.exp(-t)) for t, x in zip(traj.times, traj.values))
        assert err <= 1e-8

    def test_constant_solution(self):
        # x' = x(t) - x(t-h) with flat unit history stays at 1
        traj = simulate(ClosedLoopParams(1.0, -1.0, 1.0), UNIT, 10.0, 0.01)
        assert max(abs(x - 1.0) for x in traj.values) == 0.0

    def test_fourth_order_convergence(self):
        cl = ClosedLoopParams(-1.0, -2.0, 1.0)
        ref = simulate(cl, UNIT, 6.0, 1.0 / 4096.0)
        ref_at = dict(zip((round(t, 12) for t in ref.times), ref.values))
        errs = []
        for k in (16, 32, 64):
            tr = simulate(cl, UNIT, 6.0, 1.0 / k)
            errs.append(max(abs(x - ref_at[round(t, 12)])
                            for t, x in zip(tr.times, tr.values)))
        for coarse, fine in zip(errs, errs[1:]):
            assert 12.0 < coarse / fine < 20.0

    def test_step_snaps_to_delay(self):
        # 0.3 does not divide 1: snapped down to 1/4
        traj = simulate(ClosedLoopParams(-1.0, 0.0, 1.0), UNIT, 2.0, 0.3)
        assert traj.step == 0.25
        assert traj.times[-1] == pytest.approx(2.0)

    def test_uniform_grid_from_zero(self):
        traj = simulate(ClosedLoopParams(-1.0, -0.5, 0.7), UNIT, 3.0, 0.01)
        assert traj.times[0] == 0.0
        diffs = {round(t1 - t0, 15) for t0, t1 in zip(traj.times, traj.times[1:])}
        assert len(diffs) == 1

    def test_invalid_step(self):
        cl = ClosedLoopParams(-1.0, 0.0, 1.0)
        # what no record takes as a real number raises InvalidStep here,
        # as does a step that is not positive (None is the default step)
        bad_reals = (True, "0.5", 1j, math.nan, math.inf, -math.inf, 10**400, Decimal("sNaN"))
        for bad in (0.0, -0.1, *bad_reals):
            with pytest.raises(InvalidStep, match="step"):
                simulate(cl, UNIT, 5.0, bad)
        with pytest.raises(InvalidStep):
            simulate(cl, UNIT, 0.5)  # below one delay interval
        for bad in (None, *bad_reals):
            with pytest.raises(InvalidStep, match="t_final"):
                simulate(cl, UNIT, bad)
        # any other finite real counts as its float, and an int as itself
        assert simulate(cl, UNIT, 2) == simulate(cl, UNIT, 2.0)
        for step in (Decimal("0.01"), Fraction(1, 100)):
            assert simulate(cl, UNIT, 2.0, step) == simulate(cl, UNIT, 2.0, 0.01)
        for t_final in (Decimal("2.5"), Fraction(5, 2)):
            assert simulate(cl, UNIT, t_final, 0.01) == simulate(cl, UNIT, 2.5, 0.01)
        assert simulate(cl, UNIT, 5.0, 1) == simulate(cl, UNIT, 5.0, 1.0)

    @pytest.mark.parametrize("cl, init, t_final, step", RK4_CASES)
    def test_matches_stagewise_rk4(self, cl, init, t_final, step):
        traj = simulate(cl, init, t_final, step)
        ref, truncated = rk4_method_of_steps(cl, init, t_final, step)
        assert len(traj.values) == len(ref)
        assert traj.truncated == truncated
        scale = max(abs(x) for x in ref)
        assert max(abs(x - y) for x, y in zip(traj.values, ref)) <= 1e-11 * scale

    @pytest.mark.parametrize("cl, init, t_final, step", RK4_CASES)
    def test_matches_folded_step_bitwise(self, cl, init, t_final, step):
        # the folded step differs from the stagewise one in the last bits;
        # against its own index-by-index form it must not differ at all
        traj = simulate(cl, init, t_final, step)
        ref, truncated = folded_rk4(cl, init, t_final, step)
        assert traj.values == tuple(ref)
        assert traj.truncated == truncated
        # the lazy grid keeps the bits of the time tuple it replaces
        assert bits(traj.times) == bits(old_times(traj))

    @pytest.mark.parametrize("cl, init, t_final, step", RK4_CASES)
    def test_matches_exact_scheme(self, cl, init, t_final, step):
        # rounding alone: each value within 1e-11 of the largest |x| over
        # the delay before it, against the scheme run in 40 digits over
        # the first 2,000 steps at most
        mpmath = pytest.importorskip("mpmath")
        traj = simulate(cl, init, t_final, step)
        with mpmath.workdps(40):
            ref, truncated = exact_scheme(mpmath, cl, init, t_final, step, 2000)
        assert len(traj.values) >= len(ref)
        if truncated or len(ref) <= 2000:
            assert (len(traj.values), traj.truncated) == (len(ref), truncated)
        n_per = max(1, math.ceil(cl.h / step - 1e-12))
        mags = [float(abs(x)) for x in ref]
        for n, (x, y) in enumerate(zip(traj.values, ref)):
            assert float(abs(x - y)) <= 1e-11 * max(mags[max(0, n - n_per):n + 1])

    def test_overflow_truncates_with_flag(self):
        traj = simulate(ClosedLoopParams(2.0, 0.5, 1.0), UNIT, 400.0, 0.01)
        assert traj.truncated
        assert traj.times[-1] < 400.0
        assert all(math.isfinite(x) for x in traj.values)
        assert abs(traj.values[-1]) <= 1e300

    def test_history_actually_consulted(self):
        # same loop, different history slope: trajectories must differ
        cl = ClosedLoopParams(-0.5, -1.0, 1.0)
        flat = simulate(cl, InitialData(1.0, ConstantHistory(1.0)), 3.0, 0.01)
        sloped = simulate(cl, InitialData(1.0, LinearHistory(1.0, 1.0)), 3.0, 0.01)
        assert flat.values[0] == sloped.values[0] == 1.0
        assert max(abs(a - b) for a, b in zip(flat.values, sloped.values)) > 1e-3

    def test_csv_contract(self):
        traj = simulate(ClosedLoopParams(-1.0, 0.0, 1.0), UNIT, 1.0, 0.5)
        lines = traj.to_csv().splitlines()
        assert lines[0] == "t,x"
        assert len(lines) == len(traj.times) + 1
        t, x = lines[2].split(",")
        assert float(t) == traj.times[1]
        assert float(x) == traj.values[1]

    def test_history_values_checked(self):
        # phi is any callable: its values at the nodes and midpoints of
        # [-h, 0) are checked once, before the first step
        cl = ClosedLoopParams(-1.0, -2.0, 1.0)
        for phi in (lambda tau: math.nan, lambda tau: -math.inf,
                    lambda tau: math.inf if tau > -0.3 else 1.0, lambda tau: 10**400):
            with pytest.raises(NonFiniteInput):
                simulate(cl, InitialData(1.0, phi), 3.0, 0.01)
        # a midpoint alone: the nodes sit on multiples of the step
        with pytest.raises(NonFiniteInput):
            simulate(cl, InitialData(1.0, lambda tau: 1.0 if round(tau / 0.01, 6).is_integer() else math.nan),
                     3.0, 0.01)
        for phi in (lambda tau: 1j, lambda tau: True, lambda tau: 1.0 if tau < -0.5 else False,
                    lambda tau: "1.0", lambda tau: None):
            with pytest.raises(DomainError, match="real numbers"):
                simulate(cl, InitialData(1.0, phi), 3.0, 0.01)
        # a signaling NaN is not finite, as in every record
        with pytest.raises(NonFiniteInput, match="real numbers"):
            simulate(cl, InitialData(1.0, lambda tau: Decimal("sNaN") if tau > -0.5 else 1.0), 3.0, 0.01)
        # finite values whose sum overflows are taken, and any other finite
        # real counts as its float, an int as itself
        assert simulate(cl, InitialData(1.0, lambda tau: 1e308), 3.0, 0.01).truncated
        for kind in (int, Decimal, Fraction):
            assert simulate(cl, InitialData(1, lambda tau: kind(1)), 3.0, 0.01) == simulate(cl, UNIT, 3.0, 0.01)
        want = simulate(cl, InitialData(1.0, lambda tau: 1.0 + 0.1 * tau), 3.0, 0.01)
        for kind in (Decimal, Fraction):  # each holds the float exactly
            assert simulate(cl, InitialData(1.0, lambda tau: kind(1.0 + 0.1 * tau)), 3.0, 0.01) == want

    def test_history_calls(self, monkeypatch):
        # a built-in history is read over the grid, never called point by
        # point; any other callable is called once per node and midpoint
        calls = []
        for cls in (ConstantHistory, LinearHistory, SampledHistory):
            monkeypatch.setattr(cls, "__call__", lambda self, tau: calls.append(tau))
        cl = ClosedLoopParams(-1.0, -2.0, 1.0)
        for phi in (ConstantHistory(1.0), LinearHistory(1.0, -0.5), SampledHistory(((-1.0, 0.5), (-0.5, -1.0)))):
            simulate(cl, InitialData(1.0, phi), 3.0, 0.01)
        assert calls == []
        for h, t_final, step, n_per in ((1.0, 3.0, 0.01, 100), (0.7, 0.7, 0.01, 70), (1.0, 30.0, 2.0, 1),
                                        (1.0, 2.0, 0.3, 4)):
            plain = []
            simulate(ClosedLoopParams(-1.0, -2.0, h), InitialData(1.0, lambda tau: plain.append(tau) or 1.0),
                     t_final, step)
            # n_per nodes and min(total, n_per) = n_per midpoints
            assert len(plain) == 2 * n_per

    def test_grid_is_a_sequence(self):
        traj = simulate(ClosedLoopParams(-1.0, -2.0, 1.0), UNIT, 6.0, 0.01)
        grid, old = traj.times, old_times(traj)
        n = len(old)
        assert len(grid) == n == 601
        assert (grid[0], grid[-1], grid[n - 1], grid[-n]) == (old[0], old[-1], old[n - 1], old[-n])
        for i in (n, -n - 1, 10**30):
            with pytest.raises(IndexError):
                grid[i]
        with pytest.raises(TypeError):
            grid[1.0]
        for sl in (slice(None), slice(300, None), slice(-5, None), slice(None, None, -7), slice(10, 3),
                   slice(-10**30, 10**30, 3)):
            assert type(grid[sl]) is tuple
            assert bits(grid[sl]) == bits(old[sl])
        assert bits(grid) == bits(old)
        assert bits(reversed(grid)) == bits(reversed(old))

    def test_grid_compares_as_its_tuple(self):
        cl = ClosedLoopParams(-1.0, -2.0, 1.0)
        traj = simulate(cl, UNIT, 6.0, 0.01)
        grid, old = traj.times, old_times(traj)
        assert grid == old and old == grid
        assert not (grid != old or old != grid)
        assert grid != old[:-1] and old[:-1] != grid and grid != list(old)
        again = simulate(cl, UNIT, 6.0, 0.01)
        assert again.times is not grid and again.times == grid and again == traj
        assert simulate(cl, UNIT, 5.0, 0.01).times != grid
        assert simulate(cl, UNIT, 6.0, 0.02).times != grid
        assert hash(grid) == hash(old) and hash(traj) == hash(traj._replace(times=old))
        for twin in (pickle.loads(pickle.dumps(traj)), pickle.loads(pickle.dumps(traj, 0)), copy.deepcopy(traj),
                     copy.copy(traj)):
            assert twin == traj and type(twin.times) is type(grid)
            assert bits(twin.times) == bits(old)
        # a record equals the plain tuple of its fields
        fields = (old, traj.values, traj.step, traj.truncated)
        assert traj == fields and fields == traj
        assert tuple(traj) == fields

    def test_grid_not_materialized(self):
        # the grid holds its step and length, not its items
        cl = ClosedLoopParams(-1.0, -2.0, 1.0)
        short, long = simulate(cl, UNIT, 2.0, 0.01), simulate(cl, UNIT, 200.0, 0.01)
        assert len(long.times) == 100 * len(short.times) - 99
        assert sys.getsizeof(long.times) == sys.getsizeof(short.times) < 100
        assert repr(short.times) == "_Grid(step=0.01, n=201)"
        assert "times=_Grid(step=0.01, n=201)," in repr(short)

    def test_trajectory_invariants(self):
        with pytest.raises(DomainError):
            Trajectory(times=(0.0, 0.1), values=(1.0,), step=0.1)
        with pytest.raises(DomainError):
            Trajectory(times=(0.5, 0.6), values=(1.0, 1.0), step=0.1)


class TestEstimate:
    def test_monotone_decay(self):
        traj = simulate(ClosedLoopParams(-1.0, 0.0, 1.0), UNIT, 25.0, 1e-3)
        est = estimate_dominant_eig_detailed(traj)
        assert est.kind == "monotone"
        assert est.value.imag == 0.0
        assert abs(est.value.real + 1.0) <= 1e-3

    def test_oscillatory(self):
        traj = simulate(ClosedLoopParams(-1.0, -2.0, 1.0), UNIT, 40.0)
        est = estimate_dominant_eig_detailed(traj)
        ref = complex(-0.092484, 1.99730)
        assert est.kind == "oscillatory"
        assert est.n_crossings >= 10
        assert abs(est.value - ref) <= 1e-2 * abs(ref)

    def test_constant(self):
        traj = simulate(ClosedLoopParams(1.0, -1.0, 1.0), UNIT, 10.0, 0.01)
        est = estimate_dominant_eig_detailed(traj)
        assert est.value == 0j
        assert est.kind == "constant"

    def test_scale_invariant(self):
        # the same loop started 1e-15 smaller: the fit must not read the
        # tiny tail as constant
        cl = ClosedLoopParams(-1.0, -2.0, 1.0)
        unit = estimate_dominant_eig_detailed(simulate(cl, UNIT, 40.0))
        tiny = estimate_dominant_eig_detailed(
            simulate(cl, InitialData(1e-15, ConstantHistory(1e-15)), 40.0))
        assert unit.kind == tiny.kind == "oscillatory"
        assert abs(unit.value - tiny.value) <= 1e-9 * abs(unit.value)

    def test_decayed_tail(self):
        # a fast-decaying loop whose tail peaks near 2e-20
        plant = SystemParams(a=0.0, a1d=0.0, b=1.0, h=1.0)
        cl = assign_both(plant, complex(-1.5, 2.5)).closed_loop
        traj = simulate(cl, UNIT, 60.0)
        assert max(abs(x) for x in traj.values[len(traj.values) // 2:]) < 1e-19
        rm = spectrum(cl, 0).rightmost
        est = estimate_dominant_eig_detailed(traj)
        assert est.kind == "oscillatory"
        assert abs(est.value - rm) <= 1e-2 * abs(rm)

    def test_growth_rate(self):
        cl = ClosedLoopParams(0.1, -2.0, 1.0)
        rm = spectrum(cl, 0).rightmost
        traj = simulate(cl, UNIT, 40.0)
        est = estimate_dominant_eig_detailed(traj).value
        assert abs(est - rm) <= 1e-2 * abs(rm)

    def test_insufficient_tail(self):
        traj = Trajectory(times=tuple(i * 0.1 for i in range(10)),
                          values=tuple(1.0 for _ in range(10)), step=0.1)
        with pytest.raises(InsufficientData):
            estimate_dominant_eig_detailed(traj)

    def test_zero_tail(self):
        # zero initial data excites no mode: there is no root to read off,
        # least of all the constant mode at 0
        cl = ClosedLoopParams(-1.0, -2.0, 1.0)
        traj = simulate(cl, InitialData(0.0, ConstantHistory(0.0)), 10.0)
        assert set(traj.values) == {0.0}
        with pytest.raises(InsufficientData, match="identically zero"):
            estimate_dominant_eig_detailed(traj)

    def test_too_few_efoldings(self):
        # slow decay observed over a short window
        traj = simulate(ClosedLoopParams(-0.05, 0.0, 1.0), UNIT, 20.0, 0.01)
        with pytest.raises(InsufficientData):
            estimate_dominant_eig_detailed(traj)

    def test_too_few_crossings(self):
        # about one period in the tail: crossings present but far short of 10
        ts = tuple(i * 0.01 for i in range(2000))
        vals = tuple(math.sin(0.5 * t) for t in ts)
        with pytest.raises(InsufficientData):
            estimate_dominant_eig_detailed(Trajectory(times=ts, values=vals, step=0.01))

    def test_too_few_envelope_peaks(self):
        # a tail of exact zeros crosses zero at every sample, but only
        # three of the segments between crossings hold a nonzero peak
        xs = [0.0] * 60
        for i, x in ((35, 1.0), (45, -1.0), (55, 1.0)):
            xs[i] = x
        traj = Trajectory(times=tuple(i * 0.1 for i in range(60)), values=tuple(xs), step=0.1)
        with pytest.raises(InsufficientData, match="too few usable envelope peaks"):
            estimate_dominant_eig_detailed(traj)

    def test_tail_fraction_validation(self):
        assert 0.0 < TAIL_FRACTION <= 1.0
        traj = simulate(ClosedLoopParams(-1.0, 0.0, 1.0), UNIT, 25.0, 0.01)
        est = estimate_dominant_eig_detailed(traj)
        assert est.kind == "monotone"
        assert abs(est.value.real + 1.0) <= 1e-3
        # only the last TAIL_FRACTION of the samples is fitted: the head
        # can hold anything, a change inside the tail moves the estimate
        n = len(traj.values)
        start = n - math.ceil(n * TAIL_FRACTION)
        head = tuple(float((-1) ** i) * 1e6 for i in range(start))
        garbled = Trajectory(times=traj.times, values=head + traj.values[start:],
                             step=traj.step)
        assert estimate_dominant_eig_detailed(garbled) == est
        bent = list(traj.values)
        bent[start] *= 2.0
        bent = Trajectory(times=traj.times, values=tuple(bent), step=traj.step)
        assert estimate_dominant_eig_detailed(bent) != est

    def test_estimate_matches_detailed(self):
        # the record is the whole result: a complex value, the same on
        # every call
        traj = simulate(ClosedLoopParams(-1.0, -2.0, 1.0), UNIT, 40.0)
        est = estimate_dominant_eig_detailed(traj)
        assert isinstance(est, EigEstimate)
        assert isinstance(est.value, complex)
        assert est == estimate_dominant_eig_detailed(traj)

    @pytest.mark.parametrize("where", [50, 75, 99])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_tail(self, bad, where):
        # the first, a middle and the last sample of the 50-sample tail
        ts, xs = decaying_sine(100, 0.1)
        xs[where] = bad
        with pytest.raises(NonFiniteInput):
            estimate_dominant_eig_detailed(Trajectory(times=ts, values=tuple(xs), step=0.1))

    @pytest.mark.parametrize("bad, error", [
        (1j, DomainError), ("a", DomainError), (None, DomainError), (10**400, NonFiniteInput),
        (Decimal("sNaN"), NonFiniteInput), (Decimal("NaN"), NonFiniteInput), (Decimal("-Infinity"), NonFiniteInput),
    ], ids=["complex", "str", "None", "int_past_double", "sNaN", "Decimal_NaN", "Decimal_minus_inf"])
    def test_tail_samples_follow_the_real_rule(self, bad, error):
        # a tail sample that is not a finite real raises the error of every
        # real input; one with no double is named by its index
        traj = _edited_sine(lambda xs: [(300, bad)])
        with pytest.raises(error) as exc:
            estimate_dominant_eig_detailed(traj)
        assert type(exc.value) is error
        if not isinstance(bad, Decimal) or bad.is_snan():
            assert str(exc.value).startswith("trajectory sample 300 must be"), exc.value

    def test_matches_loop_reference_on_simulate_pool(self):
        # every 8th task of the benchmark's simulate pools, seed 1 and
        # the held-out 7919, and every RK4 case; each trajectory also
        # rebuilt with its time grid as a plain tuple
        workloads = bench_module()
        runs = [(cl, init, workloads.SIM_DELAYS * cl.h, None)
                for seed in (1, 7919) for cl, init in workloads.simulate_pool(delayw, seed)[::8]]
        for cl, init, t_final, step in runs + RK4_CASES:
            traj = simulate(cl, init, t_final, step)
            as_tuple = Trajectory(tuple(traj.times), traj.values, traj.step, traj.truncated)
            assert type(as_tuple.times) is tuple is not type(traj.times)
            est = outcome(estimate_dominant_eig_detailed, traj)
            assert est == outcome(estimate_dominant_eig_detailed, as_tuple) == outcome(loop_estimate, traj)

    def test_tail_extrema_read_once(self, monkeypatch):
        # a finite, nonzero tail of both signs skips the whole-tail max,
        # min and sum: max and min see the peak segments only, at most
        # one tail's worth of samples
        workloads = bench_module()
        seen = []

        def counting(builtin):
            def wrapper(*args):
                seen.append(len(args[0]) if len(args) == 1 else len(args))
                return builtin(*args)
            return wrapper

        for seed in (1, 7919):
            for cl, init in workloads.simulate_pool(delayw, seed)[:8]:
                traj = simulate(cl, init, workloads.SIM_DELAYS * cl.h)
                seen.clear()
                with monkeypatch.context() as m:
                    m.setattr(sim, "max", counting(max), raising=False)
                    m.setattr(sim, "min", counting(min), raising=False)
                    assert estimate_dominant_eig_detailed(traj).kind == "oscillatory"
                assert 0 < sum(seen) <= math.ceil(len(traj.values) * TAIL_FRACTION), (seed, cl)

    @pytest.mark.parametrize("name", sorted(CRAFTED_TAILS))
    def test_matches_loop_reference_on_crafted_tails(self, name):
        traj = CRAFTED_TAILS[name]()
        assert outcome(estimate_dominant_eig_detailed, traj) == outcome(loop_estimate, traj)

    @pytest.mark.xfail(raises=AssertionError, strict=True,
                       reason="the estimator reads a frequency between branch 0's and branch 1's")
    @pytest.mark.parametrize("seed, index, loop", [(5, 85, (-38.84, -26.77, 0.6546)),
                                                   (8, 122, (-79.98, -25.30, 0.2355))])
    def test_simulate_pool_misses(self, seed, index, loop):
        # the only tasks of the simulate pools of seeds 1 to 12 and 7919
        # that fail simulate_check: assigned loops where branch 1 decays
        # only slightly faster than branch 0, and the estimate's frequency
        # (7.10 and 22.5) lies between theirs (4.62 and 12.6)
        workloads = bench_module()
        task = workloads.simulate_pool(delayw, seed)[index]
        assert task[0] == pytest.approx(loop, rel=1e-3)
        record = workloads.simulate_extract(task, workloads.simulate_run(delayw, task))
        assert workloads.simulate_check(task, record), record


@settings(max_examples=25, deadline=None)
@given(
    u=st.floats(min_value=-0.15, max_value=0.2),
    v=st.floats(min_value=1.0, max_value=3.0),
    h=st.floats(min_value=0.5, max_value=1.8),
)
def test_estimate_recovers_assigned_root(u, v, h):
    if not (0.05 < v * h < 3.0):
        return
    plant = SystemParams(a=0.0, a1d=0.0, b=1.0, h=h)
    r = assign_both(plant, complex(u, v))
    t_final = max(6.0 * h, 20.0 * math.pi / v)
    traj = simulate(r.closed_loop, UNIT, t_final, h / 300.0)
    est = estimate_dominant_eig_detailed(traj).value
    S = complex(u, v)
    assert abs(est - S) <= 1e-2 * abs(S)


def test_assigned_loop_gains_close_to_design():
    # closing the loop through the gains reproduces the design
    # coefficients to rounding in the plant's scale
    plant = SystemParams(a=1.0, a1d=-1.0, b=1.0, h=1.0)
    r = assign_both(plant, complex(-0.092484, 1.9973))
    applied = close_loop(plant, r.gains)
    assert applied.alpha == pytest.approx(r.closed_loop.alpha, abs=1e-12)
    assert applied.beta == pytest.approx(r.closed_loop.beta, abs=1e-12)
    traj = simulate(applied, UNIT, 40.0)
    est = estimate_dominant_eig_detailed(traj).value
    assert abs(est - complex(-0.092484, 1.9973)) <= 1e-2 * abs(complex(-0.092484, 1.9973))
