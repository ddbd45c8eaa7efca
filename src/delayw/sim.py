"""Time-domain integration of x'(t) = alpha*x(t) + beta*x(t-h).

Method of steps with the classical 4th-order one-step scheme: each
interval of length h is an ODE whose delayed term reads the previous
interval through cubic Hermite dense output, on steps dt = h/N.  The
equation being linear, the four stages fold into x_{n+1} = c0 x_n +
c1 f_n + c2 d_mid + c3 d_end (f_n = alpha x_n + beta x_{n-N} the node
derivative, d_mid = (x_{n-N} + x_{n+1-N})/2 + q (f_{n-N} - f_{n+1-N})
the half step, q = dt/8, c0..c3 fixed by alpha*dt), so the error stays
O(step^4).  The history is read once, at the nodes and midpoints of
[-h, 0), and each of those values must be a finite real; a built-in
history evaluates each of the two grids in one call, in map passes,
any other callable is called once per point.  Past the
first delay, where history values stand in, the substitution leaves x
alone: x_{n+1} = x_n + A x_n + B x_{n-N} + C x_{n+1-N} +
D (x_{n-2N} - x_{n+1-2N}), A = c0 - 1 + c1 alpha, B = c1 beta + c2/2 +
c2 q alpha, C = c2/2 - c2 q alpha + c3, D = c2 q beta; adding the
increment to x_n keeps a constant solution exact.  The trajectory's
times are the grid dt*j, kept as its step and length: an item is
computed when it is read.

estimate_dominant_eig_detailed recovers the dominant characteristic
root from the trajectory's second half: decay rate from a least-squares
line through the log of the peak envelope (or of |x| itself for
non-oscillatory tails), frequency from the mean zero-crossing spacing.
The tail is packed as doubles once, before any other pass (a sample
with no double raises the error of every real input, naming it), and
the high bytes of the packing gate the whole-tail checks: where none is
0x00 or 0x80 (a zero, or a modulus below 2**-1007) nor 0x7f or 0xff
(a modulus of 2**1009 or more: every inf and NaN among them) and the
sign bits hold both values, the tail is finite, nonzero and not
constant, and no max, min or sum reads it; any other tail takes those
checks in turn, on the packed doubles.  The x > 0 flags are the sign
bits (a translate of the high bytes), and crossing candidates are the
last samples of the flags' runs, found by single-byte finds that
alternate between 0 and 1; a 0x00 or 0x80 byte sends the flags back to
x > 0 sample by sample and adds the exact zeros as candidates.  Only
the candidates are interpolated.  Between two crossings, bisecting the
times from the tail's first index gives the sample range, and the peak
is the first sample of largest modulus in it: the range's max where a
find sees no 0 flag in it, its min where it sees no 1, and the larger
modulus of the two otherwise; the times are read by index, never
copied, except for the monotone fit.  The fits' sums add left to
right, so an estimate's bits do not depend on the Python version.
"""

import bisect
import math
import struct
from functools import reduce
from itertools import chain, islice, repeat
from operator import add, gt, itemgetter, mul, sub, truediv

from .errors import DomainError, InsufficientData, InvalidStep, NonFiniteInput, _Record, _real_fault, _require_finite

__all__ = [
    "ConstantHistory",
    "LinearHistory",
    "SampledHistory",
    "InitialData",
    "Trajectory",
    "EigEstimate",
    "simulate",
    "estimate_dominant_eig_detailed",
]

# state magnitude past which the integration stops and flags truncation
OVERFLOW_LIMIT = 1e300
# share of the trajectory, from its end, that the estimator fits
TAIL_FRACTION = 0.5


class ConstantHistory(_Record, fields="c"):
    """phi(tau) = c on [-h, 0)."""

    __slots__ = ()

    def __new__(cls, c):
        c, = _require_finite("c", c)
        return tuple.__new__(cls, (c,))

    def __call__(self, tau):
        return self.c

    def _at(self, taus):
        """[self(t) for t in taus]: one value, repeated."""
        return [self.c] * len(taus)


class LinearHistory(_Record, fields="c0 c1"):
    """phi(tau) = c0 + c1*tau on [-h, 0)."""

    __slots__ = ()

    def __new__(cls, c0, c1):
        c0, c1 = _require_finite("c0 c1", c0, c1)
        return tuple.__new__(cls, (c0, c1))

    def __call__(self, tau):
        return self.c0 + self.c1 * tau

    def _at(self, taus):
        """[self(t) for t in taus], in two map passes."""
        return [*map(add, repeat(self.c0), map(mul, repeat(self.c1), taus))]


class SampledHistory(_Record, fields="points"):
    """Piecewise-linear history through (tau_i, x_i) samples.

    Stamps must be strictly increasing and start at the delay horizon;
    queries before the first or after the last stamp hold the edge
    value, so a sample list ending short of 0 stays evaluable on all
    of [-h, 0).
    """

    __slots__ = ()

    def __new__(cls, points):
        try:
            pts = tuple((t, x) for t, x in points)
        except (TypeError, ValueError):  # not a sequence of pairs
            raise DomainError(f"sampled history needs (stamp, value) pairs of reals, got {points!r}") from None
        if len(pts) < 2:
            raise DomainError("sampled history needs at least two points")
        pts = tuple(_require_finite("stamp value", t, x) for t, x in pts)
        for (t0, x0), (t1, x1) in zip(pts, pts[1:]):
            if not (t1 > t0):
                raise DomainError("sample stamps must be strictly increasing")
        if pts[-1][0] >= 0.0:
            raise DomainError("sample stamps must stay below 0")
        return tuple.__new__(cls, (pts,))

    def __call__(self, tau):
        pts = self.points
        if tau <= pts[0][0]:
            return pts[0][1]
        if tau >= pts[-1][0]:
            return pts[-1][1]
        hi = bisect.bisect_right(pts, tau, key=lambda p: p[0])
        (t0, x0), (t1, x1) = pts[hi - 1], pts[hi]
        w = (tau - t0) / (t1 - t0)
        return x0 * (1.0 - w) + x1 * w

    def _at(self, taus):
        """[self(t) for t in taus] for nondecreasing taus: those outside
        the stamps take the edge values, and the rest go piece by piece,
        each piece [t0, t1) that holds a tau found by bisection and its
        taus interpolated in map passes."""
        pts = self.points
        lo, end = bisect.bisect_right(taus, pts[0][0]), bisect.bisect_left(taus, pts[-1][0])
        out = [pts[0][1]] * lo
        while lo < end:
            k = bisect.bisect_right(pts, taus[lo], key=itemgetter(0))
            (t0, x0), (t1, x1) = pts[k - 1], pts[k]
            hi = bisect.bisect_left(taus, t1, lo, end)
            ws = [*map(truediv, map(sub, taus[lo:hi], repeat(t0)), repeat(t1 - t0))]
            out += map(add, map(mul, repeat(x0), map(sub, repeat(1.0), ws)), map(mul, repeat(x1), ws))
            lo = hi
        out += [pts[-1][1]] * (len(taus) - lo)
        return out


class InitialData(_Record, fields="x0 phi"):
    """State at t = 0 plus the history segment feeding the delay term."""

    __slots__ = ()

    def __new__(cls, x0, phi):
        x0, = _require_finite("x0", x0)
        if not callable(phi):
            raise DomainError("phi must be callable on [-h, 0)")
        return tuple.__new__(cls, (x0, phi))


class _Grid:
    """The uniform time grid step*j, j = 0 .. n-1, as a read-only
    sequence: an item or a slice (a tuple) is computed when asked for,
    and the grid compares and hashes as the tuple of its items."""

    __slots__ = ("step", "_js")

    def __init__(self, step, n):
        self.step = step
        self._js = range(n)

    def __len__(self):
        return len(self._js)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(mul, repeat(self.step), self._js[i]))
        return self.step * self._js[i]

    def __iter__(self):
        return map(mul, repeat(self.step), self._js)

    def __eq__(self, other):
        if isinstance(other, (tuple, _Grid)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __reduce__(self):
        return _Grid, (self.step, len(self))

    def __repr__(self):
        return f"_Grid(step={self.step!r}, n={len(self)})"


class Trajectory(_Record, fields="times values step truncated"):
    """Uniformly sampled solution starting at t = 0.

    times is any sequence of sample times; simulate's is the uniform
    grid step*j, whose items are computed when read rather than stored.
    truncated marks an integration stopped early because the state
    magnitude passed OVERFLOW_LIMIT (a diverging loop), in which case
    the arrays hold everything computed up to that point.
    """

    __slots__ = ()

    def __new__(cls, times, values, step, truncated=False):
        if len(times) != len(values):
            raise DomainError("times and values must have equal length")
        if not times or times[0] != 0.0:
            raise DomainError("trajectory must start at t = 0")
        return tuple.__new__(cls, (times, values, step, truncated))

    def to_csv(self):
        """Render as CSV with header "t,x", 17 significant digits."""
        lines = ["t,x"]
        for t, x in zip(self.times, self.values):
            lines.append(f"{t:.17g},{x:.17g}")
        return "\n".join(lines) + "\n"


def simulate(cl, init, t_final, step=None):
    """Integrate the closed loop from the given initial data.

    Past the first delay the step runs on x alone; see the module docstring.

    Parameters
    ----------
    cl : ClosedLoopParams
    init : InitialData
    t_final : float
        End of the integration window; must be at least one delay.
    step : float, optional
        Nominal step, snapped down so an integer number of steps spans
        exactly one delay interval.  Defaults to h/1000.

    step and t_final may be any finite real number but a bool, a
    Decimal or a Fraction read as its float; anything else raises
    InvalidStep.  The history values read, at the nodes and midpoints of
    [-h, 0), follow the rule of every real field: DomainError for a value
    that is not a real number, NonFiniteInput for one that is not finite,
    and one that is neither an int nor a float is used as its float.

    Returns
    -------
    Trajectory
        Samples on the uniform grid up to the last point <= t_final,
        or up to the overflow truncation point.
    """
    h = cl.h
    if step is None:
        step = h / 1000.0
    if _real_fault(step) or not step > 0.0:
        raise InvalidStep(f"step must be a positive finite real, got {step!r}")
    if _real_fault(t_final) or not t_final >= h:
        raise InvalidStep(
            f"t_final must be a finite real >= h = {h:.6g} (one full delay interval), got {t_final!r}")
    step, t_final = float(step), float(t_final)
    phi = init.phi
    if isinstance(phi, SampledHistory) and abs(phi.points[0][0] + h) > 1e-9 * h:
        raise DomainError(f"sampled history must span [-h, 0): first stamp "
                          f"{phi.points[0][0]:.6g}, expected {-h:.6g}")

    n_per = max(1, math.ceil(h / step - 1e-12))
    dt = h / n_per
    total = math.floor(t_final / dt + 1e-9)

    alpha, beta = cl.alpha, cl.beta
    a = alpha * dt
    e0 = a * (5.0 / 6.0 + a / 3.0 + a * a / 12.0)
    c0 = 1.0 + e0
    c1 = dt / 6.0 * (1.0 + a + a * a / 2.0 + a * a * a / 4.0)
    c2 = beta * dt / 6.0 * (4.0 + 2.0 * a + a * a / 2.0)
    c3 = beta * dt / 6.0
    # the taus j*dt - h and (j + 0.5)*dt - h, j counting from 0
    node_taus = [*map(sub, map(mul, range(n_per), repeat(dt)), repeat(h))]
    mid_taus = [*map(sub, map(mul, map(add, range(min(total, n_per)), repeat(0.5)), repeat(dt)), repeat(h))]
    if type(phi) in (ConstantHistory, LinearHistory, SampledHistory):
        nodes, mids = phi._at(node_taus), phi._at(mid_taus)
    else:
        nodes, mids = [*map(phi, node_taus)], [*map(phi, mid_taus)]
    # the nodes and midpoints are every history value the steps read; a
    # float sum is finite only when every term is, so when it is, and
    # every value is an int or a float, the value-by-value check is spared
    try:
        plain = math.isfinite(sum(mids, sum(nodes, 0.0))) and {*map(type, nodes), *map(type, mids)} <= {int, float}
    except (TypeError, OverflowError):  # not a real number, an int past the double range
        plain = False
    if not plain:
        for v in chain(nodes, mids):
            if fault := _real_fault(v):
                raise fault[0](f"history phi must return finite real numbers on [-h, 0), got {v!r}")
        nodes, mids = [*map(float, nodes)], [*map(float, mids)]
    xs = nodes + [init.x0]
    x, f = init.x0, alpha * init.x0 + beta * xs[0]
    hi, lo = OVERFLOW_LIMIT, -OVERFLOW_LIMIT

    # first delay interval: t - h in the history; the last delayed node is x0
    for d_mid, d_end in zip(mids, islice(xs, 1, None)):
        x = c0 * x + c1 * f + c2 * d_mid + c3 * d_end
        if not lo <= x <= hi:
            break
        f = alpha * x + beta * d_end
        xs.append(x)
    else:
        q = 0.125 * dt
        A = e0 + c1 * alpha
        B = c1 * beta + 0.5 * c2 + c2 * q * alpha
        C = 0.5 * c2 - c2 * q * alpha + c3
        D = c2 * q * beta
        # x_{n-N}, x_{n+1-N}, x_{n-2N}, x_{n+1-2N}: islices of xs (history nodes, x_0, x_1, ...)
        lagged = zip(islice(xs, n_per, total), islice(xs, n_per + 1, None), xs, islice(xs, 1, None))
        for x1, x2, y1, y2 in lagged:
            x += A * x + B * x1 + C * x2 + D * (y1 - y2)
            if not lo <= x <= hi:
                break
            xs.append(x)
    del xs[:n_per]

    # every step that passed the overflow test appended its node
    return Trajectory(times=_Grid(dt, len(xs)), values=tuple(xs), step=dt, truncated=len(xs) <= total)


class EigEstimate(_Record, fields="value kind fit_residual n_crossings"):
    """Dominant-eigenvalue fit with its diagnostics.

    kind is one of "constant" (tail spread within 1e-9 of the tail's own
    amplitude), "oscillatory", "monotone".  fit_residual is the RMS
    deviation of the log-envelope fit; a large value flags degenerate
    excitation (tail dominated by more than one mode), where the plain
    estimate should not be trusted.
    """

    __slots__ = ()

    def __new__(cls, value, kind, fit_residual, n_crossings):
        return tuple.__new__(cls, (value, kind, fit_residual, n_crossings))


def _total(xs):
    """xs added left to right from 0, as sum() adds floats up to Python
    3.11: from 3.12 sum() compensates, which would move a printed
    estimate in its last digits."""
    return reduce(add, xs, 0)


def _lsq_slope(ts, ys):
    n = len(ts)
    tm = _total(ts) / n
    ym = _total(ys) / n
    num = _total((t - tm) * (y - ym) for t, y in zip(ts, ys))
    den = _total((t - tm) ** 2 for t in ts)
    slope = num / den
    icept = ym - slope * tm
    rss = _total((y - (icept + slope * t)) ** 2 for t, y in zip(ts, ys))
    return slope, math.sqrt(rss / n)


# the high byte of a little-endian double to 1 where its sign bit is clear
_SIGN_CLEAR = b"\x01" * 128 + bytes(128)
# high bytes outside the estimator's gate: 0x00 and 0x80 (a zero, or a
# modulus below 2**-1007), 0x7f and 0xff (a modulus of 2**1009 or more)
_EDGE_BYTES = b"\x00\x80\x7f\xff"


def _crossings(ts, start, xs, high, positive):
    """Zero-crossing times of a finite sampled tail xs, in sample order,
    and the bytes string of its x > 0 flags; sample i of the tail is at
    time ts[start + i], high holds the high bytes of the packed tail and
    positive their sign-clear flags.

    An exact zero sample (either sign) is a crossing at its own time; a
    sign change between two nonzero samples is one at the zero of the
    line through them, found as the last sample of a run of the flags.
    The flags are kept unless a high byte is 0x00 or 0x80 (a zero, or a
    modulus below 2**-1007): then they are x > 0 taken sample by sample,
    and only then are the exact zeros looked for.
    """
    tiny = 0x00 in high or 0x80 in high
    if tiny:
        positive = bytes(map(gt, xs, repeat(0.0)))
    # each find jumps from the start of a run to the start of the next
    events, i, flag = [], 0, positive[0]
    while (i := positive.find(flag ^ 1, i)) >= 0:
        events.append(i - 1)
        flag ^= 1
    if tiny and 0.0 in xs:
        events = sorted({*events, *(i for i, x in enumerate(xs) if x == 0.0)})
    crossings = []
    for i in events:
        a = xs[i]
        t = ts[start + i]
        if a == 0.0:
            crossings.append(t)
        else:
            b = xs[i + 1]
            if b != 0.0:
                crossings.append(t + (ts[start + i + 1] - t) * a / (a - b))
    return crossings, positive


def _peak(xs, positive, lo, hi):
    """Index of the first sample of largest |x| in xs[lo:hi], or None if
    the range is empty or all zero; positive holds the x > 0 flags of
    xs.  A range of one sign takes one extremum: its max where no flag
    is 0, its min where none is 1; a mixed range takes both."""
    seg = xs[lo:hi]
    if positive.find(0, lo, hi) < 0:
        return xs.index(max(seg), lo, hi) if seg else None
    if positive.find(1, lo, hi) < 0:
        bottom = min(seg)
        return xs.index(bottom, lo, hi) if bottom < 0.0 else None
    top, bottom = max(seg), min(seg)
    if top < -bottom:
        return xs.index(bottom, lo, hi)
    i = xs.index(top, lo, hi)
    return min(i, xs.index(bottom, lo, hi)) if top == -bottom else i


def estimate_dominant_eig_detailed(traj):
    """EigEstimate of the dominant characteristic root, fitted to a
    trajectory tail: the last TAIL_FRACTION of the samples.

    Oscillatory tails (at least 10 zero crossings, roughly 5 periods)
    give rate + i*frequency: the rate is the least-squares slope of the
    log peak envelope, the frequency pi over the mean crossing spacing.
    Single-signed tails need at least 10 e-foldings and give a real
    rate.  Nonzero tails near-constant relative to their own amplitude
    return 0.

    Raises
    ------
    InsufficientData
        Tail too short or identically zero, or too few crossings/e-foldings.
    NonFiniteInput
        Tail holds an infinite or NaN sample, or an int past the double
        range.
    DomainError
        Tail holds a sample that is not a real number.  A bool is read
        as 0 or 1.
    """
    n = len(traj.values)
    start = n - math.ceil(n * TAIL_FRACTION)
    ts = traj.times
    xs = traj.values[start:]
    if len(xs) < 20:
        raise InsufficientData(f"tail holds {len(xs)} samples; need at least 20")

    try:
        packed = struct.pack(f"<{len(xs)}d", *xs)
    except struct.error:  # a sample with no double: not a real number, or past the double range
        for i, x in enumerate(xs, start):
            if fault := _real_fault(x):
                raise fault[0](f"trajectory sample {i} must be {fault[1]}, got {x!r}") from None
        raise
    high = packed[7::8]
    positive = high.translate(_SIGN_CLEAR)
    # with no edge byte every sample is finite and nonzero, and with both
    # signs held fl(hi - lo) >= max(hi, -lo) = amax: not constant either
    if any(map(high.__contains__, _EDGE_BYTES)) or not (0 in positive and 1 in positive):
        # the checks read the packed doubles, so a sample such as a Decimal
        # NaN is compared as the float it stands for
        doubles = struct.unpack(f"<{len(xs)}d", packed)
        hi, lo = max(doubles), min(doubles)
        # max and min see every infinity and a NaN in the first sample; with
        # those finite, the sum is NaN exactly when a later sample is NaN (a
        # sum that overflows stays inf)
        if not (math.isfinite(hi) and math.isfinite(lo)) or math.isnan(sum(doubles)):
            raise NonFiniteInput("trajectory tail holds a non-finite sample")
        amax = max(hi, -lo)
        if amax == 0.0:
            raise InsufficientData("tail is identically zero; no mode is excited")
        spread = hi - lo
        if spread <= 1e-9 * amax:
            return EigEstimate(0j, "constant", spread, 0)

    crossings, positive = _crossings(ts, start, xs, high, positive)
    if len(crossings) >= 10:
        spacings = [t1 - t0 for t0, t1 in zip(crossings, crossings[1:])]
        omega = math.pi / (_total(spacings) / len(spacings))
        # one peak of |x| between consecutive crossings, both ends included
        peak_ts, peak_logs = [], []
        for t0, t1 in zip(crossings, crossings[1:]):
            k = _peak(xs, positive, bisect.bisect_left(ts, t0, start) - start,
                      bisect.bisect_right(ts, t1, start) - start)
            if k is not None:
                peak_ts.append(ts[start + k])
                peak_logs.append(math.log(abs(xs[k])))
        if len(peak_ts) < 4:
            raise InsufficientData("oscillatory tail with too few usable envelope peaks")
        rate, resid = _lsq_slope(peak_ts, peak_logs)
        return EigEstimate(complex(rate, omega), "oscillatory", resid, len(crossings))

    if crossings:
        raise InsufficientData(
            f"tail crosses zero {len(crossings)} times: too few for a frequency fit, "
            "too many for a monotone fit")
    # single-signed tail: fit log|x| directly
    # a difference of logs: the ratio of the end samples can underflow
    efold = abs(math.log(abs(xs[-1])) - math.log(abs(xs[0])))
    if efold < 10.0:
        raise InsufficientData(
            f"monotone tail spans {efold:.2f} e-foldings; need 10 for a trustworthy rate")
    rate, resid = _lsq_slope(ts[start:], [math.log(abs(x)) for x in xs])
    return EigEstimate(complex(rate, 0.0), "monotone", resid, 0)
