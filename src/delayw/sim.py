"""Time-domain integration of x'(t) = alpha*x(t) + beta*x(t-h).

Method of steps with the classical 4th-order one-step scheme: each
interval of length h is an ODE whose delayed term reads the previous
interval through cubic Hermite dense output.  The step is snapped to
an integer fraction of h, so full-step delayed values are stored nodes
and only half steps interpolate.  The equation being linear, the four
stages fold into x_{n+1} = c0 x_n + c1 f_n + c2 d_mid + c3 d_end (f_n
the node derivative, d_mid/d_end the delayed values, c0..c3 fixed by
alpha*dt): the same step up to rounding, so the error stays O(step^4).
The first delay interval queries the history up front, later ones read
stored nodes.

estimate_dominant_eig_detailed recovers the dominant characteristic
root from the trajectory's second half: decay rate from a least-squares
line through the log of the peak envelope (or of |x| itself for
non-oscillatory tails), frequency from the mean zero-crossing spacing.
"""

import bisect
import math
from collections import namedtuple
from itertools import islice

from .errors import DomainError, InsufficientData, InvalidStep, NonFiniteInput

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


class ConstantHistory(namedtuple("ConstantHistory", "c")):
    """phi(tau) = c on [-h, 0)."""

    __slots__ = ()

    def __new__(cls, c):
        if not math.isfinite(c):
            raise NonFiniteInput(f"history constant must be finite, got {c!r}")
        return super().__new__(cls, c)

    def __call__(self, tau):
        return self.c


class LinearHistory(namedtuple("LinearHistory", "c0 c1")):
    """phi(tau) = c0 + c1*tau on [-h, 0)."""

    __slots__ = ()

    def __new__(cls, c0, c1):
        if not (math.isfinite(c0) and math.isfinite(c1)):
            raise NonFiniteInput("history coefficients must be finite")
        return super().__new__(cls, c0, c1)

    def __call__(self, tau):
        return self.c0 + self.c1 * tau


class SampledHistory(namedtuple("SampledHistory", "points")):
    """Piecewise-linear history through (tau_i, x_i) samples.

    Stamps must be strictly increasing and start at the delay horizon;
    queries before the first or after the last stamp hold the edge
    value, so a sample list ending short of 0 stays evaluable on all
    of [-h, 0).
    """

    __slots__ = ()

    def __new__(cls, points):
        pts = tuple((float(t), float(x)) for t, x in points)
        if len(pts) < 2:
            raise DomainError("sampled history needs at least two points")
        for t, x in pts:
            if not (math.isfinite(t) and math.isfinite(x)):
                raise NonFiniteInput("sample stamps and values must be finite")
        for (t0, x0), (t1, x1) in zip(pts, pts[1:]):
            if not (t1 > t0):
                raise DomainError("sample stamps must be strictly increasing")
        if pts[-1][0] >= 0.0:
            raise DomainError("sample stamps must stay below 0")
        return super().__new__(cls, pts)

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


class InitialData(namedtuple("InitialData", "x0 phi")):
    """State at t = 0 plus the history segment feeding the delay term."""

    __slots__ = ()

    def __new__(cls, x0, phi):
        if not math.isfinite(x0):
            raise NonFiniteInput(f"x0 must be finite, got {x0!r}")
        if not callable(phi):
            raise DomainError("phi must be callable on [-h, 0)")
        return super().__new__(cls, x0, phi)


class Trajectory(namedtuple("Trajectory", "times values step truncated")):
    """Uniformly sampled solution starting at t = 0.

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
        return super().__new__(cls, times, values, step, truncated)

    def to_csv(self):
        """Render as CSV with header "t,x", 17 significant digits."""
        lines = ["t,x"]
        for t, x in zip(self.times, self.values):
            lines.append(f"{t:.17g},{x:.17g}")
        return "\n".join(lines) + "\n"


def simulate(cl, init, t_final, step=None):
    """Integrate the closed loop from the given initial data.

    Parameters
    ----------
    cl : ClosedLoopParams
    init : InitialData
    t_final : float
        End of the integration window; must be at least one delay.
    step : float, optional
        Nominal step, snapped down so an integer number of steps spans
        exactly one delay interval.  Defaults to h/1000.

    Returns
    -------
    Trajectory
        Samples on the uniform grid up to the last point <= t_final,
        or up to the overflow truncation point.
    """
    h = cl.h
    if step is None:
        step = h / 1000.0
    if not (isinstance(step, (int, float)) and not isinstance(step, bool)
            and math.isfinite(step) and step > 0.0):
        raise InvalidStep(f"step must be a positive finite real, got {step!r}")
    if not (math.isfinite(t_final) and t_final >= h):
        raise InvalidStep(
            f"t_final must be finite and >= h = {h:.6g} (one full delay interval), got {t_final!r}")
    phi = init.phi
    if isinstance(phi, SampledHistory) and abs(phi.points[0][0] + h) > 1e-9 * max(1.0, h):
        raise DomainError(f"sampled history must span [-h, 0): first stamp "
                          f"{phi.points[0][0]:.6g}, expected {-h:.6g}")

    n_per = max(1, math.ceil(h / step - 1e-12))
    dt = h / n_per
    total = math.floor(t_final / dt + 1e-9)

    alpha, beta = cl.alpha, cl.beta
    a = alpha * dt
    c0 = 1.0 + a * (5.0 / 6.0 + a / 3.0 + a * a / 12.0)
    c1 = dt / 6.0 * (1.0 + a + a * a / 2.0 + a * a * a / 4.0)
    c2 = beta * dt / 6.0 * (4.0 + 2.0 * a + a * a / 2.0)
    c3 = beta * dt / 6.0
    x, f = init.x0, alpha * init.x0 + beta * phi(-h)
    xs, fs = [x], [f]

    # first delay interval: t - h lies in the history, except at its
    # last node, where it is 0 and the delayed value is x0
    n_hist = min(total, n_per)
    mids = [phi((j + 0.5) * dt - h) for j in range(n_hist)]
    ends = [phi(j * dt - h) for j in range(1, min(n_hist + 1, n_per))] + [x]
    for d_mid, d_end in zip(mids, ends):
        x = c0 * x + c1 * f + c2 * d_mid + c3 * d_end
        if not abs(x) <= OVERFLOW_LIMIT:
            break
        f = alpha * x + beta * d_end
        xs.append(x)
        fs.append(f)
    else:
        # later steps read the nodes one delay back, through zips that follow
        # the growing lists; the half step is their cubic Hermite midpoint
        q = 0.125 * dt
        lagged = zip(xs, islice(xs, 1, None), fs, islice(fs, 1, None))
        for _, (x0, x1, f0, f1) in zip(range(total - n_hist), lagged):
            x = c0 * x + c1 * f + c2 * (0.5 * (x0 + x1) + q * (f0 - f1)) + c3 * x1
            if not abs(x) <= OVERFLOW_LIMIT:
                break
            f = alpha * x + beta * x1
            xs.append(x)
            fs.append(f)

    times = tuple(map(dt.__mul__, range(len(xs))))
    # every step that passed the overflow test appended its node
    return Trajectory(times=times, values=tuple(xs), step=dt, truncated=len(xs) <= total)


class EigEstimate(namedtuple("EigEstimate", "value kind fit_residual n_crossings")):
    """Dominant-eigenvalue fit with its diagnostics.

    kind is one of "constant" (tail spread within 1e-9 of the tail's own
    amplitude), "oscillatory", "monotone".  fit_residual is the RMS
    deviation of the log-envelope fit; a large value flags degenerate
    excitation (tail dominated by more than one mode), where the plain
    estimate should not be trusted.
    """

    __slots__ = ()


def _lsq_slope(ts, ys):
    n = len(ts)
    tm = sum(ts) / n
    ym = sum(ys) / n
    num = sum((t - tm) * (y - ym) for t, y in zip(ts, ys))
    den = sum((t - tm) ** 2 for t in ts)
    slope = num / den
    icept = ym - slope * tm
    rss = sum((y - (icept + slope * t)) ** 2 for t, y in zip(ts, ys))
    return slope, math.sqrt(rss / n)


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
    """
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

    # zero-crossing times by linear interpolation
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
        omega = math.pi / (sum(spacings) / len(spacings))
        # one peak of |x| between consecutive crossings
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
        rate, resid = _lsq_slope(peak_ts, peak_logs)
        return EigEstimate(complex(rate, omega), "oscillatory", resid, len(crossings))

    if crossings:
        raise InsufficientData(
            f"tail crosses zero {len(crossings)} times: too few for a frequency fit, "
            "too many for a monotone fit")
    # single-signed tail: fit log|x| directly
    efold = abs(math.log(abs(xs[-1]) / abs(xs[0])))
    if efold < 10.0:
        raise InsufficientData(
            f"monotone tail spans {efold:.2f} e-foldings; need 10 for a trustworthy rate")
    rate, resid = _lsq_slope(ts, [math.log(abs(x)) for x in xs])
    return EigEstimate(complex(rate, 0.0), "monotone", resid, 0)
