"""Seeded inputs, task runners and correctness checks for the four workloads.

Every workload is a pool of tasks generated from the seed before any
timing starts.  A task runner receives an ``api`` object (the ``delayw``
package itself, or a namespace of traced wrappers around it) and calls
only the public API with ``ClosedLoopParams``, ``SystemParams``, targets
and histories.  Runners return the raw program output; ``extract`` turns
it into a small record outside the timed region, and ``check`` decides,
after timing, whether the record is correct.

The inputs that set a task's cost are sampled on jittered grids or
stratified (one random point per cell or slice, shuffled), so two seeds
give different inputs with nearly the same mix of easy and hard cases.  Nothing is filtered on the
program's behaviour: loops that expose a known defect stay in the pool
and count as failed tasks.

This module imports nothing that ``delayw`` imports itself, so a fresh
interpreter can load it before timing ``import delayw``.
"""

import math
import random

EPS = 2.220446049250313e-16
BRANCH_POINT_Z = -math.exp(-1.0)

# Wide loop space x' = alpha x + beta x(t-h) from the project roadmap.
LOG_H = (-2.0, 1.5)
ALPHA = (-20.0, 20.0)
LOG_ABS_BETA = (-4.0, 2.0)


def _grid(rng, nx, ny):
    """nx*ny jittered points of the unit square, one per cell, shuffled."""
    pts = [((i + rng.random()) / nx, (j + rng.random()) / ny) for i in range(nx) for j in range(ny)]
    rng.shuffle(pts)
    return pts


def _strata(rng, n):
    """n stratified uniforms on [0, 1): one per equal slice, shuffled."""
    xs = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(xs)
    return xs


def _lerp(lo_hi, t):
    lo, hi = lo_hi
    return lo + (hi - lo) * t


def _wide_loops(api, rng, nx, ny):
    """nx*ny loops from the wide space: alpha and log10 h on a grid,
    log10|beta| stratified, sign of beta alternating."""
    betas = _strata(rng, nx * ny)
    loops = []
    for idx, ((ta, th), tb) in enumerate(zip(_grid(rng, nx, ny), betas)):
        h = 10.0 ** _lerp(LOG_H, th)
        alpha = _lerp(ALPHA, ta)
        beta = (1.0 if idx % 2 else -1.0) * 10.0 ** _lerp(LOG_ABS_BETA, tb)
        loops.append(api.ClosedLoopParams(alpha, beta, h))
    return loops


def root_tolerance(alpha, h, w, rho_extra=0.0):
    """Distance a computed root alpha + w/h may sit from the true one.

    Derived from conditioning: the W argument z carries a relative
    uncertainty rho (the kernel's 1e-14 relative residual plus rounding
    of beta*h*exp(-alpha*h), which grows with |alpha*h|), and W moves by
    rho*|w|/|1+w| in response, the classical 1/|1+W| condition number.
    Near the branch point the first-order estimate is replaced by its
    square-root limit sqrt(rho).  The rounding of w itself and of the
    final sum alpha + w/h are added on top.  A factor 4 covers the
    constants of the first-order terms.
    """
    rho = 1e-14 + 4.0 * EPS * (1.0 + abs(alpha * h)) + rho_extra
    dw = 4.0 * rho * abs(w) / max(abs(1.0 + w), math.sqrt(rho)) + 4.0 * EPS * abs(w)
    return dw / h + 4.0 * EPS * abs(alpha)


# ---------------------------------------------------------------- design

DESIGN_POOL = 4000
# (kind, share of the pool); kinds ending in "_bad" are infeasible by
# construction and must be rejected by the program
DESIGN_MIX = (
    ("both", 0.20),
    ("both_bad", 0.08),
    ("delay", 0.10),
    ("delay_bad", 0.05),
    ("current", 0.08),
    ("current_real", 0.07),
    ("current_bad", 0.04),
    ("real", 0.10),
    ("real_marginal", 0.06),
    ("real_bad", 0.04),
    ("input", 0.06),
    ("input_bad", 0.03),
    ("report", 0.05),
    ("report_bad", 0.04),
)


def _plant(api, rng, input_delay=False):
    h = 10.0 ** rng.uniform(-1.0, 0.7)
    b = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
    a1d = 0.0 if input_delay else rng.uniform(-2.0, 2.0)
    return api.SystemParams(rng.uniform(-2.0, 2.0), a1d, b, h, input_delay)


def _window_target(rng, h, lo=0.05, hi=math.pi - 0.05):
    """Complex target with v*h inside the branch-0 window (0, pi)."""
    return complex(rng.uniform(-5.0, 5.0), rng.uniform(lo, hi) / h)


def _outside_window_target(rng, h):
    """Complex target with v*h >= pi, clear of the poles of cot(v*h)."""
    while True:
        vh = rng.uniform(math.pi, 15.0)
        if min(abs(vh - m * math.pi) for m in range(1, 6)) >= 0.1:
            return complex(rng.uniform(-2.0, 2.0), vh / h)


def _reachable_target(api, rng, input_delay=False, current=False):
    """Plant plus the oscillatory rightmost root of a loop closed with one
    random gain, which the single-gain mode can then reach exactly.
    Plants whose loops never oscillate are redrawn, as the acceptance
    tests do."""
    while True:
        p = _plant(api, rng, input_delay)
        g = rng.uniform(-3.0, 3.0)
        if current:
            cl = api.ClosedLoopParams(p.a + p.b * g, p.a1d, p.h)
        else:
            cl = api.ClosedLoopParams(p.a, p.a1d + p.b * g, p.h)
        if cl.w_argument < BRANCH_POINT_Z * 1.001:
            return p, api.spectrum(cl, 1).rightmost


def _design_task(api, rng, kind):
    """(call name, plant, target, extra argument, expectation)."""
    bad = kind.endswith("_bad")
    expect = "infeasible" if bad else "feasible"
    if kind.startswith("both"):
        p = _plant(api, rng)
        S = _outside_window_target(rng, p.h) if bad else _window_target(rng, p.h)
        return ("assign_both", p, S, None, expect)
    if kind.startswith("delay") or kind.startswith("input"):
        inp = kind.startswith("input")
        if bad:
            # a complex target that violates a = u + v*cot(v*h) by far
            p = _plant(api, rng, inp)
            S = _window_target(rng, p.h, 0.3, math.pi - 0.3)
            u = p.a - S.imag / math.tan(S.imag * p.h) + rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 3.0)
            S = complex(u, S.imag)
        else:
            p, S = _reachable_target(api, rng, input_delay=inp)
        return ("assign_input_delay" if inp else "assign_delay_only", p, S, None, expect)
    if kind == "current_real":
        # rightmost or not is decided by the program after the fact
        p = _plant(api, rng)
        return ("assign_current_only", p, complex(rng.uniform(-3.0, 3.0), 0.0), None, "either")
    if kind.startswith("current"):
        if bad:
            p = _plant(api, rng)
            S = _window_target(rng, p.h, 0.3, math.pi - 0.3)
            # a1d + v*e^(u*h)*csc(v*h) = 0 fails by a clear margin
            p = api.SystemParams(p.a, -S.imag * math.exp(S.real * p.h) / math.sin(S.imag * p.h)
                                 * rng.uniform(1.5, 3.0), p.b, p.h)
        else:
            p, S = _reachable_target(api, rng, current=True)
        return ("assign_current_only", p, S, None, expect)
    if kind.startswith("real"):
        p = _plant(api, rng)
        S = rng.uniform(-5.0, 5.0)
        if kind == "real_marginal":
            # (S - alpha)*h = -1 + d: a double rightmost root in the limit
            d = 10.0 ** rng.uniform(-9.0, -3.0)
            return ("assign_real_both", p, complex(S, 0.0), S + (1.0 - d) / p.h, expect)
        if bad:
            return ("assign_real_both", p, complex(S, 0.0), S + (1.0 + rng.uniform(0.01, 2.0)) / p.h, expect)
        return ("assign_real_both", p, complex(S, 0.0), S + rng.uniform(-3.0, 1.0) / p.h, expect)
    # feasibility_report on a complex target: inside the window
    # assign_both must be listed feasible, outside no mode may be
    p = _plant(api, rng)
    S = _outside_window_target(rng, p.h) if bad else _window_target(rng, p.h)
    return ("feasibility_report", p, S, None, expect)


def design_pool(api, seed):
    rng = random.Random(f"design:{seed}")
    kinds = []
    for kind, share in DESIGN_MIX:
        kinds += [kind] * round(share * DESIGN_POOL)
    rng.shuffle(kinds)
    return [_design_task(api, rng, k) for k in kinds]


def design_run(api, task):
    name, plant, S, extra, _ = task
    fn = getattr(api, name)
    if name == "feasibility_report":
        return fn(plant, S), None, None
    try:
        res = fn(plant, S) if extra is None else fn(plant, S, extra)
        cl = res.closed_loop
    except api.NotAssignableAsRightmost as exc:
        res, cl = exc, exc.closed_loop
    except (api.ConditionViolated, api.AlphaOutOfRange) as exc:
        return exc, None, None
    return res, api.spectrum(cl, 3), api.is_stable(cl)


def design_extract(task, out):
    res, sp, st = out
    name = task[0]
    if name == "feasibility_report":
        return ("report", tuple(m.value for m in res.feasible_modes()))
    if sp is None:
        return ("rejected", type(res).__name__)
    cl = res.closed_loop
    feasible = getattr(res, "feasible", False)
    return ("designed" if feasible else "not_rightmost", (cl.alpha, cl.beta, cl.h), sp.rightmost, st)


def design_check(task, rec):
    _, _, S, _, expect = task
    if rec[0] == "report":
        return ("both_gains" in rec[1]) if expect == "feasible" else rec[1] == ()
    if rec[0] == "rejected":
        return expect == "infeasible"
    _, (alpha, _, h), rm, (_, margin) = rec
    if rec[0] == "not_rightmost":
        # the would-be loop must have a root strictly right of S
        return expect != "feasible" and rm.real > S.real
    if expect == "infeasible":
        return False
    # the confirmation root sits on the target, and is_stable's margin
    # (Re of its own rightmost root) agrees with the spectrum's
    tol = root_tolerance(alpha, h, (S - alpha) * h, 4.0 * EPS * abs(S * h))
    return abs(rm - S) <= tol and abs(margin - rm.real) <= tol


def design_shares(records):
    """records are ("ok", record) or ("error", exception name)."""
    infeasible = sum(r[0] == "ok" and (r[1][0] in ("rejected", "not_rightmost") or r[1] == ("report", ()))
                     for r in records)
    return {"assign.infeasible_share": infeasible / len(records)}


# ------------------------------------------------------------- enumerate

ENUM_GRID = (32, 32)
# one loop in eight is moved onto the coalescence z = -1/e exactly
ENUM_COALESCENT_EVERY = 8
ENUM_N = (16, 1024)


def enumerate_pool(api, seed):
    rng = random.Random(f"enumerate:{seed}")
    loops = _wide_loops(api, rng, *ENUM_GRID)
    ns = _strata(rng, len(loops))
    lo, hi = math.log(ENUM_N[0]), math.log(ENUM_N[1])
    tasks = []
    for i, (cl, t) in enumerate(zip(loops, ns)):
        if i % ENUM_COALESCENT_EVERY == 0:
            cl = api.ClosedLoopParams(cl.alpha, -math.exp(cl.alpha * cl.h - 1.0) / cl.h, cl.h)
        n = int(round(math.exp(lo + (hi - lo) * t)))
        # branches sampled for the reference check: 0, -1, n and one more
        ks = (0, -1, n, rng.randint(1, n - 1))
        tasks.append((cl, n, ks))
    rng.shuffle(tasks)
    return tasks


def enumerate_run(api, task):
    return api.spectrum(task[0], task[1])


def enumerate_extract(task, sp):
    ks = set(task[2])
    return tuple((r.branch, r.s, r.multiplicity) for r in sp.roots if r.branch in ks)


def enumerate_check(task, rec):
    """Sampled roots against a 50-digit mpmath reference."""
    import mpmath

    cl, n, ks = task
    mpmath.mp.dps = 50
    alpha, beta, h = mpmath.mpf(cl.alpha), mpmath.mpf(cl.beta), mpmath.mpf(cl.h)
    z = beta * h * mpmath.exp(-alpha * h)
    got = {k: s for k, s, _ in rec}
    # branch -1 is absent only where the spectrum merges it into a
    # double root at the coalescence
    if not all(k in got for k in ks if k != -1):
        return False
    for k, s in got.items():
        w = complex(mpmath.lambertw(z, k))
        ref = cl.alpha + w / cl.h
        if not abs(s - ref) <= root_tolerance(cl.alpha, cl.h, w):
            return False
    return True


# ---------------------------------------------------------------- verify

VERIFY_GRID = (12, 12)
VERIFY_N = (3, 10, 30)


def verify_pool(api, seed):
    rng = random.Random(f"verify:{seed}")
    tasks = [(cl, n) for n in VERIFY_N for cl in _wide_loops(api, rng, *VERIFY_GRID)]
    rng.shuffle(tasks)
    return tasks


def verify_run(api, task):
    return api.cross_validate(task[0], task[1])


def verify_extract(task, cv):
    return cv.max_distance


def verify_check(task, rec):
    # cross_validate raises on any disagreement; a returned report is a pass
    return True


def verify_shares(records):
    return {"oracle.mismatch_share": sum(r == ("error", "MismatchDetected") for r in records) / len(records)}


# -------------------------------------------------------------- simulate

SIM_DELAYS = 40.0
# decaying or slowly growing loops, and fast-growing loops that overflow
# and stop early: (count, u*h range, v*h range).  With v*h > pi/2 + 0.1
# the dominant mode crosses zero 40*v*h/pi > 21 times over the horizon,
# and more than 10 times in the tail half the estimator reads.
SIM_GROUPS = (
    (192, (-1.5, 0.5), (math.pi / 2.0 + 0.1, math.pi - 0.1)),
    (48, (20.0, 24.0), (2.6, 3.0)),
)
# stated deviation of the estimate from spectrum(cl, 0).rightmost
SIM_REL_TOL = 1e-2


def _history(api, rng, h):
    kind = rng.randrange(3)
    if kind == 0:
        return api.ConstantHistory(rng.uniform(-1.0, 1.0) or 1.0)
    if kind == 1:
        return api.LinearHistory(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0) / h)
    m = 8
    return api.SampledHistory(tuple((-h + h * i / m, rng.uniform(-1.0, 1.0)) for i in range(m)))


def simulate_pool(api, seed):
    rng = random.Random(f"simulate:{seed}")
    # u*h and v*h stratified on their own, so each seed has the same
    # number of loops in every slice of decay rate
    targets = [(_lerp(uh, tu), _lerp(vh, tv))
               for n, uh, vh in SIM_GROUPS for tu, tv in zip(_strata(rng, n), _strata(rng, n))]
    rng.shuffle(targets)
    tasks = []
    for uh, vh in targets:
        plant = _plant(api, rng)
        h = plant.h
        S = complex(uh / h, vh / h)
        cl = api.assign_both(plant, S).closed_loop
        init = api.InitialData(rng.uniform(-1.0, 1.0), _history(api, rng, h))
        tasks.append((cl, init))
    return tasks


def simulate_run(api, task):
    cl, init = task
    traj = api.simulate(cl, init, SIM_DELAYS * cl.h)
    try:
        est = api.estimate_dominant_eig_detailed(traj)
    except api.InsufficientData as exc:
        est = exc
    return traj, est, api.spectrum(cl, 0).rightmost


def simulate_extract(task, out):
    traj, est, rm = out
    # (None, None): InsufficientData
    value, kind = (est.value, est.kind) if hasattr(est, "kind") else (None, None)
    return len(traj.values) - 1, traj.truncated, value, kind, rm


def simulate_check(task, rec):
    _, _, value, _, rm = rec
    return value is not None and abs(value - rm) <= SIM_REL_TOL * abs(rm)


def simulate_shares(records):
    """Every target is oscillatory, so a "constant" estimate (the value
    0 for a tail that decayed below the estimator's threshold) is as
    unavailable as an InsufficientData one."""
    done = [r for r in records if r[0] != "error"]
    n = len(records)
    return {
        "sim.truncated_share": sum(r[1] for _, r in done) / n,
        "sim.estimate_unavailable_share": sum(r[3] in (None, "constant") for _, r in done) / n,
    }


# ------------------------------------------------------------- registry

def _warm_design(api):
    r = api.assign_both(api.SystemParams(1.0, -1.0, 1.0, 1.0), complex(-0.092484, 1.9973))
    api.spectrum(r.closed_loop, 3)
    api.is_stable(r.closed_loop)


def _warm_enumerate(api):
    api.spectrum(api.ClosedLoopParams(-1.0, -2.0, 1.0), 256)


def _warm_verify(api):
    api.cross_validate(api.ClosedLoopParams(-1.0, -2.0, 1.0), 10)


def _warm_simulate(api):
    cl = api.ClosedLoopParams(-1.0, -2.0, 1.0)
    traj = api.simulate(cl, api.InitialData(1.0, api.ConstantHistory(1.0)), SIM_DELAYS)
    api.estimate_dominant_eig_detailed(traj)
    api.spectrum(cl, 0)


class Workload:
    """pool(api, seed) -> tasks; run(api, task) -> output;
    extract(task, output) -> record; check(task, record) -> bool;
    shares(records) -> per-layer outcome shares; warm(api) is the
    fixed warm-up task that set-up time includes."""

    def __init__(self, name, pool, run, extract, check, shares, warm):
        self.name, self.pool, self.run = name, pool, run
        self.extract, self.check, self.shares, self.warm = extract, check, shares, warm


WORKLOADS = {
    w.name: w
    for w in (
        Workload("design", design_pool, design_run, design_extract, design_check, design_shares,
                 _warm_design),
        Workload("enumerate", enumerate_pool, enumerate_run, enumerate_extract, enumerate_check,
                 lambda records: {}, _warm_enumerate),
        Workload("verify", verify_pool, verify_run, verify_extract, verify_check, verify_shares,
                 _warm_verify),
        Workload("simulate", simulate_pool, simulate_run, simulate_extract, simulate_check, simulate_shares,
                 _warm_simulate),
    )
}
