"""One measuring process of the benchmark: python3 bench/worker.py MODE WORKLOAD SEED SECONDS

MODE is one of
  timed   untraced closed loop over the seeded pool for about SECONDS,
          then an untimed re-run of every eighth task, whose records
          must repeat exactly, and the correctness checks; the
          end-to-end numbers come from here;
  traced  the same loop with spans recorded around every call into a
          layer; gives per-layer self times and the traced throughput;
  count   one untimed pass over every eighth task of the pool, recording
          exact work counters from return values and counting the
          oracle's cmath.phase calls with sys.setprofile.

Each mode runs in a fresh interpreter of its own, so a profiler or a
tracer never shares a process with a timed loop.  The result is one
JSON object on stdout.
"""

import array
import itertools
import json
import os
import resource
import statistics
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import delayw  # noqa: E402
from calibrate import REFERENCE_S, at_reference, kernel_seconds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# how often the loop re-measures machine speed
CALIBRATE_EVERY_S = 0.02
# the counting pass and the re-run after the timed loop take every
# COUNT_STRIDE-th task of the pool
COUNT_STRIDE = 8

# the package re-exports a function named spectrum, which hides the
# submodule attribute of the same name
SPECTRUM_MOD, ASSIGN_MOD, ORACLE_MOD = (sys.modules[f"delayw.{m}"] for m in ("spectrum", "assign", "oracle"))

# Regions of the W kernel: near_bp is where the kernel seeds from the
# branch-point series (|z + 1/e| <= 0.3, |k| <= 1); then tiny and huge
# |z| and high branches; "other" holds the rest.
TINY_Z, HUGE_Z, HIGH_K = 1e-8, 1e8, 32


def w_region(k, z):
    z = complex(z)
    if abs(k) <= 1 and abs(z - delayw.BRANCH_POINT_Z) <= 0.3:
        return "near_bp"
    if abs(z) <= TINY_Z:
        return "tiny_z"
    if abs(z) >= HUGE_Z:
        return "huge_z"
    return "high_k" if abs(k) >= HIGH_K else "other"


class PhaseCounter:
    """Counts the oracle's phase evaluations, the c_calls of cmath.phase
    made from delayw.oracle, with sys.setprofile while the block runs.
    The count stands in for the oracle's own work counters."""

    def __init__(self):
        self.n = 0

    def _profile(self, frame, event, arg, phase=sys.modules["cmath"].phase):
        if event == "c_call" and arg is phase and frame.f_globals.get("__name__") == "delayw.oracle":
            self.n += 1

    def __enter__(self):
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)


class Tracer:
    """Spans (id, parent id, parent name, task, name, start_ns, end_ns,
    self_ns, work) kept in memory.  Self time is the span minus the
    spans it directly encloses; work is a count read from the call's
    arguments or return value."""

    def __init__(self):
        self.spans = []
        self.stack = []  # [span id, ns covered by children, name]
        self.task = 0
        self.ids = itertools.count()

    def wrap(self, fn, name, work=None):
        spans, stack, ids, clock = self.spans, self.stack, self.ids, time.perf_counter_ns

        def traced(*args, **kwargs):
            label = name(*args) if callable(name) else name
            sid = next(ids)
            parent = stack[-1] if stack else None
            frame = [sid, 0, label]
            stack.append(frame)
            out = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[1] += dur
                w = work(args, out) if work is not None and out is not None else 0
                spans.append((sid, parent[0] if parent else -1, parent[2] if parent else "", self.task,
                              label, t0, t1, dur - frame[1], w))
            return out

        return traced

    def install(self):
        """Trace the public API the workloads call and the names that
        delayw's own modules bind to their callees; returns the api
        namespace and an undo function."""
        api = types.SimpleNamespace(**{k: getattr(delayw, k) for k in dir(delayw) if not k.startswith("_")})
        calls = {
            "spectrum": ("spectrum", lambda a, o: len(o.roots)),
            "is_stable": ("spectrum.is_stable", None),
            "cross_validate": ("oracle.cross_validate", None),
            "simulate": ("sim.simulate", lambda a, o: len(o.values) - 1),
            "estimate_dominant_eig_detailed": ("sim.estimate", lambda a, o: len(a[0].values)),
        }
        for fn in ("assign_both", "assign_delay_only", "assign_current_only", "assign_real_both",
                   "assign_input_delay", "feasibility_report"):
            calls[fn] = ("assign", None)
        for attr, (label, work) in calls.items():
            setattr(api, attr, self.wrap(getattr(delayw, attr), label, work))
        bound = [
            (SPECTRUM_MOD, "lambert_w",
             lambda k, z, *rest: "lambertw." + w_region(k, z), lambda a, o: o.iterations),
            (ASSIGN_MOD, "spectrum", "spectrum", lambda a, o: len(o.roots)),
            (ORACLE_MOD, "spectrum", "spectrum", lambda a, o: len(o.roots)),
            (ORACLE_MOD, "find_roots", "oracle.find_roots", lambda a, o: o.total_count),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in bound]
        for mod, attr, label, work in bound:
            setattr(mod, attr, self.wrap(getattr(mod, attr), label, work))

        def undo():
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

        return api, undo

    def totals(self):
        """{(name, parent name): [calls, total ns, self ns, work]}."""
        out = {}
        for _, _, pname, _, name, t0, t1, self_ns, work in self.spans:
            row = out.setdefault((name, pname), [0, 0, 0, 0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += self_ns
            row[3] += work
        return out

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write("id,parent,task,name,start_ns,end_ns\n")
            for sid, parent, _, task, name, t0, t1, _, _ in self.spans:
                f.write(f"{sid},{parent},{task},{name},{t0},{t1}\n")


def closed_loop(wl, api, tasks, seconds, tracer=None, records=None):
    """Whole passes over the pool, at least one, for about `seconds`:
    another pass starts only while more than half of it would fit.

    Returns a Loop.  With `records`, fills it with each task's
    first-pass record, extracted after the task's clock stopped, and
    counts the later executions whose outcome differed from it.
    """
    # the loop's length is wall time; a task's latency is the CPU time
    # of this thread, which leaves out time the host gave to other work
    clock, cpu = time.perf_counter, time.thread_time
    loop = Loop()
    next_calibration = start = clock()
    while loop.passes == 0 or clock() - start < seconds - 0.5 * (clock() - start) / loop.passes:
        for i, task in enumerate(tasks):
            if clock() >= next_calibration:
                loop.calibrate()
                next_calibration = clock() + CALIBRATE_EVERY_S
            if tracer is not None:
                tracer.task = len(loop.raw)
            t0 = cpu()
            try:
                out = wl.run(api, task)
                err = None
            except Exception as exc:  # a failed task is an outcome, not a crash
                err = type(exc).__name__
            loop.raw.append(cpu() - t0)
            if records is None:
                continue
            if loop.passes == 0:
                records.append(("error", err) if err else ("ok", wl.extract(task, out)))
            elif (records[i][0] == "error") != (err is not None) or (err and records[i][1] != err):
                loop.drift += 1
        loop.passes += 1
    loop.calibrate()
    return loop


class Loop:
    """Raw per-task latencies (s of CPU time), the reference kernel's
    times measured between stretches of tasks, passes made and outcome
    drift."""

    def __init__(self):
        # typed arrays keep the bookkeeping small next to peak_rss_mb
        self.raw, self.kernel = array.array("d"), array.array("d")
        self.marks = array.array("q")  # index of the first task after each kernel run
        self.passes = self.drift = 0

    def calibrate(self):
        self.marks.append(len(self.raw))
        self.kernel.append(kernel_seconds())

    def scaled(self):
        """Latencies at reference speed: each stretch of tasks scaled by
        the mean of the kernel times just before and just after it."""
        out = array.array("d")
        for j in range(len(self.marks) - 1):
            f = at_reference(1.0, self.kernel[j], self.kernel[j + 1])
            out.extend(dt * f for dt in self.raw[self.marks[j]:self.marks[j + 1]])
        return out

    def speed_factor(self):
        return REFERENCE_S / statistics.median(self.kernel)

    def summary(self):
        lat = self.scaled()
        deciles = statistics.quantiles(lat, n=10)
        return {
            "passes": self.passes,
            "executions": len(lat),
            "tasks_per_s": len(lat) / sum(lat),
            "task_ms_p50": 1e3 * statistics.median(lat),
            "task_ms_p90": 1e3 * deciles[8],
            "raw_tasks_per_s": len(self.raw) / sum(self.raw),
            "speed_factor": self.speed_factor(),
        }


def timed(wl, seed, seconds):
    tasks = wl.pool(delayw, seed)
    wl.warm(delayw)
    records = []
    loop = closed_loop(wl, delayw, tasks, seconds, records=records)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # a sample of the pool runs once more, untimed, and must give the
    # first pass's records exactly: the same check as between passes,
    # which also holds for workloads whose loop makes a single pass
    for task, rec in zip(tasks[::COUNT_STRIDE], records[::COUNT_STRIDE]):
        try:
            again = ("ok", wl.extract(task, wl.run(delayw, task)))
        except Exception as exc:
            again = ("error", type(exc).__name__)
        loop.drift += repr(again) != repr(rec)
    failed_tasks = sum(not (r[0] == "ok" and wl.check(t, r[1])) for t, r in zip(tasks, records))
    errors = {}
    for r in records:
        if r[0] == "error":
            errors[r[1]] = errors.get(r[1], 0) + 1
    # each task of the pool is checked once, on its first-pass output (the
    # later passes must repeat it), so both counts depend on the seed only
    return dict(loop.summary(), pool=len(tasks), attempted=len(tasks), failed=failed_tasks, errors=errors,
                drift=loop.drift, peak_rss_mb=rss_mb, shares=wl.shares(records))


def traced(wl, seed, seconds, spans_path):
    """Per-layer totals at reference speed (ns scaled by the run's median
    speed factor); the spans file keeps the raw clock readings."""
    tasks = wl.pool(delayw, seed)
    tracer = Tracer()
    api, undo = tracer.install()
    try:
        wl.warm(api)
        tracer.spans.clear()
        loop = closed_loop(wl, api, tasks, seconds, tracer=tracer)
    finally:
        undo()
    tracer.write(spans_path)
    f = loop.speed_factor()
    totals = [[name, parent, calls, total * f, self_ns * f, work]
              for (name, parent), (calls, total, self_ns, work) in sorted(tracer.totals().items())]
    return dict(loop.summary(), spans=len(tracer.spans), totals=totals)


def count(wl, seed):
    tasks = wl.pool(delayw, seed)[::COUNT_STRIDE]
    tracer = Tracer()
    api, undo = tracer.install()
    counter = PhaseCounter()
    cross_validate = api.cross_validate

    def counted_cross_validate(*args):
        with counter:
            return cross_validate(*args)

    api.cross_validate = counted_cross_validate
    try:
        for i, task in enumerate(tasks):
            tracer.task = i
            try:
                wl.run(api, task)
            except Exception:  # failed tasks still did countable work
                pass
    finally:
        undo()
    totals = tracer.totals()
    return {"tasks": len(tasks), "phase_evals": counter.n,
            "totals": [[name, parent, row[0], row[3]] for (name, parent), row in sorted(totals.items())]}


def main(argv):
    mode, name, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    wl = WORKLOADS[name]
    if mode == "timed":
        out = timed(wl, seed, seconds)
    elif mode == "traced":
        out = traced(wl, seed, seconds, os.path.join(HERE, "out", f"spans-{name}-{seed}.csv"))
    elif mode == "count":
        out = count(wl, seed)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
