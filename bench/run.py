"""delayw benchmark: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload is a seeded pool of tasks
that a single caller runs in a closed loop (the next task starts when
the previous one returns), in a fresh interpreter, for about --seconds
(whole passes over the pool, at least one).  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"};
"correct" is false when a task's outcome changed between passes, or
when an untimed re-run of every eighth task after the loop gave a
record that differs from its first one.

--trace 0 reports the end-to-end metrics:
  tasks_per_s   tasks completed per second of the loop
  task_ms_p50   median task latency
  task_ms_p90   90th-percentile task latency
                (a task's latency is the CPU time of the calling
                thread: every call is single-threaded computation
                without I/O, and CPU time leaves out the time the host
                gives to other processes)
  ok_share      share of the pool's tasks whose output passed its check
                (1 - failed_share; the failed and attempted counts are
                the base: each task of the pool is checked once, so
                both depend on the seed only, not on how many passes
                the loop made)
  setup_s       median over fresh interpreters of `import delayw` (from
                a bytecode cache warmed in the same run) plus one fixed
                warm-up task of the workload
  peak_rss_mb   ru_maxrss of the process that ran the timed loop

--trace 1 reports the per-layer metrics, from three more processes:
an import-time breakdown (python -X importtime) beside the bare
interpreter floor, a counting pass with exact work counters, and a loop
split between an untraced half and a traced half whose spans are kept
in memory and written to bench/out/ at the end.

--workload all runs every workload in turn; a readable summary of each
run, with failed_share and its base, goes to stderr.

--seed defaults to 1.  Seed 7919 is held out: it was never run while the
benchmark was tuned, and a claimed gain must also hold on it.  Times
are reported at a reference machine speed (see calibrate.py); the
stderr summary also gives the unscaled throughput.  bench/baseline.json
records the seeds and the re-measured micro rows of the roadmap.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile

from calibrate import bracketed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("design", "enumerate", "verify", "simulate")
DEFAULT_SEED = 1
SETUP_REPEATS = 11
IMPORT_REPEATS = 5
CHILD_TIMEOUT = 170
OUT = os.path.join(HERE, "out")
# Every child interpreter reads and writes bytecode in a private cache
# (PYTHONPYCACHEPREFIX, set by main) that starts empty in each run and is
# filled by one warm-up import before anything is timed.  Set-up time
# then always loads every module from bytecode compiled from the current
# sources, whatever __pycache__ directories an earlier test or tool left.
CHILD_ENV = dict(os.environ)
CHILD_ENV.pop("PYTHONPATH", None)
CHILD_ENV.pop("PYTHONDONTWRITEBYTECODE", None)
WARM_CODE = """\
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import calibrate, workloads, delayw
"""

# set-up time in a fresh interpreter, at the reference speed measured
# just before and just after it (see calibrate.py)
SETUP_CODE = """\
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import calibrate, workloads
before = sorted(calibrate.kernel_seconds() for _ in range(3))[1]
t0 = time.perf_counter()
import delayw
workloads.WORKLOADS[sys.argv[3]].warm(delayw)
dt = time.perf_counter() - t0
after = sorted(calibrate.kernel_seconds() for _ in range(3))[1]
print(calibrate.at_reference(dt, before, after))
"""

IMPORT_MODULES = ("delayw", "delayw.errors", "delayw.lambertw", "delayw.spectrum", "delayw.assign",
                  "delayw.oracle", "delayw.sim", "dataclasses")


def child(args):
    """Run the interpreter with args; return its stdout, or fail loudly."""
    proc = subprocess.run([sys.executable] + args, cwd=ROOT, env=CHILD_ENV, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"{args[:2]} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def worker(mode, workload, seed, seconds):
    out = child([os.path.join(HERE, "worker.py"), mode, workload, str(seed), repr(seconds)])
    return json.loads(out.stdout.strip().splitlines()[-1])


def setup_seconds(workload):
    child(["-c", SETUP_CODE, SRC, HERE, workload])  # warms the file cache
    return statistics.median(
        float(child(["-c", SETUP_CODE, SRC, HERE, workload]).stdout) for _ in range(SETUP_REPEATS))


IMPORT_CODE = """\
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import calibrate
print(calibrate.REFERENCE_S / sorted(calibrate.kernel_seconds() for _ in range(5))[2])
import delayw
"""


def import_breakdown():
    """Median self time (ms) per module from -X importtime, and the
    wall time of a bare `python -c pass`, both at reference speed.  A
    module that `import delayw` no longer loads reads 0."""
    rows = {m: [] for m in IMPORT_MODULES}
    for _ in range(IMPORT_REPEATS):
        proc = child(["-X", "importtime", "-c", IMPORT_CODE, SRC, HERE])
        factor = float(proc.stdout)
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)$", line)
            if m and m.group(2) in rows:
                rows[m.group(2)].append(int(m.group(1)) / 1e3 * factor)
    out = {f"import.{m.split('.')[-1]}.self_ms": statistics.median(v) if v else 0.0 for m, v in rows.items()}
    floor = [bracketed(lambda: child(["-c", "pass"]))[1] for _ in range(SETUP_REPEATS)]
    out["import.interpreter_floor_ms"] = 1e3 * statistics.median(floor)
    return out


def _sum(rows, col, pred):
    return sum(r[col] for r in rows if pred(r[0], r[1]))


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(traced, counts, untraced):
    """Per-layer metrics from the traced loop (times), the counting pass
    (exact work) and the untraced loop (outcome shares)."""
    t = traced["totals"]  # name, parent, calls, total ns, self ns, work
    c = counts["totals"]  # name, parent, calls, work

    def is_(name):
        return lambda n, p: n == name

    w_all = lambda n, p: n.startswith("lambertw.")  # noqa: E731
    m = {
        "lambertw.calls": _sum(c, 2, w_all),
        "lambertw.self_us_per_call": _ratio(_sum(t, 4, w_all), _sum(t, 2, w_all), 1e-3),
        "lambertw.iterations_per_call": _ratio(_sum(c, 3, w_all), _sum(c, 2, w_all)),
    }
    for region in ("near_bp", "tiny_z", "huge_z", "high_k"):
        r = is_("lambertw." + region)
        m[f"lambertw.{region}.us_per_call"] = _ratio(_sum(t, 4, r), _sum(t, 2, r), 1e-3)
        m[f"lambertw.{region}.iterations_per_call"] = _ratio(_sum(c, 3, r), _sum(c, 2, r))
    sp, cv, fr = is_("spectrum"), is_("oracle.cross_validate"), is_("oracle.find_roots")
    sim, est = is_("sim.simulate"), is_("sim.estimate")
    m.update({
        "spectrum.self_us_per_root": _ratio(_sum(t, 4, sp), _sum(t, 5, sp), 1e-3),
        "spectrum.roots": _sum(c, 3, sp),
        "spectrum.is_stable_us_per_call": _ratio(_sum(t, 3, is_("spectrum.is_stable")),
                                                 _sum(t, 2, is_("spectrum.is_stable")), 1e-3),
        "assign.self_us_per_call": _ratio(_sum(t, 4, is_("assign")), _sum(t, 2, is_("assign")), 1e-3),
        "oracle.cross_validate_ms_per_call": _ratio(_sum(t, 3, cv), _sum(t, 2, cv), 1e-6),
        "oracle.find_roots_ms_per_root": _ratio(_sum(t, 3, fr), _sum(t, 5, fr), 1e-6),
        "oracle.spectrum_share": _ratio(
            _sum(t, 3, lambda n, p: n == "spectrum" and p == "oracle.cross_validate"), _sum(t, 3, cv)),
        "oracle.phase_evals_per_root": _ratio(counts["phase_evals"], _sum(c, 3, fr)),
        "sim.simulate_us_per_step": _ratio(_sum(t, 3, sim), _sum(t, 5, sim), 1e-3),
        "sim.steps": _sum(c, 3, sim),
        "sim.estimate_us_per_sample": _ratio(_sum(t, 3, est), _sum(t, 5, est), 1e-3),
    })
    for key in ("assign.infeasible_share", "oracle.mismatch_share", "sim.truncated_share",
                "sim.estimate_unavailable_share"):
        m[key] = untraced["shares"].get(key, 0.0)
    m["trace.tasks_per_s"] = traced["tasks_per_s"]
    m["trace.overhead"] = _ratio(untraced["tasks_per_s"], traced["tasks_per_s"])
    return m


def declared_units():
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run(workload, seed, seconds, trace):
    if trace:
        imports = import_breakdown()
        counts = worker("count", workload, seed, seconds)
        untraced = worker("timed", workload, seed, seconds / 2.0)
        traced = worker("traced", workload, seed, seconds / 2.0)
        metrics = dict(layer_metrics(traced, counts, untraced), **imports)
        timed = untraced
    else:
        setup = setup_seconds(workload)
        timed = worker("timed", workload, seed, seconds)
        metrics = {
            "tasks_per_s": timed["tasks_per_s"],
            "task_ms_p50": timed["task_ms_p50"],
            "task_ms_p90": timed["task_ms_p90"],
            "ok_share": 1.0 - timed["failed"] / timed["attempted"],
            "setup_s": setup,
            "peak_rss_mb": timed["peak_rss_mb"],
        }
    summary = (f"{workload} seed={seed}: {timed['executions']} task executions ({timed['passes']} passes over a "
               f"pool of {timed['pool']}), failed_share = {timed['failed']}/{timed['attempted']} "
               f"(errors {timed['errors']}); "
               f"unscaled tasks_per_s {timed['raw_tasks_per_s']:.6g} at speed factor {timed['speed_factor']:.4f}")
    print(summary, file=sys.stderr)
    units = declared_units()
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}", file=sys.stderr)
    return {
        # outcomes must repeat identically on every pass over the pool
        "correct": timed["drift"] == 0,
        "attempted": timed["attempted"],
        "failed": timed["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "delayw", "__init__.py")):
        print(f"delayw sources not found under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    os.makedirs(OUT, exist_ok=True)
    CHILD_ENV["PYTHONPYCACHEPREFIX"] = tempfile.mkdtemp(prefix="pycache-", dir=OUT)
    try:
        child(["-c", WARM_CODE, SRC, HERE])
        results = {name: run(name, args.seed, args.seconds, args.trace) for name in names}
    finally:
        shutil.rmtree(CHILD_ENV["PYTHONPYCACHEPREFIX"], ignore_errors=True)
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
