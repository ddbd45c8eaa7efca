"""Micro rows: the single-call timings of the project roadmap, re-measured.

    python3 bench/micro.py

Times lambert_w over a fixed sample of (k, z), spectrum(cl, 1000),
cross_validate at n = 3, 10 and 30, and a 40k-step simulate, each as the
median of REPEATS runs with time.perf_counter, on the loop
x' = -x - 2 x(t-1).  Times are printed as measured and, beside them, at
reference speed (see calibrate.py).  Work counts come from return values,
and the oracle's phase evaluations from a separate pass that counts
cmath.phase calls with sys.setprofile.  Prints one JSON object.
"""

import json
import os
import random
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import delayw  # noqa: E402
from calibrate import bracketed  # noqa: E402
from worker import PhaseCounter  # noqa: E402

REPEATS = 15
CL = delayw.ClosedLoopParams(-1.0, -2.0, 1.0)


def timed(fn):
    """Median wall time of fn() in seconds, raw and at reference speed."""
    fn()
    raw, scaled = zip(*(bracketed(fn) for _ in range(REPEATS)))
    return statistics.median(raw), statistics.median(scaled)


def main():
    rng = random.Random(9)
    wargs = []
    while len(wargs) < 1000:
        z = complex(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0))
        if z.imag != 0.0:
            wargs.append((rng.randint(-50, 50), z))
    rows = {}
    raw, scaled = timed(lambda: [delayw.lambert_w(k, z) for k, z in wargs])
    iters = sum(delayw.lambert_w(k, z).iterations for k, z in wargs) / len(wargs)
    rows["lambert_w"] = {"us_per_call": 1e6 * raw / len(wargs), "us_per_call_at_reference": 1e6 * scaled / len(wargs),
                         "iterations_per_call": iters, "sample": "1000 (k, z), k in [-50, 50], z in [-10, 10]^2"}
    raw, scaled = timed(lambda: delayw.spectrum(CL, 1000))
    rows["spectrum_n1000"] = {"ms": 1e3 * raw, "ms_at_reference": 1e3 * scaled,
                              "roots": len(delayw.spectrum(CL, 1000).roots)}
    for n in (3, 10, 30):
        raw, scaled = timed(lambda: delayw.cross_validate(CL, n))
        with PhaseCounter() as counter:
            delayw.cross_validate(CL, n)
        rows[f"cross_validate_n{n}"] = {"ms": 1e3 * raw, "ms_at_reference": 1e3 * scaled, "phase_evals": counter.n}
    init = delayw.InitialData(1.0, delayw.ConstantHistory(1.0))
    raw, scaled = timed(lambda: delayw.simulate(CL, init, 40.0))
    rows["simulate_40k"] = {"ms": 1e3 * raw, "ms_at_reference": 1e3 * scaled,
                            "steps": len(delayw.simulate(CL, init, 40.0).values) - 1}
    print(json.dumps({"loop": "alpha=-1, beta=-2, h=1", "repeats": REPEATS, "rows": rows}, indent=1))


if __name__ == "__main__":
    main()
