"""A fixed pure-Python reference kernel that measures machine speed.

On a shared host the interpreter's speed drifts by up to a factor of
two over seconds (frequency changes, work on sibling hardware threads),
and that drift moves every wall-clock figure by far more than any bound
a benchmark could keep.  The benchmark therefore times this kernel
before and after each stretch of measured work and scales the stretch's
times by REFERENCE_S over the mean of the two kernel times: times are
reported as they would read on a machine on which the kernel takes
exactly REFERENCE_S.  The kernel uses no delayw code, so a change to
the program cannot move it, and it mixes the same kinds of work as the
program (calls, attribute reads, float and complex arithmetic, tuple
and list building).

It imports only math, so a fresh interpreter can run it before timing
`import delayw` without loading anything delayw needs.
"""

import math
import time

# Kernel time on the machine the benchmark was defined on (2-CPU cloud
# sandbox, CPython 3.11.7); it only sets the scale of reported times.
REFERENCE_S = 0.0005


class _Coeffs:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def _step(p, x, w):
    y = x * p.a + w * p.b
    return y, abs(y) + (y * y.conjugate()).real


def kernel():
    p = _Coeffs(complex(0.999, 0.001), complex(0.5, -0.25))
    x = complex(1.0, 0.0)
    acc = []
    for i in range(600):
        x, m = _step(p, x, complex(math.sin(i * 0.01), 0.0))
        if m > 1e6:
            x = x / m
        acc.append((x, m))
    return len(acc)


def kernel_seconds():
    """CPU time of one run of the kernel in the calling thread.  Time
    the thread spends descheduled would make single runs read up to
    several times too slow, and every time scaled by them too fast."""
    t0 = time.thread_time()
    kernel()
    return time.thread_time() - t0


def at_reference(seconds, kernel_before, kernel_after):
    """A measured time expressed at reference speed, from the kernel
    times taken just before and just after the measurement."""
    return seconds * REFERENCE_S / (0.5 * (kernel_before + kernel_after))


def bracketed(fn):
    """Run fn() once between two kernel runs; return its wall time in
    seconds, as measured and at reference speed."""
    before = kernel_seconds()
    t0 = time.perf_counter()
    fn()
    dt = time.perf_counter() - t0
    return dt, at_reference(dt, before, kernel_seconds())
