"""CPU time, and the speed of the machine it is spent on.

The benchmark times operations in CPU time: sumred is single-threaded and
CPU-bound, so that is an operation's latency whenever it has a core to
itself, and unlike wall time it leaves out time the host gives to other
work. A shared host also changes how fast it runs a process, by two to
three times and from one operation to the next, and CPU time grows with
that. So between operations the benchmark times reference_seconds(), a
fixed computation that does not use sumred, and reports each operation's
CPU time multiplied by REFERENCE_S over the reference timings around it:
the time it would have taken on the machine the benchmark was defined on,
at its full speed.
This module imports nothing of sumred, so set-up can be timed with it.
"""

import resource
from fractions import Fraction
from time import process_time

# Median of reference_seconds() on the machine the benchmark was defined
# on, while it ran at full speed (see README.md).
REFERENCE_S = 0.0066


def cpu_seconds():
    """CPU time of this process and of the child processes it has waited
    for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def reference_seconds():
    """CPU time of a fixed product of two dense polynomials with rational
    coefficients, done four times in plain Python: the kind of exact
    arithmetic sumred spends its time in."""
    t0 = cpu_seconds()
    for _ in range(4):
        a = [Fraction(i + 1, 2 * i + 3) for i in range(24)]
        b = [Fraction(3 * i - 7, i + 5) for i in range(24)]
        prod = [Fraction(0)] * 47
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
    return cpu_seconds() - t0
