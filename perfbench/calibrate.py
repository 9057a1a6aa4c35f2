"""Host-speed calibration: a fixed pure-Python kernel timed around every op.

On a shared host the other tenants slow this machine's cores by up to 1.8x
for seconds to minutes at a time, and the whole of a 45 s run can fall in a
slow spell.  The harness times ``kernel_seconds`` before the first op and
after every op (a CLI process, a ``library-warm`` step of calls, a set-up
sample) and scales the op's wall and CPU time by ``REFERENCE_S`` over the
median of the kernel timings nearest to it (``speeds``).  A time so scaled
is the op's time at the speed at which the kernel takes ``REFERENCE_S``, a
quiet spell of the host the benchmark was tuned on (2 vCPUs of an Intel
Xeon, Python 3.11).  The kernel is the benchmark's own
fixed code, so a change to the program moves the scaled times as much as
the raw ones; the raw times are printed too, in the metadata line.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# The kernel's time in quiet spells of that host (its fastest is 0.70 ms).
REFERENCE_S = 0.75e-3


def _kernel() -> None:
    """Interpreted integer and ``Fraction`` arithmetic, as in the package."""
    total = 0
    for i in range(6000):
        total += (i * i) % 7
    acc = Fraction(0)
    for i in range(1, 160):
        acc += Fraction(1, i)


def kernel_seconds() -> float:
    """Wall time of the kernel: the faster of two back-to-back runs."""
    times = []
    for _ in range(2):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return min(times)


def speeds(kernel: list[float]) -> list[float]:
    """Scale factors for the ops timed between consecutive kernel timings.

    Op ``i`` ran between ``kernel[i]`` and ``kernel[i + 1]``; its factor
    uses the median of the six kernel timings nearest to it, three before
    and three after, so that one kernel timing caught in a brief stall or
    burst does not set an op's time.
    """
    return [REFERENCE_S / statistics.median(kernel[max(0, i - 2):i + 4])
            for i in range(len(kernel) - 1)]
