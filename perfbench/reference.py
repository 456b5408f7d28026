"""A fixed chunk of reference work that measures how fast the host runs
Python at this moment.

The hosts this benchmark runs on are shared: the same fixed work can take
twice as long from one minute to the next, and CPU time tracks wall time,
so the slowdown cannot be read off the process's own clocks. The timed
loop therefore runs this chunk every few tens of milliseconds between
operations, and reports operation times scaled by NOMINAL_S over the
chunk's mean time in the same cycle: each time is what the operation
would have taken on a host on which the chunk takes exactly NOMINAL_S.
Averaged over 20-second windows, the work/reference ratio varied by
0.4% (coefficient of variation) where the raw time varied by 16%.

The chunk uses only the standard library (Fraction arithmetic on small
matrices, the same kind of work as the exact kernels), so no change to
jordankit can speed it up or slow it down. Do not change it: every
normalized time in the benchmark's history is relative to it.
"""

import gc
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.001
_REPS = 5
_A = tuple(tuple(Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i + 2 * j) % 3)
                 for j in range(3)) for i in range(3))


def chunk():
    """Run the reference work once; returns its wall time in seconds.

    The cyclic collector is paused meanwhile, so that a collection owed to
    the workload's allocations is not charged to the chunk."""
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(_REPS):
            m = _A
            for _ in range(2):
                m = [[sum((m[i][t] * _A[t][j] for t in range(3)), Fraction(0))
                      / (1 + abs(m[i][j])) for j in range(3)]
                     for i in range(3)]
        return perf_counter() - t0
    finally:
        gc.enable()
