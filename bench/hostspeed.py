"""Host speed correction for the benchmark's timings.

On a shared host the same Python code can run 1.8 times slower for
seconds at a time, when other tenants load the same physical cores.
To take that out of the comparison between runs, a fixed pure-Python
reference loop is timed after every command, outside the timed region.
Each command time is then scaled by REFERENCE_NS over the reference
loop's local time: it reads as the time on a host where the loop takes
REFERENCE_NS. A change to the library changes the command times, not
the reference loop, so it shows in full. The loop allocates no
container objects, so garbage left by the commands cannot slow it.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

# The reference loop's median time on a 2.1 GHz Xeon container with 2
# vCPUs, CPython 3.11; scaled times read as times on such a host.
REFERENCE_NS = 160_000
WINDOW_NS = 250_000_000  # a sample is scaled by the loop times within +-0.25 s


def reference_loop() -> int:
    total = 0
    for i in range(2000):
        total += i * i % 7
    return total


def measure() -> int:
    """Nanoseconds one run of the reference loop takes now."""
    start = perf_counter_ns()
    reference_loop()
    return perf_counter_ns() - start


def scale(times_ns: list[int], starts_ns: list[int], loops_ns: list[int]) -> list[int]:
    """Each time scaled by the median reference-loop time around its start.

    ``loops_ns[i]`` was measured right after sample i; the window takes
    every loop measured within WINDOW_NS of the sample's start.
    """
    scaled = []
    lo = hi = 0
    for t, start in zip(times_ns, starts_ns):
        while starts_ns[lo] < start - WINDOW_NS:
            lo += 1
        while hi < len(starts_ns) and starts_ns[hi] <= start + WINDOW_NS:
            hi += 1
        scaled.append(t * REFERENCE_NS / statistics.median(loops_ns[lo:hi]))
    return scaled
