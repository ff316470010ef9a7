"""Host-speed scaling of the benchmark's timings.

The benchmark runs on a vCPU of a shared host, and the speed that vCPU
gives changes by up to 1.8x from one moment to the next: on the 2-vCPU
host the benchmark was tuned on, a fixed piece of Python work took
either about 0.9 ms or about 1.6 ms, switching between the two states
over milliseconds to minutes as other tenants load the physical core.
No run length averages that away -- a slow spell can cover whole runs
and whole sets of runs.

So every timed piece of work is sandwiched between two runs of a fixed
reference kernel, interpreter and numpy work of the kind the simulator
does, and its time is scaled by ``K_REF_S`` over the mean of the two
kernel times: the time the piece would have taken on a host on which
the kernel takes ``K_REF_S``. Both slow down alike in a slow state --
an observe document by 1.77x and the kernel by 1.68x -- and in a 40 s
probe that moved the observe's raw median time 1.8x, its scaled median
stayed within 7%.

The kernel is the benchmark's own code, never the program's, so both
sides of a comparison scale by the same yardstick.
"""

from __future__ import annotations

import gc
import heapq
from time import perf_counter

import numpy

#: the yardstick, seconds: a scaled time is what the work would take on a
#: host on which the kernel takes this long (a round figure between the
#: kernel's fast and slow states on the host the benchmark was tuned on)
K_REF_S = 1.0e-3

_ARRAY = numpy.linspace(0.0, 1.0, 4096)


def reference_kernel() -> float:
    """Fixed work: dict and heap operations, float arithmetic, numpy
    slices and reductions. Allocates nothing that outlives it."""
    table = {}
    heap = []
    acc = 0.0
    for i in range(1000):
        key = (i * 7919) & 1023
        table[key] = table.get(key, 0.0) + i * 0.5
        heapq.heappush(heap, (acc, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        acc += (i % 13) * 0.25
    for i in range(60):
        acc += float((_ARRAY[i : i + 2048] * 1.5).sum())
    return acc


def kernel_seconds() -> float:
    """One timed run of the kernel, with the collector paused so that a
    collection of the program's heap never lands inside it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        reference_kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Scales consecutive timed pieces of work by the host's speed.

    Call :meth:`scale` right after each timed piece: it runs the kernel
    once and uses that time and the previous kernel time, taken right
    before the piece, as the piece's yardstick. The caller keeps
    untimed work between pieces out of the way by calling
    :meth:`restart` before the next piece.
    """

    def __init__(self) -> None:
        kernel_seconds()  # first run pays lazy set-up; not a sample
        self.restart()
        self.kernel_s: list = []

    def restart(self) -> None:
        """Take the 'before' kernel time for the next timed piece."""
        self._before = kernel_seconds()

    def scale(self, raw_s: float) -> float:
        """``raw_s`` on the reference host; the 'after' kernel time
        becomes the next piece's 'before'."""
        after = kernel_seconds()
        mean = (self._before + after) / 2.0
        self._before = after
        self.kernel_s.append(mean)
        return raw_s * K_REF_S / mean
