"""Machine-speed calibration for the benchmark's CPU timings.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over minutes: other tenants compete for the caches and cores, and the
process CPU time of a fixed simulation drifts with them.  In one quarter
of an hour on a 2-vCPU Xeon VM the median ``cais-layer`` pass ranged
from 2.3 s to 3.0 s; the same passes, each divided by a loop like this
one timed beside it, ranged by 8%.

Every timed sample is therefore scaled by :meth:`Calibration.factor`:
``REFERENCE_S`` over the CPU time of a fixed walk over a few MB of
Python objects, taken just before and just after the sample.  The
results read as CPU seconds at the reference speed.  The loop is
benchmark code, so no change to the simulator moves it.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time

#: About the CPU seconds of one :meth:`Calibration.sample` on the
#: reference machine (2-vCPU Intel Xeon VM, Python 3.11).  It only sets
#: the scale of the reported seconds.
REFERENCE_S = 0.015

_NODES = 100_000
_STEPS = 50_000
_WALKS = 3


class _Node:
    __slots__ = ("value", "next")


class Calibration:
    """Python objects linked at random, walked with some heap traffic: the
    interpreter work of an event loop over a working set of a few MB."""

    def __init__(self, seed: int = 1):
        rng = random.Random(seed)
        nodes = [_Node() for _ in range(_NODES)]
        for i, node in enumerate(nodes):
            node.value = i
            node.next = nodes[rng.randrange(_NODES)]
        self._start = nodes[0]

    def _walk(self) -> float:
        start = time.process_time()
        node, total, heap = self._start, 0, []
        for i in range(_STEPS):
            total += node.value
            node = node.next
            if i & 7 == 0:
                heapq.heappush(heap, (total & 1023, i))
        while heap:
            heapq.heappop(heap)
        return time.process_time() - start

    def sample(self) -> float:
        """Median CPU seconds of ``_WALKS`` walks of ``_STEPS`` nodes."""
        return statistics.median(self._walk() for _ in range(_WALKS))

    def factor(self, before: float, after: float) -> float:
        """Scale for a sample timed between two calibration samples."""
        return REFERENCE_S / ((before + after) / 2)
