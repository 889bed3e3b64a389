"""A fixed reference kernel that gauges how fast the host runs right now.

The benchmark host is a small VM on a shared machine: its speed drifts by
up to 1.8x within minutes, with no steal time to show for it, so raw
host seconds of two runs of the same code can differ by a third.  The
reference kernel does the same kind of work as the simulators (a Python
discrete-event loop over slotted objects, a heap and a dict, and small
numpy matrix products driven from Python) and never touches ``repro``, so
a change to the program cannot move it.  Run between every two
iterations, it slows down with the host; dividing an iteration's wall
time by the geometric mean of the kernels run on either side of it and
multiplying by :data:`NOMINAL_S` converts it to seconds on a host where
the kernel takes :data:`NOMINAL_S`.  On a 2-vCPU Xeon VM this cut the
spread of 20-iteration medians over 12 minutes from 27-33% to 2-5%.
"""

import gc
import heapq
import math
import random
import time

import numpy as np

#: Geometric mean of the two kernels' seconds on an uncontended 2-vCPU
#: Xeon VM; normalised times are seconds on a host this fast.
NOMINAL_S = 0.016

_EVENTS = 8_000
_PRODUCTS = 2_400


class _Event:
    __slots__ = ("at", "key", "payload")

    def __init__(self, at: float, key: int, payload: tuple[int, float]):
        self.at = at
        self.key = key
        self.payload = payload

    def __lt__(self, other: "_Event") -> bool:
        return self.at < other.at


def _event_loop() -> float:
    rng = random.Random(1)
    queue: list[_Event] = []
    totals: dict[int, float] = {}
    for i in range(_EVENTS):
        heapq.heappush(queue, _Event(rng.random(), i % 512, (i, float(i))))
    clock = 0.0
    while queue:
        event = heapq.heappop(queue)
        totals[event.key] = totals.get(event.key, 0.0) + event.payload[1]
        clock += event.at
    return clock + sum(totals.values())


_MATRICES = [np.random.default_rng(i).random((64, 64)) for i in range(8)]


def _matrix_products() -> float:
    total = 0.0
    for i in range(_PRODUCTS):
        a = _MATRICES[i % len(_MATRICES)]
        total += float((a @ a[:, :8]).max()) + float(np.maximum(a[0], 0.5).sum())
    return total


def reference_s() -> float:
    """Geometric mean of the two kernels' wall seconds, with the garbage
    collector off so that the program's heap size cannot slow them."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _event_loop()
        middle = time.perf_counter()
        _matrix_products()
        end = time.perf_counter()
    finally:
        if enabled:
            gc.enable()
    return math.sqrt((middle - start) * (end - middle))


def normalised(wall_s: float, *references_s: float) -> float:
    """``wall_s`` in seconds of the nominal host, given the reference
    times measured around it (just before and just after)."""
    mean_s = math.exp(sum(math.log(r) for r in references_s) / len(references_s))
    return wall_s * NOMINAL_S / mean_s
