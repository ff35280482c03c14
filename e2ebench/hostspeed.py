"""Host speed, measured alongside a run, and times scaled to a reference speed.

The reference host shares its CPUs with other machines.  Their load comes
in phases of several seconds in which pure-Python code runs up to about
1.7 times slower, long enough that a 10-second run can fall wholly inside
one.  Raw timings of one workload then spread by 16-31 % between runs.
Process CPU time spreads as much: in those phases the CPU runs the same
code more slowly, it does not take time away from the process.

So every measured pass also runs :class:`HostSpeed`: a thread that times
a small fixed pure-Python :class:`Kernel` every ``INTERVAL_S`` seconds.
While the kernel runs it holds the interpreter lock, so the simulator
waits and the kernel has a core to itself.  :func:`reference_seconds`
rescales an interval of the run by how fast the kernel ran during it,
giving the time the same work would have taken on a host where the
kernel takes ``REFERENCE_KERNEL_S``.  The kernel is part of the
benchmark, not of the program, so a change to the program's speed
reaches the scaled time in full; but the kernel shares the CPU caches
with the program, so a change to the program's memory use can move the
kernel's timings too (README.md gives both measurements).
"""

from __future__ import annotations

import heapq
import statistics
import threading
import time
from typing import List, Sequence, Tuple

#: Seconds between two timings of the kernel.
INTERVAL_S = 0.1
#: Kernel seconds that define a reference second.  Only the unit hangs on
#: it: inside measured runs on a 2-core x86-64 host with CPython 3.11 the
#: kernel's median time was 1.1-2.1 times this, so reference times come
#: out shorter than the wall times of every run seen there.
REFERENCE_KERNEL_S = 0.0006


class _Node:
    __slots__ = ("best", "neighbors")

    def __init__(self, index: int, size: int) -> None:
        self.best = (index, index)
        self.neighbors = {(index * k + 13) % size: k for k in (1, 7, 31)}


class Kernel:
    """A fixed pure-Python workload shaped like the simulator's inner loop.

    It walks slotted objects in a pseudo-random order, compares route-like
    tuples, iterates small neighbour dictionaries and pushes and pops a
    binary heap.  A kernel of plain dictionary arithmetic tracked the
    simulator's slowdown less well: six runs of one seed spread 6 % and
    9 % after scaling on two workloads, against 5 % and 6 % with this
    one.  It allocates no object the garbage collector tracks, so timing
    it never starts a collection of the simulator's heap.
    """

    SIZE = 4096
    STEPS = 450

    def __init__(self) -> None:
        self.nodes = [_Node(i, self.SIZE) for i in range(self.SIZE)]
        self.routes = [((i * 37) & 255, i) for i in range(1024)]

    def __call__(self) -> int:
        heap: List[int] = []
        nodes, routes, mask = self.nodes, self.routes, self.SIZE - 1
        pushed = 0
        j = 1
        for i in range(self.STEPS):
            j = (j * 1103515245 + 12345) & mask
            node = nodes[j]
            route = routes[i & 1023]
            if route < node.best:
                node.best = route
            for other, relation in node.neighbors.items():
                if relation != 7:
                    pushed += 1
                    heapq.heappush(heap, (pushed << 12) | other)
            while len(heap) > 32:
                heapq.heappop(heap)
        return pushed


class HostSpeed:
    """Times a :class:`Kernel` every ``interval`` seconds on a thread."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self._interval = interval
        self._kernel = Kernel()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        #: ``(end time, kernel seconds)`` of every timing, in time order
        self.samples: List[Tuple[float, float]] = []

    def _sample(self) -> None:
        start = time.perf_counter()
        self._kernel()
        end = time.perf_counter()
        self.samples.append((end, end - start))

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            self._sample()

    def __enter__(self) -> "HostSpeed":
        # No timing on entry: the kernel's data is still in the CPU caches
        # right after it is built, unlike at any later timing.
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    def reference_seconds(self, start: float, end: float) -> float:
        return reference_seconds(self.samples, start, end)

    def slowdown(self) -> float:
        """Median kernel time over the reference kernel time."""
        return statistics.median(s for _, s in self.samples) / REFERENCE_KERNEL_S


def reference_seconds(
    samples: Sequence[Tuple[float, float]],
    start: float,
    end: float,
    reference: float = REFERENCE_KERNEL_S,
) -> float:
    """``[start, end]`` rescaled to a host where the kernel takes ``reference``.

    Sample ``i`` stands for the stretch of time since sample ``i - 1``;
    the first sample also stands for all time before it and the last for
    all time after it.  A stretch counts ``reference / kernel`` seconds
    per second, with ``kernel`` the median of the sample and its two
    neighbours (the first or last three at the ends), so that one
    disturbed timing does not count.
    """
    if not samples:
        raise ValueError("no host speed samples")
    times = [when for when, _ in samples]
    seconds = [s for _, s in samples]
    total = 0.0
    previous = float("-inf")
    for i, when in enumerate(times):
        piece_end = when if i < len(times) - 1 else float("inf")
        overlap = min(end, piece_end) - max(start, previous)
        if overlap > 0:
            low = min(max(0, i - 1), max(0, len(seconds) - 3))
            smoothed = statistics.median(seconds[low: low + 3])
            total += overlap * reference / smoothed
        previous = piece_end
    return total
