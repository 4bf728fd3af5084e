"""Speed-scaled CPU time: what an item would cost on a machine of fixed
speed.

On a shared host the CPU time of the same work swings by up to 2x within
a second, as neighbours load the sibling hyperthread, the caches and the
clock, and its average drifts by a third over minutes.  No run length
averages that away.  So while an item runs, a profiling timer interrupts
it every :data:`INTERVAL_S` of CPU time and runs the *reference kernel*, a
fixed piece of pure-Python work, and the item's CPU time (less the
kernel's) is scaled by ``REFERENCE_S / mean kernel time during the item``:
the time the item would take on a machine that runs the kernel in
:data:`REFERENCE_S`.  Both are measured over the same instants, so the
swings cancel.

The kernel does what the program does most (tuple hashing, dict and set
probes, small allocations, string building) and never calls the program,
so a change to the program moves the scaled times as it moves the raw
ones.  Times are thread CPU times: the workloads are single-threaded, and
the process-wide CPU clock only advances once per scheduler tick while a
profiling timer is armed.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from typing import List, Tuple

#: CPU seconds one run of the reference kernel takes at the speed every
#: scaled time is expressed in (the kernel's median on a 2-vCPU x86-64 VM
#: with CPython 3.11)
REFERENCE_S = 0.00030
#: CPU seconds of work between two kernel samples (about 7% overhead)
INTERVAL_S = 0.004
#: an item shorter than this many samples is scaled by the mean of the
#: latest ones
MIN_SAMPLES = 8
#: states the kernel explores per run
_STATES = 120


def _successors(state):
    a, b, c = state
    yield ((a + 1) % 31, b, c)
    yield (a, (b + a) % 17, c ^ 1)
    if c:
        yield (b % 31, a % 17, 0)


def _kernel() -> int:
    """Breadth-first search over a small tuple state space, labelling each
    state with a string, as an explicit model checker does."""
    start = (0, 0, 0)
    seen = {start: "s0"}
    frontier = [start]
    edges = 0
    while frontier and len(seen) < _STATES:
        nxt = []
        for state in frontier:
            for succ in _successors(state):
                edges += 1
                if succ not in seen:
                    seen[succ] = "s{}:{}".format(len(seen), "-".join(map(str, succ)))
                    nxt.append(succ)
        frontier = nxt
    return edges + len(set(seen.values()))


class Stopwatch:
    """Unscaled thread CPU time, for passes whose times are not reported."""

    def measure(self, fn) -> Tuple[object, float]:
        c0 = time.thread_time()
        result = fn()
        return result, time.thread_time() - c0


class Speedometer:
    """Samples the reference kernel during the items it measures.

    Use it as a context manager around the timed loop and call
    :meth:`measure` per item; it owns ``SIGPROF`` and ``ITIMER_PROF``
    while open."""

    def __init__(self) -> None:
        self.kernel_s: List[float] = []   # each sample's kernel CPU time
        self.spent: List[float] = [0.0]   # prefix sums of handler CPU time
        self.raw_s = 0.0                  # unscaled item CPU time measured
        self._busy = False

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:  # a tick that lands inside the handler is dropped
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()  # no collection of the program's garbage in the kernel
        try:
            t0 = time.thread_time()
            _kernel()
            t1 = time.thread_time()
            self.kernel_s.append(t1 - t0)
        finally:
            if collecting:
                gc.enable()
            self.spent.append(self.spent[-1] + time.thread_time() - t0)
            self._busy = False

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        for _ in range(MIN_SAMPLES):
            self._sample()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def measure(self, fn) -> Tuple[object, float]:
        """Run ``fn()``; return its result and its scaled CPU seconds."""
        i0 = len(self.kernel_s)
        c0 = time.thread_time()
        result = fn()
        c1 = time.thread_time()
        i1 = len(self.kernel_s)
        cpu = (c1 - c0) - (self.spent[i1] - self.spent[i0])
        self.raw_s += cpu
        window = self.kernel_s[min(i0, i1 - MIN_SAMPLES):i1]
        return result, cpu * REFERENCE_S / statistics.fmean(window)

    @property
    def speed(self) -> float:
        """Median kernel time over reference: above 1 on a slower machine."""
        return statistics.median(self.kernel_s) / REFERENCE_S
