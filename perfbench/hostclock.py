"""Command times scaled to a host of fixed speed.

On a few cores of a shared host the speed of the cores the benchmark runs on
changes with the load of other tenants, within a second: the same
``gen-data`` command took 0.29 s in one second and 0.54 s a few seconds
later, and medians over 30 s windows spread by 20 % (quartile distance over
the median). A wall-clock rate measures that load as much as the program.

``HostClock`` samples the host's speed with a fixed probe, a short loop that
uses no nettwin code: a few probes right before and right after a command,
and one probe every ``PERIOD_S`` while the command runs (from a SIGALRM
handler, which Python runs between bytecodes of the main thread). The
command's time is its wall time less the probes it ran, times
``PROBE_NOMINAL_S`` over the probes' mean time, raised to ``PROBE_EXPONENT``.
A scaled second is thus a second on a host on which the probe takes
``PROBE_NOMINAL_S``. A change to nettwin moves the command's time and not
the probe's, so it moves the scaled time in full.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import signal
import statistics
import time
from typing import Iterator

import numpy as np

#: iterations of one probe, about 0.5 ms on an unloaded core of the host the
#: benchmark was tuned on
PROBE_ITERS = 500

#: nominal probe seconds, those of that host under a moderate load; it only
#: sets the scale of the scaled seconds
PROBE_NOMINAL_S = 0.0008

#: how a command's wall time follows the probe's time when the host slows:
#: over identical commands, log wall time against log probe time had slopes
#: of 0.90 (gen-data), 0.78 (manage-*) and 0.76 (train, eval), and across
#: runs the gen-data rate gained 9 % with exponent 1 when the probe took 1.66
#: times as long; the probe slows a little more than the commands do
PROBE_EXPONENT = 0.85

#: probes run right before and right after each command
BRACKET_PROBES = 8

#: seconds between probes while a command runs (about 5 % of its time)
PERIOD_S = 0.02


class _Node:
    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: float):
        self.key = key
        self.weight = weight


_NODES = [_Node(k, 0.5 * k) for k in range(256)]
_A = np.linspace(0.0, 1.0, 320).reshape(10, 32)
_W = np.linspace(-1.0, 1.0, 1024).reshape(32, 32)


def probe() -> float:
    """Run the fixed probe work; return its wall seconds.

    The work is what the simulator's event loop and the twin's tape spend
    their time on: a heap of tuples, dict updates, attribute reads on small
    objects, float arithmetic, list appends and small matrix products. The
    cyclic garbage collector is off while it runs: a collection would walk
    the program's objects, and tie the probe's time to the program's heap.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _probe_work()
    finally:
        if collecting:
            gc.enable()


def _probe_work() -> float:
    t0 = time.perf_counter()
    heap: list[tuple[float, int]] = []
    table: dict[int, float] = {}
    trail: list[float] = []
    acc = 0.0
    for i in range(PROBE_ITERS):
        node = _NODES[i & 255]
        heapq.heappush(heap, ((i * 7919) % 10007 + node.weight, i))
        table[node.key] = table.get(node.key, 0.0) + node.weight * 1.5
        acc += (i % 13) * 0.25 - node.weight * 1e-3
        if i % 3 == 0:
            trail.append(heapq.heappop(heap)[0])
        if i % 50 == 0:
            acc += float(np.tanh(_A @ _W).sum()) * 1e-6
    while heap:
        acc += heapq.heappop(heap)[0] * 1e-9
    if acc != acc or len(trail) != (PROBE_ITERS + 2) // 3:  # keeps the work live
        raise AssertionError("probe")
    return time.perf_counter() - t0


class HostClock:
    """Times commands in scaled seconds; see the module docstring."""

    def __init__(self) -> None:
        for _ in range(4 * BRACKET_PROBES):  # warm-up
            probe()
        self.sampling = True
        #: per command: (wall s less probes, mean probe s)
        self.samples: list[tuple[float, float]] = []

    @contextlib.contextmanager
    def measure(self) -> Iterator[list[float]]:
        """Time the ``with`` body; the scaled seconds are appended to the list yielded."""
        out: list[float] = []
        probes = [probe() for _ in range(BRACKET_PROBES)]
        inside: list[float] = []

        def on_alarm(signum, frame) -> None:
            inside.append(probe())

        previous = signal.signal(signal.SIGALRM, on_alarm) if self.sampling else None
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = time.perf_counter()
        try:
            yield out
        finally:
            wall = time.perf_counter() - t0
            if self.sampling:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
        wall -= sum(inside)
        probes += inside + [probe() for _ in range(BRACKET_PROBES)]
        ref = statistics.fmean(probes)
        self.samples.append((wall, ref))
        out.append(wall * (PROBE_NOMINAL_S / ref) ** PROBE_EXPONENT)
