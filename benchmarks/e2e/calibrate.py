"""A probe of this host's speed, run between the program's own steps.

A shared virtual machine slows down and speeds up by as much as 2x, in
spells from under a second to minutes long, and every wall time moves
with it.  A ``Meter`` therefore runs a small fixed workload, the probe,
every ``PERIOD_S`` seconds from a ``SIGALRM`` handler, in the same
thread as the work being timed.  The probes interleave with that work,
so they see the speed it ran at.  A time is rescaled to reference speed
by multiplying it by ``REFERENCE_S`` over the mean probe time: it then
reads in seconds on a host where one probe takes ``REFERENCE_S``.

The probe is plain Python that imports nothing from the program, so a
change to the program moves the rescaled times and never the probe.  It
mixes the kinds of work the program does: dict updates, a heap of float
keys, attribute-heavy objects and a JSON round trip.  The probes take
about 3% of the timed work's CPU; the times include them.

A probe is timed in thread CPU time.  The host's slow spells slow CPU
time as much as wall time, but CPU time leaves out the waits that
depend on what else the process runs: for the GIL while the server's
compute thread holds it, or for a CPU while sweep-cache's pool workers
hold both.
"""

from __future__ import annotations

import heapq
import json
import random
import signal
import time

#: How often a running meter probes.
PERIOD_S = 0.05
#: One probe's time on a calm 2-vCPU host: the speed times are rescaled to.
REFERENCE_S = 0.0015


class _Task:
    __slots__ = ("size", "rate", "done")

    def __init__(self, size: float, rate: float) -> None:
        self.size = size
        self.rate = rate
        self.done = 0.0

    def advance(self, dt: float) -> float:
        self.done = min(self.size, self.done + self.rate * dt)
        return self.size - self.done


_DOCUMENT = {
    "records": [
        {"key": f"k{i}", "value": i * 0.1, "stages": [[f"s{j}", j * 1.5] for j in range(4)]}
        for i in range(20)
    ]
}


def probe() -> None:
    """The fixed workload whose time tracks the host's speed."""
    counts: dict[int, int] = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    rng = random.Random(7)
    events: list[tuple[float, int]] = []
    for i in range(800):
        heapq.heappush(events, (rng.random(), i))
    while events:
        heapq.heappop(events)
    tasks = [_Task(rng.uniform(1, 10), rng.uniform(0.5, 2)) for _ in range(50)]
    for _ in range(12):
        for task in tasks:
            task.advance(0.05)
    json.loads(json.dumps(_DOCUMENT))


class Meter:
    """Probes every ``PERIOD_S`` while started, in the main thread.

    ``probe_s`` and ``probes`` total the probes run so far.
    """

    def __init__(self) -> None:
        self.probe_s = 0.0
        self.probes = 0
        self._busy = False
        self._previous = None

    def _fire(self, signum, frame) -> None:
        if self._busy:  # a signal that arrived during a probe on a slow host
            return
        self._busy = True
        start = time.thread_time()
        probe()
        self.probe_s += time.thread_time() - start
        self.probes += 1
        self._busy = False

    def start(self) -> Meter:
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reading(self) -> dict:
        return {"probe_s": self.probe_s, "probes": self.probes}


def rescale(seconds: float, probe_s: float, probes: int) -> float:
    """``seconds`` at reference speed, given the probes run alongside."""
    return seconds * REFERENCE_S * probes / probe_s
