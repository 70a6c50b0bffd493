"""Break-point theory: ``b = BW / T`` and ``B = lambda * b`` (Section IV-B).

With ``P`` executor cores per node, a stage passes through three execution
phases as ``P`` grows (Fig. 6):

1. ``P <= b`` — no I/O contention; runtime is ``M/(N*P) * t_avg``.
2. ``b < P <= lambda*b`` — cores contend for bandwidth but the CPU
   computation of other tasks hides the queueing; the runtime formula is
   unchanged (plus an initial pipeline latency).
3. ``P > lambda*b`` — I/O is the bottleneck; runtime is ``D/(N*BW)`` and
   adding cores no longer helps.

These helpers compute the two thresholds and classify an operating point.
The numbers quoted in Section V-A (HDFS read b = 4.3 on HDD and 16 on SSD;
shuffle read b = 8 and B = 160 on SSD; b = 1, lambda = 5, B = 5 on HDD) are
reproduced by the Section V-A benchmark.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ModelError


class ExecutionPhase(enum.Enum):
    """Which of Fig. 6's three regimes a ``(P, b, B)`` operating point is in."""

    NO_CONTENTION = "no_contention"
    """``P <= b``: I/O proceeds at full per-core throughput."""

    CONTENTION_HIDDEN = "contention_hidden"
    """``b < P <= B``: contention exists but computation hides it."""

    IO_BOUND = "io_bound"
    """``P > B``: the stage is limited by ``D / (N * BW)``."""


def break_point(bandwidth: float, per_core_throughput: float) -> float:
    """``b = BW / T``: cores that saturate the device.

    ``bandwidth`` is the effective device bandwidth at the operation's
    request size; ``per_core_throughput`` is ``T``, what a single
    uncontended core achieves (including its software path).
    """
    if bandwidth <= 0:
        raise ModelError(f"bandwidth must be positive, got {bandwidth}")
    if per_core_throughput <= 0:
        raise ModelError(
            f"per-core throughput must be positive, got {per_core_throughput}"
        )
    return bandwidth / per_core_throughput


def turning_point(bandwidth: float, per_core_throughput: float, lam: float) -> float:
    """``B = lambda * b``: cores past which I/O is the hard bottleneck.

    ``lam`` is the ratio of total task time to its I/O time; it must be at
    least 1 (a task cannot spend more than all of its time on I/O).
    """
    if lam < 1.0:
        raise ModelError(f"lambda is total/I-O time and must be >= 1, got {lam}")
    return lam * break_point(bandwidth, per_core_throughput)


def classify_phase(cores: float, b: float, big_b: float) -> ExecutionPhase:
    """Classify an operating point into one of Fig. 6's three phases."""
    if cores <= 0:
        raise ModelError(f"core count must be positive, got {cores}")
    if b <= 0 or big_b < b:
        raise ModelError(f"need 0 < b <= B, got b={b}, B={big_b}")
    if cores <= b:
        return ExecutionPhase.NO_CONTENTION
    if cores <= big_b:
        return ExecutionPhase.CONTENTION_HIDDEN
    return ExecutionPhase.IO_BOUND


@dataclass(frozen=True)
class BreakPointAnalysis:
    """A stage/channel break-point summary, as quoted throughout Section V-A.

    Attributes
    ----------
    per_core_throughput:
        ``T`` in bytes/s.
    bandwidth:
        ``BW`` in bytes/s at the channel's request size.
    lam:
        ``lambda``, total-task-time / I/O-time (>= 1).
    """

    per_core_throughput: float
    bandwidth: float
    lam: float

    @property
    def b(self) -> float:
        """Break point in cores."""
        return break_point(self.bandwidth, self.per_core_throughput)

    @property
    def big_b(self) -> float:
        """Turning point ``B = lambda * b`` in cores."""
        return turning_point(self.bandwidth, self.per_core_throughput, self.lam)

    def phase(self, cores: float) -> ExecutionPhase:
        """Which regime ``cores`` executor cores per node fall into."""
        return classify_phase(cores, self.b, self.big_b)

    def scales_with_cores(self, cores: float) -> bool:
        """True when adding cores at this point still reduces runtime."""
        return self.phase(cores) is not ExecutionPhase.IO_BOUND
