"""Task and phase descriptions for the simulator.

A simulated task mirrors a Spark task: it occupies one executor core from
launch to finish and proceeds through an ordered list of phases — I/O
phases (which also contend on a storage device) and compute phases (which
only hold the core).  A typical shuffle-stage task is::

    [IoPhase(read shuffle segment), ComputePhase(cpu work), IoPhase(write output)]

Phases reference a device *role* (``"hdfs"`` or ``"local"``); the engine
resolves the role to the concrete device of whichever node the task lands
on.

All three are slotted records, with no ``__dict__``: a paper-scale stage
build makes tens of thousands of them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.errors import SimulationError

_task_ids = itertools.count()


@dataclass(frozen=True, slots=True)
class IoPhase:
    """An I/O phase: move ``total_bytes`` at ``request_size`` blocks.

    Attributes
    ----------
    role:
        ``"hdfs"`` or ``"local"`` — resolved per node.
    total_bytes:
        Bytes this task moves in the phase.
    request_size:
        Block size of the requests (selects the device's effective
        bandwidth).
    is_write:
        Direction.
    per_stream_cap:
        The software-path throughput cap ``T`` (bytes/s); ``None`` = only
        the device limits the stream.
    via_network:
        True for phases whose data partly lives on *other* nodes (shuffle
        reads).  When the engine runs with a finite network model, such a
        phase is split into a local-disk stream and a remote stream that
        also crosses the node's NIC; with no network configured (the
        default) the flag has no effect.
    """

    role: str
    total_bytes: float
    request_size: float
    is_write: bool
    per_stream_cap: float | None = None
    via_network: bool = False

    def __post_init__(self) -> None:
        if self.role not in ("hdfs", "local"):
            raise SimulationError(f"unknown device role: {self.role!r}")
        if self.total_bytes < 0:
            raise SimulationError("I/O phase bytes must be non-negative")
        if self.request_size <= 0:
            raise SimulationError("I/O phase request size must be positive")
        if self.per_stream_cap is not None and self.per_stream_cap <= 0:
            raise SimulationError("per-stream cap must be positive when set")


@dataclass(frozen=True, slots=True)
class ComputePhase:
    """A pure-CPU phase of fixed duration (the core is already held)."""

    seconds: float

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise SimulationError("compute phase duration must be non-negative")


TaskPhase = IoPhase | ComputePhase


@dataclass(slots=True)
class SimTask:
    """One schedulable task: an ordered list of phases.

    ``group`` labels the task kind within a stage (e.g. ``"shuffle"`` vs.
    ``"hdfs_scan"`` in GATK4's BR stage) for per-group statistics.  The
    stage builder passes ``(phases, group, gc_seconds)`` positionally;
    ``task_id`` is drawn from the process-wide counter at construction.
    """

    phases: tuple[TaskPhase, ...]
    group: str = "default"
    #: JVM GC stall seconds folded into this task's compute phases — the
    #: "task metric" real Spark exposes, used by the GC-aware profiler.
    gc_seconds: float = 0.0
    task_id: int = field(default_factory=lambda: next(_task_ids))
    # Filled by the engine:
    start_time: float = field(default=-1.0)
    finish_time: float = field(default=-1.0)

    def __post_init__(self) -> None:
        if not self.phases:
            raise SimulationError("a task needs at least one phase")

    @property
    def duration(self) -> float:
        """Measured task time (valid after the engine ran it)."""
        if self.start_time < 0 or self.finish_time < 0:
            raise SimulationError(f"task {self.task_id} has not completed")
        return self.finish_time - self.start_time

    def io_bytes(self, is_write: bool | None = None) -> float:
        """Total bytes moved by this task's I/O phases (optionally one direction)."""
        total = 0.0
        for phase in self.phases:
            if isinstance(phase, IoPhase):
                if is_write is None or phase.is_write == is_write:
                    total += phase.total_bytes
        return total

    def compute_seconds(self) -> float:
        """Total CPU time in this task's compute phases."""
        return sum(p.seconds for p in self.phases if isinstance(p, ComputePhase))
