"""The stage measurement driver and the measurement records.

:func:`run_stage` wraps :class:`~repro.simulator.engine.SimulationEngine`
and returns the records the rest of the library consumes: the makespan
(the "exp" bar of Figs. 7-12), per-task-group average times (``t_avg``),
byte totals per direction, and iostat request-size samples.
:func:`repro.workloads.runner.measure_workload` drives whole
applications.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import reduce

from repro.cluster.cluster import Cluster
from repro.cluster.network import NetworkModel
from repro.errors import SimulationError
from repro.faults.plan import FaultPlan
from repro.resilience import ResiliencePolicy, StageResilience
from repro.simulator.engine import SimulationEngine
from repro.simulator.task import SimTask
from repro.storage.iostat import IostatCollector, IostatSample


@dataclass(frozen=True)
class StageMeasurement:
    """What one simulated stage run produced.

    Attributes
    ----------
    name:
        Stage label.
    nodes, cores_per_node:
        The operating point ``(N, P)``.
    makespan:
        Wall-clock seconds from first launch to last finish.
    num_tasks:
        ``M``.
    task_avg_seconds:
        Mean task duration per task group (e.g. GATK4's BR stage has a
        ``"shuffle"`` and an ``"hdfs_scan"`` group).
    first_finish_seconds:
        When the earliest task finished — an estimate of the pipeline
        latency ``t_lat``.
    read_bytes / write_bytes:
        Total bytes moved, per direction, across all tasks.
    iostat_samples:
        Request statistics per (device, direction) observed during the run.
    """

    name: str
    nodes: int
    cores_per_node: int
    makespan: float
    num_tasks: int
    task_avg_seconds: dict[str, float]
    task_counts: dict[str, int]
    first_finish_seconds: float
    read_bytes: float
    write_bytes: float
    iostat_samples: tuple[IostatSample, ...] = field(default=())
    #: Mean per-task JVM GC stall — the task metric the GC-aware profiler
    #: consumes (zero for GC-free workload specs).
    avg_gc_seconds: float = 0.0
    #: Fraction of core-time occupied by tasks over the makespan.
    core_utilization: float = 0.0
    #: (resource name, is_write, busy fraction) per contended resource
    #: direction — devices and, when a network is configured, NICs.
    device_utilizations: tuple[tuple[str, bool, float], ...] = ()
    #: What the mitigations did, when the stage ran under a
    #: :class:`~repro.resilience.ResiliencePolicy` (``None`` otherwise).
    resilience: StageResilience | None = None

    @property
    def t_avg(self) -> float:
        """Mean task duration across all tasks (group means weighted by count)."""
        if not self.task_avg_seconds:
            raise SimulationError(f"stage {self.name} measured no tasks")
        total_time = sum(
            self.task_avg_seconds[group] * self.task_counts[group]
            for group in self.task_avg_seconds
        )
        return total_time / sum(self.task_counts.values())

    def group_t_avg(self, group: str) -> float:
        """Mean task duration of one group."""
        try:
            return self.task_avg_seconds[group]
        except KeyError:
            raise SimulationError(
                f"stage {self.name} has no task group {group!r};"
                f" groups: {sorted(self.task_avg_seconds)}"
            ) from None


@dataclass(frozen=True)
class ApplicationMeasurement:
    """Measurements of a full application: stages run back to back."""

    name: str
    stages: tuple[StageMeasurement, ...]

    @property
    def total_seconds(self) -> float:
        """Sum of stage makespans — the application runtime.

        A left fold in stage order, as in
        :attr:`~repro.core.app_model.ApplicationPrediction.t_app`, so the
        total does not depend on the Python version's ``sum()``.
        """
        return reduce(operator.add, (stage.makespan for stage in self.stages), 0)

    def stage(self, name: str) -> StageMeasurement:
        """Look up one stage measurement by name."""
        for measurement in self.stages:
            if measurement.name == name:
                return measurement
        raise SimulationError(f"{self.name}: no measured stage named {name!r}")


def busy_fractions(
    busy_seconds: Mapping[tuple[str, bool], float], makespan: float
) -> tuple[tuple[str, bool, float], ...]:
    """``(resource name, is_write, busy / makespan)`` per busy direction,
    sorted; empty for a zero makespan."""
    if not makespan > 0:
        return ()
    return tuple(
        (name, is_write, busy / makespan)
        for (name, is_write), busy in sorted(busy_seconds.items())
    )


def record_stage(
    name: str,
    tasks: Sequence[SimTask],
    nodes: int,
    cores_per_node: int,
    makespan: float,
    iostat: IostatCollector,
    core_seconds: float,
    start: float = 0.0,
    device_utilizations: tuple[tuple[str, bool, float], ...] = (),
    resilience: StageResilience | None = None,
) -> StageMeasurement:
    """The measurement record of a stage whose ``tasks`` have all run.

    The stage ran from ``start`` (on the engine's clock) for ``makespan``
    seconds, its tasks occupying ``core_seconds`` of core time; ``iostat``
    holds the requests of its I/O phases.
    """
    durations_by_group: dict[str, list[float]] = defaultdict(list)
    for task in tasks:
        durations_by_group[task.group].append(task.duration)
    samples = []
    for device_name in iostat.devices():
        for is_write in (False, True):
            sample = iostat.sample(device_name, is_write)
            if sample.num_requests > 0:
                samples.append(sample)
    capacity = makespan * nodes * cores_per_node
    return StageMeasurement(
        name=name,
        nodes=nodes,
        cores_per_node=cores_per_node,
        makespan=makespan,
        num_tasks=len(tasks),
        task_avg_seconds={
            group: sum(values) / len(values)
            for group, values in durations_by_group.items()
        },
        task_counts={
            group: len(values) for group, values in durations_by_group.items()
        },
        first_finish_seconds=(
            min((t.finish_time for t in tasks), default=start) - start
        ),
        read_bytes=sum(t.io_bytes(is_write=False) for t in tasks),
        write_bytes=sum(t.io_bytes(is_write=True) for t in tasks),
        iostat_samples=tuple(samples),
        avg_gc_seconds=(
            sum(t.gc_seconds for t in tasks) / len(tasks) if tasks else 0.0
        ),
        core_utilization=core_seconds / capacity if makespan > 0 else 0.0,
        device_utilizations=device_utilizations,
        resilience=resilience,
    )


def run_stage(
    cluster: Cluster,
    cores_per_node: int,
    tasks: list[SimTask],
    name: str = "stage",
    network: NetworkModel | None = None,
    faults: FaultPlan | None = None,
    resilience: ResiliencePolicy | None = None,
) -> StageMeasurement:
    """Simulate one stage and collect its measurement record.

    ``network`` switches the engine from the paper's infinite-wire default
    to finite NIC links (shuffle reads then contend on the network too).
    ``faults`` superimposes a :class:`~repro.faults.plan.FaultPlan`; fault
    times are relative to this stage's start.  ``resilience`` arms the
    recovery mechanisms (speculation, retry/backoff, blacklisting) and
    fills the measurement's ``resilience`` record.
    """
    iostat = IostatCollector()
    engine = SimulationEngine(
        cluster, cores_per_node, iostat=iostat, network=network, faults=faults,
        resilience=resilience, stage_name=name,
    )
    makespan = engine.run(tasks)
    return record_stage(
        name,
        tasks,
        nodes=cluster.num_slaves,
        cores_per_node=cores_per_node,
        makespan=makespan,
        iostat=iostat,
        core_seconds=engine.core_busy_seconds,
        device_utilizations=busy_fractions(engine.device_busy_seconds, makespan),
        resilience=engine.resilience_summary(),
    )
