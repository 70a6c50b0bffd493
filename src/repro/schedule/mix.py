"""Multi-job simulation: K workloads sharing one cluster's resources.

Everything else in the library runs one job alone on the cluster; this
module runs a *mix*.  Jobs arrive at given times, their stages submit
tasks onto the shared executor :class:`~repro.resources.SlotPool`s, and
their I/O streams land on the very same HDFS-disk, local-disk, and NIC
resources — so co-located stages contend under the engine's max-min
filling and genuinely slow each other down.  Nothing about contention is
re-modeled here: :class:`MixEngine` runs the single-job
:class:`~repro.simulator.engine.SimulationEngine`'s event loop, launch
scan, phase transitions and node-death requeue, and adds only

- admission: one heap event per job arrival;
- a per-node multi-queue with fifo/fair picking (the engine's
  ``_next_task``, ``_queue_task`` and ``_take_queued`` hooks);
- per-job stage barriers (the ``_task_done`` hook);
- per-job core-time and iostat accounting.

Scheduling policies
-------------------
``"fifo"``
    Earliest-arrived job with pending work on a node launches first
    (ties broken by job name); a long job can head-of-line block.
``"fair"``
    The job with the fewest running tasks cluster-wide launches first —
    a slot-level fair share, like Spark's fair scheduler pools.

Jobs are canonicalized by ``(arrival, name)`` before anything runs, so a
permutation of the submitted list cannot change the schedule — the
arrival-order invariance the property suite pins down.  Duplicate names
are disambiguated ``name``, ``name#2``, ... in canonical order.

Semantics worth knowing:

- **Stage barriers are per job.**  A job's next stage (or next iteration
  of a ``repeat`` stage) submits at the instant its previous one drains,
  exactly like the solo path — but other jobs' stages overlap freely.
- **Iterative stages run honestly.**  The solo path simulates one
  iteration and multiplies by ``repeat``; under contention the
  iterations land in different cluster states, so the mix engine runs
  each one.  For a lone job the two agree to float round-off.
- **Faults compose.**  A :class:`~repro.faults.plan.FaultPlan` is
  anchored to the *mix* clock (t = 0 at the first arrival's epoch), not
  re-armed per stage like the solo path — a disk throttle window hits
  whatever stages of whatever jobs overlap it.
- **No resilience policies.**  Speculation/retry are solo-engine
  features; mixes model the contention story.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

from repro.cluster.cluster import Cluster
from repro.cluster.network import NetworkModel
from repro.cluster.node import Node
from repro.errors import SimulationError
from repro.faults.plan import FaultPlan
from repro.schedule.scheduler import SchedulingError
from repro.simulator.engine import SimulationEngine, _position, _Running
from repro.simulator.run import (
    ApplicationMeasurement,
    StageMeasurement,
    busy_fractions,
    record_stage,
)
from repro.simulator.task import SimTask
from repro.storage.iostat import IostatCollector
from repro.workloads.base import WorkloadSpec, scale_workload_volume

#: Scheduling policies a mix accepts.
MIX_POLICIES = ("fifo", "fair")

#: Heap entry kind for job admission (the engine owns kinds 0-5).
_EV_ARRIVAL = 6

#: The jitter-offset stride solo runs use per ``run_index`` (1 - golden
#: ratio); mixes reuse it so a mixed job sees the same task skew as its
#: solo baseline.
_JITTER_STRIDE = 0.381966011


@dataclass(frozen=True)
class MixJob:
    """One workload submitted to a mix.

    ``volume_scale`` scales the job's data volume before anything runs
    (see :func:`~repro.workloads.base.scale_workload_volume`); ``name``
    defaults to the spec's name and labels the job in every report.
    """

    spec: WorkloadSpec
    arrival: float = 0.0
    volume_scale: float = 1.0
    name: str | None = None

    def __post_init__(self) -> None:
        if self.name is not None and not isinstance(self.name, str):
            raise SchedulingError(
                f"job {self.spec.name}: name must be a string,"
                f" got {self.name!r}"
            )
        if not math.isfinite(self.arrival) or self.arrival < 0:
            raise SchedulingError(
                f"job {self.display_name}: arrival must be finite and >= 0,"
                f" got {self.arrival}"
            )
        if not math.isfinite(self.volume_scale) or self.volume_scale <= 0:
            raise SchedulingError(
                f"job {self.display_name}: volume_scale must be finite and > 0,"
                f" got {self.volume_scale}"
            )

    @property
    def display_name(self) -> str:
        return self.name if self.name is not None else self.spec.name


def check_mix_policy(policy: str) -> None:
    """Raise :class:`SchedulingError` unless ``policy`` is in :data:`MIX_POLICIES`."""
    if policy not in MIX_POLICIES:
        raise SchedulingError(
            f"unknown mix policy {policy!r}; expected one of {MIX_POLICIES}"
        )


def canonical_jobs(jobs: Sequence[MixJob]) -> list[tuple[str, MixJob]]:
    """The mix's canonical ``(name, job)`` sequence.

    Jobs are ordered by ``(arrival, name)`` with the input position only
    as the final tie-break, and duplicate display names are suffixed
    ``#2``, ``#3``, ... in that order.  Both :class:`MixEngine` and the
    pipeline's report composition go through this one function, so the
    names in a :class:`MixMeasurement` always match the pipeline's
    job-to-baseline mapping.
    """
    order = sorted(
        range(len(jobs)),
        key=lambda i: (jobs[i].arrival, jobs[i].display_name, i),
    )
    named: list[tuple[str, MixJob]] = []
    seen: dict[str, int] = {}
    for position in order:
        job = jobs[position]
        base = job.display_name
        count = seen.get(base, 0) + 1
        seen[base] = count
        named.append((base if count == 1 else f"{base}#{count}", job))
    return named


@dataclass(frozen=True)
class JobTimeline:
    """One job's realized schedule inside a mix, on the mix clock."""

    name: str
    arrival: float
    volume_scale: float
    #: When the job's first task got a core (== ``arrival`` on an idle
    #: cluster; later when admission found every slot taken).
    first_launch: float
    finish: float
    measurement: ApplicationMeasurement

    @property
    def waiting(self) -> float:
        """Seconds between arrival and the first task launch."""
        return self.first_launch - self.arrival

    @property
    def turnaround(self) -> float:
        """Seconds between arrival and the last task finish."""
        return self.finish - self.arrival


@dataclass(frozen=True)
class MixMeasurement:
    """What one simulated mix produced: per-job measurements + timelines.

    ``jobs`` is in canonical ``(arrival, name)`` order.  Per-job stage
    measurements attribute task times, byte totals, iostat samples, and
    core occupancy to their job; *device* busy time is genuinely shared
    and only reported cluster-wide (``device_utilizations``).
    """

    policy: str
    nodes: int
    cores_per_node: int
    #: Last task finish on the mix clock (t = 0 at the earliest epoch).
    makespan: float
    jobs: tuple[JobTimeline, ...]
    #: (resource name, is_write, busy fraction of the makespan) for every
    #: contended device direction — the cluster-level interference view.
    device_utilizations: tuple[tuple[str, bool, float], ...] = ()

    def job(self, name: str) -> JobTimeline:
        """Look up one job's timeline by its (disambiguated) name."""
        for timeline in self.jobs:
            if timeline.name == name:
                return timeline
        raise SchedulingError(
            f"mix has no job named {name!r};"
            f" jobs: {[t.name for t in self.jobs]}"
        )


class _Job:
    """Mutable per-job engine state; ``epoch`` 0 keeps arrival heap
    entries valid forever (the heap's staleness check is trivially met)."""

    epoch = 0

    def __init__(
        self, index: int, name: str, spec: WorkloadSpec,
        arrival: float, volume_scale: float,
    ) -> None:
        self.index = index
        self.name = name
        self.spec = spec
        self.arrival = arrival
        self.volume_scale = volume_scale
        self.done = False
        self.stage_index = 0
        self.iteration = 0
        self.stage_start = 0.0
        self.stage_tasks: list[SimTask] = []
        self.iteration_remaining = 0
        self.num_running = 0
        self.core_busy = 0.0
        self.stage_core_anchor = 0.0
        self.iostat = IostatCollector()
        self.first_launch = -1.0
        self.finish = -1.0
        self.stages: list[StageMeasurement] = []


class MixEngine(SimulationEngine):
    """The single-job event loop, extended with admission and a per-node
    multi-queue.  All contention flows through the inherited resources.

    :meth:`run_mix` runs the jobs and :meth:`measurement` reports the
    run; each :meth:`run_mix` starts the jobs afresh.
    """

    _unit = "job"

    def __init__(
        self,
        cluster: Cluster,
        cores_per_node: int,
        jobs: Sequence[MixJob],
        policy: str = "fair",
        run_index: int = 0,
        network: NetworkModel | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        check_mix_policy(policy)
        if not jobs:
            raise SchedulingError("a mix needs at least one job")
        self.policy = policy
        self.run_index = run_index
        self._jitter_offset = run_index * _JITTER_STRIDE
        # Canonical admission order: (arrival, name), input order only as
        # the final tie-break — so permuting the submitted list cannot
        # change the schedule (exactly, when (arrival, name) pairs are
        # unique; duplicates of the *same* job are symmetric anyway).
        self._submitted = [
            (name, scale_workload_volume(job.spec, job.volume_scale), job)
            for name, job in canonical_jobs(jobs)
        ]
        super().__init__(cluster, cores_per_node, network=network, faults=faults)

    def _reset(self) -> None:
        """The engine's per-run reset, plus fresh job states and queues."""
        super()._reset()
        self._jobs: list[_Job] = [
            _Job(
                index=index,
                name=name,
                spec=spec,
                arrival=job.arrival,
                volume_scale=job.volume_scale,
            )
            for index, (name, spec, job) in enumerate(self._submitted)
        ]
        #: task_id -> owning job, filled at stage submission.
        self._task_job: dict[int, _Job] = {}
        #: node name -> {job index -> FIFO deque} — the multi-queue.
        self._queues: dict[str, dict[int, deque[SimTask]]] = {
            node.name: {} for node in self.cluster.slaves
        }

    def run_mix(self) -> float:
        """Admit and execute every job; returns the mix makespan."""
        self._reset()
        self._unfinished = len(self._jobs)
        for job in self._jobs:  # canonical order -> deterministic sequence
            heapq.heappush(
                self._heap, (job.arrival, next(self._seq), _EV_ARRIVAL, job, 0)
            )
        return self._loop()

    def measurement(self, makespan: float) -> MixMeasurement:
        """The :class:`MixMeasurement` of a completed :meth:`run_mix`."""
        timelines = []
        for job in self._jobs:
            if not job.done:
                raise SimulationError(f"job {job.name} did not finish")
            timelines.append(
                JobTimeline(
                    name=job.name,
                    arrival=job.arrival,
                    volume_scale=job.volume_scale,
                    first_launch=job.first_launch,
                    finish=job.finish,
                    measurement=ApplicationMeasurement(
                        name=job.name, stages=tuple(job.stages)
                    ),
                )
            )
        return MixMeasurement(
            policy=self.policy,
            nodes=self.cluster.num_slaves,
            cores_per_node=self.cores_per_node,
            makespan=makespan,
            jobs=tuple(timelines),
            device_utilizations=busy_fractions(
                self.device_busy_seconds, makespan
            ),
        )

    # -- admission and stage submission ------------------------------------

    def _process_entry(self, entry: tuple, now: float) -> None:
        if entry[2] == _EV_ARRIVAL:
            self._submit_iteration(entry[3], now)
        else:
            super()._process_entry(entry, now)

    def _submit_iteration(self, job: _Job, now: float) -> None:
        """Queue one iteration of the job's current stage onto live nodes."""
        stage = job.spec.stages[job.stage_index]
        if job.iteration == 0:
            job.stage_start = now
            job.stage_tasks = []
            job.stage_core_anchor = job.core_busy
            job.iostat = IostatCollector()
        tasks = stage.build_tasks(
            cores_per_node=self.cores_per_node,
            jitter_offset=self._jitter_offset,
        )
        targets = [
            node for node in self.cluster.slaves
            if node.name not in self._dead_nodes
        ]
        if not targets:
            raise SimulationError(
                f"no live nodes to run job {job.name} stage {stage.name}"
            )
        job.iteration_remaining = len(tasks)
        job.stage_tasks.extend(tasks)
        for index, task in enumerate(tasks):
            self._task_job[task.task_id] = job
            self._queue_task(task, targets[index % len(targets)])
        self._freed_nodes.update(node.name for node in targets)

    # -- the multi-queue ---------------------------------------------------

    def _pick_job(self, queues: dict[int, deque[SimTask]]) -> _Job | None:
        """The scheduling policy: which queued job launches next here."""
        best: _Job | None = None
        for job in self._jobs:  # canonical (arrival, name) order
            if not queues.get(job.index):
                continue
            if self.policy == "fifo":
                return job
            if best is None or job.num_running < best.num_running:
                best = job
        return best

    def _next_task(self, node: Node, now: float) -> SimTask | None:
        """The head of the picked job's queue here; the launch counts
        toward that job's running tasks."""
        queues = self._queues[node.name]
        job = self._pick_job(queues)
        if job is None:
            return None
        task = queues[job.index].popleft()
        if not queues[job.index]:
            del queues[job.index]
        job.num_running += 1
        if job.first_launch < 0:
            job.first_launch = now
        return task

    def _queue_task(self, task: SimTask, node: Node) -> None:
        job = self._task_job[task.task_id]
        self._queues[node.name].setdefault(job.index, deque()).append(task)

    def _take_queued(self, name: str) -> list[SimTask]:
        queues = self._queues[name]
        tasks = [task for index in sorted(queues) for task in queues[index]]
        queues.clear()
        return tasks

    def _task_label(self, task: SimTask) -> str:
        job = self._task_job[task.task_id]
        return f"job {job.name} task {_position(job.stage_tasks, task)}"

    # -- per-job barriers and accounting -----------------------------------

    def _task_done(self, running: _Running, now: float) -> None:
        """Advance the job's barrier: next iteration, next stage, or done."""
        job = self._task_job[running.task.task_id]
        job.num_running -= 1
        job.iteration_remaining -= 1
        if job.iteration_remaining > 0:
            return
        stage = job.spec.stages[job.stage_index]
        job.iteration += 1
        if job.iteration < stage.repeat:
            self._submit_iteration(job, now)
            return
        self._finish_stage(job, stage.name, now)
        job.stage_index += 1
        job.iteration = 0
        if job.stage_index < len(job.spec.stages):
            self._submit_iteration(job, now)
        else:
            job.done = True
            job.finish = now
            self._unfinished -= 1

    def _finish_stage(self, job: _Job, stage_name: str, now: float) -> None:
        """Close the job's stage window into a StageMeasurement.

        The record :func:`~repro.simulator.run.run_stage` builds, over a
        window of the mix clock; device utilization is cluster-wide only
        (shared devices are not attributable to one job).
        """
        job.stages.append(
            record_stage(
                stage_name,
                job.stage_tasks,
                nodes=self.cluster.num_slaves,
                cores_per_node=self.cores_per_node,
                start=job.stage_start,
                makespan=now - job.stage_start,
                iostat=job.iostat,
                core_seconds=job.core_busy - job.stage_core_anchor,
            )
        )

    def _cancel_attempt(self, running: _Running, release_slot: bool = True) -> None:
        """A node death cancels the attempt: its job runs one task fewer."""
        super()._cancel_attempt(running, release_slot)
        self._task_job[running.task.task_id].num_running -= 1

    def _account_busy_time(self, dt: float) -> None:
        super()._account_busy_time(dt)
        if dt <= 0.0:
            return
        for job in self._jobs:
            if job.num_running:
                job.core_busy += job.num_running * dt

    def _open_io(self, running: _Running, phase, now: float) -> None:
        # Route iostat samples to the owning job's per-stage collector.
        self.iostat = self._task_job[running.task.task_id].iostat
        try:
            super()._open_io(running, phase, now)
        finally:
            self.iostat = None


def measure_mix(
    cluster: Cluster,
    cores_per_node: int,
    jobs: Sequence[MixJob],
    policy: str = "fair",
    run_index: int = 0,
    network: NetworkModel | None = None,
    faults: FaultPlan | None = None,
) -> MixMeasurement:
    """Simulate a mix and collect its measurement record.

    The direct (uncached) driver; :meth:`repro.pipeline.experiment
    .Experiment.measure_mix` wraps this with content-addressed caching
    and delegates clean K = 1 mixes to the bit-identical solo path.
    """
    engine = MixEngine(
        cluster, cores_per_node, jobs, policy=policy, run_index=run_index,
        network=network, faults=faults,
    )
    return engine.measurement(engine.run_mix())
