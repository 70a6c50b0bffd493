"""Multi-job simulation: K workloads sharing one cluster's resources.

Everything else in the library runs one job alone on the cluster; this
module runs a *mix*.  Jobs arrive at given times, their stages submit
tasks onto the shared executor :class:`~repro.resources.SlotPool`s, and
their I/O streams land on the very same HDFS-disk, local-disk, and NIC
resources — so co-located stages contend under the registry's max-min
filling and genuinely slow each other down.  Nothing about contention is
re-modeled here: :class:`MixEngine` only adds admission, a per-node
multi-queue, and per-job accounting on top of the single-job
:class:`~repro.simulator.engine.SimulationEngine` event loop.

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
import itertools
import math
from collections import defaultdict, deque
from collections.abc import Sequence
from dataclasses import dataclass

from repro.cluster.cluster import Cluster
from repro.cluster.network import NetworkModel
from repro.errors import SimulationError
from repro.faults.plan import FaultPlan
from repro.schedule.scheduler import SchedulingError
from repro.simulator.engine import _EV_FAULT, SimulationEngine, _Running
from repro.simulator.run import ApplicationMeasurement, StageMeasurement
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
    multi-queue.  All contention flows through the inherited registry."""

    def __init__(
        self,
        cluster: Cluster,
        cores_per_node: int,
        jobs: Sequence[MixJob],
        policy: str = "fair",
        run_index: int = 0,
        network: NetworkModel | None = None,
        faults: FaultPlan | None = None,
        max_events: int = 50_000_000,
    ) -> None:
        if policy not in MIX_POLICIES:
            raise SchedulingError(
                f"unknown mix policy {policy!r}; expected one of {MIX_POLICIES}"
            )
        if not jobs:
            raise SchedulingError("a mix needs at least one job")
        super().__init__(
            cluster, cores_per_node, network=network, faults=faults,
            max_events=max_events,
        )
        self.policy = policy
        self.run_index = run_index
        self._jitter_offset = run_index * _JITTER_STRIDE
        # Canonical admission order: (arrival, name), input order only as
        # the final tie-break — so permuting the submitted list cannot
        # change the schedule (exactly, when (arrival, name) pairs are
        # unique; duplicates of the *same* job are symmetric anyway).
        self._jobs: list[_Job] = [
            _Job(
                index=index,
                name=name,
                spec=scale_workload_volume(job.spec, job.volume_scale),
                arrival=job.arrival,
                volume_scale=job.volume_scale,
            )
            for index, (name, job) in enumerate(canonical_jobs(jobs))
        ]
        #: task_id -> owning job, filled at stage submission.
        self._task_job: dict[int, _Job] = {}
        #: node name -> {job index -> FIFO deque} — the multi-queue.
        self._queues: dict[str, dict[int, deque[SimTask]]] = {}
        self._unfinished_jobs = 0

    # -- the mix event loop ------------------------------------------------

    def run_mix(self) -> float:
        """Admit and execute every job; returns the mix makespan."""
        self._heap = []
        self._seq = itertools.count()
        self._dirty_resources = {}
        self._busy = {}
        self._owner = {}
        self._stalled = {}
        self._freed_nodes = set()
        self._dead_nodes = set()
        self._active = {}
        self._pending = {node.name: deque() for node in self.cluster.slaves}
        self._queues = {node.name: {} for node in self.cluster.slaves}
        self._task_job = {}
        self._num_running = 0
        self._remaining_tasks = 0
        self._unfinished_jobs = len(self._jobs)
        if self._injector is not None:
            self._injector.reset()
            for at_seconds, action in self._injector.initial_actions():
                heapq.heappush(
                    self._heap, (at_seconds, next(self._seq), _EV_FAULT, action, 0)
                )
        for job in self._jobs:  # canonical order -> deterministic sequence
            heapq.heappush(
                self._heap, (job.arrival, next(self._seq), _EV_ARRIVAL, job, 0)
            )
        now = 0.0
        events = 0
        while self._unfinished_jobs > 0:
            events += 1
            if events > self.max_events:
                raise SimulationError(
                    f"exceeded {self.max_events} events; simulation is stuck"
                )
            batch = self._pop_batch()
            if not batch:
                self._raise_stuck()
            dt = batch[0][0] - now
            self._account_busy_time(dt)
            now = batch[0][0]
            for entry in batch:
                self._process_entry(entry, now)
            self._settle(now)
        return now

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
            device_utilizations=tuple(
                (name, is_write, busy / makespan)
                for (name, is_write), busy in sorted(
                    self.device_busy_seconds.items()
                )
                if makespan > 0
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
        self._remaining_tasks += len(tasks)
        for index, task in enumerate(tasks):
            self._task_job[task.task_id] = job
            queues = self._queues[targets[index % len(targets)].name]
            queues.setdefault(job.index, deque()).append(task)
        self._freed_nodes.update(node.name for node in targets)

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

    def _launch_waiting(self, now: float, freed: set[str]) -> None:
        for node in self.cluster.slaves:
            if node.name not in freed:
                continue
            freed.remove(node.name)
            if node.name in self._dead_nodes:
                continue
            queues = self._queues[node.name]
            pool = self._cores[node.name]
            while pool.free > 0:
                job = self._pick_job(queues)
                if job is None:
                    break
                task = queues[job.index].popleft()
                if not queues[job.index]:
                    del queues[job.index]
                pool.acquire()
                self._num_running += 1
                job.num_running += 1
                if job.first_launch < 0:
                    job.first_launch = now
                task.start_time = now
                running = _Running(task=task, node=node)
                if not self._enter_phase(running, now):
                    pool.release()
                    self._num_running -= 1
                    job.num_running -= 1
                    self._task_finished(job, now)
                    self._freed_nodes.add(node.name)
                else:
                    self._active[id(running)] = running

    def _transition(self, running: _Running, now: float) -> None:
        running.epoch += 1
        running.phase_index += 1
        if not self._enter_phase(running, now):
            self._active.pop(id(running), None)
            self._cores[running.node.name].release()
            self._num_running -= 1
            job = self._task_job[running.task.task_id]
            job.num_running -= 1
            self._task_finished(job, now)
            self._freed_nodes.add(running.node.name)

    def _task_finished(self, job: _Job, now: float) -> None:
        """Advance the job's barrier: next iteration, next stage, or done."""
        self._remaining_tasks -= 1
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
            self._unfinished_jobs -= 1

    def _finish_stage(self, job: _Job, stage_name: str, now: float) -> None:
        """Close the job's stage window into a StageMeasurement.

        Mirrors :func:`repro.simulator.run.run_stage`, except times are
        windows on the mix clock and device utilization is cluster-wide
        only (shared devices are not attributable to one job).
        """
        tasks = job.stage_tasks
        makespan = now - job.stage_start
        durations: dict[str, list[float]] = defaultdict(list)
        for task in tasks:
            durations[task.group].append(task.duration)
        samples = []
        for device_name in job.iostat.devices():
            for is_write in (False, True):
                sample = job.iostat.sample(device_name, is_write)
                if sample.num_requests > 0:
                    samples.append(sample)
        core_seconds = job.core_busy - job.stage_core_anchor
        capacity = makespan * self.cluster.num_slaves * self.cores_per_node
        job.stages.append(
            StageMeasurement(
                name=stage_name,
                nodes=self.cluster.num_slaves,
                cores_per_node=self.cores_per_node,
                makespan=makespan,
                num_tasks=len(tasks),
                task_avg_seconds={
                    group: sum(values) / len(values)
                    for group, values in durations.items()
                },
                task_counts={
                    group: len(values) for group, values in durations.items()
                },
                first_finish_seconds=(
                    min(t.finish_time for t in tasks) - job.stage_start
                ),
                read_bytes=sum(t.io_bytes(is_write=False) for t in tasks),
                write_bytes=sum(t.io_bytes(is_write=True) for t in tasks),
                iostat_samples=tuple(samples),
                avg_gc_seconds=sum(t.gc_seconds for t in tasks) / len(tasks),
                core_utilization=(
                    core_seconds / capacity if capacity > 0 else 0.0
                ),
            )
        )

    # -- per-job accounting hooks ------------------------------------------

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

    # -- node death under multi-tenancy ------------------------------------

    def _kill_node(self, name: str, now: float) -> None:
        """Node death with per-job requeue: every job's in-flight and
        pending tasks on the dead node restart round-robin on survivors."""
        if name in self._dead_nodes:
            return
        self._dead_nodes.add(name)
        survivors = [
            node for node in self.cluster.slaves
            if node.name not in self._dead_nodes
        ]
        requeue: list[SimTask] = []
        for running in [r for r in self._active.values() if r.node.name == name]:
            running.epoch += 1
            for stream in running.streams:
                stream.epoch += 1
                self._stalled.pop(stream.stream_id, None)
                self._owner.pop(stream.stream_id, None)
                for resource in list(stream.resources):
                    resource.detach(stream, rebalance=False)
                    self._mark_dirty(resource)
            running.streams.clear()
            running.open_streams = 0
            del self._active[id(running)]
            self._num_running -= 1
            self._task_job[running.task.task_id].num_running -= 1
            task = running.task
            task.start_time = -1.0
            task.finish_time = -1.0
            requeue.append(task)
        queues = self._queues[name]
        for job_index in sorted(queues):
            requeue.extend(queues[job_index])
        queues.clear()
        if not survivors:
            if self._unfinished_jobs > 0:
                raise SimulationError(
                    f"node {name} died leaving no live nodes with"
                    f" {self._unfinished_jobs} job(s) unfinished"
                )
            return
        requeue.sort(key=lambda t: t.task_id)
        for index, task in enumerate(requeue):
            target = survivors[index % len(survivors)]
            job = self._task_job[task.task_id]
            self._queues[target.name].setdefault(job.index, deque()).append(task)
        if requeue:
            self._freed_nodes.update(node.name for node in survivors)


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
    and delegates K = 1 mixes to the bit-identical solo path.
    """
    engine = MixEngine(
        cluster, cores_per_node, jobs, policy=policy, run_index=run_index,
        network=network, faults=faults,
    )
    return engine.measurement(engine.run_mix())
