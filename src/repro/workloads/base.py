"""Workload specification abstractions.

A workload is described bottom-up:

- :class:`ChannelSpec` — one I/O channel of a task (e.g. "read my 27 MB
  shuffle segment at 30 KB requests from the local device, software path
  capped at T = 60 MB/s").
- :class:`TaskGroupSpec` — ``count`` identical tasks: ordered read
  channels, a compute phase, ordered write channels.
- :class:`StageSpec` — the task groups that run concurrently in one Spark
  stage.
- :class:`WorkloadSpec` — the ordered stages of an application.

Specs can be rendered into :class:`~repro.simulator.task.SimTask` lists for
the simulator, and aggregated (total bytes / request size per channel kind)
for the analytic model and the profiler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.errors import WorkloadError
from repro.simulator.task import ComputePhase, IoPhase, SimTask, TaskPhase

#: Canonical channel kinds and the device role each one targets.
CHANNEL_KINDS: dict[str, str] = {
    "hdfs_read": "hdfs",
    "hdfs_write": "hdfs",
    "shuffle_read": "local",
    "shuffle_write": "local",
    "persist_read": "local",
    "persist_write": "local",
}

_WRITE_KINDS = frozenset(kind for kind in CHANNEL_KINDS if kind.endswith("_write"))


@dataclass(frozen=True)
class ChannelSpec:
    """One per-task I/O channel.

    Attributes
    ----------
    kind:
        One of :data:`CHANNEL_KINDS` — fixes the device role and direction.
    bytes_per_task:
        Bytes each task of the group moves on this channel.
    request_size:
        Request (block) size of the channel's I/O.
    per_core_throughput:
        The software-path cap ``T`` (bytes/s) of one task's stream; ``None``
        means device-limited only.
    """

    kind: str
    bytes_per_task: float
    request_size: float
    per_core_throughput: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in CHANNEL_KINDS:
            raise WorkloadError(
                f"unknown channel kind {self.kind!r}; expected one of"
                f" {sorted(CHANNEL_KINDS)}"
            )
        if self.bytes_per_task < 0:
            raise WorkloadError(f"channel {self.kind}: negative bytes per task")
        if self.request_size <= 0:
            raise WorkloadError(f"channel {self.kind}: request size must be positive")
        if self.per_core_throughput is not None and self.per_core_throughput <= 0:
            raise WorkloadError(f"channel {self.kind}: T must be positive when set")

    @property
    def role(self) -> str:
        """Device role (``"hdfs"`` or ``"local"``) this channel targets."""
        return CHANNEL_KINDS[self.kind]

    @property
    def is_write(self) -> bool:
        """Direction of the channel."""
        return self.kind in _WRITE_KINDS

    def uncontended_seconds(self) -> float:
        """Per-task channel time when only the software path limits it.

        Defined only for capped channels; it is the ``t_io`` that the
        paper's ``lambda`` is measured against.
        """
        if self.per_core_throughput is None:
            raise WorkloadError(
                f"channel {self.kind} has no per-core throughput T;"
                " its uncontended time is device-dependent"
            )
        return self.bytes_per_task / self.per_core_throughput


@dataclass(frozen=True)
class TaskGroupSpec:
    """``count`` identical tasks: reads, then compute, then writes.

    ``stream_chunks`` models tasks that *stream* their I/O instead of
    staging it: Spark reducers fetch shuffle segments, merge, and write
    output concurrently rather than read-everything-then-compute.  With
    ``stream_chunks = K`` each task executes K interleaved
    (read 1/K, compute 1/K, write 1/K) rounds, which lets one task's
    compute overlap another's I/O even when a stage has only one task
    wave per core.  Totals are unchanged.
    """

    name: str
    count: int
    read_channels: tuple[ChannelSpec, ...] = ()
    compute_seconds: float = 0.0
    write_channels: tuple[ChannelSpec, ...] = ()
    stream_chunks: int = 1
    #: JVM garbage-collection pressure: extra compute seconds per task per
    #: co-resident task (``gc_coeff * P`` per task at P executor cores).
    #: See :mod:`repro.core.gc` — this reproduces the paper's observation
    #: that GC can pin a stage's runtime regardless of core count.
    gc_coeff: float = 0.0

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise WorkloadError(f"task group {self.name}: count must be positive")
        if self.compute_seconds < 0:
            raise WorkloadError(f"task group {self.name}: negative compute time")
        if self.stream_chunks <= 0:
            raise WorkloadError(f"task group {self.name}: stream_chunks must be positive")
        if self.gc_coeff < 0:
            raise WorkloadError(f"task group {self.name}: gc_coeff must be non-negative")
        for channel in self.read_channels:
            if channel.is_write:
                raise WorkloadError(
                    f"task group {self.name}: write channel {channel.kind}"
                    " listed among reads"
                )
        for channel in self.write_channels:
            if not channel.is_write:
                raise WorkloadError(
                    f"task group {self.name}: read channel {channel.kind}"
                    " listed among writes"
                )

    @property
    def channels(self) -> tuple[ChannelSpec, ...]:
        """All channels, reads first."""
        return self.read_channels + self.write_channels

    def task_phases(
        self, compute_scale: float = 1.0, gc_extra_seconds: float = 0.0
    ) -> tuple[TaskPhase, ...]:
        """The simulator phases of one task of this group.

        ``compute_scale`` scales the *whole task* — compute seconds and
        I/O volumes alike — modeling the partition-size skew real Spark
        tasks have.  The stage builder draws mean-preserving scales, so
        stage totals are unchanged while tasks desynchronize.  With
        ``stream_chunks > 1`` the read/compute/write cycle repeats that
        many times over 1/K of each volume.  ``gc_extra_seconds`` is the
        per-task GC stall (``gc_coeff * P``), folded into the compute
        phase.  Renders through the same :class:`_PhasePlan` as
        :meth:`StageSpec.build_tasks`, so both give the same floats.
        """
        return _PhasePlan(self, gc_extra_seconds).render(compute_scale)

    def uncontended_task_seconds(self) -> float:
        """Task duration with zero device contention (capped channels only)."""
        return self.compute_seconds + sum(
            ch.uncontended_seconds()
            for ch in self.channels
            if ch.per_core_throughput is not None
        )


class _PhasePlan:
    """A task group's channels and compute, resolved once per build.

    Holds, per channel in phase order, its role, direction, bytes per
    task, request size, cap ``T`` and ``shuffle_read`` network flag, with
    ``None`` marking the compute phase, plus ``compute_seconds +
    gc_extra_seconds`` and ``K = stream_chunks``.  :meth:`render` turns
    a task's scale into its phases without touching the specs again.
    """

    __slots__ = ("steps", "compute", "chunks")

    def __init__(self, group: TaskGroupSpec, gc_extra_seconds: float) -> None:
        def step(channel: ChannelSpec) -> tuple:
            return (
                channel.role,
                channel.is_write,
                channel.bytes_per_task,
                channel.request_size,
                channel.per_core_throughput,
                channel.kind == "shuffle_read",
            )

        self.steps = (
            [step(channel) for channel in group.read_channels]
            + [None]
            + [step(channel) for channel in group.write_channels]
        )
        self.compute = group.compute_seconds + gc_extra_seconds
        self.chunks = group.stream_chunks

    def render(self, scale: float) -> tuple[TaskPhase, ...]:
        """One task's phases at ``scale``: each of the K streamed chunks
        moves ``scale``/K of every channel and computes ``scale``/K of
        the compute seconds.

        The K chunks are equal by construction, so one chunk's phases are
        rendered and repeated.  The request size is preserved (skew and
        streaming change the schedule, not the block size the device
        sees) unless a chunk is smaller than one request.
        """
        chunks = self.chunks
        phases: list[TaskPhase] = []
        for step in self.steps:
            if step is None:
                phases.append(ComputePhase(self.compute * scale / chunks))
                continue
            role, is_write, bytes_per_task, request_size, cap, via_network = step
            scaled_bytes = bytes_per_task * scale / chunks
            phases.append(
                IoPhase(
                    role,
                    scaled_bytes,
                    min(request_size, max(scaled_bytes, 1.0)),
                    is_write,
                    cap,
                    via_network,
                )
            )
        return tuple(phases) * chunks


@dataclass(frozen=True)
class StageSpec:
    """One Spark stage: the task groups that share its task pool.

    ``repeat`` models iterative phases (e.g. 50 logistic-regression
    iterations): the stage executes ``repeat`` identical times back to
    back.  Simulation runs one execution and scales; the analytic model
    sees the aggregate task count and byte totals.
    """

    name: str
    groups: tuple[TaskGroupSpec, ...]
    repeat: int = 1
    #: Relative spread of per-task sizes (compute time and I/O volume
    #: together).  Real Spark partitions are never identical; the skew
    #: staggers tasks so that compute and I/O phases of *different* tasks
    #: overlap (the pipeline execution of Fig. 6) instead of marching in
    #: artificial lockstep waves.  The jitter is deterministic
    #: (low-discrepancy) and mean-preserving, so stage totals and average
    #: task times are unchanged.
    task_jitter: float = 0.20

    def __post_init__(self) -> None:
        if not self.groups:
            raise WorkloadError(f"stage {self.name}: needs at least one task group")
        if self.repeat <= 0:
            raise WorkloadError(f"stage {self.name}: repeat must be positive")
        if not 0.0 <= self.task_jitter < 1.0:
            raise WorkloadError(f"stage {self.name}: jitter must be in [0, 1)")
        names = [group.name for group in self.groups]
        if len(set(names)) != len(names):
            raise WorkloadError(f"stage {self.name}: duplicate group names {names}")

    @property
    def tasks_per_execution(self) -> int:
        """Tasks in one execution of the stage (one iteration)."""
        return sum(group.count for group in self.groups)

    @property
    def max_stream_chunks(self) -> int:
        """Largest ``stream_chunks`` among the stage's groups.

        Determines the pipeline-fill latency the analytic model adds to
        its I/O limit terms: streamed tasks fill the pipeline after
        ``t_avg / K`` instead of a full task time.
        """
        return max(group.stream_chunks for group in self.groups)

    @property
    def num_tasks(self) -> int:
        """``M`` — total tasks across all groups and repeats."""
        return self.tasks_per_execution * self.repeat

    def group(self, name: str) -> TaskGroupSpec:
        """Look up one task group."""
        for candidate in self.groups:
            if candidate.name == name:
                return candidate
        raise WorkloadError(f"stage {self.name}: no group named {name!r}")

    def total_bytes(self, kind: str) -> float:
        """Total bytes moved on one channel kind, including all repeats."""
        if kind not in CHANNEL_KINDS:
            raise WorkloadError(f"unknown channel kind {kind!r}")
        total = 0.0
        for group in self.groups:
            for channel in group.channels:
                if channel.kind == kind:
                    total += channel.bytes_per_task * group.count
        return total * self.repeat

    def channel_summary(self) -> dict[str, tuple[float, float]]:
        """Per channel kind: ``(total_bytes, byte-weighted request size)``.

        Totals include all ``repeat`` executions.
        """
        totals: dict[str, float] = {}
        weighted_rs: dict[str, float] = {}
        for group in self.groups:
            for channel in group.channels:
                stage_bytes = channel.bytes_per_task * group.count * self.repeat
                if stage_bytes == 0:
                    continue
                totals[channel.kind] = totals.get(channel.kind, 0.0) + stage_bytes
                weighted_rs[channel.kind] = (
                    weighted_rs.get(channel.kind, 0.0)
                    + channel.request_size * stage_bytes
                )
        return {
            kind: (totals[kind], weighted_rs[kind] / totals[kind]) for kind in totals
        }

    def build_tasks(
        self,
        cores_per_node: int | None = None,
        jitter_offset: float = 0.0,
    ) -> list[SimTask]:
        """Render ONE execution of the stage as simulator tasks.

        Iterative stages (``repeat > 1``) are simulated once and scaled by
        the workload runner.  Groups are interleaved proportionally so that
        every node receives a representative mix (Spark schedules all of a
        stage's tasks from one pool).  ``cores_per_node`` enables the GC
        pressure model for groups with a nonzero ``gc_coeff``.

        ``jitter_offset`` rotates the deterministic task-skew sequence:
        different offsets are statistically identical "runs" of the same
        stage, which is how the library reproduces the paper's
        average-of-five-runs error bars.

        Each group's channels are resolved once per call into a
        :class:`_PhasePlan`, together with its normalizer and its GC
        stall ``gc_coeff * P``; every task is then rendered from its
        group's plan, drawing one task id in build order.
        """
        total = self.tasks_per_execution
        order: list[tuple[float, int]] = []
        for group_index, group in enumerate(self.groups):
            stride = total / group.count
            order.extend((i * stride, group_index) for i in range(group.count))
        order.sort()
        golden = 0.618033988749895
        jitter = self.task_jitter
        # Low-discrepancy spread in [1 - jitter, 1 + jitter], deterministic
        # per task index, then normalized per group so each group's total
        # work (bytes and compute) is *exactly* preserved.
        raw_scales = [
            1.0 + jitter * (2.0 * ((index * golden + jitter_offset) % 1.0) - 1.0)
            for index in range(total)
        ]
        scale_sums = [0.0] * len(self.groups)
        for (_, group_index), raw_scale in zip(order, raw_scales):
            scale_sums[group_index] += raw_scale
        plans = []
        for group, scale_sum in zip(self.groups, scale_sums):
            gc_extra = group.gc_coeff * (cores_per_node or 0)
            plans.append(
                (
                    _PhasePlan(group, gc_extra).render,
                    group.name,
                    group.count / scale_sum,
                    gc_extra,
                )
            )
        tasks = []
        for (_, group_index), raw_scale in zip(order, raw_scales):
            render, name, normalizer, gc_extra = plans[group_index]
            tasks.append(
                SimTask(
                    render(raw_scale * normalizer),
                    name,
                    gc_extra * raw_scale * normalizer,
                )
            )
        return tasks


@dataclass(frozen=True)
class WorkloadSpec:
    """An application: ordered stages plus descriptive metadata."""

    name: str
    stages: tuple[StageSpec, ...]
    description: str = ""
    parameters: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.stages:
            raise WorkloadError(f"workload {self.name}: needs at least one stage")
        names = [stage.name for stage in self.stages]
        if len(set(names)) != len(names):
            raise WorkloadError(f"workload {self.name}: duplicate stage names {names}")

    def stage(self, name: str) -> StageSpec:
        """Look up one stage by name."""
        for candidate in self.stages:
            if candidate.name == name:
                return candidate
        raise WorkloadError(f"workload {self.name}: no stage named {name!r}")


def scale_workload_volume(spec: WorkloadSpec, factor: float) -> WorkloadSpec:
    """Scale a workload's data volume by ``factor`` (Awan-style scale-up).

    Every channel's ``bytes_per_task`` and every group's compute seconds
    (and GC pressure coefficient) scale together, modeling the same job
    run over ``factor``x the input per partition — partition *counts* are
    unchanged, matching the fixed-parallelism scale-up studies of "How
    Data Volume Affects Spark Based Data Analytics".  Request sizes and
    the software-path caps ``T`` are properties of the code path, not the
    volume, and stay put.  ``factor == 1.0`` returns ``spec`` itself so
    fingerprints are preserved exactly.  A finite factor that overflows a
    scaled value to infinity raises :class:`WorkloadError` naming the
    stage and group.
    """
    if not (factor > 0.0) or not math.isfinite(factor):
        raise WorkloadError(f"volume scale factor must be finite and > 0, got {factor}")
    if factor == 1.0:
        return spec

    def scale_group(stage: StageSpec, group: TaskGroupSpec) -> TaskGroupSpec:
        def scaled(value: float, what: str) -> float:
            result = value * factor
            if not math.isfinite(result):
                raise WorkloadError(
                    f"workload {spec.name}: volume scale {factor} overflows"
                    f" {what} of stage {stage.name} group {group.name}"
                )
            return result

        def scale_channel(channel: ChannelSpec) -> ChannelSpec:
            return replace(channel, bytes_per_task=scaled(
                channel.bytes_per_task, f"{channel.kind} bytes_per_task"
            ))

        return replace(
            group,
            read_channels=tuple(scale_channel(ch) for ch in group.read_channels),
            compute_seconds=scaled(group.compute_seconds, "compute_seconds"),
            write_channels=tuple(scale_channel(ch) for ch in group.write_channels),
            gc_coeff=scaled(group.gc_coeff, "gc_coeff"),
        )

    stages = tuple(
        replace(
            stage,
            groups=tuple(scale_group(stage, group) for group in stage.groups),
        )
        for stage in spec.stages
    )
    return replace(spec, stages=stages)


def compute_seconds_from_lambda(
    lam: float, io_seconds: float
) -> float:
    """CPU seconds of a task whose total/IO time ratio is ``lambda``.

    ``lambda = (t_io + t_cpu) / t_io``, so ``t_cpu = (lambda - 1) * t_io``.
    """
    if lam < 1.0:
        raise WorkloadError(f"lambda must be >= 1, got {lam}")
    if io_seconds < 0:
        raise WorkloadError(f"I/O seconds must be non-negative, got {io_seconds}")
    return (lam - 1.0) * io_seconds
