"""Unit tests for workload spec abstractions."""

import pytest

from repro.errors import WorkloadError
from repro.simulator.task import ComputePhase, IoPhase
from repro.units import KB, MB
from repro.workloads.base import (
    ChannelSpec,
    StageSpec,
    TaskGroupSpec,
    WorkloadSpec,
    compute_seconds_from_lambda,
)


def read_channel(kind="shuffle_read", bytes_=27 * MB, rs=30 * KB, cap=60 * MB):
    return ChannelSpec(
        kind=kind, bytes_per_task=bytes_, request_size=rs, per_core_throughput=cap
    )


def write_channel(kind="shuffle_write", bytes_=100 * MB, rs=100 * MB, cap=50 * MB):
    return ChannelSpec(
        kind=kind, bytes_per_task=bytes_, request_size=rs, per_core_throughput=cap
    )


class TestChannelSpec:
    def test_roles_and_directions(self):
        assert read_channel("hdfs_read").role == "hdfs"
        assert read_channel("persist_read").role == "local"
        assert not read_channel().is_write
        assert write_channel("hdfs_write").is_write

    def test_unknown_kind(self):
        with pytest.raises(WorkloadError):
            read_channel(kind="scratch_read")

    def test_uncontended_seconds(self):
        channel = read_channel(bytes_=120 * MB, cap=60 * MB)
        assert channel.uncontended_seconds() == pytest.approx(2.0)

    def test_uncontended_requires_cap(self):
        channel = ChannelSpec(kind="hdfs_read", bytes_per_task=1.0, request_size=1.0)
        with pytest.raises(WorkloadError):
            channel.uncontended_seconds()

    def test_validation(self):
        with pytest.raises(WorkloadError):
            read_channel(bytes_=-1.0)
        with pytest.raises(WorkloadError):
            read_channel(rs=0.0)
        with pytest.raises(WorkloadError):
            read_channel(cap=0.0)


class TestTaskGroupSpec:
    def test_phases_ordered_read_compute_write(self):
        group = TaskGroupSpec(
            name="g", count=2,
            read_channels=(read_channel(),),
            compute_seconds=3.0,
            write_channels=(write_channel(),),
        )
        phases = group.task_phases()
        assert isinstance(phases[0], IoPhase) and not phases[0].is_write
        assert isinstance(phases[1], ComputePhase)
        assert isinstance(phases[2], IoPhase) and phases[2].is_write

    def test_channel_renders_as_io_phase(self):
        channel = read_channel()
        group = TaskGroupSpec(name="g", count=1, read_channels=(channel,))
        phase = group.task_phases()[0]
        assert isinstance(phase, IoPhase)
        assert phase.role == "local"
        assert not phase.is_write
        assert phase.total_bytes == channel.bytes_per_task
        assert phase.request_size == channel.request_size
        assert phase.per_stream_cap == channel.per_core_throughput
        assert phase.via_network  # shuffle reads may cross the network

    def test_compute_scale(self):
        group = TaskGroupSpec(name="g", count=1, compute_seconds=2.0)
        phases = group.task_phases(compute_scale=1.5)
        assert phases[0].seconds == pytest.approx(3.0)

    def test_uncontended_task_seconds(self):
        group = TaskGroupSpec(
            name="g", count=1,
            read_channels=(read_channel(bytes_=60 * MB, cap=60 * MB),),
            compute_seconds=3.0,
        )
        assert group.uncontended_task_seconds() == pytest.approx(4.0)

    def test_misplaced_channels_rejected(self):
        with pytest.raises(WorkloadError):
            TaskGroupSpec(name="g", count=1, read_channels=(write_channel(),))
        with pytest.raises(WorkloadError):
            TaskGroupSpec(name="g", count=1, write_channels=(read_channel(),))

    def test_invalid_count_and_compute(self):
        with pytest.raises(WorkloadError):
            TaskGroupSpec(name="g", count=0)
        with pytest.raises(WorkloadError):
            TaskGroupSpec(name="g", count=1, compute_seconds=-1.0)


class TestStageSpec:
    def _stage(self, repeat=1, jitter=0.1):
        return StageSpec(
            name="s",
            groups=(
                TaskGroupSpec(name="a", count=6, compute_seconds=1.0,
                              read_channels=(read_channel(),)),
                TaskGroupSpec(name="b", count=2, compute_seconds=2.0,
                              write_channels=(write_channel(),)),
            ),
            repeat=repeat,
            task_jitter=jitter,
        )

    def test_task_counts(self):
        stage = self._stage(repeat=5)
        assert stage.tasks_per_execution == 8
        assert stage.num_tasks == 40

    def test_group_lookup(self):
        stage = self._stage()
        assert stage.group("a").count == 6
        with pytest.raises(WorkloadError):
            stage.group("zzz")

    def test_total_bytes_includes_repeat(self):
        stage = self._stage(repeat=3)
        assert stage.total_bytes("shuffle_read") == pytest.approx(3 * 6 * 27 * MB)
        assert stage.total_bytes("shuffle_write") == pytest.approx(3 * 2 * 100 * MB)
        assert stage.total_bytes("hdfs_read") == 0.0

    def test_total_bytes_unknown_kind(self):
        with pytest.raises(WorkloadError):
            self._stage().total_bytes("scratch")

    def test_channel_summary(self):
        summary = self._stage().channel_summary()
        total, request = summary["shuffle_read"]
        assert total == pytest.approx(6 * 27 * MB)
        assert request == pytest.approx(30 * KB)

    def test_build_tasks_one_execution(self):
        tasks = self._stage(repeat=4).build_tasks()
        assert len(tasks) == 8  # one repeat only

    def test_build_tasks_interleaves_groups(self):
        tasks = self._stage().build_tasks()
        groups = [t.group for t in tasks]
        # "b" tasks are spread, not clustered at the end.
        first_b = groups.index("b")
        assert first_b < 4

    def test_jitter_mean_preserving(self):
        tasks = self._stage(jitter=0.1).build_tasks()
        a_computes = [
            t.compute_seconds() for t in tasks if t.group == "a"
        ]
        assert sum(a_computes) / len(a_computes) == pytest.approx(1.0, rel=0.05)
        assert max(a_computes) <= 1.1 + 1e-9
        assert min(a_computes) >= 0.9 - 1e-9

    def test_zero_jitter_identical_tasks(self):
        tasks = self._stage(jitter=0.0).build_tasks()
        a_computes = {t.compute_seconds() for t in tasks if t.group == "a"}
        assert a_computes == {1.0}

    def test_validation(self):
        with pytest.raises(WorkloadError):
            StageSpec(name="s", groups=())
        with pytest.raises(WorkloadError):
            self._stage(repeat=0)
        with pytest.raises(WorkloadError):
            self._stage(jitter=1.5)
        with pytest.raises(WorkloadError):
            StageSpec(
                name="s",
                groups=(
                    TaskGroupSpec(name="x", count=1, compute_seconds=0.0),
                    TaskGroupSpec(name="x", count=1, compute_seconds=0.0),
                ),
            )


class TestWorkloadSpec:
    def test_stage_lookup_and_staged_tasks(self):
        stage = StageSpec(
            name="only",
            groups=(TaskGroupSpec(name="g", count=2, compute_seconds=1.0),),
        )
        workload = WorkloadSpec(name="w", stages=(stage,))
        assert workload.stage("only") is stage
        staged = workload.build_staged_tasks()
        assert staged[0][0] == "only"
        assert len(staged[0][1]) == 2
        with pytest.raises(WorkloadError):
            workload.stage("missing")

    def test_duplicate_stage_names_rejected(self):
        stage = StageSpec(
            name="dup",
            groups=(TaskGroupSpec(name="g", count=1, compute_seconds=0.0),),
        )
        with pytest.raises(WorkloadError):
            WorkloadSpec(name="w", stages=(stage, stage))

    def test_empty_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(name="w", stages=())


class TestLambdaHelper:
    def test_formula(self):
        assert compute_seconds_from_lambda(20.0, 0.45) == pytest.approx(8.55)

    def test_lambda_one_is_pure_io(self):
        assert compute_seconds_from_lambda(1.0, 5.0) == 0.0

    def test_validation(self):
        with pytest.raises(WorkloadError):
            compute_seconds_from_lambda(0.5, 1.0)
        with pytest.raises(WorkloadError):
            compute_seconds_from_lambda(2.0, -1.0)
