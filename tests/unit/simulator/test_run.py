"""Unit tests for the stage driver and whole-application measurements."""

import pytest

from repro.errors import SimulationError
from repro.simulator.run import run_stage
from repro.simulator.task import ComputePhase, IoPhase, SimTask
from repro.units import KB, MB
from repro.workloads.base import StageSpec, TaskGroupSpec, WorkloadSpec
from repro.workloads.runner import measure_workload


def tasks_of(group, count, seconds=1.0, read_mb=0.0):
    result = []
    for _ in range(count):
        phases = []
        if read_mb:
            phases.append(
                IoPhase(role="local", total_bytes=read_mb * MB,
                        request_size=30 * KB, is_write=False,
                        per_stream_cap=60 * MB)
            )
        phases.append(ComputePhase(seconds))
        result.append(SimTask(phases=tuple(phases), group=group))
    return result


class TestRunStage:
    def test_measurement_fields(self, ssd_cluster):
        tasks = tasks_of("work", 12, seconds=2.0, read_mb=30)
        measurement = run_stage(ssd_cluster, 4, tasks, name="stage-x")
        assert measurement.name == "stage-x"
        assert measurement.nodes == 3
        assert measurement.cores_per_node == 4
        assert measurement.num_tasks == 12
        assert measurement.read_bytes == pytest.approx(12 * 30 * MB)
        assert measurement.write_bytes == 0.0
        assert measurement.makespan == pytest.approx(2.5, rel=0.05)

    def test_group_averages(self, ssd_cluster):
        tasks = tasks_of("fast", 6, seconds=1.0) + tasks_of("slow", 6, seconds=3.0)
        measurement = run_stage(ssd_cluster, 4, tasks)
        assert measurement.group_t_avg("fast") == pytest.approx(1.0)
        assert measurement.group_t_avg("slow") == pytest.approx(3.0)
        assert measurement.t_avg == pytest.approx(2.0)
        assert measurement.task_counts == {"fast": 6, "slow": 6}

    def test_unknown_group(self, ssd_cluster):
        measurement = run_stage(ssd_cluster, 2, tasks_of("only", 2))
        with pytest.raises(SimulationError):
            measurement.group_t_avg("missing")

    def test_first_finish_estimates_latency(self, ssd_cluster):
        measurement = run_stage(ssd_cluster, 2, tasks_of("g", 8, seconds=2.0))
        assert measurement.first_finish_seconds == pytest.approx(2.0)

    def test_iostat_samples_present_for_io(self, ssd_cluster):
        measurement = run_stage(ssd_cluster, 2, tasks_of("g", 4, read_mb=60))
        assert measurement.iostat_samples
        assert all(not sample.is_write for sample in measurement.iostat_samples)


def compute_app(*stage_seconds: float, count: int = 6) -> WorkloadSpec:
    """A compute-only application: one stage per entry, ``a``, ``b``, ..."""
    return WorkloadSpec(
        name="app",
        stages=tuple(
            StageSpec(
                name=chr(ord("a") + index),
                groups=(
                    TaskGroupSpec(name="g", count=count, compute_seconds=seconds),
                ),
            )
            for index, seconds in enumerate(stage_seconds)
        ),
    )


class TestRunApplication:
    """Whole applications, driven by :func:`measure_workload`."""

    def test_total_is_sum_of_stages(self, ssd_cluster):
        app = measure_workload(ssd_cluster, 2, compute_app(1.0, 2.0))
        assert app.name == "app"
        assert app.total_seconds == pytest.approx(
            sum(stage.makespan for stage in app.stages)
        )
        assert app.stage("b").makespan > app.stage("a").makespan

    def test_stage_lookup_error(self, ssd_cluster):
        app = measure_workload(ssd_cluster, 2, compute_app(1.0, count=2))
        with pytest.raises(SimulationError):
            app.stage("zzz")
