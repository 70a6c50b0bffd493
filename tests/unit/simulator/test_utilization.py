"""Unit tests for the engine's utilization accounting."""

import pytest

from repro.cluster import HYBRID_CONFIGS, make_paper_cluster
from repro.simulator.engine import SimulationEngine
from repro.simulator.task import ComputePhase, IoPhase, SimTask
from repro.units import KB, MB


def compute_tasks(count, seconds):
    return [SimTask(phases=(ComputePhase(seconds),)) for _ in range(count)]


def read_tasks(count, bytes_, cap):
    return [
        SimTask(
            phases=(
                IoPhase(role="local", total_bytes=bytes_, request_size=30 * KB,
                        is_write=False, per_stream_cap=cap),
            )
        )
        for _ in range(count)
    ]


class TestCoreUtilization:
    def test_fully_busy_cores(self):
        cluster = make_paper_cluster(1, HYBRID_CONFIGS[0])
        engine = SimulationEngine(cluster, cores_per_node=4)
        makespan = engine.run(compute_tasks(8, 2.0))
        assert engine.core_utilization(makespan) == pytest.approx(1.0)

    def test_partially_busy_cores(self):
        cluster = make_paper_cluster(1, HYBRID_CONFIGS[0])
        engine = SimulationEngine(cluster, cores_per_node=4)
        # 2 tasks on 4 cores: half the slots idle.
        makespan = engine.run(compute_tasks(2, 2.0))
        assert engine.core_utilization(makespan) == pytest.approx(0.5)

    def test_zero_makespan(self):
        cluster = make_paper_cluster(1, HYBRID_CONFIGS[0])
        engine = SimulationEngine(cluster, cores_per_node=1)
        assert engine.core_utilization(0.0) == 0.0

    def test_each_run_accounts_only_itself(self):
        cluster = make_paper_cluster(1, HYBRID_CONFIGS[0])
        engine = SimulationEngine(cluster, cores_per_node=2)
        for _ in range(2):
            makespan = engine.run(read_tasks(4, 60 * MB, 60 * MB))
            assert engine.core_utilization(makespan) == pytest.approx(1.0)
            busy = engine.device_busy_seconds
            assert max(busy.values()) == pytest.approx(makespan)


class TestDeviceUtilization:
    def test_io_bound_device_saturated(self):
        cluster = make_paper_cluster(1, HYBRID_CONFIGS[0])
        engine = SimulationEngine(cluster, cores_per_node=8)
        tasks = read_tasks(8, 480 * MB, cap=None)
        makespan = engine.run(tasks)
        name = cluster.slaves[0].local_device.name
        assert engine.device_utilization(name, False, makespan) == (
            pytest.approx(1.0)
        )
        # Nothing wrote; nothing touched the HDFS device.
        assert engine.device_utilization(name, True, makespan) == 0.0
        hdfs_name = cluster.slaves[0].hdfs_device.name
        assert engine.device_utilization(hdfs_name, False, makespan) == 0.0

    def test_compute_only_leaves_devices_idle(self):
        cluster = make_paper_cluster(1, HYBRID_CONFIGS[0])
        engine = SimulationEngine(cluster, cores_per_node=2)
        makespan = engine.run(compute_tasks(4, 1.0))
        name = cluster.slaves[0].local_device.name
        assert engine.device_utilization(name, False, makespan) == 0.0

    def test_interleaved_read_compute_splits_time(self):
        cluster = make_paper_cluster(1, HYBRID_CONFIGS[0])
        engine = SimulationEngine(cluster, cores_per_node=1)
        # One task: 1 s of reading (60 MB at 60 MB/s cap), then 3 s compute.
        task = SimTask(
            phases=(
                IoPhase(role="local", total_bytes=60 * MB,
                        request_size=30 * KB, is_write=False,
                        per_stream_cap=60 * MB),
                ComputePhase(3.0),
            )
        )
        makespan = engine.run([task])
        name = cluster.slaves[0].local_device.name
        assert makespan == pytest.approx(4.0)
        assert engine.device_utilization(name, False, makespan) == (
            pytest.approx(0.25)
        )
        assert engine.core_utilization(makespan) == pytest.approx(1.0)
