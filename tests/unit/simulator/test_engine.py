"""Unit tests for the discrete-event engine's mechanics."""

import pytest

from repro.cluster import HYBRID_CONFIGS, make_paper_cluster
from repro.errors import SimulationError
from repro.simulator import engine as engine_module
from repro.simulator.engine import SimulationEngine
from repro.simulator.task import ComputePhase, IoPhase, SimTask
from repro.units import KB, MB


def compute_task(seconds=1.0):
    return SimTask(phases=(ComputePhase(seconds),))


def read_task(total=60 * MB, rs=30 * KB, role="local", cap=60 * MB):
    return SimTask(
        phases=(
            IoPhase(role=role, total_bytes=total, request_size=rs,
                    is_write=False, per_stream_cap=cap),
        )
    )


@pytest.fixture()
def one_node_cluster():
    return make_paper_cluster(1, HYBRID_CONFIGS[0])


class TestBasicExecution:
    def test_empty_task_list(self, one_node_cluster):
        engine = SimulationEngine(one_node_cluster, cores_per_node=4)
        assert engine.run([]) == 0.0

    def test_single_compute_task(self, one_node_cluster):
        engine = SimulationEngine(one_node_cluster, cores_per_node=1)
        task = compute_task(3.5)
        assert engine.run([task]) == pytest.approx(3.5)
        assert task.duration == pytest.approx(3.5)

    def test_core_limit_serializes(self, one_node_cluster):
        engine = SimulationEngine(one_node_cluster, cores_per_node=2)
        tasks = [compute_task(1.0) for _ in range(6)]
        assert engine.run(tasks) == pytest.approx(3.0)

    def test_parallel_within_core_limit(self, one_node_cluster):
        engine = SimulationEngine(one_node_cluster, cores_per_node=8)
        tasks = [compute_task(1.0) for _ in range(6)]
        assert engine.run(tasks) == pytest.approx(1.0)

    def test_zero_length_task_finishes_instantly(self, one_node_cluster):
        engine = SimulationEngine(one_node_cluster, cores_per_node=1)
        tasks = [SimTask(phases=(ComputePhase(0.0),)) for _ in range(3)]
        assert engine.run(tasks) == 0.0

    def test_multi_node_split(self):
        cluster = make_paper_cluster(2, HYBRID_CONFIGS[0])
        engine = SimulationEngine(cluster, cores_per_node=1)
        tasks = [compute_task(1.0) for _ in range(4)]
        # Two nodes, one core each: two tasks per node.
        assert engine.run(tasks) == pytest.approx(2.0)


class TestIoBehaviour:
    def test_single_stream_at_cap(self, one_node_cluster):
        engine = SimulationEngine(one_node_cluster, cores_per_node=1)
        task = read_task(total=60 * MB, cap=60 * MB)
        # SSD @30 KB = 480 MB/s >> cap, so the cap binds: 1 second.
        assert engine.run([task]) == pytest.approx(1.0)

    def test_contention_beyond_break_point(self, one_node_cluster):
        engine = SimulationEngine(one_node_cluster, cores_per_node=16)
        tasks = [read_task(total=60 * MB, cap=60 * MB) for _ in range(16)]
        # b = 480/60 = 8; 16 streams share 480 MB/s -> 30 MB/s each -> 2 s.
        assert engine.run(tasks) == pytest.approx(2.0)

    def test_no_contention_below_break_point(self, one_node_cluster):
        engine = SimulationEngine(one_node_cluster, cores_per_node=4)
        tasks = [read_task(total=60 * MB, cap=60 * MB) for _ in range(4)]
        assert engine.run(tasks) == pytest.approx(1.0)

    def test_hdfs_and_local_devices_independent(self, one_node_cluster):
        engine = SimulationEngine(one_node_cluster, cores_per_node=2)
        tasks = [
            read_task(role="hdfs", total=480 * MB, rs=128 * MB, cap=None),
            read_task(role="local", total=480 * MB, rs=30 * KB, cap=None),
        ]
        # Each stream owns its device; both finish around 1 s (hdfs is a
        # touch faster at 525 MB/s); no cross-device contention.
        assert engine.run(tasks) == pytest.approx(1.0, rel=0.05)

    def test_read_compute_write_sequence(self, one_node_cluster):
        engine = SimulationEngine(one_node_cluster, cores_per_node=1)
        task = SimTask(
            phases=(
                IoPhase(role="hdfs", total_bytes=128 * MB, request_size=128 * MB,
                        is_write=False, per_stream_cap=32 * MB),
                ComputePhase(2.0),
                IoPhase(role="local", total_bytes=100 * MB, request_size=100 * MB,
                        is_write=True, per_stream_cap=50 * MB),
            )
        )
        assert engine.run([task]) == pytest.approx(4.0 + 2.0 + 2.0)

    def test_iostat_recording(self, one_node_cluster):
        from repro.storage.iostat import IostatCollector

        iostat = IostatCollector()
        engine = SimulationEngine(one_node_cluster, cores_per_node=1, iostat=iostat)
        engine.run([read_task(total=60 * MB, rs=30 * KB)])
        device_name = one_node_cluster.slaves[0].local_device.name
        sample = iostat.sample(device_name, is_write=False)
        assert sample.total_bytes == pytest.approx(60 * MB)
        assert sample.avg_request_size == pytest.approx(30 * KB)


class TestValidation:
    def test_invalid_cores(self, one_node_cluster):
        with pytest.raises(SimulationError):
            SimulationEngine(one_node_cluster, cores_per_node=0)

    def test_cores_beyond_node(self, one_node_cluster):
        with pytest.raises(SimulationError):
            SimulationEngine(one_node_cluster, cores_per_node=37)

    def test_max_events_guard(self, one_node_cluster, monkeypatch):
        monkeypatch.setattr(engine_module, "MAX_EVENTS", 2)
        engine = SimulationEngine(one_node_cluster, cores_per_node=1)
        tasks = [compute_task(1.0) for _ in range(5)]
        with pytest.raises(SimulationError):
            engine.run(tasks)


class TestFig6Phases:
    """The three execution regimes of Fig. 6, reproduced mechanically.

    Fig. 6's illustration: T = 60 MB/s, lambda = 4, BW = 120 MB/s, so
    b = 2 and B = 8.  Tasks read 60 MB then compute 3 s (t_avg = 4 s).
    """

    def _tasks(self, count):
        # Compute times carry the same mean-preserving jitter the workload
        # layer applies: identical tasks march in lockstep waves, which is
        # not how real (or pipelined, Fig. 6) execution behaves.
        golden = 0.618033988749895
        tasks = []
        for index in range(count):
            scale = 1.0 + 0.10 * (2.0 * ((index * golden) % 1.0) - 1.0)
            tasks.append(
                SimTask(
                    phases=(
                        IoPhase(role="local", total_bytes=60 * MB,
                                request_size=4 * KB, is_write=False,
                                per_stream_cap=60 * MB),
                        ComputePhase(3.0 * scale),
                    )
                )
            )
        return tasks

    @pytest.fixture()
    def narrow_cluster(self):
        # A device whose 4 KB read bandwidth is exactly 120 MB/s.
        from repro.cluster.cluster import Cluster
        from repro.cluster.node import Node
        from repro.core.bandwidth import EffectiveBandwidthTable
        from repro.storage.device import StorageDevice
        from repro.units import GB, TB

        table = EffectiveBandwidthTable({4 * KB: 120 * MB})
        def device(name):
            return StorageDevice(name=name, kind="ssd", capacity_bytes=1 * TB,
                                 read_table=table, write_table=table)
        node = Node(name="n0", num_cores=36, ram_bytes=128 * GB,
                    hdfs_device=device("h"), local_device=device("l"))
        return Cluster(slaves=[node])

    def test_phase1_no_contention(self, narrow_cluster):
        # P = 2 = b: M/(N*P) * t_avg = 8/2 * 4 = 16 s (jitter-averaged).
        engine = SimulationEngine(narrow_cluster, cores_per_node=2)
        assert engine.run(self._tasks(8)) == pytest.approx(16.0, rel=0.05)

    def test_phase2_contention_hidden(self, narrow_cluster):
        # P = 4 (b < P <= B): ~ M/(N*P) * t_avg + t_lat.
        engine = SimulationEngine(narrow_cluster, cores_per_node=4)
        makespan = engine.run(self._tasks(32))
        ideal = 32 / 4 * 4.0
        assert ideal <= makespan <= ideal * 1.2

    def test_phase3_io_bound(self, narrow_cluster):
        # P = 16 > B = 8: runtime pinned near D/BW (+ pipeline fill, which
        # Section IV-B's phase-3 formula writes as "+ t_avg").
        engine16 = SimulationEngine(narrow_cluster, cores_per_node=16)
        makespan16 = engine16.run(self._tasks(32))
        floor = 32 * 60 * MB / (120 * MB)
        t_avg = 4.0
        assert floor <= makespan16 <= floor + 2 * t_avg
        engine32 = SimulationEngine(narrow_cluster, cores_per_node=32)
        makespan32 = engine32.run(self._tasks(32))
        # More cores do not help once I/O-bound.
        assert makespan32 == pytest.approx(makespan16, rel=0.15)
