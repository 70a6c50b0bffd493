"""Determinism, submission-order invariance, the stall guard, and the
finite-network mode of the simulation engine."""

import random

import pytest

from repro.cluster import HYBRID_CONFIGS, Cluster, make_paper_cluster
from repro.cluster.network import NetworkModel, TEN_GBPS
from repro.errors import SimulationError
from repro.simulator.engine import SimulationEngine
from repro.simulator.task import ComputePhase, IoPhase, SimTask
from repro.units import GB, KB, MB
from repro.workloads.runner import measure_stage

ONE_GBPS = TEN_GBPS / 10.0


def _md_tasks(spec, cores):
    return spec.build_tasks(cores_per_node=cores, jitter_offset=0.0)


class TestDeterminism:
    def test_same_stage_spec_twice_is_identical(self, gatk4_workload):
        """Two independent builds + runs of the same StageSpec agree on the
        makespan bit for bit — the engine has no hidden entropy."""
        spec = gatk4_workload.stages[0]
        makespans = []
        for _ in range(2):
            cluster = make_paper_cluster(3, HYBRID_CONFIGS[0])
            engine = SimulationEngine(cluster, cores_per_node=4)
            makespans.append(engine.run(_md_tasks(spec, 4)))
        assert makespans[0] == makespans[1]

    def test_submission_order_invariance(self, gatk4_workload):
        """Shuffling the task list changes nothing: the engine canonicalizes
        submission order by task id before assigning tasks to nodes."""
        spec = gatk4_workload.stages[0]
        cluster = make_paper_cluster(3, HYBRID_CONFIGS[0])
        baseline = SimulationEngine(cluster, cores_per_node=4).run(
            _md_tasks(spec, 4)
        )
        for seed in (1, 2):
            shuffled = _md_tasks(spec, 4)
            random.Random(seed).shuffle(shuffled)
            cluster = make_paper_cluster(3, HYBRID_CONFIGS[0])
            engine = SimulationEngine(cluster, cores_per_node=4)
            assert engine.run(shuffled) == baseline

    def test_repeated_runs_of_measure_stage_identical(self, gatk4_workload):
        spec = gatk4_workload.stages[0]
        results = {
            measure_stage(
                make_paper_cluster(3, HYBRID_CONFIGS[0]), 4, spec
            ).makespan
            for _ in range(2)
        }
        assert len(results) == 1


class TestStallGuard:
    def _dead_cluster(self):
        cluster = make_paper_cluster(1, HYBRID_CONFIGS[0])
        node = cluster.slaves[0]
        node.local_device.bandwidth = lambda request_size, is_write: 0.0
        return cluster

    def test_consecutive_stall_raises_naming_device_and_request(self):
        """A stream allocated rate 0 twice in a row is reported with the
        device and request size instead of hanging until MAX_EVENTS."""
        cluster = self._dead_cluster()
        io = IoPhase(
            role="local", total_bytes=10 * MB, request_size=30 * KB,
            is_write=False,
        )
        stuck = SimTask(phases=(io,))
        # A compute task whose finish forces a second look at the dead
        # device (its own follow-up I/O joins the stalled queue).
        prodder = SimTask(phases=(ComputePhase(1.0), io))
        engine = SimulationEngine(cluster, cores_per_node=2)
        with pytest.raises(SimulationError, match="consecutive") as err:
            engine.run([stuck, prodder])
        assert "local-ssd" in str(err.value)
        assert "30720" in str(err.value)  # the 30 KB request size

    def test_stall_names_the_task_by_its_place_in_the_stage(self):
        # The same stall must read the same whatever the process built
        # before it (a pool worker forks after its parent has profiled,
        # so process-wide task ids differ there).
        io = IoPhase(
            role="local", total_bytes=10 * MB, request_size=30 * KB,
            is_write=False,
        )

        def stall() -> str:
            tasks = [SimTask(phases=(io,)), SimTask(phases=(ComputePhase(1.0), io))]
            engine = SimulationEngine(self._dead_cluster(), cores_per_node=2)
            with pytest.raises(SimulationError, match="consecutive") as err:
                engine.run(tasks)
            return str(err.value)

        first = stall()
        for _ in range(500):
            SimTask(phases=(io,))
        assert stall() == first
        assert "task 0 local local read" in first

    def test_all_streams_stalled_raises(self):
        cluster = self._dead_cluster()
        io = IoPhase(
            role="local", total_bytes=10 * MB, request_size=30 * KB,
            is_write=False,
        )
        engine = SimulationEngine(cluster, cores_per_node=1)
        with pytest.raises(SimulationError, match="stalled at rate 0") as err:
            engine.run([SimTask(phases=(io,))])
        assert "local-ssd" in str(err.value)


class TestNetworkMode:
    def test_default_ignores_via_network(self, gatk4_workload):
        """No NetworkModel passed -> the wire is infinite and shuffle-read
        phases run exactly as plain disk reads (the paper's default).  An
        absurdly fat configured pipe lands within a whisker of that: the
        only residual is the local/remote stream split changing per-stream
        fair shares under disk contention, not the wire itself."""
        spec = gatk4_workload.stages[2]  # SF: dominated by shuffle read
        plain = measure_stage(
            make_paper_cluster(10, HYBRID_CONFIGS[0]), 24, spec
        ).makespan
        fat_pipe = measure_stage(
            make_paper_cluster(10, HYBRID_CONFIGS[0]), 24, spec,
            network=NetworkModel(link_bandwidth=1e15),
        ).makespan
        assert fat_pipe == pytest.approx(plain, rel=5e-3)

    def test_one_gbps_makes_sf_network_bound(self, gatk4_workload, gatk4_predictor):
        """At 1 Gb/s the SF stage hits the wire: the simulated makespan
        sits on the network floor and agrees with the Equation-1 network
        extension within 10%."""
        spec = gatk4_workload.stages[2]
        cluster = make_paper_cluster(10, HYBRID_CONFIGS[0])
        slow = measure_stage(
            cluster, 24, spec, network=NetworkModel.from_gbps(1.0)
        ).makespan
        fast = measure_stage(cluster, 24, spec).makespan
        # Network floor: remote fraction 0.9 of 334 GB over 10 x 125 MB/s.
        floor = 0.9 * 334 * GB / (10 * ONE_GBPS)
        assert slow >= floor
        assert slow > 1.2 * fast
        model = gatk4_predictor.model_for_cluster(
            cluster, network_bandwidth=ONE_GBPS
        )
        predicted = model.predict(10, 24).stage("SF")
        assert predicted.bottleneck == "read"
        assert slow == pytest.approx(predicted.t_stage, rel=0.10)

    def test_one_gbps_leaves_md_alone(self, gatk4_workload):
        """MD moves no shuffle-read bytes; the NIC changes nothing."""
        spec = gatk4_workload.stages[0]
        cluster = make_paper_cluster(10, HYBRID_CONFIGS[0])
        plain = measure_stage(cluster, 24, spec).makespan
        slow = measure_stage(
            cluster, 24, spec, network=NetworkModel.from_gbps(1.0)
        ).makespan
        assert slow == pytest.approx(plain)

    def test_single_node_has_no_remote_traffic(self, gatk4_workload):
        """With one slave everything is local: remote fraction 0, so even a
        tiny NIC changes nothing."""
        spec = gatk4_workload.stages[2]
        plain = measure_stage(
            make_paper_cluster(1, HYBRID_CONFIGS[0]), 8, spec
        ).makespan
        slow = measure_stage(
            make_paper_cluster(1, HYBRID_CONFIGS[0]), 8, spec,
            network=NetworkModel.from_gbps(0.1),
        ).makespan
        assert slow == pytest.approx(plain)


class TestNodeHelpers:
    def test_engine_registers_nic_per_node_only_with_network(self):
        cluster = make_paper_cluster(2, HYBRID_CONFIGS[0])
        plain = SimulationEngine(cluster, cores_per_node=2)
        assert "slave-0" not in plain._nics
        wired = SimulationEngine(
            cluster, cores_per_node=2, network=NetworkModel.from_gbps(10)
        )
        assert "slave-0" in wired._nics
        assert "slave-1" in wired._nics


def _two_member_array_cluster(per_member):
    from repro.cluster.node import Node
    from repro.storage.array import make_disk_array
    from repro.storage.device import make_ssd

    array = make_disk_array(
        "local-array",
        [make_ssd(name="m0"), make_ssd(name="m1")],
        per_member=per_member,
    )
    node = Node(
        name="slave-0",
        num_cores=8,
        ram_bytes=128 * GB,
        hdfs_device=make_ssd(name="hdfs"),
        local_device=array,
    )
    return Cluster(slaves=[node])


class TestPerMemberArrays:
    def _one_reader(self, cluster):
        io = IoPhase(
            role="local", total_bytes=480 * MB, request_size=1 * MB,
            is_write=False,
        )
        engine = SimulationEngine(cluster, cores_per_node=2)
        return engine.run([SimTask(phases=(io,))])

    def test_summed_array_gives_single_stream_full_aggregate(self):
        """Default mode: the array is one device with the summed curve, so
        one stream alone gets both members' bandwidth (RAID-0 view)."""
        cluster = _two_member_array_cluster(per_member=False)
        single = cluster.slaves[0].local_device.members[0]
        expected = 480 * MB / (2 * single.bandwidth(1 * MB, False))
        assert self._one_reader(cluster) == pytest.approx(expected, rel=1e-6)

    def test_per_member_array_limits_single_stream_to_one_member(self):
        """Per-member mode: a lone stream is striped onto one member and
        sees only that member's bandwidth (JBOD view)."""
        cluster = _two_member_array_cluster(per_member=True)
        single = cluster.slaves[0].local_device.members[0]
        expected = 480 * MB / single.bandwidth(1 * MB, False)
        assert self._one_reader(cluster) == pytest.approx(expected, rel=1e-6)

    def test_per_member_array_scales_with_concurrency(self):
        """Two concurrent streams land on different members, so aggregate
        throughput matches the summed mode."""
        cluster = _two_member_array_cluster(per_member=True)
        io = IoPhase(
            role="local", total_bytes=480 * MB, request_size=1 * MB,
            is_write=False,
        )
        tasks = [SimTask(phases=(io,)) for _ in range(2)]
        engine = SimulationEngine(cluster, cores_per_node=2)
        makespan = engine.run(tasks)
        summed = _two_member_array_cluster(per_member=False)
        engine2 = SimulationEngine(summed, cores_per_node=2)
        reference = engine2.run([SimTask(phases=(io,)) for _ in range(2)])
        assert makespan == pytest.approx(reference, rel=1e-6)
