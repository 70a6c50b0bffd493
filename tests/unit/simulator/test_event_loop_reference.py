"""The event loop against its full-scan reference, and work conservation.

Per event, :class:`SimulationEngine` pays only for what changed: busy
time goes to the rate resources that hold a stream, each dirty resource
is rebalanced on its own when no network can couple two of them, and
queued tasks launch on the nodes that were freed.  ``ReferenceEngine``
keeps the straightforward loop those shortcuts must equal: it reads every
rate resource at every event, groups dirty resources by walking coupling
closures, and relaunches across the whole cluster.  Every scenario must
come out bit for bit the same on both, and after every settle no live
node may hold a free core next to a queued task.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.cluster import HYBRID_CONFIGS, Cluster, make_paper_cluster
from repro.cluster.network import NetworkModel
from repro.cluster.node import Node
from repro.faults import DiskFault, FaultPlan, NodeFailureFault, StragglerFault
from repro.resilience import (
    BlacklistPolicy,
    ResiliencePolicy,
    RetryPolicy,
    SpeculationPolicy,
)
from repro.resources import DeviceResource, LinkResource
from repro.schedule.mix import MixEngine, MixJob
from repro.simulator.engine import SimulationEngine
from repro.storage.array import make_disk_array
from repro.storage.device import make_ssd
from repro.units import GB, MB
from repro.workloads import make_gatk4_workload
from repro.workloads.base import ChannelSpec, StageSpec, TaskGroupSpec, WorkloadSpec


class ReferenceEngine(SimulationEngine):
    """The full-scan event loop, kept as the reference."""

    #: Components of more than one resource this engine rebalanced.
    coupled_components = 0

    def _account_busy_time(self, dt: float) -> None:
        if dt <= 0.0:
            return
        self.core_busy_seconds += self._num_running * dt
        for resource in self.registry.values():
            if isinstance(resource, DeviceResource):
                key = (resource.device.name, resource.is_write)
            elif isinstance(resource, LinkResource):
                key = (resource.name, False)
            else:
                continue
            if resource.num_active:
                self.device_busy_seconds[key] = (
                    self.device_busy_seconds.get(key, 0.0) + dt
                )

    def _settle(self, now: float) -> None:
        while True:
            if self._rpolicy is not None and self._stall_failed:
                failed = self._stall_failed
                self._stall_failed = []
                for running in failed:
                    if id(running) in self._active:
                        self._fail_attempt(
                            running, now, "stream stalled at zero rate"
                        )
            if self._freed_nodes:
                self._freed_nodes.clear()
                self._launch_waiting(
                    now, {node.name for node in self.cluster.slaves}
                )
            if self._rpolicy is not None and self._spec_candidates:
                self._launch_speculative(now)
            if not self._dirty_resources:
                if self._rpolicy is not None and (
                    self._stall_failed or self._freed_nodes
                ):
                    continue
                return
            dirty = self._dirty_resources
            self._dirty_resources = {}
            for component in self._components(dirty):
                self._rebalance_component(component, now)

    def _rebalance_component(self, component, now: float) -> None:
        if len(component) > 1:
            self.coupled_components += 1
        else:
            # The full-scan loop took the single-resource water-filling
            # only when every stream was bound to that resource alone; the
            # engine infers that from the component's size.
            assert all(len(s.resources) == 1 for s in component[0].streams)
        if self.network is None:
            # Without a network the engine skips this closure walk and
            # rebalances each dirty resource alone; the walk must agree.
            assert len(component) == 1
        super()._rebalance_component(component, now)


class RecordingMixEngine(MixEngine):
    """A mix engine that keeps every finished stage's tasks."""

    def run_mix(self) -> float:
        self.tasks = []
        return super().run_mix()

    def _finish_stage(self, job, stage_name: str, now: float) -> None:
        self.tasks.extend(job.stage_tasks)
        super()._finish_stage(job, stage_name, now)


class ReferenceMixEngine(RecordingMixEngine, ReferenceEngine):
    """The mix engine on the full-scan loop."""


class ConservingEngine(SimulationEngine):
    """The engine under test, checking work conservation after every
    settle."""

    settles = 0

    def _queued(self, name: str) -> bool:
        return bool(self._pending[name])

    def _settle(self, now: float) -> None:
        super()._settle(now)
        self.settles += 1
        for node in self.cluster.slaves:
            if node.name in self._dead_nodes:
                continue
            idle = self._cores[node.name].free > 0
            assert not (idle and self._queued(node.name)), (
                f"t={now}: {node.name} has a free core and queued tasks"
            )


class ConservingMixEngine(RecordingMixEngine, ConservingEngine):
    """The mix engine, checked for work conservation on its multi-queue."""

    def _queued(self, name: str) -> bool:
        return any(self._queues[name].values())


@dataclass(frozen=True)
class Loop:
    solo: type[SimulationEngine]
    mix: type[MixEngine]


ENGINE = Loop(ConservingEngine, ConservingMixEngine)
REFERENCE = Loop(ReferenceEngine, ReferenceMixEngine)


@dataclass
class Outcome:
    makespan: float
    #: (start, finish) of every task, in task-id order.
    times: list[tuple[float, float]]
    device_busy: list[tuple[tuple[str, bool], float]]
    core_busy: float
    engine: SimulationEngine

    def answers(self) -> tuple:
        return self.makespan, self.times, self.device_busy, self.core_busy


def _outcome(engine, makespan, tasks) -> Outcome:
    ordered = sorted(tasks, key=lambda task: task.task_id)
    return Outcome(
        makespan=makespan,
        times=[(task.start_time, task.finish_time) for task in ordered],
        device_busy=sorted(engine.device_busy_seconds.items()),
        core_busy=engine.core_busy_seconds,
        engine=engine,
    )


def _solo(loop: Loop, cluster, cores, stage: StageSpec, **kwargs) -> Outcome:
    tasks = stage.build_tasks(cores_per_node=cores, jitter_offset=0.0)
    engine = loop.solo(cluster, cores, **kwargs)
    return _outcome(engine, engine.run(tasks), tasks)


def _stage(name, count, reads=(), compute=1.0, writes=(), chunks=1) -> StageSpec:
    return StageSpec(
        name=name,
        groups=(
            TaskGroupSpec(
                name="g", count=count, read_channels=reads,
                compute_seconds=compute, write_channels=writes,
                stream_chunks=chunks,
            ),
        ),
    )


HDFS_READ = ChannelSpec("hdfs_read", 16 * MB, 1 * MB, 60 * MB)
SHUFFLE_WRITE = ChannelSpec("shuffle_write", 8 * MB, 1 * MB, 50 * MB)
SHUFFLE_READ = ChannelSpec("shuffle_read", 64 * MB, 256 * 1024, 80 * MB)
HDFS_WRITE = ChannelSpec("hdfs_write", 32 * MB, 1 * MB, 60 * MB)


def gatk4_md(loop: Loop) -> Outcome:
    """The paper's headline shape: GATK4 MarkDuplicates at 10 x 24."""
    stage = make_gatk4_workload().stages[0]
    return _solo(loop, make_paper_cluster(10, HYBRID_CONFIGS[0]), 24, stage)


def nic_mode(loop: Loop) -> Outcome:
    """Streamed shuffle reads split over disk + NIC at 1 Gb/s."""
    stage = _stage(
        "shuffle", 48, reads=(SHUFFLE_READ,), writes=(HDFS_WRITE,), chunks=2
    )
    return _solo(
        loop, make_paper_cluster(3, HYBRID_CONFIGS[0]), 4, stage,
        network=NetworkModel.from_gbps(1.0),
    )


def per_member_array(loop: Loop) -> Outcome:
    """Local disks as per-member arrays; members share names across
    nodes, so several resources feed one busy-time key."""
    nodes = [
        Node(
            name=f"slave-{index}",
            num_cores=8,
            ram_bytes=128 * GB,
            hdfs_device=make_ssd(name="hdfs"),
            local_device=make_disk_array(
                "local", [make_ssd(name="m0"), make_ssd(name="m1")],
                per_member=True,
            ),
        )
        for index in range(3)
    ]
    stage = _stage(
        "spill", 60, reads=(HDFS_READ,), writes=(SHUFFLE_WRITE,), chunks=2
    )
    return _solo(loop, Cluster(slaves=nodes), 8, stage)


def throttle_and_kill(loop: Loop) -> Outcome:
    """A local-disk throttle window, then a node dies mid-stage."""
    plan = FaultPlan(
        name="throttle-kill",
        faults=(
            DiskFault(factor=0.25, start=300.0, end=900.0, node=0, role="local"),
            NodeFailureFault(node=2, at_seconds=1000.0),
        ),
    )
    stage = make_gatk4_workload().stages[0]
    return _solo(
        loop, make_paper_cluster(3, HYBRID_CONFIGS[0]), 8, stage, faults=plan
    )


def mitigated(loop: Loop) -> Outcome:
    """A straggler and a dead-disk window under speculation, retries and
    a blacklist."""
    plan = FaultPlan(
        name="straggler-dead-disk",
        faults=(
            StragglerFault(node=1, slowdown=5.0),
            DiskFault(factor=0.0, start=1.0, end=30.0, node=2),
        ),
    )
    policy = ResiliencePolicy(
        speculation=SpeculationPolicy(),
        retry=RetryPolicy(stall_timeout_seconds=2.0),
        blacklist=BlacklistPolicy(max_node_strikes=2),
    )
    stage = _stage("work", 60, reads=(HDFS_READ,), compute=2.0,
                   writes=(SHUFFLE_WRITE,))
    return _solo(
        loop, make_paper_cluster(3, HYBRID_CONFIGS[0]), 4, stage,
        faults=plan, resilience=policy,
    )


def two_job_mix(loop: Loop) -> Outcome:
    """Two two-stage jobs contending on shared disks, the second arriving
    while the first runs."""
    first = WorkloadSpec(name="first", stages=(
        _stage("load", 24, reads=(HDFS_READ,), writes=(SHUFFLE_WRITE,)),
        _stage("reduce", 12, reads=(SHUFFLE_READ,), writes=(HDFS_WRITE,),
               chunks=2),
    ))
    second = WorkloadSpec(name="second", stages=(
        _stage("scan", 36, reads=(HDFS_READ,), compute=0.5),
        _stage("write", 12, compute=0.5, writes=(HDFS_WRITE,)),
    ))
    engine = loop.mix(
        make_paper_cluster(3, HYBRID_CONFIGS[0]), 4,
        [MixJob(spec=first), MixJob(spec=second, arrival=2.0)],
    )
    makespan = engine.run_mix()
    return _outcome(engine, makespan, engine.tasks)


SCENARIOS = [
    gatk4_md, nic_mode, per_member_array, throttle_and_kill, mitigated,
    two_job_mix,
]


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.__name__)
def test_engine_equals_full_scan_reference(scenario):
    engine = scenario(ENGINE)
    reference = scenario(REFERENCE)
    assert engine.engine.settles > 0
    assert engine.times and all(
        0.0 <= start <= finish for start, finish in engine.times
    )
    assert engine.device_busy
    assert engine.answers() == reference.answers()


def test_scenarios_reach_the_paths_they_name():
    assert nic_mode(REFERENCE).engine.coupled_components > 0
    per_member = per_member_array(ENGINE)
    m0 = [
        resource for resource in per_member.engine.registry.values()
        if isinstance(resource, DeviceResource) and resource.device.name == "m0"
    ]
    assert len(m0) == 6  # three nodes x two directions, two busy keys
    assert ("m0", True) in dict(per_member.device_busy)
    assert throttle_and_kill(ENGINE).engine._dead_nodes == {"slave-2"}
    summary = mitigated(ENGINE).engine.resilience_summary()
    assert summary.speculative_launched > 0
    assert summary.task_retries > 0
    assert summary.blacklisted
