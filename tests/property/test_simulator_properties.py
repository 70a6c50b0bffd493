"""Property-based tests for discrete-event simulator invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import HYBRID_CONFIGS, make_paper_cluster
from repro.simulator.engine import SimulationEngine
from repro.simulator.task import ComputePhase, IoPhase, SimTask
from repro.units import MB

from tests.properties.strategies import PROPERTY_SETTINGS

task_specs = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=64 * MB),  # read bytes
        st.floats(min_value=0.0, max_value=5.0),  # compute seconds
        st.floats(min_value=0.0, max_value=64 * MB),  # write bytes
    ),
    min_size=1,
    max_size=30,
)


def build_tasks(specs):
    tasks = []
    for read_bytes, compute, write_bytes in specs:
        tasks.append(
            SimTask(
                phases=(
                    IoPhase(role="hdfs", total_bytes=read_bytes,
                            request_size=1 * MB, is_write=False,
                            per_stream_cap=60 * MB),
                    ComputePhase(compute),
                    IoPhase(role="local", total_bytes=write_bytes,
                            request_size=1 * MB, is_write=True,
                            per_stream_cap=50 * MB),
                )
            )
        )
    return tasks


@given(specs=task_specs, cores=st.integers(min_value=1, max_value=16))
@settings(max_examples=60, **PROPERTY_SETTINGS)
def test_makespan_bounds(specs, cores):
    """Makespan lies between the critical-path and the serial bound."""
    cluster = make_paper_cluster(1, HYBRID_CONFIGS[0])
    engine = SimulationEngine(cluster, cores_per_node=cores)
    tasks = build_tasks(specs)
    makespan = engine.run(tasks)
    node = cluster.slaves[0]
    serial_bound = 0.0
    longest_task = 0.0
    byte_eps = 1e-6  # phases below the engine's epsilon are skipped
    for read_bytes, compute, write_bytes in specs:
        read_seconds = (
            read_bytes / min(60 * MB, node.hdfs_device.read_bandwidth(1 * MB))
            if read_bytes > byte_eps else 0.0
        )
        write_seconds = (
            write_bytes / min(50 * MB, node.local_device.write_bandwidth(1 * MB))
            if write_bytes > byte_eps else 0.0
        )
        if compute <= 1e-9:  # compute phases below the engine epsilon skip
            compute = 0.0
        task_floor = read_seconds + compute + write_seconds
        serial_bound += task_floor
        longest_task = max(longest_task, task_floor)
    assert makespan <= serial_bound * (1 + 1e-6)
    assert makespan >= longest_task * (1 - 1e-6)


@given(specs=task_specs, cores=st.integers(min_value=1, max_value=16))
@settings(max_examples=40, **PROPERTY_SETTINGS)
def test_every_task_completes_with_valid_times(specs, cores):
    cluster = make_paper_cluster(1, HYBRID_CONFIGS[0])
    engine = SimulationEngine(cluster, cores_per_node=cores)
    tasks = build_tasks(specs)
    makespan = engine.run(tasks)
    for task in tasks:
        assert task.start_time >= 0.0
        assert task.finish_time >= task.start_time
        assert task.finish_time <= makespan + 1e-9


@given(specs=task_specs)
@settings(max_examples=30, **PROPERTY_SETTINGS)
def test_more_cores_never_slower(specs):
    cluster = make_paper_cluster(1, HYBRID_CONFIGS[0])
    few = SimulationEngine(cluster, cores_per_node=2).run(build_tasks(specs))
    many = SimulationEngine(cluster, cores_per_node=8).run(build_tasks(specs))
    assert many <= few * (1 + 1e-6)


@given(specs=task_specs, cores=st.integers(min_value=1, max_value=8))
@settings(max_examples=30, **PROPERTY_SETTINGS)
def test_concurrency_never_exceeds_cores(specs, cores):
    """At no event do more than N*P tasks overlap in time."""
    cluster = make_paper_cluster(2, HYBRID_CONFIGS[0])
    engine = SimulationEngine(cluster, cores_per_node=cores)
    tasks = build_tasks(specs)
    engine.run(tasks)
    events = []
    for task in tasks:
        if task.finish_time > task.start_time:
            events.append((task.start_time, 1))
            events.append((task.finish_time, -1))
    events.sort()
    active = 0
    for _, delta in events:
        active += delta
        assert active <= 2 * cores
