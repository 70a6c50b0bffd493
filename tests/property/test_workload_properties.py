"""Property-based tests for workload-spec invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.units import KB, MB
from repro.workloads.base import ChannelSpec, StageSpec, TaskGroupSpec

from tests.properties.strategies import PROPERTY_SETTINGS

channel_strategy = st.builds(
    ChannelSpec,
    kind=st.sampled_from(
        ["hdfs_read", "shuffle_read", "persist_read"]
    ),
    bytes_per_task=st.floats(min_value=0.0, max_value=512 * MB),
    request_size=st.floats(min_value=4 * KB, max_value=128 * MB),
    per_core_throughput=st.one_of(
        st.none(), st.floats(min_value=1 * MB, max_value=500 * MB)
    ),
)

write_channel_strategy = st.builds(
    ChannelSpec,
    kind=st.sampled_from(["hdfs_write", "shuffle_write", "persist_write"]),
    bytes_per_task=st.floats(min_value=0.0, max_value=512 * MB),
    request_size=st.floats(min_value=4 * KB, max_value=128 * MB),
    per_core_throughput=st.one_of(
        st.none(), st.floats(min_value=1 * MB, max_value=500 * MB)
    ),
)

group_strategy = st.builds(
    TaskGroupSpec,
    name=st.sampled_from(["g1", "g2", "g3"]),
    count=st.integers(min_value=1, max_value=200),
    read_channels=st.lists(channel_strategy, max_size=2).map(tuple),
    compute_seconds=st.floats(min_value=0.0, max_value=100.0),
    write_channels=st.lists(write_channel_strategy, max_size=2).map(tuple),
    stream_chunks=st.integers(min_value=1, max_value=8),
    gc_coeff=st.floats(min_value=0.0, max_value=2.0),
)


def unique_groups(groups):
    seen = set()
    result = []
    for group in groups:
        if group.name not in seen:
            seen.add(group.name)
            result.append(group)
    return tuple(result)


stage_strategy = st.builds(
    StageSpec,
    name=st.just("stage"),
    groups=st.lists(group_strategy, min_size=1, max_size=3).map(unique_groups),
    repeat=st.integers(min_value=1, max_value=5),
    task_jitter=st.floats(min_value=0.0, max_value=0.4),
)


@given(stage=stage_strategy)
@settings(max_examples=150, **PROPERTY_SETTINGS)
def test_build_tasks_count_matches_spec(stage):
    tasks = stage.build_tasks()
    assert len(tasks) == stage.tasks_per_execution
    assert stage.num_tasks == stage.tasks_per_execution * stage.repeat


@given(stage=stage_strategy, cores=st.integers(min_value=1, max_value=36))
@settings(max_examples=150, **PROPERTY_SETTINGS)
def test_task_bytes_exactly_preserve_stage_totals(stage, cores):
    """Jitter and chunking never change a stage's total I/O volume."""
    tasks = stage.build_tasks(cores_per_node=cores)
    built_read = sum(t.io_bytes(is_write=False) for t in tasks)
    built_write = sum(t.io_bytes(is_write=True) for t in tasks)
    summary = stage.channel_summary()
    spec_read = sum(
        total for kind, (total, _) in summary.items() if kind.endswith("_read")
    ) / stage.repeat
    spec_write = sum(
        total for kind, (total, _) in summary.items() if kind.endswith("_write")
    ) / stage.repeat
    assert abs(built_read - spec_read) <= max(1e-6 * spec_read, 1e-3)
    assert abs(built_write - spec_write) <= max(1e-6 * spec_write, 1e-3)


@given(stage=stage_strategy)
@settings(max_examples=100, **PROPERTY_SETTINGS)
def test_group_compute_totals_preserved(stage):
    """Per-group total compute is exactly the spec's (mean-preserving skew)."""
    tasks = stage.build_tasks()
    for group in stage.groups:
        built = sum(
            task.compute_seconds() for task in tasks if task.group == group.name
        )
        assert abs(built - group.compute_seconds * group.count) <= max(
            1e-6 * built, 1e-6
        )


@given(stage=stage_strategy, cores=st.integers(min_value=1, max_value=36))
@settings(max_examples=100, **PROPERTY_SETTINGS)
def test_gc_metadata_consistent_with_compute(stage, cores):
    tasks = stage.build_tasks(cores_per_node=cores)
    for task in tasks:
        assert task.gc_seconds >= 0.0
        # GC stalls are part of the compute phases, never exceeding them.
        assert task.gc_seconds <= task.compute_seconds() + 1e-9


@given(stage=stage_strategy, offset=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=100, **PROPERTY_SETTINGS)
def test_jitter_offset_changes_schedule_not_volume(stage, offset):
    base = stage.build_tasks()
    shifted = stage.build_tasks(jitter_offset=offset)
    base_bytes = sum(t.io_bytes() for t in base)
    shifted_bytes = sum(t.io_bytes() for t in shifted)
    assert abs(base_bytes - shifted_bytes) <= max(1e-9 * base_bytes, 1e-6)
