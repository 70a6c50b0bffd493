"""Property-based tests for Equation 1's structural invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stage_model import StageModel
from repro.core.variables import IoChannel, StageModelVariables
from repro.units import GB, KB, MB

from tests.properties.strategies import PROPERTY_SETTINGS

variables_strategy = st.builds(
    StageModelVariables,
    name=st.just("stage"),
    num_tasks=st.integers(min_value=1, max_value=100_000),
    t_avg=st.floats(min_value=0.0, max_value=1000.0),
    delta_scale=st.floats(min_value=0.0, max_value=100.0),
    channels=st.lists(
        st.builds(
            IoChannel,
            kind=st.sampled_from(
                ["hdfs_read", "shuffle_read", "persist_read",
                 "hdfs_write", "shuffle_write", "persist_write"]
            ),
            total_bytes=st.floats(min_value=0.0, max_value=1000 * GB),
            request_size=st.floats(min_value=4 * KB, max_value=128 * MB),
            bandwidth=st.floats(min_value=1 * MB, max_value=1000 * MB),
            is_write=st.booleans(),
            device=st.sampled_from(["hdfs", "local"]),
        ),
        max_size=4,
    ).map(tuple),
    delta_read=st.floats(min_value=0.0, max_value=100.0),
    delta_write=st.floats(min_value=0.0, max_value=100.0),
)

operating_points = st.tuples(
    st.integers(min_value=1, max_value=64),  # nodes
    st.integers(min_value=1, max_value=64),  # cores
)


@given(variables=variables_strategy, point=operating_points)
@settings(max_examples=200, **PROPERTY_SETTINGS)
def test_t_stage_is_max_of_terms(variables, point):
    nodes, cores = point
    model = StageModel(variables)
    prediction = model.predict(nodes, cores)
    assert prediction.t_stage == max(
        prediction.t_scale, prediction.t_read_limit, prediction.t_write_limit
    )
    assert prediction.t_stage >= 0.0


@given(variables=variables_strategy, point=operating_points)
@settings(max_examples=200, **PROPERTY_SETTINGS)
def test_more_cores_never_hurt(variables, point):
    nodes, cores = point
    model = StageModel(variables)
    assert model.runtime(nodes, cores + 1) <= model.runtime(nodes, cores) + 1e-9


@given(variables=variables_strategy, point=operating_points)
@settings(max_examples=200, **PROPERTY_SETTINGS)
def test_more_nodes_never_hurt(variables, point):
    nodes, cores = point
    model = StageModel(variables)
    assert model.runtime(nodes + 1, cores) <= model.runtime(nodes, cores) + 1e-9


@given(variables=variables_strategy, point=operating_points,
       factor=st.floats(min_value=1.0, max_value=100.0))
@settings(max_examples=200, **PROPERTY_SETTINGS)
def test_faster_devices_never_hurt(variables, point, factor):
    """Scaling every channel bandwidth up can only shrink the runtime."""
    nodes, cores = point
    slow = StageModel(variables)
    fast_channels = tuple(
        IoChannel(
            kind=ch.kind,
            total_bytes=ch.total_bytes,
            request_size=ch.request_size,
            bandwidth=ch.bandwidth * factor,
            is_write=ch.is_write,
            device=ch.device,
        )
        for ch in variables.channels
    )
    fast = StageModel(
        StageModelVariables(
            name=variables.name,
            num_tasks=variables.num_tasks,
            t_avg=variables.t_avg,
            delta_scale=variables.delta_scale,
            channels=fast_channels,
            delta_read=variables.delta_read,
            delta_write=variables.delta_write,
        )
    )
    assert fast.runtime(nodes, cores) <= slow.runtime(nodes, cores) + 1e-9


@given(variables=variables_strategy, point=operating_points)
@settings(max_examples=100, **PROPERTY_SETTINGS)
def test_runtime_at_least_io_floor(variables, point):
    """The stage can never beat its per-device transfer floors."""
    nodes, cores = point
    model = StageModel(variables)
    runtime = model.runtime(nodes, cores)
    read_floor = variables.read_limit_seconds_per_node() / nodes
    write_floor = variables.write_limit_seconds_per_node() / nodes
    assert runtime >= read_floor - 1e-9
    assert runtime >= write_floor - 1e-9


@given(variables=variables_strategy)
@settings(max_examples=100, **PROPERTY_SETTINGS)
def test_bottleneck_labels_consistent(variables):
    model = StageModel(variables)
    prediction = model.predict(4, 8)
    label = prediction.bottleneck
    values = {
        "scale": prediction.t_scale,
        "read": prediction.t_read_limit,
        "write": prediction.t_write_limit,
    }
    assert values[label] == prediction.t_stage
