"""Property-based tests for the processor-sharing device queue and the
generic resource layer beneath it."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resources import (
    DeviceResource,
    LinkResource,
    SharedStream,
    rebalance_coupled,
)
from repro.storage.device import make_ssd
from repro.storage.queue import DeviceQueue, IoStream
from repro.units import KB, MB

from tests.properties.strategies import PROPERTY_SETTINGS

stream_specs = st.lists(
    st.tuples(
        st.floats(min_value=1 * KB, max_value=128 * MB),  # request size
        st.one_of(st.none(), st.floats(min_value=1 * MB, max_value=1000 * MB)),
        st.booleans(),  # is_write
    ),
    min_size=1,
    max_size=24,
)


def build_queue(specs):
    queue = DeviceQueue(make_ssd())
    streams = []
    for request_size, cap, is_write in specs:
        stream = IoStream(
            remaining_bytes=1 * MB,
            request_size=request_size,
            is_write=is_write,
            per_stream_cap=cap,
        )
        queue.attach(stream)
        streams.append(stream)
    return queue, streams


@given(specs=stream_specs)
@settings(max_examples=200, **PROPERTY_SETTINGS)
def test_rates_never_exceed_caps(specs):
    _, streams = build_queue(specs)
    for stream in streams:
        if stream.per_stream_cap is not None:
            assert stream.rate <= stream.per_stream_cap * (1 + 1e-9)


@given(specs=stream_specs)
@settings(max_examples=200, **PROPERTY_SETTINGS)
def test_aggregate_within_device_capacity(specs):
    """Per direction, allocated rates never exceed the effective bandwidth
    at the smallest active request size."""
    queue, streams = build_queue(specs)
    for is_write in (False, True):
        group = [s for s in streams if s.is_write == is_write]
        if not group:
            continue
        smallest = min(s.request_size for s in group)
        capacity = queue.device.bandwidth(smallest, is_write)
        assert sum(s.rate for s in group) <= capacity * (1 + 1e-9)


@given(specs=stream_specs)
@settings(max_examples=200, **PROPERTY_SETTINGS)
def test_work_conserving(specs):
    """Either the capacity is fully used or every stream runs at its cap."""
    queue, streams = build_queue(specs)
    for is_write in (False, True):
        group = [s for s in streams if s.is_write == is_write]
        if not group:
            continue
        smallest = min(s.request_size for s in group)
        capacity = queue.device.bandwidth(smallest, is_write)
        used = sum(s.rate for s in group)
        all_capped = all(
            s.per_stream_cap is not None
            and math.isclose(s.rate, s.per_stream_cap, rel_tol=1e-9)
            for s in group
        )
        assert all_capped or math.isclose(used, capacity, rel_tol=1e-6)


@given(specs=stream_specs)
@settings(max_examples=100, **PROPERTY_SETTINGS)
def test_identical_streams_get_identical_rates(specs):
    request_size, cap, is_write = specs[0]
    queue = DeviceQueue(make_ssd())
    streams = [
        IoStream(remaining_bytes=1 * MB, request_size=request_size,
                 is_write=is_write, per_stream_cap=cap)
        for _ in range(6)
    ]
    for stream in streams:
        queue.attach(stream)
    rates = {round(s.rate, 6) for s in streams}
    assert len(rates) == 1


@given(specs=stream_specs)
@settings(max_examples=100, **PROPERTY_SETTINGS)
def test_detach_all_leaves_queue_empty(specs):
    queue, streams = build_queue(specs)
    for stream in streams:
        queue.detach(stream)
    assert queue.num_active == 0
    assert all(s.rate == 0.0 for s in streams)


# -- generic resource invariants under mixed request sizes -----------------

def build_resource(specs):
    """One read DeviceResource holding streams of mixed request sizes."""
    resource = DeviceResource(make_ssd(), is_write=False)
    streams = []
    for request_size, cap, _ in specs:
        stream = SharedStream(
            remaining_bytes=1 * MB, request_size=request_size, per_stream_cap=cap
        )
        resource.attach(stream)
        streams.append(stream)
    return resource, streams


@given(specs=stream_specs)
@settings(max_examples=200, **PROPERTY_SETTINGS)
def test_resource_conservation(specs):
    """Sum of allocated rates never exceeds the capacity at the active
    demand profile (effective bandwidth at the smallest request size)."""
    resource, streams = build_resource(specs)
    capacity = resource.capacity_for(streams)
    assert sum(s.rate for s in streams) <= capacity * (1 + 1e-9)


@given(specs=stream_specs)
@settings(max_examples=200, **PROPERTY_SETTINGS)
def test_resource_caps_respected(specs):
    """No stream is ever allocated more than its software-path cap T."""
    _, streams = build_resource(specs)
    for stream in streams:
        if stream.per_stream_cap is not None:
            assert stream.rate <= stream.per_stream_cap * (1 + 1e-9)


@given(specs=stream_specs, link_gbps=st.floats(min_value=0.1, max_value=100.0))
@settings(max_examples=200, **PROPERTY_SETTINGS)
def test_coupled_conservation_and_caps(specs, link_gbps):
    """Progressive filling keeps every coupled resource within capacity
    and every stream within its cap, under mixed request sizes."""
    disk = DeviceResource(make_ssd(), is_write=False)
    link = LinkResource("nic", link_gbps * 1e9 / 8.0)
    streams = []
    for request_size, cap, crosses_link in specs:
        stream = SharedStream(
            remaining_bytes=1 * MB, request_size=request_size, per_stream_cap=cap
        )
        disk.attach(stream, rebalance=False)
        if crosses_link:
            link.attach(stream, rebalance=False)
        streams.append(stream)
    rebalance_coupled([disk, link])
    for resource in (disk, link):
        if resource.num_active:
            total = sum(s.rate for s in resource.streams)
            assert total <= resource.capacity_for(resource.streams) * (1 + 1e-9)
    for stream in streams:
        if stream.per_stream_cap is not None:
            assert stream.rate <= stream.per_stream_cap * (1 + 1e-9)
        assert stream.rate > 0.0
