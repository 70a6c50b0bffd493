"""Unit tests for the generic shared-resource contention layer."""

import pytest

from repro.errors import SimulationError
from repro.resources import (
    DeviceResource,
    LinkResource,
    Resource,
    ResourceRegistry,
    SharedStream,
    SlotPool,
    rebalance_coupled,
)
from repro.storage.device import make_hdd, make_ssd
from repro.units import KB, MB


class TestSharedStream:
    def test_validation(self):
        with pytest.raises(SimulationError):
            SharedStream(remaining_bytes=-1.0)
        with pytest.raises(SimulationError):
            SharedStream(remaining_bytes=1.0, request_size=0.0)
        with pytest.raises(SimulationError):
            SharedStream(remaining_bytes=1.0, per_stream_cap=0.0)

    def test_seconds_to_finish(self):
        stream = SharedStream(remaining_bytes=10 * MB, rate=1 * MB)
        assert stream.seconds_to_finish() == pytest.approx(10.0)
        stream.rate = 0.0
        assert stream.seconds_to_finish() == float("inf")
        stream.remaining_bytes = 0.0
        assert stream.done
        assert stream.seconds_to_finish() == 0.0

    def test_describe_names_resources(self):
        resource = Resource("the-disk", 100 * MB)
        stream = SharedStream(remaining_bytes=1 * MB, request_size=30 * KB)
        resource.attach(stream)
        text = stream.describe()
        assert "the-disk" in text
        assert "30720" in text  # request size in bytes


class TestResource:
    def test_waterfill_fair_share(self):
        resource = Resource("r", 90.0)
        streams = [SharedStream(remaining_bytes=1.0) for _ in range(3)]
        for stream in streams:
            resource.attach(stream)
        assert [s.rate for s in streams] == [pytest.approx(30.0)] * 3

    def test_waterfill_cap_surplus_redistributed(self):
        resource = Resource("r", 90.0)
        capped = SharedStream(remaining_bytes=1.0, per_stream_cap=10.0)
        free_a = SharedStream(remaining_bytes=1.0)
        free_b = SharedStream(remaining_bytes=1.0)
        for stream in (capped, free_a, free_b):
            resource.attach(stream)
        assert capped.rate == pytest.approx(10.0)
        assert free_a.rate == pytest.approx(40.0)
        assert free_b.rate == pytest.approx(40.0)

    def test_duplicate_attach_rejected(self):
        resource = Resource("r", 1.0)
        stream = SharedStream(remaining_bytes=1.0)
        resource.attach(stream)
        with pytest.raises(SimulationError, match="already attached"):
            resource.attach(stream)

    def test_detach_unknown_rejected(self):
        resource = Resource("r", 1.0)
        with pytest.raises(SimulationError, match="not attached"):
            resource.detach(SharedStream(remaining_bytes=1.0))

    def test_detach_zeroes_rate_when_unbound(self):
        resource = Resource("r", 10.0)
        stream = SharedStream(remaining_bytes=1.0)
        resource.attach(stream)
        assert stream.rate == pytest.approx(10.0)
        resource.detach(stream)
        assert stream.rate == 0.0
        assert stream.resources == []

    def test_callable_capacity_sees_demand_profile(self):
        resource = Resource("r", lambda streams: 10.0 * len(streams))
        streams = [SharedStream(remaining_bytes=1.0) for _ in range(4)]
        for stream in streams:
            resource.attach(stream)
        # capacity 40 over 4 streams -> 10 each
        assert all(s.rate == pytest.approx(10.0) for s in streams)

    def test_bandwidth_at_probes_single_stream(self):
        device = make_ssd()
        resource = DeviceResource(device, is_write=False)
        assert resource.bandwidth_at(30 * KB) == pytest.approx(
            device.bandwidth(30 * KB, False)
        )


class TestDeviceResource:
    def test_capacity_at_smallest_active_request(self):
        device = make_hdd()
        resource = DeviceResource(device, is_write=False)
        big = SharedStream(remaining_bytes=1 * MB, request_size=128 * MB)
        small = SharedStream(remaining_bytes=1 * MB, request_size=30 * KB)
        resource.attach(big)
        assert resource.aggregate_capacity() == pytest.approx(
            device.bandwidth(128 * MB, False)
        )
        resource.attach(small)
        assert resource.aggregate_capacity() == pytest.approx(
            device.bandwidth(30 * KB, False)
        )

    def test_capacity_follows_a_changing_demand_profile_exactly(self):
        # The last (request size, bandwidth) lookup is memoized; a profile
        # that returns to an earlier size must still read the curve anew.
        device = make_hdd()
        resource = DeviceResource(device, is_write=True)
        for size in (1 * MB, 1 * MB, 30 * KB, 30 * KB, 1 * MB, 4 * KB, 1 * MB):
            stream = SharedStream(remaining_bytes=1 * MB, request_size=size)
            assert resource.capacity_for([stream]) == device.bandwidth(size, True)
        assert resource.capacity_for([]) == 0.0

    def test_directions_are_independent(self):
        device = make_ssd()
        read = DeviceResource(device, is_write=False)
        write = DeviceResource(device, is_write=True)
        r = SharedStream(remaining_bytes=1 * MB, request_size=1 * MB)
        w = SharedStream(remaining_bytes=1 * MB, request_size=1 * MB)
        read.attach(r)
        write.attach(w)
        assert r.rate == pytest.approx(device.bandwidth(1 * MB, False))
        assert w.rate == pytest.approx(device.bandwidth(1 * MB, True))


class TestLinkResource:
    def test_constant_capacity(self):
        link = LinkResource("nic", 125 * MB)
        streams = [SharedStream(remaining_bytes=1.0) for _ in range(5)]
        for stream in streams:
            link.attach(stream)
        assert all(s.rate == pytest.approx(25 * MB) for s in streams)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(SimulationError):
            LinkResource("nic", 0.0)


class TestSlotPool:
    def test_acquire_release(self):
        pool = SlotPool("cores", 2)
        assert pool.free == 2
        pool.acquire()
        pool.acquire()
        assert pool.free == 0
        with pytest.raises(SimulationError, match="exhausted"):
            pool.acquire()
        pool.release()
        assert pool.free == 1

    def test_release_without_acquire_rejected(self):
        pool = SlotPool("cores", 1)
        with pytest.raises(SimulationError):
            pool.release()

    def test_needs_positive_total(self):
        with pytest.raises(SimulationError):
            SlotPool("cores", 0)


class TestRebalanceCoupled:
    def test_matches_waterfill_for_single_resource(self):
        specs = [(None,), (50.0,), (None,), (5.0,)]
        solo = Resource("solo", 120.0)
        solo_streams = [
            SharedStream(remaining_bytes=1.0, per_stream_cap=cap)
            for (cap,) in specs
        ]
        for stream in solo_streams:
            solo.attach(stream, rebalance=False)
        solo.rebalance()

        coupled = Resource("coupled", 120.0)
        coupled_streams = [
            SharedStream(remaining_bytes=1.0, per_stream_cap=cap)
            for (cap,) in specs
        ]
        for stream in coupled_streams:
            coupled.attach(stream, rebalance=False)
        rebalance_coupled([coupled])

        for a, b in zip(solo_streams, coupled_streams):
            assert b.rate == pytest.approx(a.rate)

    def test_link_bound_stream_limits_only_itself(self):
        """A remote stream throttled by a slow NIC frees disk bandwidth
        for the local stream — max-min fairness across the couple."""
        disk = Resource("disk", 100.0)
        link = Resource("nic", 10.0)
        local = SharedStream(remaining_bytes=1.0)
        remote = SharedStream(remaining_bytes=1.0)
        disk.attach(local, rebalance=False)
        disk.attach(remote, rebalance=False)
        link.attach(remote, rebalance=False)
        rebalance_coupled([disk, link])
        assert remote.rate == pytest.approx(10.0)  # NIC-bound
        assert local.rate == pytest.approx(90.0)  # picks up the slack

    def test_fast_link_changes_nothing(self):
        disk = Resource("disk", 100.0)
        link = Resource("nic", 1e9)
        a = SharedStream(remaining_bytes=1.0)
        b = SharedStream(remaining_bytes=1.0)
        disk.attach(a, rebalance=False)
        disk.attach(b, rebalance=False)
        link.attach(b, rebalance=False)
        rebalance_coupled([disk, link])
        assert a.rate == pytest.approx(50.0)
        assert b.rate == pytest.approx(50.0)


class TestResourceRegistry:
    def test_register_get_find(self):
        registry = ResourceRegistry()
        resource = Resource("r", 1.0)
        registry.register(("a", 1), resource)
        assert registry.get(("a", 1)) is resource
        assert registry.find(("missing",)) is None
        assert ("a", 1) in registry
        assert len(registry) == 1

    def test_duplicate_key_rejected(self):
        registry = ResourceRegistry()
        registry.register("k", Resource("r", 1.0))
        with pytest.raises(SimulationError, match="already registered"):
            registry.register("k", Resource("r2", 1.0))

    def test_unknown_key_rejected(self):
        with pytest.raises(SimulationError, match="no resource registered"):
            ResourceRegistry().get("nope")

    def test_for_devices_exposes_model_bandwidths(self):
        ssd = make_ssd()
        hdd = make_hdd()
        registry = ResourceRegistry.for_devices(
            {"hdfs": ssd, "local": hdd}, network_bandwidth=125 * MB
        )
        assert registry.bandwidth(("role", "hdfs", False), 30 * KB) == (
            pytest.approx(ssd.bandwidth(30 * KB, False))
        )
        assert registry.bandwidth(("role", "local", True), 1 * MB) == (
            pytest.approx(hdd.bandwidth(1 * MB, True))
        )
        assert registry.bandwidth(("network",), 30 * KB) == pytest.approx(125 * MB)

    def test_for_devices_without_network(self):
        registry = ResourceRegistry.for_devices({"hdfs": make_ssd()})
        assert ("network",) not in registry
