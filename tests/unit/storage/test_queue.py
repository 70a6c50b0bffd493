"""Unit tests for a storage device's I/O queues.

Each direction of a device is one
:class:`~repro.resources.resource.DeviceResource`; its water-filling
gives every stream ``min(T, BW / k)`` and puts the paper's break point
at ``b = BW / T``.
"""

import pytest

from repro.errors import SimulationError
from repro.resources import DeviceResource, SharedStream
from repro.units import KB, MB


def stream(bytes_=100 * MB, rs=30 * KB, cap=None):
    return SharedStream(
        remaining_bytes=bytes_, request_size=rs, per_stream_cap=cap
    )


class TestWaterFilling:
    def test_single_uncapped_stream_gets_device_bandwidth(self, ssd):
        queue = DeviceResource(ssd, is_write=False)
        s = stream()
        queue.attach(s)
        assert s.rate == pytest.approx(ssd.read_bandwidth(30 * KB))

    def test_below_break_point_everyone_gets_cap(self, ssd):
        # b = BW/T = 480/60 = 8: with 4 capped streams, no contention.
        queue = DeviceResource(ssd, is_write=False)
        streams = [stream(cap=60 * MB) for _ in range(4)]
        for s in streams:
            queue.attach(s)
        for s in streams:
            assert s.rate == pytest.approx(60 * MB)

    def test_above_break_point_fair_share(self, ssd):
        # 16 capped streams on 480 MB/s -> 30 MB/s each (below the 60 cap).
        queue = DeviceResource(ssd, is_write=False)
        streams = [stream(cap=60 * MB) for _ in range(16)]
        for s in streams:
            queue.attach(s)
        for s in streams:
            assert s.rate == pytest.approx(30 * MB)

    def test_exactly_break_point(self, ssd):
        queue = DeviceResource(ssd, is_write=False)
        streams = [stream(cap=60 * MB) for _ in range(8)]
        for s in streams:
            queue.attach(s)
        for s in streams:
            assert s.rate == pytest.approx(60 * MB)

    def test_mixed_caps_surplus_redistribution(self, ssd):
        queue = DeviceResource(ssd, is_write=False)
        slow = stream(cap=10 * MB)
        fast = stream(cap=1000 * MB)
        queue.attach(slow)
        queue.attach(fast)
        assert slow.rate == pytest.approx(10 * MB)
        assert fast.rate == pytest.approx(480 * MB - 10 * MB)

    def test_detach_rebalances(self, ssd):
        queue = DeviceResource(ssd, is_write=False)
        streams = [stream(cap=60 * MB) for _ in range(16)]
        for s in streams:
            queue.attach(s)
        for s in streams[:8]:
            queue.detach(s)
        for s in streams[8:]:
            assert s.rate == pytest.approx(60 * MB)

    def test_reads_and_writes_independent_pools(self, ssd):
        reads = DeviceResource(ssd, is_write=False)
        writes = DeviceResource(ssd, is_write=True)
        reader = stream()
        writer = stream()
        reads.attach(reader)
        writes.attach(writer)
        assert reader.rate == pytest.approx(ssd.read_bandwidth(30 * KB))
        assert writer.rate == pytest.approx(ssd.write_bandwidth(30 * KB))

    def test_smallest_request_size_sets_capacity(self, hdd):
        # Mixing a 30 KB stream with a 128 MB stream drags the aggregate
        # down to the seek-dominated regime.
        queue = DeviceResource(hdd, is_write=False)
        small = stream(rs=30 * KB)
        large = stream(rs=128 * MB)
        queue.attach(small)
        queue.attach(large)
        total = small.rate + large.rate
        assert total == pytest.approx(hdd.read_bandwidth(30 * KB))


class TestAttachDetachErrors:
    def test_double_attach(self, ssd):
        queue = DeviceResource(ssd, is_write=False)
        s = stream()
        queue.attach(s)
        with pytest.raises(SimulationError):
            queue.attach(s)

    def test_detach_unknown(self, ssd):
        queue = DeviceResource(ssd, is_write=False)
        with pytest.raises(SimulationError):
            queue.detach(stream())

    def test_num_active_tracking(self, ssd):
        queue = DeviceResource(ssd, is_write=False)
        s1, s2 = stream(), stream()
        queue.attach(s1)
        queue.attach(s2)
        assert queue.num_active == 2
        queue.detach(s1)
        assert queue.num_active == 1
        assert s1.rate == 0.0

    def test_aggregate_capacity_reporting(self, hdd):
        queue = DeviceResource(hdd, is_write=False)
        assert queue.aggregate_capacity() == 0.0
        queue.attach(stream(rs=30 * KB))
        assert queue.aggregate_capacity() == pytest.approx(15 * MB)
