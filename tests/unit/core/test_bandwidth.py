"""Unit tests for the effective-bandwidth table."""

import math

import pytest

from repro.core.bandwidth import EffectiveBandwidthTable
from repro.errors import ModelError
from repro.units import KB, MB


@pytest.fixture()
def table():
    return EffectiveBandwidthTable(
        {4 * KB: 2.6 * MB, 30 * KB: 15 * MB, 128 * MB: 142 * MB}, name="t"
    )


class TestConstruction:
    def test_anchors_sorted(self, table):
        sizes = [size for size, _ in table.anchors]
        assert sizes == sorted(sizes)

    def test_accepts_mapping_and_iterable(self):
        from_map = EffectiveBandwidthTable({1.0: 10.0, 2.0: 20.0})
        from_pairs = EffectiveBandwidthTable([(2.0, 20.0), (1.0, 10.0)])
        assert from_map.anchors == from_pairs.anchors

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            EffectiveBandwidthTable({})

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ModelError):
            EffectiveBandwidthTable({0.0: 10.0})

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ModelError):
            EffectiveBandwidthTable({1.0: -5.0})

    def test_duplicate_sizes_rejected(self):
        with pytest.raises(ModelError):
            EffectiveBandwidthTable([(1.0, 10.0), (1.0, 20.0)])

    def test_repr_mentions_name(self, table):
        assert "t" in repr(table)


class TestLookup:
    def test_exact_anchor(self, table):
        assert table.bandwidth(30 * KB) == pytest.approx(15 * MB)

    def test_clamped_below(self, table):
        assert table.bandwidth(1 * KB) == pytest.approx(2.6 * MB)

    def test_clamped_above(self, table):
        assert table.bandwidth(1024 * MB) == pytest.approx(142 * MB)

    def test_log_log_interpolation(self, table):
        # Midpoint in log space between 30 KB and 128 MB anchors.
        mid = math.sqrt(30 * KB * 128 * MB)
        expected = math.sqrt(15 * MB * 142 * MB)
        assert table.bandwidth(mid) == pytest.approx(expected, rel=1e-9)

    def test_monotone_between_increasing_anchors(self, table):
        previous = 0.0
        for size in (4 * KB, 8 * KB, 30 * KB, 1 * MB, 32 * MB, 128 * MB):
            current = table.bandwidth(size)
            assert current >= previous
            previous = current

    def test_nonpositive_request_rejected(self, table):
        with pytest.raises(ModelError):
            table.bandwidth(0.0)

    def test_iops_is_bandwidth_over_size(self, table):
        assert table.iops(30 * KB) == pytest.approx(15 * MB / (30 * KB))

    def test_transfer_time(self, table):
        assert table.transfer_time(30 * MB, 30 * KB) == pytest.approx(2.0)

    def test_transfer_time_zero_bytes(self, table):
        assert table.transfer_time(0.0, 30 * KB) == 0.0

    def test_transfer_time_negative_rejected(self, table):
        with pytest.raises(ModelError):
            table.transfer_time(-1.0, 30 * KB)

    def test_peak_and_range_properties(self, table):
        assert table.peak_bandwidth == pytest.approx(142 * MB)
        assert table.min_request_size == pytest.approx(4 * KB)
        assert table.max_request_size == pytest.approx(128 * MB)


class TestDerivedTables:
    def test_gap_versus(self, table):
        fast = EffectiveBandwidthTable(
            [(size, bandwidth * 32.0) for size, bandwidth in table.anchors]
        )
        assert fast.gap_versus(table, 30 * KB) == pytest.approx(32.0)


class TestPaperAnchors:
    """The specific numbers Section III-C quotes."""

    def test_hdd_ssd_gap_30kb_is_32x(self):
        from repro.storage.device import make_hdd, make_ssd

        hdd, ssd = make_hdd(), make_ssd()
        gap = ssd.read_table.gap_versus(hdd.read_table, 30 * KB)
        assert gap == pytest.approx(32.0, rel=0.01)

    def test_hdd_ssd_gap_4kb_is_181x(self):
        from repro.storage.device import make_hdd, make_ssd

        hdd, ssd = make_hdd(), make_ssd()
        gap = ssd.read_table.gap_versus(hdd.read_table, 4 * KB)
        assert gap == pytest.approx(181.0, rel=0.01)

    def test_hdd_ssd_gap_128mb_is_3_7x(self):
        from repro.storage.device import make_hdd, make_ssd

        hdd, ssd = make_hdd(), make_ssd()
        gap = ssd.read_table.gap_versus(hdd.read_table, 128 * MB)
        assert gap == pytest.approx(3.7, rel=0.01)

    def test_hdd_30kb_bandwidth_is_15mbs(self):
        from repro.storage.device import make_hdd

        assert make_hdd().read_bandwidth(30 * KB) == pytest.approx(15 * MB)

    def test_ssd_30kb_bandwidth_is_480mbs(self):
        from repro.storage.device import make_ssd

        assert make_ssd().read_bandwidth(30 * KB) == pytest.approx(480 * MB)
