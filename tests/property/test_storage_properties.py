"""Property-based tests for HDFS / Spark-local storage invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.device import make_hdd
from repro.storage.hdfs import Hdfs
from repro.storage.local import SparkLocalDir
from repro.units import GB, MB, TB

from tests.properties.strategies import PROPERTY_SETTINGS

file_operations = st.lists(
    st.tuples(
        st.sampled_from(["put", "delete"]),
        st.integers(min_value=0, max_value=12),  # path index
        st.floats(min_value=0.0, max_value=200 * GB),
    ),
    max_size=40,
)


@given(ops=file_operations)
@settings(max_examples=150, **PROPERTY_SETTINGS)
def test_hdfs_allocation_consistent_with_catalog(ops):
    devices = [make_hdd(name=f"dn{i}", capacity_bytes=2 * TB) for i in range(3)]
    hdfs = Hdfs(devices=devices, block_size=128 * MB, replication=2)
    for op, index, size in ops:
        path = f"/f{index}"
        try:
            if op == "put":
                hdfs.put(path, size)
            else:
                hdfs.delete(path)
        except StorageError:
            pass
        # Invariant: physical usage == logical bytes * replication,
        # spread evenly.
        expected = hdfs.total_stored_bytes * hdfs.replication / len(devices)
        for device in devices:
            assert abs(device.used_bytes - expected) < 1.0


@given(ops=file_operations)
@settings(max_examples=150, **PROPERTY_SETTINGS)
def test_hdfs_devices_never_exceed_capacity(ops):
    devices = [make_hdd(name=f"dn{i}", capacity_bytes=500 * GB) for i in range(2)]
    hdfs = Hdfs(devices=devices, replication=2)
    for op, index, size in ops:
        path = f"/f{index}"
        try:
            if op == "put":
                hdfs.put(path, size)
            else:
                hdfs.delete(path)
        except StorageError:
            pass
        for device in devices:
            assert device.used_bytes <= device.capacity_bytes + 1e-6


@given(ops=file_operations)
@settings(max_examples=150, **PROPERTY_SETTINGS)
def test_local_dir_usage_matches_files(ops):
    local = SparkLocalDir(make_hdd(capacity_bytes=2 * TB))
    # Float tolerance must scale with the *largest* value that entered the
    # running sum: allocate-then-release of a huge file leaves absorption
    # residue on the order of its ulp, independent of the remaining total.
    churned = 0.0
    for op, index, size in ops:
        name = f"block-{index}"
        kind = SparkLocalDir.SHUFFLE if index % 2 else SparkLocalDir.PERSIST
        try:
            if op == "put":
                local.write(name, size, kind)
                churned = max(churned, size)
            else:
                local.delete(name)
        except StorageError:
            pass
        tolerance = max(1e-9 * churned, 1e-6)
        catalog_total = sum(f.size_bytes for f in local.list_files())
        assert abs(local.device.used_bytes - catalog_total) <= tolerance
        split_total = local.used_bytes_of("shuffle") + local.used_bytes_of(
            "persist"
        )
        assert abs(split_total - local.used_bytes) <= tolerance


@given(
    sizes=st.lists(st.floats(min_value=1.0, max_value=100 * GB), min_size=1,
                   max_size=10)
)
@settings(max_examples=100, **PROPERTY_SETTINGS)
def test_hdfs_block_count_covers_file(sizes):
    devices = [make_hdd(name="dn0", capacity_bytes=100 * TB)]
    hdfs = Hdfs(devices=devices, replication=1)
    for index, size in enumerate(sizes):
        hdfs_file = hdfs.put(f"/f{index}", size)
        blocks = hdfs_file.num_blocks
        assert blocks * hdfs.block_size >= size
        assert (blocks - 1) * hdfs.block_size < size or blocks == 1
