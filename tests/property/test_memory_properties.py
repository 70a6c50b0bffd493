"""Property-based tests for the LRU storage-memory manager."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spark.memory import StorageMemoryManager

from tests.properties.strategies import PROPERTY_SETTINGS

operations = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 30),
                  st.floats(min_value=0.0, max_value=150.0)),
        st.tuples(st.just("get"), st.integers(0, 30), st.just(0.0)),
        st.tuples(st.just("remove"), st.integers(0, 30), st.just(0.0)),
    ),
    max_size=80,
)


@given(ops=operations)
@settings(max_examples=200, **PROPERTY_SETTINGS)
def test_capacity_never_exceeded(ops):
    pool = StorageMemoryManager(100.0)
    for op, key, size in ops:
        if op == "put":
            pool.put(f"b{key}", size)
        elif op == "get":
            pool.get(f"b{key}")
        else:
            pool.remove(f"b{key}")
        assert pool.used_bytes <= pool.capacity_bytes + 1e-9


@given(ops=operations)
@settings(max_examples=200, **PROPERTY_SETTINGS)
def test_eviction_accounting_conserves_bytes(ops):
    """Bytes put == bytes resident + bytes evicted + bytes removed/rejected."""
    pool = StorageMemoryManager(100.0)
    sizes: dict[str, float] = {}
    evicted_total = 0.0
    removed_total = 0.0
    rejected_total = 0.0
    for op, key, size in ops:
        block = f"b{key}"
        if op == "put":
            already = pool.contains(block)
            events = pool.put(block, size)
            evicted_total += sum(e.size_bytes for e in events)
            if not already:
                if pool.contains(block):
                    sizes[block] = size
                else:
                    rejected_total += size
        elif op == "remove":
            if pool.remove(block):
                removed_total += sizes.pop(block, 0.0)
        else:
            pool.get(block)
    resident = pool.used_bytes
    total_put = sum(
        size for op, _, size in ops if op == "put"
    )
    # Every put byte is either resident, evicted, explicitly removed,
    # rejected (too big / duplicate), or was a duplicate re-put.
    assert resident <= total_put + 1e-9
    assert evicted_total + removed_total + rejected_total <= total_put + 1e-9


@given(ops=operations)
@settings(max_examples=200, **PROPERTY_SETTINGS)
def test_evicted_blocks_are_not_resident(ops):
    pool = StorageMemoryManager(100.0)
    for op, key, size in ops:
        block = f"b{key}"
        if op == "put":
            events = pool.put(block, size)
            for event in events:
                assert not pool.contains(event.block_id)
        elif op == "get":
            pool.get(block)
        else:
            pool.remove(block)


@given(ops=operations)
@settings(max_examples=100, **PROPERTY_SETTINGS)
def test_lru_order_is_consistent(ops):
    """cached_blocks() always lists each resident block exactly once."""
    pool = StorageMemoryManager(100.0)
    for op, key, size in ops:
        block = f"b{key}"
        if op == "put":
            pool.put(block, size)
        elif op == "get":
            pool.get(block)
        else:
            pool.remove(block)
        listed = pool.cached_blocks()
        assert len(listed) == len(set(listed))
        for name in listed:
            assert pool.contains(name)
