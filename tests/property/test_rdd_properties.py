"""Property-based tests: the functional engine vs. plain-Python reference."""

from collections import Counter, defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spark.context import DoppioContext

from tests.properties.strategies import PROPERTY_SETTINGS

keys = st.integers(min_value=-20, max_value=20)
values = st.integers(min_value=-1000, max_value=1000)
pairs = st.lists(st.tuples(keys, values), max_size=200)
ints = st.lists(st.integers(min_value=-10_000, max_value=10_000), max_size=300)
partition_counts = st.integers(min_value=1, max_value=12)


@given(data=ints, slices=partition_counts)
@settings(max_examples=100, **PROPERTY_SETTINGS)
def test_collect_preserves_order(data, slices):
    sc = DoppioContext()
    assert sc.parallelize(data, slices).collect() == data


@given(data=ints, slices=partition_counts)
@settings(max_examples=100, **PROPERTY_SETTINGS)
def test_map_matches_builtin(data, slices):
    sc = DoppioContext()
    result = sc.parallelize(data, slices).map(lambda x: x * 3 + 1).collect()
    assert result == [x * 3 + 1 for x in data]


@given(data=ints, slices=partition_counts)
@settings(max_examples=100, **PROPERTY_SETTINGS)
def test_filter_matches_builtin(data, slices):
    sc = DoppioContext()
    result = sc.parallelize(data, slices).filter(lambda x: x % 2 == 0).collect()
    assert result == [x for x in data if x % 2 == 0]


@given(data=pairs, slices=partition_counts, reducers=partition_counts)
@settings(max_examples=100, **PROPERTY_SETTINGS)
def test_group_by_key_matches_reference(data, slices, reducers):
    sc = DoppioContext()
    grouped = dict(
        sc.parallelize(data, slices).group_by_key(reducers).collect()
    )
    reference = defaultdict(list)
    for key, value in data:
        reference[key].append(value)
    assert set(grouped) == set(reference)
    for key in reference:
        assert sorted(grouped[key]) == sorted(reference[key])


@given(data=pairs, slices=partition_counts)
@settings(max_examples=100, **PROPERTY_SETTINGS)
def test_reduce_by_key_matches_reference(data, slices):
    sc = DoppioContext()
    reduced = dict(
        sc.parallelize(data, slices).reduce_by_key(lambda a, b: a + b).collect()
    )
    reference = defaultdict(int)
    for key, value in data:
        reference[key] += value
    assert reduced == dict(reference)


@given(data=ints, slices=partition_counts, target=partition_counts)
@settings(max_examples=100, **PROPERTY_SETTINGS)
def test_repartition_preserves_multiset(data, slices, target):
    sc = DoppioContext()
    result = sc.parallelize(data, slices).repartition(target).collect()
    assert Counter(result) == Counter(data)


@given(data=pairs, slices=partition_counts)
@settings(max_examples=50, **PROPERTY_SETTINGS)
def test_sort_by_key_globally_sorted(data, slices):
    sc = DoppioContext()
    result = sc.parallelize(data, slices).sort_by_key(4).collect()
    result_keys = [key for key, _ in result]
    assert result_keys == sorted(key for key, _ in data)


@given(data=ints, slices=partition_counts)
@settings(max_examples=50, **PROPERTY_SETTINGS)
def test_count_matches_len(data, slices):
    sc = DoppioContext()
    assert sc.parallelize(data, slices).count() == len(data)


@given(data=ints, slices=partition_counts)
@settings(max_examples=50, **PROPERTY_SETTINGS)
def test_cache_transparent(data, slices):
    sc = DoppioContext()
    rdd = sc.parallelize(data, slices).map(lambda x: -x).cache()
    first = rdd.collect()
    second = rdd.collect()
    assert first == second == [-x for x in data]
