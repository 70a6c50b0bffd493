"""Load generator: mix construction, stats, drive."""

import asyncio

import pytest

from repro.service.loadgen import (
    _drive,
    build_queries,
    percentile,
    summarize,
)


class TestBuildQueries:
    def test_deterministic_and_sized(self):
        a = build_queries("svm", distinct=6, duplicates=3)
        b = build_queries("svm", distinct=6, duplicates=3)
        assert a == b
        assert len(a) == 18

    def test_duplicates_are_separated_by_the_distinct_set(self):
        mix = build_queries("svm", distinct=4, duplicates=2)
        # Round-robin layout: the second copy of query 0 arrives after
        # the whole distinct set, not adjacent to the first.
        assert mix[0] == mix[4]
        assert mix[0] != mix[1]

    def test_each_unique_appears_exactly_duplicates_times(self):
        mix = build_queries("svm", distinct=5, duplicates=4)
        keys = [tuple(sorted(q.items())) for q in mix]
        assert all(keys.count(key) == 4 for key in set(keys))


class TestStats:
    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == 3.0  # round(0.5 * 3) = 2
        assert percentile([], 50) == 0.0

    def test_summarize_fields(self):
        summary = summarize([0.001, 0.002, 0.003], wall_seconds=0.5)
        assert summary["queries"] == 3
        assert summary["qps"] == pytest.approx(6.0)
        assert summary["p99_ms"] == pytest.approx(3.0)
        assert summary["max_ms"] == pytest.approx(3.0)

    def test_summarize_zero_wall_is_safe(self):
        assert summarize([], 0.0)["qps"] == 0.0


class TestDrive:
    def test_results_preserve_query_order(self):
        async def scenario():
            seen = []

            async def call(query):
                await asyncio.sleep(0)
                seen.append(query["i"])
                return query["i"] * 10

            queries = [{"i": i} for i in range(20)]
            summary = await _drive(queries, concurrency=4, call=call)
            assert summary["results"] == [i * 10 for i in range(20)]
            assert summary["queries"] == 20
            assert sorted(seen) == list(range(20))

        asyncio.run(scenario())

    def test_concurrency_is_bounded(self):
        async def scenario():
            active = 0
            peak = 0

            async def call(query):
                nonlocal active, peak
                active += 1
                peak = max(peak, active)
                await asyncio.sleep(0.001)
                active -= 1
                return None

            await _drive([{} for _ in range(30)], concurrency=3, call=call)
            assert peak <= 3

        asyncio.run(scenario())
