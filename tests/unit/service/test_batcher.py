"""MicroBatcher: size bound, next-iteration flush, counters."""

import asyncio

import pytest

from repro.errors import ConfigurationError
from repro.service.batcher import MicroBatcher


def run(coro):
    return asyncio.run(coro)


class TestBounds:
    def test_bad_batch_size_rejected(self):
        with pytest.raises(ConfigurationError, match="max_batch"):
            MicroBatcher(lambda entries: None, max_batch=0)


class TestFlushing:
    def test_size_bound_flushes_synchronously(self):
        async def scenario():
            flushes = []
            batcher = MicroBatcher(flushes.append, max_batch=3)
            batcher.add("a")
            batcher.add("b")
            assert flushes == []
            batcher.add("c")  # size bound trips: no waiting for the loop
            assert flushes == [["a", "b", "c"]]
            assert len(batcher) == 0

        run(scenario())

    def test_lone_entry_flushes_on_the_next_iteration(self):
        async def scenario():
            flushes = []
            batcher = MicroBatcher(flushes.append, max_batch=64)
            batcher.add("lonely")
            assert flushes == []
            await asyncio.sleep(0)  # one loop iteration, no clock
            assert flushes == [["lonely"]]

        run(scenario())

    def test_entries_added_within_one_iteration_share_a_flush(self):
        async def scenario():
            flushes = []
            batcher = MicroBatcher(flushes.append, max_batch=64)

            async def handler(entry):
                batcher.add(entry)

            # Three handlers ready in one iteration, as the handlers of
            # concurrent requests are: the first schedules the flush,
            # which runs on the iteration after.
            tasks = [asyncio.create_task(handler(n)) for n in range(3)]
            await asyncio.sleep(0)
            assert len(batcher) == 3 and flushes == []
            await asyncio.sleep(0)
            assert flushes == [[0, 1, 2]]
            await asyncio.gather(*tasks)

        run(scenario())

    def test_flush_preserves_arrival_order(self):
        async def scenario():
            flushes = []
            batcher = MicroBatcher(flushes.append, max_batch=2)
            for entry in range(6):
                batcher.add(entry)
            assert flushes == [[0, 1], [2, 3], [4, 5]]

        run(scenario())

    def test_close_flushes_the_remainder(self):
        async def scenario():
            flushes = []
            batcher = MicroBatcher(flushes.append, max_batch=10)
            batcher.add("x")
            batcher.close()
            assert flushes == [["x"]]
            batcher.close()  # idempotent on empty
            assert flushes == [["x"]]

        run(scenario())

    def test_stats_track_widths(self):
        async def scenario():
            batcher = MicroBatcher(lambda entries: None, max_batch=2)
            for entry in range(5):
                batcher.add(entry)
            stats = batcher.stats()
            assert stats["flushed"] == 2
            assert stats["entries"] == 4
            assert stats["max_size"] == 2
            assert stats["pending"] == 1

        run(scenario())
