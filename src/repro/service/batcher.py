"""Next-iteration micro-batcher for model-only queries.

Predict queries that arrive together should cross the array kernel
together: one :class:`~repro.model.arrays.CandidateBatch` of 32
candidates costs about 67 µs against 12 µs for one (the width table in
``docs/PERFORMANCE.md``).  A query that arrives alone must not wait for
company, though.  The batcher accumulates pending predict queries and
flushes them as one batch when either bound trips:

- **size** — ``max_batch`` pending entries flush immediately (a full
  batch gains nothing by waiting);
- **next iteration** — the first entry of a batch schedules the flush
  with ``loop.call_soon``, so the batch holds every entry that handlers
  running in the same event-loop iteration add, and nothing waits on a
  clock.

The batch window therefore comes from what is ready on the loop, not
from a setting: concurrent clients whose requests land together share a
kernel call, and a lone query is scored on the next iteration.

The flush callback runs on the event loop, and the batcher never
reorders entries: flushes preserve arrival order, which keeps result
attribution positional and deterministic.
"""

from __future__ import annotations

import asyncio
from collections.abc import Callable, Sequence
from typing import Any

from repro.errors import ConfigurationError

__all__ = ["MicroBatcher"]


class MicroBatcher:
    """Accumulate entries; flush by size or on the next loop iteration."""

    def __init__(
        self,
        flush: Callable[[Sequence[Any]], None],
        max_batch: int = 32,
    ) -> None:
        if max_batch < 1:
            raise ConfigurationError(
                f"max_batch must be at least 1, got {max_batch}"
            )
        self._flush_fn = flush
        self.max_batch = max_batch
        self._pending: list[Any] = []
        self._scheduled: asyncio.Handle | None = None
        # Observability: the coalescing story ``/stats`` reports.
        self.batches_flushed = 0
        self.entries_flushed = 0
        self.max_batch_seen = 0

    def __len__(self) -> int:
        return len(self._pending)

    def add(self, entry: Any) -> None:
        """Queue one entry; may flush synchronously on the size bound."""
        self._pending.append(entry)
        if len(self._pending) >= self.max_batch:
            self.flush()
        elif self._scheduled is None:
            self._scheduled = asyncio.get_running_loop().call_soon(self.flush)

    def flush(self) -> None:
        """Flush whatever is pending now (idempotent when empty)."""
        if self._scheduled is not None:
            self._scheduled.cancel()
            self._scheduled = None
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        self.batches_flushed += 1
        self.entries_flushed += len(pending)
        self.max_batch_seen = max(self.max_batch_seen, len(pending))
        self._flush_fn(pending)

    def close(self) -> None:
        """Cancel the scheduled flush and flush the remainder."""
        self.flush()

    def stats(self) -> dict:
        """Counters for ``/stats`` and ``repro loadgen``."""
        return {
            "flushed": self.batches_flushed,
            "entries": self.entries_flushed,
            "max_size": self.max_batch_seen,
            "pending": len(self._pending),
            "max_batch": self.max_batch,
        }
