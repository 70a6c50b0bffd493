"""The unit of demand on a shared rate resource.

A :class:`SharedStream` is one in-flight transfer: some amount of work
(bytes), a request size describing *how* the work is issued (which can
change the capacity a device offers), an optional per-stream cap — the
paper's software-path throughput ``T`` — and the rate the owning
resource(s) currently allocate to it.

Streams are resource-agnostic: the same class rides a disk queue, a
network link, or both at once (``resources`` lists every
:class:`~repro.resources.resource.Resource` the stream is bound to; a
stream bound to several is jointly allocated by progressive filling).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resources.resource import Resource

_stream_ids = itertools.count()

#: A stream with this many bytes or fewer left is done.
DONE_BYTES = 1e-9


@dataclass(slots=True)
class SharedStream:
    """One in-flight transfer on one or more shared resources.

    Attributes
    ----------
    remaining_bytes:
        Work still to move; the simulator decrements this as time advances.
    request_size:
        Block size the stream issues (determines a device's effective
        bandwidth and the aggregate regime; ignored by constant-capacity
        resources such as network links).
    per_stream_cap:
        The software-path cap ``T`` in bytes/s; ``None`` means uncapped
        (limited only by the resources it is bound to).
    rate:
        Current allocated rate in bytes/s, recomputed by the owning
        resource(s) whenever membership changes.
    label:
        Free-form description used in diagnostics (e.g. stall errors).
    """

    remaining_bytes: float
    request_size: float = 1.0
    per_stream_cap: float | None = None
    rate: float = field(default=0.0)
    label: str = ""
    stream_id: int = field(default_factory=lambda: next(_stream_ids))
    #: Resources this stream is currently attached to (managed by
    #: :meth:`Resource.attach` / :meth:`Resource.detach`).
    resources: list[Resource] = field(default_factory=list, repr=False)
    # -- engine bookkeeping (see repro.simulator.engine) -------------------
    #: Simulated time at which ``remaining_bytes`` was last materialized.
    last_update: float = field(default=0.0, repr=False)
    #: Bumped whenever the rate changes; invalidates scheduled events.
    epoch: int = field(default=0, repr=False)
    #: True when the last allocation left the stream at rate 0 with work
    #: remaining (one strike; a second consecutive one is a stall error).
    stalled: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        if self.remaining_bytes < 0:
            raise SimulationError("stream cannot start with negative bytes")
        if self.request_size <= 0:
            raise SimulationError("stream request size must be positive")
        if self.per_stream_cap is not None and self.per_stream_cap <= 0:
            raise SimulationError("per-stream cap must be positive when set")

    @property
    def done(self) -> bool:
        """True when the transfer has no bytes left."""
        return self.remaining_bytes <= DONE_BYTES

    def seconds_to_finish(self) -> float:
        """Time to drain at the current rate (inf when stalled)."""
        if self.done:
            return 0.0
        if self.rate <= 0.0:
            return float("inf")
        return self.remaining_bytes / self.rate

    def describe(self) -> str:
        """Diagnostic string naming the stream's resources and request size."""
        where = ", ".join(r.name for r in self.resources) or "unbound"
        head = f"{self.label or f'stream {self.stream_id}'} on {where}"
        return f"{head} (request size {self.request_size:.0f}B)"
