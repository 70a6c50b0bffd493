"""Rate and slot resources: the mechanism behind ``b = BW / T``.

When several executor cores issue demand against the same resource, each
stream is limited twice:

1. by its own software path — decompression, deserialization, syscall
   overhead — captured as a per-stream cap (the paper's ``T``); and
2. by the resource — the aggregate of all streams cannot exceed its
   capacity at the active demand profile (for a disk: the effective
   bandwidth at the smallest active request size).

A :class:`Resource` allocates rates by *water-filling*: capacity is
divided equally, streams that cannot use their share (cap < fair share)
donate the surplus to the others.  With ``k`` identical streams this
yields exactly ``min(T, capacity / k)`` per stream — so contention
appears precisely when ``k > capacity / T = b``, the paper's break point.

A stream bound to several resources at once (a remote shuffle read
crossing a network link *and* a disk) is allocated by
:func:`rebalance_coupled` — progressive filling, the max-min-fair
generalization of water-filling to coupled resources.  With a single
resource and singly-bound streams the two algorithms coincide, and
:meth:`Resource.rebalance` keeps the original arithmetic so defaults
reproduce historical results exactly.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import TYPE_CHECKING

from repro.errors import SimulationError
from repro.resources.stream import SharedStream

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.device import StorageDevice

#: Relative slack for freeze comparisons in progressive filling.
_FILL_EPS = 1e-12


class Resource:
    """A shared capacity dividing its rate among attached streams.

    Parameters
    ----------
    name:
        Diagnostic label (e.g. ``"slave-0-local-ssd:read"``).
    capacity:
        Either a constant capacity in bytes/s, or a callable mapping the
        list of active streams (the *demand profile*) to a capacity —
        how a disk's effective bandwidth depends on the request sizes in
        flight.
    """

    def __init__(
        self,
        name: str,
        capacity: float | Callable[[list[SharedStream]], float],
    ) -> None:
        self.name = name
        self._capacity = capacity
        self._streams: dict[int, SharedStream] = {}
        #: Attached streams per request size.  Every attach and detach
        #: keeps it current: :meth:`attach` and :meth:`detach`, and the
        #: simulator's own writes to ``_streams``.
        self._sizes: dict[float, int] = {}
        #: Multiplier applied to every capacity evaluation — the hook the
        #: fault injector uses for disk degradation and NIC jitter.  Exactly
        #: 1.0 outside fault windows, and the multiply is skipped then, so
        #: fault-free arithmetic is bit-identical to the historical path.
        self.capacity_scale: float = 1.0

    @property
    def streams(self) -> list[SharedStream]:
        """Streams currently attached, in attach order."""
        return list(self._streams.values())

    @property
    def num_active(self) -> int:
        """Number of attached streams."""
        return len(self._streams)

    def capacity_for(self, streams: list[SharedStream]) -> float:
        """Capacity offered to a hypothetical demand profile."""
        capacity = self._capacity(streams) if callable(self._capacity) else self._capacity
        if self.capacity_scale != 1.0:
            capacity = capacity * self.capacity_scale
        return capacity

    def attached_capacity(self) -> float:
        """:meth:`capacity_for` the attached streams."""
        return self.capacity_for(list(self._streams.values()))

    def attach(self, stream: SharedStream, *, rebalance: bool = True) -> None:
        """Add a stream (and by default re-balance rates immediately).

        Deferring it (``rebalance=False``) balances a batch of
        simultaneous attach/detach operations once.  The simulator's hot
        path goes one step further: it attaches and detaches through
        ``_streams`` and ``_sizes`` itself and balances each dirty
        resource once per settle.
        """
        if stream.stream_id in self._streams:
            raise SimulationError(
                f"stream {stream.stream_id} already attached to {self.name}"
            )
        self._streams[stream.stream_id] = stream
        sizes = self._sizes
        sizes[stream.request_size] = sizes.get(stream.request_size, 0) + 1
        stream.resources.append(self)
        if rebalance:
            self.rebalance()

    def detach(self, stream: SharedStream, *, rebalance: bool = True) -> None:
        """Remove a stream (and by default re-balance rates immediately)."""
        if stream.stream_id not in self._streams:
            raise SimulationError(
                f"stream {stream.stream_id} is not attached to {self.name}"
            )
        del self._streams[stream.stream_id]
        sizes = self._sizes
        if sizes[stream.request_size] == 1:
            del sizes[stream.request_size]
        else:
            sizes[stream.request_size] -= 1
        stream.resources.remove(self)
        if not stream.resources:
            stream.rate = 0.0
        if rebalance:
            self.rebalance()

    def rebalance(self) -> None:
        """Recompute every attached stream's rate via water-filling.

        Treats all attached streams as solely this resource's — correct
        whenever no stream is bound to another resource as well; coupled
        groups go through :func:`rebalance_coupled` instead.
        """
        streams = list(self._streams.values())
        self._waterfill(streams, self.capacity_for(streams) if streams else 0.0)

    def aggregate_capacity(self) -> float:
        """Capacity at the currently active demand profile (for reporting)."""
        streams = list(self._streams.values())
        if not streams:
            return 0.0
        return self.capacity_for(streams)

    @staticmethod
    def _waterfill(streams: list[SharedStream], capacity: float) -> None:
        """Equal shares with surplus redistribution, honouring per-stream caps."""
        if not streams:
            return
        fair_share = capacity / len(streams)
        for stream in streams:
            cap = stream.per_stream_cap
            if cap is not None and cap < fair_share:
                break
        else:
            # No cap is below the equal share: everyone gets it.
            for stream in streams:
                stream.rate = fair_share
            return
        pending = streams
        remaining = capacity
        # Streams whose cap is below the evolving fair share lock in their
        # cap and free the surplus; iterate until shares stabilize.
        while pending:
            fair_share = remaining / len(pending)
            capped = [
                s
                for s in pending
                if s.per_stream_cap is not None and s.per_stream_cap < fair_share
            ]
            if not capped:
                for stream in pending:
                    stream.rate = fair_share
                return
            for stream in capped:
                stream.rate = stream.per_stream_cap  # type: ignore[assignment]
                remaining -= stream.per_stream_cap  # type: ignore[operator]
            pending = [
                s
                for s in pending
                if not (s.per_stream_cap is not None and s.per_stream_cap < fair_share)
            ]
        # Every stream was cap-limited; nothing left to distribute.

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name}, {self.num_active} streams)"


class DeviceResource(Resource):
    """One direction (read or write) of a storage device.

    Reads and writes are independent capacity pools (full duplex), so a
    physical device contributes two resources.  Capacity follows the
    active demand profile: the aggregate is taken at the *smallest*
    active request size — small random requests force an HDD's head (or a
    flash controller) into its seek/IOPS-dominated regime, so they
    dictate the aggregate behaviour.
    """

    def __init__(
        self, device: StorageDevice, is_write: bool, name: str | None = None
    ) -> None:
        self.device = device
        self.is_write = is_write
        #: One-entry memo of the last (smallest request size, bandwidth)
        #: lookup: a device's curves never change after construction, and
        #: most lookups repeat the previous smallest request size
        #: (docs/PERFORMANCE.md, "Simulator event loop", has hit rates).
        self._memo_request: float | None = None
        self._memo_bandwidth = 0.0
        direction = "write" if is_write else "read"
        super().__init__(name or f"{device.name}:{direction}", self._profile_capacity)

    def attached_capacity(self) -> float:
        """:meth:`capacity_for` the attached streams, taken at the smallest
        request size the per-size counts hold instead of by a scan over
        every stream."""
        if not self._sizes:
            return 0.0
        capacity = self._bandwidth_for_smallest(min(self._sizes))
        if self.capacity_scale != 1.0:
            capacity = capacity * self.capacity_scale
        return capacity

    def _profile_capacity(self, streams: list[SharedStream]) -> float:
        if not streams:
            return 0.0
        return self._bandwidth_for_smallest(min(s.request_size for s in streams))

    def _bandwidth_for_smallest(self, smallest_request: float) -> float:
        if smallest_request != self._memo_request:
            self._memo_request = smallest_request
            self._memo_bandwidth = self.device.bandwidth(
                smallest_request, self.is_write
            )
        return self._memo_bandwidth


class LinkResource(Resource):
    """A network link: constant capacity, request-size-independent."""

    def __init__(self, name: str, link_bandwidth: float) -> None:
        if link_bandwidth <= 0:
            raise SimulationError(f"link {name}: bandwidth must be positive")
        self.link_bandwidth = link_bandwidth
        super().__init__(name, link_bandwidth)


class SlotPool:
    """An integer pool of exclusively-held slots (executor cores)."""

    def __init__(self, name: str, total: int) -> None:
        if total <= 0:
            raise SimulationError(f"slot pool {name}: need at least one slot")
        self.name = name
        self.total = total
        self.in_use = 0

    @property
    def free(self) -> int:
        """Slots currently available."""
        return self.total - self.in_use

    def acquire(self) -> None:
        """Take one slot; raises when none are free."""
        if self.in_use >= self.total:
            raise SimulationError(f"slot pool {self.name} is exhausted")
        self.in_use += 1

    def release(self) -> None:
        """Return one slot."""
        if self.in_use <= 0:
            raise SimulationError(f"slot pool {self.name}: release without acquire")
        self.in_use -= 1

    def __repr__(self) -> str:
        return f"SlotPool({self.name}, {self.in_use}/{self.total} in use)"


def rebalance_coupled(resources: Iterable[Resource]) -> None:
    """Max-min fair allocation across a coupled group of rate resources.

    ``resources`` must be closed under stream sharing: every resource
    that shares a stream with a member is itself a member (the simulator
    computes this closure).  Uses *progressive filling*: all streams'
    rates rise together from zero; a stream freezes when it hits its own
    cap ``T`` or when any resource it is bound to saturates.  For a
    single resource with singly-bound streams this reproduces
    :meth:`Resource.rebalance` (up to float rounding), and that exact
    method is preferred there; this function handles the general case —
    e.g. a remote shuffle-read stream crossing both a NIC and a disk.
    """
    group = list(resources)
    if not group:
        return
    streams: dict[int, SharedStream] = {}
    for resource in group:
        for stream in resource.streams:
            streams[stream.stream_id] = stream
    if not streams:
        return
    headroom = {
        id(resource): resource.capacity_for(resource.streams) for resource in group
    }
    active = {
        id(resource): resource.num_active for resource in group if resource.num_active
    }
    unfrozen = dict(streams)
    level = 0.0
    # Each round freezes at least one stream, so this terminates.
    while unfrozen:
        next_level = float("inf")
        for resource in group:
            count = active.get(id(resource), 0)
            if count > 0:
                next_level = min(next_level, level + headroom[id(resource)] / count)
        for stream in unfrozen.values():
            if stream.per_stream_cap is not None:
                next_level = min(next_level, stream.per_stream_cap)
        if next_level == float("inf"):  # pragma: no cover - defensive
            break
        step = max(next_level - level, 0.0)
        for resource in group:
            count = active.get(id(resource), 0)
            if count > 0:
                headroom[id(resource)] -= step * count
        level = next_level
        slack = level * _FILL_EPS
        frozen_now = []
        for stream in unfrozen.values():
            at_cap = (
                stream.per_stream_cap is not None
                and stream.per_stream_cap <= level + slack
            )
            at_wall = any(
                headroom[id(resource)] <= slack for resource in stream.resources
            )
            if at_cap or at_wall:
                frozen_now.append(stream)
        if not frozen_now:  # pragma: no cover - defensive against fp drift
            frozen_now = list(unfrozen.values())
        for stream in frozen_now:
            stream.rate = level
            del unfrozen[stream.stream_id]
            for resource in stream.resources:
                if id(resource) in active:
                    active[id(resource)] -= 1
