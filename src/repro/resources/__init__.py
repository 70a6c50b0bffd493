"""Generic shared-resource contention layer.

Everything in the simulator that several tasks compete for — disk
bandwidth, network links, executor cores — is one of two shapes:

- a **rate resource** (:class:`Resource`): a capacity in units/second,
  possibly a function of the *active demand profile* (an HDD's effective
  bandwidth depends on the request sizes in flight), divided among
  :class:`SharedStream` s by max-min fair water-filling;
- a **slot resource** (:class:`SlotPool`): an integer number of slots
  (executor cores) that tasks hold exclusively.

A :class:`SharedStream` may be bound to *several* rate resources at once
(a remote shuffle read crosses both the network link and a disk); the
coupled allocation is solved by :func:`rebalance_coupled` (progressive
filling).

The layer deliberately knows nothing about clusters or storage devices:
:class:`DeviceResource` consumes any object with a
``bandwidth(request_size, is_write)`` method.
"""

from repro.resources.resource import (
    DeviceResource,
    LinkResource,
    Resource,
    SlotPool,
    rebalance_coupled,
)
from repro.resources.stream import SharedStream

__all__ = [
    "DeviceResource",
    "LinkResource",
    "Resource",
    "SharedStream",
    "SlotPool",
    "rebalance_coupled",
]
