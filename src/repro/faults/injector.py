"""Compiles a :class:`~repro.faults.plan.FaultPlan` onto one deployment.

The injector is the bridge between declarative fault plans and the
engine's concrete resources: at engine construction it looks each fault's
targets up in the engine's own tables — the disk resources per (node,
role, direction), per-member array directions included, and the NIC per
node — and produces

- ``slowdowns`` — node name → compute-stretch factor, read by the engine
  at every phase entry on straggler nodes;
- timed *actions* — heap events the engine schedules at ``run()`` start:
  :class:`ScaleToggle` (disk throttle window edges), :class:`JitterToggle`
  (self-rescheduling NIC square wave), :class:`NodeKill`.

Capacity perturbations go through :attr:`Resource.capacity_scale`, and the
injector recomputes the scale as the exact product of currently active
factors (an empty set yields exactly ``1.0``), so a fault window opening
and closing leaves no floating-point residue — the cache bit-identity
invariant depends on that.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from dataclasses import dataclass

from repro.cluster.cluster import Cluster
from repro.errors import FaultError
from repro.faults.plan import (
    DiskFault,
    FaultPlan,
    NicJitterFault,
    NodeFailureFault,
    StragglerFault,
)
from repro.resources import Resource


@dataclass(frozen=True)
class ScaleToggle:
    """Open (``on``) or close one capacity-scale window on ``resources``."""

    resources: tuple[Resource, ...]
    factor: float
    on: bool

    #: Heap entries carry ``(…, obj, epoch)`` and are dropped when
    #: ``obj.epoch`` moved on; fault actions are never invalidated.
    epoch = 0


@dataclass(frozen=True)
class JitterToggle:
    """One edge of a NIC jitter square wave; reschedules its own flip."""

    resources: tuple[Resource, ...]
    factor: float
    period: float
    duty: float
    entering: bool

    epoch = 0

    def flipped(self) -> JitterToggle:
        return dataclasses.replace(self, entering=not self.entering)

    @property
    def next_delay(self) -> float:
        """Seconds until the opposite edge."""
        return self.period * (self.duty if self.entering else 1.0 - self.duty)


@dataclass(frozen=True)
class NodeKill:
    """Remove one node from service."""

    node_name: str

    epoch = 0


FaultAction = ScaleToggle | JitterToggle | NodeKill


class FaultInjector:
    """Plan compiled against one engine's cluster and resource tables.

    ``disks`` maps ``(node name, role, is_write)`` to that direction's
    resources in member order; ``nics`` maps a node name to its NIC and
    is empty without a network.
    """

    def __init__(
        self,
        plan: FaultPlan,
        cluster: Cluster,
        disks: Mapping[tuple[str, str, bool], tuple[Resource, ...]],
        nics: Mapping[str, Resource],
    ) -> None:
        self.plan = plan
        names = [node.name for node in cluster.slaves]
        #: node name -> compute/software-path stretch factor (>= 1).
        self.slowdowns: dict[str, float] = {}
        #: (fire time, action), in plan order; the engine heap-pushes these.
        self._initial: list[tuple[float, FaultAction]] = []
        #: Every resource any action touches, for :meth:`reset`.
        self._touched: dict[int, Resource] = {}
        #: id(resource) -> list of factors currently applied.
        self._active_factors: dict[int, list[float]] = {}

        for fault in plan.faults:
            if isinstance(fault, StragglerFault):
                if fault.node < len(names):
                    name = names[fault.node]
                    self.slowdowns[name] = self.slowdowns.get(name, 1.0) * fault.slowdown
            elif isinstance(fault, NodeFailureFault):
                if fault.node < len(names):
                    self._initial.append(
                        (fault.at_seconds, NodeKill(names[fault.node]))
                    )
            elif isinstance(fault, DiskFault):
                resources = self._disk_resources(fault, cluster, disks)
                if not resources:
                    continue
                self._initial.append(
                    (fault.start, ScaleToggle(resources, fault.factor, True))
                )
                if fault.end is not None:
                    self._initial.append(
                        (fault.end, ScaleToggle(resources, fault.factor, False))
                    )
            elif isinstance(fault, NicJitterFault):
                resources = self._nic_resources(fault, cluster, nics)
                if not resources:
                    continue
                self._initial.append(
                    (
                        fault.phase,
                        JitterToggle(
                            resources, fault.factor, fault.period, fault.duty, True
                        ),
                    )
                )
            else:  # pragma: no cover - plan validation keeps the union closed
                raise FaultError(f"unknown fault type: {type(fault).__name__}")
        for _, action in self._initial:
            if isinstance(action, (ScaleToggle, JitterToggle)):
                for resource in action.resources:
                    self._touched[id(resource)] = resource

    @staticmethod
    def _disk_resources(
        fault: DiskFault,
        cluster: Cluster,
        disks: Mapping[tuple[str, str, bool], tuple[Resource, ...]],
    ) -> tuple[Resource, ...]:
        """Device-direction resources the fault covers (array members too),
        by node, role, direction and member; a device both roles share
        counts once."""
        roles = (fault.role,) if fault.role is not None else ("hdfs", "local")
        directions = (
            (fault.direction == "write",)
            if fault.direction is not None
            else (False, True)
        )
        collected: dict[int, Resource] = {}
        for index, node in enumerate(cluster.slaves):
            if fault.node is not None and fault.node != index:
                continue
            for role in roles:
                for is_write in directions:
                    for resource in disks[node.name, role, is_write]:
                        collected[id(resource)] = resource
        return tuple(collected.values())

    @staticmethod
    def _nic_resources(
        fault: NicJitterFault, cluster: Cluster, nics: Mapping[str, Resource]
    ) -> tuple[Resource, ...]:
        return tuple(
            nics[node.name]
            for index, node in enumerate(cluster.slaves)
            if (fault.node is None or fault.node == index) and node.name in nics
        )

    def initial_actions(self) -> list[tuple[float, FaultAction]]:
        """The actions to schedule at the start of every run."""
        return list(self._initial)

    def reset(self) -> None:
        """Restore every touched resource to its clean capacity."""
        for resource in self._touched.values():
            resource.capacity_scale = 1.0
        self._active_factors = {}

    def toggle(self, resource: Resource, factor: float, on: bool) -> None:
        """Apply or lift one factor; the scale is the product of the rest."""
        factors = self._active_factors.setdefault(id(resource), [])
        if on:
            factors.append(factor)
        else:
            try:
                factors.remove(factor)
            except ValueError:
                raise FaultError(
                    f"closing a fault window that never opened on {resource.name}"
                ) from None
        scale = 1.0
        for active in factors:
            scale *= active
        resource.capacity_scale = scale
