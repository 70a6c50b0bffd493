"""Fault injection for simulated runs.

Real deployments deviate from clean analytic models through a small set
of recurring hardware misbehaviours — throttled disks, straggler
executors, dying nodes, flapping links.  This package lets a run opt
into them without touching any default path:

- :mod:`repro.faults.plan` — declarative, JSON-serializable
  :class:`FaultPlan` s (what misbehaves, where, when);
- :mod:`repro.faults.injector` — compiles a plan onto one engine's disk
  and NIC resources and emits the timed actions the event loop
  executes.

Pass a plan as ``faults=`` to :class:`~repro.pipeline.Experiment` (it is
folded into cache keys), to the workload runner, or via
``python -m repro simulate --fault-plan plan.json``.  The metamorphic
properties faulted runs must still satisfy live in
:mod:`repro.invariants`.
"""

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    DiskFault,
    Fault,
    FaultPlan,
    NicJitterFault,
    NodeFailureFault,
    StragglerFault,
    load_fault_plan,
    random_fault_plan,
)

__all__ = [
    "DiskFault",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "NicJitterFault",
    "NodeFailureFault",
    "StragglerFault",
    "load_fault_plan",
    "random_fault_plan",
]
