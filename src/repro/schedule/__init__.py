"""Cluster scheduling: queue policies and multi-job (mix) simulation.

Two layers live here:

- :mod:`repro.schedule.scheduler` — the paper's suggested application: a
  batch queue on a shared cluster where FIFO ordering is compared against
  shortest-predicted-job-first ordering with Doppio runtimes, plus the
  oracle (true-runtime) ordering as an upper bound.  Jobs are opaque
  runtimes; the cluster runs one at a time.
- :mod:`repro.schedule.mix` — full multi-tenant simulation: K workloads
  with arrival times share the executors, HDFS disks, and NIC of one
  cluster, contending through the :mod:`repro.resources` max-min
  allocation under a FIFO or fair scheduler (see docs/MULTITENANT.md).

The mix layer is loaded lazily: the simulator engine imports
``repro.schedule.scheduler`` (for :class:`ExecutorBlacklist`), and
``repro.schedule.mix`` imports the engine back — importing it eagerly
here would close that cycle while the engine module is half-initialized.
"""

from repro.schedule.scheduler import (
    ExecutorBlacklist,
    Job,
    ScheduledJob,
    ScheduleResult,
    simulate_queue,
    fifo_order,
    spjf_order,
)

_MIX_EXPORTS = frozenset(
    {
        "MIX_POLICIES",
        "MixEngine",
        "MixJob",
        "MixMeasurement",
        "JobTimeline",
        "canonical_jobs",
        "measure_mix",
    }
)

__all__ = [
    "ExecutorBlacklist",
    "Job",
    "ScheduledJob",
    "ScheduleResult",
    "simulate_queue",
    "fifo_order",
    "spjf_order",
    *sorted(_MIX_EXPORTS),
]


def __getattr__(name: str):
    if name in _MIX_EXPORTS:
        from repro.schedule import mix

        return getattr(mix, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
