"""Process-parallel execution: backends plus the supervised task layer.

Two tiers live here:

- :mod:`repro.parallel.backends` — the execution seam itself:
  :class:`SerialBackend` and :class:`ProcessPoolBackend` behind the
  :class:`ExecutionBackend` protocol, resolved from a ``workers=``
  argument by :func:`resolve_backend`.  ``submit`` runs one item and
  returns its future.
- :mod:`repro.parallel.supervisor` — the fault-tolerant layer on top:
  :class:`TaskSupervisor` drives either backend through one loop of
  per-item futures under an :class:`ExecutionPolicy` (attempts and a
  per-item timeout, retried on the fixed :func:`backoff_seconds`
  schedule), rebuilds the pool after worker death, and reports poison
  items as structured :class:`TaskFailure` records in a
  :class:`SupervisionReport` instead of failing the map on the first.
  A library error (:class:`~repro.errors.DoppioError`) raised by a task
  is final on its first attempt and surfaces as itself; worker loss,
  timeouts and other exceptions surface as
  :class:`~repro.errors.ExecutionError` once retries run out.

Both tiers preserve the package's core contract — results in input
order, bit-identical to a serial run — so callers choose robustness per
call site, not per architecture.  See ``docs/EXECUTION.md`` for the
failure model and ``docs/PERFORMANCE.md`` for when parallelism pays.
"""

from repro.parallel.backends import (
    AUTO_WORKERS,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    available_cpus,
    resolve_backend,
)
from repro.parallel.supervisor import (
    KIND_EXCEPTION,
    KIND_TIMEOUT,
    KIND_WORKER_LOSS,
    ExecutionPolicy,
    SupervisionReport,
    TaskFailure,
    TaskSupervisor,
    backoff_seconds,
    validate_execution,
)

__all__ = [
    "AUTO_WORKERS",
    "ExecutionBackend",
    "ExecutionPolicy",
    "KIND_EXCEPTION",
    "KIND_TIMEOUT",
    "KIND_WORKER_LOSS",
    "ProcessPoolBackend",
    "SerialBackend",
    "SupervisionReport",
    "TaskFailure",
    "TaskSupervisor",
    "available_cpus",
    "backoff_seconds",
    "resolve_backend",
    "validate_execution",
]
