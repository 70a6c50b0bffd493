"""Exception hierarchy for the Doppio library.

Every exception raised by this package derives from :class:`DoppioError`
so callers can catch one type at the API boundary.  Subclasses are grouped
by subsystem; they carry plain messages and never wrap other exceptions
silently.
"""

from __future__ import annotations


class DoppioError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(DoppioError):
    """A cluster, Spark, or cloud configuration is invalid or inconsistent."""


class StorageError(DoppioError):
    """A storage device, HDFS, or Spark-local operation failed."""


class FileNotFoundInStoreError(StorageError):
    """A read referenced a path that the store does not contain."""


class SimulationError(DoppioError):
    """The discrete-event simulator reached an inconsistent state."""


class StageFailedError(SimulationError):
    """A simulated stage exhausted its re-attempt budget and aborted.

    Raised by the engine when a task fails ``max_task_attempts`` times
    and the stage has already used ``max_stage_attempts`` re-attempts —
    the structured analogue of Spark's job abort on repeated stage
    failure.  Carries the failing stage/task and attempt counts so
    callers can report the abort without parsing the message.
    ``task_id`` is the task's index in its stage (its position in the
    stage's task-id order, like Spark's per-stage task index), so the
    same failing run names the same task in every process.
    """

    def __init__(
        self,
        stage: str,
        task_id: int,
        attempts: int,
        stage_attempts: int,
        reason: str,
    ) -> None:
        self.stage = stage
        self.task_id = task_id
        self.attempts = attempts
        self.stage_attempts = stage_attempts
        self.reason = reason
        super().__init__(
            f"stage {stage!r} aborted after {stage_attempts} attempt(s):"
            f" task {task_id} failed {attempts} time(s) ({reason})"
        )

    def __reduce__(self):
        # ``args`` holds only the message, which ``__init__`` cannot
        # take: rebuild from the fields, so the error survives the trip
        # home from a pool worker.
        return (
            type(self),
            (self.stage, self.task_id, self.attempts, self.stage_attempts,
             self.reason),
        )


class SchedulerError(DoppioError):
    """The DAG or task scheduler could not plan the requested computation."""


class ModelError(DoppioError):
    """The analytic model was given unusable variables (e.g. zero bandwidth)."""


class ProfilingError(DoppioError):
    """A profiling sample run violated its sanity check (Section VI-1)."""


class OptimizationError(DoppioError):
    """The cloud cost optimizer could not find a feasible configuration."""


class WorkloadError(DoppioError):
    """A workload specification is malformed (e.g. negative data sizes)."""


class FaultError(DoppioError):
    """A fault plan is malformed or cannot be applied to a deployment."""


class ExecutionError(DoppioError):
    """A supervised task map could not complete on the host toolchain.

    Raised by :class:`~repro.parallel.supervisor.TaskSupervisor` (and
    the pipeline paths built on it) when items exhaust their attempt
    budget — worker loss, per-item timeout, or a poison item that fails
    every retry.  A task's own :class:`DoppioError` is not wrapped: it
    surfaces as itself, exactly as a serial run raises it.  Carries
    the structured :class:`~repro.parallel.supervisor.TaskFailure`
    records so callers can see *which* items died and why without
    parsing the message.  Distinct from :class:`SimulationError`: the
    simulated system is fine, the processes running it are not — mapped
    to its own exit code (5) so scripts can tell "your model broke"
    from "your machine did".
    """

    def __init__(self, message: str, failures: tuple = ()) -> None:
        self.failures = tuple(failures)
        super().__init__(message)


class ServiceError(DoppioError):
    """The query service could not accept or answer a request.

    The serving tier's analogue of :class:`ExecutionError`: the model
    and simulator are fine, the long-running process in front of them
    is not (bad listen address, a dead engine, a malformed shutdown).
    Mapped to its own exit code (6) so init systems can tell "the
    service broke" from "your query was wrong" (2) and from "the model
    broke" (3).
    """


class AdmissionError(ServiceError):
    """A query was rejected at admission because the service is saturated.

    The structured 429: the simulation queue is at its cap, so taking
    the query would only grow latency unboundedly.  Carries the cap and
    current depth so clients can back off intelligently.
    """

    def __init__(self, message: str, queue_depth: int = 0, queue_cap: int = 0) -> None:
        self.queue_depth = queue_depth
        self.queue_cap = queue_cap
        super().__init__(message)


class QueryError(ServiceError):
    """A what-if query payload is malformed or references unknown entities.

    The service-side sibling of :class:`ConfigurationError` — kept
    distinct so the HTTP front can map it to 400 while other
    :class:`ServiceError` states stay 500/503-shaped — but mapped to
    the configuration exit code (2): a bad query is a caller mistake,
    not a broken service.
    """


# -- CLI exit-code mapping ----------------------------------------------------

#: Process exit codes the CLI maps :class:`DoppioError` subclasses onto.
#: 1 stays reserved for unexpected (non-Doppio) crashes, so scripts can
#: distinguish "you configured it wrong" (2) from "the simulation or
#: model broke" (3) from "the fault plan is unusable" (4) from "the host
#: execution tier lost workers / timed out / quarantined items" (5).
EXIT_OK = 0
EXIT_CONFIG_ERROR = 2
EXIT_SIMULATION_ERROR = 3
EXIT_FAULT_ERROR = 4
EXIT_EXECUTION_ERROR = 5
EXIT_SERVICE_ERROR = 6


def exit_code_for(error: DoppioError) -> int:
    """The CLI exit code one library error maps to.

    Ordering matters only in that more specific classes are checked
    before their bases (``QueryError`` before ``ServiceError``,
    ``FaultError`` before the generic fallthrough).
    """
    if isinstance(error, QueryError):
        return EXIT_CONFIG_ERROR
    if isinstance(error, (ConfigurationError, WorkloadError)):
        return EXIT_CONFIG_ERROR
    if isinstance(error, FaultError):
        return EXIT_FAULT_ERROR
    if isinstance(error, ExecutionError):
        return EXIT_EXECUTION_ERROR
    if isinstance(error, ServiceError):
        return EXIT_SERVICE_ERROR
    return EXIT_SIMULATION_ERROR
