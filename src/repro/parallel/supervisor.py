"""Supervised task maps: retries, timeouts, pool rebuilds, quarantine.

A plain chunked ``ProcessPoolExecutor.map`` is fast but brittle: one
worker death raises ``BrokenProcessPool`` and discards the whole map, a
hung task stalls it forever, and a chunked submission lets one raising
item take its chunkmates' results down with it.  :class:`TaskSupervisor`
is the robust path the pipeline's long fan-outs run through:

- **per-item futures** — every item is submitted individually, so each
  item's outcome (result, exception, worker loss, timeout) is observed
  and handled on its own;
- **bounded retries on a fixed backoff** — failed and timed-out items
  are retried up to :attr:`ExecutionPolicy.max_attempts` times, waiting
  :func:`backoff_seconds` between attempts (a pure exponential
  schedule, no jitter: reproducible timings are worth more here than
  thundering-herd protection on a local pool);
- **pool rebuilds** — after ``BrokenProcessPool`` the dead pool is
  replaced and only the in-flight items are resubmitted.  A break is
  charged as an attempt only to the item that caused it: with one item
  in flight that is the culprit, and with several the break cannot say
  which, so none is charged and those items re-run one at a time until
  each has finished.  An item that reproducibly kills its worker
  therefore still converges to quarantine instead of respawning pools
  forever, and innocent items never pay for it;
- **wall-clock timeouts** — an in-flight item past its deadline is
  charged a timeout attempt; since a running future cannot be cancelled,
  the pool's workers are killed and rebuilt, and the *innocent* in-flight
  items are resubmitted without being charged;
- **quarantine** — items that fail every attempt land in a structured
  :class:`TaskFailure` report while the rest of the map completes.  A
  library error (:class:`~repro.errors.DoppioError`) raised by the task
  is final on its first attempt — the same inputs raise it again — and
  :meth:`SupervisionReport.raise_if_failed` raises it as itself, so a
  pooled map fails with the same error, and the CLI with the same exit
  code, as a serial one.

Successful results come back **in input order**, computed by exactly the
same function calls a serial run would make — the supervisor adds
scheduling, never semantics — so the bit-identical-to-serial contract of
:mod:`repro.parallel` holds under supervision too (pinned by
``tests/properties/test_parallel.py`` and ``tests/chaos/``).

Both backends run through the same loop.  A
:class:`~repro.parallel.backends.SerialBackend` runs each submitted item
in the calling thread before ``submit`` returns, so one item is in
flight at a time and timeouts are not enforced: there is no preemption
inside one process, so a hung serial task hangs the caller (documented
in ``docs/EXECUTION.md``).

:meth:`TaskSupervisor.cancel` stops a run from another thread: nothing
more is submitted, a process pool's workers are killed, and the run
raises :class:`~repro.errors.ExecutionError` instead of returning.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.errors import ConfigurationError, DoppioError, ExecutionError
from repro.parallel.backends import ProcessPoolBackend

#: ``TaskFailure.kind`` values.
KIND_EXCEPTION = "exception"
KIND_TIMEOUT = "timeout"
KIND_WORKER_LOSS = "worker-loss"


def backoff_seconds(attempt: int) -> float:
    """The wait before retrying an item whose ``attempt``-th try failed.

    0.05 s after the first failure, doubling with each further one,
    capped at 5 s.  Pure and stateless, so tests (and the chaos harness)
    can assert the exact waits a run performed.
    """
    # The cap binds from attempt 8 on; bounding the exponent keeps a
    # huge attempt count from overflowing the float power.
    return min(0.05 * 2.0 ** min(attempt - 1, 8), 5.0)


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a supervised map treats failure: attempts and a deadline.

    ``max_attempts`` (``--task-retries``) counts every attempt an item
    gets, the first included; ``timeout_seconds`` (``--task-timeout``)
    is each attempt's wall-clock deadline, or ``None`` for none.  The
    default retries twice with no deadline — safe for the pipeline's
    deterministic task functions, where a repeated failure is almost
    always environmental (worker OOM-killed, machine descheduled)
    rather than data-dependent.
    """

    max_attempts: int = 3
    timeout_seconds: float | None = None

    def __post_init__(self) -> None:
        if (
            not isinstance(self.max_attempts, int)
            or isinstance(self.max_attempts, bool)
            or self.max_attempts < 1
        ):
            raise ConfigurationError(
                f"max_attempts must be an int >= 1, got {self.max_attempts!r}"
            )
        if self.timeout_seconds is not None and (
            not isinstance(self.timeout_seconds, (int, float))
            or isinstance(self.timeout_seconds, bool)
            or not self.timeout_seconds > 0
        ):
            raise ConfigurationError(
                f"timeout_seconds must be a positive number or None,"
                f" got {self.timeout_seconds!r}"
            )

    def describe(self) -> str:
        """One-line summary for logs and reports."""
        deadline = (
            f"{self.timeout_seconds:g}s timeout"
            if self.timeout_seconds is not None
            else "no timeout"
        )
        return f"{self.max_attempts} attempt(s), {deadline}"


def validate_execution(
    execution: ExecutionPolicy | None,
) -> ExecutionPolicy | None:
    """Pass through a policy (or ``None``), rejecting anything else.

    The shared argument check for every API that threads ``execution=``
    down to a supervised map (``run_grid``, ``grid_search``, the CLI).
    """
    if execution is not None and not isinstance(execution, ExecutionPolicy):
        raise ConfigurationError(
            f"execution must be an ExecutionPolicy or None,"
            f" got {execution!r}"
        )
    return execution


@dataclass(frozen=True)
class TaskFailure:
    """One quarantined item: what it was and how it kept failing.

    ``error`` is the library error the task raised, when it raised one:
    that failure is final on its first attempt and surfaces as itself.
    """

    index: int
    item: Any
    kind: str
    attempts: int
    error_type: str
    message: str
    error: DoppioError | None = None

    def describe(self) -> str:
        return (
            f"item {self.index} ({self.item!r}): {self.kind} after"
            f" {self.attempts} attempt(s) — {self.error_type}: {self.message}"
        )


@dataclass
class SupervisionReport:
    """Outcome of one supervised map.

    ``results`` is input-ordered; quarantined indices hold ``None``.
    The counters describe the run's failure history: ``attempts``
    counts every charged attempt (successes included), ``backoff_waits``
    the exact deterministic sleeps performed before retries, in the
    order they were scheduled.
    """

    results: list[Any]
    failures: tuple[TaskFailure, ...] = ()
    attempts: int = 0
    retries: int = 0
    timeouts: int = 0
    worker_losses: int = 0
    pool_rebuilds: int = 0
    backoff_waits: tuple[float, ...] = ()

    @property
    def ok(self) -> bool:
        """True iff every item produced a result."""
        return not self.failures

    def raise_if_failed(self, label: str = "supervised map") -> None:
        """Raise the map's failure: a task's library error as itself.

        The first quarantined item that raised a
        :class:`~repro.errors.DoppioError` re-raises it, exactly as a
        serial run would have; otherwise worker loss, timeouts and other
        exceptions become one structured :class:`ExecutionError`.
        """
        if self.ok:
            return
        for failure in self.failures:
            if failure.error is not None:
                raise failure.error
        detail = "; ".join(f.describe() for f in self.failures[:5])
        if len(self.failures) > 5:
            detail += f"; ... {len(self.failures) - 5} more"
        raise ExecutionError(
            f"{label}: {len(self.failures)} item(s) quarantined"
            f" after {self.attempts} attempt(s)"
            f" ({self.pool_rebuilds} pool rebuild(s)): {detail}",
            failures=self.failures,
        )


@dataclass
class _InFlight:
    """Bookkeeping for one submitted future."""

    index: int
    deadline: float  # monotonic; inf when the policy has no timeout


class TaskSupervisor:
    """Run ``fn`` over ``items`` under an :class:`ExecutionPolicy`.

    Wraps an execution backend and drives it through one loop of
    per-item futures, deadlines and retries.  A
    :class:`ProcessPoolBackend` also gets pool rebuilds; a
    :class:`~repro.parallel.backends.SerialBackend` settles each future
    inside ``submit``, so it gets the same retry and quarantine
    semantics minus timeout enforcement.

    Under a timeout the number of in-flight futures never exceeds the
    pool's worker count, so a submitted item starts (approximately)
    immediately and its wall-clock deadline measures *execution* time,
    not queue time; without one the window widens to keep workers
    saturated on the clean path.
    """

    def __init__(
        self,
        backend,
        policy: ExecutionPolicy | None = None,
    ) -> None:
        if policy is None:
            policy = ExecutionPolicy()
        if not isinstance(policy, ExecutionPolicy):
            raise ConfigurationError(
                f"policy must be an ExecutionPolicy, got {policy!r}"
            )
        self.backend = backend
        self.policy = policy
        # Orders cancel() against submits and rebuilds from the thread
        # running the map, so no pool is spawned after a cancel.
        self._lock = threading.Lock()
        self._cancelled = False

    # -- public API ----------------------------------------------------------

    def cancel(self) -> None:
        """Stop the running (and every later) map from another thread.

        Nothing more is submitted, and a :class:`ProcessPoolBackend`'s
        workers are killed the way :meth:`~ProcessPoolBackend.rebuild`
        kills them, so the caller never waits out a running task.  The
        map raises :class:`~repro.errors.ExecutionError` once it
        notices.  A serial backend cannot be preempted: its item in
        progress finishes first.
        """
        with self._lock:
            self._cancelled = True
            if isinstance(self.backend, ProcessPoolBackend):
                self.backend.rebuild()

    def _check_cancelled(self) -> None:
        if self._cancelled:
            raise ExecutionError("supervised map cancelled")

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        """Ordered results, or the map's failure raised.

        As :meth:`SupervisionReport.raise_if_failed` raises it: a task's
        library error as itself, anything else as an ExecutionError.
        """
        report = self.run(fn, items)
        report.raise_if_failed()
        return report.results

    def run(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        on_result: Callable[[int, Any], None] | None = None,
    ) -> SupervisionReport:
        """Supervised map returning the full :class:`SupervisionReport`.

        ``on_result(index, result)`` fires once per successful item *in
        completion order*, before the map finishes — the hook incremental
        checkpointing hangs off (each merged grid shard is persisted as
        it lands, see ``docs/EXECUTION.md``).
        """
        items = list(items)
        policy = self.policy
        backend = self.backend
        n = len(items)
        report = SupervisionReport(results=[None] * n)
        failures: dict[int, TaskFailure] = {}
        waits: list[float] = []
        attempts_used = [0] * n

        ready: deque[int] = deque(range(n))
        #: (monotonic ready-time, index) pairs waiting out a backoff.
        sleeping: list[tuple[float, int]] = []
        in_flight: dict[Future, _InFlight] = {}
        #: Unfinished items a break with several in flight left unblamed:
        #: while any remain, they alone run, one at a time.
        suspects: set[int] = set()
        pooled = isinstance(backend, ProcessPoolBackend)
        # A serial submit runs its item before returning: with one in
        # flight, a clean map runs its items (and fires on_result) in
        # input order, and cancel() stops it before the next item.  It
        # runs outside the lock, so cancel() never waits on it.  A pooled
        # submit must hold the lock, or a cancel() racing it could leave
        # a freshly spawned pool behind.
        guard = self._lock if pooled else contextlib.nullcontext()
        # With a timeout, cap in-flight futures at the worker count so a
        # submitted item starts (approximately) immediately and its
        # deadline measures execution, not queueing.  Without one, queue
        # depth costs nothing — keep the workers saturated instead of
        # lockstepping each completion with the next submit.
        max_in_flight = (
            backend.workers * 4
            if pooled and policy.timeout_seconds is None
            else backend.workers
        )
        # A break with one item in flight charges it an attempt; a break
        # with several charges none but makes them suspects, and an item
        # is a suspect at most once.  So rebuilds are bounded by the
        # total attempt budget plus n; the margin absorbs submit races.
        rebuild_cap = (policy.max_attempts + 1) * n + 8

        def charge_failure(
            index: int,
            kind: str,
            error_type: str,
            message: str,
            error: DoppioError | None = None,
        ) -> None:
            attempts_used[index] += 1
            report.attempts += 1
            if kind == KIND_TIMEOUT:
                report.timeouts += 1
            elif kind == KIND_WORKER_LOSS:
                report.worker_losses += 1
            if error is not None or attempts_used[index] >= policy.max_attempts:
                suspects.discard(index)
                failures[index] = TaskFailure(
                    index=index,
                    item=items[index],
                    kind=kind,
                    attempts=attempts_used[index],
                    error_type=error_type,
                    message=message,
                    error=error,
                )
            else:
                report.retries += 1
                delay = backoff_seconds(attempts_used[index])
                waits.append(delay)
                sleeping.append((time.monotonic() + delay, index))
                sleeping.sort()

        def record_success(index: int, result: Any) -> None:
            suspects.discard(index)
            attempts_used[index] += 1
            report.attempts += 1
            report.results[index] = result
            if on_result is not None:
                on_result(index, result)

        def settle(future: Future, index: int, lost: list[int]) -> None:
            """Handle one completed future; pool losses go to ``lost``."""
            exc = future.exception()
            if exc is None:
                record_success(index, future.result())
            elif pooled and isinstance(exc, BrokenProcessPool):
                # Only a pool can be lost; a serial task raising this
                # error is charged like any other exception.
                lost.append(index)
            else:
                charge_failure(
                    index, KIND_EXCEPTION, type(exc).__name__, str(exc),
                    exc if isinstance(exc, DoppioError) else None,
                )

        def rebuild_pool() -> None:
            report.pool_rebuilds += 1
            if report.pool_rebuilds > rebuild_cap:
                raise ExecutionError(
                    f"supervised map: pool died {report.pool_rebuilds} times"
                    f" for {n} item(s) — giving up on rebuilding"
                    f" ({policy.describe()})",
                    failures=tuple(failures.values()),
                )
            with self._lock:
                backend.rebuild()

        def next_ready() -> int | None:
            """The next item to submit, or None while the window is full."""
            if not suspects:
                if len(in_flight) < max_in_flight:
                    return ready.popleft()
                return None
            if in_flight:
                return None
            for index in ready:
                if index in suspects:
                    ready.remove(index)
                    return index
            return None  # every suspect is waiting out a backoff

        while ready or sleeping or in_flight:
            self._check_cancelled()
            now = time.monotonic()
            # Wake items whose backoff has elapsed.
            while sleeping and sleeping[0][0] <= now:
                ready.append(sleeping.pop(0)[1])
            while ready:
                index = next_ready()
                if index is None:
                    break
                try:
                    with guard:
                        self._check_cancelled()
                        future = backend.submit(fn, items[index])
                except BrokenProcessPool:
                    # Pool broke between loop turns; rebuild and retry
                    # the submit (the item never ran: no charge).
                    ready.appendleft(index)
                    rebuild_pool()
                    continue
                deadline = (
                    time.monotonic() + policy.timeout_seconds
                    if policy.timeout_seconds is not None
                    else float("inf")
                )
                in_flight[future] = _InFlight(index=index, deadline=deadline)
            if not in_flight:
                if sleeping:
                    # Everything is waiting out a backoff.
                    pause = sleeping[0][0] - time.monotonic()
                    if pause > 0:
                        time.sleep(pause)
                continue

            # Block until something completes, a deadline passes, or a
            # sleeping retry becomes ready.
            horizon = min(entry.deadline for entry in in_flight.values())
            if sleeping:
                horizon = min(horizon, sleeping[0][0])
            wait_timeout = (
                None if horizon == float("inf")
                else max(0.0, horizon - time.monotonic())
            )
            done, _ = wait(
                in_flight, timeout=wait_timeout, return_when=FIRST_COMPLETED
            )

            lost: list[int] = []
            for future in done:
                settle(future, in_flight.pop(future).index, lost)

            if lost and in_flight:
                # A broken pool fails every outstanding future (the
                # executor's manager thread is setting their exceptions
                # right now); wait for it and salvage any that completed
                # with a result.
                settled, stalled = wait(in_flight, timeout=30.0)
                for future in settled:
                    settle(future, in_flight.pop(future).index, lost)
                for future in stalled:  # pragma: no cover - stuck manager
                    lost.append(in_flight.pop(future).index)
            if lost:
                if len(lost) == 1:
                    # The only item the pool lost is the one that broke it.
                    charge_failure(
                        lost[0],
                        KIND_WORKER_LOSS,
                        "BrokenProcessPool",
                        "a worker died with the task in flight",
                    )
                else:
                    # Any of them may have broken it: charge none, and
                    # re-run them one at a time so the next break has a
                    # single culprit.
                    suspects.update(lost)
                    ready.extendleft(reversed(lost))
                rebuild_pool()
                continue

            # Deadline sweep: charge expired items, resubmit innocents.
            # A serial future is settled before its deadline is set, so
            # only a pool's items can expire.
            now = time.monotonic()
            expired = {
                entry.index
                for future, entry in in_flight.items()
                if entry.deadline <= now and not future.done()
            }
            if expired:
                for future, entry in list(in_flight.items()):
                    if future.done():
                        # Completed between wait() and the sweep.
                        settle(future, entry.index, lost)
                    elif entry.index in expired:
                        charge_failure(
                            entry.index,
                            KIND_TIMEOUT,
                            "TimeoutError",
                            f"no result within {policy.timeout_seconds:g}s",
                        )
                    else:
                        # Innocent victim of the pool kill: resubmit
                        # without charging an attempt.
                        ready.append(entry.index)
                # Lost to a break that raced the sweep: its culprit is
                # unknown, so these re-run uncharged, one at a time.
                suspects.update(lost)
                ready.extend(lost)
                in_flight.clear()
                # Running futures cannot be cancelled; killing the
                # workers is the only way to stop a hung task.
                rebuild_pool()

        report.failures = tuple(
            failures[index] for index in sorted(failures)
        )
        report.backoff_waits = tuple(waits)
        return report
