"""Supervised task maps: retries, timeouts, pool rebuilds, quarantine.

:class:`ProcessPoolBackend.map` is fast but brittle: one worker death
raises ``BrokenProcessPool`` and discards the whole map, a hung task
stalls it forever, and a chunked submission lets one raising item take
its chunkmates' results down with it.  :class:`TaskSupervisor` is the
robust path the pipeline's long fan-outs run through:

- **per-item futures** — every item is submitted individually, so each
  item's outcome (result, exception, worker loss, timeout) is observed
  and handled on its own;
- **bounded retries with deterministic backoff** — failed and timed-out
  items are retried up to :attr:`ExecutionPolicy.max_attempts` times,
  waiting :meth:`ExecutionPolicy.backoff_seconds` between attempts (a
  pure exponential schedule, no jitter: reproducible timings are worth
  more here than thundering-herd protection on a local pool);
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
- **quarantine over abort** — items that fail every attempt land in a
  structured :class:`TaskFailure` report while the rest of the map
  completes (``on_failure="abort"`` flips this to fail-fast).  A
  :class:`~repro.errors.ConfigurationError` is deterministic — the same
  inputs raise it again — so it quarantines on the attempt that raised
  it, with no retry or backoff.

Successful results come back **in input order**, computed by exactly the
same function calls a serial run would make — the supervisor adds
scheduling, never semantics — so the bit-identical-to-serial contract of
:mod:`repro.parallel` holds under supervision too (pinned by
``tests/properties/test_parallel.py`` and ``tests/chaos/``).

On a :class:`SerialBackend` the retry/backoff/quarantine semantics are
identical but timeouts are not enforced: there is no preemption inside
one process, so a hung serial task hangs the caller (documented in
``docs/EXECUTION.md``).

:meth:`TaskSupervisor.cancel` stops a run from another thread: nothing
more is submitted, a process pool's workers are killed, and the run
raises :class:`~repro.errors.ExecutionError` instead of returning.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.errors import ConfigurationError, ExecutionError
from repro.parallel.backends import ProcessPoolBackend

#: ``ExecutionPolicy.on_failure`` values: keep going and report, or stop.
FAILURE_MODES = ("quarantine", "abort")

#: ``TaskFailure.kind`` values.
KIND_EXCEPTION = "exception"
KIND_TIMEOUT = "timeout"
KIND_WORKER_LOSS = "worker-loss"


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a supervised map treats failure: attempts, deadline, backoff.

    The default policy retries twice (three attempts total) with a tiny
    deterministic exponential backoff and no deadline — safe for the
    pipeline's deterministic task functions, where a repeated failure is
    almost always environmental (worker OOM-killed, machine descheduled)
    rather than data-dependent.

    ``backoff_seconds(attempt)`` is the full schedule:
    ``backoff_base_seconds * backoff_factor**(attempt - 1)``, capped at
    ``backoff_max_seconds`` — attempt 1 failing waits the base, attempt
    2 twice that, and so on.  Pure and stateless, so tests (and the
    chaos harness) can assert the exact waits a run performed.
    """

    max_attempts: int = 3
    timeout_seconds: float | None = None
    backoff_base_seconds: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_seconds: float = 5.0
    on_failure: str = "quarantine"

    def __post_init__(self) -> None:
        if (
            not isinstance(self.max_attempts, int)
            or isinstance(self.max_attempts, bool)
            or self.max_attempts < 1
        ):
            raise ConfigurationError(
                f"max_attempts must be an int >= 1, got {self.max_attempts!r}"
            )
        if self.timeout_seconds is not None and not self.timeout_seconds > 0:
            raise ConfigurationError(
                f"timeout_seconds must be positive or None,"
                f" got {self.timeout_seconds!r}"
            )
        if self.backoff_base_seconds < 0:
            raise ConfigurationError(
                f"backoff_base_seconds must be >= 0,"
                f" got {self.backoff_base_seconds!r}"
            )
        if self.backoff_factor < 1:
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor!r}"
            )
        if self.backoff_max_seconds < 0:
            raise ConfigurationError(
                f"backoff_max_seconds must be >= 0,"
                f" got {self.backoff_max_seconds!r}"
            )
        if self.on_failure not in FAILURE_MODES:
            raise ConfigurationError(
                f"on_failure must be one of {FAILURE_MODES},"
                f" got {self.on_failure!r}"
            )

    def backoff_seconds(self, attempt: int) -> float:
        """Deterministic wait after ``attempt`` failed (1-based)."""
        if attempt < 1:
            return 0.0
        return min(
            self.backoff_base_seconds * self.backoff_factor ** (attempt - 1),
            self.backoff_max_seconds,
        )

    def describe(self) -> str:
        """One-line summary for logs and reports."""
        deadline = (
            f"{self.timeout_seconds:g}s timeout"
            if self.timeout_seconds is not None
            else "no timeout"
        )
        return (
            f"{self.max_attempts} attempt(s), {deadline},"
            f" backoff {self.backoff_base_seconds:g}s"
            f" x{self.backoff_factor:g} (cap {self.backoff_max_seconds:g}s),"
            f" {self.on_failure}"
        )


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
    """One quarantined item: what it was and how it kept failing."""

    index: int
    item: Any
    kind: str
    attempts: int
    error_type: str
    message: str

    def describe(self) -> str:
        return (
            f"item {self.index} ({self.item!r}): {self.kind} after"
            f" {self.attempts} attempt(s) — {self.error_type}: {self.message}"
        )


@dataclass
class SupervisionReport:
    """Outcome of one supervised map.

    ``results`` is input-ordered; quarantined (and, under abort,
    never-started) indices hold ``None``.  The counters describe the
    run's failure history: ``attempts`` counts every charged attempt
    (successes included), ``backoff_waits`` the exact deterministic
    sleeps performed before retries, in the order they were scheduled.
    """

    results: list[Any]
    failures: tuple[TaskFailure, ...] = ()
    attempts: int = 0
    retries: int = 0
    timeouts: int = 0
    worker_losses: int = 0
    pool_rebuilds: int = 0
    backoff_waits: tuple[float, ...] = ()
    aborted: bool = False

    @property
    def ok(self) -> bool:
        """True iff every item produced a result."""
        return not self.failures and not self.aborted

    def raise_if_failed(self, label: str = "supervised map") -> None:
        """Promote failures to a structured :class:`ExecutionError`."""
        if self.ok:
            return
        detail = "; ".join(f.describe() for f in self.failures[:5])
        if len(self.failures) > 5:
            detail += f"; ... {len(self.failures) - 5} more"
        mode = "aborted" if self.aborted else "quarantined"
        raise ExecutionError(
            f"{label}: {len(self.failures)} item(s) {mode}"
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

    Wraps an execution backend: a :class:`ProcessPoolBackend` gets the
    full event loop (per-item futures, deadlines, pool rebuilds); any
    other backend — :class:`~repro.parallel.backends.SerialBackend` in
    practice — gets in-process retries with the same backoff and
    quarantine semantics, minus timeout enforcement.

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
        """Ordered results, or :class:`ExecutionError` on any quarantine."""
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
        if not items:
            return SupervisionReport(results=[])
        if isinstance(self.backend, ProcessPoolBackend):
            return self._run_pooled(fn, items, on_result)
        return self._run_serial(fn, items, on_result)

    # -- serial path ---------------------------------------------------------

    def _run_serial(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        on_result: Callable[[int, Any], None] | None,
    ) -> SupervisionReport:
        policy = self.policy
        report = SupervisionReport(results=[None] * len(items))
        failures: list[TaskFailure] = []
        waits: list[float] = []
        for index, item in enumerate(items):
            attempt = 0
            while True:
                self._check_cancelled()
                attempt += 1
                report.attempts += 1
                try:
                    # Route through the backend's one-item map so the
                    # lazy-initializer contract stays the backend's.
                    result = self.backend.map(fn, [item])[0]
                except Exception as exc:
                    if (
                        attempt >= policy.max_attempts
                        or isinstance(exc, ConfigurationError)
                    ):
                        failures.append(TaskFailure(
                            index=index,
                            item=item,
                            kind=KIND_EXCEPTION,
                            attempts=attempt,
                            error_type=type(exc).__name__,
                            message=str(exc),
                        ))
                        if policy.on_failure == "abort":
                            report.aborted = True
                        break
                    report.retries += 1
                    delay = policy.backoff_seconds(attempt)
                    waits.append(delay)
                    if delay > 0:
                        time.sleep(delay)
                    continue
                report.results[index] = result
                if on_result is not None:
                    on_result(index, result)
                break
            if report.aborted:
                break
        report.failures = tuple(failures)
        report.backoff_waits = tuple(waits)
        return report

    # -- pooled path ---------------------------------------------------------

    def _run_pooled(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        on_result: Callable[[int, Any], None] | None,
    ) -> SupervisionReport:
        policy = self.policy
        backend: ProcessPoolBackend = self.backend
        n = len(items)
        report = SupervisionReport(results=[None] * n)
        failures: dict[int, TaskFailure] = {}
        waits: list[float] = []
        attempts_used = [0] * n
        done_flags = [False] * n

        ready: deque[int] = deque(range(n))
        #: (monotonic ready-time, index) pairs waiting out a backoff.
        sleeping: list[tuple[float, int]] = []
        in_flight: dict[Future, _InFlight] = {}
        #: Unfinished items a break with several in flight left unblamed:
        #: while any remain, they alone run, one at a time.
        suspects: set[int] = set()
        # With a timeout, cap in-flight futures at the worker count so a
        # submitted item starts (approximately) immediately and its
        # deadline measures execution, not queueing.  Without one, queue
        # depth costs nothing — keep the workers saturated instead of
        # lockstepping each completion with the next submit.
        max_in_flight = (
            backend.workers
            if policy.timeout_seconds is not None
            else max(backend.workers * 4, 1)
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
            final: bool = False,
        ) -> None:
            attempts_used[index] += 1
            report.attempts += 1
            if kind == KIND_TIMEOUT:
                report.timeouts += 1
            elif kind == KIND_WORKER_LOSS:
                report.worker_losses += 1
            if final or attempts_used[index] >= policy.max_attempts:
                suspects.discard(index)
                failures[index] = TaskFailure(
                    index=index,
                    item=items[index],
                    kind=kind,
                    attempts=attempts_used[index],
                    error_type=error_type,
                    message=message,
                )
                done_flags[index] = True
                if policy.on_failure == "abort":
                    report.aborted = True
            else:
                report.retries += 1
                delay = policy.backoff_seconds(attempts_used[index])
                waits.append(delay)
                sleeping.append((time.monotonic() + delay, index))
                sleeping.sort()

        def record_success(index: int, result: Any) -> None:
            suspects.discard(index)
            attempts_used[index] += 1
            report.attempts += 1
            report.results[index] = result
            done_flags[index] = True
            if on_result is not None:
                on_result(index, result)

        def settle(future: Future, index: int, lost: list[int]) -> None:
            """Handle one completed future; pool losses go to ``lost``."""
            exc = future.exception()
            if exc is None:
                record_success(index, future.result())
            elif isinstance(exc, BrokenProcessPool):
                lost.append(index)
            else:
                charge_failure(
                    index, KIND_EXCEPTION, type(exc).__name__, str(exc),
                    final=isinstance(exc, ConfigurationError),
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

        while not report.aborted and (ready or sleeping or in_flight):
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
                    with self._lock:
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

        if report.aborted and in_flight:
            # Fail fast: abandon outstanding work and reclaim workers.
            for future in in_flight:
                future.cancel()
            in_flight.clear()
            rebuild_pool()

        report.failures = tuple(
            failures[index] for index in sorted(failures)
        )
        report.backoff_waits = tuple(waits)
        return report
