"""Pluggable process-parallel execution backends.

The pipeline's expensive loops — :meth:`Experiment.run_grid` cells,
:meth:`CostOptimizer.grid_search` candidates — are embarrassingly
parallel: every item is an independent, deterministic computation keyed
purely by its inputs.  This module supplies the execution seam those
loops fan out through:

- :class:`SerialBackend` — run everything in-process, in order (the
  default; byte-for-byte the historical behaviour);
- :class:`ProcessPoolBackend` — fan items across a
  :class:`concurrent.futures.ProcessPoolExecutor`, auto-sized to the
  CPUs this process may actually use.

Both satisfy the :class:`ExecutionBackend` protocol: per-item
``submit`` returns one future per item, the unit the supervised layer
(:mod:`repro.parallel.supervisor`) is built from; a serial backend runs
the item before it returns the settled future.  Since every submitted
function is deterministic, a caller that merges results by input
position gets output bit-identical to a serial run — the invariant the
property suite in ``tests/properties/test_parallel.py`` pins down.

Worker processes often need one-time, per-process state (e.g. a rebuilt
``Experiment``); pass ``initializer``/``initargs`` to
:func:`resolve_backend` and the pool forwards them to each worker on
start, exactly like ``ProcessPoolExecutor`` does.  ``mp_context`` picks
how workers start: ``None`` is the platform default (``fork`` on Linux),
which the pipeline relies on; the query service passes a ``forkserver``
context so no worker inherits its client sockets (see
``docs/EXECUTION.md``).  See ``docs/PERFORMANCE.md`` for when
``workers=`` actually helps.

:class:`ProcessPoolBackend` adds
:meth:`~ProcessPoolBackend.worker_pids` for host-level fault injection,
and :meth:`~ProcessPoolBackend.rebuild`, which kills the pool's worker
processes and discards the executor so the next submit gets a fresh
pool — the recovery step after worker death or a hung task.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ProcessPoolExecutor
from multiprocessing.context import BaseContext
from typing import Any, Callable, Protocol, runtime_checkable

from repro.errors import ConfigurationError

#: ``workers=AUTO_WORKERS`` sizes the pool to :func:`available_cpus`.
AUTO_WORKERS = 0


def available_cpus() -> int:
    """CPUs this process may actually use (affinity-aware).

    ``os.cpu_count`` reports the machine; a container or ``taskset`` may
    allow fewer.  Falls back to ``cpu_count`` where affinity is not a
    concept (macOS, Windows).
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


@runtime_checkable
class ExecutionBackend(Protocol):
    """The execution seam: one future per independent item.

    ``submit`` runs one item and returns its future, the unit the
    supervised layer is built from; how and where the function runs is
    the implementation's to choose.  ``shutdown`` releases whatever the
    backend holds (processes, threads); backends are context managers
    that call it on exit.
    """

    workers: int

    def submit(self, fn: Callable[[Any], Any], item: Any) -> Future: ...

    def shutdown(self) -> None: ...


class SerialBackend:
    """Everything in-process, in order — the degenerate one-worker pool.

    Runs ``initializer`` once (lazily, before the first submitted item)
    so task functions relying on initializer-installed state work
    identically under both backends: a backend given no item runs no
    initializer on either side (a process pool spawns lazily), and
    :meth:`shutdown` forgets the initialization — a reused serial
    backend re-runs its initializer exactly as a reused process backend
    spawns fresh, freshly initialized workers.
    """

    workers = 1

    def __init__(
        self,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
    ) -> None:
        self._initializer = initializer
        self._initargs = initargs
        self._initialized = False

    def submit(self, fn: Callable[[Any], Any], item: Any) -> Future:
        """Run one item now, in the calling thread; return its settled future.

        The supervisor drives both backends through ``submit``.  Here the
        call (and, on first use, the initializer) has finished before
        the future is returned, its result or exception stored in it
        the way a pool worker would report it.
        """
        future: Future = Future()
        try:
            self._initialize()
            future.set_result(fn(item))
        except Exception as exc:  # noqa: BLE001 - the future carries it
            future.set_exception(exc)
        return future

    def _initialize(self) -> None:
        if not self._initialized and self._initializer is not None:
            self._initializer(*self._initargs)
            self._initialized = True

    def shutdown(self) -> None:
        """Forget initializer state so reuse mirrors a fresh pool."""
        self._initialized = False

    def __enter__(self) -> SerialBackend:
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


class ProcessPoolBackend:
    """Fan items across worker processes (``concurrent.futures``).

    The executor is created lazily on the first :meth:`submit`, so
    building a backend costs nothing when every item turns out to be a
    cache hit.  ``mp_context`` is the multiprocessing context workers
    start from (``None``: the platform default).
    """

    def __init__(
        self,
        workers: int | None = None,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
        mp_context: BaseContext | None = None,
    ) -> None:
        if workers is None:
            workers = available_cpus()
        if workers < 1:
            raise ConfigurationError(
                f"process pool needs at least one worker, got {workers}"
            )
        self.workers = workers
        self._initializer = initializer
        self._initargs = initargs
        self._mp_context = mp_context
        self._executor: ProcessPoolExecutor | None = None

    def submit(self, fn: Callable[[Any], Any], item: Any) -> Future:
        """One item, one future — the supervised layer's building block.

        A raising item can only take itself down, and the caller sees
        each item's outcome (result, exception, pool breakage)
        individually.
        """
        return self._ensure_executor().submit(fn, item)

    def worker_pids(self) -> tuple[int, ...]:
        """PIDs of the live pool processes (empty before the first task).

        Exposed for the chaos harness and for the supervisor's
        hang-recovery path; the pids are a snapshot — workers the pool
        replaces after a crash get fresh ones.
        """
        if self._executor is None:
            return ()
        processes = getattr(self._executor, "_processes", None) or {}
        return tuple(processes.keys())

    def rebuild(self) -> None:
        """Kill the pool's workers and forget the executor.

        The recovery primitive after ``BrokenProcessPool`` (the workers
        are already dying) and after a hung task (they are not — a SIGKILL
        is the only way to reclaim a worker stuck in C code or an
        unbounded loop).  The next :meth:`submit` lazily spawns a fresh,
        freshly initialized pool.
        """
        executor, self._executor = self._executor, None
        if executor is None:
            return
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except (OSError, ValueError):  # pragma: no cover - racing exit
                pass
        executor.shutdown(wait=False, cancel_futures=True)

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=self._mp_context,
                initializer=self._initializer,
                initargs=self._initargs,
            )
        return self._executor

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> ProcessPoolBackend:
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def resolve_backend(
    workers: int | None,
    initializer: Callable[..., None] | None = None,
    initargs: tuple = (),
    mp_context: BaseContext | None = None,
) -> ExecutionBackend:
    """Turn a ``workers=`` argument into a backend.

    - ``None`` or ``1`` — :class:`SerialBackend` (the default
      everywhere: no processes, historical behaviour);
    - :data:`AUTO_WORKERS` (``0``) — auto-size to
      :func:`available_cpus`; degenerates to serial on a 1-CPU host;
    - ``k > 1`` — :class:`ProcessPoolBackend` with ``k`` workers;
    - anything else — :class:`~repro.errors.ConfigurationError`.

    ``mp_context`` reaches only a process pool: the serial backend runs
    in the calling process.
    """
    if workers is None:
        return SerialBackend(initializer, initargs)
    if not isinstance(workers, int) or isinstance(workers, bool):
        raise ConfigurationError(
            f"workers must be an int or None, got {workers!r}"
        )
    if workers == 1:
        return SerialBackend(initializer, initargs)
    if workers == AUTO_WORKERS:
        count = available_cpus()
        if count == 1:
            return SerialBackend(initializer, initargs)
        return ProcessPoolBackend(count, initializer, initargs, mp_context)
    if workers < 0:
        raise ConfigurationError(f"workers must be >= 0, got {workers}")
    return ProcessPoolBackend(workers, initializer, initargs, mp_context)
