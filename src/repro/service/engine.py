"""The asyncio query engine: three-tier reads over the model stack.

One :class:`QueryEngine` serves predict / simulate / optimize what-if
queries (see :mod:`repro.service.query`) through a three-tier read path:

1. **LRU** — an in-process, bounded map over canonical query
   fingerprints holding fully composed result payloads.  Hits cost a
   dictionary move-to-end.
2. **ResultCache** — the pipeline's persistent content-addressed store,
   opened as a multi-reader: measurements written by any past
   ``repro pipeline`` run (or by this service) are served to simulate
   queries without recomputation, under exactly the key
   ``Experiment.measure`` uses.  Predict queries skip this tier: one
   kernel call costs less than building a prediction key.
3. **Compute** — misses are coalesced:

   - identical fingerprints *in flight* share one evaluation
     (single-flight: N concurrent identical queries cost one compute);
   - a predict miss is scored where it lands, on the event loop, by
     one array-kernel call for its one candidate;
   - optimize queries run their grid search directly on the event
     loop, through the workload's shared kernel evaluator;
   - simulation-backed queries run on the supervised execution backend
     (:func:`~repro.parallel.resolve_backend` — the same ``workers=0``
     affinity auto-sizing as the batch pipeline) behind a bounded
     admission queue: at the cap, new simulate queries are rejected
     with a structured :class:`~repro.errors.AdmissionError` (HTTP
     429) instead of growing latency without bound.

Results are **bit-identical** to the equivalent library calls:
``predict`` matches :meth:`CostOptimizer.evaluate`, ``simulate``
matches :meth:`Experiment.measure`, ``optimize`` matches
:meth:`CostOptimizer.grid_search` — pinned by
``tests/unit/service/test_engine.py``.

Where the work runs: the event loop owns every shared structure (LRU,
in-flight table, the ResultCache, each workload's kernel evaluator) and
is the only writer of the ResultCache.  Predict scoring and optimize
grid searches run on the loop itself: both are pure Python under the
GIL, so handing them off would add no parallelism, only a
queue behind the simulator.  A grid search holds the loop for a few
milliseconds, most of them in the kernel: it builds a record for its
answer only.  :func:`~repro.service.query.parse_query` bounds its size
(at most seven distinct n1-standard shapes).

Every simulator call (a workload's first-touch profiling and each
simulation batch) runs through one background worker coroutine as a
supervised map (:class:`~repro.parallel.TaskSupervisor`), one map at a
time, whose waiting happens in a thread via ``asyncio.to_thread``.
With ``workers=None`` or ``1`` (or ``0`` on a one-CPU host) the
simulator runs in that thread, holding the GIL the loop needs.  With a
process backend it runs in long-lived worker processes and the thread
only waits.  Those workers start from a ``forkserver`` context
(``spawn`` where the platform has no fork server), never ``fork``: a
forked worker would inherit the server's accepted client sockets and
keep each connection open after the server closes it.  Workers ignore
SIGINT, which the serving process owns.  Either way the workers return
*values*: a measurement, or a profiling run's cache shard resolved
against a scratch cache, which the loop merges into the shared store
before it resolves the workload from it.  :meth:`QueryEngine.warm`
profiles every requested workload as one batch, so a pool profiles
them concurrently and starts up before the first query.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from multiprocessing.context import BaseContext

from repro.cloud.instance import machine_for_vcpus
from repro.cloud.optimizer import CostOptimizer
from repro.cloud.pricing import CloudConfiguration, config_dict
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    ExecutionError,
    QueryError,
    ServiceError,
)
from repro.parallel import ExecutionPolicy, TaskSupervisor, resolve_backend
from repro.pipeline.cache import ResultCache, run_key
from repro.pipeline.fingerprint import fingerprint as content_fingerprint
from repro.pipeline.platforms import ClusterPlatform
from repro.pipeline.sources import ResolvedWorkload, SpecSource
from repro.service.query import Query, parse_query
from repro.workloads.base import WorkloadSpec
from repro.workloads.runner import measure_workload

__all__ = ["QueryEngine"]


@dataclass(frozen=True)
class _SimPayload:
    """Picklable simulate-query work unit for the supervised backend."""

    spec: WorkloadSpec
    platform: ClusterPlatform
    nodes: int
    cores: int


def _simulate_item(payload: _SimPayload):
    """Module-level task fn (process pools must pickle it).

    Exactly the call :meth:`Experiment._measure_cell` makes for a clean
    run, which is what makes service simulate results bit-identical to
    ``Experiment.measure``.
    """
    return measure_workload(
        payload.platform.cluster(payload.nodes),
        payload.cores,
        payload.spec,
    )


@dataclass(frozen=True)
class _ProfilePayload:
    """Picklable profiling work unit for the supervised backend."""

    spec: WorkloadSpec
    profile_nodes: int


def _profile_item(payload: _ProfilePayload) -> dict[str, dict]:
    """Module-level task fn: profile one workload into a cache shard.

    The source resolves against a scratch cache, never the engine's
    shared one, and the fresh report crosses back as an
    :meth:`~ResultCache.export_shard` snapshot, the mechanism
    ``run_grid``'s workers use.
    """
    scratch = ResultCache()
    SpecSource(payload.spec, profile_nodes=payload.profile_nodes).resolve(
        scratch
    )
    return scratch.export_shard()


def _pool_context() -> BaseContext:
    """How the service's pool starts workers: never by ``fork``.

    A forked worker inherits the server's accepted client sockets.  A
    fork server is a fresh interpreter that inherits none, and naming
    this module as its preload means each worker forks with ``repro``
    already imported (the default preload, ``__main__``, is the
    launching script).
    """
    if "forkserver" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("forkserver")
        context.set_forkserver_preload([__name__])
        return context
    return multiprocessing.get_context("spawn")  # pragma: no cover - no fork server


def _pool_worker_init() -> None:
    """Pool initializer: leave Ctrl-C to the server, and exit with it.

    A terminal's SIGINT reaches the whole process group.  The server
    stops on it and reclaims its workers, so a worker raising
    ``KeyboardInterrupt`` too would only print a traceback.  A server
    that dies without reclaiming them (SIGTERM, SIGKILL) would leave
    each worker blocked on its call queue for good, so a watcher thread
    ends the worker once the server is gone.  On the serial backend
    this runs in the serving process and does nothing.
    """
    server = multiprocessing.parent_process()
    if server is None:
        return
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(
        target=_exit_with_server, args=(server.sentinel,), daemon=True
    ).start()


def _exit_with_server(sentinel: int) -> None:
    """Block until the server process is gone, then end this worker."""
    multiprocessing.connection.wait([sentinel])
    os._exit(1)


def _deliver(future: asyncio.Future, outcome) -> None:
    """Resolve ``future`` with a result, or an exception if ``outcome`` is one."""
    if future.done():
        return
    if isinstance(outcome, BaseException):
        future.set_exception(outcome)
        future.exception()  # mark retrieved for waiterless failures
    else:
        future.set_result(outcome)


@dataclass
class _SimItem:
    """One admitted simulate query waiting on the compute tier."""

    payload: _SimPayload
    key: str
    future: asyncio.Future


@dataclass
class _ProfileItem:
    """One workload waiting on the compute tier for its first profile."""

    name: str
    source: SpecSource
    future: asyncio.Future


@dataclass
class _WorkloadState:
    """Per-workload serving state: spec, profiled report, scorer."""

    spec: WorkloadSpec
    resolved: ResolvedWorkload
    # One scorer per workload: `score_candidates` only depends on the
    # report, so configs with any num_workers share it.
    scorer: CostOptimizer
    # Capacity floors per num_workers (feasibility is N-dependent).
    capacity: dict[int, tuple[float, float]] = field(default_factory=dict)

    def capacity_for(self, num_workers: int) -> tuple[float, float]:
        mins = self.capacity.get(num_workers)
        if mins is None:
            mins = CostOptimizer.capacity_requirements(
                self.spec, num_workers=num_workers
            )
            self.capacity[num_workers] = mins
        return mins


class QueryEngine:
    """Concurrent what-if query engine over a set of workloads.

    Parameters
    ----------
    workloads:
        ``{name: WorkloadSpec}`` — the specs this engine serves.
    cache:
        Optional shared :class:`ResultCache` (tier 2).  File-backed
        caches are checkpointed after every simulation batch and when the
        engine closes; :meth:`ResultCache.checkpoint` writes only what is
        new.
    lru_size:
        Capacity of the tier-1 result LRU (canonical-fingerprint keyed).
    sim_queue_cap:
        Maximum simulate queries admitted but not yet completed; beyond
        it, :class:`~repro.errors.AdmissionError` (the structured 429).
    workers:
        Compute-tier sizing with the pipeline's ``workers=`` semantics —
        ``None``/``1`` serial, ``0`` affinity auto-sized, ``k`` processes
        — resolved by :func:`repro.parallel.resolve_backend`, the single
        source of truth shared with ``run_grid``.  ``repro serve``
        passes ``0``; the library default stays serial.
    profile_nodes:
        Cluster size for the four-sample-run profiling a predict or
        optimize query triggers on first touch of a workload.
    execution:
        Optional :class:`~repro.parallel.ExecutionPolicy` for the
        supervised simulator calls, profiling and simulation batches
        alike (per-item timeout, retries).
    """

    def __init__(
        self,
        workloads: dict[str, WorkloadSpec],
        cache: ResultCache | None = None,
        *,
        lru_size: int = 1024,
        sim_queue_cap: int = 16,
        workers: int | None = None,
        profile_nodes: int = 3,
        execution: ExecutionPolicy | None = None,
    ) -> None:
        if not workloads:
            raise ConfigurationError("the query engine needs at least one workload")
        if lru_size < 1:
            raise ConfigurationError(f"lru_size must be >= 1, got {lru_size}")
        if sim_queue_cap < 1:
            raise ConfigurationError(
                f"sim_queue_cap must be >= 1, got {sim_queue_cap}"
            )
        self.workloads = dict(workloads)
        self.cache = cache if cache is not None else ResultCache()
        self.lru_size = lru_size
        self.sim_queue_cap = sim_queue_cap
        self.profile_nodes = profile_nodes
        self._backend = resolve_backend(
            workers, initializer=_pool_worker_init, mp_context=_pool_context()
        )
        self._supervisor = TaskSupervisor(
            self._backend,
            execution if execution is not None else ExecutionPolicy(),
        )
        # Hot-path identity is the parsed Query itself: a frozen
        # dataclass in canonical form, so equality/hash ARE canonical
        # equivalence — no content hashing on the LRU path.
        self._lru: OrderedDict[Query, dict] = OrderedDict()
        self._inflight: dict[Query, asyncio.Future] = {}
        self._states: dict[str, _WorkloadState] = {}
        self._spec_fps: dict[str, str] = {}
        self._platforms: dict[tuple[str, str], tuple[ClusterPlatform, str]] = {}
        self._state_futures: dict[str, asyncio.Future] = {}
        self._profile_pending: list[_ProfileItem] = []
        self._sim_pending: list[_SimItem] = []
        self._sim_running = 0
        self._work_event = asyncio.Event()
        self._worker_task: asyncio.Task | None = None
        self._closed = False
        self.counters = {
            "queries": 0,
            "lru_hits": 0,
            "lru_evictions": 0,
            "coalesced": 0,
            "tier2_hits": 0,
            "sim_completed": 0,
            "sim_rejected": 0,
            "sim_save_errors": 0,
            "errors": 0,
        }

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Start the background compute worker (idempotent)."""
        if self._closed:
            raise ServiceError("query engine is closed")
        if self._worker_task is None:
            self._worker_task = asyncio.create_task(self._worker())

    async def close(self) -> None:
        """Drain nothing, stop the worker, release the backend.

        A supervised batch in flight is cancelled, not waited out: a
        process pool's workers are killed the way a pool rebuild kills
        them, while on the serial backend the thread finishes the item
        it is running and its result is dropped.
        """
        self._closed = True
        self._supervisor.cancel()
        if self._worker_task is not None:
            self._worker_task.cancel()
            try:
                await self._worker_task
            except asyncio.CancelledError:
                pass
            self._worker_task = None
        for item in [*self._sim_pending, *self._profile_pending]:
            _deliver(item.future, ServiceError("engine closed"))
        self._sim_pending.clear()
        self._profile_pending.clear()
        self._backend.shutdown()
        self.cache.checkpoint()

    async def __aenter__(self) -> "QueryEngine":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def warm(self, names=None) -> None:
        """Profile workload states up front, off the hot path, as one batch.

        Every named workload not yet profiled joins one supervised map,
        so a process pool starts up here and profiles them concurrently;
        a workload left out still profiles on its first query.
        """
        names = sorted(self.workloads) if names is None else list(names)
        for name in names:
            if name not in self.workloads:
                raise QueryError(f"unknown workload {name!r}")
        await asyncio.gather(*(self._state(name) for name in names))

    # -- the hot path --------------------------------------------------------

    async def submit(self, query) -> dict:
        """Answer one query (dict payload or parsed :class:`Query`)."""
        if self._closed:
            raise ServiceError("query engine is closed")
        await self.start()
        self.counters["queries"] += 1
        if not isinstance(query, Query):
            try:
                query = parse_query(query, known_workloads=self.workloads)
            except QueryError:
                self.counters["errors"] += 1
                raise

        cached = self._lru.get(query)
        if cached is not None:
            self._lru.move_to_end(query)
            self.counters["lru_hits"] += 1
            return dict(cached)

        inflight = self._inflight.get(query)
        if inflight is not None:
            self.counters["coalesced"] += 1
            return dict(await asyncio.shield(inflight))

        future = asyncio.get_running_loop().create_future()
        self._inflight[query] = future
        try:
            result = await self._compute(query, query.fingerprint)
        except BaseException as exc:
            self.counters["errors"] += 1
            future.set_exception(exc)
            future.exception()  # mark retrieved for waiterless failures
            raise
        else:
            future.set_result(result)
        finally:
            self._inflight.pop(query, None)
        self._lru_put(query, result)
        return dict(result)

    def _lru_put(self, query: Query, result: dict) -> None:
        self._lru[query] = result
        self._lru.move_to_end(query)
        while len(self._lru) > self.lru_size:
            self._lru.popitem(last=False)
            self.counters["lru_evictions"] += 1

    # -- dispatch ------------------------------------------------------------

    async def _compute(self, query: Query, fp: str) -> dict:
        if query.kind == "predict":
            return await self._compute_predict(query, fp)
        if query.kind == "simulate":
            return await self._compute_simulate(query, fp)
        return await self._compute_optimize(query, fp)

    async def _compute_predict(self, query: Query, fp: str) -> dict:
        state = await self._state(query.workload)
        config = CloudConfiguration(
            machine=machine_for_vcpus(query.vcpus),
            num_workers=query.num_workers,
            hdfs_disk_kind=query.hdfs_kind,
            hdfs_disk_gb=query.hdfs_gb,
            local_disk_kind=query.local_kind,
            local_disk_gb=query.local_gb,
        )
        min_hdfs, min_local = state.capacity_for(query.num_workers)
        if config.hdfs_disk_gb < min_hdfs or config.local_disk_gb < min_local:
            raise QueryError(
                f"infeasible configuration {config.label()}: {query.workload}"
                f" needs >= {min_hdfs:.0f}GB HDFS and >= {min_local:.0f}GB"
                f" local per node at N={query.num_workers}"
            )
        evaluated = state.scorer.score_candidates([config])[0]
        return {
            "kind": "predict",
            "workload": query.workload,
            "fingerprint": fp,
            "config": config_dict(config),
            "runtime_seconds": evaluated.runtime_seconds,
            "cost_dollars": evaluated.cost_dollars,
        }

    async def _compute_simulate(self, query: Query, fp: str) -> dict:
        spec = self.workloads[query.workload]
        spec_fp = self._spec_fps.get(query.workload)
        if spec_fp is None:
            spec_fp = content_fingerprint(spec)
            self._spec_fps[query.workload] = spec_fp
        disks = (query.hdfs, query.local)
        entry = self._platforms.get(disks)
        if entry is None:
            platform = ClusterPlatform(hdfs_kind=query.hdfs, local_kind=query.local)
            entry = (platform, platform.fingerprint())
            self._platforms[disks] = entry
        platform, platform_fp = entry
        # Tier 2: the pipeline's measurement key (clean run, no network,
        # no faults) — `Experiment.measure` reads and writes the same one.
        key = run_key(spec_fp, platform_fp, query.slaves, query.cores)
        if self.cache.contains_measurement(key):
            measurement = self.cache.get_measurement(key)
            self.counters["tier2_hits"] += 1
        else:
            outstanding = len(self._sim_pending) + self._sim_running
            if outstanding >= self.sim_queue_cap:
                self.counters["sim_rejected"] += 1
                raise AdmissionError(
                    f"simulation queue is full ({outstanding} outstanding,"
                    f" cap {self.sim_queue_cap}); retry later",
                    queue_depth=outstanding,
                    queue_cap=self.sim_queue_cap,
                )
            item = _SimItem(
                payload=_SimPayload(
                    spec=spec, platform=platform,
                    nodes=query.slaves, cores=query.cores,
                ),
                key=key,
                future=asyncio.get_running_loop().create_future(),
            )
            self._sim_pending.append(item)
            self._work_event.set()
            measurement = await item.future
            self.counters["sim_completed"] += 1
        return {
            "kind": "simulate",
            "workload": query.workload,
            "fingerprint": fp,
            "slaves": query.slaves,
            "cores_per_node": query.cores,
            "hdfs": query.hdfs,
            "local": query.local,
            "total_seconds": measurement.total_seconds,
            "stages": [
                {
                    "name": stage.name,
                    "num_tasks": stage.num_tasks,
                    "makespan_seconds": stage.makespan,
                }
                for stage in measurement.stages
            ],
        }

    async def _compute_optimize(self, query: Query, fp: str) -> dict:
        state = await self._state(query.workload)
        min_hdfs, min_local = state.capacity_for(query.num_workers)
        # On the loop: the optimizer shares the workload's kernel
        # evaluator (and its disk tables) through the predictor.
        result = CostOptimizer(
            state.scorer.predictor,
            num_workers=query.num_workers,
            min_hdfs_gb=min_hdfs,
            min_local_gb=min_local,
        ).grid_search(vcpu_grid=query.vcpu_grid)
        return {
            "kind": "optimize",
            "workload": query.workload,
            "fingerprint": fp,
            "vcpu_grid": list(query.vcpu_grid),
            "num_workers": query.num_workers,
            "num_evaluated": result.num_evaluated,
            "best": {
                "config": config_dict(result.best.config),
                "runtime_seconds": result.best.runtime_seconds,
                "cost_dollars": result.best.cost_dollars,
            },
        }

    # -- workload state ------------------------------------------------------

    async def _state(self, name: str) -> _WorkloadState:
        state = self._states.get(name)
        if state is not None:
            return state
        future = self._state_futures.get(name)
        if future is None:
            source = SpecSource(
                self.workloads[name], profile_nodes=self.profile_nodes
            )
            if self.cache.contains_report(source.report_key):
                # Profiled by an earlier run: resolving is a lookup.
                return self._install_state(name, source)
            future = asyncio.get_running_loop().create_future()
            self._state_futures[name] = future
            self._profile_pending.append(_ProfileItem(name, source, future))
            self._work_event.set()
        return await asyncio.shield(future)

    def _install_state(self, name: str, source: SpecSource) -> _WorkloadState:
        """Build a workload's serving state on the loop.

        Only called once ``self.cache`` holds the source's report, so
        resolving is a cache hit, never a profile.
        """
        from repro.core.predictor import Predictor

        resolved = source.resolve(self.cache)
        state = _WorkloadState(
            spec=source.spec,
            resolved=resolved,
            scorer=CostOptimizer(Predictor(resolved.report)),
        )
        self._states[name] = state
        return state

    # -- the background compute worker ---------------------------------------

    async def _worker(self) -> None:
        while True:
            await self._work_event.wait()
            self._work_event.clear()
            while self._profile_pending or self._sim_pending:
                if self._sim_pending:
                    batch, self._sim_pending = self._sim_pending, []
                    await self._run_sim_batch(batch)
                if self._profile_pending:
                    batch, self._profile_pending = self._profile_pending, []
                    await self._run_profile_batch(batch)

    async def _supervised(self, fn, payloads: list, what: str) -> list:
        """One supervised map off the loop: each item's result or error.

        A failed item's error is the library error its task raised, as
        itself, or else an :class:`ExecutionError` for worker loss,
        timeouts and other exceptions.
        """
        report = await asyncio.to_thread(self._supervisor.run, fn, payloads)
        outcomes = list(report.results)
        for failure in report.failures:
            outcomes[failure.index] = failure.error or ExecutionError(
                f"{what} failed after {failure.attempts}"
                f" attempt(s): {failure.message}",
                failures=(failure,),
            )
        return outcomes

    async def _run_profile_batch(self, batch: list[_ProfileItem]) -> None:
        """Profile workloads on the backend; merge and install on the loop."""
        payloads = [
            _ProfilePayload(item.source.spec, self.profile_nodes)
            for item in batch
        ]
        try:
            outcomes = await self._supervised(_profile_item, payloads, "profiling")
        except BaseException as exc:
            for item in batch:
                self._state_futures.pop(item.name, None)
                _deliver(item.future, exc)
            if not isinstance(exc, Exception):
                raise  # cancellation (engine close) ends the worker
            return
        for item, outcome in zip(batch, outcomes):
            self._state_futures.pop(item.name, None)
            if not isinstance(outcome, BaseException):
                try:
                    self.cache.merge_shard(outcome)
                    outcome = self._install_state(item.name, item.source)
                except Exception as exc:  # noqa: BLE001 - keep the worker alive
                    outcome = exc
            _deliver(item.future, outcome)

    async def _run_sim_batch(self, batch: list[_SimItem]) -> None:
        """One supervised map over the admitted simulate queries."""
        self._sim_running = len(batch)
        try:
            outcomes = await self._supervised(
                _simulate_item, [item.payload for item in batch],
                "simulate query",
            )
        except BaseException as exc:
            for item in batch:
                _deliver(
                    item.future, ServiceError(f"simulation batch failed: {exc}")
                )
            if not isinstance(exc, Exception):
                raise  # cancellation (engine close) ends the worker
            return
        finally:
            self._sim_running = 0
        for item, outcome in zip(batch, outcomes):
            if item.future.done():
                continue
            if not isinstance(outcome, BaseException):
                self.cache.put_measurement(item.key, outcome)
            _deliver(item.future, outcome)
        # The answers are delivered and the entries stay in memory, so a
        # failed checkpoint costs nothing the next one cannot retry;
        # letting it escape would end the worker.
        try:
            self.cache.checkpoint()
        except OSError:
            self.counters["sim_save_errors"] += 1

    # -- observability -------------------------------------------------------

    def stats(self) -> dict:
        """The serving counters ``/stats`` and the load generator read."""
        return {
            "workloads": sorted(self.workloads),
            "queries": self.counters["queries"],
            "errors": self.counters["errors"],
            "coalesced": self.counters["coalesced"],
            "inflight": len(self._inflight),
            "lru": {
                "size": len(self._lru),
                "capacity": self.lru_size,
                "hits": self.counters["lru_hits"],
                "evictions": self.counters["lru_evictions"],
            },
            "sim": {
                "queued": len(self._sim_pending),
                "running": self._sim_running,
                "cap": self.sim_queue_cap,
                "completed": self.counters["sim_completed"],
                "rejected": self.counters["sim_rejected"],
                "save_errors": self.counters["sim_save_errors"],
                "workers": self._backend.workers,
                "backend": type(self._backend).__name__,
            },
            "tier2_hits": self.counters["tier2_hits"],
            "tier2": self.cache.stats(),
        }
