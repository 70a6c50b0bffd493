"""The asyncio query engine: three-tier reads over the model stack.

One :class:`QueryEngine` serves predict / simulate / optimize what-if
queries (see :mod:`repro.service.query`) through a three-tier read path:

1. **LRU** — an in-process, bounded map over canonical query
   fingerprints holding fully composed result payloads.  Hits cost a
   dictionary move-to-end.
2. **ResultCache** — the pipeline's persistent content-addressed store,
   opened as a multi-reader: measurements and predictions written by
   any past ``repro pipeline`` / ``repro optimize`` run (or by this
   service) are served without recomputation, under exactly the keys
   the batch pipeline uses.
3. **Compute** — misses are coalesced and batched:

   - identical fingerprints *in flight* share one evaluation
     (single-flight: N concurrent identical queries cost one compute);
   - distinct model-only (predict) queries are micro-batched into one
     :class:`~repro.model.arrays.CandidateBatch` kernel call
     (:class:`~repro.service.batcher.MicroBatcher`);
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

Threading model: the event loop owns every shared structure (LRU,
in-flight table, batcher, the ResultCache).  Heavy work (profiling,
simulation batches, grid searches) runs through one background worker
coroutine that hops into a thread via ``asyncio.to_thread`` and hands
*pure results* back to the loop, so cache mutation and persistence
always happen on the loop — no locks, no torn saves.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict, deque
from dataclasses import dataclass, field

from repro.cloud.instance import machine_for_vcpus
from repro.cloud.optimizer import CostOptimizer
from repro.cloud.pricing import CloudConfiguration
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    ExecutionError,
    QueryError,
    ServiceError,
)
from repro.model.arrays import backend_name
from repro.parallel import ExecutionPolicy, TaskSupervisor, resolve_backend
from repro.pipeline.cache import ResultCache, prediction_key, run_key
from repro.pipeline.fingerprint import fingerprint as content_fingerprint
from repro.pipeline.platforms import ClusterPlatform, CloudPlatform
from repro.pipeline.sources import ResolvedWorkload, SpecSource
from repro.service.batcher import MicroBatcher
from repro.service.query import Query, parse_query
from repro.workloads.base import WorkloadSpec
from repro.workloads.runner import measure_workload

__all__ = ["QueryEngine", "config_dict"]


def config_dict(config: CloudConfiguration) -> dict:
    """A CloudConfiguration as a JSON-ready mapping (the CLI's shape)."""
    return {
        "machine": config.machine.name,
        "vcpus": config.machine.vcpus,
        "num_workers": config.num_workers,
        "hdfs_disk_kind": config.hdfs_disk_kind,
        "hdfs_disk_gb": config.hdfs_disk_gb,
        "local_disk_kind": config.local_disk_kind,
        "local_disk_gb": config.local_disk_gb,
        "label": config.label(),
    }


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


@dataclass
class _SimItem:
    """One admitted simulate query waiting on the compute tier."""

    payload: _SimPayload
    key: str
    future: asyncio.Future


@dataclass
class _PredictEntry:
    """One predict query waiting in the micro-batcher."""

    state: "_WorkloadState"
    config: CloudConfiguration
    future: asyncio.Future


@dataclass
class _WorkloadState:
    """Per-workload serving state: spec, profiled report, scorer."""

    spec: WorkloadSpec
    resolved: ResolvedWorkload
    # One scorer per workload: `score_candidates` only depends on the
    # report, so configs with different num_workers share a batch.
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
        caches are checkpointed after every fresh simulation batch.
    lru_size:
        Capacity of the tier-1 result LRU (canonical-fingerprint keyed).
    batch_max / batch_delay:
        Micro-batcher bounds for model-only queries (entries / seconds).
    sim_queue_cap:
        Maximum simulate queries admitted but not yet completed; beyond
        it, :class:`~repro.errors.AdmissionError` (the structured 429).
    workers:
        Compute-tier sizing with the pipeline's ``workers=`` semantics —
        ``None``/``1`` serial, ``0`` affinity auto-sized, ``k`` processes
        — resolved by :func:`repro.parallel.resolve_backend`, the single
        source of truth shared with ``run_grid``.
    profile_nodes:
        Cluster size for the four-sample-run profiling a predict or
        optimize query triggers on first touch of a workload.
    execution:
        Optional :class:`~repro.parallel.ExecutionPolicy` for the
        supervised simulation batches (per-item timeout, retries).
    """

    def __init__(
        self,
        workloads: dict[str, WorkloadSpec],
        cache: ResultCache | None = None,
        *,
        lru_size: int = 1024,
        batch_max: int = 32,
        batch_delay: float = 0.002,
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
        self._backend = resolve_backend(workers)
        self._policy = execution if execution is not None else ExecutionPolicy()
        self._batcher = MicroBatcher(
            self._flush_predicts, max_batch=batch_max, max_delay=batch_delay
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
        self._jobs: deque = deque()
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
        """Drain nothing, stop the worker, release the backend."""
        self._closed = True
        self._batcher.close()
        if self._worker_task is not None:
            self._worker_task.cancel()
            try:
                await self._worker_task
            except asyncio.CancelledError:
                pass
            self._worker_task = None
        for item in self._sim_pending:
            if not item.future.done():
                item.future.set_exception(ServiceError("engine closed"))
                item.future.exception()
        self._sim_pending.clear()
        self._backend.shutdown()
        if self.cache.path is not None:
            self.cache.save()

    async def __aenter__(self) -> "QueryEngine":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def warm(self, names=None) -> None:
        """Resolve (profile) workload states up front, off the hot path."""
        for name in names if names is not None else sorted(self.workloads):
            if name not in self.workloads:
                raise QueryError(f"unknown workload {name!r}")
            await self._state(name)

    # -- the hot path --------------------------------------------------------

    async def submit(self, query) -> dict:
        """Answer one query (dict payload or parsed :class:`Query`)."""
        if self._closed:
            raise ServiceError("query engine is closed")
        await self.start()
        if not isinstance(query, Query):
            query = parse_query(query, known_workloads=self.workloads)
        self.counters["queries"] += 1

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
        # Tier 2: the pipeline's content-addressed prediction key — the
        # very key `repro optimize --cache` writes candidate scores
        # under.  The key is itself a content hash, so against a store
        # with no predictions it is skipped outright.
        prediction = None
        if self.cache.num_predictions:
            key = prediction_key(
                state.resolved.report_fingerprint,
                CloudPlatform(config).fingerprint(),
                config.num_workers,
                config.cores_per_node,
            )
            prediction = self.cache.get_prediction(key)
        if prediction is not None:
            self.counters["tier2_hits"] += 1
            runtime = prediction.t_app
            cost = config.cost_for_runtime(runtime)
        else:
            entry = _PredictEntry(
                state=state,
                config=config,
                future=asyncio.get_running_loop().create_future(),
            )
            self._batcher.add(entry)
            evaluated = await entry.future
            runtime = evaluated.runtime_seconds
            cost = evaluated.cost_dollars
        return {
            "kind": "predict",
            "workload": query.workload,
            "fingerprint": fp,
            "config": config_dict(config),
            "runtime_seconds": runtime,
            "cost_dollars": cost,
            "backend": backend_name(),
        }

    def _flush_predicts(self, entries) -> None:
        """Micro-batch flush: one kernel call per distinct workload state."""
        groups: dict[int, list[_PredictEntry]] = {}
        for entry in entries:
            groups.setdefault(id(entry.state), []).append(entry)
        for group in groups.values():
            configs = [entry.config for entry in group]
            try:
                evaluated = group[0].state.scorer.score_candidates(configs)
            except Exception as exc:  # noqa: BLE001 - fan the failure out
                for entry in group:
                    if not entry.future.done():
                        entry.future.set_exception(exc)
                        entry.future.exception()
                continue
            for entry, record in zip(group, evaluated):
                if not entry.future.done():
                    entry.future.set_result(record)

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
        optimizer = CostOptimizer(
            state.scorer.predictor,
            num_workers=query.num_workers,
            min_hdfs_gb=min_hdfs,
            min_local_gb=min_local,
        )
        result = await self._call(
            lambda: optimizer.grid_search(vcpu_grid=query.vcpu_grid)
        )
        return {
            "kind": "optimize",
            "workload": query.workload,
            "fingerprint": fp,
            "vcpu_grid": list(query.vcpu_grid),
            "num_workers": query.num_workers,
            "num_evaluated": result.num_evaluated,
            "backend": backend_name(),
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
            future = asyncio.get_running_loop().create_future()
            self._state_futures[name] = future
            self._jobs.append(("state", name, future))
            self._work_event.set()
        return await asyncio.shield(future)

    def _build_state(self, name: str) -> _WorkloadState:
        """Profile a workload into serving state (runs in a thread).

        The source resolves through a scratch cache seeded from the
        shared store, so a report persisted by an earlier run is a hit;
        fresh entries are merged back on the event loop by the worker.
        """
        spec = self.workloads[name]
        source = SpecSource(spec, profile_nodes=self.profile_nodes)
        resolved = source.resolve(self.cache)
        from repro.core.predictor import Predictor

        scorer = CostOptimizer(Predictor(resolved.report))
        # Prime the batch evaluator off the hot path: the kernel's first
        # call pays one-time backend dispatch setup that would otherwise
        # land on the first real micro-batch.
        scorer.score_candidates(
            [scorer.make_config(4, "pd-standard", 64.0, "pd-standard", 64.0)]
        )
        return _WorkloadState(spec=spec, resolved=resolved, scorer=scorer)

    # -- the background compute worker ---------------------------------------

    async def _call(self, fn):
        """Run ``fn`` on the worker's thread, serialized with other jobs."""
        future = asyncio.get_running_loop().create_future()
        self._jobs.append(("call", fn, future))
        self._work_event.set()
        return await asyncio.shield(future)

    async def _worker(self) -> None:
        while True:
            await self._work_event.wait()
            self._work_event.clear()
            while self._jobs or self._sim_pending:
                if self._sim_pending:
                    batch, self._sim_pending = self._sim_pending, []
                    await self._run_sim_batch(batch)
                if self._jobs:
                    await self._run_job(self._jobs.popleft())

    async def _run_job(self, job) -> None:
        kind = job[0]
        if kind == "state":
            _, name, future = job
            try:
                state = await asyncio.to_thread(self._build_state, name)
            except BaseException as exc:
                self._state_futures.pop(name, None)
                if not future.done():
                    future.set_exception(exc)
                    future.exception()
            else:
                self._states[name] = state
                self._state_futures.pop(name, None)
                if not future.done():
                    future.set_result(state)
            return
        _, fn, future = job
        try:
            result = await asyncio.to_thread(fn)
        except BaseException as exc:
            if not future.done():
                future.set_exception(exc)
                future.exception()
        else:
            if not future.done():
                future.set_result(result)

    async def _run_sim_batch(self, batch: list[_SimItem]) -> None:
        """One supervised map over the admitted simulate queries."""
        self._sim_running = len(batch)
        supervisor = TaskSupervisor(self._backend, self._policy)
        try:
            report = await asyncio.to_thread(
                supervisor.run, _simulate_item, [item.payload for item in batch]
            )
        except BaseException as exc:
            for item in batch:
                if not item.future.done():
                    item.future.set_exception(
                        ServiceError(f"simulation batch failed: {exc}")
                    )
                    item.future.exception()
            return
        finally:
            self._sim_running = 0
        failures = {failure.index: failure for failure in report.failures}
        fresh = False
        for index, item in enumerate(batch):
            if item.future.done():
                continue
            failure = failures.get(index)
            if failure is not None:
                item.future.set_exception(ExecutionError(
                    f"simulate query failed after {failure.attempts}"
                    f" attempt(s): {failure.message}",
                    failures=(failure,),
                ))
                item.future.exception()
            elif report.results[index] is None:
                item.future.set_exception(
                    ServiceError("simulation batch aborted before this query")
                )
                item.future.exception()
            else:
                measurement = report.results[index]
                self.cache.put_measurement(item.key, measurement)
                fresh = True
                item.future.set_result(measurement)
        if fresh and self.cache.path is not None:
            self.cache.save()

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
            "batches": self._batcher.stats(),
            "sim": {
                "queued": len(self._sim_pending),
                "running": self._sim_running,
                "cap": self.sim_queue_cap,
                "completed": self.counters["sim_completed"],
                "rejected": self.counters["sim_rejected"],
                "workers": self._backend.workers,
                "backend": type(self._backend).__name__,
            },
            "tier2_hits": self.counters["tier2_hits"],
            "tier2": self.cache.stats(),
        }
