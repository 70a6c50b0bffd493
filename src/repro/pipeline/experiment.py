"""The experiment orchestrator: one loop for every frontend.

An :class:`Experiment` binds a workload source to a platform and drives
the paper's whole methodology through one API:

- :meth:`measure` — simulate the "exp" side on the platform's cluster;
- :meth:`predict` — evaluate the Equation-1 "model" side on the same
  devices;
- :meth:`run` — both, composed into a uniform
  :class:`~repro.pipeline.records.RunResult` with per-stage breakdown,
  error rate, and utilizations;
- :meth:`run_grid` — the cross product over ``(N, P, run_index)`` that
  sweeps and validation figures are made of.

Every product is memoized in the experiment's :class:`~repro.pipeline
.cache.ResultCache` under content-addressed keys, so repeated points —
within a sweep, across sweeps, or across a whole optimizer search — cost
a dictionary lookup and return bit-identical records.

Grid cells are independent deterministic computations, so
:meth:`run_grid` (and :meth:`run_repeated`, which delegates to it) takes
``workers=`` and fans cold cells across a
:mod:`repro.parallel` process pool: each worker rebuilds the experiment
from a pickled ``(spec, report, platform, ...)`` payload, simulates its
cells into a private in-memory cache, and ships the fresh entries back
as shards; the parent merges the shards and composes every record
in-order from the now-warm cache — which is why parallel output is
bit-identical to serial (see ``docs/PERFORMANCE.md``).

Parallel grids run *supervised*: cold cells go through a
:class:`~repro.parallel.supervisor.TaskSupervisor` under an
:class:`~repro.parallel.supervisor.ExecutionPolicy` (``execution=``), so
a dead worker rebuilds the pool and retries only the in-flight cells, a
hung cell trips its per-item timeout, and a poison cell is quarantined
*after* the surviving cells' shards are merged: a cell's own library
error is raised as itself, as a serial grid raises it, and host
failures as a structured :class:`~repro.errors.ExecutionError`.  Each
shard is checkpointed to a file-backed cache as it lands, so a killed
or failed run resumes from the last merged shard (see
``docs/EXECUTION.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.cluster.network import NetworkModel
from repro.core.app_model import ApplicationPrediction
from repro.core.profiler import ProfilingReport
from repro.faults.plan import FaultPlan
from repro.core.predictor import Predictor
from repro.errors import ConfigurationError
from repro.parallel import (
    ExecutionPolicy,
    TaskSupervisor,
    resolve_backend,
    validate_execution,
)
from repro.pipeline.cache import ResultCache, mix_key, prediction_key, run_key
from repro.pipeline.fingerprint import fingerprint
from repro.pipeline.platforms import Platform, as_platform
from repro.pipeline.records import (
    MixJobResult,
    MixResult,
    RunResult,
    compose_run_result,
)
from repro.pipeline.sources import ResolvedWorkload, WorkloadSource, as_source
from repro.resilience import ResiliencePolicy
from repro.schedule.mix import (
    JobTimeline,
    MixJob,
    MixMeasurement,
    canonical_jobs,
    measure_mix as simulate_mix,
)
from repro.simulator.run import ApplicationMeasurement, busy_fractions
from repro.workloads.base import WorkloadSpec, scale_workload_volume
from repro.workloads.runner import measure_workload

#: Sentinel for "use the experiment's own fault plan" on per-call
#: ``faults=`` overrides (``None`` must mean "no faults").
_DEFAULT_FAULTS = object()

#: Same trick for per-call ``resilience=`` overrides.
_DEFAULT_RESILIENCE = object()


@dataclass(frozen=True)
class _GridContext:
    """Per-grid invariants, fingerprinted once instead of once per cell.

    ``measure`` used to recompute the spec, network, fault, and
    resilience fingerprints for every cell of a grid; they only depend
    on the experiment and the call-level overrides, so one context per
    grid (or per single run) covers every cell.
    """

    plan: FaultPlan | None
    policy: ResiliencePolicy | None
    spec: WorkloadSpec
    spec_fp: str
    network_fp: str
    fault_fp: str
    resilience_fp: str


class Experiment:
    """A workload source bound to a platform, with cached products.

    Parameters
    ----------
    source:
        Anything :func:`~repro.pipeline.sources.as_source` accepts — a
        spec, a ``DoppioContext`` / profile list, a profiling report, or
        a report path.
    platform:
        Anything :func:`~repro.pipeline.platforms.as_platform` accepts —
        a cluster, a hybrid disk configuration, or a cloud configuration.
    cache:
        Shared :class:`ResultCache`; a private one is created when
        omitted, so memoization always works within the experiment.
    network:
        Optional finite network; ``None`` (the default) keeps the
        infinite-network behaviour every existing benchmark was tuned
        against.
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan` superimposed on
        every *measurement* (predictions stay fault-blind, so a faulted
        ``RunResult`` reads as sim-under-faults vs. the clean Eq.-1
        model).  The plan's fingerprint is folded into measurement cache
        keys; individual calls may override with their own ``faults=``.
    resilience:
        Optional :class:`~repro.resilience.ResiliencePolicy` arming the
        simulator's recovery mechanisms on every measurement.  Like
        faults, its fingerprint is folded into measurement cache keys
        (mitigated runs never collide with unmitigated ones) and
        individual calls may override with ``resilience=``.
    """

    def __init__(
        self,
        source,
        platform,
        cache: ResultCache | None = None,
        network: NetworkModel | None = None,
        faults: FaultPlan | None = None,
        resilience: ResiliencePolicy | None = None,
    ) -> None:
        self.source: WorkloadSource = as_source(source)
        self.platform: Platform = as_platform(platform)
        self.cache = cache if cache is not None else ResultCache()
        self.network = network
        self.faults = faults
        self.resilience = resilience
        self._platform_fp = self.platform.fingerprint()
        self._resolved: ResolvedWorkload | None = None
        self._predictor: Predictor | None = None

    # -- resolution ----------------------------------------------------------

    @property
    def resolved(self) -> ResolvedWorkload:
        """The source's canonical (spec, report) pair, resolved once."""
        if self._resolved is None:
            self._resolved = self.source.resolve(self.cache)
        return self._resolved

    @property
    def predictor(self) -> Predictor:
        """Equation-1 predictor over the resolved profiling report."""
        if self._predictor is None:
            self._predictor = Predictor(self.resolved.report)
        return self._predictor

    @property
    def network_gbps(self) -> float | None:
        """Configured per-link bandwidth in Gb/s (``None`` = infinite)."""
        if self.network is None:
            return None
        return self.network.link_bandwidth * 8.0 / 1e9

    def describe(self) -> str:
        """``source @ platform`` one-liner."""
        return f"{self.source.describe()} @ {self.platform.label}"

    # -- the two halves ------------------------------------------------------

    def measure(
        self,
        nodes: int | None = None,
        cores_per_node: int | None = None,
        run_index: int = 0,
        faults: FaultPlan | None = _DEFAULT_FAULTS,  # type: ignore[assignment]
        resilience: ResiliencePolicy | None = _DEFAULT_RESILIENCE,  # type: ignore[assignment]
    ) -> ApplicationMeasurement:
        """Simulated "exp" measurement at ``(N, P)`` (cached).

        Needs only the spec half of the source, so spec-backed sources
        are *not* profiled — ``repro simulate`` stays as cheap as the
        bare runner it replaced.  ``faults`` overrides the experiment's
        fault plan for this call (``None`` forces a clean run);
        ``resilience`` likewise overrides the mitigation policy
        (``None`` forces an unmitigated run).
        """
        nodes, cores = self._shape(nodes, cores_per_node)
        context = self._grid_context(faults, resilience)
        return self._measure_cell(nodes, cores, run_index, context)

    def predict(
        self,
        nodes: int | None = None,
        cores_per_node: int | None = None,
    ) -> ApplicationPrediction:
        """Equation-1 "model" prediction at ``(N, P)`` (cached)."""
        nodes, cores = self._shape(nodes, cores_per_node)
        return self._predict_cell(nodes, cores, self._network_fp())

    def _measure_cell(
        self, nodes: int, cores: int, run_index: int, context: _GridContext
    ) -> ApplicationMeasurement:
        key = self._measurement_key(nodes, cores, run_index, context)
        measurement = self.cache.get_measurement(key)
        if measurement is None:
            measurement = measure_workload(
                self.platform.cluster(nodes),
                cores,
                context.spec,
                run_index=run_index,
                network=self.network,
                faults=context.plan,
                resilience=context.policy,
            )
            self.cache.put_measurement(key, measurement)
        return measurement

    def _predict_cell(
        self, nodes: int, cores: int, network_fp: str
    ) -> ApplicationPrediction:
        key = prediction_key(
            self.resolved.report_fingerprint,
            self._platform_fp,
            nodes,
            cores,
            network_fp=network_fp,
        )
        prediction = self.cache.get_prediction(key)
        if prediction is None:
            bandwidth = (
                self.network.link_bandwidth if self.network is not None else None
            )
            model = self.platform.model(
                self.predictor, nodes, network_bandwidth=bandwidth
            )
            prediction = model.predict(nodes, cores)
            self.cache.put_prediction(key, prediction)
        return prediction

    # -- composed runs -------------------------------------------------------

    def run(
        self,
        nodes: int | None = None,
        cores_per_node: int | None = None,
        run_index: int = 0,
        faults: FaultPlan | None = _DEFAULT_FAULTS,  # type: ignore[assignment]
        resilience: ResiliencePolicy | None = _DEFAULT_RESILIENCE,  # type: ignore[assignment]
    ) -> RunResult:
        """One full exp-vs-model point."""
        nodes, cores = self._shape(nodes, cores_per_node)
        context = self._grid_context(faults, resilience)
        return self._run_cell(nodes, cores, run_index, context)

    def run_repeated(
        self,
        nodes: int | None = None,
        cores_per_node: int | None = None,
        runs: int = 5,
        faults: FaultPlan | None = _DEFAULT_FAULTS,  # type: ignore[assignment]
        resilience: ResiliencePolicy | None = _DEFAULT_RESILIENCE,  # type: ignore[assignment]
        workers: int | None = None,
        execution: ExecutionPolicy | None = None,
    ) -> list[RunResult]:
        """The paper's five-run protocol at one ``(N, P)`` point.

        A ``run_grid`` over the run-index axis: checkpointed the same
        way, parallelizable the same way (``workers=``), and supervised
        the same way (``execution=``).
        """
        if runs <= 0:
            raise ConfigurationError("need at least one run")
        nodes, cores = self._shape(nodes, cores_per_node)
        return self.run_grid(
            nodes=(nodes,),
            cores_per_node=(cores,),
            run_indices=tuple(range(runs)),
            faults=faults,
            resilience=resilience,
            workers=workers,
            execution=execution,
        )

    def run_grid(
        self,
        nodes: Sequence[int] | None = None,
        cores_per_node: Sequence[int] | None = None,
        run_indices: Iterable[int] = (0,),
        faults: FaultPlan | None = _DEFAULT_FAULTS,  # type: ignore[assignment]
        resilience: ResiliencePolicy | None = _DEFAULT_RESILIENCE,  # type: ignore[assignment]
        workers: int | None = None,
        execution: ExecutionPolicy | None = None,
    ) -> list[RunResult]:
        """The ``N x P x run`` cross product, row-major in that order.

        When the experiment's cache is file-backed, the grid is
        *crash-safe*: every cell that required fresh computation is
        checkpointed (atomically) to the cache file as soon as it
        completes — per cell on the serial path, per merged worker shard
        on the parallel path — so a killed sweep rerun with the same
        arguments resumes from the last finished cell: completed cells
        come back as cache hits, bit-identical to the interrupted run's.

        ``workers`` selects the :mod:`repro.parallel` backend: ``None``
        or ``1`` runs serially (the historical path), ``0`` auto-sizes
        to the available CPUs, ``k > 1`` fans the cold cells across
        ``k`` worker processes.  Results are **bit-identical** across
        all settings.

        ``execution`` tunes the supervision of a parallel grid (retry
        attempts and a per-cell timeout); the default
        :class:`~repro.parallel.supervisor.ExecutionPolicy` retries
        transient failures and rebuilds the pool after worker death.  A
        cell whose simulation raises a library error
        (:class:`~repro.errors.DoppioError`) is not retried: the grid
        raises that error as itself, so serial and parallel grids fail
        with the same error and exit code.  Cells lost to worker death,
        timeouts or other exceptions on every attempt raise a structured
        :class:`~repro.errors.ExecutionError`.  Either way the error
        surfaces after the surviving shards are merged and checkpointed,
        so the rerun recomputes only the failed cells.  Serial grids
        ignore the policy (exceptions propagate immediately, as they
        always have).
        """
        node_axis = self._axis(nodes, self.platform.default_nodes(), "nodes")
        core_axis = self._axis(
            cores_per_node, self.platform.default_cores(), "cores_per_node"
        )
        cells = [
            (n, p, r)
            for n in node_axis
            for p in core_axis
            for r in run_indices
        ]
        context = self._grid_context(faults, resilience)
        validate_execution(execution)
        if workers is None or workers == 1:
            return [
                self._checkpointed_cell(n, p, r, context)
                for (n, p, r) in cells
            ]
        return self._run_grid_parallel(cells, context, workers, execution)

    # -- multi-tenant mixes --------------------------------------------------

    def measure_mix(
        self,
        jobs: Sequence[MixJob | WorkloadSpec | tuple],
        policy: str = "fair",
        nodes: int | None = None,
        cores_per_node: int | None = None,
        run_index: int = 0,
        faults: FaultPlan | None = _DEFAULT_FAULTS,  # type: ignore[assignment]
    ) -> MixMeasurement:
        """Simulate ``jobs`` sharing this platform's cluster (cached).

        ``jobs`` entries may be :class:`~repro.schedule.mix.MixJob`
        instances, bare :class:`WorkloadSpec`\\ s (arrival 0, scale 1),
        or ``(spec,)`` / ``(spec, arrival)`` /
        ``(spec, arrival, volume_scale)`` tuples.

        A one-job mix *is* the single-tenant run: it delegates to the
        exact solo simulation path (same cache key, same event sequence,
        per-stage fault anchoring) and wraps the result in a
        :class:`MixMeasurement`, so K = 1 output is bit-identical to
        :meth:`measure` — the engine's own mix-of-one agrees only to
        float round-off (see docs/MULTITENANT.md).  Mixes of two or more
        run the :class:`~repro.schedule.mix.MixEngine` and are memoized
        under a ``mix/…`` key fingerprinting every job plus the policy,
        so no co-tenant change can alias a cached result.
        """
        mix_jobs = self._coerce_mix_jobs(jobs)
        nodes, cores = self._shape(nodes, cores_per_node)
        plan = self._resolve_faults(faults)
        named = canonical_jobs(mix_jobs)
        if len(named) == 1:
            return self._solo_mix(named[0], policy, nodes, cores, run_index, plan)
        key = mix_key(
            self._mix_fingerprint(named, policy),
            self._platform_fp,
            nodes,
            cores,
            run_index=run_index,
            network_fp=self._network_fp(),
            fault_fp=self._fault_fp(plan),
        )
        mix = self.cache.get_mix(key)
        if mix is None:
            mix = simulate_mix(
                self.platform.cluster(nodes),
                cores,
                mix_jobs,
                policy=policy,
                run_index=run_index,
                network=self.network,
                faults=plan,
            )
            self.cache.put_mix(key, mix)
            if self.cache.path is not None:
                self.cache.save()
        return mix

    def run_mix(
        self,
        jobs: Sequence[MixJob | WorkloadSpec | tuple],
        policy: str = "fair",
        nodes: int | None = None,
        cores_per_node: int | None = None,
        run_index: int = 0,
        faults: FaultPlan | None = _DEFAULT_FAULTS,  # type: ignore[assignment]
    ) -> MixResult:
        """The full co-location experiment: mix + per-job interference.

        On top of :meth:`measure_mix`, every job gets its clean solo
        baseline (same spec, scale, ``(N, P)``, and run index, alone on
        the cluster with no faults) and its solo Equation-1 prediction,
        both through child experiments sharing this experiment's cache —
        so ``slowdown`` reads as "how much slower than running alone on
        a healthy cluster" and ``result.error`` as "how far off the
        single-tenant model is once neighbors contend".
        """
        mix_jobs = self._coerce_mix_jobs(jobs)
        nodes, cores = self._shape(nodes, cores_per_node)
        misses_before = self._total_misses()
        mix = self.measure_mix(
            mix_jobs,
            policy=policy,
            nodes=nodes,
            cores_per_node=cores,
            run_index=run_index,
            faults=faults,
        )
        job_results = []
        for timeline, (name, job) in zip(mix.jobs, canonical_jobs(mix_jobs)):
            child = Experiment(
                scale_workload_volume(job.spec, job.volume_scale),
                self.platform,
                cache=self.cache,
                network=self.network,
            )
            solo_seconds = child.measure(
                nodes, cores, run_index=run_index
            ).total_seconds
            mixed_seconds = timeline.measurement.total_seconds
            job_results.append(
                MixJobResult(
                    name=timeline.name,
                    arrival=timeline.arrival,
                    volume_scale=timeline.volume_scale,
                    waiting_seconds=timeline.waiting,
                    turnaround_seconds=timeline.turnaround,
                    solo_seconds=solo_seconds,
                    slowdown=(
                        mixed_seconds / solo_seconds
                        if solo_seconds > 0
                        else 1.0
                    ),
                    result=compose_run_result(
                        timeline.measurement,
                        child.predict(nodes, cores),
                        platform_label=self.platform.label,
                        run_index=run_index,
                        network_gbps=self.network_gbps,
                    ),
                )
            )
        if self.cache.path is not None and self._total_misses() > misses_before:
            self.cache.save()
        return MixResult(
            policy=mix.policy,
            platform=self.platform.label,
            nodes=nodes,
            cores_per_node=cores,
            run_index=run_index,
            makespan_seconds=mix.makespan,
            jobs=tuple(job_results),
            device_utilizations=mix.device_utilizations,
        )

    def _solo_mix(
        self,
        named: tuple[str, MixJob],
        policy: str,
        nodes: int,
        cores: int,
        run_index: int,
        plan: FaultPlan | None,
    ) -> MixMeasurement:
        """A one-job mix via the solo path, bit-identical to ``measure``.

        The job is measured by a child experiment on the (scaled) spec,
        so a K = 1 mix and the equivalent solo experiment share one
        cached measurement.  The job's stage device utilizations are
        re-expressed over the mix makespan (``arrival`` + runtime) for
        the cluster-level view.
        """
        from repro.schedule.mix import MIX_POLICIES
        from repro.schedule.scheduler import SchedulingError

        if policy not in MIX_POLICIES:
            raise SchedulingError(
                f"unknown mix policy {policy!r}; expected one of {MIX_POLICIES}"
            )
        name, job = named
        child = Experiment(
            scale_workload_volume(job.spec, job.volume_scale),
            self.platform,
            cache=self.cache,
            network=self.network,
        )
        misses_before = self._total_misses()
        measurement = child.measure(
            nodes, cores, run_index=run_index, faults=plan, resilience=None
        )
        if self.cache.path is not None and self._total_misses() > misses_before:
            self.cache.save()
        if measurement.name != name:
            measurement = ApplicationMeasurement(
                name=name, stages=measurement.stages
            )
        makespan = job.arrival + measurement.total_seconds
        busy: dict[tuple[str, bool], float] = {}
        for stage in measurement.stages:
            for device, is_write, fraction in stage.device_utilizations:
                busy[(device, is_write)] = (
                    busy.get((device, is_write), 0.0)
                    + fraction * stage.makespan
                )
        return MixMeasurement(
            policy=policy,
            nodes=nodes,
            cores_per_node=cores,
            makespan=makespan,
            jobs=(
                JobTimeline(
                    name=name,
                    arrival=job.arrival,
                    volume_scale=job.volume_scale,
                    first_launch=job.arrival,
                    finish=makespan,
                    measurement=measurement,
                ),
            ),
            device_utilizations=busy_fractions(busy, makespan),
        )

    @staticmethod
    def _coerce_mix_jobs(
        jobs: Sequence[MixJob | WorkloadSpec | tuple],
    ) -> tuple[MixJob, ...]:
        """Normalize the accepted job shorthands into ``MixJob``s."""
        if isinstance(jobs, (MixJob, WorkloadSpec)):
            raise ConfigurationError(
                "measure_mix/run_mix take a sequence of jobs; wrap the"
                " single job in a list"
            )
        coerced = []
        for entry in jobs:
            if isinstance(entry, MixJob):
                coerced.append(entry)
            elif isinstance(entry, WorkloadSpec):
                coerced.append(MixJob(spec=entry))
            elif isinstance(entry, tuple) and 1 <= len(entry) <= 3:
                spec = entry[0]
                if not isinstance(spec, WorkloadSpec):
                    raise ConfigurationError(
                        f"mix job tuple must start with a WorkloadSpec,"
                        f" got {type(spec).__name__}"
                    )
                arrival = float(entry[1]) if len(entry) > 1 else 0.0
                scale = float(entry[2]) if len(entry) > 2 else 1.0
                coerced.append(
                    MixJob(spec=spec, arrival=arrival, volume_scale=scale)
                )
            else:
                raise ConfigurationError(
                    f"cannot interpret mix job entry {entry!r}; expected a"
                    " MixJob, a WorkloadSpec, or a (spec, arrival,"
                    " volume_scale) tuple"
                )
        if not coerced:
            raise ConfigurationError("a mix needs at least one job")
        return tuple(coerced)

    @staticmethod
    def _mix_fingerprint(
        named: list[tuple[str, MixJob]], policy: str
    ) -> str:
        """Content hash of the whole mix, permutation-invariant.

        Jobs are fingerprinted in canonical order with their
        disambiguated names, so any submitted ordering of the same jobs
        addresses the same cache entry — matching the engine, whose
        schedule is invariant under the same permutations.
        """
        return fingerprint(
            {
                "policy": policy,
                "jobs": [
                    {
                        "name": name,
                        "spec": fingerprint(job.spec),
                        "arrival": job.arrival,
                        "volume_scale": job.volume_scale,
                    }
                    for name, job in named
                ],
            }
        )

    def _total_misses(self) -> int:
        return (
            self.cache.measurement_stats.misses
            + self.cache.prediction_stats.misses
            + self.cache.report_stats.misses
            + self.cache.mix_stats.misses
        )

    # -- parallel dispatch ---------------------------------------------------

    def _run_grid_parallel(
        self,
        cells: list[tuple[int, int, int]],
        context: _GridContext,
        workers: int,
        execution: ExecutionPolicy | None,
    ) -> list[RunResult]:
        """Fan cold cells across supervised workers, then compose in order.

        The parent never simulates: it pre-splits cells into warm (both
        halves already cached) and cold, ships only the cold ones, and
        merges the returned cache shards.  Every cell is then composed
        in grid order through the same code path as a serial grid —
        which at that point is all cache hits, making the result list
        bit-identical to ``workers=1``.

        Cold cells run under a :class:`~repro.parallel.supervisor
        .TaskSupervisor`: worker death rebuilds the pool and retries the
        in-flight cells, hung cells trip the policy's timeout, and each
        completed shard is merged — and, on a file-backed cache,
        atomically checkpointed — *as it lands*, so a run killed between
        shards resumes from the last merged one.  A cell's own library
        error surfaces as itself, and cells that fail every attempt as a
        structured :class:`~repro.errors.ExecutionError`, after the
        survivors' shards are safely merged: the cache stays resumable
        and a rerun recomputes only the failed cells.
        """
        resolved = self.resolved  # force resolution before building payload
        cold: list[tuple[int, int, int]] = []
        seen: set[tuple[int, int, int]] = set()
        for cell in cells:
            if cell in seen:
                continue
            seen.add(cell)
            n, p, r = cell
            if not (
                self.cache.contains_measurement(
                    self._measurement_key(n, p, r, context)
                )
                and self.cache.contains_prediction(
                    prediction_key(
                        resolved.report_fingerprint,
                        self._platform_fp,
                        n,
                        p,
                        network_fp=context.network_fp,
                    )
                )
            ):
                cold.append(cell)
        if cold:
            payload = _GridWorkerPayload(
                spec=resolved.spec,
                report=resolved.report,
                platform=self.platform,
                network=self.network,
                faults=context.plan,
                resilience=context.policy,
            )
            backend = resolve_backend(
                workers, initializer=_init_grid_worker, initargs=(payload,)
            )
            if backend.workers == 1:
                # Auto-sizing resolved to one CPU: plain serial grid.
                return [
                    self._checkpointed_cell(n, p, r, context)
                    for (n, p, r) in cells
                ]
            supervisor = TaskSupervisor(
                backend,
                execution if execution is not None else ExecutionPolicy(),
            )

            def merge_shard(index: int, shard: dict) -> None:
                # Incremental checkpoint: persist every shard as it
                # lands, not once after the final merge, so a killed
                # run resumes from the last completed cell.
                added = self.cache.merge_shard(shard)
                if self.cache.path is not None and added:
                    self.cache.save()

            with backend:
                report = supervisor.run(
                    _run_grid_cell, cold, on_result=merge_shard
                )
            report.raise_if_failed(
                f"run_grid({len(cold)} cold cell(s), workers={workers})"
            )
        return [
            self._run_cell(n, p, r, context) for (n, p, r) in cells
        ]

    def _run_cell(
        self, nodes: int, cores: int, run_index: int, context: _GridContext
    ) -> RunResult:
        return compose_run_result(
            self._measure_cell(nodes, cores, run_index, context),
            self._predict_cell(nodes, cores, context.network_fp),
            platform_label=self.platform.label,
            run_index=run_index,
            network_gbps=self.network_gbps,
        )

    def _checkpointed_cell(
        self, nodes: int, cores: int, run_index: int, context: _GridContext
    ) -> RunResult:
        """One grid cell, persisted to a file-backed cache when fresh."""
        misses_before = (
            self.cache.measurement_stats.misses
            + self.cache.prediction_stats.misses
            + self.cache.report_stats.misses
        )
        result = self._run_cell(nodes, cores, run_index, context)
        misses_after = (
            self.cache.measurement_stats.misses
            + self.cache.prediction_stats.misses
            + self.cache.report_stats.misses
        )
        if self.cache.path is not None and misses_after > misses_before:
            self.cache.save()
        return result

    # -- internals -----------------------------------------------------------

    def _grid_context(self, faults, resilience) -> _GridContext:
        """Resolve overrides and fingerprint the grid's invariants once."""
        plan = self._resolve_faults(faults)
        policy = self._resolve_resilience(resilience)
        spec, spec_fp = self._spec_and_fingerprint()
        return _GridContext(
            plan=plan,
            policy=policy,
            spec=spec,
            spec_fp=spec_fp,
            network_fp=self._network_fp(),
            fault_fp=self._fault_fp(plan),
            resilience_fp=self._resilience_fp(policy),
        )

    def _measurement_key(
        self, nodes: int, cores: int, run_index: int, context: _GridContext
    ) -> str:
        return run_key(
            context.spec_fp,
            self._platform_fp,
            nodes,
            cores,
            run_index=run_index,
            network_fp=context.network_fp,
            fault_fp=context.fault_fp,
            resilience_fp=context.resilience_fp,
        )

    def _spec_and_fingerprint(self):
        if self._resolved is not None:
            return self._resolved.spec, self._resolved.spec_fingerprint
        spec_only = getattr(self.source, "spec_only", None)
        if spec_only is not None:
            return spec_only()
        resolved = self.resolved
        return resolved.spec, resolved.spec_fingerprint

    def _network_fp(self) -> str:
        if self.network is None:
            return "none"
        return repr(self.network.link_bandwidth)

    def _resolve_faults(self, faults) -> FaultPlan | None:
        return self.faults if faults is _DEFAULT_FAULTS else faults

    def _resolve_resilience(self, resilience) -> ResiliencePolicy | None:
        return self.resilience if resilience is _DEFAULT_RESILIENCE else resilience

    @staticmethod
    def _fault_fp(plan: FaultPlan | None) -> str:
        if plan is None or not plan.faults:
            return "none"
        return plan.fingerprint()

    @staticmethod
    def _resilience_fp(policy: ResiliencePolicy | None) -> str:
        if policy is None:
            return "none"
        return policy.fingerprint()

    def _shape(
        self, nodes: int | None, cores_per_node: int | None
    ) -> tuple[int, int]:
        nodes = nodes if nodes is not None else self.platform.default_nodes()
        cores = (
            cores_per_node
            if cores_per_node is not None
            else self.platform.default_cores()
        )
        if nodes is None or cores is None:
            raise ConfigurationError(
                f"{self.describe()}: platform has no default shape; pass"
                " nodes and cores_per_node explicitly"
            )
        return nodes, cores

    @staticmethod
    def _axis(
        values: Sequence[int] | None, default: int | None, label: str
    ) -> Sequence[int]:
        if values is not None:
            return values
        if default is not None:
            return (default,)
        raise ConfigurationError(
            f"no {label} axis given and the platform has no default"
        )


# -- worker-process side ------------------------------------------------------


@dataclass
class _GridWorkerPayload:
    """Everything a worker needs to rebuild the experiment, picklable.

    The platform and network travel as objects (a few KB); the source
    travels as its resolved ``(spec, report)`` pair, whose fingerprints
    are recomputed identically on the worker side — so worker cache keys
    match the parent's exactly.
    """

    spec: WorkloadSpec
    report: ProfilingReport
    platform: Platform
    network: NetworkModel | None
    faults: FaultPlan | None
    resilience: ResiliencePolicy | None


#: Per-worker-process experiment, installed by :func:`_init_grid_worker`.
_WORKER_EXPERIMENT: Experiment | None = None
#: Qualified cache keys this worker has already shipped back.
_WORKER_EXPORTED: set[str] = set()


def _init_grid_worker(payload: _GridWorkerPayload) -> None:
    """Pool initializer: build this worker's experiment once."""
    global _WORKER_EXPERIMENT, _WORKER_EXPORTED
    from repro.pipeline.sources import ResolvedSource

    _WORKER_EXPERIMENT = Experiment(
        ResolvedSource(payload.spec, payload.report),
        payload.platform,
        network=payload.network,
        faults=payload.faults,
        resilience=payload.resilience,
    )
    _WORKER_EXPORTED = set()


def _run_grid_cell(cell: tuple[int, int, int]) -> dict[str, dict]:
    """Task function: compute one cold cell, return the fresh cache shard."""
    experiment = _WORKER_EXPERIMENT
    if experiment is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("grid worker used before initialization")
    nodes, cores, run_index = cell
    experiment.run(nodes, cores, run_index=run_index)
    shard = experiment.cache.export_shard(exclude=_WORKER_EXPORTED)
    _WORKER_EXPORTED.update(ResultCache.shard_keys(shard))
    return shard
