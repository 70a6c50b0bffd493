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
    check_mix_policy,
    measure_mix as simulate_mix,
)
from repro.simulator.run import ApplicationMeasurement, busy_fractions
from repro.workloads.base import WorkloadSpec, scale_workload_volume
from repro.workloads.runner import measure_workload


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
        keys.
    resilience:
        Optional :class:`~repro.resilience.ResiliencePolicy` arming the
        simulator's recovery mechanisms on every measurement.  Like
        faults, its fingerprint is folded into measurement cache keys,
        so mitigated runs never collide with unmitigated ones.

    Both are fixed for the experiment's lifetime.  A baseline under
    another plan or policy (clean against faulted, unmitigated against
    mitigated) is a sibling ``Experiment`` on the same ``cache``.
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
        self._network_fp = (
            "none" if network is None else repr(network.link_bandwidth)
        )
        self._fault_fp = (
            "none" if faults is None or not faults.faults else faults.fingerprint()
        )
        self._resilience_fp = (
            "none" if resilience is None else resilience.fingerprint()
        )
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
    ) -> ApplicationMeasurement:
        """Simulated "exp" measurement at ``(N, P)`` (cached).

        Needs only the spec half of the source, so spec-backed sources
        are *not* profiled — ``repro simulate`` stays as cheap as the
        bare runner it replaced.
        """
        nodes, cores = self._shape(nodes, cores_per_node)
        return self._measure_cell(nodes, cores, run_index)

    def predict(
        self,
        nodes: int | None = None,
        cores_per_node: int | None = None,
    ) -> ApplicationPrediction:
        """Equation-1 "model" prediction at ``(N, P)`` (cached)."""
        nodes, cores = self._shape(nodes, cores_per_node)
        return self._predict_cell(nodes, cores)

    def _measure_cell(
        self, nodes: int, cores: int, run_index: int
    ) -> ApplicationMeasurement:
        key = self._measurement_key(nodes, cores, run_index)
        measurement = self.cache.get_measurement(key)
        if measurement is None:
            measurement = measure_workload(
                self.platform.cluster(nodes),
                cores,
                self._spec_and_fingerprint()[0],
                run_index=run_index,
                network=self.network,
                faults=self.faults,
                resilience=self.resilience,
            )
            self.cache.put_measurement(key, measurement)
        return measurement

    def _predict_cell(self, nodes: int, cores: int) -> ApplicationPrediction:
        key = self._prediction_key(nodes, cores)
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
    ) -> RunResult:
        """One full exp-vs-model point."""
        nodes, cores = self._shape(nodes, cores_per_node)
        return self._run_cell(nodes, cores, run_index)

    def run_repeated(
        self,
        nodes: int | None = None,
        cores_per_node: int | None = None,
        runs: int = 5,
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
            workers=workers,
            execution=execution,
        )

    def run_grid(
        self,
        nodes: Sequence[int] | None = None,
        cores_per_node: Sequence[int] | None = None,
        run_indices: Iterable[int] = (0,),
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
        validate_execution(execution)
        if workers is None or workers == 1:
            return [self._checkpointed_cell(n, p, r) for (n, p, r) in cells]
        return self._run_grid_parallel(cells, workers, execution)

    # -- multi-tenant mixes --------------------------------------------------

    def measure_mix(
        self,
        jobs: Sequence[MixJob],
        policy: str = "fair",
        nodes: int | None = None,
        cores_per_node: int | None = None,
        run_index: int = 0,
    ) -> MixMeasurement:
        """Simulate ``jobs`` sharing this platform's cluster (cached).

        ``jobs`` is a sequence of :class:`~repro.schedule.mix.MixJob`\\ s,
        run under this experiment's fault plan.

        A clean one-job mix *is* the single-tenant run: it delegates to
        the exact solo simulation path (same cache key, same event
        sequence) and wraps the result in a :class:`MixMeasurement`, so
        its output is bit-identical to :meth:`measure` — the engine's own
        mix-of-one agrees only to float round-off (see
        docs/MULTITENANT.md).  Every other mix, a faulted one-job mix
        included, runs the :class:`~repro.schedule.mix.MixEngine` with
        the plan anchored to the mix clock, and is memoized under a
        ``mix/…`` key fingerprinting every job plus the policy, so no
        co-tenant change can alias a cached result.
        """
        mix_jobs = self._coerce_mix_jobs(jobs)
        nodes, cores = self._shape(nodes, cores_per_node)
        named = canonical_jobs(mix_jobs)
        if len(named) == 1 and self._fault_fp == "none":
            mix = self._solo_mix(named[0], policy, nodes, cores, run_index)
        else:
            key = mix_key(
                self._mix_fingerprint(named, policy),
                self._platform_fp,
                nodes,
                cores,
                run_index=run_index,
                network_fp=self._network_fp,
                fault_fp=self._fault_fp,
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
                    faults=self.faults,
                )
                self.cache.put_mix(key, mix)
        self.cache.checkpoint()
        return mix

    def run_mix(
        self,
        jobs: Sequence[MixJob],
        policy: str = "fair",
        nodes: int | None = None,
        cores_per_node: int | None = None,
        run_index: int = 0,
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
        mix = self.measure_mix(
            mix_jobs,
            policy=policy,
            nodes=nodes,
            cores_per_node=cores,
            run_index=run_index,
        )
        job_results = []
        for timeline, (name, job) in zip(mix.jobs, canonical_jobs(mix_jobs)):
            child = self._solo_child(job)
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
        self.cache.checkpoint()
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

    def _solo_child(self, job: MixJob) -> "Experiment":
        """The job alone, clean and unmitigated, on this experiment's cache."""
        return Experiment(
            scale_workload_volume(job.spec, job.volume_scale),
            self.platform,
            cache=self.cache,
            network=self.network,
        )

    def _solo_mix(
        self,
        named: tuple[str, MixJob],
        policy: str,
        nodes: int,
        cores: int,
        run_index: int,
    ) -> MixMeasurement:
        """A clean one-job mix via the solo path, bit-identical to ``measure``.

        The job is measured by a child experiment on the (scaled) spec,
        so a K = 1 mix and the equivalent solo experiment share one
        cached measurement.  The job's stage device utilizations are
        re-expressed over the mix makespan (``arrival`` + runtime) for
        the cluster-level view.
        """
        check_mix_policy(policy)
        name, job = named
        measurement = self._solo_child(job).measure(
            nodes, cores, run_index=run_index
        )
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
    def _coerce_mix_jobs(jobs: Sequence[MixJob]) -> tuple[MixJob, ...]:
        """``jobs`` as a non-empty tuple of ``MixJob``\\ s."""
        if isinstance(jobs, MixJob):
            raise ConfigurationError(
                "measure_mix/run_mix take a sequence of jobs; wrap the"
                " single job in a list"
            )
        coerced = tuple(jobs)
        for entry in coerced:
            if not isinstance(entry, MixJob):
                raise ConfigurationError(
                    f"cannot interpret mix job entry {entry!r}; expected a"
                    " MixJob"
                )
        if not coerced:
            raise ConfigurationError("a mix needs at least one job")
        return coerced

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

    # -- parallel dispatch ---------------------------------------------------

    def _run_grid_parallel(
        self,
        cells: list[tuple[int, int, int]],
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
                self.cache.contains_measurement(self._measurement_key(n, p, r))
                and self.cache.contains_prediction(self._prediction_key(n, p))
            ):
                cold.append(cell)
        if cold:
            payload = _GridWorkerPayload(
                spec=resolved.spec,
                report=resolved.report,
                platform=self.platform,
                network=self.network,
                faults=self.faults,
                resilience=self.resilience,
            )
            backend = resolve_backend(
                workers, initializer=_init_grid_worker, initargs=(payload,)
            )
            if backend.workers == 1:
                # Auto-sizing resolved to one CPU: plain serial grid.
                return [self._checkpointed_cell(n, p, r) for (n, p, r) in cells]
            supervisor = TaskSupervisor(
                backend,
                execution if execution is not None else ExecutionPolicy(),
            )

            def merge_shard(index: int, shard: dict) -> None:
                # Incremental checkpoint: persist every shard as it
                # lands, not once after the final merge, so a killed
                # run resumes from the last completed cell.
                self.cache.merge_shard(shard)
                self.cache.checkpoint()

            with backend:
                report = supervisor.run(
                    _run_grid_cell, cold, on_result=merge_shard
                )
            report.raise_if_failed(
                f"run_grid({len(cold)} cold cell(s), workers={workers})"
            )
        return [self._run_cell(n, p, r) for (n, p, r) in cells]

    def _run_cell(self, nodes: int, cores: int, run_index: int) -> RunResult:
        return compose_run_result(
            self._measure_cell(nodes, cores, run_index),
            self._predict_cell(nodes, cores),
            platform_label=self.platform.label,
            run_index=run_index,
            network_gbps=self.network_gbps,
        )

    def _checkpointed_cell(self, nodes: int, cores: int, run_index: int) -> RunResult:
        """One grid cell, then a checkpoint of whatever it added."""
        result = self._run_cell(nodes, cores, run_index)
        self.cache.checkpoint()
        return result

    # -- internals -----------------------------------------------------------

    def _measurement_key(self, nodes: int, cores: int, run_index: int) -> str:
        return run_key(
            self._spec_and_fingerprint()[1],
            self._platform_fp,
            nodes,
            cores,
            run_index=run_index,
            network_fp=self._network_fp,
            fault_fp=self._fault_fp,
            resilience_fp=self._resilience_fp,
        )

    def _prediction_key(self, nodes: int, cores: int) -> str:
        return prediction_key(
            self.resolved.report_fingerprint,
            self._platform_fp,
            nodes,
            cores,
            network_fp=self._network_fp,
        )

    def _spec_and_fingerprint(self):
        if self._resolved is not None:
            return self._resolved.spec, self._resolved.spec_fingerprint
        spec_only = getattr(self.source, "spec_only", None)
        if spec_only is not None:
            return spec_only()
        resolved = self.resolved
        return resolved.spec, resolved.spec_fingerprint

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
