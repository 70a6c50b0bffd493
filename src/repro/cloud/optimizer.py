"""Configuration-space search for minimum cost (Section VI-1).

The optimizer composes three pieces:

1. the Doppio :class:`~repro.core.predictor.Predictor` (built from four
   profiling sample runs) supplies ``Time`` for any candidate
   configuration;
2. :mod:`repro.cloud.pricing` supplies ``Cost = f(config, Time)``;
3. a search strategy walks the discrete space
   ``(vCPUs, DiskTypes, DiskSize_HDFS, DiskSize_local)``.

Two strategies are provided: exhaustive ``grid_search`` (the space is only
a few thousand points) and ``coordinate_descent``, the discrete analogue
of the gradient-descent procedure the paper describes; both honour
capacity feasibility (disks must actually hold the job's data).

Candidates are scored through the array-native Eq.-1 kernel
(:mod:`repro.model.arrays`): ``grid_search`` builds one
:class:`~repro.model.arrays.CandidateBatch` for the whole feasible grid,
scores it in one pass, and materializes ``EvaluatedConfiguration``
records from the score columns — bitwise identical to the historical
per-candidate path, hundreds of times faster.  At that speed an
exhaustive scan outruns any branch-and-bound pruning of the grid (see
``docs/PERFORMANCE.md``), so every search scores every feasible
candidate.  The scalar :meth:`CostOptimizer.evaluate` remains for
single configurations (reference points, descent starts,
cache-threaded what-ifs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cloud.disks import SPEC_BY_KIND, make_persistent_disk
from repro.cloud.instance import machine_for_vcpus
from repro.cloud.pricing import CloudConfiguration
from repro.core.predictor import Predictor
from repro.errors import OptimizationError
from repro.model.arrays import CandidateBatch
from repro.units import GB

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.cache import ResultCache

#: Default provisioned-size grid, in GB (the paper sweeps 20 GB - 4 TB).
DEFAULT_SIZE_GRID_GB: tuple[float, ...] = (
    20, 50, 100, 200, 500, 1000, 1500, 2000, 3000, 4000,
)
#: Default worker shapes to explore.
DEFAULT_VCPU_GRID: tuple[int, ...] = (1, 2, 4, 8, 16, 32)


@dataclass(frozen=True)
class EvaluatedConfiguration:
    """One candidate with its predicted runtime and cost."""

    config: CloudConfiguration
    runtime_seconds: float
    cost_dollars: float

    def __repr__(self) -> str:
        return (
            f"EvaluatedConfiguration({self.config.label()},"
            f" {self.runtime_seconds / 60:.1f}min, ${self.cost_dollars:.2f})"
        )


@dataclass(frozen=True)
class OptimizationResult:
    """Search outcome: the winner plus every point evaluated."""

    best: EvaluatedConfiguration
    evaluated: tuple[EvaluatedConfiguration, ...]

    @property
    def num_evaluated(self) -> int:
        """How many feasible configurations were scored."""
        return len(self.evaluated)

    def savings_versus(self, other: EvaluatedConfiguration) -> float:
        """Fractional cost saving of the winner vs. a reference config."""
        if other.cost_dollars <= 0:
            raise OptimizationError("reference configuration has no cost")
        return 1.0 - self.best.cost_dollars / other.cost_dollars


class CostOptimizer:
    """Minimizes job cost over cloud configurations using the Doppio model.

    Parameters
    ----------
    predictor:
        A profiled :class:`~repro.core.predictor.Predictor` for the job.
    num_workers:
        ``N`` — fixed worker count (the paper fixes ten slaves).
    min_hdfs_gb / min_local_gb:
        Per-node capacity the job needs on each disk; candidates below
        these are infeasible.
    cache:
        Optional pipeline :class:`~repro.pipeline.cache.ResultCache`.
        :meth:`evaluate` (and so each descent's start point) then
        memoizes single-configuration predictions under the same
        content-addressed keys the experiment pipeline uses.  Batch
        scoring never touches it: :meth:`grid_search` and the neighbour
        batches of :meth:`coordinate_descent` score every candidate
        through the array kernel, whether or not it was scored before.
    """

    def __init__(
        self,
        predictor: Predictor,
        num_workers: int = 10,
        min_hdfs_gb: float = 0.0,
        min_local_gb: float = 0.0,
        cache: ResultCache | None = None,
    ) -> None:
        if num_workers <= 0:
            raise OptimizationError("worker count must be positive")
        self.predictor = predictor
        self.num_workers = num_workers
        self.min_hdfs_gb = min_hdfs_gb
        self.min_local_gb = min_local_gb
        self.cache = cache
        self._report_fp: str | None = None

    # -- evaluation -----------------------------------------------------------

    def is_feasible(self, config: CloudConfiguration) -> bool:
        """Capacity check: disks must hold the job's per-node data."""
        return (
            config.hdfs_disk_gb >= self.min_hdfs_gb
            and config.local_disk_gb >= self.min_local_gb
        )

    def predict_runtime(self, config: CloudConfiguration) -> float:
        """Model-predicted job runtime on ``config``, in seconds."""
        if self.cache is None:
            return self._predict_fresh(config).t_app
        key = self._candidate_key(config)
        prediction = self.cache.get_prediction(key)
        if prediction is None:
            prediction = self._predict_fresh(config)
            self.cache.put_prediction(key, prediction)
        return prediction.t_app

    def _candidate_key(self, config: CloudConfiguration) -> str:
        """The pipeline's content-addressed prediction key for a candidate."""
        # Imported here: repro.cloud is a pipeline dependency (platform
        # construction), so the dependency cannot run the other way at
        # module level.
        from repro.pipeline.cache import prediction_key
        from repro.pipeline.platforms import CloudPlatform

        return prediction_key(
            self._report_fingerprint(),
            CloudPlatform(config).fingerprint(),
            config.num_workers,
            config.cores_per_node,
        )

    def _predict_fresh(self, config: CloudConfiguration):
        devices = {
            "hdfs": make_persistent_disk(config.hdfs_disk_kind, config.hdfs_disk_gb),
            "local": make_persistent_disk(config.local_disk_kind, config.local_disk_gb),
        }
        model = self.predictor.model_for_devices(devices)
        return model.predict(config.num_workers, config.cores_per_node)

    def score_candidates(
        self, configs: list[CloudConfiguration]
    ) -> list[EvaluatedConfiguration]:
        """Batch-score configurations into evaluated records, in order.

        One :class:`~repro.model.arrays.CandidateBatch` crosses the
        predictor's shared kernel evaluator
        (:meth:`~repro.core.predictor.Predictor.batch_evaluator`);
        runtimes and costs come back as parallel arrays and are
        materialized per candidate.  The floats equal
        :meth:`evaluate`'s bit for bit (see :mod:`repro.model.arrays`),
        so searches built on either path agree exactly.
        """
        if not configs:
            return []
        scores = self.predictor.batch_evaluator().score(
            CandidateBatch.from_configs(configs)
        )
        return [
            EvaluatedConfiguration(
                config=config, runtime_seconds=runtime, cost_dollars=cost
            )
            for config, runtime, cost in zip(
                configs, scores.runtime_seconds, scores.cost_dollars
            )
        ]

    def _report_fingerprint(self) -> str:
        if self._report_fp is None:
            from repro.core.serialization import report_to_dict
            from repro.pipeline.fingerprint import fingerprint

            self._report_fp = fingerprint(report_to_dict(self.predictor.report))
        return self._report_fp

    def evaluate(self, config: CloudConfiguration) -> EvaluatedConfiguration:
        """Score one configuration (must be feasible)."""
        if not self.is_feasible(config):
            raise OptimizationError(
                f"infeasible configuration {config.label()}: needs"
                f" >= {self.min_hdfs_gb:.0f}GB HDFS and"
                f" >= {self.min_local_gb:.0f}GB local per node"
            )
        runtime = self.predict_runtime(config)
        return EvaluatedConfiguration(
            config=config,
            runtime_seconds=runtime,
            cost_dollars=config.cost_for_runtime(runtime),
        )

    def make_config(
        self,
        vcpus: int,
        hdfs_kind: str,
        hdfs_gb: float,
        local_kind: str,
        local_gb: float,
    ) -> CloudConfiguration:
        """Convenience constructor bound to this optimizer's worker count."""
        return CloudConfiguration(
            machine=machine_for_vcpus(vcpus),
            num_workers=self.num_workers,
            hdfs_disk_kind=hdfs_kind,
            hdfs_disk_gb=hdfs_gb,
            local_disk_kind=local_kind,
            local_disk_gb=local_gb,
        )

    # -- search strategies -------------------------------------------------------

    def grid_search(
        self,
        vcpu_grid: tuple[int, ...] = DEFAULT_VCPU_GRID,
        disk_kinds: tuple[str, ...] = ("pd-standard", "pd-ssd"),
        hdfs_sizes_gb: tuple[float, ...] = DEFAULT_SIZE_GRID_GB,
        local_sizes_gb: tuple[float, ...] = DEFAULT_SIZE_GRID_GB,
    ) -> OptimizationResult:
        """Score every feasible grid point; ``best`` is the optimum.

        The feasible grid is scored through the array kernel as one
        batch; ``evaluated`` lists every candidate in canonical grid
        order and ``best`` is the first one of minimal cost.
        """
        for kind in disk_kinds:
            if kind not in SPEC_BY_KIND:
                raise OptimizationError(f"unknown disk kind {kind!r}")
        candidates = self._grid_candidates(
            vcpu_grid, disk_kinds, hdfs_sizes_gb, local_sizes_gb
        )
        if not candidates:
            raise OptimizationError("no feasible configuration on the grid")
        evaluated = self.score_candidates(candidates)
        best = min(evaluated, key=lambda e: e.cost_dollars)
        return OptimizationResult(best=best, evaluated=tuple(evaluated))

    def _grid_candidates(
        self,
        vcpu_grid: tuple[int, ...],
        disk_kinds: tuple[str, ...],
        hdfs_sizes_gb: tuple[float, ...],
        local_sizes_gb: tuple[float, ...],
    ) -> list[CloudConfiguration]:
        """Feasible grid points in canonical (nested-loop) order."""
        candidates: list[CloudConfiguration] = []
        for vcpus in vcpu_grid:
            machine = machine_for_vcpus(vcpus)
            for hdfs_kind in disk_kinds:
                for hdfs_gb in hdfs_sizes_gb:
                    if hdfs_gb < self.min_hdfs_gb:
                        continue
                    for local_kind in disk_kinds:
                        for local_gb in local_sizes_gb:
                            if local_gb < self.min_local_gb:
                                continue
                            candidates.append(CloudConfiguration(
                                machine=machine,
                                num_workers=self.num_workers,
                                hdfs_disk_kind=hdfs_kind,
                                hdfs_disk_gb=hdfs_gb,
                                local_disk_kind=local_kind,
                                local_disk_gb=local_gb,
                            ))
        return candidates

    def coordinate_descent(
        self,
        start: CloudConfiguration,
        vcpu_grid: tuple[int, ...] = DEFAULT_VCPU_GRID,
        size_grid_gb: tuple[float, ...] = DEFAULT_SIZE_GRID_GB,
        max_rounds: int = 20,
    ) -> OptimizationResult:
        """Discrete descent: improve one coordinate at a time to a fixpoint.

        This is the paper's "gradient descent" on the discrete multivariate
        cost function; disk *types* stay fixed to the start point's (run it
        once per type combination, as the paper does for HDD and SSD).

        Each round's feasible neighbours are scored as one kernel batch;
        the within-round incumbent updates then replay the historical
        sequential comparisons over the batch columns, so the descent
        path (and every evaluated record) is unchanged.
        """
        if not self.is_feasible(start):
            raise OptimizationError(f"start configuration {start.label()} infeasible")
        current = self.evaluate(start)
        evaluated = [current]
        for _ in range(max_rounds):
            improved = False
            neighbors = [
                candidate
                for candidate in self._neighbors(
                    current.config, vcpu_grid, size_grid_gb
                )
                if self.is_feasible(candidate)
            ]
            for scored in self.score_candidates(neighbors):
                evaluated.append(scored)
                if scored.cost_dollars < current.cost_dollars - 1e-9:
                    current = scored
                    improved = True
            if not improved:
                break
        return OptimizationResult(best=current, evaluated=tuple(evaluated))

    def _neighbors(
        self,
        config: CloudConfiguration,
        vcpu_grid: tuple[int, ...],
        size_grid_gb: tuple[float, ...],
    ) -> list[CloudConfiguration]:
        """Grid neighbours along each coordinate axis."""
        neighbors: list[CloudConfiguration] = []
        for vcpus in _adjacent(sorted(vcpu_grid), config.machine.vcpus):
            neighbors.append(
                self.make_config(
                    vcpus,
                    config.hdfs_disk_kind,
                    config.hdfs_disk_gb,
                    config.local_disk_kind,
                    config.local_disk_gb,
                )
            )
        for hdfs_gb in _adjacent(sorted(size_grid_gb), config.hdfs_disk_gb):
            neighbors.append(
                self.make_config(
                    config.machine.vcpus,
                    config.hdfs_disk_kind,
                    hdfs_gb,
                    config.local_disk_kind,
                    config.local_disk_gb,
                )
            )
        for local_gb in _adjacent(sorted(size_grid_gb), config.local_disk_gb):
            neighbors.append(
                self.make_config(
                    config.machine.vcpus,
                    config.hdfs_disk_kind,
                    config.hdfs_disk_gb,
                    config.local_disk_kind,
                    local_gb,
                )
            )
        return neighbors

    # -- capacity helper --------------------------------------------------------

    @staticmethod
    def capacity_requirements(
        workload, num_workers: int, headroom: float = 1.2
    ) -> tuple[float, float]:
        """Per-node (hdfs_gb, local_gb) a workload needs, with headroom.

        HDFS must hold the largest stage's HDFS reads plus all HDFS writes
        (already replication-inclusive in the specs); Spark-local must hold
        the largest simultaneous shuffle plus persisted data.
        """
        hdfs_bytes = 0.0
        local_bytes = 0.0
        max_read = 0.0
        for stage in workload.stages:
            summary = stage.channel_summary()
            max_read = max(max_read, summary.get("hdfs_read", (0.0, 0.0))[0])
            hdfs_bytes += summary.get("hdfs_write", (0.0, 0.0))[0]
            local_bytes = max(
                local_bytes,
                summary.get("shuffle_write", (0.0, 0.0))[0]
                + summary.get("persist_write", (0.0, 0.0))[0] / max(stage.repeat, 1),
            )
        hdfs_bytes += max_read
        per_node_hdfs = hdfs_bytes * headroom / num_workers / GB
        per_node_local = local_bytes * headroom / num_workers / GB
        return (per_node_hdfs, per_node_local)


def _adjacent(grid: list, value) -> list:
    """Grid values immediately below and above ``value`` (plus snapping)."""
    below = [g for g in grid if g < value]
    above = [g for g in grid if g > value]
    candidates = []
    if below:
        candidates.append(below[-1])
    if above:
        candidates.append(above[0])
    return candidates
