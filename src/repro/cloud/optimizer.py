"""Configuration-space search for minimum cost (Section VI-1).

The optimizer composes three pieces:

1. the Doppio :class:`~repro.core.predictor.Predictor` (built from four
   profiling sample runs) supplies ``Time`` for any candidate
   configuration;
2. :mod:`repro.cloud.pricing` supplies ``Cost = f(config, Time)``;
3. ``grid_search`` walks the discrete space
   ``(vCPUs, DiskTypes, DiskSize_HDFS, DiskSize_local)`` exhaustively.

The space is only a few thousand points, so the exhaustive scan finds
the exact minimum that the paper's gradient-descent procedure
approaches.  It honours capacity feasibility (disks must actually hold
the job's data).

Candidates are scored through the array-native Eq.-1 kernel
(:mod:`repro.model.arrays`): ``grid_search`` builds one
:class:`~repro.model.arrays.CandidateBatch` for the whole feasible grid
straight from its axes, scores it in one pass, and builds an
``EvaluatedConfiguration`` for the winner only.  The other records are
built from the score columns the first time a caller reads
``OptimizationResult.evaluated`` (``repro optimize --top`` does; the
query service reads only ``best`` and the count).  Every float is
bitwise identical to the historical per-candidate path.  At that speed
an exhaustive scan outruns any branch-and-bound pruning of the grid (see
``docs/PERFORMANCE.md``), so every search scores every feasible
candidate.  The scalar :meth:`CostOptimizer.evaluate` remains for
single configurations (reference points such as R1/R2, cache-threaded
what-ifs).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cloud.disks import SPEC_BY_KIND, make_persistent_disk
from repro.cloud.instance import MachineType, machine_for_vcpus
from repro.cloud.pricing import CloudConfiguration
from repro.core.predictor import Predictor
from repro.errors import OptimizationError
from repro.model.arrays import BatchScores, CandidateBatch
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


class _ScoredGrid(Sequence):
    """A grid search's evaluated records, built from its columns on first read.

    Candidate ``i`` is vCPU row ``i // len(disks)`` with disk pair
    ``disks[i % len(disks)]``, the search's nested-loop order.  Its
    length needs no records.
    """

    def __init__(
        self,
        machines: list[MachineType],
        disks: list[tuple[tuple[str, float], tuple[str, float]]],
        num_workers: int,
        scores: BatchScores,
    ) -> None:
        self._machines = machines
        self._disks = disks
        self._num_workers = num_workers
        self._scores = scores
        self._records: tuple[EvaluatedConfiguration, ...] | None = None

    def __len__(self) -> int:
        return len(self._scores)

    def __getitem__(self, index):
        return self._all()[index]

    def __iter__(self):
        return iter(self._all())

    def record(self, index: int) -> EvaluatedConfiguration:
        """Candidate ``index`` as an evaluated record."""
        row, column = divmod(index, len(self._disks))
        (hdfs_kind, hdfs_gb), (local_kind, local_gb) = self._disks[column]
        return EvaluatedConfiguration(
            config=CloudConfiguration(
                machine=self._machines[row],
                num_workers=self._num_workers,
                hdfs_disk_kind=hdfs_kind,
                hdfs_disk_gb=hdfs_gb,
                local_disk_kind=local_kind,
                local_disk_gb=local_gb,
            ),
            runtime_seconds=self._scores.runtime_seconds[index],
            cost_dollars=self._scores.cost_dollars[index],
        )

    def _all(self) -> tuple[EvaluatedConfiguration, ...]:
        if self._records is None:
            self._records = tuple(self.record(i) for i in range(len(self)))
        return self._records


@dataclass(frozen=True)
class OptimizationResult:
    """Search outcome: the winner plus every point evaluated.

    ``evaluated`` is a read-only sequence in search order.  A grid
    search builds its records from the score columns on first read, so
    a caller that wants only ``best`` and ``num_evaluated`` never pays
    for them.
    """

    best: EvaluatedConfiguration
    evaluated: Sequence[EvaluatedConfiguration]

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
        :meth:`evaluate` then memoizes single-configuration predictions
        under the same content-addressed keys the experiment pipeline
        uses.  Batch scoring never touches it: :meth:`grid_search` and
        :meth:`score_candidates` score every candidate through the array
        kernel, whether or not it was scored before.
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

    # -- search -----------------------------------------------------------------

    def grid_search(
        self,
        vcpu_grid: tuple[int, ...] = DEFAULT_VCPU_GRID,
        disk_kinds: tuple[str, ...] = ("pd-standard", "pd-ssd"),
        hdfs_sizes_gb: tuple[float, ...] = DEFAULT_SIZE_GRID_GB,
        local_sizes_gb: tuple[float, ...] = DEFAULT_SIZE_GRID_GB,
    ) -> OptimizationResult:
        """Score every feasible grid point; ``best`` is the optimum.

        The kernel scores the feasible grid as one batch whose columns
        come straight from the axes, in nested-loop order: vCPU rows,
        then feasible HDFS ``(kind, GB)``, then feasible local
        ``(kind, GB)``.  ``best`` is the first candidate of minimal
        cost, and the only record built here; ``evaluated`` lists every
        candidate in that order.
        """
        for kind in disk_kinds:
            if kind not in SPEC_BY_KIND:
                raise OptimizationError(f"unknown disk kind {kind!r}")
        machines = [machine_for_vcpus(vcpus) for vcpus in vcpu_grid]
        hdfs_disks = [
            (kind, gb) for kind in disk_kinds for gb in hdfs_sizes_gb
            if gb >= self.min_hdfs_gb
        ]
        local_disks = [
            (kind, gb) for kind in disk_kinds for gb in local_sizes_gb
            if gb >= self.min_local_gb
        ]
        disks = [(hdfs, local) for hdfs in hdfs_disks for local in local_disks]
        if not machines or not disks:
            raise OptimizationError("no feasible configuration on the grid")
        # Each disk column is one vCPU row's block, repeated per row.
        hdfs_kinds, hdfs_gbs, local_kinds, local_gbs = (
            column * len(machines)
            for column in zip(*(hdfs + local for hdfs, local in disks))
        )
        vcpus = tuple(machine.vcpus for machine in machines for _ in disks)
        scores = self.predictor.batch_evaluator().score(CandidateBatch(
            nodes=(self.num_workers,) * len(vcpus),
            cores=vcpus,
            hdfs_kinds=hdfs_kinds,
            hdfs_sizes_gb=hdfs_gbs,
            local_kinds=local_kinds,
            local_sizes_gb=local_gbs,
            vcpus=vcpus,
        ))
        costs = scores.cost_dollars
        records = _ScoredGrid(machines, disks, self.num_workers, scores)
        best = records.record(min(range(len(costs)), key=costs.__getitem__))
        return OptimizationResult(best=best, evaluated=records)

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
        if num_workers < 1:
            raise OptimizationError("worker count must be positive")
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
