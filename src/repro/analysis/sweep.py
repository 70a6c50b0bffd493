"""Parameter sweeps: the x-axes of the paper's figures.

Two sweeps recur throughout the evaluation: executor cores per node
(Figs. 3 and 7-12) and provisioned local-disk size (Figs. 13-15).  Each
sweep point pairs the simulator's measured runtime ("exp") with the
model's prediction, ready for error reporting.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.errors import ExpVsModel
from repro.cluster.cluster import Cluster
from repro.core.predictor import Predictor
from repro.model.arrays import CandidateBatch
from repro.workloads.base import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.cache import ResultCache


@dataclass(frozen=True)
class SweepPoint:
    """One sweep x-value with per-stage and total comparisons."""

    x: float
    stage_points: tuple[ExpVsModel, ...]
    total: ExpVsModel


def sweep_cores(
    workload: WorkloadSpec,
    predictor: Predictor,
    cluster: Cluster,
    core_counts: Sequence[int],
    cache: ResultCache | None = None,
    workers: int | None = None,
) -> list[SweepPoint]:
    """Measure and predict every stage across per-node core counts.

    Runs through the experiment pipeline: pass a shared ``cache`` and
    points already simulated — by an earlier sweep, a validation run, or
    another process via a cache file — are reused bit-identically.
    ``workers`` fans the core-count axis across a
    :mod:`repro.parallel` process pool (``None``/``1`` serial, ``0``
    auto-sized); the points come back bit-identical either way.
    """
    # Imported here: repro.analysis is a pipeline dependency (error
    # metrics), so the orchestration layer cannot be a module-level one.
    from repro.pipeline.experiment import Experiment
    from repro.pipeline.sources import ResolvedSource

    experiment = Experiment(
        ResolvedSource(workload, predictor.report), cluster, cache=cache
    )
    results = experiment.run_grid(
        nodes=(cluster.num_slaves,),
        cores_per_node=tuple(core_counts),
        workers=workers,
    )
    points: list[SweepPoint] = []
    for cores, result in zip(core_counts, results):
        stage_points = tuple(
            ExpVsModel(
                label=f"{stage.name}@P={cores}",
                measured=stage.measured_seconds,
                predicted=stage.predicted_seconds,
            )
            for stage in result.stages
        )
        points.append(
            SweepPoint(
                x=float(cores),
                stage_points=stage_points,
                total=ExpVsModel(
                    label=f"total@P={cores}",
                    measured=result.measured_seconds,
                    predicted=result.predicted_seconds,
                ),
            )
        )
    return points


def sweep_local_disk_sizes(
    predictor: Predictor,
    sizes_gb: Sequence[float],
    num_workers: int,
    cores_per_node: int,
    local_kind: str = "pd-standard",
    hdfs_kind: str = "pd-standard",
    hdfs_gb: float = 1000.0,
    measure: Callable[[dict], float] | None = None,
) -> list[tuple[float, float]]:
    """Predicted runtime vs. local-disk size (Fig. 14/15's x-axis).

    Returns ``(size_gb, predicted_seconds)`` pairs.  Pass ``measure`` to
    also obtain a "measured" value per point — it receives the
    ``{"hdfs": device, "local": device}`` mapping and returns seconds —
    which callers can zip against the predictions.

    Predictions route through the predictor's array kernel
    (:meth:`~repro.core.predictor.Predictor.batch_evaluator`): the whole
    size axis is one :class:`~repro.model.arrays.CandidateBatch` scored
    in a single pass, with values bit-identical to building a scalar
    model per size.
    """
    # Model-only batch: the swept (N, P) need not be a purchasable
    # machine shape, so no ``vcpus`` column and no cost scoring.
    count = len(sizes_gb)
    batch = CandidateBatch(
        nodes=(num_workers,) * count,
        cores=(cores_per_node,) * count,
        hdfs_kinds=(hdfs_kind,) * count,
        hdfs_sizes_gb=(hdfs_gb,) * count,
        local_kinds=(local_kind,) * count,
        local_sizes_gb=tuple(sizes_gb),
    )
    scores = predictor.batch_evaluator().score(batch)
    return [
        (size_gb, float(predicted))
        for size_gb, predicted in zip(sizes_gb, scores.runtime_seconds)
    ]
