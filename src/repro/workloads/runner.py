"""Workload-level measurement driver.

Bridges :class:`~repro.workloads.base.WorkloadSpec` and the simulator:
each stage's tasks are built and simulated; iterative stages
(``repeat > 1``) are simulated once and scaled — their iterations are
statistically identical, exactly the assumption the paper's per-stage
model makes.
"""

from __future__ import annotations

import dataclasses

from repro.cluster.cluster import Cluster
from repro.cluster.network import NetworkModel
from repro.faults.plan import FaultPlan
from repro.resilience import ResiliencePolicy
from repro.simulator.run import (
    ApplicationMeasurement,
    StageMeasurement,
    run_stage,
)
from repro.workloads.base import StageSpec, WorkloadSpec


def measure_stage(
    cluster: Cluster,
    cores_per_node: int,
    spec: StageSpec,
    run_index: int = 0,
    network: NetworkModel | None = None,
    faults: FaultPlan | None = None,
    resilience: ResiliencePolicy | None = None,
) -> StageMeasurement:
    """Simulate one stage spec (all repeats) and return its measurement.

    ``run_index`` selects a statistically identical but distinct task-skew
    realization — "the i-th run" for error-bar reporting.
    """
    single = run_stage(
        cluster,
        cores_per_node,
        spec.build_tasks(
            cores_per_node=cores_per_node,
            jitter_offset=run_index * 0.381966011,
        ),
        name=spec.name,
        network=network,
        faults=faults,
        resilience=resilience,
    )
    if spec.repeat == 1:
        return single
    return dataclasses.replace(
        single,
        makespan=single.makespan * spec.repeat,
        num_tasks=single.num_tasks * spec.repeat,
        task_counts={
            group: count * spec.repeat for group, count in single.task_counts.items()
        },
        read_bytes=single.read_bytes * spec.repeat,
        write_bytes=single.write_bytes * spec.repeat,
    )


def measure_workload(
    cluster: Cluster,
    cores_per_node: int,
    workload: WorkloadSpec,
    run_index: int = 0,
    network: NetworkModel | None = None,
    faults: FaultPlan | None = None,
    resilience: ResiliencePolicy | None = None,
) -> ApplicationMeasurement:
    """Simulate every stage of a workload back to back."""
    measurements = tuple(
        measure_stage(
            cluster, cores_per_node, spec,
            run_index=run_index, network=network, faults=faults,
            resilience=resilience,
        )
        for spec in workload.stages
    )
    return ApplicationMeasurement(name=workload.name, stages=measurements)

