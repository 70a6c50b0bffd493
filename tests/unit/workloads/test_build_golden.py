"""What a stage build renders, pinned float for float.

Each case builds one stage of a built-in workload with
:meth:`~repro.workloads.base.StageSpec.build_tasks` at P = 1 or 24
executor cores and at the jitter offset of run index 0 or 3, and
compares the task count and a sha256 over every task's group, GC
seconds and every field of every phase (``float.hex`` for floats) with
values recorded from the builder.  The comparison is ``==``: moving any
rendered float by one ulp, reordering or retyping a phase, or relabeling
a task changes the digest.

The cases cover a streamed group (svm ``subtract_read``, K = 8; terasort
``SF``, K = 16), a stage of two interleaved groups (gatk4 ``BR``) and a
group with GC pressure (gatk4 ``MD`` with ``md_gc_coeff = 0.05``, where
``gc_seconds`` and the compute phase depend on P).
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.simulator.task import ComputePhase, IoPhase, SimTask
from repro.workloads import (
    Gatk4Parameters,
    make_gatk4_workload,
    make_svm_workload,
    make_terasort_workload,
)
from repro.workloads.base import StageSpec

#: The jitter offset :func:`~repro.workloads.runner.measure_stage` uses
#: for run index 1.
RUN_STRIDE = 0.381966011

STAGES = {
    "svm/subtract_read": lambda: make_svm_workload().stage("subtract_read"),
    "terasort/SF": lambda: make_terasort_workload().stage("SF"),
    "gatk4/BR": lambda: make_gatk4_workload().stage("BR"),
    "gatk4-gc/MD": lambda: make_gatk4_workload(
        Gatk4Parameters(md_gc_coeff=0.05)
    ).stage("MD"),
}

#: (stage, P, run index) -> (task count, sha256 of the rendered tasks).
GOLDEN = {
    ("svm/subtract_read", 1, 0): (400, "5360b0ad5f1d3130467a12ce470de6e5feb79193302d9aa083e5e0958d08dc50"),
    ("svm/subtract_read", 1, 3): (400, "9f1dcef41ce03faa152082ca71935f8fea29580ff96ca4a28b3decedc2a2f5f3"),
    ("svm/subtract_read", 24, 0): (400, "5360b0ad5f1d3130467a12ce470de6e5feb79193302d9aa083e5e0958d08dc50"),
    ("svm/subtract_read", 24, 3): (400, "9f1dcef41ce03faa152082ca71935f8fea29580ff96ca4a28b3decedc2a2f5f3"),
    ("terasort/SF", 1, 0): (360, "c00ff097970c3d4d3e524bb157ef0677e8e88b4ad0f3b0f7c1d4300c6da6faf6"),
    ("terasort/SF", 1, 3): (360, "258a3eb255926517623403b2045012cff0a2c1e67322e1d954e5032fbcebea4c"),
    ("terasort/SF", 24, 0): (360, "c00ff097970c3d4d3e524bb157ef0677e8e88b4ad0f3b0f7c1d4300c6da6faf6"),
    ("terasort/SF", 24, 3): (360, "258a3eb255926517623403b2045012cff0a2c1e67322e1d954e5032fbcebea4c"),
    ("gatk4/BR", 1, 0): (13640, "50206ddad89618e8f1bf607c345faf1e331e8a452e9e3f389b315e26db982750"),
    ("gatk4/BR", 1, 3): (13640, "7625e36cafffa5ff2e3107346a9160c2cfaa620b25dc01a6c0fe44edf858542c"),
    ("gatk4/BR", 24, 0): (13640, "50206ddad89618e8f1bf607c345faf1e331e8a452e9e3f389b315e26db982750"),
    ("gatk4/BR", 24, 3): (13640, "7625e36cafffa5ff2e3107346a9160c2cfaa620b25dc01a6c0fe44edf858542c"),
    ("gatk4-gc/MD", 1, 0): (973, "2d29be9fa496591205a33bdd71cbe91f746f6a2ac7aa9aa81500e8fb5c345fe5"),
    ("gatk4-gc/MD", 1, 3): (973, "8d9331ca73c893a4f1bdf301515e9b94f7158b56eac20e8f5cdfa7e5d8a96da6"),
    ("gatk4-gc/MD", 24, 0): (973, "d1fe8395385d89abbbce9adbc54e08abce665d9d9e302ec3bd12bac8d7fae72c"),
    ("gatk4-gc/MD", 24, 3): (973, "8596ba8f423c3300d95059ec97004562711c97273509bf120067d0d78913c6db"),
}


def _render(value: object) -> str:
    return value.hex() if isinstance(value, float) else repr(value)


def _phase_fields(phase: IoPhase | ComputePhase) -> tuple:
    if isinstance(phase, IoPhase):
        return (
            "io", phase.role, phase.total_bytes, phase.request_size,
            phase.is_write, phase.per_stream_cap, phase.via_network,
        )
    assert isinstance(phase, ComputePhase)
    return ("compute", phase.seconds)


def digest(tasks: list[SimTask]) -> str:
    """sha256 over every task's group, GC seconds and phase fields."""
    sha = hashlib.sha256()
    for task in tasks:
        fields = [task.group, task.gc_seconds, len(task.phases)]
        for phase in task.phases:
            fields.extend(_phase_fields(phase))
        sha.update(" ".join(_render(field) for field in fields).encode())
        sha.update(b"\n")
    return sha.hexdigest()


def build(stage: StageSpec, cores: int, run_index: int) -> list[SimTask]:
    return stage.build_tasks(
        cores_per_node=cores, jitter_offset=run_index * RUN_STRIDE
    )


@pytest.mark.parametrize(
    "case", sorted(GOLDEN), ids=lambda case: "{}-P{}-run{}".format(*case)
)
def test_build_renders_the_recorded_tasks(case):
    name, cores, run_index = case
    tasks = build(STAGES[name](), cores, run_index)
    assert (len(tasks), digest(tasks)) == GOLDEN[case]


def test_each_task_draws_one_id_in_build_order():
    tasks = build(STAGES["gatk4/BR"](), 24, 0)
    first = tasks[0].task_id
    assert [task.task_id for task in tasks] == list(
        range(first, first + len(tasks))
    )


def test_built_phases_are_frozen():
    task = build(STAGES["svm/subtract_read"](), 1, 0)[0]
    phase = next(p for p in task.phases if isinstance(p, IoPhase))
    with pytest.raises(dataclasses.FrozenInstanceError):
        phase.total_bytes = 0.0  # type: ignore[misc]
