"""Exact answers of the four-sample-run profiler, pinned float for float.

Each case profiles a built-in workload at N = 3 and compares every field
of :func:`~repro.core.serialization.report_to_dict` — every stage's task
count, ``t_avg``, ``delta_scale``, ``delta_read``, ``delta_write``, fill
time and GC coefficient, and every channel's totals — with values recorded
from a profiler that simulated every stage of all four runs.  The
comparison is ``==`` on floats: a stress stage that is skipped but should
have set a delta, or any change to the fitting arithmetic, shows up as a
changed number.

A second test pins *what* the stress runs simulate: the stages whose
makespan can set a delta, and no others.
"""

from __future__ import annotations

from functools import cache

import pytest

from repro.core.profiler import Profiler, ProfilingReport
from repro.core.serialization import report_to_dict
from repro.workloads import (
    make_logistic_regression_workload,
    make_svm_workload,
    make_triangle_count_workload,
)

#: case -> (workload factory, fit_gc).  SVM's tasks report no GC time, so
#: its GC-aware profile must equal the plain one.
CASES = {
    "svm": (make_svm_workload, False),
    "svm-gc": (make_svm_workload, True),
    "lr-small": (lambda: make_logistic_regression_workload(num_slaves=10), False),
    "triangle-count": (make_triangle_count_workload, False),
}


@cache
def _report(case: str) -> ProfilingReport:
    factory, fit_gc = CASES[case]
    return Profiler(factory(), nodes=3, fit_gc=fit_gc).profile()


def answers(report: ProfilingReport) -> list:
    """The pinned fields of one report, in a literal-friendly shape."""
    data = report_to_dict(report)
    return [
        (
            stage["name"], stage["num_tasks"],
            stage["t_avg"], stage["delta_scale"],
            stage["delta_read"], stage["delta_write"],
            stage["fill_seconds"], stage["gc_coeff"],
            [
                (channel["kind"], channel["role"], channel["total_bytes"],
                 channel["request_size"], channel["is_write"])
                for channel in stage["channels"]
            ],
        )
        for stage in data["stages"]
    ]


EXPECTED = {
    "svm": [
        ("dataValidator", 1200,
         10.240439086313613, 5.776836438853934,
         11.246050739818656, 0.0,
         10.240439086313613, 0.0, [
             ("hdfs_read", "hdfs", 161061273600.0,
              134217728.0, False),
         ]),
        ("iteration", 12000,
         3.0001286385684516, 16.924325504433,
         0.0, 0.0,
         3.0001286385684516, 0.0, [
         ]),
        ("subtract_write", 1200,
         4.901543500167848, 2.7650586912982362,
         0.0, 2.535887613001478,
         4.901543500167848, 0.0, [
             ("shuffle_write", "local", 182536110080.0,
              152113425.06666666, True),
         ]),
        ("subtract_read", 400,
         10.936246437402383, 3.5178656342752674,
         6.781598810481569, 0.0,
         1.367030804675298, 0.0, [
             ("shuffle_read", "local", 182536110080.0,
              380283.56266666664, False),
         ]),
    ],
    "lr-small": [
        ("dataValidator", 1920,
         16.376536098267085, 12.1507680360628,
         0.0, 0.0,
         16.376536098267085, 0.0, [
             ("hdfs_read", "hdfs", 257698037760.0,
              134217728.0, False),
         ]),
        ("iteration", 96000,
         5.597448861712359, 207.65472717917874,
         0.0, 0.0,
         5.597448861712359, 0.0, [
         ]),
    ],
    "triangle-count": [
        ("graphLoader", 2400,
         0.512270797386625, 0.037238576653521704,
         1.91025287856813, 0.0,
         0.512270797386625, 0.0, [
             ("hdfs_read", "hdfs", 32212254720.0,
              13421772.8, False),
         ]),
        ("canonicalize", 2400,
         5.382045065043216, 0.3912377959723017,
         0.0, 4.812567164846769,
         5.382045065043216, 0.0, [
             ("shuffle_write", "local", 425201762304.0,
              177167400.96, True),
         ]),
        ("countTriangles", 2400,
         28.174893856264333, 2.0481217159576772,
         5.224986343456294, 0.0,
         28.174893856264333, 0.0, [
             ("shuffle_read", "local", 425201762304.0,
              73819.7504, False),
         ]),
    ],
}

EXPECTED["svm-gc"] = EXPECTED["svm"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_profile_answers_are_pinned(case):
    assert answers(_report(case)) == EXPECTED[case]


#: case -> stage names simulated by (sample-3 local=HDD, sample-4 HDFS=HDD).
STRESS_STAGES = {
    "svm": (["subtract_write", "subtract_read"], ["dataValidator"]),
    "lr-small": ([], []),
    "triangle-count": (["canonicalize", "countTriangles"], ["graphLoader"]),
}


@pytest.mark.parametrize("case", sorted(STRESS_STAGES))
def test_stress_runs_simulate_only_the_stages_the_fit_reads(case):
    runs = _report(case).sample_runs
    assert [run.label for run in runs[2:]] == [
        "sample-3 (P=16, local=HDD)", "sample-4 (P=16, HDFS=HDD)",
    ]
    simulated = tuple(
        [stage.name for stage in run.measurement.stages] for run in runs[2:]
    )
    assert simulated == STRESS_STAGES[case]
    for run in runs[2:]:
        assert all(stage.cores_per_node == 16 for stage in run.measurement.stages)
