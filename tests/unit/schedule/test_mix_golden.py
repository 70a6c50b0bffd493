"""Exact answers of small multi-tenant mixes, pinned float for float.

Each scenario runs :func:`~repro.schedule.mix.measure_mix` on a small
cluster and compares the makespan, every job's first launch and finish,
every stage's makespan, first finish and core utilization, and the
cluster's device utilizations with values recorded from the mix engine.
The comparison is ``==`` on floats: any change to the engine's event
order, launch choices or accounting shows up as a changed number.

Together the scenarios cover both policies, staggered arrivals, an
iterative (``repeat``) stage that the mix runs iteration by iteration,
a ``volume_scale``, a duplicate job name (``etl#2``), and a fault plan
whose disk throttle and node death requeue in-flight and queued
tasks of every job onto the survivors.

The paper-scale co-location (LR and SVM on 10x24 HDDs through
``Experiment.measure_mix``) is pinned the same way: its makespan and
each job's mixed and solo runtime.  So is a faulted one-job mix, which
the pipeline runs on the mix engine like any other faulted mix.
"""

from __future__ import annotations

import pytest

from repro.cluster import HYBRID_CONFIGS, make_paper_cluster
from repro.faults import DiskFault, FaultPlan, NodeFailureFault
from repro.invariants import check_interference_dominance, check_mix_conservation
from repro.pipeline import ClusterPlatform, Experiment
from repro.schedule.mix import MixJob, MixMeasurement, measure_mix
from repro.units import MB
from repro.workloads import make_logistic_regression_workload, make_svm_workload
from repro.workloads.base import ChannelSpec, StageSpec, TaskGroupSpec, WorkloadSpec

HDFS_READ = ChannelSpec("hdfs_read", 16 * MB, 1 * MB, 60 * MB)
SHUFFLE_WRITE = ChannelSpec("shuffle_write", 8 * MB, 1 * MB, 50 * MB)
SHUFFLE_READ = ChannelSpec("shuffle_read", 24 * MB, 256 * 1024, 80 * MB)
HDFS_WRITE = ChannelSpec("hdfs_write", 12 * MB, 1 * MB, 60 * MB)


def _stage(name, count, reads=(), compute=1.0, writes=(), chunks=1, repeat=1):
    return StageSpec(
        name=name,
        groups=(
            TaskGroupSpec(
                name="g", count=count, read_channels=reads,
                compute_seconds=compute, write_channels=writes,
                stream_chunks=chunks,
            ),
        ),
        repeat=repeat,
    )


ETL = WorkloadSpec(name="etl", stages=(
    _stage("load", 24, reads=(HDFS_READ,), compute=0.8,
           writes=(SHUFFLE_WRITE,)),
    _stage("reduce", 12, reads=(SHUFFLE_READ,), compute=0.5,
           writes=(HDFS_WRITE,), chunks=2),
))
ITERATIVE = WorkloadSpec(name="iter", stages=(
    _stage("iterate", 12, reads=(HDFS_READ,), compute=0.4, repeat=3),
))

JOBS = (
    MixJob(spec=ETL),
    MixJob(spec=ITERATIVE, arrival=1.5),
    MixJob(spec=ETL, arrival=3.0, volume_scale=0.5),
)

#: Node 0's disks run at 5% for a while, and node 2 dies with tasks
#: running on it and tasks of all three jobs queued there.
KILL_AT = 3.5
THROTTLE_KILL = FaultPlan(
    name="throttle-kill",
    faults=(
        DiskFault(factor=0.05, start=0.5, end=6.0, node=0),
        NodeFailureFault(node=2, at_seconds=KILL_AT),
    ),
)

SCENARIOS = {
    "fifo": dict(policy="fifo"),
    "fair": dict(policy="fair"),
    "fair-throttle-kill": dict(policy="fair", faults=THROTTLE_KILL),
}


def _run(name: str) -> MixMeasurement:
    return measure_mix(
        make_paper_cluster(3, HYBRID_CONFIGS[0]), 2, JOBS, **SCENARIOS[name]
    )


def answers(mix: MixMeasurement) -> dict:
    """The pinned floats of one mix, in a literal-friendly shape."""
    return {
        "makespan": mix.makespan,
        "jobs": [
            (
                job.name,
                job.first_launch,
                job.finish,
                [
                    (
                        stage.name,
                        stage.makespan,
                        stage.first_finish_seconds,
                        stage.core_utilization,
                    )
                    for stage in job.measurement.stages
                ],
            )
            for job in mix.jobs
        ],
        "device_utilizations": [list(row) for row in mix.device_utilizations],
    }


EXPECTED = {
    "fair": {
        "makespan": 14.708392245549737,
        "jobs": [
            ("etl", 0.0, 14.165992856356265, [
                ("load", 9.260871390629852, 0.9882945358709136,
                 0.5298277515905508),
                ("reduce", 4.905121465726413, 0.9170317703430211,
                 0.407737099677269),
            ]),
            ("iter", 2.3265461101275378, 14.708392245549737, [
                ("iterate", 13.208392245549737, 1.3636347086228042,
                 0.30283776599288287),
            ]),
            ("etl#2", 3.0349813591614745, 14.584829663728602, [
                ("load", 7.809397614898522, 0.6818285306129379,
                 0.3141514178574981),
                ("reduce", 3.77543204883008, 0.45036248106581667,
                 0.264870347834727),
            ]),
        ],
        "device_utilizations": [
            ["slave0-hdfs-ssd", False, 0.3626008205072756],
            ["slave0-hdfs-ssd", True, 0.07653742343296793],
            ["slave0-local-ssd", False, 0.1193828637022458],
            ["slave0-local-ssd", True, 0.11458102817183294],
            ["slave1-hdfs-ssd", False, 0.3235985115995111],
            ["slave1-hdfs-ssd", True, 0.07884739105076169],
            ["slave1-local-ssd", False, 0.11363309044786536],
            ["slave1-local-ssd", True, 0.10818824004546422],
            ["slave2-hdfs-ssd", False, 0.3733700079375973],
            ["slave2-hdfs-ssd", True, 0.07960321769426938],
            ["slave2-local-ssd", False, 0.11850387103505042],
            ["slave2-local-ssd", True, 0.10628964941040074],
        ],
    },
    "fair-throttle-kill": {
        "makespan": 22.7582879665009,
        "jobs": [
            ("etl", 0.0, 19.94489407821157, [
                ("load", 12.679649535923133, 1.0328517672246105,
                 0.4314789889448776),
                ("reduce", 7.2652445422884355, 0.8056328977428961,
                 0.27528323215532613),
            ]),
            ("iter", 1.7104891194203518, 21.39943953275702, [
                ("iterate", 19.89943953275702, 1.2108940570714508,
                 0.21856814633827007),
            ]),
            ("etl#2", 3.0349813591614745, 22.7582879665009, [
                ("load", 16.00724222313099, 0.6818285306129379,
                 0.16708900615574188),
                ("reduce", 3.751045743369911, 0.4028164488714481,
                 0.266592323425416),
            ]),
        ],
        "device_utilizations": [
            ["slave0-hdfs-ssd", False, 0.4115423929801776],
            ["slave0-hdfs-ssd", True, 0.07721180844585501],
            ["slave0-local-ssd", False, 0.11444388774956282],
            ["slave0-local-ssd", True, 0.1461051254349993],
            ["slave1-hdfs-ssd", False, 0.3267615053585783],
            ["slave1-hdfs-ssd", True, 0.06998706543030986],
            ["slave1-local-ssd", False, 0.10340123542726441],
            ["slave1-local-ssd", True, 0.10092277381963587],
            ["slave2-hdfs-ssd", False, 0.039451532066118226],
            ["slave2-local-ssd", True, 0.017425958738880427],
        ],
    },
    "fifo": {
        "makespan": 14.859227453308874,
        "jobs": [
            ("etl", 0.0, 8.055838162812806, [
                ("load", 5.270392646762967, 0.9882945358709136,
                 0.9309869293477224),
                ("reduce", 2.7854455160498395, 0.8056328977428997,
                 0.7180179933428702),
            ]),
            ("iter", 4.570478569991547, 12.22064353749145, [
                ("iterate", 10.72064353749145, 3.6075671684868125,
                 0.37311192989595204),
            ]),
            ("etl#2", 8.051078235875014, 14.859227453308874, [
                ("load", 10.76831836239978, 5.549985430748263,
                 0.22782882626313772),
                ("reduce", 1.0909090909090935, 0.4028164488714481,
                 0.9166666666666629),
            ]),
        ],
        "device_utilizations": [
            ["slave0-hdfs-ssd", False, 0.3751829409614039],
            ["slave0-hdfs-ssd", True, 0.08233995037666636],
            ["slave0-local-ssd", False, 0.11944359926906149],
            ["slave0-local-ssd", True, 0.12957523214489672],
            ["slave1-hdfs-ssd", False, 0.30748207075769485],
            ["slave1-hdfs-ssd", True, 0.06899430631021025],
            ["slave1-local-ssd", False, 0.1015138960947668],
            ["slave1-local-ssd", True, 0.10876448951834684],
            ["slave2-hdfs-ssd", False, 0.23881241489149882],
            ["slave2-hdfs-ssd", True, 0.049776482978989844],
            ["slave2-local-ssd", False, 0.07005040993720572],
            ["slave2-local-ssd", True, 0.07898064853197467],
        ],
    },
}



@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_mix_answers_are_unchanged(name):
    assert answers(_run(name)) == EXPECTED[name]


def test_the_kill_lands_mid_mix():
    mix = _run("fair-throttle-kill")
    assert all(job.first_launch < KILL_AT < job.finish for job in mix.jobs)
    assert mix.makespan > _run("fair").makespan


# -- the paper-scale LR + SVM co-location --------------------------------------

#: LR and SVM on the 10x24 paper cluster with both disks spinning (the
#: placement with the most I/O contention), SVM arriving at 30 s under
#: fair scheduling, through the pipeline's ``Experiment.measure_mix``.
PAPER_NODES = 10
PAPER_CORES = 24
PAPER_MAKESPAN = 3215.976275823818
PAPER_JOB_SECONDS = {
    "LogisticRegression": 3215.976275823818,
    "SVM": 1066.2581868202717,
}
PAPER_SOLO_SECONDS = {
    "LogisticRegression": 2630.2231831555573,
    "SVM": 760.509791131095,
}


@pytest.fixture(scope="module")
def paper_mix():
    """The mix, its jobs, and each job's solo measurement."""
    lr = make_logistic_regression_workload(num_slaves=PAPER_NODES)
    svm = make_svm_workload()
    platform = ClusterPlatform(hdfs_kind="hdd", local_kind="hdd")
    jobs = [MixJob(spec=lr), MixJob(spec=svm, arrival=30.0)]
    experiment = Experiment(lr, platform)
    mix = experiment.measure_mix(
        jobs, policy="fair", nodes=PAPER_NODES, cores_per_node=PAPER_CORES
    )
    solos = {
        spec.name: Experiment(spec, platform, cache=experiment.cache).measure(
            PAPER_NODES, PAPER_CORES
        )
        for spec in (lr, svm)
    }
    return jobs, mix, solos


def test_paper_mix_answers_are_unchanged(paper_mix):
    _jobs, mix, solos = paper_mix
    assert mix.makespan == PAPER_MAKESPAN
    assert {
        job.name: job.measurement.total_seconds for job in mix.jobs
    } == PAPER_JOB_SECONDS
    assert {
        name: solo.total_seconds for name, solo in solos.items()
    } == PAPER_SOLO_SECONDS


def test_paper_mix_shows_real_contention(paper_mix):
    jobs, mix, solos = paper_mix
    violations = check_mix_conservation(jobs, mix)
    violations += check_interference_dominance(mix, solos)
    assert not violations, "; ".join(str(v) for v in violations)
    peak = max(
        job.measurement.total_seconds / solos[job.name].total_seconds
        for job in mix.jobs
    )
    assert peak >= 1.05


#: SVM alone on 3x4 ssd/hdd under a disk throttle over [4100, 4400] s of
#: the mix clock, which only the shuffle stages reach.
FAULTED_SOLO_MAKESPAN = 5892.305910465422


def test_a_faulted_one_job_mix_runs_on_the_mix_clock():
    # A fault plan anchors to the mix clock whatever the job count: the
    # pipeline's one-job mix must equal the mix engine's, not the solo
    # path's per-stage fault timing.
    svm = make_svm_workload()
    platform = ClusterPlatform(hdfs_kind="ssd", local_kind="hdd")
    plan = FaultPlan(
        name="late-throttle",
        faults=(DiskFault(factor=0.2, start=4100.0, end=4400.0),),
    )
    jobs = [MixJob(spec=svm)]
    experiment = Experiment(svm, platform, faults=plan)
    mix = experiment.measure_mix(jobs, nodes=3, cores_per_node=4)
    direct = measure_mix(platform.cluster(3), 4, jobs, faults=plan)
    assert mix == direct
    assert mix.makespan == FAULTED_SOLO_MAKESPAN
    assert experiment.measure_mix(jobs, nodes=3, cores_per_node=4) is mix
    assert experiment.cache.mix_stats.hits == 1
