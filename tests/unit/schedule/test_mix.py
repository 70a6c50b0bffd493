"""Unit tests for the multi-job mix engine and its building blocks."""

import dataclasses

import pytest

from repro.cluster import HYBRID_CONFIGS, make_paper_cluster
from repro.errors import SimulationError
from repro.faults.plan import DiskFault, FaultPlan, NodeFailureFault
from repro.invariants import check_mix_conservation
from repro.schedule.mix import (
    MIX_POLICIES,
    MixEngine,
    MixJob,
    canonical_jobs,
    measure_mix,
)
from repro.schedule.scheduler import SchedulingError
from repro.units import MB
from repro.workloads.base import (
    ChannelSpec,
    StageSpec,
    TaskGroupSpec,
    WorkloadError,
    WorkloadSpec,
    scale_workload_volume,
)


def _spec(name, count=4, compute=1.0, read_mb=8.0):
    """One-stage compute+read workload, small enough to simulate fast."""
    return WorkloadSpec(
        name=name,
        stages=(
            StageSpec(
                name="s0",
                groups=(
                    TaskGroupSpec(
                        name="g",
                        count=count,
                        read_channels=(
                            ChannelSpec(
                                kind="hdfs_read",
                                bytes_per_task=read_mb * MB,
                                request_size=1 * MB,
                            ),
                        ),
                        compute_seconds=compute,
                    ),
                ),
            ),
        ),
    )


def _cluster(nodes=2):
    return make_paper_cluster(nodes, HYBRID_CONFIGS[0])


class TestMixJob:
    def test_defaults(self):
        job = MixJob(spec=_spec("a"))
        assert job.arrival == 0.0
        assert job.volume_scale == 1.0
        assert job.display_name == "a"

    def test_name_override(self):
        assert MixJob(spec=_spec("a"), name="alias").display_name == "alias"

    @pytest.mark.parametrize("arrival", [-1.0, float("nan"), float("inf")])
    def test_bad_arrival_rejected(self, arrival):
        with pytest.raises(SchedulingError, match="arrival"):
            MixJob(spec=_spec("a"), arrival=arrival)

    @pytest.mark.parametrize("scale", [0.0, -2.0, float("nan"), float("inf")])
    def test_bad_volume_scale_rejected(self, scale):
        with pytest.raises(SchedulingError, match="volume_scale"):
            MixJob(spec=_spec("a"), volume_scale=scale)

    @pytest.mark.parametrize("name", [5, ["x"]])
    def test_bad_name_rejected(self, name):
        with pytest.raises(SchedulingError, match="name must be a string"):
            MixJob(spec=_spec("a"), name=name)


class TestCanonicalJobs:
    def test_orders_by_arrival_then_name(self):
        jobs = [
            MixJob(spec=_spec("z"), arrival=0.0),
            MixJob(spec=_spec("a"), arrival=5.0),
            MixJob(spec=_spec("b"), arrival=0.0),
        ]
        assert [name for name, _ in canonical_jobs(jobs)] == ["b", "z", "a"]

    def test_input_position_breaks_exact_ties(self):
        first = MixJob(spec=_spec("same"), volume_scale=1.0)
        second = MixJob(spec=_spec("same"), volume_scale=2.0)
        named = canonical_jobs([second, first])
        # Same (arrival, name): submitted order decides, then suffixes.
        assert [name for name, _ in named] == ["same", "same#2"]
        assert named[0][1] is second

    def test_duplicate_names_suffixed_in_canonical_order(self):
        jobs = [
            MixJob(spec=_spec("dup"), arrival=9.0),
            MixJob(spec=_spec("dup"), arrival=0.0),
            MixJob(spec=_spec("dup"), arrival=4.0),
        ]
        named = canonical_jobs(jobs)
        assert [name for name, _ in named] == ["dup", "dup#2", "dup#3"]
        assert [job.arrival for _, job in named] == [0.0, 4.0, 9.0]

    def test_empty_list_is_empty(self):
        assert canonical_jobs([]) == []


class TestMeasureMix:
    def test_unknown_policy_rejected(self):
        with pytest.raises(SchedulingError, match="unknown mix policy"):
            measure_mix(_cluster(), 4, [MixJob(spec=_spec("a"))], policy="srpt")

    def test_empty_mix_rejected(self):
        with pytest.raises(SchedulingError, match="at least one job"):
            measure_mix(_cluster(), 4, [])

    def test_timeline_names_follow_canonical_order(self):
        jobs = [
            MixJob(spec=_spec("late"), arrival=50.0),
            MixJob(spec=_spec("early"), arrival=0.0),
        ]
        mix = measure_mix(_cluster(), 4, jobs)
        assert [t.name for t in mix.jobs] == ["early", "late"]
        assert mix.jobs[0].arrival == 0.0

    def test_makespan_covers_every_finish(self):
        jobs = [
            MixJob(spec=_spec("a")),
            MixJob(spec=_spec("b"), arrival=2.0),
        ]
        mix = measure_mix(_cluster(), 4, jobs)
        assert mix.makespan == max(t.finish for t in mix.jobs)
        for timeline in mix.jobs:
            assert timeline.first_launch >= timeline.arrival
            assert timeline.finish >= timeline.first_launch

    def test_fifo_blocks_fair_shares(self):
        # One node, two cores: a big job saturates the cluster when a
        # small one arrives.  FIFO keeps draining the big job's queue;
        # fair hands the next free slot to the job with fewer running
        # tasks — so the small job starts strictly earlier under fair.
        jobs = [
            MixJob(spec=_spec("big", count=12, compute=2.0)),
            MixJob(spec=_spec("small", count=2, compute=0.5), arrival=1.0),
        ]
        fifo = measure_mix(_cluster(nodes=1), 2, jobs, policy="fifo")
        fair = measure_mix(_cluster(nodes=1), 2, jobs, policy="fair")
        fifo_small = next(t for t in fifo.jobs if t.name == "small")
        fair_small = next(t for t in fair.jobs if t.name == "small")
        assert fair_small.waiting < fifo_small.waiting
        assert fair_small.turnaround < fifo_small.turnaround

    def test_both_policies_conserve_bytes(self):
        jobs = [
            MixJob(spec=_spec("a"), volume_scale=2.0),
            MixJob(spec=_spec("b"), arrival=1.0),
        ]
        for policy in MIX_POLICIES:
            mix = measure_mix(_cluster(), 4, jobs, policy=policy)
            violations = check_mix_conservation(jobs, mix)
            assert not violations, "\n".join(map(str, violations))

    def test_node_failure_requeues_and_slows_the_mix(self):
        # Killing a node mid-mix requeues every job's in-flight tasks on
        # the survivors: the mix still completes, moves all its bytes,
        # and cannot get faster.
        jobs = [
            MixJob(spec=_spec("a", count=8)),
            MixJob(spec=_spec("b", count=8), arrival=0.5),
        ]
        clean = measure_mix(_cluster(), 2, jobs)
        plan = FaultPlan(
            name="kill", faults=(NodeFailureFault(node=1, at_seconds=1.0),)
        )
        faulted = measure_mix(_cluster(), 2, jobs, faults=plan)
        assert faulted.makespan >= clean.makespan
        violations = check_mix_conservation(jobs, faulted)
        assert not violations, "\n".join(map(str, violations))

    def test_run_index_changes_jitter(self):
        spec = dataclasses.replace(
            _spec("jittery"),
            stages=(
                dataclasses.replace(_spec("jittery").stages[0], task_jitter=0.2),
            ),
        )
        jobs = [MixJob(spec=spec), MixJob(spec=_spec("other"), arrival=0.5)]
        base = measure_mix(_cluster(), 2, jobs, run_index=0)
        repeat = measure_mix(_cluster(), 2, jobs, run_index=0)
        other = measure_mix(_cluster(), 2, jobs, run_index=1)
        assert base == repeat  # deterministic per run_index
        assert base.makespan != other.makespan

    def test_an_engine_runs_its_mix_again_identically(self):
        jobs = [
            MixJob(spec=_spec("a", count=8)),
            MixJob(spec=_spec("b", count=8), arrival=0.5),
        ]
        engine = MixEngine(_cluster(), 2, jobs)
        first = engine.measurement(engine.run_mix())
        second = engine.measurement(engine.run_mix())
        assert second == first

    def test_a_stall_names_the_job_and_the_task_in_its_stage(self):
        jobs = [MixJob(spec=_spec("a")), MixJob(spec=_spec("b"), arrival=0.5)]
        plan = FaultPlan(
            name="dead", faults=(DiskFault(factor=0.0, start=0.0),)
        )

        def stall() -> str:
            with pytest.raises(SimulationError, match="stalled") as err:
                measure_mix(_cluster(), 2, jobs, faults=plan)
            return str(err.value)

        first = stall()
        _spec("unrelated", count=500).stages[0].build_tasks(
            cores_per_node=2, jitter_offset=0.0
        )
        assert stall() == first
        assert "job a task 0 local hdfs read" in first


class TestVolumeScaling:
    def test_factor_one_is_identity(self):
        spec = _spec("a")
        assert scale_workload_volume(spec, 1.0) is spec

    def test_factor_scales_bytes_and_compute(self):
        spec = _spec("a", compute=1.5, read_mb=8.0)
        doubled = scale_workload_volume(spec, 2.0)
        group = doubled.stages[0].groups[0]
        assert group.read_channels[0].bytes_per_task == 16.0 * MB
        assert group.compute_seconds == 3.0
        # Request size is a property of the code path, not the volume.
        assert group.read_channels[0].request_size == 1 * MB

    @pytest.mark.parametrize("factor", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_factor_rejected(self, factor):
        with pytest.raises(WorkloadError):
            scale_workload_volume(_spec("a"), factor)

    def test_finite_factor_that_overflows_rejected(self):
        # 8 MB x 1e303 overflows bytes_per_task to inf; compute stays finite.
        with pytest.raises(WorkloadError, match="stage s0 group g"):
            scale_workload_volume(_spec("a", read_mb=8.0), 1e303)
