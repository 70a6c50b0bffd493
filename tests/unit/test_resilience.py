"""Unit tests for the resilience layer: policies, blacklist, mechanisms.

Example-based companions to the randomized sweeps in
``tests/properties/test_resilience.py`` — each test pins one documented
behaviour (a speculation win, a retry recovery, a stage abort) so a
regression names the broken mechanism directly.
"""

from __future__ import annotations

import pytest

from repro.cluster import HYBRID_CONFIGS, make_paper_cluster
from repro.errors import ConfigurationError, StageFailedError
from repro.faults import DiskFault, FaultPlan, NodeFailureFault, StragglerFault
from repro.resilience import (
    BlacklistPolicy,
    ResiliencePolicy,
    RetryPolicy,
    SpeculationPolicy,
    StageResilience,
    default_mitigations,
    merge_summaries,
)
from repro.schedule import ExecutorBlacklist
from repro.schedule.scheduler import SchedulingError
from repro.units import MB
from repro.workloads.base import ChannelSpec, StageSpec, TaskGroupSpec, WorkloadSpec
from repro.workloads.runner import measure_workload


def _spec(count: int = 8, compute: float = 0.5, jitter: float = 0.0) -> WorkloadSpec:
    stage = StageSpec(
        name="s0",
        groups=(
            TaskGroupSpec(
                name="g0",
                count=count,
                read_channels=(ChannelSpec("hdfs_read", 8 * MB, 1 * MB, 60 * MB),),
                compute_seconds=compute,
                write_channels=(ChannelSpec("shuffle_write", 4 * MB, 1 * MB, 50 * MB),),
            ),
        ),
        task_jitter=jitter,
    )
    return WorkloadSpec(name="resil", stages=(stage,))


def _measure(spec, nodes=2, cores=2, faults=None, resilience=None):
    return measure_workload(
        make_paper_cluster(nodes, HYBRID_CONFIGS[0]), cores, spec,
        faults=faults, resilience=resilience,
    )


STRAGGLER = FaultPlan(name="s", faults=(StragglerFault(node=1, slowdown=3.0),))
DEAD_DISK = FaultPlan(
    name="dead",
    faults=(DiskFault(factor=0.0, start=0.5, end=400.0, node=1),),
)


class TestPolicyValidation:
    def test_bad_speculation_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            SpeculationPolicy(quantile=0.0)
        with pytest.raises(ConfigurationError):
            SpeculationPolicy(quantile=1.5)
        with pytest.raises(ConfigurationError):
            SpeculationPolicy(multiplier=0.9)
        with pytest.raises(ConfigurationError):
            SpeculationPolicy(min_finished=0)

    def test_bad_retry_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_task_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_seconds=-1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_seconds=10.0, max_backoff_seconds=1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(stall_timeout_seconds=0.0)

    def test_bad_blacklist_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            BlacklistPolicy(max_node_strikes=0)

    def test_backoff_is_exponential_and_capped(self):
        retry = RetryPolicy(
            backoff_seconds=0.5, backoff_factor=2.0, max_backoff_seconds=3.0
        )
        assert retry.backoff_for(1) == 0.5
        assert retry.backoff_for(2) == 1.0
        assert retry.backoff_for(3) == 2.0
        assert retry.backoff_for(4) == 3.0  # capped
        with pytest.raises(ConfigurationError):
            retry.backoff_for(0)

    def test_dict_round_trip(self):
        policy = default_mitigations()
        clone = ResiliencePolicy.from_dict(policy.to_dict())
        assert clone == policy
        assert clone.fingerprint() == policy.fingerprint()

    def test_fingerprints_separate_policies(self):
        assert (
            ResiliencePolicy().fingerprint()
            != default_mitigations().fingerprint()
        )

    def test_describe_names_the_armed_mechanisms(self):
        text = default_mitigations().describe()
        assert "speculation" in text and "blacklist" in text and "retry" in text


class TestExecutorBlacklist:
    NAMES = ("a", "b", "c")

    def test_strikes_accumulate_to_exclusion(self):
        blacklist = ExecutorBlacklist(2, self.NAMES)
        assert not blacklist.strike("a", survivors=set(self.NAMES))
        assert blacklist.strikes("a") == 1
        assert not blacklist.is_excluded("a")
        assert blacklist.strike("a", survivors=set(self.NAMES))
        assert blacklist.is_excluded("a")
        assert blacklist.excluded == ("a",)

    def test_eligible_filters_excluded_names(self):
        blacklist = ExecutorBlacklist(1, self.NAMES)
        blacklist.strike("b", survivors=set(self.NAMES))
        assert blacklist.eligible(self.NAMES) == ["a", "c"]

    def test_last_survivor_is_never_excluded(self):
        blacklist = ExecutorBlacklist(1, self.NAMES)
        blacklist.strike("a", survivors=set(self.NAMES))
        blacklist.strike("b", survivors=set(self.NAMES))
        # Only "c" remains; striking it counts but must not exclude.
        assert not blacklist.strike("c", survivors={"c"})
        assert blacklist.strikes("c") >= 1
        assert not blacklist.is_excluded("c")

    def test_unknown_names_are_adopted(self):
        # Nodes can appear after construction (a policy shared across
        # stages on growing clusters); a strike simply registers them.
        blacklist = ExecutorBlacklist(2, self.NAMES)
        assert not blacklist.strike("ghost", survivors=set(self.NAMES))
        assert blacklist.strikes("ghost") == 1

    def test_bad_threshold_rejected(self):
        with pytest.raises(SchedulingError):
            ExecutorBlacklist(0, self.NAMES)


class TestSpeculation:
    POLICY = ResiliencePolicy(speculation=SpeculationPolicy())

    def test_speculation_beats_the_straggler(self):
        unmitigated = _measure(_spec(), faults=STRAGGLER)
        mitigated = _measure(_spec(), faults=STRAGGLER, resilience=self.POLICY)
        assert mitigated.total_seconds < unmitigated.total_seconds
        summary = mitigated.stages[0].resilience
        assert summary.speculative_wins >= 1
        assert summary.speculative_wins <= summary.speculative_launched

    def test_winner_attempts_count_toward_attempts(self):
        mitigated = _measure(_spec(), faults=STRAGGLER, resilience=self.POLICY)
        summary = mitigated.stages[0].resilience
        assert summary.attempts == 8 + summary.speculative_launched

    def test_uniform_tasks_never_speculate(self):
        # Jitter-free tasks all run at the median: nothing crosses the
        # 1.5x threshold, so an armed policy changes nothing at all.
        clean = _measure(_spec())
        armed = _measure(_spec(), resilience=self.POLICY)
        assert armed.total_seconds == clean.total_seconds
        assert armed.stages[0].resilience.speculative_launched == 0


class TestRetry:
    POLICY = ResiliencePolicy(retry=RetryPolicy(stall_timeout_seconds=2.0))

    def test_dead_disk_window_is_survived_by_retry(self):
        # Unmitigated, tasks caught in the factor=0 window sit stalled
        # until it lifts at t=400; with retry the stall times out, the
        # attempt fails, and the resubmission lands outside the hole.
        unmitigated = _measure(_spec(), faults=DEAD_DISK)
        mitigated = _measure(_spec(), faults=DEAD_DISK, resilience=self.POLICY)
        assert mitigated.total_seconds < unmitigated.total_seconds
        summary = mitigated.stages[0].resilience
        assert summary.task_retries >= 1
        assert summary.backoff_seconds > 0.0

    def test_node_death_is_survived_with_recorded_backoff(self):
        plan = FaultPlan(
            name="kill", faults=(NodeFailureFault(node=1, at_seconds=0.5),)
        )
        clean = _measure(_spec(), nodes=3)
        mitigated = _measure(
            _spec(), nodes=3, faults=plan, resilience=self.POLICY
        )
        assert mitigated.total_seconds > clean.total_seconds
        summary = mitigated.stages[0].resilience
        assert summary.task_retries >= 1
        assert summary.backoff_seconds > 0.0
        # Bytes follow the spec, not the attempt count.
        assert mitigated.stages[0].read_bytes == clean.stages[0].read_bytes

    def test_exhausted_budgets_raise_stage_failed(self):
        # Every disk on every node dead forever: each attempt stalls out
        # wherever it lands, so the budgets drain and the run aborts
        # with the structured error.
        plan = FaultPlan(
            name="doom", faults=(DiskFault(factor=0.0, start=0.0),)
        )
        policy = ResiliencePolicy(
            retry=RetryPolicy(
                max_task_attempts=1,
                max_stage_attempts=1,
                stall_timeout_seconds=0.5,
                backoff_seconds=0.1,
            )
        )
        with pytest.raises(StageFailedError) as info:
            _measure(_spec(), faults=plan, resilience=policy)
        error = info.value
        assert error.stage == "s0"
        assert error.attempts >= 1
        assert error.stage_attempts >= 1
        assert "aborted" in str(error)

    def test_abort_names_the_task_by_its_place_in_the_stage(self):
        # The same doomed run must report the same task whatever the
        # process built before it (a pool worker forks after its parent
        # has profiled, so process-wide task ids differ there).
        plan = FaultPlan(
            name="doom", faults=(DiskFault(factor=0.0, start=0.0),)
        )
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_task_attempts=1, max_stage_attempts=1)
        )

        def abort() -> StageFailedError:
            with pytest.raises(StageFailedError) as info:
                _measure(_spec(), faults=plan, resilience=policy)
            return info.value

        first = abort()
        _spec(count=500).stages[0].build_tasks(
            cores_per_node=2, jitter_offset=0.0
        )
        second = abort()
        assert str(second) == str(first)
        assert 0 <= first.task_id < 8


class TestBlacklistInTheEngine:
    POLICY = ResiliencePolicy(
        speculation=SpeculationPolicy(),
        blacklist=BlacklistPolicy(max_node_strikes=2),
    )

    def test_straggler_node_gets_blacklisted(self):
        mitigated = _measure(
            _spec(count=16), faults=STRAGGLER, resilience=self.POLICY
        )
        summary = mitigated.stages[0].resilience
        assert "slave-1" in summary.blacklisted

    def test_blacklisting_still_improves_on_the_straggler(self):
        unmitigated = _measure(_spec(count=16), faults=STRAGGLER)
        mitigated = _measure(
            _spec(count=16), faults=STRAGGLER, resilience=self.POLICY
        )
        assert mitigated.total_seconds < unmitigated.total_seconds


class TestPaperStragglerAnswers:
    """The GATK4 MD stage alone on the 10x24 paper cluster (973 tasks)
    against a 2.5x straggler on node 1, pinned float for float.

    The clean makespan is also ``benchmarks/e2e/expected.json``'s MD
    stage of ``gatk4@ssd/ssd``.
    """

    CLEAN_SECONDS = 258.7646272067465
    UNMITIGATED_SECONDS = 642.8461892857794
    MITIGATED_SECONDS = 302.70239678557164
    PLAN = FaultPlan(
        name="straggler",
        faults=(StragglerFault(node=1, slowdown=2.5),),
    )

    @pytest.fixture(scope="class")
    def md_stage(self, gatk4_workload):
        return WorkloadSpec(name="md-stage", stages=(gatk4_workload.stages[0],))

    @staticmethod
    def _run(workload, faults=None, resilience=None):
        return _measure(
            workload, nodes=10, cores=24, faults=faults, resilience=resilience
        )

    def test_clean_run(self, md_stage):
        assert self._run(md_stage).total_seconds == self.CLEAN_SECONDS

    def test_armed_speculation_costs_a_clean_run_nothing(self, md_stage):
        armed = self._run(
            md_stage, resilience=ResiliencePolicy(speculation=SpeculationPolicy())
        )
        assert armed.total_seconds == self.CLEAN_SECONDS

    def test_unmitigated_straggler(self, md_stage):
        unmitigated = self._run(md_stage, faults=self.PLAN)
        assert unmitigated.total_seconds == self.UNMITIGATED_SECONDS

    def test_speculation_and_blacklisting_recover(self, md_stage):
        mitigated = self._run(
            md_stage, faults=self.PLAN, resilience=TestBlacklistInTheEngine.POLICY
        )
        assert mitigated.total_seconds == self.MITIGATED_SECONDS
        summary = merge_summaries(stage.resilience for stage in mitigated.stages)
        assert summary.speculative_launched == 24
        assert summary.speculative_wins == 9
        assert summary.blacklisted == ("slave-1",)


class TestSummaries:
    def test_merge_unions_blacklists_and_sums_counters(self):
        merged = merge_summaries([
            StageResilience(attempts=4, speculative_launched=1,
                            speculative_wins=1, blacklisted=("a",)),
            None,
            StageResilience(attempts=2, task_retries=3, backoff_seconds=1.5,
                            blacklisted=("b", "a")),
        ])
        assert merged.attempts == 6
        assert merged.speculative_wins == 1
        assert merged.task_retries == 3
        assert merged.backoff_seconds == 1.5
        assert merged.blacklisted == ("a", "b")

    def test_mitigated_flag(self):
        assert not StageResilience(attempts=8).mitigated
        assert StageResilience(attempts=8, task_retries=1).mitigated
        assert StageResilience(attempts=8, blacklisted=("a",)).mitigated

    def test_round_trip(self):
        summary = StageResilience(
            attempts=9, speculative_launched=2, speculative_wins=1,
            task_retries=1, stage_reattempts=0, backoff_seconds=0.5,
            blacklisted=("x",),
        )
        assert StageResilience.from_dict(summary.to_dict()) == summary
