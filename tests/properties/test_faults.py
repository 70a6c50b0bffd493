"""The fault layer itself: plan validation, injection semantics, caching.

Example-based companions to the randomized sweeps in
``test_invariants.py`` — each test pins one documented behaviour of
:mod:`repro.faults` so a regression names the broken contract directly.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import HYBRID_CONFIGS, make_paper_cluster
from repro.errors import FaultError, SimulationError
from repro.faults import (
    DiskFault,
    FaultPlan,
    NicJitterFault,
    NodeFailureFault,
    StragglerFault,
    load_fault_plan,
    random_fault_plan,
)
from repro.pipeline.cache import ResultCache
from repro.pipeline.experiment import Experiment
from repro.pipeline.platforms import ClusterPlatform
from repro.resilience import default_mitigations
from repro.units import MB
from repro.workloads.base import ChannelSpec, StageSpec, TaskGroupSpec, WorkloadSpec
from repro.workloads.runner import measure_workload

from tests.properties.strategies import PROPERTY_SETTINGS, fault_plans


def _spec(count: int = 8, compute: float = 0.5) -> WorkloadSpec:
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
        task_jitter=0.0,
    )
    return WorkloadSpec(name="faulty", stages=(stage,))


def _measure(spec, nodes=2, cores=2, faults=None):
    return measure_workload(
        make_paper_cluster(nodes, HYBRID_CONFIGS[0]), cores, spec, faults=faults
    )


class TestPlanValidation:
    def test_bad_factor_rejected(self):
        with pytest.raises(FaultError):
            DiskFault(factor=-0.1)
        with pytest.raises(FaultError):
            DiskFault(factor=1.5)

    def test_zero_factor_models_a_dead_disk(self):
        DiskFault(factor=0.0, start=1.0, end=5.0)  # legal since resilience

    def test_bad_window_rejected(self):
        with pytest.raises(FaultError):
            DiskFault(factor=0.5, start=10.0, end=5.0)

    def test_bad_slowdown_rejected(self):
        with pytest.raises(FaultError):
            StragglerFault(node=0, slowdown=0.9)

    @pytest.mark.parametrize("node", [1.5, 0.5, True, "1", [1]])
    def test_node_index_must_be_an_integer(self, node):
        for build in (
            lambda: DiskFault(factor=0.5, node=node),
            lambda: StragglerFault(node=node, slowdown=2.0),
            lambda: NodeFailureFault(node=node, at_seconds=1.0),
            lambda: NicJitterFault(factor=0.5, period=1.0, node=node),
        ):
            with pytest.raises(FaultError, match="must be an integer"):
                build()

    def test_unknown_type_tag_rejected(self):
        for tag in ("meteor", ["disk"]):
            with pytest.raises(FaultError, match="unknown fault type"):
                FaultPlan.from_dict({"name": "x", "faults": [{"type": tag}]})

    @given(plan=fault_plans())
    @settings(max_examples=25, **PROPERTY_SETTINGS)
    def test_json_round_trip_preserves_the_fingerprint(self, plan):
        clone = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert clone == plan
        assert clone.fingerprint() == plan.fingerprint()

    def test_save_and_load(self, tmp_path):
        plan = FaultPlan(name="p", faults=(StragglerFault(node=1, slowdown=2.0),))
        path = tmp_path / "plan.json"
        plan.save(path)
        assert load_fault_plan(path) == plan

    def test_random_plans_are_pure_functions_of_the_seed(self):
        a = random_fault_plan(7, nodes=3)
        b = random_fault_plan(7, nodes=3)
        assert a == b and a.fingerprint() == b.fingerprint()
        assert random_fault_plan(8, nodes=3) != a


class TestInjectionSemantics:
    def test_empty_plan_is_bit_identical_to_clean(self):
        spec = _spec()
        clean = _measure(spec)
        empty = _measure(spec, faults=FaultPlan(name="empty"))
        assert empty.total_seconds == clean.total_seconds
        assert empty.stages[0].makespan == clean.stages[0].makespan

    def test_out_of_range_node_indices_are_inert(self):
        # Faults name nodes by index so one plan ports across cluster
        # sizes; indices past the cluster edge simply do nothing.
        spec = _spec()
        clean = _measure(spec, nodes=2)
        plan = FaultPlan(
            name="miss",
            faults=(
                StragglerFault(node=5, slowdown=4.0),
                NodeFailureFault(node=9, at_seconds=0.0),
            ),
        )
        assert _measure(spec, nodes=2, faults=plan).total_seconds == clean.total_seconds

    def test_straggler_slows_the_run(self):
        spec = _spec()
        clean = _measure(spec)
        plan = FaultPlan(name="s", faults=(StragglerFault(node=0, slowdown=3.0),))
        assert _measure(spec, faults=plan).total_seconds > clean.total_seconds

    def test_disk_throttle_window_slows_the_run(self):
        spec = _spec()
        clean = _measure(spec)
        plan = FaultPlan(name="d", faults=(DiskFault(factor=0.2, start=0.0, end=5.0),))
        assert _measure(spec, faults=plan).total_seconds > clean.total_seconds

    def test_throttle_window_after_completion_is_inert(self):
        spec = _spec()
        clean = _measure(spec)
        start = clean.total_seconds + 100.0
        plan = FaultPlan(
            name="late", faults=(DiskFault(factor=0.2, start=start, end=start + 5.0),)
        )
        assert _measure(spec, faults=plan).total_seconds == clean.total_seconds

    def test_node_death_reruns_tasks_and_conserves_bytes(self):
        spec = _spec()
        clean = _measure(spec)
        plan = FaultPlan(
            name="kill", faults=(NodeFailureFault(node=1, at_seconds=0.5),)
        )
        faulted = _measure(spec, faults=plan)
        assert faulted.total_seconds > clean.total_seconds
        # Re-executed tasks re-read and re-write nothing extra in the
        # measurement: byte accounting follows the spec, not the retries.
        assert faulted.stages[0].read_bytes == clean.stages[0].read_bytes
        assert faulted.stages[0].write_bytes == clean.stages[0].write_bytes

    @given(
        at_fraction=st.floats(min_value=0.05, max_value=0.95),
        count=st.integers(min_value=2, max_value=4),
        mitigate=st.booleans(),
    )
    @settings(max_examples=50, **PROPERTY_SETTINGS)
    def test_node_death_after_the_last_task_started_terminates(
        self, at_fraction, count, mitigate
    ):
        # The edge this pins: with <= one wave of tasks, every task has
        # already started when the node dies — nothing is left in any
        # pending queue, so recovery must re-inject the lost attempts
        # (not just reshuffle queues) or the run would hang.  Both the
        # legacy instant-retry path and the resilience retry path must
        # terminate and conserve the spec's bytes.
        spec = _spec(count=count)  # count <= 2 nodes x 2 cores = one wave
        clean = _measure(spec)
        plan = FaultPlan(
            name="late-kill",
            faults=(
                NodeFailureFault(
                    node=1, at_seconds=clean.total_seconds * at_fraction
                ),
            ),
        )
        policy = default_mitigations() if mitigate else None
        faulted = measure_workload(
            make_paper_cluster(2, HYBRID_CONFIGS[0]), 2, spec,
            faults=plan, resilience=policy,
        )
        assert faulted.total_seconds >= clean.total_seconds
        assert faulted.stages[0].read_bytes == clean.stages[0].read_bytes
        assert faulted.stages[0].write_bytes == clean.stages[0].write_bytes
        if mitigate:
            summary = faulted.stages[0].resilience
            assert summary is not None
            assert summary.attempts >= count

    def test_killing_every_node_raises(self):
        plan = FaultPlan(
            name="apocalypse",
            faults=(NodeFailureFault(node=0, at_seconds=0.1),),
        )
        with pytest.raises(SimulationError, match="no live nodes"):
            _measure(_spec(), nodes=1, faults=plan)


class TestExperimentCaching:
    def test_same_plan_hits_the_cache_and_clean_runs_stay_separate(self):
        cache = ResultCache()
        plan = FaultPlan(name="s", faults=(StragglerFault(node=0, slowdown=2.0),))
        experiment = Experiment(_spec(), ClusterPlatform(), cache=cache, faults=plan)
        faulted_a = experiment.measure(2, 2)
        faulted_b = experiment.measure(2, 2)
        assert faulted_b is faulted_a  # cache hit: the very same record
        clean = Experiment(_spec(), ClusterPlatform(), cache=cache).measure(2, 2)
        assert clean.total_seconds < faulted_a.total_seconds

    def test_per_call_override_replaces_the_experiment_plan(self):
        # The override is a sibling experiment on the same cache.
        cache = ResultCache()
        base = Experiment(_spec(), ClusterPlatform(), cache=cache).measure(2, 2)
        plan = FaultPlan(name="s", faults=(StragglerFault(node=0, slowdown=3.0),))
        faulted = Experiment(
            _spec(), ClusterPlatform(), cache=cache, faults=plan
        ).measure(2, 2)
        assert faulted.total_seconds > base.total_seconds

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, **PROPERTY_SETTINGS)
    def test_cache_is_bit_identical_under_identical_fault_seeds(self, seed):
        # Two experiments built from the same fault seed produce records
        # that agree bit for bit — and cache-replayed records match the
        # freshly simulated ones exactly.
        spec = _spec()
        results = []
        for _ in range(2):
            experiment = Experiment(
                spec, ClusterPlatform(), faults=random_fault_plan(seed, nodes=2)
            )
            first = experiment.measure(2, 2)
            replay = experiment.measure(2, 2)
            assert replay is first
            results.append(first)
        assert results[0].total_seconds == results[1].total_seconds
        for stage_a, stage_b in zip(results[0].stages, results[1].stages):
            assert stage_a.makespan == stage_b.makespan
            assert stage_a.read_bytes == stage_b.read_bytes
