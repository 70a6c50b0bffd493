"""Randomized sweeps of the resilience layer (ISSUE PR 4).

Each example draws a bounded random workload, fault plan, and mitigation
policy, runs the real simulator up to three times (clean, unmitigated,
mitigated), and asserts the mitigation contracts from
:mod:`repro.invariants`:

- **mitigation dominance** — mitigations never beat the clean run and
  never exceed the unmitigated run plus their recorded costs;
- **conservation** — mitigations reshape the schedule (duplicates,
  retries, blacklist drains) but never the data;
- **accounting consistency** — the per-stage ``StageResilience`` records
  are internally coherent (wins <= launches, attempts cover tasks, ...);
- **clean-path identity** — with no faults and no speculation, an armed
  policy changes nothing, bit for bit;
- **determinism** — mitigated runs are pure functions of their inputs.

Together with the node-death property in ``test_faults.py`` these cover
well over 500 randomized resilience scenarios.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import HYBRID_CONFIGS, make_paper_cluster
from repro.invariants import (
    check_conservation,
    check_measurements_identical,
    check_mitigation_dominance,
)
from repro.resilience import (
    BlacklistPolicy,
    ResiliencePolicy,
    RetryPolicy,
    merge_summaries,
)
from repro.workloads.runner import measure_workload

from tests.properties.strategies import (
    PROPERTY_SETTINGS,
    fault_plans,
    resilience_policies,
    workload_specs,
)

# Two nodes minimum: single-node clusters leave speculation and the
# blacklist nowhere to go, and the fault strategies' node deaths always
# spare index 0.
nodes_axis = st.integers(min_value=2, max_value=3)
cores_axis = st.sampled_from((1, 2, 4))


def _cluster(nodes: int):
    return make_paper_cluster(nodes, HYBRID_CONFIGS[0])


@given(
    spec=workload_specs(),
    plan=fault_plans(),
    policy=resilience_policies(),
    nodes=nodes_axis,
    cores=cores_axis,
)
@settings(max_examples=400, **PROPERTY_SETTINGS)
def test_mitigation_dominance(spec, plan, policy, nodes, cores):
    clean = measure_workload(_cluster(nodes), cores, spec)
    unmitigated = measure_workload(_cluster(nodes), cores, spec, faults=plan)
    mitigated = measure_workload(
        _cluster(nodes), cores, spec, faults=plan, resilience=policy
    )
    violations = check_mitigation_dominance(clean, unmitigated, mitigated, policy)
    assert not violations, "\n".join(map(str, violations))


@given(
    spec=workload_specs(),
    plan=fault_plans(),
    policy=resilience_policies(require_speculation=True),
    nodes=nodes_axis,
    cores=cores_axis,
)
@settings(max_examples=100, **PROPERTY_SETTINGS)
def test_mitigated_runs_conserve_bytes_and_account_consistently(
    spec, plan, policy, nodes, cores
):
    mitigated = measure_workload(
        _cluster(nodes), cores, spec, faults=plan, resilience=policy
    )
    violations = check_conservation(spec, mitigated)
    assert not violations, "\n".join(map(str, violations))
    for stage in mitigated.stages:
        summary = stage.resilience
        assert summary is not None  # every mitigated stage carries one
        assert summary.speculative_wins <= summary.speculative_launched
        # Repeat-scaled stages simulate one repetition, so attempts can
        # be below num_tasks — but a run always launches something.
        assert 1 <= summary.attempts
        assert summary.task_retries >= 0
        assert summary.backoff_seconds >= 0.0
        assert summary.stage_reattempts >= 0
    merged = merge_summaries(stage.resilience for stage in mitigated.stages)
    assert merged.attempts >= sum(
        1 for _ in mitigated.stages
    )  # at least one attempt per stage happened


@given(
    spec=workload_specs(),
    policy=resilience_policies(),
    nodes=nodes_axis,
    cores=cores_axis,
)
@settings(max_examples=80, **PROPERTY_SETTINGS)
def test_clean_runs_without_speculation_are_bit_identical(
    spec, policy, nodes, cores
):
    # With no faults nothing ever fails or stalls, so retry and
    # blacklist mechanisms have no trigger; strip speculation (which may
    # legitimately duplicate jittered stragglers) and the armed engine
    # must be indistinguishable from the historical one.
    quiet = ResiliencePolicy(
        speculation=None, retry=policy.retry, blacklist=policy.blacklist
    )
    base = measure_workload(_cluster(nodes), cores, spec)
    armed = measure_workload(_cluster(nodes), cores, spec, resilience=quiet)
    violations = check_measurements_identical(base, armed, spec.name)
    assert not violations, "\n".join(map(str, violations))
    for stage in armed.stages:
        assert stage.resilience is not None
        assert not stage.resilience.mitigated


@given(
    spec=workload_specs(),
    plan=fault_plans(),
    policy=resilience_policies(require_speculation=True),
    nodes=nodes_axis,
    cores=cores_axis,
)
@settings(max_examples=60, **PROPERTY_SETTINGS)
def test_mitigated_runs_are_deterministic(spec, plan, policy, nodes, cores):
    # Speculation, retries, and blacklisting must stay pure functions of
    # their inputs — the cache and every golden test depend on it.
    first = measure_workload(
        _cluster(nodes), cores, spec, faults=plan, resilience=policy
    )
    second = measure_workload(
        _cluster(nodes), cores, spec, faults=plan, resilience=policy
    )
    violations = check_measurements_identical(first, second, spec.name)
    assert not violations, "\n".join(map(str, violations))
    first_summary = merge_summaries(s.resilience for s in first.stages)
    second_summary = merge_summaries(s.resilience for s in second.stages)
    assert first_summary == second_summary


def test_blacklist_never_strands_the_last_node():
    # Even an absurdly trigger-happy blacklist leaves one node serving:
    # graceful degradation beats a dead cluster.
    from repro.faults import FaultPlan, StragglerFault

    from tests.unit.pipeline.conftest import make_tiny_workload

    policy = ResiliencePolicy(
        speculation=None,
        retry=RetryPolicy(),
        blacklist=BlacklistPolicy(max_node_strikes=1),
    )
    plan = FaultPlan(
        name="both-slow",
        faults=(
            StragglerFault(node=0, slowdown=4.0),
            StragglerFault(node=1, slowdown=4.0),
        ),
    )
    mitigated = measure_workload(
        _cluster(2), 2, make_tiny_workload(), faults=plan, resilience=policy
    )
    merged = merge_summaries(s.resilience for s in mitigated.stages)
    assert len(merged.blacklisted) <= 1
    assert mitigated.total_seconds > 0.0
