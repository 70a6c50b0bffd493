"""Property-based tests for the job scheduler."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schedule.scheduler import (
    Job,
    fifo_order,
    oracle_order,
    simulate_queue,
    spjf_order,
)

from tests.properties.strategies import PROPERTY_SETTINGS

job_sets = st.lists(
    st.tuples(
        st.floats(min_value=0.1, max_value=1000.0),  # true runtime
        st.floats(min_value=-0.2, max_value=0.2),  # prediction error
        st.floats(min_value=0.0, max_value=100.0),  # arrival
    ),
    min_size=1,
    max_size=8,
)


def build_jobs(specs, batch=True):
    jobs = []
    for index, (runtime, error, arrival) in enumerate(specs):
        jobs.append(
            Job(
                name=f"j{index}",
                true_runtime=runtime,
                predicted_runtime=runtime * (1.0 + error),
                arrival_time=0.0 if batch else arrival,
            )
        )
    return jobs


@given(specs=job_sets)
@settings(max_examples=200, **PROPERTY_SETTINGS)
def test_all_jobs_scheduled_exactly_once(specs):
    jobs = build_jobs(specs)
    for policy in (fifo_order, spjf_order, oracle_order):
        result = simulate_queue(jobs, policy)
        assert sorted(s.job.name for s in result.scheduled) == sorted(
            j.name for j in jobs
        )


@given(specs=job_sets)
@settings(max_examples=200, **PROPERTY_SETTINGS)
def test_no_overlap_and_no_idle_in_batch(specs):
    jobs = build_jobs(specs)
    result = simulate_queue(jobs, spjf_order)
    ordered = sorted(result.scheduled, key=lambda s: s.start_time)
    clock = 0.0
    for scheduled in ordered:
        assert scheduled.start_time >= clock - 1e-9
        # Batch queue: back-to-back execution, no idle gaps.
        assert scheduled.start_time <= clock + 1e-9
        clock = scheduled.finish_time


@given(specs=job_sets)
@settings(max_examples=200, **PROPERTY_SETTINGS)
def test_makespan_policy_invariant_for_batches(specs):
    jobs = build_jobs(specs)
    makespans = {
        simulate_queue(jobs, policy).makespan
        for policy in (fifo_order, spjf_order, oracle_order)
    }
    total = sum(j.true_runtime for j in jobs)
    for makespan in makespans:
        assert abs(makespan - total) < 1e-6


@given(specs=job_sets)
@settings(max_examples=100, **PROPERTY_SETTINGS)
def test_oracle_sjf_minimizes_mean_wait(specs):
    """SJF optimality: no permutation beats true-shortest-first."""
    jobs = build_jobs(specs)[:5]  # keep the permutation space small
    oracle = simulate_queue(jobs, oracle_order).mean_waiting_time
    for permutation in itertools.permutations(jobs):
        fixed = list(permutation)
        policy = lambda pending, fixed=fixed: [
            job for job in fixed if job in pending
        ]
        assert oracle <= simulate_queue(jobs, policy).mean_waiting_time + 1e-6


@given(specs=job_sets)
@settings(max_examples=200, **PROPERTY_SETTINGS)
def test_spjf_never_worse_than_antisorted(specs):
    """Predictions with <=20% error still beat longest-first ordering."""
    jobs = build_jobs(specs)
    spjf = simulate_queue(jobs, spjf_order).mean_waiting_time
    longest_first = simulate_queue(
        jobs, lambda pending: sorted(
            pending, key=lambda j: -j.true_runtime
        )
    ).mean_waiting_time
    assert spjf <= longest_first + 1e-6


@given(specs=job_sets)
@settings(max_examples=100, **PROPERTY_SETTINGS)
def test_waiting_times_non_negative_with_arrivals(specs):
    jobs = build_jobs(specs, batch=False)
    result = simulate_queue(jobs, spjf_order)
    for scheduled in result.scheduled:
        assert scheduled.waiting_time >= -1e-9
        assert scheduled.start_time >= scheduled.job.arrival_time - 1e-9
