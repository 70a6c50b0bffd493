"""PR-5 equivalence properties: parallelism changes nothing.

``Experiment.run_grid(workers=k)`` returns records byte-for-byte equal
to the serial sweep, for any worker count.  The parallel path only
*warms the cache* (workers ship content-addressed shards home); every
record is then composed in-process by the same serial code, so equality
is structural, and these tests pin it across randomized workloads and
shapes — not just the paper's fixtures.
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import Profiler
from repro.errors import ProfilingError
from repro.parallel import ExecutionPolicy
from repro.pipeline.cache import ResultCache
from repro.pipeline.experiment import Experiment
from repro.pipeline.platforms import ClusterPlatform
from repro.pipeline.sources import ResolvedSource

from .strategies import PROPERTY_SETTINGS, workload_specs


#: Random specs may be I/O-bound in the sample runs, which the paper's
#: calibration rejects by design (negative ``t_avg``, Section VI-1) —
#: those draws are rejected, not failures, and rejection is common
#: enough to trip the filter health check.
EQUIV_SETTINGS = dict(
    suppress_health_check=(HealthCheck.filter_too_much, HealthCheck.too_slow),
    **PROPERTY_SETTINGS,
)


def _has_work(spec) -> bool:
    # A draw can be all-zero (no bytes, no compute): it "runs" in 0.0 s,
    # which record serialization rejects (relative error undefined).
    return any(
        group.compute_seconds > 0
        or any(
            channel.bytes_per_task > 0
            for channel in (*group.read_channels, *group.write_channels)
        )
        for stage in spec.stages
        for group in stage.groups
    )


def _profile(spec, nodes=2):
    assume(_has_work(spec))
    try:
        return Profiler(spec, nodes=nodes).profile()
    except ProfilingError:
        assume(False)


def _records(results) -> str:
    return json.dumps([result.to_dict() for result in results], sort_keys=True)


#: Supervision knobs must be invisible on clean runs: any mix of retry
#: budget, generous timeout, and backoff shape yields the same records.
#: Timeouts stay large (or absent) so no healthy cell can trip one.
execution_policies = st.one_of(
    st.none(),
    st.builds(
        ExecutionPolicy,
        max_attempts=st.sampled_from((1, 2, 3)),
        timeout_seconds=st.sampled_from((None, 120.0)),
        backoff_base_seconds=st.sampled_from((0.0, 0.01)),
        backoff_factor=st.sampled_from((1.0, 2.0)),
        on_failure=st.sampled_from(("quarantine", "abort")),
    ),
)


@settings(max_examples=5, **EQUIV_SETTINGS)
@given(
    spec=workload_specs(),
    run_indices=st.sampled_from(((0,), (0, 1))),
    execution=execution_policies,
)
def test_parallel_grid_is_bit_identical_to_serial(spec, run_indices, execution):
    """run_grid(workers=2) == run_grid(workers=1), record for record.

    Fresh experiments (separate caches) on both sides, so the parallel
    records really were produced by worker processes, not replayed.
    The supervised path runs under a randomized :class:`ExecutionPolicy`
    — clean runs must be policy-independent.
    """
    report = _profile(spec)
    grid = dict(nodes=(2, 3), cores_per_node=(4,), run_indices=run_indices)

    serial = Experiment(ResolvedSource(spec, report), ClusterPlatform())
    parallel = Experiment(ResolvedSource(spec, report), ClusterPlatform())
    serial_dump = _records(serial.run_grid(workers=1, **grid))
    parallel_dump = _records(
        parallel.run_grid(workers=2, execution=execution, **grid)
    )

    assert parallel_dump == serial_dump
    # The parallel cache is as warm as the serial one: replaying the
    # grid serially from it must also reproduce the records.
    assert _records(parallel.run_grid(workers=1, **grid)) == serial_dump


@settings(max_examples=3, **EQUIV_SETTINGS)
@given(spec=workload_specs(), execution=execution_policies)
def test_parallel_run_repeated_matches_serial(spec, execution):
    report = _profile(spec)
    serial = Experiment(ResolvedSource(spec, report), ClusterPlatform())
    parallel = Experiment(ResolvedSource(spec, report), ClusterPlatform())
    assert _records(
        parallel.run_repeated(2, 4, runs=2, workers=2, execution=execution)
    ) == _records(serial.run_repeated(2, 4, runs=2))


def test_parallel_grid_shares_one_cache_file(tmp_path):
    """A workers=2 sweep persists a cache a later serial sweep fully reuses."""
    from repro.workloads import make_gatk4_workload

    spec = make_gatk4_workload()
    report = Profiler(spec, nodes=3).profile()
    path = tmp_path / "cache.json"
    grid = dict(nodes=(3,), cores_per_node=(8, 16))

    warmup = Experiment(
        ResolvedSource(spec, report), ClusterPlatform(), cache=ResultCache(path)
    )
    first = _records(warmup.run_grid(workers=2, **grid))

    replay = Experiment(
        ResolvedSource(spec, report), ClusterPlatform(), cache=ResultCache(path)
    )
    assert _records(replay.run_grid(**grid)) == first
    assert replay.cache.measurement_stats.misses == 0
    assert replay.cache.prediction_stats.misses == 0
