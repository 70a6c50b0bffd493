"""Hypothesis strategies for the metamorphic pipeline suite.

Unlike ``tests/property/`` (micro-level component invariants), this
package sweeps the *whole* simulator/model pipeline: randomized
:class:`~repro.workloads.base.WorkloadSpec` trees crossed with
randomized :class:`~repro.faults.plan.FaultPlan` instances and
``(N, P)`` shapes, checked against the :mod:`repro.invariants`
catalogue.

The strategies are bounded so one example simulates in milliseconds:
a few tasks, a few megabytes, one or two stages.  The invariants are
scale-free, so small instances exercise the same code paths (queueing,
contention, fault windows, re-execution) as the paper-sized workloads.

Every hypothesis test in this package and in ``tests/property/``
shares :data:`PROPERTY_SETTINGS` — derandomized with no example
database and no deadline — so CI and local runs execute the identical
fixed example set.
"""

from __future__ import annotations

import dataclasses

from hypothesis import strategies as st

from repro.faults.plan import (
    DiskFault,
    FaultPlan,
    NicJitterFault,
    NodeFailureFault,
    StragglerFault,
)
from repro.resilience import (
    BlacklistPolicy,
    ResiliencePolicy,
    RetryPolicy,
    SpeculationPolicy,
)
from repro.schedule.mix import MIX_POLICIES, MixJob
from repro.units import KB, MB
from repro.workloads.base import ChannelSpec, StageSpec, TaskGroupSpec, WorkloadSpec

#: Shared ``@settings`` kwargs: derandomized (fixed example sequence, so
#: CI is reproducible), no deadline (simulation time varies with the
#: drawn workload), no local example database.
PROPERTY_SETTINGS = dict(deadline=None, derandomize=True, database=None)

#: Request sizes seen in the paper's workloads (HDFS block, shuffle).
REQUEST_SIZES = (30 * KB, 128 * KB, 1 * MB)

_READ_KINDS = ("hdfs_read", "shuffle_read")
_WRITE_KINDS = ("hdfs_write", "shuffle_write")


def _channels(kinds: tuple[str, ...]) -> st.SearchStrategy:
    channel = st.builds(
        ChannelSpec,
        kind=st.sampled_from(kinds),
        bytes_per_task=st.one_of(
            st.just(0.0),  # zero-byte edge: channel exists but moves nothing
            st.floats(min_value=64 * KB, max_value=32 * MB),
        ),
        request_size=st.sampled_from(REQUEST_SIZES),
        per_core_throughput=st.one_of(
            st.none(),
            st.floats(min_value=10 * MB, max_value=120 * MB),
        ),
    )
    return st.lists(channel, max_size=2).map(tuple)


@st.composite
def stage_specs(draw, name: str = "stage") -> StageSpec:
    """One bounded random stage: 1-2 groups of 1-8 tasks each."""
    groups = tuple(
        TaskGroupSpec(
            name=f"g{index}",
            count=draw(st.integers(min_value=1, max_value=8)),
            read_channels=draw(_channels(_READ_KINDS)),
            compute_seconds=draw(
                st.one_of(
                    st.just(0.0),
                    st.floats(min_value=0.01, max_value=2.0),
                )
            ),
            write_channels=draw(_channels(_WRITE_KINDS)),
            stream_chunks=draw(st.integers(min_value=1, max_value=2)),
            gc_coeff=draw(st.sampled_from((0.0, 0.02))),
        )
        for index in range(draw(st.integers(min_value=1, max_value=2)))
    )
    return StageSpec(
        name=name,
        groups=groups,
        repeat=draw(st.integers(min_value=1, max_value=2)),
        task_jitter=draw(st.sampled_from((0.0, 0.1, 0.2))),
    )


@st.composite
def workload_specs(draw) -> WorkloadSpec:
    """A bounded random application of 1-2 stages."""
    num_stages = draw(st.integers(min_value=1, max_value=2))
    return WorkloadSpec(
        name="hypo",
        stages=tuple(
            draw(stage_specs(name=f"s{index}")) for index in range(num_stages)
        ),
        description="property-generated",
    )


#: Scheduling policies a mix accepts — canonicalization makes every
#: mix invariant covered here hold under both.
mix_policies = st.sampled_from(MIX_POLICIES)

#: Arrival offsets that land jobs before, during, and long after the
#: first job's stages on a bounded spec.
_ARRIVALS = (0.0, 0.5, 2.0, 10.0)

#: Volume scales exercising shrink, identity (fingerprint-preserving),
#: and growth.
_VOLUME_SCALES = (0.5, 1.0, 2.0)


@st.composite
def mix_jobs_lists(draw, max_jobs: int = 4) -> list[MixJob]:
    """K in [1, max_jobs] bounded jobs with staggered arrivals.

    Names are forced unique (``j0``, ``j1``, ...) so interference checks
    can key solo baselines by the mix timeline's job name without going
    through the duplicate-suffix path (that path has its own unit
    tests).
    """
    count = draw(st.integers(min_value=1, max_value=max_jobs))
    return [
        MixJob(
            spec=dataclasses.replace(draw(workload_specs()), name=f"j{index}"),
            arrival=draw(st.sampled_from(_ARRIVALS)),
            volume_scale=draw(st.sampled_from(_VOLUME_SCALES)),
        )
        for index in range(count)
    ]


@st.composite
def disk_faults(draw, node_uniform: bool = False) -> DiskFault:
    """A degradation/throttle window; optionally cluster-uniform."""
    start = draw(st.floats(min_value=0.0, max_value=5.0))
    end = (
        start + draw(st.floats(min_value=0.5, max_value=30.0))
        if draw(st.booleans())
        else None
    )
    return DiskFault(
        factor=draw(st.floats(min_value=0.2, max_value=1.0)),
        start=start,
        end=end,
        # Node-uniform plans hit every node identically, preserving the
        # symmetry the N -> 2N monotonicity argument rests on.
        node=None if node_uniform else draw(st.one_of(st.none(), st.integers(0, 3))),
        role=draw(st.sampled_from((None, "hdfs", "local"))),
        direction=draw(st.sampled_from((None, "read", "write"))),
    )


straggler_faults = st.builds(
    StragglerFault,
    node=st.integers(min_value=0, max_value=3),
    slowdown=st.floats(min_value=1.0, max_value=4.0),
)

# Node deaths spare index 0 so at least one node always survives even on
# a single-node cluster (out-of-range indices are inert by design).
node_failure_faults = st.builds(
    NodeFailureFault,
    node=st.integers(min_value=1, max_value=3),
    at_seconds=st.floats(min_value=0.0, max_value=10.0),
)

nic_jitter_faults = st.builds(
    NicJitterFault,
    factor=st.floats(min_value=0.2, max_value=1.0),
    period=st.floats(min_value=0.5, max_value=5.0),
    duty=st.floats(min_value=0.1, max_value=0.9),
)


@st.composite
def fault_plans(draw, allow_failures: bool = True) -> FaultPlan:
    """A random mixed plan of 0-3 faults (may be empty)."""
    kinds = [disk_faults(), straggler_faults, nic_jitter_faults]
    if allow_failures:
        kinds.append(node_failure_faults)
    faults = draw(st.lists(st.one_of(*kinds), max_size=3))
    return FaultPlan(name="hypo-plan", faults=tuple(faults))


@st.composite
def resilience_policies(draw, require_speculation: bool = False) -> ResiliencePolicy:
    """A random mitigation mix: each mechanism independently on or off.

    Bounded to values that keep examples fast — short backoffs and stall
    timeouts so failure recovery happens inside a tiny run's horizon.
    """
    speculation = st.builds(
        SpeculationPolicy,
        quantile=st.sampled_from((0.5, 0.75)),
        multiplier=st.sampled_from((1.2, 1.5, 2.0)),
        min_finished=st.just(2),
    )
    return ResiliencePolicy(
        speculation=draw(
            speculation if require_speculation
            else st.one_of(st.none(), speculation)
        ),
        retry=RetryPolicy(
            max_task_attempts=draw(st.sampled_from((2, 4))),
            backoff_seconds=draw(st.sampled_from((0.0, 0.25, 0.5))),
            stall_timeout_seconds=draw(st.sampled_from((5.0, 10.0))),
        ),
        blacklist=draw(st.one_of(
            st.none(),
            st.builds(BlacklistPolicy, max_node_strikes=st.sampled_from((2, 3))),
        )),
    )


@st.composite
def uniform_fault_plans(draw) -> FaultPlan:
    """Cluster-uniform disk throttles only — safe for N -> 2N comparisons.

    Per-node faults break the doubling symmetry (a straggler at index 3
    is inert at N=2 but active at N=4), so monotonicity tests restrict
    to plans that degrade every node the same way.
    """
    faults = draw(st.lists(disk_faults(node_uniform=True), max_size=2))
    return FaultPlan(name="hypo-uniform", faults=tuple(faults))


#: Arbitrary JSON values of up to eight leaves — what the file-loader
#: fuzzers (mix plans, fault plans, profiling reports) feed a field or a
#: whole document.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8),
    lambda children: (
        st.lists(children, max_size=3)
        | st.dictionaries(st.text(max_size=6), children, max_size=3)
    ),
    max_leaves=8,
)
