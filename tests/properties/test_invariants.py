"""Metamorphic invariants over randomized spec x fault x (N, P) grids.

Each test draws a bounded random workload (see ``strategies``), runs the
real simulator, and asserts one invariant from :mod:`repro.invariants`.
Together the sweeps cover well over 200 randomized scenarios:

- conservation + Eq.-1 dominance, clean and under arbitrary faults;
- node-count monotonicity (N -> 2N), clean and under uniform faults;
- disk-speed monotonicity (2HDD -> 2SSD);
- fault dominance (faults never speed a run up);
- determinism (same inputs -> bit-identical measurements).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import HYBRID_CONFIGS, make_paper_cluster
from repro.cluster.cluster import HybridDiskConfig
from repro.invariants import (
    check_conservation,
    check_dominance,
    check_fault_dominance,
    check_measurements_identical,
    check_monotonic,
)
from repro.workloads.runner import measure_workload

from tests.properties.strategies import (
    PROPERTY_SETTINGS,
    fault_plans,
    uniform_fault_plans,
    workload_specs,
)

nodes_axis = st.integers(min_value=1, max_value=3)
cores_axis = st.sampled_from((1, 2, 4))


def _cluster(nodes: int) -> object:
    # Fresh cluster per run: measurements must not depend on device or
    # registry state left behind by a previous simulation.
    return make_paper_cluster(nodes, HYBRID_CONFIGS[0])


@given(spec=workload_specs(), plan=fault_plans(), nodes=nodes_axis, cores=cores_axis)
@settings(max_examples=70, **PROPERTY_SETTINGS)
def test_conservation_and_dominance_under_faults(spec, plan, nodes, cores):
    # Faults reshape the schedule but never the data, and no schedule —
    # faulted or not — beats the Eq.-1 physical floor.
    measurement = measure_workload(_cluster(nodes), cores, spec, faults=plan)
    violations = check_conservation(spec, measurement)
    violations += check_dominance(spec, measurement, _cluster(nodes), cores)
    assert all(stage.makespan >= 0.0 for stage in measurement.stages)
    assert not violations, "\n".join(map(str, violations))


@given(spec=workload_specs(), plan=fault_plans(), nodes=nodes_axis, cores=cores_axis)
@settings(max_examples=40, **PROPERTY_SETTINGS)
def test_faults_never_speed_up_a_run(spec, plan, nodes, cores):
    clean = measure_workload(_cluster(nodes), cores, spec)
    faulted = measure_workload(_cluster(nodes), cores, spec, faults=plan)
    violations = check_fault_dominance(clean, faulted)
    assert not violations, "\n".join(map(str, violations))


@given(spec=workload_specs(), nodes=st.sampled_from((1, 2)), cores=cores_axis)
@settings(max_examples=30, **PROPERTY_SETTINGS)
def test_doubling_nodes_never_increases_makespan(spec, nodes, cores):
    # Doubling N splits every per-node queue in two under round-robin
    # placement, so the makespan cannot rise.
    small = measure_workload(_cluster(nodes), cores, spec)
    large = measure_workload(_cluster(2 * nodes), cores, spec)
    violations = check_monotonic(
        [(nodes, small.total_seconds), (2 * nodes, large.total_seconds)],
        "node-monotonicity",
        spec.name,
    )
    assert not violations, "\n".join(map(str, violations))


@given(
    spec=workload_specs(),
    plan=uniform_fault_plans(),
    nodes=st.sampled_from((1, 2)),
    cores=cores_axis,
)
@settings(max_examples=25, **PROPERTY_SETTINGS)
def test_doubling_nodes_stays_monotone_under_uniform_faults(spec, plan, nodes, cores):
    # Cluster-uniform throttles degrade both shapes identically, so the
    # doubling argument survives the fault plan.
    small = measure_workload(_cluster(nodes), cores, spec, faults=plan)
    large = measure_workload(_cluster(2 * nodes), cores, spec, faults=plan)
    violations = check_monotonic(
        [(nodes, small.total_seconds), (2 * nodes, large.total_seconds)],
        "node-monotonicity-faulted",
        spec.name,
    )
    assert not violations, "\n".join(map(str, violations))


@given(spec=workload_specs(), nodes=st.sampled_from((1, 2)), cores=cores_axis)
@settings(max_examples=25, **PROPERTY_SETTINGS)
def test_faster_disks_never_increase_makespan(spec, nodes, cores):
    # The SSD bandwidth curve pointwise dominates the HDD curve, so
    # swapping 2HDD for 2SSD can only help.
    hdd = measure_workload(
        make_paper_cluster(nodes, HybridDiskConfig(0, "hdd", "hdd")), cores, spec
    )
    ssd = measure_workload(
        make_paper_cluster(nodes, HybridDiskConfig(0, "ssd", "ssd")), cores, spec
    )
    violations = check_monotonic(
        [(0, hdd.total_seconds), (1, ssd.total_seconds)],
        "disk-speed-monotonicity",
        spec.name,
    )
    assert not violations, "\n".join(map(str, violations))


@given(spec=workload_specs(), plan=fault_plans(), nodes=nodes_axis, cores=cores_axis)
@settings(max_examples=25, **PROPERTY_SETTINGS)
def test_identical_inputs_measure_bit_identically(spec, plan, nodes, cores):
    # Two runs from fresh clusters with the same spec, shape, and fault
    # plan must agree bit for bit — the foundation the result cache and
    # every golden test stand on.
    first = measure_workload(_cluster(nodes), cores, spec, faults=plan)
    second = measure_workload(_cluster(nodes), cores, spec, faults=plan)
    violations = check_measurements_identical(first, second, spec.name)
    assert not violations, "\n".join(map(str, violations))
