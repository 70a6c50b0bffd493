"""PR-6 equivalence properties: the array kernel changes nothing.

The refactor moved every batch Eq.-1 evaluation — the optimizer grid
and the disk-size series — onto :mod:`repro.model.arrays`.  Its
contract is *exact* equality with the scalar stack, not approximate:
the kernel calls the scalar model's own Eq.-1 term functions and does
the rest of its float operations in the scalar order, so every
comparison below uses ``==`` on raw floats, across randomized workloads
and grids.
"""

from __future__ import annotations

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.cloud.disks import make_persistent_disk
from repro.cloud.optimizer import CostOptimizer
from repro.core import Predictor, Profiler
from repro.errors import ProfilingError
from repro.model.arrays import CandidateBatch, Eq1BatchEvaluator

from .strategies import PROPERTY_SETTINGS, workload_specs

EQUIV_SETTINGS = dict(
    suppress_health_check=(HealthCheck.filter_too_much, HealthCheck.too_slow),
    **PROPERTY_SETTINGS,
)


def _has_work(spec) -> bool:
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


def _optimizer(report, num_workers):
    return CostOptimizer(
        Predictor(report),
        num_workers=num_workers,
        min_hdfs_gb=10.0,
        min_local_gb=10.0,
    )


def _nested_loop_grid(optimizer, vcpu_grid, hdfs_sizes, local_sizes):
    """The feasible grid through ``make_config``, in nested-loop order."""
    kinds = ("pd-standard", "pd-ssd")
    return [
        optimizer.make_config(vcpus, hdfs_kind, hdfs_gb, local_kind, local_gb)
        for vcpus in vcpu_grid
        for hdfs_kind in kinds
        for hdfs_gb in hdfs_sizes
        if hdfs_gb >= optimizer.min_hdfs_gb
        for local_kind in kinds
        for local_gb in local_sizes
        if local_gb >= optimizer.min_local_gb
    ]


size_grids = st.lists(
    st.sampled_from((60.0, 120.0, 250.0, 500.0, 1000.0, 2000.0)),
    min_size=1, max_size=2, unique=True,
).map(tuple)

vcpu_grids = st.lists(
    st.sampled_from((4, 8, 16, 32)), min_size=1, max_size=2, unique=True
).map(tuple)


@settings(max_examples=15, **EQUIV_SETTINGS)
@given(
    spec=workload_specs(),
    num_workers=st.sampled_from((2, 5, 10)),
    vcpu_grid=vcpu_grids,
    hdfs_sizes=size_grids,
    local_sizes=size_grids,
)
def test_score_batch_equals_scalar_evaluation(
    spec, num_workers, vcpu_grid, hdfs_sizes, local_sizes
):
    """Batch runtime/cost == the scalar model's, bit for bit."""
    report = _profile(spec)
    optimizer = _optimizer(report, num_workers)
    configs = _nested_loop_grid(optimizer, vcpu_grid, hdfs_sizes, local_sizes)
    scores = Eq1BatchEvaluator(report).score(
        CandidateBatch.from_configs(configs)
    )
    for index, config in enumerate(configs):
        prediction = optimizer._predict_fresh(config)
        assert scores.runtime_seconds[index] == prediction.t_app
        assert scores.cost_dollars[index] == config.cost_for_runtime(
            prediction.t_app
        )


@settings(max_examples=10, **EQUIV_SETTINGS)
@given(
    spec=workload_specs(),
    num_workers=st.sampled_from((2, 5, 10)),
    vcpu_grid=vcpu_grids,
    hdfs_sizes=size_grids,
    local_sizes=size_grids,
)
def test_grid_search_argmin_matches_scalar_reference(
    spec, num_workers, vcpu_grid, hdfs_sizes, local_sizes
):
    """grid_search picks what a scalar first-minimum scan would pick.

    The reference below is the pre-refactor algorithm inlined: evaluate
    every candidate through the scalar path in grid order and keep the
    first strict improvement.
    """
    report = _profile(spec)
    optimizer = _optimizer(report, num_workers)
    search = dict(
        vcpu_grid=vcpu_grid, hdfs_sizes_gb=hdfs_sizes, local_sizes_gb=local_sizes
    )
    result = optimizer.grid_search(**search)

    reference = None
    for config in _nested_loop_grid(optimizer, vcpu_grid, hdfs_sizes, local_sizes):
        scored = optimizer.evaluate(config)
        if reference is None or scored.cost_dollars < reference.cost_dollars:
            reference = scored

    assert result.best.config == reference.config
    assert result.best.runtime_seconds == reference.runtime_seconds
    assert result.best.cost_dollars == reference.cost_dollars
    assert result.num_evaluated == len(result.evaluated)


@settings(max_examples=10, **EQUIV_SETTINGS)
@given(
    spec=workload_specs(),
    sizes=st.lists(
        st.sampled_from((50.0, 100.0, 250.0, 500.0, 1000.0)),
        min_size=1, max_size=4, unique=True,
    ).map(tuple),
)
def test_model_only_batch_matches_device_models(spec, sizes):
    """A vcpus-free sweep batch reproduces per-size scalar models."""
    report = _profile(spec)
    predictor = Predictor(report)
    batch = CandidateBatch(
        nodes=(5,) * len(sizes),
        cores=(8,) * len(sizes),
        hdfs_kinds=("pd-standard",) * len(sizes),
        hdfs_sizes_gb=(500.0,) * len(sizes),
        local_kinds=("pd-ssd",) * len(sizes),
        local_sizes_gb=sizes,
    )
    scores = Eq1BatchEvaluator(report).score(batch)
    assert scores.cost_dollars is None
    for index, size_gb in enumerate(sizes):
        devices = {
            "hdfs": make_persistent_disk("pd-standard", 500.0),
            "local": make_persistent_disk("pd-ssd", size_gb),
        }
        expected = predictor.model_for_devices(devices).runtime(5, 8)
        assert scores.runtime_seconds[index] == expected
