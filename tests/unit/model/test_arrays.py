"""Unit coverage for the array model core (:mod:`repro.model.arrays`).

The exactness properties live in ``tests/properties/test_vectorized.py``;
this file pins the surface: batch validation, error paths, and the
score container.
"""

from __future__ import annotations

import pytest

from repro.cloud.instance import machine_for_vcpus
from repro.cloud.pricing import CloudConfiguration
from repro.core import Profiler
from repro.core.profiler import (
    ChannelProfile,
    ProfilingReport,
    StageProfileData,
)
from repro.errors import ConfigurationError, ModelError
from repro.model.arrays import CandidateBatch, Eq1BatchEvaluator
from repro.workloads import make_svm_workload


@pytest.fixture(scope="module")
def report():
    return Profiler(make_svm_workload(), nodes=2).profile()


def _batch(count=2, **overrides):
    columns = dict(
        nodes=(5,) * count,
        cores=(8,) * count,
        hdfs_kinds=("pd-standard",) * count,
        hdfs_sizes_gb=(500.0,) * count,
        local_kinds=("pd-ssd",) * count,
        local_sizes_gb=(250.0,) * count,
        vcpus=(8,) * count,
    )
    columns.update(overrides)
    return CandidateBatch(**columns)


# -- batch construction -------------------------------------------------------


def test_batch_length_and_config_roundtrip():
    assert len(_batch(count=3)) == 3
    config = CloudConfiguration(
        machine=machine_for_vcpus(8),
        num_workers=5,
        hdfs_disk_kind="pd-standard",
        hdfs_disk_gb=500.0,
        local_disk_kind="pd-ssd",
        local_disk_gb=250.0,
    )
    assert CandidateBatch.from_configs([config]) == _batch(count=1)


def test_mismatched_column_lengths_rejected():
    with pytest.raises(ModelError, match="equal lengths"):
        _batch(count=2, nodes=(5,))


def test_nonpositive_shape_rejected():
    with pytest.raises(ModelError, match="positive"):
        _batch(count=1, cores=(0,))


def test_nonpositive_disk_size_rejected():
    with pytest.raises(ConfigurationError, match="disk sizes"):
        _batch(count=1, hdfs_sizes_gb=(0.0,))


# -- scoring error paths ------------------------------------------------------


def test_cost_requires_vcpus(report):
    scores = Eq1BatchEvaluator(report).score(_batch(count=1, vcpus=None))
    assert scores.cost_dollars is None


def test_unknown_disk_kind_is_a_configuration_error(report):
    batch = _batch(count=1, local_kinds=("floppy",))
    with pytest.raises(ConfigurationError):
        Eq1BatchEvaluator(report).score(batch)


def test_unknown_channel_role_is_a_model_error():
    stage = StageProfileData(
        name="map",
        num_tasks=8,
        t_avg=1.0,
        delta_scale=0.0,
        delta_read=0.0,
        delta_write=0.0,
        channels=(
            ChannelProfile(
                kind="net", role="nic", total_bytes=1.0,
                request_size=4096.0, is_write=False,
            ),
        ),
    )
    report = ProfilingReport(workload_name="synthetic", nodes=2, stages=(stage,))
    with pytest.raises(ModelError, match="no target device for role 'nic'"):
        Eq1BatchEvaluator(report)


def test_empty_batch_scores_empty(report):
    scores = Eq1BatchEvaluator(report).score(_batch(count=0))
    assert len(scores) == 0
