"""Unit tests for the model's predicted runtime over a local-disk-size sweep."""

import pytest

from repro.model.arrays import CandidateBatch


class TestSweepDiskSizes:
    def test_runtime_decreases_then_flattens(self, gatk4_predictor):
        # Fig. 14's shape: growing the HDD local disk keeps buying IOPS
        # until the per-disk IOPS cap / compute bound is reached, after
        # which the curve is flat.  (The paper's testbed flattens at 2 TB;
        # our disk spec's 3000-IOPS cap binds at 4 TB.)  The swept (N, P)
        # need not be a purchasable shape, so the batch is model-only.
        sizes_gb = (200, 500, 1000, 2000, 4000, 6000, 8000)
        count = len(sizes_gb)
        runtimes = gatk4_predictor.batch_evaluator().score(CandidateBatch(
            nodes=(10,) * count,
            cores=(16,) * count,
            hdfs_kinds=("pd-standard",) * count,
            hdfs_sizes_gb=(1000.0,) * count,
            local_kinds=("pd-standard",) * count,
            local_sizes_gb=sizes_gb,
        )).runtime_seconds
        # Monotone non-increasing...
        assert all(a >= b - 1e-6 for a, b in zip(runtimes, runtimes[1:]))
        # ...with a clear drop early and a flat tail.
        assert runtimes[0] > 1.5 * runtimes[2]
        assert runtimes[-2] == pytest.approx(runtimes[-1], rel=0.02)
