"""Unit tests for the cost optimizer."""

import pytest

from repro.cloud.optimizer import CostOptimizer, _adjacent
from repro.cloud.recommendations import (
    r1_spark_recommendation,
    r2_cloudera_recommendation,
)
from repro.errors import OptimizationError
from repro.model.arrays import CandidateBatch, Eq1BatchEvaluator


@pytest.fixture(scope="module")
def optimizer(gatk4_predictor):
    return CostOptimizer(
        gatk4_predictor, num_workers=10, min_hdfs_gb=60, min_local_gb=45
    )


class TestEvaluation:
    def test_feasibility(self, optimizer):
        too_small = optimizer.make_config(16, "pd-standard", 10, "pd-ssd", 10)
        assert not optimizer.is_feasible(too_small)
        with pytest.raises(OptimizationError):
            optimizer.evaluate(too_small)

    def test_evaluate_fields(self, optimizer):
        config = optimizer.make_config(16, "pd-standard", 1000, "pd-ssd", 200)
        result = optimizer.evaluate(config)
        assert result.runtime_seconds > 0
        assert result.cost_dollars == pytest.approx(
            config.cost_for_runtime(result.runtime_seconds)
        )

    def test_bigger_local_disk_is_not_slower(self, optimizer):
        small = optimizer.evaluate(
            optimizer.make_config(16, "pd-standard", 1000, "pd-standard", 200)
        )
        large = optimizer.evaluate(
            optimizer.make_config(16, "pd-standard", 1000, "pd-standard", 2000)
        )
        assert large.runtime_seconds <= small.runtime_seconds

    def test_invalid_worker_count(self, gatk4_predictor):
        with pytest.raises(OptimizationError):
            CostOptimizer(gatk4_predictor, num_workers=0)


class TestGridSearch:
    def test_beats_recommendations(self, optimizer):
        result = optimizer.grid_search(vcpu_grid=(8, 16))
        r1 = optimizer.evaluate(r1_spark_recommendation())
        r2 = optimizer.evaluate(r2_cloudera_recommendation())
        assert result.best.cost_dollars < r1.cost_dollars
        assert result.best.cost_dollars < r2.cost_dollars
        # The paper saves 38% and 57%; shapes should be comparable.
        assert result.savings_versus(r1) > 0.2
        assert result.savings_versus(r2) > 0.4

    def test_best_is_minimum(self, optimizer):
        result = optimizer.grid_search(
            vcpu_grid=(16,), hdfs_sizes_gb=(500, 1000), local_sizes_gb=(200, 500)
        )
        assert result.best.cost_dollars == min(
            e.cost_dollars for e in result.evaluated
        )

    def test_infeasible_sizes_skipped(self, optimizer):
        result = optimizer.grid_search(
            vcpu_grid=(16,), hdfs_sizes_gb=(20, 1000), local_sizes_gb=(20, 200)
        )
        for evaluated in result.evaluated:
            assert optimizer.is_feasible(evaluated.config)

    def test_empty_grid_rejected(self, optimizer):
        with pytest.raises(OptimizationError):
            optimizer.grid_search(vcpu_grid=(16,), hdfs_sizes_gb=(10,),
                                  local_sizes_gb=(10,))

    def test_unknown_disk_kind(self, optimizer):
        with pytest.raises(OptimizationError):
            optimizer.grid_search(disk_kinds=("pd-extreme",))

    def test_grid_candidates_match_make_config(self, optimizer):
        kinds = ("pd-standard", "pd-ssd")
        sizes = (50, 200, 1000)
        expected = [
            optimizer.make_config(vcpus, hdfs_kind, hdfs_gb, local_kind, local_gb)
            for vcpus in (4, 16)
            for hdfs_kind in kinds
            for hdfs_gb in sizes
            if hdfs_gb >= optimizer.min_hdfs_gb
            for local_kind in kinds
            for local_gb in sizes
            if local_gb >= optimizer.min_local_gb
        ]
        assert optimizer._grid_candidates((4, 16), kinds, sizes, sizes) == expected

    def test_optimizers_over_one_predictor_share_its_evaluator(
        self, gatk4_predictor
    ):
        grid = {"vcpu_grid": (8, 16), "hdfs_sizes_gb": (500, 1000),
                "local_sizes_gb": (200, 500)}
        wide = CostOptimizer(gatk4_predictor, num_workers=10)
        narrow = CostOptimizer(gatk4_predictor, num_workers=4)
        wide.grid_search(**grid)  # warms the shared per-disk tables
        result = narrow.grid_search(**grid)
        assert gatk4_predictor.batch_evaluator() is gatk4_predictor.batch_evaluator()
        configs = [evaluated.config for evaluated in result.evaluated]
        fresh = Eq1BatchEvaluator(gatk4_predictor.report).score(
            CandidateBatch.from_configs(configs)
        )
        assert [e.runtime_seconds for e in result.evaluated] == list(
            fresh.runtime_seconds
        )
        assert [e.cost_dollars for e in result.evaluated] == list(
            fresh.cost_dollars
        )


class TestCoordinateDescent:
    def test_descends_to_local_optimum(self, optimizer):
        start = optimizer.make_config(32, "pd-standard", 4000, "pd-standard", 4000)
        result = optimizer.coordinate_descent(start)
        assert result.best.cost_dollars <= optimizer.evaluate(start).cost_dollars
        # The winner's cost should be close to the grid optimum for the
        # same (HDD, HDD) disk types.
        grid = optimizer.grid_search(disk_kinds=("pd-standard",))
        assert result.best.cost_dollars <= grid.best.cost_dollars * 1.25

    def test_start_must_be_feasible(self, optimizer):
        bad = optimizer.make_config(16, "pd-standard", 10, "pd-standard", 10)
        with pytest.raises(OptimizationError):
            optimizer.coordinate_descent(bad)


class TestCapacityRequirements:
    def test_gatk4_requirements(self, gatk4_workload):
        hdfs_gb, local_gb = CostOptimizer.capacity_requirements(
            gatk4_workload, num_workers=10
        )
        # HDFS: 121.6 GB input + 332 GB replicated output, x1.2 / 10.
        assert hdfs_gb == pytest.approx((121.6 + 332) * 1.2 / 10, rel=0.02)
        # Local: the 334 GB shuffle, x1.2 / 10.
        assert local_gb == pytest.approx(334 * 1.2 / 10, rel=0.02)


class TestAdjacent:
    def test_interior(self):
        assert _adjacent([1, 2, 4, 8], 4) == [2, 8]

    def test_edges(self):
        assert _adjacent([1, 2, 4], 1) == [2]
        assert _adjacent([1, 2, 4], 4) == [2]

    def test_off_grid_value(self):
        assert _adjacent([1, 2, 4], 3) == [2, 4]
