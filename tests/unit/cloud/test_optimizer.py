"""Unit tests for the cost optimizer."""

import pytest

import repro.cloud.optimizer as optimizer_module
from repro.cloud.optimizer import CostOptimizer
from repro.cloud.pricing import CloudConfiguration
from repro.cloud.recommendations import (
    r1_spark_recommendation,
    r2_cloudera_recommendation,
)
from repro.errors import OptimizationError
from repro.model.arrays import CandidateBatch, Eq1BatchEvaluator


def nested_loop_grid(optimizer, vcpu_grid, disk_kinds, hdfs_sizes, local_sizes):
    """The feasible grid through ``make_config``, in nested-loop order."""
    return [
        optimizer.make_config(vcpus, hdfs_kind, hdfs_gb, local_kind, local_gb)
        for vcpus in vcpu_grid
        for hdfs_kind in disk_kinds
        for hdfs_gb in hdfs_sizes
        if hdfs_gb >= optimizer.min_hdfs_gb
        for local_kind in disk_kinds
        for local_gb in local_sizes
        if local_gb >= optimizer.min_local_gb
    ]


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
        expected = nested_loop_grid(optimizer, (4, 16), kinds, sizes, sizes)
        result = optimizer.grid_search(
            vcpu_grid=(4, 16), disk_kinds=kinds,
            hdfs_sizes_gb=sizes, local_sizes_gb=sizes,
        )
        assert [e.config for e in result.evaluated] == expected

    def test_records_are_built_only_when_evaluated_is_read(
        self, optimizer, monkeypatch
    ):
        kinds = ("pd-standard", "pd-ssd")
        sizes = (50, 200, 1000)
        expected = optimizer.score_candidates(
            nested_loop_grid(optimizer, (4, 16), kinds, sizes, sizes)
        )
        built = []

        def counting(*args, **kwargs):
            built.append(CloudConfiguration(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(optimizer_module, "CloudConfiguration", counting)
        result = optimizer.grid_search(
            vcpu_grid=(4, 16), disk_kinds=kinds,
            hdfs_sizes_gb=sizes, local_sizes_gb=sizes,
        )
        assert result.num_evaluated == len(expected)
        assert built == [result.best.config]
        built.clear()
        assert list(result.evaluated) == expected
        assert result.evaluated[-1] == expected[-1]
        assert len(built) == len(expected)  # built once, then kept
        assert result.best == min(expected, key=lambda e: e.cost_dollars)

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


class TestPaperGrid:
    """The Fig. 13-15 search on GATK4 at ten workers under its own
    capacity floors, pinned float for float."""

    SIZES_GB = (20, 50, 100, 200, 500, 1000, 1500, 2000, 3000, 4000)

    @pytest.fixture(scope="class")
    def paper_optimizer(self, gatk4_predictor, gatk4_workload):
        hdfs_gb, local_gb = CostOptimizer.capacity_requirements(
            gatk4_workload, num_workers=10
        )
        return CostOptimizer(
            gatk4_predictor, num_workers=10,
            min_hdfs_gb=hdfs_gb, min_local_gb=local_gb,
        )

    def test_optimum_is_unchanged(self, paper_optimizer):
        result = paper_optimizer.grid_search(vcpu_grid=(8, 16, 32))
        assert result.num_evaluated == 864
        assert result.best.config.label() == (
            "8vCPU x10, HDFS=pd-standard 500GB, local=pd-ssd 200GB"
        )
        assert result.best.cost_dollars == 3.506112752434789
        assert result.best.runtime_seconds == 2780.655422766974

    def test_kernel_equals_the_scalar_model_on_the_whole_grid(
        self, paper_optimizer, gatk4_report
    ):
        configs = nested_loop_grid(
            paper_optimizer, (4, 8, 16, 32), ("pd-standard", "pd-ssd"),
            self.SIZES_GB, self.SIZES_GB,
        )
        assert len(configs) == 1152
        scores = Eq1BatchEvaluator(gatk4_report).score(
            CandidateBatch.from_configs(configs)
        )
        scalar = [paper_optimizer._predict_fresh(config).t_app for config in configs]
        assert list(scores.runtime_seconds) == scalar
        assert list(scores.cost_dollars) == [
            config.cost_for_runtime(runtime)
            for config, runtime in zip(configs, scalar)
        ]


class TestCapacityRequirements:
    def test_gatk4_requirements(self, gatk4_workload):
        hdfs_gb, local_gb = CostOptimizer.capacity_requirements(
            gatk4_workload, num_workers=10
        )
        # HDFS: 121.6 GB input + 332 GB replicated output, x1.2 / 10.
        assert hdfs_gb == pytest.approx((121.6 + 332) * 1.2 / 10, rel=0.02)
        # Local: the 334 GB shuffle, x1.2 / 10.
        assert local_gb == pytest.approx(334 * 1.2 / 10, rel=0.02)

    @pytest.mark.parametrize("num_workers", [0, -1])
    def test_nonpositive_worker_count_is_an_optimization_error(
        self, gatk4_workload, num_workers
    ):
        with pytest.raises(OptimizationError, match="must be positive"):
            CostOptimizer.capacity_requirements(
                gatk4_workload, num_workers=num_workers
            )

