"""Unit tests for the Experiment orchestrator."""

import pytest

from repro.cluster import HYBRID_CONFIGS, make_paper_cluster
from repro.cluster.network import NetworkModel
from repro.core import Predictor
from repro.errors import ConfigurationError
from repro.pipeline import (
    Experiment,
    ResolvedSource,
    ResultCache,
    SpecSource,
)
from repro.schedule.mix import MixJob
from repro.schedule.scheduler import SchedulingError
from repro.workloads.runner import measure_workload

NODES = 2
CORES = 4


class TestMeasure:
    def test_matches_the_bare_runner(self, tiny_workload):
        experiment = Experiment(tiny_workload, HYBRID_CONFIGS[0])
        cluster = make_paper_cluster(NODES, HYBRID_CONFIGS[0])
        direct = measure_workload(cluster, CORES, tiny_workload)
        assert (
            experiment.measure(NODES, CORES).total_seconds
            == direct.total_seconds
        )

    def test_spec_sources_are_not_profiled(self, tiny_workload):
        source = SpecSource(tiny_workload)
        experiment = Experiment(source, HYBRID_CONFIGS[0])
        experiment.measure(NODES, CORES)
        assert source._resolved is None

    def test_cache_hit_is_bit_identical(self, tiny_workload):
        experiment = Experiment(tiny_workload, HYBRID_CONFIGS[0])
        first = experiment.measure(NODES, CORES)
        second = experiment.measure(NODES, CORES)
        assert second is first  # exact-key lookup returns the stored object
        assert experiment.cache.measurement_stats.hits == 1

    def test_run_index_separates_realizations(self, tiny_workload):
        experiment = Experiment(tiny_workload, HYBRID_CONFIGS[0])
        base = experiment.measure(NODES, CORES, run_index=0)
        other = experiment.measure(NODES, CORES, run_index=1)
        assert base.total_seconds != other.total_seconds
        assert experiment.cache.measurement_stats.hits == 0


class TestPredict:
    def test_matches_the_bare_predictor(self, tiny_workload, tiny_report):
        experiment = Experiment(
            ResolvedSource(tiny_workload, tiny_report), HYBRID_CONFIGS[0]
        )
        cluster = make_paper_cluster(NODES, HYBRID_CONFIGS[0])
        direct = (
            Predictor(tiny_report)
            .model_for_cluster(cluster)
            .predict(NODES, CORES)
        )
        assert experiment.predict(NODES, CORES).t_app == direct.t_app

    def test_prediction_is_cached(self, tiny_workload, tiny_report):
        experiment = Experiment(
            ResolvedSource(tiny_workload, tiny_report), HYBRID_CONFIGS[0]
        )
        assert experiment.predict(NODES, CORES) is experiment.predict(
            NODES, CORES
        )
        assert experiment.cache.prediction_stats.hits == 1


class TestRun:
    @pytest.fixture(scope="class")
    def run_result(self, tiny_report, make_tiny):
        experiment = Experiment(
            ResolvedSource(make_tiny(), tiny_report), HYBRID_CONFIGS[0]
        )
        return experiment, experiment.run(NODES, CORES)

    def test_composes_both_halves(self, run_result):
        experiment, result = run_result
        assert result.measured_seconds == experiment.measure(
            NODES, CORES
        ).total_seconds
        assert result.predicted_seconds == experiment.predict(
            NODES, CORES
        ).t_app
        assert result.nodes == NODES and result.cores_per_node == CORES

    def test_stage_breakdown(self, run_result):
        _, result = run_result
        assert [s.name for s in result.stages] == ["ingest", "reduce"]
        stage = result.stage("reduce")
        assert stage.measured_seconds > 0
        assert stage.bottleneck in ("scale", "read", "write")
        with pytest.raises(KeyError):
            result.stage("nope")

    def test_error_rate(self, run_result):
        _, result = run_result
        assert result.error == abs(
            result.measured_seconds - result.predicted_seconds
        ) / result.measured_seconds

    def test_json_form(self, run_result):
        import json

        _, result = run_result
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["workload"] == "tiny"
        assert len(payload["stages"]) == 2
        assert payload["stages"][0]["bottleneck"]
        assert payload["device_utilizations"]

    def test_utilizations_are_fractions(self, run_result):
        _, result = run_result
        assert 0.0 < result.core_utilization <= 1.0
        for _, _, busy in result.device_utilizations:
            assert 0.0 <= busy <= 1.0


class TestGrids:
    def test_run_grid_shape_and_order(self, tiny_workload, tiny_report):
        experiment = Experiment(
            ResolvedSource(tiny_workload, tiny_report), HYBRID_CONFIGS[0]
        )
        results = experiment.run_grid(
            nodes=(2, 3), cores_per_node=(4, 8), run_indices=(0, 1)
        )
        assert len(results) == 8
        assert [(r.nodes, r.cores_per_node, r.run_index) for r in results][
            :3
        ] == [(2, 4, 0), (2, 4, 1), (2, 8, 0)]

    def test_grid_reuses_points_across_calls(self, tiny_workload, tiny_report):
        experiment = Experiment(
            ResolvedSource(tiny_workload, tiny_report), HYBRID_CONFIGS[0]
        )
        experiment.run_grid(nodes=(2,), cores_per_node=(4, 8))
        experiment.run_grid(nodes=(2,), cores_per_node=(4, 8))
        assert experiment.cache.measurement_stats.hits == 2
        assert experiment.cache.prediction_stats.hits == 2

    def test_run_repeated_varies_the_realization(
        self, tiny_workload, tiny_report
    ):
        experiment = Experiment(
            ResolvedSource(tiny_workload, tiny_report), HYBRID_CONFIGS[0]
        )
        results = experiment.run_repeated(NODES, CORES, runs=3)
        assert [r.run_index for r in results] == [0, 1, 2]
        assert len({r.measured_seconds for r in results}) == 3
        # The model side is jitter-free: one prediction serves all runs.
        assert len({r.predicted_seconds for r in results}) == 1
        assert experiment.cache.prediction_stats.hits == 2

    def test_run_repeated_rejects_nonpositive_runs(
        self, tiny_workload, tiny_report
    ):
        experiment = Experiment(
            ResolvedSource(tiny_workload, tiny_report), HYBRID_CONFIGS[0]
        )
        with pytest.raises(ConfigurationError):
            experiment.run_repeated(NODES, CORES, runs=0)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_a_cells_library_error_is_raised_as_itself(
        self, tiny_workload, tiny_report, workers
    ):
        # Serial and pooled grids fail alike: a pool worker's
        # ConfigurationError is not retried or wrapped in an
        # ExecutionError, so the CLI exits 2 either way.
        experiment = Experiment(
            ResolvedSource(tiny_workload, tiny_report), HYBRID_CONFIGS[0]
        )
        with pytest.raises(ConfigurationError, match="must be positive"):
            experiment.run_grid(
                nodes=(0,), cores_per_node=(CORES,), workers=workers
            )


class TestShapeDefaults:
    def test_parametric_platform_needs_an_explicit_shape(self, tiny_workload):
        experiment = Experiment(tiny_workload, HYBRID_CONFIGS[0])
        with pytest.raises(ConfigurationError):
            experiment.measure()

    def test_fixed_cluster_supplies_nodes(self, tiny_workload):
        cluster = make_paper_cluster(NODES, HYBRID_CONFIGS[0])
        experiment = Experiment(tiny_workload, cluster)
        measurement = experiment.measure(cores_per_node=CORES)
        assert measurement.stages[0].nodes == NODES

    def test_grid_axis_without_default_raises(self, tiny_workload):
        experiment = Experiment(tiny_workload, HYBRID_CONFIGS[0])
        with pytest.raises(ConfigurationError):
            experiment.run_grid(cores_per_node=(4,))


class TestNetwork:
    def test_network_is_part_of_the_cache_key(self, tiny_workload):
        cache = ResultCache()
        infinite = Experiment(tiny_workload, HYBRID_CONFIGS[0], cache=cache)
        throttled = Experiment(
            tiny_workload,
            HYBRID_CONFIGS[0],
            cache=cache,
            network=NetworkModel.from_gbps(0.5),
        )
        fast = infinite.measure(NODES, CORES)
        slow = throttled.measure(NODES, CORES)
        assert cache.measurement_stats.hits == 0
        # A 0.5 Gb/s fabric must slow the shuffle-heavy tiny workload.
        assert slow.total_seconds > fast.total_seconds

    def test_network_gbps_reporting(self, tiny_workload):
        experiment = Experiment(
            tiny_workload,
            HYBRID_CONFIGS[0],
            network=NetworkModel.from_gbps(10.0),
        )
        assert experiment.network_gbps == pytest.approx(10.0)
        assert Experiment(tiny_workload, HYBRID_CONFIGS[0]).network_gbps is None


class TestDescribe:
    def test_one_liner(self, tiny_workload):
        experiment = Experiment(tiny_workload, HYBRID_CONFIGS[3])
        assert experiment.describe() == "spec:tiny @ cluster[hdfs=hdd,local=hdd]"


class TestSharedCaches:
    def test_equal_sources_share_entries_across_experiments(self, make_tiny):
        cache = ResultCache()
        Experiment(make_tiny(), HYBRID_CONFIGS[0], cache=cache).measure(
            NODES, CORES
        )
        Experiment(make_tiny(), HYBRID_CONFIGS[0], cache=cache).measure(
            NODES, CORES
        )
        assert cache.measurement_stats.hits == 1

    def test_platforms_do_not_collide(self, make_tiny):
        cache = ResultCache()
        Experiment(make_tiny(), HYBRID_CONFIGS[0], cache=cache).measure(
            NODES, CORES
        )
        Experiment(make_tiny(), HYBRID_CONFIGS[3], cache=cache).measure(
            NODES, CORES
        )
        assert cache.measurement_stats.hits == 0


class TestMixJobs:
    @pytest.mark.parametrize(
        "jobs_of",
        [lambda spec: [], lambda spec: [spec], lambda spec: [(spec, 0.0)]],
        ids=["empty", "bare-spec", "tuple"],
    )
    def test_a_mix_takes_mix_jobs_only(self, make_tiny, jobs_of):
        spec = make_tiny()
        experiment = Experiment(spec, HYBRID_CONFIGS[0])
        for method in (experiment.measure_mix, experiment.run_mix):
            with pytest.raises(ConfigurationError):
                method(jobs_of(spec), nodes=NODES, cores_per_node=CORES)

    def test_an_unknown_policy_is_rejected_on_the_solo_path(self, make_tiny):
        spec = make_tiny()
        with pytest.raises(SchedulingError, match="unknown mix policy"):
            Experiment(spec, HYBRID_CONFIGS[0]).measure_mix(
                [MixJob(spec=spec)], policy="srpt",
                nodes=NODES, cores_per_node=CORES,
            )


class TestCrashSafety:
    """Killed sweeps resume from the file-backed checkpoint (ISSUE PR 4)."""

    GRID = dict(nodes=(2, 3), cores_per_node=(2,), run_indices=(0, 1))

    def test_killed_grid_resumes_bit_identically_with_fewer_misses(
        self, tmp_path, make_tiny, monkeypatch
    ):
        import repro.pipeline.experiment as experiment_module

        spec = make_tiny()
        path = tmp_path / "sweep.json"

        # Uninterrupted reference sweep on a private in-memory cache.
        reference = Experiment(spec, HYBRID_CONFIGS[0]).run_grid(**self.GRID)

        # "Kill" a file-backed sweep after two fresh cells: the third
        # simulation dies the way SIGKILL mid-grid would.
        calls = {"n": 0}
        real_measure = experiment_module.measure_workload

        def dying_measure(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 2:
                raise KeyboardInterrupt
            return real_measure(*args, **kwargs)

        monkeypatch.setattr(
            experiment_module, "measure_workload", dying_measure
        )
        with pytest.raises(KeyboardInterrupt):
            Experiment(
                spec, HYBRID_CONFIGS[0], cache=ResultCache(path)
            ).run_grid(**self.GRID)
        monkeypatch.setattr(experiment_module, "measure_workload", real_measure)

        # The checkpoint holds exactly the two completed cells.
        assert path.exists()
        checkpoint = ResultCache(path)
        assert len(checkpoint._measurements) == 2

        # A fresh process resumes: same grid, bit-identical records,
        # strictly fewer fresh simulations than the full sweep.
        resumed_cache = ResultCache(path)
        resumed = Experiment(
            spec, HYBRID_CONFIGS[0], cache=resumed_cache
        ).run_grid(**self.GRID)
        assert [r.to_dict() for r in resumed] == [
            r.to_dict() for r in reference
        ]
        assert resumed_cache.measurement_stats.hits == 2
        assert resumed_cache.measurement_stats.misses == 2  # < the 4 cells

    def test_completed_grid_reruns_entirely_from_cache(
        self, tmp_path, make_tiny
    ):
        spec = make_tiny()
        path = tmp_path / "done.json"
        first = Experiment(
            spec, HYBRID_CONFIGS[0], cache=ResultCache(path)
        ).run_grid(**self.GRID)
        rerun_cache = ResultCache(path)
        rerun = Experiment(
            spec, HYBRID_CONFIGS[0], cache=rerun_cache
        ).run_grid(**self.GRID)
        assert [r.to_dict() for r in rerun] == [r.to_dict() for r in first]
        assert rerun_cache.measurement_stats.misses == 0
        assert rerun_cache.prediction_stats.misses == 0

    def test_run_repeated_checkpoints_like_the_grid(self, tmp_path, make_tiny):
        spec = make_tiny()
        path = tmp_path / "repeated.json"
        experiment = Experiment(spec, HYBRID_CONFIGS[0], cache=ResultCache(path))
        experiment.run_repeated(NODES, CORES, runs=2)
        assert len(ResultCache(path)._measurements) == 2
