"""Integration: the paper's GATK4 observations, end to end.

Covers the qualitative findings of Section III (Figs. 2-3, the 126-minute
shuffle analysis) and the quantitative accuracy claim of Section V-A
(Fig. 7: average error below the paper's quoted 6 %... we allow 10 %, the
paper's overall bound).
"""

import pytest

from repro.analysis.errors import ExpVsModel, average_error
from repro.cluster import HYBRID_CONFIGS, make_paper_cluster
from repro.workloads.runner import measure_workload


@pytest.fixture(scope="module")
def motivation_runs(gatk4_workload):
    """Fig. 2's setting: 3 slaves, P = 36, all four disk configurations."""
    runs = {}
    for config in HYBRID_CONFIGS:
        cluster = make_paper_cluster(3, config)
        runs[config.config_id] = measure_workload(cluster, 36, gatk4_workload)
    return runs


class TestFig2Observations:
    """Section III-A's three numbered observations."""

    def test_md_insensitive_to_hdfs_device(self, motivation_runs):
        # Observation 1: HDFS HDD->SSD gives no gain for MD (configs 3 vs 1
        # and 4 vs 2 differ only in the HDFS device).
        md_ssd_local = motivation_runs[1].stage("MD").makespan
        md_ssd_local_hdd_hdfs = motivation_runs[2].stage("MD").makespan
        assert md_ssd_local_hdd_hdfs == pytest.approx(md_ssd_local, rel=0.05)

    def test_sf_gains_from_hdfs_ssd(self, motivation_runs):
        # Observation 1: SF gains substantially from an SSD HDFS
        # (config 1 vs config 2: local fixed at SSD).
        sf_fast_hdfs = motivation_runs[1].stage("SF").makespan
        sf_slow_hdfs = motivation_runs[2].stage("SF").makespan
        assert sf_slow_hdfs > 1.5 * sf_fast_hdfs

    def test_local_device_dominates(self, motivation_runs):
        # Observation 3: Spark-local is much more I/O-sensitive than HDFS.
        total_by_config = {
            cid: run.total_seconds for cid, run in motivation_runs.items()
        }
        local_downgrade = total_by_config[3] - total_by_config[1]
        hdfs_downgrade = total_by_config[2] - total_by_config[1]
        assert local_downgrade > 3 * hdfs_downgrade

    def test_br_sf_dominate_on_hdd_local(self, motivation_runs):
        # Observation 2: with Local = HDD, BR and SF become the
        # time-consuming stages.
        run = motivation_runs[4]
        assert run.stage("BR").makespan > run.stage("MD").makespan
        assert run.stage("SF").makespan > run.stage("MD").makespan


class TestShuffleAnalysis:
    """Section III-C3: the 126-minute back-of-envelope, simulated."""

    def test_br_hdd_local_near_126_minutes(self, motivation_runs):
        minutes = motivation_runs[4].stage("BR").makespan / 60
        assert minutes == pytest.approx(127, rel=0.12)

    def test_sf_matches_br_on_hdd_local(self, motivation_runs):
        run = motivation_runs[4]
        assert run.stage("SF").makespan == pytest.approx(
            run.stage("BR").makespan, rel=0.1
        )

    def test_md_much_shorter_despite_equal_shuffle_bytes(self, motivation_runs):
        # Same 334 GB through the local disk, but at ~352 MB chunks instead
        # of ~28 KB reads.
        run = motivation_runs[4]
        assert run.stage("MD").makespan < 0.4 * run.stage("BR").makespan


class TestFig3CoreScaling:
    """Fig. 3: runtime vs P for 2SSD and 2HDD."""

    @pytest.fixture(scope="class")
    def scaling(self, gatk4_workload):
        results = {}
        for config in (HYBRID_CONFIGS[0], HYBRID_CONFIGS[3]):
            cluster = make_paper_cluster(3, config)
            for cores in (12, 24, 36):
                results[(config.shorthand, cores)] = measure_workload(
                    cluster, cores, gatk4_workload
                )
        return results

    def test_br_scales_on_ssd(self, scaling):
        t12 = scaling[("2SSD", 12)].stage("BR").makespan
        t36 = scaling[("2SSD", 36)].stage("BR").makespan
        assert t36 < 0.45 * t12  # near-linear scaling

    def test_br_flat_on_hdd(self, scaling):
        t12 = scaling[("2HDD", 12)].stage("BR").makespan
        t36 = scaling[("2HDD", 36)].stage("BR").makespan
        assert t36 == pytest.approx(t12, rel=0.1)

    def test_sf_flat_on_hdd(self, scaling):
        t12 = scaling[("2HDD", 12)].stage("SF").makespan
        t36 = scaling[("2HDD", 36)].stage("SF").makespan
        assert t36 == pytest.approx(t12, rel=0.1)

    def test_ssd_gains_more_from_cores_than_hdd(self, scaling):
        ssd_gain = (
            scaling[("2SSD", 12)].total_seconds
            / scaling[("2SSD", 36)].total_seconds
        )
        hdd_gain = (
            scaling[("2HDD", 12)].total_seconds
            / scaling[("2HDD", 36)].total_seconds
        )
        assert ssd_gain > hdd_gain

    def test_ssd_totals_are_unchanged(self, scaling):
        assert [
            scaling[("2SSD", cores)].total_seconds for cores in (12, 24, 36)
        ] == [6114.56388483668, 3080.387442443461, 2080.2485847812695]


class TestFig7ModelAccuracy:
    """Fig. 7: model vs measurement on ten slaves at P = 6, 12, 24."""

    def test_average_error_within_paper_bound(
        self, gatk4_workload, gatk4_predictor
    ):
        points = []
        for config in (HYBRID_CONFIGS[0], HYBRID_CONFIGS[3]):
            cluster = make_paper_cluster(10, config)
            model = gatk4_predictor.model_for_cluster(cluster)
            for cores in (6, 12, 24):
                measured = measure_workload(cluster, cores, gatk4_workload)
                predicted = model.predict(10, cores)
                for stage in gatk4_workload.stages:
                    points.append(
                        ExpVsModel(
                            label=f"{config.shorthand}/{stage.name}@P={cores}",
                            measured=measured.stage(stage.name).makespan,
                            predicted=predicted.stage(stage.name).t_stage,
                        )
                    )
        assert average_error(points) < 0.10
