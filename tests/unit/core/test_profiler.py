"""Unit tests for the four-sample-run profiler.

The session-scoped ``gatk4_report`` fixture runs the actual procedure; the
tests here assert on its structure, sanity checks, and fitted constants.
"""

import pytest

from repro.core.profiler import Profiler, ProfilingReport
from repro.errors import ProfilingError
from repro.units import GB, KB, MB


class TestProfilerConstruction:
    def test_rejects_bad_nodes(self, gatk4_workload):
        with pytest.raises(ProfilingError):
            Profiler(gatk4_workload, nodes=0)


class TestReportStructure:
    def test_one_profile_per_stage(self, gatk4_report, gatk4_workload):
        assert [s.name for s in gatk4_report.stages] == [
            s.name for s in gatk4_workload.stages
        ]

    def test_four_sample_runs_recorded(self, gatk4_report):
        assert len(gatk4_report.sample_runs) == 4
        cores = [run.cores_per_node for run in gatk4_report.sample_runs]
        assert cores == [1, 2, 16, 16]

    def test_run_device_kinds_follow_the_procedure(self, gatk4_report):
        kinds = [
            (run.hdfs_kind, run.local_kind) for run in gatk4_report.sample_runs
        ]
        assert kinds == [
            ("ssd", "ssd"),
            ("ssd", "ssd"),
            ("ssd", "hdd"),
            ("hdd", "ssd"),
        ]

    def test_stage_lookup(self, gatk4_report):
        assert gatk4_report.stage("BR").name == "BR"
        with pytest.raises(ProfilingError):
            gatk4_report.stage("missing")


class TestFittedConstants:
    def test_t_avg_positive_everywhere(self, gatk4_report):
        for stage in gatk4_report.stages:
            assert stage.t_avg > 0

    def test_md_task_count_is_973(self, gatk4_report):
        assert gatk4_report.stage("MD").num_tasks == 973

    def test_br_task_count_includes_reducers_and_scan(self, gatk4_report):
        # 12,667 reducers + 973 scan tasks.
        assert gatk4_report.stage("BR").num_tasks == 12667 + 973

    def test_br_channels_cover_both_reads(self, gatk4_report):
        kinds = {ch.kind for ch in gatk4_report.stage("BR").channels}
        assert kinds == {"shuffle_read", "hdfs_read"}

    def test_shuffle_read_request_size_near_30kb(self, gatk4_report):
        channels = {ch.kind: ch for ch in gatk4_report.stage("BR").channels}
        request = channels["shuffle_read"].request_size
        assert 25 * KB < request < 32 * KB

    def test_table_iv_shuffle_bytes(self, gatk4_report):
        channels = {ch.kind: ch for ch in gatk4_report.stage("BR").channels}
        assert channels["shuffle_read"].total_bytes == pytest.approx(334 * GB)

    def test_br_delta_read_fitted_on_stress_run(self, gatk4_report):
        # BR is forced I/O-bound in sample run 3 (local = HDD), so a
        # nonzero read delta must have been extracted.
        assert gatk4_report.stage("BR").delta_read > 0

    def test_md_t_avg_matches_lambda_structure(self, gatk4_report):
        # MD task: ~128 MB HDFS read at T = 33 MB/s, lambda = 12, plus the
        # shuffle-write time -> mid tens of seconds.
        assert 40 < gatk4_report.stage("MD").t_avg < 70


class TestSanityChecks:
    def test_report_type(self, gatk4_report):
        assert isinstance(gatk4_report, ProfilingReport)

    def test_io_bound_calibration_run_rejected(self):
        # An absurd workload whose single stage is pure I/O with almost no
        # compute: even at P = 1 the stage sits on the I/O floor, which the
        # sanity check must reject.
        from repro.workloads.base import (
            ChannelSpec,
            StageSpec,
            TaskGroupSpec,
            WorkloadSpec,
        )

        io_only = WorkloadSpec(
            name="io-only",
            stages=(
                StageSpec(
                    name="flood",
                    groups=(
                        TaskGroupSpec(
                            name="flood",
                            count=8,
                            read_channels=(
                                ChannelSpec(
                                    kind="shuffle_read",
                                    bytes_per_task=64 * GB,
                                    request_size=128 * MB,
                                    # No software cap: a single core can
                                    # saturate the device.
                                    per_core_throughput=None,
                                ),
                            ),
                            compute_seconds=0.001,
                        ),
                    ),
                ),
            ),
        )
        with pytest.raises(ProfilingError):
            Profiler(io_only, nodes=1).profile()


class TestCustomWorkloadProfile:
    def test_compute_only_stage_profiles_cleanly(self):
        from repro.workloads.base import StageSpec, TaskGroupSpec, WorkloadSpec

        compute_only = WorkloadSpec(
            name="cpu",
            stages=(
                StageSpec(
                    name="spin",
                    groups=(
                        TaskGroupSpec(name="spin", count=64, compute_seconds=2.0),
                    ),
                ),
            ),
        )
        report = Profiler(compute_only, nodes=2).profile()
        stage = report.stage("spin")
        assert stage.t_avg == pytest.approx(2.0, rel=0.15)
        assert stage.channels == ()
        assert stage.delta_read == 0.0
        assert stage.delta_write == 0.0
