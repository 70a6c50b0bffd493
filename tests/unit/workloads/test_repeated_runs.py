"""Unit tests for the five-run error-bar protocol.

Run ``i`` of the paper's five is ``measure_workload(..., run_index=i)``:
a distinct but statistically identical task-skew realization.
"""

import pytest

from repro.cluster import HYBRID_CONFIGS, make_paper_cluster
from repro.workloads import make_svm_workload
from repro.workloads.runner import measure_workload


@pytest.fixture(scope="module")
def runs():
    cluster = make_paper_cluster(3, HYBRID_CONFIGS[0])
    workload = make_svm_workload()
    return [
        measure_workload(cluster, 12, workload, run_index=index)
        for index in range(5)
    ]


class TestRepeatedRuns:
    def test_five_runs_returned(self, runs):
        assert len(runs) == 5

    def test_runs_differ_but_only_slightly(self, runs):
        totals = [run.total_seconds for run in runs]
        assert len(set(totals)) > 1  # distinct realizations
        spread = (max(totals) - min(totals)) / min(totals)
        assert spread < 0.10  # error bars, not different experiments

    def test_run_index_deterministic(self):
        cluster = make_paper_cluster(3, HYBRID_CONFIGS[0])
        workload = make_svm_workload()
        first = measure_workload(cluster, 12, workload, run_index=2)
        second = measure_workload(cluster, 12, workload, run_index=2)
        assert first.total_seconds == second.total_seconds

    def test_byte_totals_identical_across_runs(self, runs):
        reads = {round(run.stage("subtract_read").read_bytes) for run in runs}
        assert len(reads) == 1  # skew is mean-preserving per group


class TestRepeatedRunsNetwork:
    def test_throttled_network_changes_the_makespan(self):
        from repro.cluster.network import NetworkModel

        cluster = make_paper_cluster(3, HYBRID_CONFIGS[0])
        workload = make_svm_workload()
        network = NetworkModel.from_gbps(0.25)
        for index in range(2):
            fast = measure_workload(cluster, 12, workload, run_index=index)
            slow = measure_workload(
                cluster, 12, workload, run_index=index, network=network
            )
            assert slow.total_seconds > fast.total_seconds
