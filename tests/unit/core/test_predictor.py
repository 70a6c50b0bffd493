"""Unit tests for the predictor facade."""

import pytest

from repro.cluster import HYBRID_CONFIGS, make_paper_cluster
from repro.cluster.node import Node
from repro.cluster.cluster import Cluster
from repro.errors import ModelError
from repro.storage import make_hdd, make_ssd
from repro.units import GB, MB


class TestModelConstruction:
    def test_model_for_devices(self, gatk4_predictor):
        model = gatk4_predictor.model_for_devices(
            {"hdfs": make_ssd(), "local": make_ssd()}
        )
        assert [s.name for s in model.stages] == ["MD", "BR", "SF"]

    def test_channel_bandwidths_read_the_device_curve(self, gatk4_predictor):
        devices = {"hdfs": make_ssd(), "local": make_hdd()}
        link = 125 * MB
        model = gatk4_predictor.model_for_devices(
            devices, network_bandwidth=link
        )
        bound = set()
        for stage in model.stages:
            for channel in stage.variables.channels:
                bound.add((channel.device, channel.is_write))
                if channel.device == "network":
                    assert channel.bandwidth == link
                else:
                    assert channel.bandwidth == devices[channel.device].bandwidth(
                        channel.request_size, channel.is_write
                    )
        assert {("hdfs", False), ("local", True), ("network", False)} <= bound

    def test_missing_role_rejected(self, gatk4_predictor):
        with pytest.raises(ModelError):
            gatk4_predictor.model_for_devices({"hdfs": make_ssd()})

    def test_model_for_cluster(self, gatk4_predictor, ssd_cluster):
        model = gatk4_predictor.model_for_cluster(ssd_cluster)
        assert model.runtime(3, 36) > 0

    def test_heterogeneous_cluster_rejected(self, gatk4_predictor):
        slaves = [
            Node(
                name="a", num_cores=36, ram_bytes=128 * GB,
                hdfs_device=make_ssd("a-h"), local_device=make_ssd("a-l"),
            ),
            Node(
                name="b", num_cores=36, ram_bytes=128 * GB,
                hdfs_device=make_hdd("b-h"), local_device=make_hdd("b-l"),
            ),
        ]
        cluster = Cluster(slaves=slaves)
        with pytest.raises(ModelError):
            gatk4_predictor.model_for_cluster(cluster)


class TestPredictions:
    def test_ssd_faster_than_hdd(self, gatk4_predictor):
        ssd_cluster = make_paper_cluster(10, HYBRID_CONFIGS[0])
        hdd_cluster = make_paper_cluster(10, HYBRID_CONFIGS[3])
        fast = gatk4_predictor.predict_runtime(ssd_cluster, 24)
        slow = gatk4_predictor.predict_runtime(hdd_cluster, 24)
        assert slow > 3 * fast

    def test_more_nodes_never_slower(self, gatk4_predictor):
        small = make_paper_cluster(3, HYBRID_CONFIGS[0])
        large = make_paper_cluster(10, HYBRID_CONFIGS[0])
        assert gatk4_predictor.predict_runtime(
            large, 12
        ) <= gatk4_predictor.predict_runtime(small, 12)

    def test_prediction_object_shape(self, gatk4_predictor, ssd_cluster):
        prediction = gatk4_predictor.predict(ssd_cluster, 12)
        assert prediction.nodes == 3
        assert prediction.cores_per_node == 12
        assert {s.stage_name for s in prediction.stages} == {"MD", "BR", "SF"}

    def test_br_io_bound_on_hdd_local(self, gatk4_predictor):
        hdd_cluster = make_paper_cluster(10, HYBRID_CONFIGS[3])
        prediction = gatk4_predictor.predict(hdd_cluster, 36)
        assert prediction.stage("BR").bottleneck == "read"

    def test_br_scale_bound_on_ssd_local(self, gatk4_predictor):
        ssd_cluster = make_paper_cluster(10, HYBRID_CONFIGS[0])
        prediction = gatk4_predictor.predict(ssd_cluster, 36)
        assert prediction.stage("BR").bottleneck == "scale"
