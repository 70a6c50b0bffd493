"""Unit tests for execution platforms."""

import pytest

from repro.cloud.pricing import CloudConfiguration
from repro.cloud.instance import machine_for_vcpus
from repro.cluster import HYBRID_CONFIGS, make_paper_cluster
from repro.cluster.cluster import HybridDiskConfig
from repro.errors import ConfigurationError
from repro.pipeline.platforms import (
    CloudPlatform,
    ClusterPlatform,
    Platform,
    as_platform,
)


class TestClusterPlatform:
    def test_parametric_builds_any_node_count(self):
        platform = ClusterPlatform("ssd", "hdd")
        cluster = platform.cluster(4)
        assert cluster.num_slaves == 4
        assert cluster.slaves[0].hdfs_device.kind == "ssd"
        assert cluster.slaves[0].local_device.kind == "hdd"
        # Cluster construction is memoized per node count.
        assert platform.cluster(4) is cluster

    def test_from_config_matches_paper_cluster(self):
        # config_id only affects labels, so the platform's cluster must be
        # device-for-device identical to make_paper_cluster's.
        config = HYBRID_CONFIGS[3]
        built = ClusterPlatform.from_config(config).cluster(3)
        reference = make_paper_cluster(3, config)
        for ours, theirs in zip(built.slaves, reference.slaves):
            assert ours.hdfs_device.kind == theirs.hdfs_device.kind
            assert ours.local_device.kind == theirs.local_device.kind
            assert ours.num_cores == theirs.num_cores

    def test_fixed_cluster_pins_the_node_count(self):
        cluster = make_paper_cluster(3, HYBRID_CONFIGS[0])
        platform = ClusterPlatform.of(cluster)
        assert platform.default_nodes() == 3
        assert platform.cluster(3) is cluster
        with pytest.raises(ConfigurationError):
            platform.cluster(5)

    def test_rejects_nonpositive_node_counts(self):
        with pytest.raises(ConfigurationError):
            ClusterPlatform().cluster(0)

    def test_fingerprints_separate_configurations(self):
        ssd = ClusterPlatform.from_config(HYBRID_CONFIGS[0])
        hdd = ClusterPlatform.from_config(HYBRID_CONFIGS[3])
        assert ssd.fingerprint() != hdd.fingerprint()
        again = ClusterPlatform.from_config(HYBRID_CONFIGS[0])
        assert ssd.fingerprint() == again.fingerprint()

    def test_parametric_has_no_default_shape(self):
        platform = ClusterPlatform()
        assert platform.default_nodes() is None
        assert platform.default_cores() is None

    def test_label(self):
        assert ClusterPlatform("ssd", "hdd").label == "cluster[hdfs=ssd,local=hdd]"


class TestCloudPlatform:
    @pytest.fixture()
    def config(self):
        return CloudConfiguration(
            machine=machine_for_vcpus(16),
            num_workers=5,
            hdfs_disk_kind="pd-standard",
            hdfs_disk_gb=500,
            local_disk_kind="pd-ssd",
            local_disk_gb=200,
        )

    def test_defaults_come_from_the_configuration(self, config):
        platform = CloudPlatform(config)
        assert platform.default_nodes() == 5
        assert platform.default_cores() == config.cores_per_node

    def test_cluster_builds_persistent_disks(self, config):
        cluster = CloudPlatform(config).cluster(5)
        assert cluster.num_slaves == 5
        node = cluster.slaves[0]
        assert node.num_cores == config.cores_per_node
        assert node.hdfs_device.kind == "pd-standard"
        assert node.local_device.kind == "pd-ssd"

    def test_model_devices_match_cluster_devices(self, config):
        platform = CloudPlatform(config)
        devices = platform.devices_by_role()
        node = platform.cluster(5).slaves[0]
        for role, device in devices.items():
            node_device = getattr(node, f"{role}_device")
            assert device.kind == node_device.kind
            assert device.capacity_bytes == node_device.capacity_bytes

    def test_fingerprints_separate_disk_choices(self, config):
        import dataclasses

        other = dataclasses.replace(config, local_disk_kind="pd-standard")
        assert CloudPlatform(config).fingerprint() != CloudPlatform(
            other
        ).fingerprint()


class TestAsPlatform:
    def test_passthrough(self):
        platform = ClusterPlatform()
        assert as_platform(platform) is platform

    def test_cluster_coercion(self):
        cluster = make_paper_cluster(2, HYBRID_CONFIGS[0])
        platform = as_platform(cluster)
        assert isinstance(platform, ClusterPlatform)
        assert isinstance(platform, Platform)
        assert platform.default_nodes() == 2

    def test_config_coercions(self):
        assert isinstance(as_platform(HYBRID_CONFIGS[1]), ClusterPlatform)
        config = CloudConfiguration(
            machine=machine_for_vcpus(16),
            num_workers=2,
            hdfs_disk_kind="pd-ssd",
            hdfs_disk_gb=100,
            local_disk_kind="pd-ssd",
            local_disk_gb=100,
        )
        assert isinstance(as_platform(config), CloudPlatform)

    def test_hybrid_config_coercion_keeps_kinds(self):
        platform = as_platform(HybridDiskConfig(0, "hdd", "ssd"))
        assert platform.hdfs_kind == "hdd"
        assert platform.local_kind == "ssd"

    def test_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            as_platform("not-a-platform")
