"""Execution platforms: where a resolved workload runs and is predicted.

A platform answers two questions for the :class:`~repro.pipeline
.experiment.Experiment` orchestrator:

- *simulation* — build a :class:`~repro.cluster.cluster.Cluster` at a
  node count so the discrete-event engine can measure "exp" makespans;
- *modeling* — build the Equation-1 application model for the same
  devices, so "exp" and "model" always describe the same hardware.

Two families exist, mirroring the paper: :class:`ClusterPlatform` (the
Table I/III testbeds, or any explicit cluster) and :class:`CloudPlatform`
(Section VI's Google-Cloud virtual-disk configurations).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.cloud.disks import make_persistent_disk
from repro.cloud.pricing import CloudConfiguration
from repro.cluster.cluster import Cluster, HybridDiskConfig, make_paper_cluster
from repro.cluster.node import Node
from repro.errors import ConfigurationError
from repro.pipeline.fingerprint import fingerprint
from repro.units import GB

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.app_model import ApplicationModel
    from repro.core.predictor import Predictor
    from repro.storage.device import StorageDevice


@runtime_checkable
class Platform(Protocol):
    """Anything an experiment can simulate on and predict for."""

    @property
    def label(self) -> str:
        """Readable identifier used in run records."""
        ...

    def fingerprint(self) -> str:
        """Content hash for cache keys."""
        ...

    def default_nodes(self) -> int | None:
        """The platform's natural ``N`` (``None`` = caller must choose)."""
        ...

    def default_cores(self) -> int | None:
        """The platform's natural ``P`` (``None`` = caller must choose)."""
        ...

    def cluster(self, nodes: int) -> Cluster:
        """A simulatable cluster of ``nodes`` workers."""
        ...

    def model(
        self,
        predictor: Predictor,
        nodes: int,
        network_bandwidth: float | None = None,
    ) -> ApplicationModel:
        """The Equation-1 model over this platform's devices."""
        ...


class ClusterPlatform:
    """A paper-style cluster: Table-I nodes with a hybrid disk placement.

    Build parametrically from device kinds (``ClusterPlatform("ssd",
    "hdd")``) so any node count can be requested, or wrap an explicit
    cluster with :meth:`of` (fixed node count).
    """

    def __init__(self, hdfs_kind: str = "ssd", local_kind: str = "ssd") -> None:
        self.hdfs_kind = hdfs_kind
        self.local_kind = local_kind
        self._fixed: Cluster | None = None
        self._clusters: dict[int, Cluster] = {}

    @classmethod
    def of(cls, cluster: Cluster) -> ClusterPlatform:
        """Wrap an existing cluster (its node count becomes fixed)."""
        sample = cluster.slaves[0]
        platform = cls(sample.hdfs_device.kind, sample.local_device.kind)
        platform._fixed = cluster
        platform._clusters[cluster.num_slaves] = cluster
        return platform

    @classmethod
    def from_config(cls, config: HybridDiskConfig) -> ClusterPlatform:
        """From a Table-III hybrid disk configuration."""
        return cls(config.hdfs_kind, config.local_kind)

    @property
    def label(self) -> str:
        return f"cluster[hdfs={self.hdfs_kind},local={self.local_kind}]"

    def fingerprint(self) -> str:
        if self._fixed is not None:
            sample = self._fixed.slaves[0]
            return fingerprint(
                {
                    "kind": "fixed-cluster",
                    "num_slaves": self._fixed.num_slaves,
                    "cores": sample.num_cores,
                    "ram": sample.ram_bytes,
                    "devices": [
                        (node.hdfs_device, node.local_device)
                        for node in self._fixed.slaves
                    ],
                    "network": self._fixed.network.link_bandwidth,
                }
            )
        return fingerprint(
            {
                "kind": "paper-cluster",
                "hdfs": self.hdfs_kind,
                "local": self.local_kind,
            }
        )

    def default_nodes(self) -> int | None:
        return self._fixed.num_slaves if self._fixed is not None else None

    def default_cores(self) -> int | None:
        return None

    def cluster(self, nodes: int) -> Cluster:
        if nodes <= 0:
            raise ConfigurationError("node count must be positive")
        if self._fixed is not None and nodes != self._fixed.num_slaves:
            raise ConfigurationError(
                f"platform wraps a fixed {self._fixed.num_slaves}-slave"
                f" cluster; cannot simulate N={nodes}"
            )
        if nodes not in self._clusters:
            self._clusters[nodes] = make_paper_cluster(
                nodes,
                HybridDiskConfig(
                    0, hdfs_kind=self.hdfs_kind, local_kind=self.local_kind
                ),
            )
        return self._clusters[nodes]

    def model(
        self,
        predictor: Predictor,
        nodes: int,
        network_bandwidth: float | None = None,
    ) -> ApplicationModel:
        return predictor.model_for_cluster(
            self.cluster(nodes), network_bandwidth=network_bandwidth
        )


class CloudPlatform:
    """A Section-VI virtual-disk worker pool on Google Cloud.

    Wraps a :class:`~repro.cloud.pricing.CloudConfiguration`; simulation
    builds per-node persistent disks exactly like the Fig-14 validation,
    and modeling uses the same ``devices_by_role`` mapping the cost
    optimizer always fed the predictor.
    """

    #: RAM per worker for simulated cloud nodes (n1-standard-16 class).
    NODE_RAM_BYTES = 60 * GB

    def __init__(self, config: CloudConfiguration) -> None:
        self.config = config
        self._clusters: dict[int, Cluster] = {}

    @property
    def label(self) -> str:
        return f"cloud[{self.config.label()}]"

    def fingerprint(self) -> str:
        return fingerprint({"kind": "cloud", "config": self.config})

    def default_nodes(self) -> int | None:
        return self.config.num_workers

    def default_cores(self) -> int | None:
        return self.config.cores_per_node

    def devices_by_role(self) -> dict[str, StorageDevice]:
        """One representative worker's device models."""
        return {
            "hdfs": make_persistent_disk(
                self.config.hdfs_disk_kind, self.config.hdfs_disk_gb
            ),
            "local": make_persistent_disk(
                self.config.local_disk_kind, self.config.local_disk_gb
            ),
        }

    def cluster(self, nodes: int) -> Cluster:
        if nodes <= 0:
            raise ConfigurationError("node count must be positive")
        if nodes not in self._clusters:
            slaves = [
                Node(
                    name=f"w{index}",
                    num_cores=self.config.cores_per_node,
                    ram_bytes=self.NODE_RAM_BYTES,
                    hdfs_device=make_persistent_disk(
                        self.config.hdfs_disk_kind,
                        self.config.hdfs_disk_gb,
                        name=f"w{index}-hdfs",
                    ),
                    local_device=make_persistent_disk(
                        self.config.local_disk_kind,
                        self.config.local_disk_gb,
                        name=f"w{index}-local",
                    ),
                )
                for index in range(nodes)
            ]
            self._clusters[nodes] = Cluster(slaves=slaves)
        return self._clusters[nodes]

    def model(
        self,
        predictor: Predictor,
        nodes: int,
        network_bandwidth: float | None = None,
    ) -> ApplicationModel:
        return predictor.model_for_devices(
            self.devices_by_role(), network_bandwidth=network_bandwidth
        )


def as_platform(obj) -> Platform:
    """Coerce clusters and configurations into a :class:`Platform`."""
    if isinstance(obj, (ClusterPlatform, CloudPlatform)):
        return obj
    if isinstance(obj, Cluster):
        return ClusterPlatform.of(obj)
    if isinstance(obj, HybridDiskConfig):
        return ClusterPlatform.from_config(obj)
    if isinstance(obj, CloudConfiguration):
        return CloudPlatform(obj)
    if isinstance(obj, Platform):
        return obj
    raise ConfigurationError(
        f"cannot build a platform from {type(obj).__name__}; expected a"
        " Cluster, HybridDiskConfig, CloudConfiguration, or Platform"
    )
