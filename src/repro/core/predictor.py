"""Predictor facade: profile once, predict any configuration.

Binds a device-independent :class:`~repro.core.profiler.ProfilingReport`
to a *target* cluster: each profiled channel's ``BW`` is the target
device's ``StorageDevice.bandwidth`` at the channel's request size — the
curve the simulator's disk queues take their capacity from and the one
the array kernel reads — and the resulting
:class:`~repro.core.app_model.ApplicationModel` evaluates Equation 1 at
any ``(N, P)``.

This is the workflow of Sections V and VI: four sample runs on a small
cluster, then predictions across core counts, disk types, disk sizes, and
node counts.
"""

from __future__ import annotations

from collections.abc import Container
from typing import TYPE_CHECKING

from repro.core.app_model import ApplicationModel, ApplicationPrediction
from repro.core.profiler import ChannelProfile, ProfilingReport, StageProfileData
from repro.core.stage_model import StageModel
from repro.core.variables import IoChannel, StageModelVariables
from repro.errors import ModelError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import Cluster
    from repro.model.arrays import Eq1BatchEvaluator
    from repro.storage.device import StorageDevice


def target_channels(
    stage: StageProfileData, roles: Container[str]
) -> list[ChannelProfile]:
    """The stage's channels that move bytes, in profile order.

    Zero-byte channels are skipped; any other channel whose role is not
    one of ``roles`` has no target device and is a
    :class:`~repro.errors.ModelError`.  The predictor and the array
    kernel (:mod:`repro.model.arrays`) both bind channels through here.
    """
    channels = []
    for channel in stage.channels:
        if channel.total_bytes == 0:
            continue
        if channel.role not in roles:
            raise ModelError(
                f"stage {stage.name}: no target device for role"
                f" {channel.role!r}"
            )
        channels.append(channel)
    return channels


class Predictor:
    """Turns a profiling report into runtime predictions for any target."""

    def __init__(self, report: ProfilingReport) -> None:
        self.report = report
        self._evaluator: Eq1BatchEvaluator | None = None

    def batch_evaluator(self) -> Eq1BatchEvaluator:
        """The array-kernel evaluator for this report, built on first use.

        The evaluator is a function of the report alone, so every
        :class:`~repro.cloud.optimizer.CostOptimizer` over this predictor
        shares it and the per-disk tables it memoizes.
        """
        if self._evaluator is None:
            # Imported here: the kernel imports repro.core, which
            # imports this module.
            from repro.model.arrays import Eq1BatchEvaluator

            self._evaluator = Eq1BatchEvaluator(self.report)
        return self._evaluator

    def model_for_devices(
        self,
        devices_by_role: dict[str, StorageDevice],
        network_bandwidth: float | None = None,
        remote_fraction: float = 1.0,
    ) -> ApplicationModel:
        """Build the application model for explicit per-role devices.

        ``devices_by_role`` maps ``"hdfs"`` and ``"local"`` to the device
        models of one (representative) slave node.

        ``network_bandwidth`` (bytes/s per node link) enables the network
        extension: shuffle-read bytes also cross the wire, so each
        shuffle-read channel contributes an extra read-limit group on a
        virtual ``"network"`` device — ``remote_fraction * D_shuffle /
        (N * link_bw)``.  ``remote_fraction`` is the share of shuffle
        bytes living on *other* nodes (``(N-1)/N`` under a uniform
        spread; the default 1.0 is the conservative whole-shuffle bound).
        The paper omits this term because its 10 Gb/s links never bind
        (Section III-B1, after [5]); on slow links it dominates, as
        Trivedi et al. [34] observed moving from 1 Gb/s to 10 Gb/s.
        """
        if network_bandwidth is not None and network_bandwidth <= 0:
            raise ModelError("network bandwidth must be positive when given")
        if not 0.0 <= remote_fraction <= 1.0:
            raise ModelError("remote fraction must be within [0, 1]")
        stage_models = [
            StageModel(self._stage_variables(
                stage, devices_by_role, network_bandwidth, remote_fraction
            ))
            for stage in self.report.stages
        ]
        return ApplicationModel(self.report.workload_name, stage_models)

    def model_for_cluster(
        self, cluster: Cluster, network_bandwidth: float | None = None
    ) -> ApplicationModel:
        """Build the application model for a (homogeneous) cluster.

        When ``network_bandwidth`` is given, the remote fraction is taken
        from the cluster's own :class:`~repro.cluster.network.NetworkModel`
        at the cluster's node count — matching what the simulator does
        with a finite network configured.
        """
        sample = cluster.slaves[0]
        for node in cluster.slaves:
            if (
                node.hdfs_device.kind != sample.hdfs_device.kind
                or node.local_device.kind != sample.local_device.kind
            ):
                raise ModelError(
                    "prediction requires homogeneous slave storage; node"
                    f" {node.name} differs from {sample.name}"
                )
        remote_fraction = 1.0
        if network_bandwidth is not None:
            remote_fraction = cluster.network.remote_fraction(cluster.num_slaves)
        return self.model_for_devices(
            {"hdfs": sample.hdfs_device, "local": sample.local_device},
            network_bandwidth=network_bandwidth,
            remote_fraction=remote_fraction,
        )

    def predict(
        self, cluster: Cluster, cores_per_node: int
    ) -> ApplicationPrediction:
        """Predict the full application at ``(cluster, P)``."""
        model = self.model_for_cluster(cluster)
        return model.predict(cluster.num_slaves, cores_per_node)

    def predict_runtime(self, cluster: Cluster, cores_per_node: int) -> float:
        """Predicted application seconds at ``(cluster, P)``."""
        return self.predict(cluster, cores_per_node).t_app

    # -- internals -----------------------------------------------------------

    def _stage_variables(
        self,
        stage: StageProfileData,
        devices_by_role: dict[str, StorageDevice],
        network_bandwidth: float | None,
        remote_fraction: float,
    ) -> StageModelVariables:
        channels = []
        for profile in target_channels(stage, devices_by_role):
            channels.append(
                IoChannel(
                    kind=profile.kind,
                    total_bytes=profile.total_bytes,
                    request_size=profile.request_size,
                    bandwidth=devices_by_role[profile.role].bandwidth(
                        profile.request_size, profile.is_write
                    ),
                    is_write=profile.is_write,
                    device=profile.role,
                )
            )
            if network_bandwidth is not None and profile.kind == "shuffle_read":
                # Reducer-side remote bytes also cross the network; a
                # separate per-device group means the slower of disk and
                # wire sets the read floor.
                network_bytes = profile.total_bytes * remote_fraction
                if network_bytes > 0:
                    channels.append(
                        IoChannel(
                            kind=profile.kind,
                            total_bytes=network_bytes,
                            request_size=profile.request_size,
                            bandwidth=network_bandwidth,
                            is_write=False,
                            device="network",
                        )
                    )
        return StageModelVariables(
            name=stage.name,
            num_tasks=stage.num_tasks,
            t_avg=stage.t_avg,
            delta_scale=stage.delta_scale,
            channels=tuple(channels),
            delta_read=stage.delta_read,
            delta_write=stage.delta_write,
            fill_seconds=stage.fill_seconds,
            gc_coeff=stage.gc_coeff,
        )
