"""The four-sample-run profiling procedure (Section VI-1).

To parameterize Equation 1 for an application, the paper performs four
profiling runs on a *small* cluster (N = 3 by default):

1. ``P = 1``, SSD for both HDFS and Spark-local — measures per-stage time
   at an operating point where I/O is provably not the bottleneck
   (sanity-checked via ``t_stage > D / (N * BW)``).
2. ``P = 2``, same disks — together with run 1 this solves ``t_avg`` and
   ``delta_scale`` per stage (see :mod:`repro.core.calibration`).
3. ``P = 16``, HDD for Spark-local, SSD for HDFS — forces Spark-local I/O
   to be the bottleneck so ``delta_read`` / ``delta_write`` of local
   channels can be extracted.
4. ``P = 16``, HDD for HDFS, SSD for Spark-local — same for HDFS channels.

Against the simulator the "runs" are simulated executions of the workload
spec; everything else (the fitting, the sanity checks, the iostat
cross-check of request sizes) is the paper's procedure verbatim.

Runs 1-2 simulate every stage.  Runs 3-4 are demand-driven: a stress
run exists only to extract a delta where I/O clearly dominates, so for
each stage the fit first evaluates the guards that need no measurement —
the stage moves bytes on that role in its dominant direction, and the
role's I/O floor clears 1.3x the scale term fitted from runs 1-2 — and
simulates the stage at :data:`STRESS_CORES` (and cross-checks its request
sizes) only when both hold.  A stress stage whose makespan could not set
a delta is never simulated, so it cannot fail the profile either.  The
fitted constants are the same as simulating whole stress runs: each stage
runs on its own engine on a cluster no stage mutates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.calibration import (
    fit_io_delta,
    fit_scale_constants,
    sanity_check_not_io_bound,
)
from repro.errors import ProfilingError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import Cluster
    from repro.simulator.run import ApplicationMeasurement, StageMeasurement
    from repro.workloads.base import StageSpec, WorkloadSpec

# NOTE: cluster/simulator/workload imports happen lazily inside methods; the
# storage layer imports repro.core at module load, so eager imports here
# would create a cycle.

#: ``P`` for sample runs 1-2, the pair that solves ``t_avg`` and
#: ``delta_scale``.
CALIBRATION_CORES: tuple[int, int] = (1, 2)
#: ``P`` for the stress runs 3-4 (predictability threshold from HCloud [33]).
STRESS_CORES = 16


@dataclass(frozen=True)
class ChannelProfile:
    """Device-independent facts about one stage channel.

    ``request_size`` is what iostat observed; ``total_bytes`` is the
    stage-level volume.  Bandwidth is *not* stored — it depends on the
    device being predicted for and is looked up at prediction time.
    """

    kind: str
    role: str
    total_bytes: float
    request_size: float
    is_write: bool


@dataclass(frozen=True)
class StageProfileData:
    """Everything Equation 1 needs for one stage, minus target bandwidths.

    ``fill_seconds`` is the pipeline-fill latency of the I/O limit terms:
    ``t_avg`` for ordinary stages, ``t_avg / K`` for stages whose tasks
    stream their I/O in K chunks.
    """

    name: str
    num_tasks: int
    t_avg: float
    delta_scale: float
    delta_read: float
    delta_write: float
    channels: tuple[ChannelProfile, ...]
    fill_seconds: float = 0.0
    #: JVM GC coefficient (seconds per task per co-resident task), fitted
    #: from task metrics when the profiler runs with ``fit_gc=True``.
    gc_coeff: float = 0.0


@dataclass(frozen=True)
class SampleRun:
    """One profiling execution and its measurements.

    The ``measurement`` of runs 1-2 holds every stage; that of the stress
    runs 3-4 holds only the stages whose makespan could set a delta, in
    stage order (possibly none).
    """

    label: str
    cores_per_node: int
    hdfs_kind: str
    local_kind: str
    measurement: ApplicationMeasurement


@dataclass(frozen=True)
class ProfilingReport:
    """The output of :class:`Profiler.profile`: per-stage model constants."""

    workload_name: str
    nodes: int
    stages: tuple[StageProfileData, ...]
    #: The four runs with the procedure's labels, cores and disk kinds;
    #: runs 3-4 measured only the stages the delta fit read.
    sample_runs: tuple[SampleRun, ...] = field(default=())

    def stage(self, name: str) -> StageProfileData:
        """Look up one stage's profile."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise ProfilingError(f"{self.workload_name}: no profiled stage {name!r}")


def _channel_kinds() -> dict[str, str]:
    from repro.workloads.base import CHANNEL_KINDS

    return CHANNEL_KINDS


class Profiler:
    """Runs the four sample runs and fits every Equation-1 constant.

    Parameters
    ----------
    workload:
        The application to profile.
    nodes:
        ``N`` for the sample runs (the paper suggests a small 3).  Each
        run gets a fresh cluster of ``N`` Table-I-style nodes at
        :data:`CALIBRATION_CORES` or :data:`STRESS_CORES` cores each.
    """

    def __init__(
        self,
        workload: WorkloadSpec,
        nodes: int = 3,
        fit_gc: bool = False,
    ) -> None:
        if nodes <= 0:
            raise ProfilingError("profiling node count must be positive")
        self.workload = workload
        self.nodes = nodes
        #: With ``fit_gc=True`` the profiler reads per-task GC time from
        #: the sample runs' task metrics (as real Spark exposes it),
        #: removes the GC contribution from the scale-term calibration,
        #: and reports a per-stage ``gc_coeff`` (see :mod:`repro.core.gc`).
        self.fit_gc = fit_gc

    # -- public API ---------------------------------------------------------

    def profile(self) -> ProfilingReport:
        """Execute the four sample runs and fit the per-stage constants.

        Runs 1-2 simulate every stage; the stress runs 3-4 simulate a
        stage only when its makespan can set a delta (see the module
        docstring), so a stress stage the fit never reads cannot raise.
        """
        low, high = CALIBRATION_CORES
        run1 = self._run(f"sample-1 (P={low}, 2xSSD)", low, "ssd", "ssd")
        run2 = self._run(f"sample-2 (P={high}, 2xSSD)", high, "ssd", "ssd")
        run3 = _StressRun(f"sample-3 (P={STRESS_CORES}, local=HDD)",
                          self._cluster("ssd", "hdd"), "ssd", "hdd")
        run4 = _StressRun(f"sample-4 (P={STRESS_CORES}, HDFS=HDD)",
                          self._cluster("hdd", "ssd"), "hdd", "ssd")

        stages = []
        for spec in self.workload.stages:
            stages.append(self._fit_stage(spec, run1, run2, run3, run4))
        return ProfilingReport(
            workload_name=self.workload.name,
            nodes=self.nodes,
            stages=tuple(stages),
            sample_runs=(
                run1, run2,
                run3.sample_run(self.workload.name),
                run4.sample_run(self.workload.name),
            ),
        )

    # -- sample-run machinery ------------------------------------------------

    def _cluster(self, hdfs_kind: str, local_kind: str) -> Cluster:
        """A fresh profiling cluster with the given device kinds."""
        from repro.cluster.cluster import HybridDiskConfig, make_paper_cluster

        config = HybridDiskConfig(0, hdfs_kind=hdfs_kind, local_kind=local_kind)
        return make_paper_cluster(num_slaves=self.nodes, config=config)

    def _run(self, label: str, cores: int, hdfs_kind: str, local_kind: str) -> SampleRun:
        from repro.workloads.runner import measure_workload

        cluster = self._cluster(hdfs_kind, local_kind)
        measurement = measure_workload(cluster, cores, self.workload)
        for spec in self.workload.stages:
            self._cross_check_request_sizes(
                cluster, spec, measurement.stage(spec.name)
            )
        return SampleRun(
            label=label,
            cores_per_node=cores,
            hdfs_kind=hdfs_kind,
            local_kind=local_kind,
            measurement=measurement,
        )

    def _cross_check_request_sizes(
        self, cluster: Cluster, spec: StageSpec, measured: StageMeasurement
    ) -> None:
        """Verify one stage's iostat-observed request sizes agree with the spec's.

        On a real deployment the spec's request sizes would *come from*
        iostat; here both exist, so the profiler checks they agree within
        20 % (byte-weighted, per stage/kind) and refuses to fit otherwise.
        """
        role_of_device = _device_roles(cluster)
        for kind, (_, spec_rs) in spec.channel_summary().items():
            role = _channel_kinds()[kind]
            is_write = kind.endswith("_write")
            observed = _observed_request_size(measured, role_of_device, role, is_write)
            if observed is None:
                continue
            if not 0.8 <= observed / spec_rs <= 1.25:
                raise ProfilingError(
                    f"stage {spec.name} channel {kind}: iostat request size"
                    f" {observed:.0f}B disagrees with the spec's {spec_rs:.0f}B"
                )

    # -- fitting -------------------------------------------------------------

    def _fit_stage(
        self,
        spec: StageSpec,
        run1: SampleRun,
        run2: SampleRun,
        run3: _StressRun,
        run4: _StressRun,
    ) -> StageProfileData:
        time1 = run1.measurement.stage(spec.name).makespan
        time2 = run2.measurement.stage(spec.name).makespan
        self._sanity_check(spec, run1, time1)
        self._sanity_check(spec, run2, time2)
        gc_coeff = 0.0
        if self.fit_gc:
            # The task metric reports gc_coeff * P per task; read it from
            # run 1 (P = CALIBRATION_CORES[0]) and correct the measured
            # stage times by the P-independent GC term M * gc / N before
            # fitting t_avg and delta_scale.
            metric = run1.measurement.stage(spec.name).avg_gc_seconds
            gc_coeff = metric / run1.cores_per_node
            gc_term = spec.num_tasks * gc_coeff / self.nodes
            time1 = max(time1 - gc_term, 0.0)
            time2 = max(time2 - gc_term, 0.0)
        calibration = fit_scale_constants(
            num_tasks=spec.num_tasks,
            nodes=self.nodes,
            point_a=(run1.cores_per_node, time1),
            point_b=(run2.cores_per_node, time2),
        )
        channels = tuple(
            ChannelProfile(
                kind=kind,
                role=_channel_kinds()[kind],
                total_bytes=total,
                request_size=request_size,
                is_write=kind.endswith("_write"),
            )
            for kind, (total, request_size) in sorted(spec.channel_summary().items())
        )
        fill_seconds = calibration.t_avg / spec.max_stream_chunks
        delta_read_local, delta_write_local = self._fit_deltas(
            spec, run3, "local", calibration.t_avg, calibration.delta_scale,
            channels, fill_seconds, gc_coeff
        )
        delta_read_hdfs, delta_write_hdfs = self._fit_deltas(
            spec, run4, "hdfs", calibration.t_avg, calibration.delta_scale,
            channels, fill_seconds, gc_coeff
        )
        return StageProfileData(
            name=spec.name,
            num_tasks=spec.num_tasks,
            t_avg=calibration.t_avg,
            delta_scale=calibration.delta_scale,
            delta_read=max(delta_read_local, delta_read_hdfs),
            delta_write=max(delta_write_local, delta_write_hdfs),
            channels=channels,
            fill_seconds=fill_seconds,
            gc_coeff=gc_coeff,
        )

    def _sanity_check(self, spec: StageSpec, run: SampleRun, measured: float) -> None:
        cluster = self._cluster(run.hdfs_kind, run.local_kind)
        for kind, (total, request_size) in spec.channel_summary().items():
            role = _channel_kinds()[kind]
            is_write = kind.endswith("_write")
            device = cluster.slaves[0].device_for(role)
            bandwidth = device.bandwidth(request_size, is_write)
            sanity_check_not_io_bound(
                measured_seconds=measured,
                total_bytes=total,
                nodes=self.nodes,
                bandwidth=bandwidth,
                label=f"{spec.name}/{kind} in {run.label}",
            )

    def _fit_deltas(
        self,
        spec: StageSpec,
        run: _StressRun,
        role: str,
        t_avg: float,
        delta_scale: float,
        channels: tuple[ChannelProfile, ...],
        fill_seconds: float,
        gc_coeff: float = 0.0,
    ) -> tuple[float, float]:
        """delta_read/delta_write from a stress run, for one device role.

        Returns ``(0, 0)`` when the stage was not I/O-bound on that role in
        the stress run (the scale term explains the measurement).  The
        guards that need no measurement come first; the stage is simulated
        on the stress run only when they pass.
        """
        predicted_scale = (
            spec.num_tasks / (self.nodes * STRESS_CORES) * t_avg
            + spec.num_tasks * gc_coeff / self.nodes
            + delta_scale
        )
        device = run.cluster.slaves[0].device_for(role)

        floors = {False: 0.0, True: 0.0}
        totals = {False: 0.0, True: 0.0}
        for channel in channels:
            if channel.role != role:
                continue
            bandwidth = device.bandwidth(channel.request_size, channel.is_write)
            floors[channel.is_write] += channel.total_bytes / (self.nodes * bandwidth)
            totals[channel.is_write] += channel.total_bytes
        dominant_is_write = floors[True] > floors[False]
        if totals[dominant_is_write] <= 0.0:
            # The stage moves no bytes on this role; tiny stages can still
            # clear the floor test below on fill time alone, so bail out
            # before fitting a delta against a zero-byte channel.
            return (0.0, 0.0)
        floor = floors[dominant_is_write] + fill_seconds  # limit term + fill
        # Fit a delta only when the I/O floor *clearly* dominates the scale
        # term in the stress run: near the crossover the measurement mixes
        # both effects and the residual is not the paper's "linear part"
        # constant — applying it to fast-disk predictions would mislead.
        if floor <= predicted_scale * 1.3:
            return (0.0, 0.0)
        measured = self._stress_makespan(run, spec)
        if measured <= predicted_scale * 1.05:
            return (0.0, 0.0)
        total = totals[dominant_is_write]
        delta = fit_io_delta(
            measured_seconds=measured - fill_seconds,
            total_bytes=total,
            nodes=self.nodes,
            bandwidth=total / (self.nodes * floors[dominant_is_write]),
        )
        if dominant_is_write:
            return (0.0, delta)
        return (delta, 0.0)

    def _stress_makespan(self, run: _StressRun, spec: StageSpec) -> float:
        """Simulate one stage on a stress run, cross-check it, record it."""
        from repro.workloads.runner import measure_stage

        measured = measure_stage(run.cluster, STRESS_CORES, spec)
        self._cross_check_request_sizes(run.cluster, spec, measured)
        run.stages.append(measured)
        return measured.makespan


@dataclass
class _StressRun:
    """Sample run 3 or 4 while the fit fills it in, one stage at a time."""

    label: str
    cluster: Cluster
    hdfs_kind: str
    local_kind: str
    stages: list[StageMeasurement] = field(default_factory=list)

    def sample_run(self, workload_name: str) -> SampleRun:
        """The finished run: the stages the fit simulated, in stage order."""
        from repro.simulator.run import ApplicationMeasurement

        return SampleRun(
            label=self.label,
            cores_per_node=STRESS_CORES,
            hdfs_kind=self.hdfs_kind,
            local_kind=self.local_kind,
            measurement=ApplicationMeasurement(
                name=workload_name, stages=tuple(self.stages)
            ),
        )


def _device_roles(cluster: Cluster) -> dict[str, str]:
    """Map device names to their role on the profiling cluster."""
    roles: dict[str, str] = {}
    for node in cluster.slaves:
        roles[node.hdfs_device.name] = "hdfs"
        roles[node.local_device.name] = "local"
    return roles


def _observed_request_size(
    measured, role_of_device: dict[str, str], role: str, is_write: bool
) -> float | None:
    """Byte-weighted request size iostat saw on one role/direction."""
    total_bytes = 0.0
    total_requests = 0.0
    for sample in measured.iostat_samples:
        if sample.is_write != is_write:
            continue
        if role_of_device.get(sample.device_name) != role:
            continue
        total_bytes += sample.total_bytes
        total_requests += sample.num_requests
    if total_requests == 0.0:
        return None
    return total_bytes / total_requests
