"""Workload sources: every input format resolves to one canonical pair.

The paper's loop — profile, model, validate, optimize — historically had
three separate entry paths in this library: hand-written
:class:`~repro.workloads.base.WorkloadSpec` objects, functional RDD
programs executed on a :class:`~repro.spark.context.DoppioContext`, and
serialized :class:`~repro.core.profiler.ProfilingReport` JSON files.  A
:class:`WorkloadSource` unifies them: each resolves into a
:class:`ResolvedWorkload` holding

- a **spec** — the simulatable description (the "exp" side), and
- a **report** — the fitted Equation-1 constants (the "model" side),

plus content fingerprints for the result cache.  Resolution is the only
potentially expensive step (profiling a spec simulates two whole sample
runs and the stress-run stages that can set a delta); it consults the
cache when one is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.core.profiler import (
    CALIBRATION_CORES,
    STRESS_CORES,
    Profiler,
    ProfilingReport,
    StageProfileData,
)
from repro.core.serialization import load_report, report_to_dict
from repro.errors import WorkloadError
from repro.pipeline.fingerprint import fingerprint
from repro.spark.stageinfo import StageRuntimeProfile, profiles_to_workload
from repro.storage.device import make_ssd
from repro.workloads.base import (
    CHANNEL_KINDS,
    ChannelSpec,
    StageSpec,
    TaskGroupSpec,
    WorkloadSpec,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.cache import ResultCache


@dataclass(frozen=True)
class ResolvedWorkload:
    """The canonical (spec, report) pair every source resolves to."""

    spec: WorkloadSpec
    report: ProfilingReport
    spec_fingerprint: str
    report_fingerprint: str


@runtime_checkable
class WorkloadSource(Protocol):
    """Anything that can resolve into a canonical spec + profile pair."""

    def describe(self) -> str:
        """Human-readable one-liner for reports and CLI output."""
        ...

    def resolve(self, cache: ResultCache | None = None) -> ResolvedWorkload:
        """Produce the canonical pair (cached where possible)."""
        ...


class SpecSource:
    """A hand-written workload spec; the profile is fitted on demand.

    Parameters
    ----------
    spec:
        The workload to resolve.
    profile_nodes:
        ``N`` for the four-sample-run profiling procedure (paper: 3).
    fit_gc:
        Also fit the JVM GC coefficient (see :class:`Profiler`).
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        profile_nodes: int = 3,
        fit_gc: bool = False,
    ) -> None:
        self.spec = spec
        self.profile_nodes = profile_nodes
        self.fit_gc = fit_gc
        self._spec_fp = fingerprint(spec)
        self._resolved: ResolvedWorkload | None = None

    def describe(self) -> str:
        return f"spec:{self.spec.name}"

    def spec_only(self) -> tuple[WorkloadSpec, str]:
        """The simulatable half without triggering profiling."""
        return self.spec, self._spec_fp

    @property
    def report_key(self) -> str:
        """The :class:`ResultCache` key its profiling report is stored under.

        Its ``-cal1-2-stress16`` tail is constant; it stays so that
        existing cache files keep hitting.
        """
        low, high = CALIBRATION_CORES
        return (
            f"{self._spec_fp}/profile-N{self.profile_nodes}-gc{int(self.fit_gc)}"
            f"-cal{low}-{high}-stress{STRESS_CORES}"
        )

    def resolve(self, cache: ResultCache | None = None) -> ResolvedWorkload:
        if self._resolved is not None:
            return self._resolved
        key = self.report_key
        report = cache.get_report(key) if cache is not None else None
        if report is None:
            report = Profiler(
                self.spec, nodes=self.profile_nodes, fit_gc=self.fit_gc
            ).profile()
            if cache is not None:
                cache.put_report(key, report)
        self._resolved = ResolvedWorkload(
            spec=self.spec,
            report=report,
            spec_fingerprint=self._spec_fp,
            report_fingerprint=fingerprint(report_to_dict(report)),
        )
        return self._resolved


class ResolvedSource:
    """An already-matched (spec, report) pair — resolution is free.

    The adapter for callers that profiled up front (sweeps, benchmarks
    holding session-scoped fixtures): no re-profiling, no cache traffic.
    """

    def __init__(self, spec: WorkloadSpec, report: ProfilingReport) -> None:
        self._resolved = ResolvedWorkload(
            spec=spec,
            report=report,
            spec_fingerprint=fingerprint(spec),
            report_fingerprint=fingerprint(report_to_dict(report)),
        )

    def describe(self) -> str:
        return f"resolved:{self._resolved.spec.name}"

    def spec_only(self) -> tuple[WorkloadSpec, str]:
        return self._resolved.spec, self._resolved.spec_fingerprint

    def resolve(self, cache: ResultCache | None = None) -> ResolvedWorkload:
        return self._resolved


class RddSource(SpecSource):
    """A functional RDD program's recorded stage profiles.

    Accepts either a :class:`~repro.spark.context.DoppioContext` (its
    ``stage_profiles`` are snapshotted) or an explicit profile list, turns
    them into a workload spec via
    :func:`~repro.spark.stageinfo.profiles_to_workload`, and then behaves
    like a :class:`SpecSource` — closing the loop from *running a real
    (small) application* to *modeling it at scale*.
    """

    def __init__(
        self,
        name: str,
        program,
        profile_nodes: int = 3,
        fit_gc: bool = False,
        **spec_kwargs,
    ) -> None:
        profiles = getattr(program, "stage_profiles", program)
        if not isinstance(profiles, (list, tuple)) or not all(
            isinstance(profile, StageRuntimeProfile) for profile in profiles
        ):
            raise WorkloadError(
                "RddSource needs a DoppioContext or a list of"
                " StageRuntimeProfile records"
            )
        spec = profiles_to_workload(name, list(profiles), **spec_kwargs)
        super().__init__(spec, profile_nodes=profile_nodes, fit_gc=fit_gc)

    def describe(self) -> str:
        return f"rdd:{self.spec.name}"


class ReportSource:
    """A fitted profiling report (object or JSON path).

    The report *is* the model side; the simulatable spec is reconstructed
    by :func:`spec_from_report` (a replay approximation — per-channel
    software caps are not stored in reports, so replayed "exp" makespans
    are close to but not bit-identical with the original spec's).
    """

    def __init__(self, report: ProfilingReport | str | Path) -> None:
        if isinstance(report, (str, Path)):
            report = load_report(report)
        self.report = report
        self._report_fp = fingerprint(report_to_dict(report))
        self._resolved: ResolvedWorkload | None = None

    def describe(self) -> str:
        return f"report:{self.report.workload_name}"

    def spec_only(self) -> tuple[WorkloadSpec, str]:
        resolved = self.resolve()
        return resolved.spec, resolved.spec_fingerprint

    def resolve(self, cache: ResultCache | None = None) -> ResolvedWorkload:
        if self._resolved is None:
            spec = spec_from_report(self.report)
            self._resolved = ResolvedWorkload(
                spec=spec,
                report=self.report,
                spec_fingerprint=fingerprint(spec),
                report_fingerprint=self._report_fp,
            )
        return self._resolved


def spec_from_report(report: ProfilingReport) -> WorkloadSpec:
    """Reconstruct a simulatable workload spec from fitted constants.

    Per stage: one task group of ``M`` tasks whose channels carry the
    profiled per-task bytes at the profiled request sizes.  The compute
    phase is ``t_avg`` minus the per-task I/O time on the calibration
    (SSD) devices — the operating point ``t_avg`` was fitted at — and the
    stream-chunk count is recovered from ``fill_seconds = t_avg / K``.
    """
    stages = []
    for stage in report.stages:
        stages.append(
            StageSpec(
                name=stage.name,
                groups=(_group_from_profile(stage),),
            )
        )
    return WorkloadSpec(
        name=report.workload_name,
        stages=tuple(stages),
        description=f"replayed from a profiling report (N={report.nodes})",
    )


def _group_from_profile(stage: StageProfileData) -> TaskGroupSpec:
    if stage.num_tasks <= 0:
        raise WorkloadError(f"stage {stage.name}: report has no tasks")
    reference = make_ssd()
    reads: list[ChannelSpec] = []
    writes: list[ChannelSpec] = []
    io_seconds = 0.0
    for channel in stage.channels:
        if channel.kind not in CHANNEL_KINDS:
            raise WorkloadError(
                f"stage {stage.name}: unknown channel kind {channel.kind!r}"
            )
        per_task = channel.total_bytes / stage.num_tasks
        if per_task <= 0:
            continue
        spec_channel = ChannelSpec(
            kind=channel.kind,
            bytes_per_task=per_task,
            request_size=channel.request_size,
        )
        io_seconds += per_task / reference.bandwidth(
            channel.request_size, channel.is_write
        )
        (writes if spec_channel.is_write else reads).append(spec_channel)
    stream_chunks = 1
    if stage.fill_seconds > 0 and stage.t_avg > 0:
        chunks = stage.t_avg / stage.fill_seconds
        if not math.isfinite(chunks):
            raise WorkloadError(
                f"stage {stage.name}: fill time {stage.fill_seconds} is too"
                f" small a share of t_avg {stage.t_avg}"
            )
        stream_chunks = max(1, round(chunks))
    return TaskGroupSpec(
        name="tasks",
        count=stage.num_tasks,
        read_channels=tuple(reads),
        compute_seconds=max(0.0, stage.t_avg - io_seconds),
        write_channels=tuple(writes),
        stream_chunks=stream_chunks,
        gc_coeff=stage.gc_coeff,
    )


def as_source(obj, name: str | None = None) -> WorkloadSource:
    """Coerce any of the supported inputs into a :class:`WorkloadSource`.

    Accepts an existing source, a :class:`WorkloadSpec`, a
    :class:`DoppioContext` (or profile list), a :class:`ProfilingReport`,
    or a path to a report JSON file.
    """
    if isinstance(obj, (SpecSource, ReportSource, ResolvedSource)):
        return obj
    if isinstance(obj, WorkloadSpec):
        return SpecSource(obj)
    if isinstance(obj, ProfilingReport):
        return ReportSource(obj)
    if isinstance(obj, (str, Path)):
        return ReportSource(obj)
    if hasattr(obj, "stage_profiles") or (
        isinstance(obj, (list, tuple))
        and obj
        and isinstance(obj[0], StageRuntimeProfile)
    ):
        return RddSource(name or "rdd-app", obj)
    if isinstance(obj, WorkloadSource):
        return obj
    raise WorkloadError(
        f"cannot build a workload source from {type(obj).__name__}; expected"
        " a WorkloadSpec, DoppioContext, ProfilingReport, report path, or"
        " WorkloadSource"
    )
