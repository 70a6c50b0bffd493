"""Profiling-report persistence: profile once, predict forever.

The four sample runs are the expensive part of the workflow (on a real
cluster they cost four application executions).  These helpers serialize a
:class:`~repro.core.profiler.ProfilingReport` to plain JSON — everything
Equation 1 needs, nothing environment-specific — so a report captured
today parameterizes predictions in any later session, host, or CI job.

Sample-run measurements are deliberately *not* serialized: they are raw
evidence, not model constants, and contain no information the fitted
constants do not.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.core.profiler import ChannelProfile, ProfilingReport, StageProfileData
from repro.errors import ModelError

#: Format marker for forward compatibility.
FORMAT_VERSION = 1


def report_to_dict(report: ProfilingReport) -> dict:
    """Plain-dict form of a profiling report (JSON-ready)."""
    return {
        "format_version": FORMAT_VERSION,
        "workload_name": report.workload_name,
        "nodes": report.nodes,
        "stages": [
            {
                "name": stage.name,
                "num_tasks": stage.num_tasks,
                "t_avg": stage.t_avg,
                "delta_scale": stage.delta_scale,
                "delta_read": stage.delta_read,
                "delta_write": stage.delta_write,
                "fill_seconds": stage.fill_seconds,
                "gc_coeff": stage.gc_coeff,
                "channels": [
                    {
                        "kind": channel.kind,
                        "role": channel.role,
                        "total_bytes": channel.total_bytes,
                        "request_size": channel.request_size,
                        "is_write": channel.is_write,
                    }
                    for channel in stage.channels
                ],
            }
            for stage in report.stages
        ],
    }


def _number(record: dict, key: str) -> float:
    """``record[key]`` as a finite float (NaN, ±inf and integers past the
    float range are refused)."""
    value = float(record[key])
    if not math.isfinite(value):
        raise ModelError(f"profiling-report field {key} must be finite: {value}")
    return value


def _integer(record: dict, key: str) -> int:
    """``record[key]`` as an int, refused as :func:`_number` refuses."""
    _number(record, key)
    return int(record[key])


def _text(record: dict, key: str) -> str:
    """``record[key]``, which must be a string."""
    value = record[key]
    if not isinstance(value, str):
        raise ModelError(
            f"profiling-report field {key} must be a string:"
            f" {type(value).__name__}"
        )
    return value


def report_from_dict(data: dict) -> ProfilingReport:
    """Rebuild a report from :func:`report_to_dict` output.

    Every float field must be finite, and the workload, stage and channel
    names must be strings; anything else is a :class:`ModelError`.
    """
    try:
        version = data["format_version"]
        if version != FORMAT_VERSION:
            raise ModelError(
                f"unsupported profiling-report format {version};"
                f" this library reads version {FORMAT_VERSION}"
            )
        stages = tuple(
            StageProfileData(
                name=_text(stage, "name"),
                num_tasks=_integer(stage, "num_tasks"),
                t_avg=_number(stage, "t_avg"),
                delta_scale=_number(stage, "delta_scale"),
                delta_read=_number(stage, "delta_read"),
                delta_write=_number(stage, "delta_write"),
                fill_seconds=_number(stage, "fill_seconds"),
                gc_coeff=_number(stage, "gc_coeff") if "gc_coeff" in stage else 0.0,
                channels=tuple(
                    ChannelProfile(
                        kind=_text(channel, "kind"),
                        role=_text(channel, "role"),
                        total_bytes=_number(channel, "total_bytes"),
                        request_size=_number(channel, "request_size"),
                        is_write=bool(channel["is_write"]),
                    )
                    for channel in stage["channels"]
                ),
            )
            for stage in data["stages"]
        )
        return ProfilingReport(
            workload_name=_text(data, "workload_name"),
            nodes=_integer(data, "nodes"),
            stages=stages,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelError(f"malformed profiling-report data: {exc}") from exc


def save_report(report: ProfilingReport, path: str | Path) -> None:
    """Write a report to a JSON file."""
    Path(path).write_text(json.dumps(report_to_dict(report), indent=2))


def load_report(path: str | Path) -> ProfilingReport:
    """Read a report from a JSON file.

    An unreadable file, bad JSON (an integer past Python's digit limit
    included) or JSON nested too deeply to parse is a :class:`ModelError`.
    """
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ModelError(f"cannot read profiling report {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise ModelError(f"profiling report {path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ModelError(
            f"profiling report {path} is nested too deeply to parse"
        ) from None
    return report_from_dict(data)
