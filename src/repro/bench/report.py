"""Trajectory report: per-metric sparklines over the bench history.

``python -m repro bench --report`` renders the append-only
``BENCH_history.jsonl`` as a compact terminal view: one sparkline per
numeric metric showing its trajectory across records, labeled with the
git SHA of each record so a drift is attributable to a commit range at
a glance.

Records are **partitioned by fingerprint key** (the same
host identity the gate policy scopes to): a laptop's
timings and CI's timings never share a sparkline, for the same reason
they never share a band gate.  Within a partition, a record that lacks
a section or metric (partial ``--sections`` runs are normal) renders as
a gap (``·``) rather than breaking the series.
"""

from __future__ import annotations

from repro.bench.history import fingerprint_key

__all__ = ["flatten_metrics", "render_history_report", "sparkline"]

#: Eight-level bar glyphs, lowest to highest.
SPARK_CHARS = "▁▂▃▄▅▆▇█"

#: A record missing this metric (partial-section run) renders as a gap.
GAP_CHAR = "·"

#: At most this many newest records per fingerprint partition.
MAX_COLUMNS = 16

#: Per-round raw lists and similar non-scalar leaves are skipped; these
#: metric name suffixes are explicitly excluded even when numeric.
_SKIP_SUFFIXES = ("wall_seconds_all",)


def flatten_metrics(section: dict, prefix: str = "") -> dict[str, float]:
    """Numeric leaves of a section's metrics dict, under dotted paths."""
    flat: dict[str, float] = {}
    for name, value in section.items():
        path = f"{prefix}{name}"
        if isinstance(value, dict):
            flat.update(flatten_metrics(value, prefix=f"{path}."))
        elif isinstance(value, bool):
            continue
        elif isinstance(value, (int, float)):
            if not path.endswith(_SKIP_SUFFIXES):
                flat[path] = float(value)
    return flat


def sparkline(values: list[float | None]) -> str:
    """Min-max-normalized bar string; ``None`` entries become gaps."""
    present = [value for value in values if value is not None]
    if not present:
        return GAP_CHAR * len(values)
    low, high = min(present), max(present)
    span = high - low
    chars = []
    for value in values:
        if value is None:
            chars.append(GAP_CHAR)
        elif span == 0:
            chars.append(SPARK_CHARS[len(SPARK_CHARS) // 2])
        else:
            level = int((value - low) / span * (len(SPARK_CHARS) - 1))
            chars.append(SPARK_CHARS[level])
    return "".join(chars)


def _fmt(value: float | None) -> str:
    return "-" if value is None else f"{value:.4g}"


def render_history_report(records: list[dict], path=None) -> str:
    """The full ``bench --report`` text for a loaded history."""
    lines = []
    source = f" in {path}" if path is not None else ""
    lines.append(f"bench history: {len(records)} record(s){source}")
    if not records:
        lines.append("  (no records yet — run `repro bench` to seed one)")
        return "\n".join(lines)

    partitions: dict[str, list[dict]] = {}
    for record in records:
        key = record.get("fingerprint_key") or fingerprint_key(
            record.get("fingerprint", {})
        )
        partitions.setdefault(key, []).append(record)

    for key, group in partitions.items():
        group = group[-MAX_COLUMNS:]
        lines.append("")
        lines.append(f"fingerprint {key} — {len(group)} record(s)")
        shas = [str(record.get("git_sha", "unknown"))[:7] for record in group]
        lines.append(f"  sha: {' '.join(shas)}")

        # Union of section names / metric paths, in first-seen order.
        section_names: list[str] = []
        metric_paths: dict[str, list[str]] = {}
        for record in group:
            for name, metrics in record.get("sections", {}).items():
                if name not in section_names:
                    section_names.append(name)
                    metric_paths[name] = []
                for metric in flatten_metrics(metrics):
                    if metric not in metric_paths[name]:
                        metric_paths[name].append(metric)

        width = max(
            (
                len(f"{name}.{metric}")
                for name in section_names
                for metric in metric_paths[name]
            ),
            default=0,
        )
        for name in section_names:
            for metric in metric_paths[name]:
                series: list[float | None] = []
                for record in group:
                    metrics = record.get("sections", {}).get(name)
                    series.append(
                        flatten_metrics(metrics).get(metric)
                        if isinstance(metrics, dict)
                        else None
                    )
                present = [value for value in series if value is not None]
                first, last = present[0], present[-1]
                label = f"{name}.{metric}"
                lines.append(
                    f"  {label:<{width}}  {sparkline(series)}"
                    f"  {_fmt(first)} -> {_fmt(last)}"
                )
    return "\n".join(lines)
