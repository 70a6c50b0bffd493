"""Statistical regression detection against the rolling bench history.

Each :class:`MetricGate` names one metric inside a section's record (a
dotted path, e.g. ``"grid.warm_wall_seconds"``) and how to judge it:

- ``"lower"`` / ``"higher"`` — noisy quantities (wall times, rates,
  speedups).  The fresh value is compared against the **median of the
  last K** matching history records; drifting past ``warn_ratio`` of
  the median is a ``warn``, past ``fail_ratio`` a ``fail``.  Matching
  is partitioned by host fingerprint (see
  :func:`repro.bench.history.fingerprint_key`) so a 1-CPU CI runner is
  never judged against multi-core dev-host history.  With fewer than
  ``GatePolicy.min_history`` matching records the gate passes with a
  thin-history note — the section's absolute floors (its ``guards``)
  still apply, which is the fallback the monolith's fixed thresholds
  used to provide.
- ``"exact"`` — deterministic quantities (simulated makespans, the
  search optimum).  The engine is deterministic across hosts, so
  these compare against the most recent history record that carries
  the metric, regardless of fingerprint, within ``rel_tolerance``.
  Any divergence is a ``fail``: simulation output changed, which is a
  correctness event, not noise.

Verdicts are structured (:class:`Verdict`) so the CLI can render them,
``--json`` can emit them, and CI can annotate warns while failing only
on fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median
from typing import Any


@dataclass(frozen=True)
class MetricGate:
    """How one metric of a section is judged against history."""

    metric: str
    direction: str  # "lower" | "higher" | "exact"
    warn_ratio: float = 2.0
    fail_ratio: float = 4.0
    rel_tolerance: float = 1e-9  # exact gates only
    fingerprint_scoped: bool = True

    def __post_init__(self) -> None:
        if self.direction not in ("lower", "higher", "exact"):
            raise ValueError(f"unknown gate direction {self.direction!r}")
        if self.direction != "exact" and not (
            1.0 < self.warn_ratio <= self.fail_ratio
        ):
            raise ValueError(
                "gate ratios must satisfy 1 < warn_ratio <= fail_ratio"
            )


@dataclass(frozen=True)
class GatePolicy:
    """Window sizing for the rolling comparison."""

    window: int = 5  # median-of-last-K
    min_history: int = 3  # fewer matching records -> thin-history pass


@dataclass(frozen=True)
class Verdict:
    """One gate's structured outcome."""

    section: str
    metric: str
    status: str  # "pass" | "warn" | "fail" | "skip"
    value: Any = None
    reference: Any = None
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "section": self.section,
            "metric": self.metric,
            "status": self.status,
            "value": self.value,
            "reference": self.reference,
            "detail": self.detail,
        }

    def describe(self) -> str:
        line = f"[{self.status.upper()}] {self.section}.{self.metric}"
        return f"{line}: {self.detail}" if self.detail else line


def metric_value(metrics: dict, path: str) -> Any:
    """Resolve a dotted path inside a metrics mapping (None if absent)."""
    value: Any = metrics
    for part in path.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return value


def _matching_values(
    gate: MetricGate,
    section_name: str,
    history: list[dict],
    fingerprint: str | None,
) -> list[Any]:
    """The gate's metric, extracted from matching records, oldest first."""
    values = []
    for record in history:
        if gate.fingerprint_scoped and fingerprint is not None:
            if record.get("fingerprint_key") != fingerprint:
                continue
        metrics = record.get("sections", {}).get(section_name)
        if metrics is None:
            continue
        value = metric_value(metrics, gate.metric)
        if value is not None:
            values.append(value)
    return values


def _exact_equal(fresh: Any, reference: Any, rel: float) -> bool:
    if isinstance(fresh, (int, float)) and isinstance(reference, (int, float)):
        a, b = float(fresh), float(reference)
        return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)
    if isinstance(fresh, (list, tuple)) and isinstance(reference, (list, tuple)):
        return len(fresh) == len(reference) and all(
            _exact_equal(f, r, rel) for f, r in zip(fresh, reference)
        )
    return fresh == reference


def _judge_band(
    gate: MetricGate, fresh: float, reference: float
) -> tuple[str, str]:
    """(status, detail) of a noisy metric vs its history median."""
    if gate.direction == "lower":
        warn_at, fail_at = reference * gate.warn_ratio, reference * gate.fail_ratio
        if fresh > fail_at:
            return "fail", (
                f"{fresh:g} exceeds {gate.fail_ratio:g}x the rolling median"
                f" {reference:g}"
            )
        if fresh > warn_at:
            return "warn", (
                f"{fresh:g} exceeds {gate.warn_ratio:g}x the rolling median"
                f" {reference:g}"
            )
    else:  # higher is better
        warn_at, fail_at = reference / gate.warn_ratio, reference / gate.fail_ratio
        if fresh < fail_at:
            return "fail", (
                f"{fresh:g} is below 1/{gate.fail_ratio:g} of the rolling"
                f" median {reference:g}"
            )
        if fresh < warn_at:
            return "warn", (
                f"{fresh:g} is below 1/{gate.warn_ratio:g} of the rolling"
                f" median {reference:g}"
            )
    return "pass", f"{fresh:g} within the noise band of median {reference:g}"


def evaluate_gate(
    gate: MetricGate,
    section_name: str,
    metrics: dict,
    history: list[dict],
    fingerprint: str | None,
    policy: GatePolicy,
) -> Verdict:
    """Judge one metric; always returns a verdict (possibly ``skip``)."""
    fresh = metric_value(metrics, gate.metric)
    if fresh is None:
        return Verdict(
            section_name, gate.metric, "skip",
            detail="metric absent from this run",
        )
    matching = _matching_values(gate, section_name, history, fingerprint)

    if gate.direction == "exact":
        if not matching:
            return Verdict(
                section_name, gate.metric, "pass", fresh, None,
                "no prior record to compare against",
            )
        reference = matching[-1]
        if _exact_equal(fresh, reference, gate.rel_tolerance):
            return Verdict(
                section_name, gate.metric, "pass", fresh, reference,
                "matches the last recorded value",
            )
        return Verdict(
            section_name, gate.metric, "fail", fresh, reference,
            f"deterministic metric changed: {fresh!r} vs recorded"
            f" {reference!r}",
        )

    if len(matching) < policy.min_history:
        return Verdict(
            section_name, gate.metric, "pass", fresh, None,
            f"thin history ({len(matching)} < {policy.min_history}"
            " matching records); absolute floors apply",
        )
    reference = median(float(v) for v in matching[-policy.window:])
    status, detail = _judge_band(gate, float(fresh), reference)
    return Verdict(section_name, gate.metric, status, fresh, reference, detail)


def evaluate_section(
    section_name: str,
    gates: tuple[MetricGate, ...],
    metrics: dict,
    history: list[dict],
    fingerprint: str | None,
    policy: GatePolicy | None = None,
) -> list[Verdict]:
    """All of one section's gate verdicts against the rolling history."""
    policy = policy or GatePolicy()
    return [
        evaluate_gate(gate, section_name, metrics, history, fingerprint, policy)
        for gate in gates
    ]
