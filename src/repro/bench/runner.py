"""Orchestration behind ``python -m repro bench``.

:func:`run_bench` runs the selected sections, judges every metric gate
against the rolling history, folds the sections' absolute floors into
the same verdict stream (metric ``"guard"``, always a fail), and hands
back a :class:`BenchReport`.  Persistence — appending the history
record, rotating, writing the snapshot — is the caller's business, so
the runner is equally usable from the CLI and from tests.

:func:`compose_snapshot` rebuilds the ``BENCH_simulator.json`` view
from per-section metrics: the ``engine`` section's metrics form the
top level (the historical shape), every other section sits under its
``snapshot_key``.  Passing the previously-written snapshot as
``existing`` lets a partial ``--sections`` run refresh only the
sections it actually ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.gates import GatePolicy, Verdict, evaluate_section
from repro.bench.history import (
    BenchHistory,
    fingerprint_key,
    host_fingerprint,
    make_record,
)
from repro.bench.registry import BenchmarkSection, all_sections


@dataclass
class BenchReport:
    """Everything one bench run produced."""

    sections: dict[str, dict]
    verdicts: list[Verdict]
    fingerprint: dict
    rounds: int
    record: dict = field(default_factory=dict)

    @property
    def failures(self) -> list[Verdict]:
        return [v for v in self.verdicts if v.status == "fail"]

    @property
    def warnings(self) -> list[Verdict]:
        return [v for v in self.verdicts if v.status == "warn"]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "sections": self.sections,
            "verdicts": [v.to_dict() for v in self.verdicts],
            "fingerprint": self.fingerprint,
            "fingerprint_key": fingerprint_key(self.fingerprint),
            "rounds": self.rounds,
            "ok": self.ok,
        }


def run_bench(
    sections: list[BenchmarkSection] | None = None,
    rounds: int = 3,
    history: BenchHistory | None = None,
    policy: GatePolicy | None = None,
) -> BenchReport:
    """Run sections, judge gates and floors, return the full report.

    ``history`` is only *read* here (for the gate comparisons); the
    caller decides whether the returned ``report.record`` gets
    appended.
    """
    sections = sections if sections is not None else all_sections()
    records = history.load() if history is not None else []
    fingerprint = host_fingerprint()
    fp_key = fingerprint_key(fingerprint)

    metrics_by_name: dict[str, dict] = {}
    verdicts: list[Verdict] = []
    for section in sections:
        metrics = section.run(rounds)
        metrics_by_name[section.name] = metrics
        for failure in section.guards(metrics):
            verdicts.append(Verdict(
                section.name, "guard", "fail", detail=failure,
            ))
        verdicts.extend(evaluate_section(
            section.name, section.gates, metrics, records, fp_key, policy,
        ))

    return BenchReport(
        sections=metrics_by_name,
        verdicts=verdicts,
        fingerprint=fingerprint,
        rounds=rounds,
        record=make_record(metrics_by_name, rounds, fingerprint),
    )


def compose_snapshot(
    section_metrics: dict[str, dict], existing: dict | None = None
) -> dict:
    """The ``BENCH_simulator.json`` view of per-section metrics.

    The ``engine`` section (``snapshot_key is None``) merges at the top
    level — that is the monolith's historical shape — and every other
    section sits under its key.  ``existing`` seeds the result so a
    subset run preserves the sections it did not touch.
    """
    keys = {
        section.name: section.snapshot_key for section in all_sections()
    }
    snapshot = dict(existing) if existing else {}
    for name, metrics in section_metrics.items():
        key = keys.get(name, name)
        if key is None:
            snapshot.update(metrics)
        else:
            snapshot[key] = metrics
    return snapshot
