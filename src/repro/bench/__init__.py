"""First-class benchmark subsystem: sections, history, regression gates.

Benchmarking used to live in one 745-line monolith script that
overwrote a single ``BENCH_simulator.json`` snapshot; the performance
trajectory (the 9.7x engine rewrite, the ~200x array kernel) was
invisible, and regressions were only caught by hand-tuned per-section
guards buried in one ``check()``.  This package promotes all of that to
a subsystem:

- :mod:`repro.bench.registry` — the :class:`BenchmarkSection` protocol
  and the plugin registry the CLI consumes;
- :mod:`repro.bench.sections` — the monolith's scenarios (engine, cache,
  search, resilience, parallel, vectorized) decomposed into registered
  sections, with every legacy guard threshold preserved as a
  section-level floor;
- :mod:`repro.bench.history` — the append-only ``BENCH_history.jsonl``
  store (one record per run: git SHA, timestamp, host fingerprint,
  per-section metrics) plus the atomic latest-snapshot writer that keeps
  ``BENCH_simulator.json`` as the compatibility view;
- :mod:`repro.bench.gates` — the statistical regression detector:
  median-of-last-K history comparison inside a noise band, partitioned
  by host fingerprint, with structured pass/warn/fail verdicts;
- :mod:`repro.bench.runner` — orchestration behind
  ``python -m repro bench`` (and ``--check`` gate-only mode).

See docs/BENCHMARKS.md for the history schema and how gates decide.
"""

from __future__ import annotations

from repro.bench.gates import GatePolicy, MetricGate, Verdict, evaluate_section
from repro.bench.history import (
    BenchHistory,
    fingerprint_key,
    host_fingerprint,
    write_snapshot,
)
from repro.bench.report import render_history_report
from repro.bench.registry import (
    BenchmarkSection,
    all_sections,
    register_section,
    resolve_sections,
    section_names,
)
from repro.bench.runner import BenchReport, compose_snapshot, run_bench

# Importing the module registers the built-in sections.
import repro.bench.sections  # noqa: E402,F401  (import for side effect)

__all__ = [
    "BenchHistory",
    "BenchReport",
    "BenchmarkSection",
    "GatePolicy",
    "MetricGate",
    "Verdict",
    "all_sections",
    "compose_snapshot",
    "evaluate_section",
    "fingerprint_key",
    "host_fingerprint",
    "register_section",
    "render_history_report",
    "resolve_sections",
    "run_bench",
    "section_names",
    "write_snapshot",
]
