"""The :class:`BenchmarkSection` protocol and its plugin registry.

A *section* is one self-contained benchmark scenario: it knows how to run
itself (``run(rounds) -> metrics``), where its metrics live in the legacy
``BENCH_simulator.json`` snapshot (``snapshot_key``), which hard floors
must hold on every run regardless of history (``guards``), and which
metrics the statistical regression detector tracks against the rolling
history (``gates``).  Sections register themselves at import time; the
CLI and the runner consume the same registry, so adding a benchmark is
one decorated declaration — no CLI or CI changes needed.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.bench.gates import MetricGate
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class BenchmarkSection:
    """One registered benchmark scenario.

    Parameters
    ----------
    name:
        Registry name (``--sections`` selector), e.g. ``"engine"``.
    title:
        One-line human description for ``bench --list``.
    snapshot_key:
        Where the metrics sit in the ``BENCH_simulator.json`` view:
        a top-level key (``"core_sweep"``) or ``None`` for the engine
        section, whose metrics historically *are* the snapshot's top
        level (merged in place for compatibility).
    run:
        ``run(rounds) -> dict`` producing the metrics.  Correctness
        assertions (bit-identity, exactness vs the scalar model) live
        inside ``run`` and fire on every invocation.
    guards:
        ``guards(metrics) -> list[str]``: the section's absolute floors
        — the legacy monolith's fresh-run guard thresholds.  They hold
        on every run, history or not, and double as the fallback when
        the rolling history is too thin for statistical gating.
    gates:
        Metrics the regression detector compares against the rolling
        history (see :mod:`repro.bench.gates`).
    slow:
        Sections that dominate wall time (cold sweeps, process pools);
        ``--skip-slow`` drops them so the CI gate stays in budget.
    """

    name: str
    title: str
    snapshot_key: str | None
    run: Callable[[int], dict]
    guards: Callable[[dict], list[str]] = field(default=lambda metrics: [])
    gates: tuple[MetricGate, ...] = ()
    slow: bool = False


_REGISTRY: dict[str, BenchmarkSection] = {}


def register_section(section: BenchmarkSection) -> BenchmarkSection:
    """Add a section to the registry; name collisions are config errors."""
    if section.name in _REGISTRY:
        raise ConfigurationError(
            f"benchmark section {section.name!r} is already registered"
        )
    _REGISTRY[section.name] = section
    return section


def all_sections() -> list[BenchmarkSection]:
    """Every registered section, in registration order."""
    return list(_REGISTRY.values())


def section_names() -> list[str]:
    return list(_REGISTRY)


def resolve_sections(
    names: Sequence[str] | None = None, skip_slow: bool = False
) -> list[BenchmarkSection]:
    """Select sections to run, preserving registration order.

    ``names=None`` selects everything; ``skip_slow`` then drops the
    sections flagged slow.  Explicitly named sections are never
    slow-filtered — asking for one by name means you want it.
    """
    if names is None:
        sections = all_sections()
        if skip_slow:
            sections = [section for section in sections if not section.slow]
        return sections
    unknown = [name for name in names if name not in _REGISTRY]
    if unknown:
        raise ConfigurationError(
            f"unknown benchmark section(s) {', '.join(sorted(unknown))};"
            f" registered: {', '.join(_REGISTRY)}"
        )
    # Preserve registry order (and drop duplicates) rather than CLI order,
    # so records and snapshots are stable however the request was spelled.
    wanted = set(names)
    return [section for section in all_sections() if section.name in wanted]
