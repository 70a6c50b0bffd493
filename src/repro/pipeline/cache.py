"""Content-addressed result cache for the experiment pipeline.

Simulated runs are the expensive half of the paper's loop (a Fig-3 sweep
simulates every stage at every core count; the optimizer's profiling step
simulates two whole sample runs and the stress-run stages that can set a
delta).  The cache memoizes three product
kinds, each addressed purely by content fingerprints so identical work is
never repeated — across sweep points, across searches, and (with a cache
file) across processes:

- **measurements** — simulated ``ApplicationMeasurement`` records, keyed
  by ``(source, platform, N, P, run_index, network)``;
- **predictions** — Equation-1 ``ApplicationPrediction`` records, keyed by
  ``(report, platform, N, P, network)``;
- **reports** — fitted ``ProfilingReport`` constants, keyed by
  ``(spec, profiling options)``;
- **mixes** — multi-job ``MixMeasurement`` records from
  :mod:`repro.schedule.mix`, keyed by the full mix (every job's spec,
  arrival, and volume scale, plus the policy) times the platform and
  run configuration.  The section is additive: files written before it
  existed load cleanly, and older readers ignore it.

Entries are exact-key lookups of deterministic computations, so a cache
hit returns bit-identical results to a fresh run; hit/miss counters let
benchmarks report the reuse rate.

Concurrent writers
------------------
The file format is safe under multiple writers because every key is
content-addressed: two processes that compute the same key compute the
same value, so whichever :meth:`ResultCache.save` lands last merely
rewrites identical bytes for the shared entries.  Each save is atomic
(a uniquely named temp file + ``os.replace``), so a reader — or a
concurrent loader — can never observe a torn file, and one writer never
renames another's half-written temp file away: a reader sees one
writer's complete snapshot or the other's, and the worst interleaving
outcome is that entries unique to the *earlier* snapshot are absent
from the later one and get recomputed.
Parallel grids avoid even that loss by funnelling worker-side entries
through :meth:`ResultCache.merge_shard` in the parent, which performs
every authoritative save: one atomic checkpoint per merged shard, so a
run killed between merges resumes from the last landed shard (see
``docs/EXECUTION.md``).  The interleaved-writer and corrupt-shard tests
in ``tests/unit/pipeline/test_cache.py`` pin this down.

Every save decision is :meth:`ResultCache.checkpoint`: it writes only a
file-backed cache that holds entries added since its last load or save,
so a warm run leaves the file untouched.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass
from pathlib import Path

from repro.core.app_model import ApplicationPrediction
from repro.core.profiler import ProfilingReport
from repro.core.serialization import report_from_dict, report_to_dict
from repro.pipeline.records import (
    measurement_from_dict,
    measurement_to_dict,
    mix_from_dict,
    mix_to_dict,
    prediction_from_dict,
    prediction_to_dict,
)
from repro.schedule.mix import MixMeasurement
from repro.simulator.run import ApplicationMeasurement

#: Cache-file format marker.
CACHE_FORMAT_VERSION = 1


def run_key(
    source_fp: str,
    platform_fp: str,
    nodes: int,
    cores_per_node: int,
    run_index: int = 0,
    network_fp: str = "none",
    fault_fp: str = "none",
    resilience_fp: str = "none",
) -> str:
    """Canonical key of one simulated run.

    ``fault_fp`` is the fingerprint of the run's fault plan and
    ``resilience_fp`` of its mitigation policy; clean unmitigated runs
    keep the historical key shape, so existing cache files stay valid
    and a faulted or mitigated run can never collide with a clean one.
    """
    key = (
        f"{source_fp}/{platform_fp}/N{nodes}/P{cores_per_node}"
        f"/r{run_index}/net-{network_fp}"
    )
    if fault_fp != "none":
        key += f"/faults-{fault_fp}"
    if resilience_fp != "none":
        key += f"/resil-{resilience_fp}"
    return key


def mix_key(
    mix_fp: str,
    platform_fp: str,
    nodes: int,
    cores_per_node: int,
    run_index: int = 0,
    network_fp: str = "none",
    fault_fp: str = "none",
) -> str:
    """Canonical key of one simulated multi-job mix.

    ``mix_fp`` fingerprints the *entire* mix — every job's spec, arrival
    time, volume scale, and name, plus the scheduling policy — so any
    change to any co-tenant re-addresses the result.  The ``mix/``
    prefix keeps the namespace disjoint from single-job run keys.
    """
    key = (
        f"mix/{mix_fp}/{platform_fp}/N{nodes}/P{cores_per_node}"
        f"/r{run_index}/net-{network_fp}"
    )
    if fault_fp != "none":
        key += f"/faults-{fault_fp}"
    return key


def prediction_key(
    report_fp: str,
    platform_fp: str,
    nodes: int,
    cores_per_node: int,
    network_fp: str = "none",
) -> str:
    """Canonical key of one model evaluation."""
    return f"{report_fp}/{platform_fp}/N{nodes}/P{cores_per_node}/net-{network_fp}"


@dataclass
class CacheStats:
    """Hit/miss/eviction counters, per product kind."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def total(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.total if self.total else 0.0

    def to_dict(self) -> dict:
        """The counters plus the derived rate, JSON-ready."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class ResultCache:
    """In-memory (optionally file-backed) store of pipeline products.

    Parameters
    ----------
    path:
        Optional JSON file.  When given, existing entries are loaded on
        construction and :meth:`checkpoint` persists the current contents
        once anything new has been added; the in-memory maps always hold
        live objects, so hits cost no deserialization.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        #: Entries added since the last load or save of :attr:`path`.
        self._unsaved = 0
        self._measurements: dict[str, ApplicationMeasurement] = {}
        self._predictions: dict[str, ApplicationPrediction] = {}
        self._reports: dict[str, ProfilingReport] = {}
        self._mixes: dict[str, MixMeasurement] = {}
        self.measurement_stats = CacheStats()
        self.prediction_stats = CacheStats()
        self.report_stats = CacheStats()
        self.mix_stats = CacheStats()
        if self.path is not None and self.path.exists():
            self._load(self.path)

    # -- measurements --------------------------------------------------------

    def get_measurement(self, key: str) -> ApplicationMeasurement | None:
        hit = self._measurements.get(key)
        if hit is None:
            self.measurement_stats.misses += 1
        else:
            self.measurement_stats.hits += 1
        return hit

    def put_measurement(self, key: str, value: ApplicationMeasurement) -> None:
        self._measurements[key] = value
        self._unsaved += 1

    # -- predictions ---------------------------------------------------------

    def get_prediction(self, key: str) -> ApplicationPrediction | None:
        hit = self._predictions.get(key)
        if hit is None:
            self.prediction_stats.misses += 1
        else:
            self.prediction_stats.hits += 1
        return hit

    def put_prediction(self, key: str, value: ApplicationPrediction) -> None:
        self._predictions[key] = value
        self._unsaved += 1

    # -- profiling reports ---------------------------------------------------

    def get_report(self, key: str) -> ProfilingReport | None:
        hit = self._reports.get(key)
        if hit is None:
            self.report_stats.misses += 1
        else:
            self.report_stats.hits += 1
        return hit

    def put_report(self, key: str, value: ProfilingReport) -> None:
        self._reports[key] = value
        self._unsaved += 1

    # -- mixes ---------------------------------------------------------------

    def get_mix(self, key: str) -> MixMeasurement | None:
        hit = self._mixes.get(key)
        if hit is None:
            self.mix_stats.misses += 1
        else:
            self.mix_stats.hits += 1
        return hit

    def put_mix(self, key: str, value: MixMeasurement) -> None:
        self._mixes[key] = value
        self._unsaved += 1

    # -- presence peeks ------------------------------------------------------

    def contains_measurement(self, key: str) -> bool:
        """Presence check that does not touch the hit/miss counters.

        Parallel grids use this to pre-split cells into warm and cold
        *before* dispatching; the real counted lookup still happens when
        the cell's record is composed, so stats keep meaning "lookups
        performed on behalf of results returned".
        """
        return key in self._measurements

    def contains_prediction(self, key: str) -> bool:
        """Counter-free presence check for a prediction key."""
        return key in self._predictions

    def contains_report(self, key: str) -> bool:
        """Counter-free presence check for a profiling-report key."""
        return key in self._reports

    # -- worker shards -------------------------------------------------------

    def _sections(self):
        return (
            ("measurements", self._measurements),
            ("predictions", self._predictions),
            ("reports", self._reports),
            ("mixes", self._mixes),
        )

    def export_shard(self, exclude: set[str] = frozenset()) -> dict[str, dict]:
        """Snapshot entries not yet exported, for shipping to a merger.

        Returns ``{"measurements": {...}, "predictions": {...},
        "reports": {...}}`` holding the live objects whose qualified keys
        (see :meth:`shard_keys`) are absent from ``exclude``.  Worker
        processes call this after each task and track the union of
        exported keys, so every fresh entry crosses the pipe exactly
        once.
        """
        shard: dict[str, dict] = {}
        for section, store in self._sections():
            shard[section] = {
                key: value
                for key, value in store.items()
                if f"{section}:{key}" not in exclude
            }
        return shard

    @staticmethod
    def shard_keys(shard: dict[str, dict]) -> set[str]:
        """Qualified ``section:key`` names of a shard's entries."""
        return {
            f"{section}:{key}"
            for section, entries in shard.items()
            for key in entries
        }

    def merge_shard(self, shard: dict[str, dict]) -> int:
        """Fold an :meth:`export_shard` snapshot in; returns entries added.

        First writer wins on key collisions — keys are content-addressed,
        so colliding values are identical and keeping the resident object
        preserves ``is``-level stability for anything already handed out.
        """
        merged = 0
        for section, store in self._sections():
            for key, value in shard.get(section, {}).items():
                if key not in store:
                    store[key] = value
                    merged += 1
        self._unsaved += merged
        return merged

    # -- bookkeeping ---------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(store) for _, store in self._sections())

    def clear(self) -> None:
        """Drop every entry; the drops count as evictions per kind."""
        for (_, store), stats in zip(self._sections(), self._all_stats()):
            stats.evictions += len(store)
            store.clear()

    def _all_stats(self) -> tuple[CacheStats, ...]:
        """Per-kind counters, in :meth:`_sections` order."""
        return (
            self.measurement_stats,
            self.prediction_stats,
            self.report_stats,
            self.mix_stats,
        )

    def stats(self) -> dict:
        """Structured hit/miss/eviction counters, JSON-ready.

        The observability surface ``pipeline --json`` and the query
        service expose: per product kind, the lookup counters plus the
        resident entry count, and aggregate totals across kinds — so a
        tier-2 hit rate is readable without instrumentation hacks.
        """
        per_kind = {
            section: {**stats.to_dict(), "entries": len(store)}
            for (section, store), stats in zip(
                self._sections(), self._all_stats()
            )
        }
        hits = sum(stats.hits for stats in self._all_stats())
        misses = sum(stats.misses for stats in self._all_stats())
        total = hits + misses
        return {
            **per_kind,
            "hits": hits,
            "misses": misses,
            "evictions": sum(stats.evictions for stats in self._all_stats()),
            "hit_rate": hits / total if total else 0.0,
            "entries": len(self),
            "summary": self.stats_summary(),
        }

    def stats_summary(self) -> str:
        """One-line reuse summary for logs and benchmark reports."""
        parts = []
        for label, stats in (
            ("sim", self.measurement_stats),
            ("model", self.prediction_stats),
            ("profile", self.report_stats),
            ("mix", self.mix_stats),
        ):
            if stats.total:
                parts.append(
                    f"{label} {stats.hits}/{stats.total}"
                    f" ({stats.hit_rate * 100:.0f}% hits)"
                )
        return "; ".join(parts) if parts else "cache unused"

    # -- persistence ---------------------------------------------------------

    def checkpoint(self) -> bool:
        """Save to :attr:`path` if it holds anything new; True if saved.

        The one save decision of the pipeline, the CLI and the query
        service: an in-memory cache, or a file-backed one with no entry
        added since its last load or save, writes nothing.
        """
        if self.path is None or not self._unsaved:
            return False
        self.save()
        return True

    def save(self, path: str | Path | None = None) -> Path:
        """Write the cache to JSON; returns the path written.

        The write is atomic (a uniquely named temp file in the same
        directory, then ``os.replace``): a crash mid-save — exactly the
        moment a killed sweep is most likely to die — leaves the previous
        file intact instead of a truncated one, which is what makes
        :meth:`~repro.pipeline.experiment.Experiment.run_grid` safely
        resumable.
        """
        target = Path(path) if path is not None else self.path
        if target is None:
            raise ValueError("no cache path given and none configured")
        payload = {
            "format_version": CACHE_FORMAT_VERSION,
            "measurements": {
                key: measurement_to_dict(value)
                for key, value in self._measurements.items()
            },
            "predictions": {
                key: prediction_to_dict(value)
                for key, value in self._predictions.items()
            },
            "reports": {
                key: report_to_dict(value) for key, value in self._reports.items()
            },
            "mixes": {
                key: mix_to_dict(value) for key, value in self._mixes.items()
            },
        }
        # A temp name of its own, so concurrent writers of one target
        # (two processes sharing a --cache file) never rename or
        # truncate each other's half-written file.
        tmp = target.with_name(f"{target.name}.{os.urandom(8).hex()}.tmp")
        try:
            with open(tmp, "x") as out:
                out.write(json.dumps(payload))
            os.replace(tmp, target)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        if target == self.path:
            self._unsaved = 0
        return target

    def _load(self, path: Path) -> None:
        """Load a cache file, skipping (with a warning) whatever is broken.

        A truncated or hand-damaged file must never abort a sweep — the
        cache is an accelerator, so the worst acceptable outcome of
        corruption is recomputing: unreadable JSON (nesting too deep to
        parse, or an integer past Python's digit limit, included) drops
        the whole file, a malformed individual entry drops just that
        entry.
        """
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError, RecursionError) as exc:
            warnings.warn(
                f"result cache {path} is unreadable ({exc}); starting empty",
                stacklevel=2,
            )
            return
        if not isinstance(data, dict):
            warnings.warn(
                f"result cache {path} is not a JSON object; starting empty",
                stacklevel=2,
            )
            return
        if data.get("format_version") != CACHE_FORMAT_VERSION:
            return  # stale format: start empty rather than fail
        loaders = (
            ("measurements", self._measurements, measurement_from_dict),
            ("predictions", self._predictions, prediction_from_dict),
            ("reports", self._reports, report_from_dict),
            # Absent from pre-mix files; .get() below keeps them loading.
            ("mixes", self._mixes, mix_from_dict),
        )
        for section, store, loader in loaders:
            entries = data.get(section, {})
            if not isinstance(entries, dict):
                warnings.warn(
                    f"result cache {path}: section {section!r} is malformed;"
                    " skipping it",
                    stacklevel=2,
                )
                continue
            for key, value in entries.items():
                try:
                    store[key] = loader(value)
                except Exception as exc:  # noqa: BLE001 - any bad entry is skippable
                    warnings.warn(
                        f"result cache {path}: skipping corrupt {section}"
                        f" entry {key!r} ({type(exc).__name__}: {exc})",
                        stacklevel=2,
                    )
