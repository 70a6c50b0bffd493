"""Spans around the program's layers, for the benchmark's traced rounds.

The benchmark times each layer from outside: :func:`install` wraps the
public calls named in ``TARGETS`` (class attributes are replaced; a
module-level function is replaced in every module that imported it) so
each call records a span ``{name, id, parent, trace, pid, tid, start,
end}``.  Spans stay in memory and are written out when the round ends,
as Chrome trace-event JSON plus a per-layer table.  A forked pool worker
never runs exit hooks, so it appends its spans to a per-PID file in the
spool directory each time one of its top-level spans (a task) ends.

A layer's self time is its spans' durations minus the part of each
span that the span's children cover.  Untraced rounds never import this
module, so their numbers carry no tracing cost.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import math
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


def _tasks(args, kwargs, result):
    return {"tasks": len(args[1])}


def _candidates(args, kwargs, result):
    return {"candidates": len(args[1])}


def _saved_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(result)}


def _hit(args, kwargs, result):
    return {"hit": result is not None}


def _file_backed(args, kwargs, result):
    """Keep ``ResultCache.__init__`` spans only when a file was loaded."""
    path = args[1] if len(args) > 1 else kwargs.get("path")
    return {} if path is not None else None


def _supervision(args, kwargs, result):
    return {
        "items": len(result.results),
        "workers": args[0].backend.workers,
        "retries": result.retries,
        "pool_rebuilds": result.pool_rebuilds,
        "timeouts": result.timeouts,
    }


#: (span name, module, attribute, extra fields from (args, kwargs, result)).
TARGETS = (
    ("workloads.build_tasks", "repro.workloads.base", "StageSpec.build_tasks", None),
    ("simulator.engine_run", "repro.simulator.engine", "SimulationEngine.run", _tasks),
    ("simulator.run_stage", "repro.simulator.run", "run_stage", None),
    ("core.profiler.profile", "repro.core.profiler", "Profiler.profile", None),
    ("pipeline.resolve", "repro.pipeline.sources", "SpecSource.resolve", None),
    ("pipeline.experiment", "repro.pipeline.experiment", "Experiment.measure", None),
    ("pipeline.experiment", "repro.pipeline.experiment", "Experiment.run", None),
    ("pipeline.experiment", "repro.pipeline.experiment", "Experiment.run_grid", None),
    ("pipeline.cache.load", "repro.pipeline.cache", "ResultCache.__init__", _file_backed),
    ("pipeline.cache.save", "repro.pipeline.cache", "ResultCache.save", _saved_bytes),
    ("pipeline.cache.merge_shard", "repro.pipeline.cache", "ResultCache.merge_shard", None),
    ("pipeline.cache.get", "repro.pipeline.cache", "ResultCache.get_measurement", _hit),
    ("pipeline.cache.get", "repro.pipeline.cache", "ResultCache.get_prediction", _hit),
    ("pipeline.cache.get", "repro.pipeline.cache", "ResultCache.get_report", _hit),
    ("pipeline.cache.get", "repro.pipeline.cache", "ResultCache.get_mix", _hit),
    ("core.app_model.predict", "repro.core.app_model", "ApplicationModel.predict", None),
    ("model.arrays.score", "repro.model.arrays", "Eq1BatchEvaluator.score", _candidates),
    ("cloud.optimizer.grid_search", "repro.cloud.optimizer", "CostOptimizer.grid_search", None),
    ("cloud.optimizer.evaluate", "repro.cloud.optimizer", "CostOptimizer.evaluate", None),
    ("parallel.supervisor", "repro.parallel.supervisor", "TaskSupervisor.run", _supervision),
    ("parallel.worker_task", "repro.pipeline.experiment", "_run_grid_cell", None),
    ("service.engine.submit", "repro.service.engine", "QueryEngine.submit", None),
    ("service.batcher.add", "repro.service.batcher", "MicroBatcher.add", None),
    ("service.batcher.flush", "repro.service.batcher", "MicroBatcher.flush", None),
    ("service.http", "repro.service.http", "QueryServer._handle", None),
)

#: Every per-layer metric: name -> (unit, which direction is better).
PER_LAYER = {
    "workloads.build_tasks.calls": ("count", "lower"),
    "workloads.build_tasks.self_s": ("s", "lower"),
    "simulator.engine_run.calls": ("count", "lower"),
    "simulator.engine_run.self_s": ("s", "lower"),
    "simulator.engine_run.tasks": ("count", "lower"),
    "simulator.tasks_per_s": ("1/s", "higher"),
    "simulator.run_stage.self_s": ("s", "lower"),
    "core.profiler.profile.calls": ("count", "lower"),
    "core.profiler.profile.self_s": ("s", "lower"),
    "pipeline.resolve.calls": ("count", "lower"),
    "pipeline.resolve.self_s": ("s", "lower"),
    "pipeline.experiment.self_s": ("s", "lower"),
    "pipeline.cache.load.calls": ("count", "lower"),
    "pipeline.cache.load.self_s": ("s", "lower"),
    "pipeline.cache.save.calls": ("count", "lower"),
    "pipeline.cache.save.self_s": ("s", "lower"),
    "pipeline.cache.save.bytes": ("bytes", "lower"),
    "pipeline.cache.merge_shard.self_s": ("s", "lower"),
    "pipeline.cache.get.calls": ("count", "lower"),
    "pipeline.cache.get.self_s": ("s", "lower"),
    "pipeline.cache.hit_rate": ("fraction", "higher"),
    "core.app_model.predict.calls": ("count", "lower"),
    "core.app_model.predict.self_s": ("s", "lower"),
    "model.arrays.score.calls": ("count", "lower"),
    "model.arrays.score.candidates": ("count", "lower"),
    "model.arrays.score.self_s": ("s", "lower"),
    "model.arrays.cand_per_s": ("1/s", "higher"),
    "cloud.optimizer.grid_search.calls": ("count", "lower"),
    "cloud.optimizer.grid_search.self_s": ("s", "lower"),
    "cloud.optimizer.evaluate.calls": ("count", "lower"),
    "cloud.optimizer.evaluate.self_s": ("s", "lower"),
    "parallel.supervisor.calls": ("count", "lower"),
    "parallel.supervisor.items": ("count", "lower"),
    "parallel.supervisor.self_s": ("s", "lower"),
    "parallel.worker_busy_s": ("s", "lower"),
    "parallel.worker_idle_s": ("s", "lower"),
    "parallel.retries": ("count", "lower"),
    "parallel.pool_rebuilds": ("count", "lower"),
    "parallel.timeouts": ("count", "lower"),
    "service.engine.submit.calls": ("count", "lower"),
    "service.engine.submit.self_s": ("s", "lower"),
    "service.engine.lru_hit_rate": ("fraction", "higher"),
    "service.engine.coalesced": ("count", "higher"),
    "service.engine.tier2_hits": ("count", "higher"),
    "service.engine.sim_completed": ("count", "lower"),
    "service.engine.sim_rejected": ("count", "lower"),
    "service.engine.errors": ("count", "lower"),
    "service.batcher.flushes": ("count", "lower"),
    "service.batcher.mean_width": ("count", "higher"),
    "service.batcher.wait_s": ("s", "lower"),
    "service.batcher.wait_p99_ms": ("ms", "lower"),
    "service.http.self_s": ("s", "lower"),
    "trace.root_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
}


class Collector:
    """In-memory spans of one process, plus the spool forked workers use."""

    def __init__(self, spool: Path) -> None:
        self.spool = spool
        self.main_pid = os.getpid()
        self.spans: list[dict] = []
        self.current = contextvars.ContextVar("span", default=None)
        self.trace = contextvars.ContextVar("trace", default=None)
        self._ids = itertools.count(1)
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # The child inherits the parent's spans, open span and trace.
        self.spans = []
        self.current.set(None)
        self.trace.set(None)

    def _enter(self):
        parent = self.current.get()
        span_id = f"{os.getpid()}-{next(self._ids)}"
        # A span outside any request or operation starts its own trace.
        traced = self.trace.set(span_id) if self.trace.get() is None else None
        tokens = (self.current.set(span_id), traced)
        return parent, span_id, tokens, time.perf_counter()

    def _exit(self, name, parent, span_id, tokens, start, extra) -> None:
        end = time.perf_counter()
        trace = self.trace.get()
        self.current.reset(tokens[0])
        if tokens[1] is not None:
            self.trace.reset(tokens[1])
        if extra is None:
            return  # the target asked for this span to be dropped
        self.spans.append({
            "name": name, "id": span_id, "parent": parent, "trace": trace,
            "pid": os.getpid(), "tid": threading.get_native_id(),
            "start": start, "end": end, **extra,
        })
        if parent is None and os.getpid() != self.main_pid:
            self.flush()

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        parent, span_id, tokens, start = self._enter()
        try:
            yield span_id
        finally:
            self._exit(name, parent, span_id, tokens, start, {})

    def wrap(self, fn, name: str, extra=None):
        """``fn`` recording a span per call; ``extra`` adds fields."""

        def fields(args, kwargs, result):
            return {} if extra is None else extra(args, kwargs, result)

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                parent, span_id, tokens, start = self._enter()
                done = False
                try:
                    result = await fn(*args, **kwargs)
                    done = True
                    return result
                finally:
                    self._exit(name, parent, span_id, tokens, start,
                               fields(args, kwargs, result) if done else {})
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, span_id, tokens, start = self._enter()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                self._exit(name, parent, span_id, tokens, start,
                           fields(args, kwargs, result) if done else {})
        return wrapper

    def flush(self) -> None:
        """Append this process's spans to its spool file and forget them."""
        spans, self.spans = self.spans, []
        with (self.spool / f"spans-{os.getpid()}.jsonl").open("a") as out:
            for span in spans:
                out.write(json.dumps(span) + "\n")

    def collect(self) -> list[dict]:
        """This process's spans plus every span workers spooled."""
        spans = list(self.spans)
        for path in sorted(self.spool.glob("spans-*.jsonl")):
            spans += [json.loads(line) for line in path.read_text().splitlines()]
        return spans


def install(spool: Path) -> tuple[Collector, list[str]]:
    """Wrap every target; returns the collector and the targets not found.

    A target the program no longer has is skipped, so its layer's
    metrics read zero instead of the traced round failing.
    """
    collector = Collector(spool)
    missing = []
    for name, module_name, attribute, extra in TARGETS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append(f"{module_name}:{attribute}")
            continue
        owner_name, _, attr = attribute.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            missing.append(f"{module_name}:{attribute}")
            continue
        wrapper = collector.wrap(original, name, extra)
        if owner_name:
            setattr(owner, attr, wrapper)
            continue
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__dict__", {}).get(attr) is original:
                setattr(loaded, attr, wrapper)
    return collector, missing


def add_root(spans: list[dict], over: str) -> str:
    """Add a root span covering every ``over`` span of the main process.

    For a server, whose timed phase is not one block of its own code:
    top-level spans inside the window become the root's children.
    """
    covered = [span for span in spans if span["name"] == over]
    pid = covered[0]["pid"] if covered else os.getpid()
    start = min((span["start"] for span in covered), default=0.0)
    end = max((span["end"] for span in covered), default=0.0)
    root_id = f"{pid}-root"
    for span in spans:
        if (span["pid"] == pid and span["parent"] is None
                and span["start"] >= start and span["end"] <= end):
            span["parent"] = root_id
    spans.append({"name": "root", "id": root_id, "parent": None, "trace": None,
                  "pid": pid, "tid": 0, "start": start, "end": end})
    return root_id


# -- analysis -----------------------------------------------------------------


def covered_time(intervals, low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total, run_start, run_end = 0.0, None, None
    for start, end in sorted(intervals):
        start, end = max(start, low), min(end, high)
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the time its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return {
        span["id"]: span["end"] - span["start"]
        - covered_time(children[span["id"]], span["start"], span["end"])
        for span in spans
    }


def subtree(spans: list[dict], root_id: str) -> list[dict]:
    """The spans below ``root_id``, root excluded."""
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)
    found, stack = [], [root_id]
    while stack:
        for child in children[stack.pop()]:
            found.append(child)
            stack.append(child["id"])
    return found


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def engine_metrics(stats: dict) -> dict[str, float]:
    """The engine and batcher counters from a ``GET /stats`` reply."""
    batches = stats.get("batches", {})
    return {
        "service.engine.lru_hit_rate": _rate(stats.get("lru", {}).get("hits", 0),
                                             stats.get("queries", 0)),
        "service.engine.coalesced": stats.get("coalesced", 0),
        "service.engine.tier2_hits": stats.get("tier2_hits", 0),
        "service.engine.sim_completed": stats.get("sim", {}).get("completed", 0),
        "service.engine.sim_rejected": stats.get("sim", {}).get("rejected", 0),
        "service.engine.errors": stats.get("errors", 0),
        "service.batcher.flushes": batches.get("flushed", 0),
        "service.batcher.mean_width": _rate(batches.get("entries", 0),
                                            batches.get("flushed", 0)),
    }


def layer_metrics(spans: list[dict], root_id: str, main_pid: int) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_frac``.

    The engine and batcher counters read zero here; a service round
    replaces them with :func:`engine_metrics` of its ``/stats`` reply.
    """
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def calls(name):
        return len(by_name[name])

    def self_s(name):
        return sum(selfs[span["id"]] for span in by_name[name])

    def busy(name):
        return sum(span["end"] - span["start"] for span in by_name[name])

    def total(name, field):
        return sum(span.get(field, 0) for span in by_name[name])

    gets = by_name["pipeline.cache.get"]
    worker_busy = sum(span["end"] - span["start"]
                      for span in by_name["parallel.worker_task"]
                      if span["pid"] != main_pid)
    pool_time = sum((span["end"] - span["start"]) * span.get("workers", 1)
                    for span in by_name["parallel.supervisor"]
                    if span.get("workers", 1) > 1)
    # An entry waits from its add to the next flush.
    flush_starts = sorted(span["start"] for span in by_name["service.batcher.flush"])
    waits = []
    for add in by_name["service.batcher.add"]:
        index = bisect.bisect_left(flush_starts, add["start"])
        if index < len(flush_starts):
            waits.append(flush_starts[index] - add["start"])
    root = next((span for span in spans if span["id"] == root_id), None)
    metrics = {
        "workloads.build_tasks.calls": calls("workloads.build_tasks"),
        "workloads.build_tasks.self_s": self_s("workloads.build_tasks"),
        "simulator.engine_run.calls": calls("simulator.engine_run"),
        "simulator.engine_run.self_s": self_s("simulator.engine_run"),
        "simulator.engine_run.tasks": total("simulator.engine_run", "tasks"),
        "simulator.tasks_per_s": _rate(total("simulator.engine_run", "tasks"),
                                      busy("simulator.engine_run")),
        "simulator.run_stage.self_s": self_s("simulator.run_stage"),
        "core.profiler.profile.calls": calls("core.profiler.profile"),
        "core.profiler.profile.self_s": self_s("core.profiler.profile"),
        "pipeline.resolve.calls": calls("pipeline.resolve"),
        "pipeline.resolve.self_s": self_s("pipeline.resolve"),
        "pipeline.experiment.self_s": self_s("pipeline.experiment"),
        "pipeline.cache.load.calls": calls("pipeline.cache.load"),
        "pipeline.cache.load.self_s": self_s("pipeline.cache.load"),
        "pipeline.cache.save.calls": calls("pipeline.cache.save"),
        "pipeline.cache.save.self_s": self_s("pipeline.cache.save"),
        "pipeline.cache.save.bytes": total("pipeline.cache.save", "bytes"),
        "pipeline.cache.merge_shard.self_s": self_s("pipeline.cache.merge_shard"),
        "pipeline.cache.get.calls": len(gets),
        "pipeline.cache.get.self_s": self_s("pipeline.cache.get"),
        "pipeline.cache.hit_rate": _rate(sum(span["hit"] for span in gets), len(gets)),
        "core.app_model.predict.calls": calls("core.app_model.predict"),
        "core.app_model.predict.self_s": self_s("core.app_model.predict"),
        "model.arrays.score.calls": calls("model.arrays.score"),
        "model.arrays.score.candidates": total("model.arrays.score", "candidates"),
        "model.arrays.score.self_s": self_s("model.arrays.score"),
        "model.arrays.cand_per_s": _rate(total("model.arrays.score", "candidates"),
                                        busy("model.arrays.score")),
        "cloud.optimizer.grid_search.calls": calls("cloud.optimizer.grid_search"),
        "cloud.optimizer.grid_search.self_s": self_s("cloud.optimizer.grid_search"),
        "cloud.optimizer.evaluate.calls": calls("cloud.optimizer.evaluate"),
        "cloud.optimizer.evaluate.self_s": self_s("cloud.optimizer.evaluate"),
        "parallel.supervisor.calls": calls("parallel.supervisor"),
        "parallel.supervisor.items": total("parallel.supervisor", "items"),
        "parallel.supervisor.self_s": self_s("parallel.supervisor"),
        "parallel.worker_busy_s": worker_busy,
        "parallel.worker_idle_s": max(0.0, pool_time - worker_busy),
        "parallel.retries": total("parallel.supervisor", "retries"),
        "parallel.pool_rebuilds": total("parallel.supervisor", "pool_rebuilds"),
        "parallel.timeouts": total("parallel.supervisor", "timeouts"),
        "service.engine.submit.calls": calls("service.engine.submit"),
        "service.engine.submit.self_s": self_s("service.engine.submit"),
        **engine_metrics({}),
        "service.batcher.wait_s": sum(waits),
        "service.batcher.wait_p99_ms": percentile(waits, 99) * 1e3,
        "service.http.self_s": self_s("service.http"),
        "trace.root_s": root["end"] - root["start"] if root else 0.0,
        "trace.unattributed_s": selfs.get(root_id, 0.0),
    }
    return metrics


def layer_table(spans: list[dict], root_id: str) -> str:
    """Per-span-name calls, total and self time, and the reconciliation."""
    selfs = self_times(spans)
    rows = defaultdict(lambda: [0, 0.0, 0.0])
    for span in spans:
        row = rows[span["name"]]
        row[0] += 1
        row[1] += span["end"] - span["start"]
        row[2] += selfs[span["id"]]
    lines = [f"{'span':<30} {'pids':>5} {'calls':>8} {'total_s':>10} {'self_s':>10}"]
    for name in sorted(rows):
        calls, total, own = rows[name]
        pids = len({span["pid"] for span in spans if span["name"] == name})
        lines.append(f"{name:<30} {pids:>5} {calls:>8} {total:>10.4f} {own:>10.4f}")
    root = next((span for span in spans if span["id"] == root_id), None)
    if root is not None:
        attributed = sum(selfs[span["id"]] for span in subtree(spans, root_id))
        lines.append(
            f"root {root['end'] - root['start']:.4f} s = layer self time under"
            f" root {attributed:.4f} s + unattributed {selfs[root_id]:.4f} s"
            " (layer spans that overlap each other count once per span)"
        )
    return "\n".join(lines) + "\n"


def chrome_trace(spans: list[dict]) -> dict:
    """Chrome trace-event JSON (``chrome://tracing``, Perfetto)."""
    base = min((span["start"] for span in spans), default=0.0)
    skip = {"name", "pid", "tid", "start", "end"}
    return {
        "displayTimeUnit": "ms",
        "traceEvents": [
            {
                "name": span["name"], "cat": span["name"].split(".")[0],
                "ph": "X", "pid": span["pid"], "tid": span["tid"],
                "ts": (span["start"] - base) * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "args": {key: value for key, value in span.items() if key not in skip},
            }
            for span in spans
        ],
    }


def finish(collector: Collector, root_id: str | None, stem: Path) -> dict[str, float]:
    """Write ``STEM.trace.json`` and ``STEM.layers.txt``; return the metrics.

    ``root_id`` None means a server: the root is made to cover its HTTP
    handling.
    """
    spans = collector.collect()
    if root_id is None:
        root_id = add_root(spans, "service.http")
    stem.with_name(stem.name + ".trace.json").write_text(json.dumps(chrome_trace(spans)))
    stem.with_name(stem.name + ".layers.txt").write_text(layer_table(spans, root_id))
    return layer_metrics(spans, root_id, collector.main_pid)
