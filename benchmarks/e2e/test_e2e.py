"""Tests of the end-to-end benchmark itself (not of the program it measures).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import calibrate
import compare
import run
import spans
import workloads
from worker import Round

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def span(name, span_id, parent, start, end, pid=1, **extra):
    return {"name": name, "id": span_id, "parent": parent, "trace": None,
            "pid": pid, "tid": 0, "start": start, "end": end, **extra}


def fake_round(traced: bool, failures=(), slowdown: float = 1.0) -> dict:
    """A round of two 1-second operations, on a host ``slowdown`` times slower."""
    spans_ = [span("root", "r", None, 0.0, 2.0),
              span("simulator.engine_run", "e", "r", 0.5, 1.5, tasks=10)]
    probes = {} if traced else {"probe_s": 40 * calibrate.REFERENCE_S * slowdown,
                                "probes": 40}
    return {
        "setup_s": 0.2 * slowdown, "wall_s": 2.0 * slowdown,
        "ops": [["op", slowdown], ["op", slowdown]],
        "attempted": 2, "failures": list(failures), "peak_rss_mb": 40.0,
        "layers": spans.layer_metrics(spans_, "r", 1) if traced else None,
        **probes,
    }


@pytest.fixture
def fake_rounds(monkeypatch):
    failures: list[str] = []

    def worker_round(workload, params, deadline):
        return fake_round(params["trace"], failures)

    monkeypatch.setattr(run, "worker_round", worker_round)
    return failures


@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
def test_printed_metrics_are_the_ones_benchmark_json_lists(
    fake_rounds, tmp_path, capsys, trace, section
):
    result = run.measure("sim-paper", 1, 0.001, trace, tmp_path)
    listed = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == listed
    printed = [line.split() for line in capsys.readouterr().out.splitlines()
               if not line.endswith("not gated)")]
    assert [(words[1], words[3]) for words in printed] == list(listed.items())


@pytest.mark.parametrize("round_s,seconds,rounds", [
    (50.0, 300, 6),   # a long run is not cut short by a fixed deadline
    (100.0, 1, 1),    # a round that would end past the deadline never starts
])
def test_rounds_fill_the_run_and_stop_before_the_deadline(
    monkeypatch, tmp_path, round_s, seconds, rounds
):
    now = [0.0]

    def worker_round(workload, params, deadline):
        now[0] += round_s
        if now[0] > deadline:
            raise run.RoundError("timed out waiting for the result")
        return fake_round(params["trace"])

    monkeypatch.setattr(run, "clock", lambda: now[0])
    monkeypatch.setattr(run, "worker_round", worker_round)
    result = run.measure("sim-paper", 1, seconds, False, tmp_path)
    assert result["correct"] is True
    assert result["attempted"] == 2 * rounds


def test_times_are_rescaled_to_reference_speed():
    calm = run.end_to_end([{"traced": False, **fake_round(False)}] * 3)
    assert calm["setup_s"] == pytest.approx(0.2)
    assert calm["wall_s"] == pytest.approx(2.0)
    slow = run.end_to_end([{"traced": False, **fake_round(False, slowdown=1.8)}] * 3)
    assert slow == pytest.approx(calm)
    # A round that ran no probe is left out.
    unprobed = {"traced": False, **fake_round(False, slowdown=1.8), "probes": 0}
    assert run.end_to_end([unprobed, {"traced": False, **fake_round(False)}]) == calm


def test_the_meter_probes_while_the_work_runs():
    meter = calibrate.Meter().start()
    try:
        deadline = time.perf_counter() + 12 * calibrate.PERIOD_S
        while time.perf_counter() < deadline:
            sum(range(1000))
    finally:
        meter.stop()
    assert 5 <= meter.probes <= 12
    assert meter.probe_s > 0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_benchmark_json_directions_match_the_code():
    for metric in SPEC["end_to_end"]:
        assert run.END_TO_END[metric["name"]] == (metric["unit"], metric["better"])
    for metric in SPEC["per_layer"]:
        assert spans.PER_LAYER[metric["name"]] == (metric["unit"], metric["better"])
    computed = set(spans.layer_metrics([], "none", 1)) | {"trace.overhead_frac"}
    assert computed == set(spans.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_self_time_of_nested_and_overlapping_spans():
    spans_ = [
        span("root", "r", None, 0.0, 10.0),
        span("a", "a", "r", 1.0, 4.0),
        span("b", "b", "r", 3.0, 6.0),        # overlaps its sibling a
        span("c", "c", "a", 2.0, 3.0),        # nested in a
        span("d", "d", "r", 9.0, 12.0),       # outlives its parent
    ]
    assert spans.self_times(spans_) == pytest.approx(
        {"r": 10.0 - 5.0 - 1.0, "a": 2.0, "b": 3.0, "c": 1.0, "d": 3.0}
    )
    metrics = spans.layer_metrics(spans_, "r", 1)
    assert metrics["trace.root_s"] == 10.0
    assert metrics["trace.unattributed_s"] == pytest.approx(4.0)


def test_sequential_layers_add_up_to_the_root():
    spans_ = [
        span("root", "r", None, 0.0, 5.0),
        span("pipeline.experiment", "x", "r", 0.5, 4.5),
        span("simulator.run_stage", "s", "x", 1.0, 4.0),
        span("simulator.engine_run", "e", "s", 1.5, 3.5, tasks=100),
    ]
    selfs = spans.self_times(spans_)
    below = sum(selfs[s["id"]] for s in spans.subtree(spans_, "r"))
    metrics = spans.layer_metrics(spans_, "r", 1)
    assert below + metrics["trace.unattributed_s"] == pytest.approx(metrics["trace.root_s"])
    assert metrics["simulator.tasks_per_s"] == pytest.approx(50.0)
    assert "unattributed 1.0000 s" in spans.layer_table(spans_, "r")


def test_batcher_waits_run_from_add_to_the_next_flush():
    spans_ = [
        span("service.batcher.add", "a1", None, 1.0, 1.001),
        span("service.batcher.add", "a2", None, 1.001, 1.002),
        span("service.batcher.flush", "f1", None, 1.003, 1.004),
        span("service.batcher.add", "a3", None, 2.0, 2.001),
        span("service.batcher.flush", "f2", None, 2.002, 2.003),
        span("service.batcher.flush", "f3", None, 3.0, 3.0),  # nothing pending
    ]
    metrics = spans.layer_metrics(spans_, "none", 1)
    assert metrics["service.batcher.wait_s"] == pytest.approx(0.003 + 0.002 + 0.002)
    assert metrics["service.batcher.wait_p99_ms"] == pytest.approx(3.0)
    counters = spans.engine_metrics({"batches": {"flushed": 2, "entries": 3}})
    assert counters["service.batcher.flushes"] == 2
    assert counters["service.batcher.mean_width"] == 1.5


def test_wrappers_record_parents_extras_and_dropped_spans(tmp_path):
    collector = spans.Collector(tmp_path)

    def inner(n):
        return list(range(n))

    wrapped_inner = collector.wrap(inner, "inner", lambda a, k, r: {"items": len(r)})
    dropped = collector.wrap(inner, "dropped", lambda a, k, r: None)

    async def outer():
        await asyncio.sleep(0)
        dropped(1)
        return wrapped_inner(3)

    assert asyncio.run(collector.wrap(outer, "outer")()) == [0, 1, 2]
    by_name = {s["name"]: s for s in collector.spans}
    assert set(by_name) == {"outer", "inner"}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["inner"]["trace"] == by_name["outer"]["trace"] == by_name["outer"]["id"]
    assert by_name["inner"]["items"] == 3


def test_a_forced_mismatch_counts_as_failed(fake_rounds, tmp_path):
    reference = {"op": {"total_seconds": 0.1 + 0.2, "stages": [["s", 1.0]]}}
    answer = {"op": {"total_seconds": 0.30000000000000004, "stages": [["s", 1.0]]}}
    assert workloads.mismatches(answer, reference) == []
    off_by_one_ulp = {"op": {"total_seconds": 0.3, "stages": [["s", 1.0]]}}
    assert len(workloads.mismatches(off_by_one_ulp, reference)) == 1
    assert len(workloads.mismatches({"new": 1}, reference)) == 1

    check = Round({})
    check.compare(off_by_one_ulp, reference)
    fake_rounds.extend(check.failures)
    result = run.measure("sim-paper", 1, 0.001, False, tmp_path)
    assert result["correct"] is False
    assert 1 <= result["failed"] <= result["attempted"]


def test_service_mix_queries_are_seeded():
    first = workloads.service_queries(1, 1200)
    assert first == workloads.service_queries(1, 1200)
    second = workloads.service_queries(2, 1200)
    assert first != second
    assert [q["kind"] for q in first] == [q["kind"] for q in second]
    predicts = [q for q in first if q["kind"] == "predict"]
    assert min(min(q["hdfs_gb"], q["local_gb"]) for q in predicts) >= 100.0
    assert len({repr(q) for q in predicts}) < len(predicts)  # popular ones repeat
    sample = [first[i]["kind"] for i in workloads.service_sample(1, first)]
    assert [sample.count(k) for k in ("predict", "optimize", "simulate")] == list(
        workloads.SERVICE_SAMPLE
    )


@pytest.mark.parametrize("parent,change,expected", [
    ([10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0],
     [9.0, 9.1, 8.9, 9.0, 9.2, 8.8, 9.0, 9.1, 8.9, 9.0], "improved"),
    ([10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0],
     [12.0, 12.1, 11.9, 12.0, 12.2, 11.8, 12.0, 12.1, 11.9, 12.0], "regressed"),
    ([10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0],
     [10.1, 10.0, 10.0, 9.9, 10.1, 9.9, 10.1, 10.0, 10.0, 10.1], "unchanged"),
    ([8.0, 12.0, 9.0, 11.0, 8.5, 11.5, 10.0, 9.5, 10.5, 12.5],
     [8.5, 12.5, 9.5, 11.0, 8.0, 11.0, 10.5, 9.0, 10.0, 12.0], "unresolved"),
    # A regression beyond the bound reads as one even when the parent's
    # spread is wider than the bound.
    ([8.0, 12.0, 9.0, 11.0, 8.5, 11.5, 10.0, 9.5, 10.5, 12.5],
     [11.0, 15.0, 12.0, 14.0, 11.5, 14.5, 13.0, 12.5, 13.5, 15.5], "regressed"),
    # Every change run reads better than every parent run: resolved.
    ([10.0, 10.5, 11.0, 11.5, 12.0, 12.5, 13.0, 13.5, 14.0, 14.5],
     [9.9, 9.8, 9.9, 9.7, 9.9, 9.8, 9.9, 9.8, 9.9, 9.8], "unchanged"),
])
def test_compare_verdicts(parent, change, expected):
    assert compare.verdict(parent, change, "lower", 0.1)["verdict"] == expected
    flipped = [-v for v in parent], [-v for v in change]
    assert compare.verdict(*flipped, "higher", 0.1)["verdict"] == expected


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    bench_dir = tmp_path / "benchmarks" / "e2e"
    bench_dir.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bench_dir)
    shutil.copy(HERE.parents[1] / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "sim-paper", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_the_server_stops_on_sigint_even_when_started_ignoring_it(tmp_path):
    params = {"seed": 1, "trace": False, "spool": str(tmp_path),
              "stem": str(tmp_path / "round"), "check_cells": False}
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "serve.py"), json.dumps(params)],
        env={**os.environ, "PYTHONPATH": str(HERE.parents[1] / "src")},
        stdout=subprocess.PIPE, text=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
    )
    try:
        assert proc.stdout.readline().startswith("serving on")
        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 0
    assert "peak_rss_mb" in json.loads(out.strip().splitlines()[-1])
