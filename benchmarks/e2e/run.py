"""End-to-end benchmark of the Doppio reproduction's user paths.

    python3 benchmarks/e2e/run.py --workload sim-paper --seed 1 --seconds 25 --trace 0

A workload runs in rounds.  Each round is a fresh process started with
``PYTHONPATH=src`` (``worker.py``, or ``serve.py`` driven by the HTTP
client here), so every round pays its own set-up and starts cold.
Rounds repeat until the next one would end past ``--seconds``; at least
three run, unless one would end more than ``DEADLINE_MARGIN_S`` after
``--seconds``.  With ``--trace 1`` every second round installs the span
wrappers: the per-layer metrics come from those rounds, and the rounds
between them give the tracing overhead.

In an untraced round the working process (the round's process, or the
server) probes the host's speed every 50 ms, between its own steps
(``calibrate.py``).  The gated times are rescaled by the round's mean
probe time, so the host's slow spells cancel out; the times as measured
are printed too, marked not gated.

Prints one ``workload metric value unit`` line per metric, then the
result as one JSON line ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics, or with ``--trace 1`` the
per-layer ones.  Without ``--workload`` every workload runs, each
ending in its own JSON line.  Results, traces and layer tables go to
``--out``.  ``--write-expected`` re-records ``expected.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import queue
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate
import workloads as bench

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

WORKLOADS = ("sim-paper", "plan-cold", "sweep-cache", "service-mix")
#: End-to-end metrics: name -> (unit, which direction is better).  The
#: two times read at reference speed (``calibrate``).  Operation
#: latencies are printed too but not gated: they are not rescaled, and
#: minute-long slow spells of a shared host move a single operation's
#: median more than the largest bound allowed.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
MIN_ROUNDS = 3
#: How long a run may go on past ``--seconds``: for three slow rounds, or
#: service-mix's answer check.  A child still running then is killed, so
#: a 25-second run, hung children included, ends within three minutes.
DEADLINE_MARGIN_S = 120.0
#: The clock of rounds and deadlines; tests replace it with a fake.
clock = time.monotonic


class RoundError(Exception):
    """A round's process misbehaved: crashed, hung or printed no result."""


class Child:
    """A benchmark process whose stdout lines arrive through a queue."""

    def __init__(self, argv: list[str], stdin: str | None = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        )
        # Set-up is timed as a user meets it, from cached bytecode: only the
        # first round in a checkout compiles the sources.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=env, text=True,
            stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
            stdout=subprocess.PIPE, start_new_session=True,
        )
        self.lines: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        if stdin is not None:
            try:
                self.proc.stdin.write(stdin)
                self.proc.stdin.close()
            except BrokenPipeError:
                pass  # the child died early; result() reports its exit code

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def line(self, deadline: float) -> str:
        """The next line; RoundError at end of output or past ``deadline``."""
        try:
            line = self.lines.get(timeout=max(0.0, deadline - clock()))
        except queue.Empty:
            raise RoundError("timed out waiting for output") from None
        if line is None:
            raise RoundError(f"exited with code {self.proc.wait()} before its output")
        return line

    def result(self, deadline: float) -> dict:
        """The JSON line the process prints last, once it has exited."""
        last = None
        while True:
            try:
                line = self.lines.get(timeout=max(0.0, deadline - clock()))
            except queue.Empty:
                raise RoundError("timed out waiting for the result") from None
            if line is None:
                break
            last = line
        if self.proc.wait() != 0 or last is None:
            raise RoundError(f"exited with code {self.proc.returncode}")
        return json.loads(last)

    def kill(self) -> None:
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()
        self.reader.join()


# -- rounds -------------------------------------------------------------------


def worker_round(workload: str, params: dict, deadline: float) -> dict:
    start = time.perf_counter()
    child = Child([str(HERE / "worker.py"), workload, json.dumps(params)])
    try:
        child.line(deadline)
        setup_s = time.perf_counter() - start
        result = child.result(deadline)
    finally:
        child.kill()
    return {"setup_s": setup_s, **result}


async def request(host: str, port: int, method: str, path: str,
                  payload: dict | None = None) -> tuple[int, dict]:
    """One HTTP/1.1 exchange on its own connection (the server closes it)."""
    body = b"" if payload is None else json.dumps(payload).encode()
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n".encode() + body
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    head, _, rest = raw.partition(b"\r\n\r\n")
    return int(head.split(None, 2)[1]), json.loads(rest)


async def drive(host: str, port: int, queries: list[dict], connections: int):
    """Closed loop: each connection sends its next query once answered."""
    latencies = [0.0] * len(queries)
    replies: list = [None] * len(queries)
    position = 0

    async def client() -> None:
        nonlocal position
        while position < len(queries):
            index = position
            position += 1
            start = time.perf_counter()
            try:
                replies[index] = await request(host, port, "POST", "/query",
                                               queries[index])
            except (OSError, ValueError, IndexError) as exc:
                replies[index] = (0, {"error": f"{type(exc).__name__}: {exc}"})
            latencies[index] = time.perf_counter() - start

    start = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(connections)))
    wall = time.perf_counter() - start
    _, stats = await request(host, port, "GET", "/stats")
    return latencies, replies, wall, stats


def service_round(params: dict, queries: list[dict], deadline: float) -> dict:
    start = time.perf_counter()
    child = Child([str(HERE / "serve.py"), json.dumps(params)])
    try:
        line = child.line(deadline)
        setup_s = time.perf_counter() - start
        address = re.search(r"serving on http://([^:\s]+):(\d+)", line)
        if address is None:
            raise RoundError(f"unexpected first line {line!r}")
        connections = min(2, len(os.sched_getaffinity(0)))
        latencies, replies, wall, stats = asyncio.run(
            drive(address[1], int(address[2]), queries, connections)
        )
        child.proc.send_signal(signal.SIGINT)
        tail = child.result(deadline)
    finally:
        child.kill()
    failures = [
        f"query {index} ({queries[index]['kind']}): HTTP {status}: {body}"
        for index, (status, body) in enumerate(replies) if status != 200
    ]
    layers = tail.get("layers")
    if layers is not None:
        import spans

        layers.update(spans.engine_metrics(stats))
    return {
        "setup_s": setup_s, "wall_s": wall,
        "ops": [[query["kind"], seconds] for query, seconds in zip(queries, latencies)],
        "attempted": len(queries), "failures": failures,
        "peak_rss_mb": tail["peak_rss_mb"], "env": tail["env"], "layers": layers,
        "probe_s": tail.get("probe_s"), "probes": tail.get("probes"),
        "replies": replies,
    }


def verify_service(queries: list[dict], replies: list, seed: int,
                   deadline: float) -> list[str]:
    """Re-derive a seeded sample of answers through library calls."""
    sample = [
        {"query": queries[index], "answer": replies[index][1]}
        for index in bench.service_sample(seed, queries)
        if replies[index][0] == 200
    ]
    child = Child([str(HERE / "worker.py"), "verify-service"], stdin=json.dumps(sample))
    try:
        return child.result(deadline)["failures"]
    finally:
        child.kill()


# -- one workload ---------------------------------------------------------------


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_rounds(workload: str, seed: int, seconds: float, trace: bool,
               out: Path, deadline: float) -> tuple[list[dict], list[str]]:
    """Rounds until the next would end past ``seconds``, at least three.

    No round starts that would, taking as long as the rounds before it,
    end past ``deadline``.
    """
    queries = bench.service_queries(seed) if workload == "service-mix" else None
    rounds: list[dict] = []
    failures: list[str] = []
    start = clock()
    while True:
        elapsed = clock() - start
        next_end = elapsed + elapsed / len(rounds) if rounds else elapsed
        if len(rounds) >= MIN_ROUNDS and next_end > seconds:
            break
        if start + next_end > deadline:
            break
        index = len(rounds)
        spool = out / f".spool-{workload}-{os.getpid()}-{index}"
        spool.mkdir(parents=True, exist_ok=True)
        params = {
            "seed": seed, "trace": trace and index % 2 == 1, "spool": str(spool),
            "stem": str(out / f"{workload}-seed{seed}-round{index}"),
            "check_cells": index == 0,
        }
        try:
            if queries is not None:
                result = service_round(params, queries, deadline)
            else:
                result = worker_round(workload, params, deadline)
        except (RoundError, json.JSONDecodeError, KeyError) as exc:
            result = {"attempted": 1, "failures": [f"round {index}: {exc}"]}
        finally:
            shutil.rmtree(spool, ignore_errors=True)
        rounds.append({"index": index, "traced": params["trace"], **result})
    if queries is not None and rounds[0].get("replies") is not None:
        try:
            failures += verify_service(queries, rounds[0]["replies"], seed, deadline)
        except (RoundError, json.JSONDecodeError, KeyError) as exc:
            failures.append(f"service verification: {exc}")
    for result in rounds:
        result.pop("replies", None)
        failures += result.get("failures", [])
    return rounds, failures


def untraced(rounds: list[dict]) -> list[dict]:
    """Rounds that timed their work and probed the host's speed meanwhile."""
    return [r for r in rounds
            if not r["traced"] and r.get("wall_s") is not None and r.get("probes")]


def rescaled(result: dict, name: str) -> float:
    """A round's ``setup_s`` or ``wall_s`` at reference speed (``calibrate``)."""
    return calibrate.rescale(result[name], result["probe_s"], result["probes"])


def end_to_end(rounds: list[dict]) -> dict[str, float]:
    measured = untraced(rounds)
    return {
        "setup_s": median([rescaled(r, "setup_s") for r in measured]),
        "wall_s": median([rescaled(r, "wall_s") for r in measured]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in measured]),
    }


def raw_lines(workload: str, rounds: list[dict]) -> list[str]:
    """The times as measured, before rescaling, and the probe; not gated."""
    measured = untraced(rounds)
    probes = sum(r["probes"] for r in measured)
    probe_ms = 1e3 * sum(r["probe_s"] for r in measured) / probes if probes else 0.0
    return [
        f"{workload} measured_setup_s {median([r['setup_s'] for r in measured]):.6g} s"
        f" (n={len(measured)}, not gated)",
        f"{workload} measured_wall_s {median([r['wall_s'] for r in measured]):.6g} s"
        f" (n={len(measured)}, not gated)",
        f"{workload} probe_ms {probe_ms:.6g} ms (n={probes}, not gated)",
    ]


def latency_lines(workload: str, rounds: list[dict]) -> list[str]:
    """Operation latencies, per query kind for the service; not gated."""
    ops = [(label, seconds * 1e3) for r in untraced(rounds) for label, seconds in r["ops"]]
    groups = {"op": [ms for _, ms in ops]}
    if workload == "service-mix":
        for kind in ("predict", "optimize", "simulate"):
            groups[kind] = [ms for label, ms in ops if label == kind]
    lines = [f"{workload} {name}_p50_ms {median(values):.6g} ms (n={len(values)}, not gated)"
             for name, values in groups.items() if values]
    if len(ops) >= 1000:  # at least ten samples beyond the 99th percentile
        ordered = sorted(groups["op"])
        lines.append(f"{workload} op_p99_ms {ordered[int(0.99 * len(ordered))]:.6g} ms"
                     f" (n={len(ordered)}, not gated)")
    return lines


def per_layer(rounds: list[dict]) -> dict[str, float]:
    import spans

    traced = [r for r in rounds if r["traced"] and r.get("layers")]
    metrics = {
        name: median([r["layers"].get(name, 0.0) for r in traced])
        for name in spans.PER_LAYER
    }
    plain = median([r["wall_s"] for r in untraced(rounds)])
    metrics["trace.overhead_frac"] = (
        median([r["wall_s"] for r in traced]) / plain - 1.0 if plain and traced else 0.0
    )
    return metrics


def host() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "machine": platform.machine(), "git_sha": sha}


def measure(workload: str, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    deadline = clock() + seconds + DEADLINE_MARGIN_S
    rounds, failures = run_rounds(workload, seed, seconds, trace, out, deadline)
    if trace:
        import spans

        metrics, units = per_layer(rounds), spans.PER_LAYER
    else:
        metrics, units = end_to_end(rounds), END_TO_END
    attempted = max(1, sum(r.get("attempted", 0) for r in rounds))
    failed = min(len(failures), attempted)
    for name, value in metrics.items():
        print(f"{workload} {name} {value:.6g} {units[name][0]}")
    for line in [] if trace else raw_lines(workload, rounds) + latency_lines(workload, rounds):
        print(line)
    for failure in failures[:20]:
        print(f"{workload} FAILED {failure}", file=sys.stderr)
    env = next((r["env"] for r in rounds if "env" in r), {})
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "host": {**host(), **{k: env.get(k) for k in ("numpy", "backend")}},
        "metrics": metrics, "failures": failures, "rounds": rounds,
    }
    (out / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1)
    )
    return {
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items()},
    }


def write_expected(out: Path) -> int:
    """Record sim-paper and plan-cold answers as the new reference."""
    reference = {}
    for workload in ("sim-paper", "plan-cold"):
        spool = out / f".spool-expected-{workload}"
        spool.mkdir(parents=True, exist_ok=True)
        params = {"seed": 0, "trace": False, "spool": str(spool), "stem": "",
                  "check_cells": False}
        try:
            result = worker_round(workload, params, clock() + DEADLINE_MARGIN_S)
        finally:
            shutil.rmtree(spool, ignore_errors=True)
        if len(result["answers"]) != len(result["ops"]):
            print(f"error: {workload} operations failed", file=sys.stderr)
            return 1
        reference[workload] = result["answers"]
    (HERE / "expected.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measure for about this long per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced rounds")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for results, traces and layer tables")
    parser.add_argument("--write-expected", action="store_true",
                        help="re-record expected.json from this checkout and exit")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure at {SRC / 'repro'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    args.out.mkdir(parents=True, exist_ok=True)
    if args.write_expected:
        return write_expected(args.out)
    for workload in [args.workload] if args.workload else WORKLOADS:
        result = measure(workload, args.seed, args.seconds, bool(args.trace), args.out)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
