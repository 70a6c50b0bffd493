"""Load generator: the service's benchmark traffic.

Builds a deterministic what-if query mix (``distinct`` predict
configurations, each repeated ``duplicates`` times, interleaved so
repeats land while the original is often still in flight), fires it at
an engine — in-process or over HTTP — under bounded concurrency, and
reports throughput, latency percentiles, and the engine's coalescing
counters.
"""

from __future__ import annotations

import asyncio
import json
import time
from urllib.parse import urlsplit

from repro.errors import ServiceError

__all__ = [
    "build_queries",
    "percentile",
    "run_against_engine",
    "run_against_url",
    "summarize",
]

#: The vcpu sizes the generated mix cycles through.
_VCPU_CYCLE = (4, 8, 16, 32)
_DISK_CYCLE = ("pd-standard", "pd-ssd")


def build_queries(
    workload: str, distinct: int = 40, duplicates: int = 5
) -> list[dict]:
    """A deterministic interleaved what-if query mix.

    ``distinct`` unique predict configurations are laid out round-robin
    ``duplicates`` times — ``a b c ... a b c ...`` — so every duplicate
    of a query arrives separated from its twin by the full distinct set.
    Under concurrency that exercises both the single-flight table (twins
    in flight together) and the LRU (twins arriving after completion).
    """
    uniques = []
    for index in range(distinct):
        uniques.append(
            {
                "kind": "predict",
                "workload": workload,
                "vcpus": _VCPU_CYCLE[index % len(_VCPU_CYCLE)],
                "hdfs_kind": _DISK_CYCLE[index % len(_DISK_CYCLE)],
                "hdfs_gb": 512.0 + 16.0 * (index // len(_VCPU_CYCLE)),
                "local_kind": _DISK_CYCLE[(index + 1) % len(_DISK_CYCLE)],
                "local_gb": 1024.0 + 16.0 * (index // len(_VCPU_CYCLE)),
                "num_workers": 10,
            }
        )
    return [query for _ in range(duplicates) for query in uniques]


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile over pre-sorted values (q in [0, 100])."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, round(q / 100.0 * (len(sorted_values) - 1))))
    return sorted_values[rank]


def summarize(latencies: list[float], wall_seconds: float) -> dict:
    """Throughput and latency stats for one run."""
    ordered = sorted(latencies)
    return {
        "queries": len(latencies),
        "wall_seconds": wall_seconds,
        "qps": len(latencies) / wall_seconds if wall_seconds > 0 else 0.0,
        "p50_ms": percentile(ordered, 50) * 1e3,
        "p99_ms": percentile(ordered, 99) * 1e3,
        "max_ms": (ordered[-1] if ordered else 0.0) * 1e3,
    }


async def _drive(queries: list[dict], concurrency: int, call) -> dict:
    """Pump the mix through ``call`` with a fixed worker pool.

    A pool of ``concurrency`` workers pulling the next index keeps the
    dispatch overhead per query to one coroutine resumption; a
    task-per-query gather would charge the measured latencies with 10x
    the event-loop bookkeeping.
    """
    latencies: list[float] = [0.0] * len(queries)
    results: list = [None] * len(queries)
    next_index = 0

    async def worker() -> None:
        nonlocal next_index
        while next_index < len(queries):
            index = next_index
            next_index += 1  # safe: no await between read and increment
            start = time.perf_counter()
            results[index] = await call(queries[index])
            latencies[index] = time.perf_counter() - start

    pool = max(1, min(concurrency, len(queries)))
    wall_start = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(pool)))
    wall = time.perf_counter() - wall_start
    summary = summarize(latencies, wall)
    summary["results"] = results
    return summary


async def run_against_engine(
    engine, queries: list[dict], concurrency: int = 25
) -> dict:
    """Fire the mix at an in-process engine; returns stats + results.

    ``results`` preserves query order, so callers can spot-check any
    answer against the equivalent direct library call.
    """
    summary = await _drive(queries, concurrency, engine.submit)
    summary["engine"] = engine.stats()
    return summary


async def _http_post(host: str, port: int, path: str, payload: dict) -> dict:
    """One POST over a fresh connection (server is Connection: close)."""
    body = json.dumps(payload).encode()
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            (
                f"POST {path} HTTP/1.1\r\n"
                f"Host: {host}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n"
            ).encode()
            + body
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass
    head, _, rest = raw.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].decode("latin-1")
    try:
        status = int(status_line.split()[1])
    except (IndexError, ValueError) as exc:
        raise ServiceError(f"malformed response: {status_line!r}") from exc
    try:
        parsed = json.loads(rest.decode() or "null")
    except json.JSONDecodeError as exc:
        raise ServiceError(f"non-JSON response body: {exc}") from exc
    if status != 200:
        message = parsed.get("message", status_line) if isinstance(parsed, dict) else status_line
        raise ServiceError(f"HTTP {status}: {message}")
    return parsed


async def _http_get(host: str, port: int, path: str) -> dict:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n".encode()
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass
    _, _, rest = raw.partition(b"\r\n\r\n")
    return json.loads(rest.decode() or "{}")


def _split_url(url: str) -> tuple[str, int]:
    parts = urlsplit(url if "//" in url else f"http://{url}")
    if not parts.hostname:
        raise ServiceError(f"cannot parse service URL {url!r}")
    return parts.hostname, parts.port or 80


async def run_against_url(
    url: str, queries: list[dict], concurrency: int = 25
) -> dict:
    """Fire the mix at a running server over HTTP."""
    host, port = _split_url(url)

    async def call(payload: dict) -> dict:
        return await _http_post(host, port, "/query", payload)

    summary = await _drive(queries, concurrency, call)
    summary["engine"] = await _http_get(host, port, "/stats")
    return summary
