"""The service's process pool: sockets, identity with serial, close.

These run real simulations at small shapes (lr-small at 2 slaves x 2
cores simulates in about 0.1 s): a monkeypatched task function never
reaches a worker that a fork server started, so nothing here patches
one.
"""

import asyncio
import json
import os
import time

import pytest

from repro.cli import WORKLOADS
from repro.errors import ServiceError
from repro.parallel import ProcessPoolBackend
from repro.service import QueryEngine, QueryServer
from repro.service.query import MAX_SIMULATE_SLAVES

NAMES = ("lr-small", "svm")
SPECS = {name: WORKLOADS[name]() for name in NAMES}
SIMULATE = {"kind": "simulate", "workload": "lr-small", "slaves": 2, "cores": 2}


def predict_payload(name: str) -> dict:
    return {
        "kind": "predict", "workload": name, "vcpus": 16,
        "hdfs_kind": "pd-ssd", "hdfs_gb": 512, "local_kind": "pd-ssd",
        "local_gb": 1024,
    }


async def post_until_eof(host: str, port: int, payload: dict) -> bytes:
    """POST ``payload`` and read to EOF, as ``repro loadgen --url`` does."""
    reader, writer = await asyncio.open_connection(host, port)
    body = json.dumps(payload).encode()
    writer.write(
        f"POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: {len(body)}"
        f"\r\nConnection: close\r\n\r\n".encode() + body
    )
    await writer.drain()
    try:
        return await reader.read()  # returns only at EOF
    finally:
        writer.close()


def test_a_client_reading_to_eof_gets_its_reply_and_eof():
    # A worker forked from the server would inherit the accepted socket
    # and hold the connection open after the server closes its copy:
    # the reply would arrive, EOF never.
    async def scenario():
        engine = QueryEngine({"lr-small": SPECS["lr-small"]}, workers=2,
                             profile_nodes=2)
        server = QueryServer(engine, port=0)
        await server.start()
        try:
            host, port = server.address
            raw = await asyncio.wait_for(
                post_until_eof(host, port, SIMULATE), timeout=30
            )
            stats = engine.stats()
        finally:
            await server.close()
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200")
        assert json.loads(body)["total_seconds"] > 0
        assert stats["sim"]["backend"] == "ProcessPoolBackend"
        assert stats["sim"]["completed"] == 1

    asyncio.run(scenario())


def test_warm_in_the_pool_matches_the_serial_engine():
    async def answers(workers):
        engine = QueryEngine(dict(SPECS), workers=workers, profile_nodes=2)
        async with engine:
            await engine.warm()
            states = {
                name: (
                    engine._states[name].resolved.report,
                    engine._states[name].resolved.report_fingerprint,
                )
                for name in NAMES
            }
            predictions = [
                await engine.submit(predict_payload(name)) for name in NAMES
            ]
            simulated = await engine.submit(SIMULATE)
            backend = engine.stats()["sim"]["backend"]
            reports = engine.cache.stats()["reports"]["entries"]
        return states, predictions, simulated, backend, reports

    serial = asyncio.run(answers(None))
    pooled = asyncio.run(answers(2))
    assert (serial[3], pooled[3]) == ("SerialBackend", "ProcessPoolBackend")
    assert pooled[:3] == serial[:3]
    # Both reports came back as shards merged into the shared store.
    assert pooled[4] == serial[4] == len(NAMES)


def test_close_during_a_pooled_simulation_returns_promptly():
    # gatk4 at the slave cap on HDDs simulates for well over ten
    # seconds; close must kill the worker, not wait the run out.
    slow = {"kind": "simulate", "workload": "gatk4",
            "slaves": MAX_SIMULATE_SLAVES, "cores": 36,
            "hdfs": "hdd", "local": "hdd"}

    async def scenario():
        engine = QueryEngine({"gatk4": WORKLOADS["gatk4"]()}, workers=2)
        backend = engine._backend
        assert isinstance(backend, ProcessPoolBackend)
        await engine.start()
        simulate = asyncio.create_task(engine.submit(slow))
        deadline = time.monotonic() + 30
        while not backend.worker_pids() and time.monotonic() < deadline:
            await asyncio.sleep(0.05)
        pids = backend.worker_pids()
        assert pids, "the simulation never reached a worker"
        await asyncio.sleep(0.5)  # let the worker get into the run
        assert not simulate.done()
        started = time.monotonic()
        await asyncio.wait_for(engine.close(), timeout=10)
        elapsed = time.monotonic() - started
        with pytest.raises(ServiceError):
            await simulate
        return elapsed, pids

    elapsed, pids = asyncio.run(scenario())
    assert elapsed < 5.0
    deadline = time.monotonic() + 10
    alive = set(pids)
    while alive and time.monotonic() < deadline:
        for pid in list(alive):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                alive.discard(pid)
        time.sleep(0.05)
    assert not alive, f"workers {sorted(alive)} outlived close()"
