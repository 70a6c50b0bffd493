"""QueryServer: routes, error mapping, HTTP round trips on port 0."""

import asyncio
import json

import pytest

from repro.cli import WORKLOADS
from repro.pipeline import ResultCache, SpecSource
from repro.service import QueryEngine, QueryServer
import repro.service.http as http_module
from repro.service.http import MAX_BODY_BYTES, MAX_HEAD_BYTES, MAX_HEADER_LINES
from repro.service.loadgen import _http_get, _http_post, _split_url

NAME = "lr-small"
SPEC = WORKLOADS[NAME]()


@pytest.fixture(scope="module")
def profiled_shard():
    cache = ResultCache()
    SpecSource(SPEC, profile_nodes=3).resolve(cache)
    return cache.export_shard()


def server_cache(profiled_shard) -> ResultCache:
    cache = ResultCache()
    cache.merge_shard(profiled_shard)
    return cache


async def raw_request(host: str, port: int, blob: bytes) -> tuple[int, dict]:
    """Send raw bytes and EOF, return (status, parsed JSON body).

    The body is read by its ``Content-Length``, not to EOF: a server that
    answers before reading the whole request may reset the connection
    once its answer is out.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(blob)
        writer.write_eof()
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        length = next(
            int(line.split(":", 1)[1])
            for line in lines
            if line.lower().startswith("content-length:")
        )
        body = await reader.readexactly(length)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass
    status = int(lines[0].split()[1])
    return status, json.loads(body.decode() or "null")


def post_blob(path: str, body: bytes) -> bytes:
    return (
        f"POST {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    ).encode() + body


class TestRoutes:
    def test_healthz_stats_and_query_round_trip(self, profiled_shard):
        async def scenario():
            engine = QueryEngine({NAME: SPEC}, cache=server_cache(profiled_shard))
            server = QueryServer(engine, port=0)  # port 0: kernel picks one
            await server.start()
            try:
                host, port = server.address
                assert port != 0
                health = await _http_get(host, port, "/healthz")
                assert health == {"status": "ok"}
                answer = await _http_post(
                    host,
                    port,
                    "/query",
                    {
                        "kind": "predict",
                        "workload": NAME,
                        "vcpus": 16,
                        "hdfs_kind": "pd-ssd",
                        "hdfs_gb": 512,
                        "local_kind": "pd-ssd",
                        "local_gb": 1024,
                    },
                )
                assert answer["kind"] == "predict"
                assert answer["runtime_seconds"] > 0
                stats = await _http_get(host, port, "/stats")
                assert stats["queries"] == 1
            finally:
                await server.close()

        asyncio.run(scenario())

    def test_error_statuses(self, profiled_shard):
        async def scenario():
            engine = QueryEngine({NAME: SPEC}, cache=server_cache(profiled_shard))
            server = QueryServer(engine, port=0)
            await server.start()
            host, port = server.address
            try:
                # Unknown route -> 404.
                status, body = await raw_request(
                    host,
                    port,
                    b"GET /nope HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
                )
                assert status == 404 and body["error"] == "NotFound"
                # GET on /query -> 405.
                status, body = await raw_request(
                    host,
                    port,
                    b"GET /query HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
                )
                assert status == 405
                # Non-JSON body -> 400.
                status, body = await raw_request(
                    host, port, post_blob("/query", b"{not json")
                )
                assert status == 400 and "JSON" in body["message"]
                # Bad query (unknown kind) -> 400 QueryError.
                status, body = await raw_request(
                    host, port, post_blob("/query", b'{"kind": "explain"}')
                )
                assert status == 400 and body["error"] == "QueryError"
                # A repeated vcpu_grid entry -> 400 QueryError, not a
                # search over duplicated candidates.
                status, body = await raw_request(
                    host, port, post_blob("/query", json.dumps({
                        "kind": "optimize", "workload": NAME,
                        "vcpu_grid": [4, 4],
                    }).encode())
                )
                assert status == 400 and body["error"] == "QueryError"
                assert "repeats" in body["message"]
                # A simulate shape no node or cap admits -> 400, not
                # three failed simulations and a 500.
                for shape, field in (
                    ({"slaves": 2, "cores": 64}, "cores"),
                    ({"slaves": 20000, "cores": 36}, "slaves"),
                ):
                    status, body = await raw_request(
                        host, port, post_blob("/query", json.dumps({
                            "kind": "simulate", "workload": NAME, **shape,
                        }).encode())
                    )
                    assert status == 400 and body["error"] == "QueryError"
                    assert f"{field} must be <=" in body["message"]
                # JSON nested past the parser's depth -> 400, not a 500.
                nested = b"[" * 30000 + b"]" * 30000
                assert len(nested) <= MAX_BODY_BYTES
                status, body = await raw_request(
                    host, port, post_blob("/query", nested)
                )
                assert status == 400 and body["error"] == "BadRequest"
                assert "nested too deeply" in body["message"]
                # Oversized body -> 413 before reading it.
                huge = (
                    f"POST /query HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Length: {MAX_BODY_BYTES + 1}\r\n"
                    f"Connection: close\r\n\r\n"
                ).encode()
                status, body = await raw_request(host, port, huge)
                assert status == 413
                # Empty request line -> 400.
                status, body = await raw_request(host, port, b"\r\n")
                assert status == 400
                # Negative Content-Length -> 400, not a readexactly crash.
                status, body = await raw_request(
                    host,
                    port,
                    b"POST /query HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: -5\r\nConnection: close\r\n\r\n",
                )
                assert status == 400 and body["error"] == "BadRequest"
                # Body shorter than its Content-Length, then EOF -> 400.
                truncated = post_blob("/query", b'{"kind": "predict"}')
                status, body = await raw_request(host, port, truncated[:-5])
                assert status == 400 and "body ended" in body["message"]
                # A line over the stream reader's 64 KiB limit -> 400.
                status, body = await raw_request(
                    host,
                    port,
                    b"GET /" + b"a" * (70 * 1024) + b" HTTP/1.1\r\n\r\n",
                )
                assert status == 400 and "too long" in body["message"]
                # One header line past MAX_HEADER_LINES -> 400; at it -> 200.
                padded = (
                    b"GET /healthz HTTP/1.1\r\n"
                    + b"X-Pad: 1\r\n" * MAX_HEADER_LINES
                )
                status, body = await raw_request(
                    host, port, padded + b"X-Pad: 1\r\n\r\n"
                )
                assert status == 400 and "header lines" in body["message"]
                status, body = await raw_request(host, port, padded + b"\r\n")
                assert status == 200
            finally:
                await server.close()

        asyncio.run(scenario())

    def test_non_finite_disk_size_is_a_400(self, profiled_shard):
        # json.loads reads a bare NaN; the query parser must refuse it.
        body = (
            b'{"kind": "predict", "workload": "lr-small", "vcpus": 16,'
            b' "hdfs_kind": "pd-ssd", "hdfs_gb": NaN,'
            b' "local_kind": "pd-ssd", "local_gb": 1024}'
        )

        async def scenario():
            engine = QueryEngine({NAME: SPEC}, cache=server_cache(profiled_shard))
            server = QueryServer(engine, port=0)
            await server.start()
            host, port = server.address
            try:
                status, answer = await raw_request(
                    host, port, post_blob("/query", body)
                )
                assert status == 400 and answer["error"] == "QueryError"
                assert "hdfs_gb must be finite" in answer["message"]
                stats = await _http_get(host, port, "/stats")
                assert (stats["queries"], stats["errors"]) == (1, 1)
                assert stats["lru"]["size"] == 0
            finally:
                await server.close()

        asyncio.run(scenario())

    def test_over_long_integer_literal_is_a_400(self, profiled_shard):
        # Past Python's 4,300-digit limit json.loads raises a plain
        # ValueError, neither a JSONDecodeError nor a RecursionError.
        body = (
            b'{"kind": "predict", "workload": "lr-small", "vcpus": 16,'
            b' "hdfs_kind": "pd-ssd", "hdfs_gb": ' + b"9" * 5000 + b','
            b' "local_kind": "pd-ssd", "local_gb": 1024}'
        )
        assert len(body) <= MAX_BODY_BYTES

        async def scenario():
            engine = QueryEngine({NAME: SPEC}, cache=server_cache(profiled_shard))
            server = QueryServer(engine, port=0)
            await server.start()
            host, port = server.address
            try:
                status, answer = await raw_request(
                    host, port, post_blob("/query", body)
                )
                assert status == 400 and answer["error"] == "BadRequest"
                assert "not valid JSON" in answer["message"]
            finally:
                await server.close()

        asyncio.run(scenario())

    def test_request_head_over_the_byte_cap_is_a_400(self, profiled_shard):
        # 40 header lines of 2 KiB each: every line and the line count
        # are within their caps, the 80 KiB head is not.
        pad = b"X-Pad: " + b"a" * (2048 - len("X-Pad: \r\n")) + b"\r\n"
        head = b"GET /healthz HTTP/1.1\r\n" + pad * 40
        assert len(head) > MAX_HEAD_BYTES

        async def scenario():
            engine = QueryEngine({NAME: SPEC}, cache=server_cache(profiled_shard))
            server = QueryServer(engine, port=0)
            await server.start()
            host, port = server.address
            try:
                status, body = await raw_request(host, port, head + b"\r\n")
                assert status == 400 and body["error"] == "BadRequest"
                assert "request head exceeds" in body["message"]
                # The same headers under the cap are served.
                status, body = await raw_request(
                    host, port, head[: MAX_HEAD_BYTES // 2] + b"\r\n\r\n"
                )
                assert status == 200
            finally:
                await server.close()

        asyncio.run(scenario())


async def stalled_request(host: str, port: int, blob: bytes) -> bytes:
    """Send part of a request, keep the connection open, read the reply."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(blob)
        await writer.drain()
        return await asyncio.wait_for(reader.read(), timeout=5)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass


class TestReadDeadline:
    """A client that stops sending gets a 408, not a connection held open."""

    @pytest.mark.parametrize(
        "blob",
        [
            b"POST /query HTTP/1.1\r\nContent-Length: 10\r\n",
            b"POST /query HTTP/1.1\r\nContent-Length: 10\r\n\r\n{\"kind\"",
        ],
        ids=["half-sent-head", "short-body"],
    )
    def test_stalled_request_is_a_408(self, profiled_shard, monkeypatch, blob):
        monkeypatch.setattr(http_module, "READ_TIMEOUT_SECONDS", 0.2)

        async def scenario():
            engine = QueryEngine({NAME: SPEC}, cache=server_cache(profiled_shard))
            server = QueryServer(engine, port=0)
            await server.start()
            host, port = server.address
            try:
                reply = await stalled_request(host, port, blob)
            finally:
                await server.close()
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 408 Request Timeout")
            assert json.loads(body)["error"] == "RequestTimeout"

        asyncio.run(scenario())


class TestSplitUrl:
    def test_accepts_with_and_without_scheme(self):
        assert _split_url("http://127.0.0.1:8642") == ("127.0.0.1", 8642)
        assert _split_url("127.0.0.1:9000") == ("127.0.0.1", 9000)
        assert _split_url("http://localhost") == ("localhost", 80)

    def test_rejects_garbage(self):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError, match="cannot parse"):
            _split_url("http://")
