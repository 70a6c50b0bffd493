"""Thin stdlib HTTP/JSON front over the query engine.

One ``asyncio.start_server`` listener, no frameworks: the protocol is a
minimal HTTP/1.1 subset (request line, headers, ``Content-Length``
body, ``Connection: close`` responses), which is all the load generator
and CI smoke test need and keeps the service dependency-free.

Routes
------
- ``GET /healthz`` — liveness: ``{"status": "ok"}``.
- ``GET /stats`` — the engine's serving counters
  (:meth:`QueryEngine.stats`).
- ``POST /query`` — one what-if query per request; the JSON body is a
  query payload (see :mod:`repro.service.query`), the response the
  engine's result payload.

Error mapping mirrors the CLI's exit codes: a malformed request (a
line over the stream reader's 64 KiB limit, a request line plus headers
over :data:`MAX_HEAD_BYTES`, more than :data:`MAX_HEADER_LINES` header
lines, a negative ``Content-Length``, a
body that ends before it, or one that is not JSON or is nested too
deeply to parse) or a malformed query
(:class:`QueryError`, :class:`ConfigurationError`,
:class:`WorkloadError`) is **400**, a request not fully received within
:data:`READ_TIMEOUT_SECONDS` is **408**, admission rejection
(:class:`AdmissionError`) is **429** with the queue depth/cap in the
body, anything else inside the engine is **500**.  Every error body is
``{"error": type, "message": str, ...}`` so clients can branch without
parsing prose.
"""

from __future__ import annotations

import asyncio
import json

from repro.errors import (
    AdmissionError,
    ConfigurationError,
    DoppioError,
    QueryError,
    WorkloadError,
)
from repro.service.engine import QueryEngine

__all__ = ["QueryServer", "serve"]

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}

#: Largest query body accepted, in bytes (queries are small objects).
MAX_BODY_BYTES = 64 * 1024

#: Most header lines read from one request; more is a 400.
MAX_HEADER_LINES = 100

#: Largest request line plus headers accepted, in bytes; more is a 400.
MAX_HEAD_BYTES = 64 * 1024

#: Longest wait for a request's line, headers and body; then a 408.
READ_TIMEOUT_SECONDS = 10.0


class _BadRequest(Exception):
    """A request the front refuses before any route runs."""

    def __init__(
        self, message: str, status: int = 400, error: str = "BadRequest"
    ) -> None:
        super().__init__(message)
        self.status = status
        self.error = error


async def _read_request(reader: asyncio.StreamReader) -> tuple[str, str, bytes]:
    """Read one request: its method, path and, for ``POST /query``, body."""
    try:
        raw = await reader.readline()
        head_bytes = len(raw)
        request_line = raw.decode("latin-1").strip()
        if not request_line:
            raise _BadRequest("empty request")
        parts = request_line.split()
        if len(parts) < 2:
            raise _BadRequest(f"malformed request line {request_line!r}")
        method, path = parts[0], parts[1]
        headers: dict[str, str] = {}
        lines = 0
        while True:
            raw = await reader.readline()
            head_bytes += len(raw)
            if head_bytes > MAX_HEAD_BYTES:
                raise _BadRequest(f"request head exceeds {MAX_HEAD_BYTES} bytes")
            line = raw.decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            lines += 1
            if lines > MAX_HEADER_LINES:
                raise _BadRequest(f"more than {MAX_HEADER_LINES} header lines")
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    except ValueError as exc:  # readline: a line over the reader's limit
        raise _BadRequest(f"request or header line too long: {exc}") from None
    if method != "POST" or path != "/query":
        return method, path, b""
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        length = -1
    if length < 0:
        raise _BadRequest("invalid Content-Length")
    if length > MAX_BODY_BYTES:
        raise _BadRequest(
            f"body exceeds {MAX_BODY_BYTES} bytes", 413, "PayloadTooLarge"
        )
    try:
        return method, path, await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise _BadRequest(
            f"body ended after {len(exc.partial)} of {length} bytes"
        ) from None


class QueryServer:
    """The HTTP listener wrapping one :class:`QueryEngine`."""

    def __init__(self, engine: QueryEngine, host: str = "127.0.0.1", port: int = 8642):
        self.engine = engine
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — authoritative once started."""
        if self._server is None or not self._server.sockets:
            return (self.host, self.port)
        sock = self._server.sockets[0]
        name = sock.getsockname()
        return (name[0], name[1])

    async def start(self) -> None:
        await self.engine.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.host, self.port = self.address

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.engine.close()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    # -- request handling ----------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, payload = await self._respond(reader)
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            status, payload = 500, {
                "error": type(exc).__name__, "message": str(exc),
            }
        body = json.dumps(payload).encode()
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode()
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass  # client went away; nothing to salvage
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _respond(self, reader: asyncio.StreamReader) -> tuple[int, dict]:
        try:
            method, path, raw = await asyncio.wait_for(
                _read_request(reader), READ_TIMEOUT_SECONDS
            )
        except asyncio.TimeoutError:
            return 408, {
                "error": "RequestTimeout",
                "message": f"request not received within {READ_TIMEOUT_SECONDS} s",
            }
        except _BadRequest as exc:
            return exc.status, {"error": exc.error, "message": str(exc)}

        if method == "GET" and path == "/healthz":
            return 200, {"status": "ok"}
        if method == "GET" and path == "/stats":
            return 200, self.engine.stats()
        if path == "/query":
            if method != "POST":
                return 405, {
                    "error": "MethodNotAllowed",
                    "message": "use POST /query",
                }
            try:
                payload = json.loads(raw.decode() or "null")
            except ValueError as exc:
                # Bad UTF-8, bad JSON (both ValueErrors) or an integer
                # literal past Python's digit limit for str -> int.
                return 400, {
                    "error": "BadRequest",
                    "message": f"body is not valid JSON: {exc}",
                }
            except RecursionError:
                # Under MAX_BODY_BYTES, yet nested past the parser's depth.
                return 400, {
                    "error": "BadRequest",
                    "message": "body is nested too deeply to parse",
                }
            return await self._query(payload)
        return 404, {"error": "NotFound", "message": f"no route {method} {path}"}

    async def _query(self, payload) -> tuple[int, dict]:
        try:
            result = await self.engine.submit(payload)
        except AdmissionError as exc:
            return 429, {
                "error": "AdmissionError",
                "message": str(exc),
                "queue_depth": exc.queue_depth,
                "queue_cap": exc.queue_cap,
            }
        except (QueryError, ConfigurationError, WorkloadError) as exc:
            return 400, {"error": type(exc).__name__, "message": str(exc)}
        except DoppioError as exc:
            return 500, {"error": type(exc).__name__, "message": str(exc)}
        return 200, result


async def serve(
    engine: QueryEngine,
    host: str = "127.0.0.1",
    port: int = 8642,
    ready=None,
) -> None:
    """Run the server until cancelled; ``ready(host, port)`` fires once bound."""
    server = QueryServer(engine, host=host, port=port)
    await server.start()
    if ready is not None:
        ready(*server.address)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.close()
