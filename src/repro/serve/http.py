"""Asyncio HTTP/1.1 front for :class:`~repro.serve.app.ServeApp`.

A deliberately small server on ``asyncio.start_server``: enough HTTP/1.1
for JSON request/response traffic (keep-alive, ``Content-Length`` bodies,
405/404/413/400 semantics) and nothing more — no chunked encoding, no
TLS, no pipelining guarantees. Responses are JSON rendered with sorted
keys, so identical payloads are byte-identical on the wire regardless of
handler dict-construction order.

:class:`ServerThread` wraps the server in a daemon thread owning its own
event loop — the shape the CLI, the load generator's ``--self`` mode, and
the tests all share: start, serve on an ephemeral port, drive traffic,
``stop()`` to drain gracefully.
"""

from __future__ import annotations

import asyncio
import json
import threading

from .schemas import error_response

#: Request line + headers cap (bytes) — anything longer is a 431.
MAX_HEADER_BYTES = 16 * 1024
#: Request body cap (bytes) — anything longer is a 413.
MAX_BODY_BYTES = 1024 * 1024

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Content Too Large", 429: "Too Many Requests",
    431: "Request Header Fields Too Large", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}


class _BadRequest(Exception):
    """A malformed request that still deserves a proper HTTP error."""

    def __init__(self, status, message):
        self.status = status
        self.message = message
        super().__init__(message)


def render_response(status, headers, payload):
    """Serialize one response to bytes.

    Dict/list payloads render as sorted-key JSON; a ``str`` payload is
    sent as-is with a text content type — the shape ``GET /metrics``
    needs for its Prometheus text exposition. Handler-supplied headers
    (e.g. an explicit ``Content-Type``) override the defaults.
    """
    if isinstance(payload, str):
        body = payload.encode("utf-8")
        content_type = "text/plain; charset=utf-8"
    else:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        content_type = "application/json"
    reason = _REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    merged = {
        "Content-Type": content_type,
        "Content-Length": str(len(body)),
    }
    merged.update(headers or {})
    for name in sorted(merged):
        lines.append(f"{name}: {merged[name]}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


async def _read_request(reader):
    """Parse one request; ``None`` on a cleanly closed keep-alive."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise _BadRequest(400, "truncated request") from None
    except asyncio.LimitOverrunError:
        raise _BadRequest(431, "headers too large") from None
    if len(head) > MAX_HEADER_BYTES:
        raise _BadRequest(431, "headers too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _BadRequest(400, "malformed request line")
    method, target, _version = parts
    path = target.split("?", 1)[0]
    headers = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    body = b""
    length = headers.get("content-length", "")
    if length:
        try:
            size = int(length)
        except ValueError:
            raise _BadRequest(400, "bad Content-Length") from None
        if size < 0:
            raise _BadRequest(400, "bad Content-Length")
        if size > MAX_BODY_BYTES:
            raise _BadRequest(413, "body too large")
        try:
            body = await reader.readexactly(size)
        except asyncio.IncompleteReadError:
            raise _BadRequest(400, "truncated body") from None
    elif headers.get("transfer-encoding"):
        raise _BadRequest(400, "chunked bodies not supported")
    return method, path, headers, body


class HttpServer:
    """The asyncio server: accept loop, connection handling, drain."""

    def __init__(self, app, host="127.0.0.1", port=0):
        self.app = app
        self.host = host
        self.port = port
        self._server = None
        self._connections = set()

    async def start(self):
        self.app.startup()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=MAX_HEADER_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    @property
    def address(self):
        return f"http://{self.host}:{self.port}"

    async def _handle_connection(self, reader, writer):
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except _BadRequest as error:
                    writer.write(render_response(
                        error.status, {"Connection": "close"},
                        error_response(error.status, error.message),
                    ))
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, headers, body = request
                try:
                    status, response_headers, payload = \
                        await self.app.dispatch(method, path, headers, body)
                except Exception as error:  # handler bug — don't kill the
                    status = 500            # connection loop with it
                    response_headers = {}
                    payload = error_response(
                        500, "internal error",
                        {"exception": type(error).__name__},
                    )
                close = headers.get("connection", "").lower() == "close"
                if close:
                    response_headers = dict(response_headers)
                    response_headers["Connection"] = "close"
                writer.write(render_response(
                    status, response_headers, payload
                ))
                await writer.drain()
                if close:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def serve_forever(self):
        async with self._server:
            await self._server.serve_forever()

    async def shutdown(self, timeout=60.0):
        """Graceful drain: stop accepting, finish in-flight, persist.

        The app's pool drain blocks, so it runs in a thread off the loop —
        in-flight requests still need this very loop to complete.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        drained = await asyncio.to_thread(self.app.shutdown, timeout)
        # In-flight requests are done; snap idle keep-alive connections so
        # their handler tasks exit before the loop is torn down.
        for writer in list(self._connections):
            writer.close()
        deadline = asyncio.get_running_loop().time() + 5.0
        while self._connections and \
                asyncio.get_running_loop().time() < deadline:
            await asyncio.sleep(0.01)
        return drained


class ServerThread:
    """An :class:`HttpServer` on its own event loop in a daemon thread.

    ``start()`` blocks until the socket is bound (or raises the startup
    error); ``stop()`` runs the graceful drain and joins the thread.
    """

    def __init__(self, app, host="127.0.0.1", port=0):
        self.server = HttpServer(app, host=host, port=port)
        self._loop = None
        self._thread = None
        self._ready = threading.Event()
        self._startup_error = None
        self._stopped = False

    @property
    def address(self):
        return self.server.address

    @property
    def port(self):
        return self.server.port

    def start(self, timeout=120.0):
        self._thread = threading.Thread(
            target=self._run, name="serve-http", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise TimeoutError("server failed to start in time")
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        return self

    def _run(self):
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.server.start())
        except BaseException as error:  # surface to start()'s caller
            self._startup_error = error
            self._ready.set()
            self._loop.close()
            return
        self._ready.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(
                self._loop.shutdown_asyncgens()
            )
            self._loop.close()

    def stop(self, timeout=60.0):
        """Drain gracefully and join the server thread."""
        if self._stopped or self._loop is None:
            return True
        self._stopped = True
        future = asyncio.run_coroutine_threadsafe(
            self.server.shutdown(timeout), self._loop
        )
        drained = future.result(timeout + 30.0)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(30.0)
        return drained
