"""Networked tool servers and the matching client.

The protocol is a minimal JSON-RPC-2.0-shaped HTTP POST exchange with two
methods, ``tools/list`` and ``tools/call``. The run-session identifier
travels in a request header so tool names stay clean. An in-process
loopback transport shares the exact request-handling path with the HTTP
server, JSON encoding aside, so both behave identically. A server keeps no
clock: a simulated tool takes no time, and only a client times a call.

Both ends frame one HTTP/1.1 dialect themselves: a POST whose JSON body is
framed by ``Content-Length`` (RFC 9112 section 6), on a connection kept for a
run (section 9). A request, like a reply, leaves in one send.
"""

from __future__ import annotations

import email.utils
import itertools
import json
import select
import socket
import sys
import threading
import time
from collections.abc import Mapping
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, BinaryIO
from urllib.parse import urlsplit

from .model import CallOrigin, ToolCallRecord, normalize_arguments
from .toolsim.host import ArgumentValidationError, ToolHost, ToolNotFoundError

SESSION_HEADER = "X-Run-Session"
DEFAULT_TIMEOUT_S = 10.0
# how often a server's accept loop checks for shutdown; close() waits up to this
SERVE_POLL_S = 0.05
MAX_HEAD_LINES, MAX_LINE, MAX_BODY = 100, 65536, 1 << 20  # head as in http.server

ERR_PARSE = -32700
ERR_INVALID_REQUEST = -32600
ERR_METHOD_NOT_FOUND = -32601
ERR_INVALID_PARAMS = -32602
ERR_INTERNAL = -32603
ERR_TOOL_NOT_FOUND = -32001


def _error(req_id: Any, code: int, message: str, data: Any = None) -> dict[str, Any]:
    err: dict[str, Any] = {"code": code, "message": message}
    if data is not None:
        err["data"] = data
    return {"jsonrpc": "2.0", "id": req_id, "error": err}


def _result(req_id: Any, result: Any) -> dict[str, Any]:
    return {"jsonrpc": "2.0", "id": req_id, "result": result}


def _internal_to_wire(call: ToolCallRecord) -> dict[str, Any]:
    """A sub-call of an encapsulated tool as it travels in ``internal_calls``;
    its times count from the start of the parent call."""
    return {
        "name": call.tool_name,
        "arguments": call.arguments,
        "content": call.result,
        "is_error": not call.success,
        "offset_ms": call.started_at,
        "duration_ms": call.duration_ms,
    }


def _internal_from_wire(
    item: Mapping[str, Any], step_index: int, started_at: int, ended_at: int
) -> ToolCallRecord:
    """The inverse of ``_internal_to_wire``, rebased onto the parent call's
    interval in the caller's clock and clamped to it."""
    start = min(started_at + max(int(item.get("offset_ms", 0)), 0), ended_at)
    end = min(start + max(int(item.get("duration_ms", 0)), 0), ended_at)
    return ToolCallRecord(
        step_index=step_index,
        tool_name=item["name"],
        arguments=normalize_arguments(item.get("arguments", {})),
        result=item.get("content"),
        success=not item.get("is_error", False),
        started_at=start,
        ended_at=end,
        origin=CallOrigin.TOOL_INTERNAL,
    )


def handle_rpc(host: ToolHost, payload: Any, session_id: str) -> dict[str, Any]:
    """Dispatch one decoded request body against a host. Shared by HTTP and
    loopback; every body gets a reply."""
    if not isinstance(payload, Mapping):
        return _error(None, ERR_INVALID_REQUEST, "request must be a JSON object")
    req_id = payload.get("id")
    if payload.get("jsonrpc") != "2.0" or "method" not in payload:
        return _error(req_id, ERR_INVALID_REQUEST, "not a jsonrpc 2.0 request")
    method = payload["method"]
    params = {} if payload.get("params") is None else payload["params"]
    if not isinstance(params, Mapping):
        return _error(req_id, ERR_INVALID_PARAMS, "params must be an object")

    if method == "tools/list":
        return _result(req_id, {"tools": host.list_tools()})

    if method == "tools/call":
        name = params.get("name")
        if not isinstance(name, str):
            return _error(req_id, ERR_INVALID_PARAMS, "params.name must be a string")
        arguments = {} if params.get("arguments") is None else params["arguments"]
        if not isinstance(arguments, Mapping):
            return _error(req_id, ERR_INVALID_PARAMS, "params.arguments must be an object")
        try:
            outcome = host.call_tool(name, arguments, session_id)
        except ToolNotFoundError as exc:
            return _error(req_id, ERR_TOOL_NOT_FOUND, str(exc), data={"name": name})
        except ArgumentValidationError as exc:
            return _error(
                req_id, ERR_INVALID_PARAMS, str(exc), data={"problems": exc.problems}
            )
        except Exception as exc:  # handler bug: surface as a failed call
            return _error(req_id, ERR_INTERNAL, f"tool execution failed: {exc}")
        result: dict[str, Any] = {
            "content": outcome.content,
            "is_error": outcome.is_error,
        }
        if outcome.internal_calls:
            result["internal_calls"] = [_internal_to_wire(c) for c in outcome.internal_calls]
        return _result(req_id, result)

    return _error(req_id, ERR_METHOD_NOT_FOUND, f"unknown method: {method}")


# ---------------------------------------------------------------------------
# HTTP server


def _read_headers(rfile: BinaryIO) -> dict[str, str]:
    """The header lines up to the blank one, keyed by lower-case name."""
    headers = {}
    for _ in range(MAX_HEAD_LINES):
        line = rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise ValueError("header line too long")
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    raise ValueError(f"more than {MAX_HEAD_LINES - 1} headers")


def _closes(version: str, headers: Mapping[str, str]) -> bool:  # RFC 9112 section 9.3
    connection = headers.get("connection", "").lower()
    return connection == "close" or (version == "HTTP/1.0" and connection != "keep-alive")


class _RpcRequestHandler(BaseHTTPRequestHandler):
    server_version = "procharness/0.1"
    protocol_version = "HTTP/1.1"  # keep-alive: one connection serves a run
    wbufsize = 1 << 16  # over any reply (20 KB at most): each leaves in one send
    disable_nagle_algorithm = True
    timeout = DEFAULT_TIMEOUT_S  # an idle or stalled connection then frees its thread

    def date_time_string(self, timestamp: float | None = None) -> str:
        """The ``Date`` header, formatted once a second: it has one-second
        resolution, so the bytes are those of ``formatdate``."""
        server: ToolServer = self.server  # type: ignore[assignment]
        now = int(time.time() if timestamp is None else timestamp)
        second, text = server.date  # one read: another thread may replace it
        if second != now:
            text = email.utils.formatdate(now, usegmt=True)
            server.date = (now, text)
        return text

    def parse_request(self) -> bool:
        self.command, self.request_version = None, "HTTP/1.1"  # for an error reply
        self.requestline = self.raw_requestline.decode("latin-1").rstrip("\r\n")
        words = self.requestline.split()
        if len(words) != 3 or words[2] not in ("HTTP/1.0", "HTTP/1.1"):
            self.send_error(HTTPStatus.BAD_REQUEST, "Bad request line")
            return False
        self.command, self.path, self.request_version = words
        try:
            self.headers = _read_headers(self.rfile)  # type: ignore[assignment]
        except ValueError as exc:
            self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, str(exc))
            return False
        self.close_connection = _closes(self.request_version, self.headers)
        expect = self.headers.get("expect", "").lower()
        if expect == "100-continue" and self.request_version == "HTTP/1.1":
            self.handle_expect_100()
            self.wfile.flush()  # the client sends the body only once this arrives
        return True

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        server: ToolServer = self.server  # type: ignore[assignment]
        session_id = self.headers.get(SESSION_HEADER.lower(), "default")
        length = self.headers.get("content-length")  # the one framing spoken here
        if length is None or "transfer-encoding" in self.headers:
            return self.send_error(HTTPStatus.LENGTH_REQUIRED)
        if not (length.isascii() and length.isdigit()):
            return self.send_error(HTTPStatus.BAD_REQUEST, "Bad Content-Length")
        if int(length) > MAX_BODY:  # requests are a few hundred bytes; refused unread
            return self.send_error(HTTPStatus.REQUEST_ENTITY_TOO_LARGE)
        raw = self.rfile.read(int(length))
        if len(raw) < int(length):
            return self.send_error(HTTPStatus.BAD_REQUEST, "Body shorter than Content-Length")
        try:
            payload = json.loads(raw)
        except ValueError:  # not UTF-8, or not JSON
            response = _error(None, ERR_PARSE, "request body is not valid JSON")
        else:
            response = handle_rpc(server.tool_host, payload, session_id)
        if response.get("result", {}).get("tools") is server.tools:
            # a tools/list reply: only its id is encoded per request
            body = b'{"jsonrpc": "2.0", "id": %s, "result": %s}' % (
                json.dumps(response["id"]).encode("utf-8"), server.tools_result)
        else:
            body = json.dumps(response).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:
        pass  # keep stdout clean; traces carry the interesting data


class ToolServer(ThreadingHTTPServer):
    """One HTTP tool server bound to a host; serves on a daemon thread.

    It tracks its open connections so that closing the server ends them
    too; a kept-alive connection would otherwise go on being served by its
    handler thread."""

    def __init__(self, host: ToolHost, bind_host: str = "127.0.0.1", port: int = 0):
        super().__init__((bind_host, port), _RpcRequestHandler)
        self.tool_host = host
        self.tools = host.list_tools()  # never changes, so its reply is encoded once
        self.tools_result = json.dumps({"tools": self.tools}).encode("utf-8")
        self.date = (0, "")  # (second, Date header) of the last reply
        self._open: set[socket.socket] = set()
        self._open_lock = threading.Lock()
        self._thread = threading.Thread(
            target=self.serve_forever, args=(SERVE_POLL_S,), daemon=True
        )

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ToolServer":
        self._thread.start()
        return self

    def process_request(self, request: Any, client_address: Any) -> None:
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: Any) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request: Any, client_address: Any) -> None:
        # a client that reset its connection, or one cut by close(), is no fault
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def close(self) -> None:
        if self._thread.ident is not None:  # shutdown() waits for a loop that ran
            self.shutdown()  # accepts no more connections
        self.server_close()
        with self._open_lock:
            for request in self._open:
                try:
                    request.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # the peer has gone already

    def __enter__(self) -> "ToolServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Client


class _TransportBase:
    """Shared request bookkeeping for both transports. A transport serves
    one run on one thread: it numbers the requests it sends and the
    records it returns in the run's order.

    ``tool_latency_ms`` is the injected per-call latency used with a virtual
    clock; with a real clock ``advance`` is a no-op and elapsed time is
    measured instead.
    """

    def __init__(self, clock: Any, tool_latency_ms: int = 0) -> None:
        self.clock = clock
        self.tool_latency_ms = tool_latency_ms
        self._records = 0
        self._ids = itertools.count(1)

    def _send(self, server_id: int, payload: dict[str, Any], session_id: str) -> dict[str, Any]:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the transport holds open; loopback holds nothing."""

    def list_tools(self, server_id: int) -> list[dict[str, Any]]:
        payload = {"jsonrpc": "2.0", "id": next(self._ids), "method": "tools/list"}
        response = self._send(server_id, payload, "discovery")
        if "error" in response:
            raise RuntimeError(f"tools/list failed: {response['error']}")
        return response["result"]["tools"]

    def call_tool(
        self, server_id: int, name: str, arguments: Mapping[str, Any], session_id: str
    ) -> tuple[ToolCallRecord, ...]:
        """The records of one call, numbered on from the records returned
        before: the call itself, then the sub-calls an encapsulated tool
        reports. A call that fails, on the wire or at the server, is a
        failed record whose result is ``{"error": message}``."""
        payload = {
            "jsonrpc": "2.0",
            "id": next(self._ids),
            "method": "tools/call",
            "params": {"name": name, "arguments": dict(arguments)},
        }
        started = self.clock.now_ms()
        try:
            response = self._send(server_id, payload, session_id)
        except Exception as exc:
            response = {"error": {"message": f"transport failure: {exc}"}}
        self.clock.advance(self.tool_latency_ms)
        ended = self.clock.now_ms()

        if "error" in response:
            message = response["error"].get("message", "tool call failed")
            content, success, internals = {"error": message}, False, ()
        else:
            result = response["result"]
            content, success = result.get("content"), not result.get("is_error", False)
            internals = result.get("internal_calls", ())
        first = self._records + 1
        call = ToolCallRecord(
            step_index=first,
            tool_name=name,
            arguments=normalize_arguments(arguments),
            result=content,
            success=success,
            started_at=started,
            ended_at=ended,
        )
        records = (call,) + tuple(
            _internal_from_wire(item, i, started, ended)
            for i, item in enumerate(internals, start=first + 1)
        )
        self._records += len(records)
        return records


class LoopbackTransport(_TransportBase):
    """No-socket transport for tests and fully deterministic batches."""

    def __init__(
        self, hosts: Mapping[int, ToolHost], clock: Any, tool_latency_ms: int = 0
    ) -> None:
        super().__init__(clock, tool_latency_ms)
        self.hosts = dict(hosts)

    def _send(self, server_id: int, payload: dict[str, Any], session_id: str) -> dict[str, Any]:
        host = self.hosts.get(server_id)
        if host is None:
            raise RuntimeError(f"no server {server_id} configured")
        # no JSON round trip: a handler sees what the socket path would decode
        # (tests/test_wire.py, test_handle_rpc_needs_no_json_round_trip)
        return handle_rpc(host, payload, session_id)


class HttpTransport(_TransportBase):
    """Socket transport talking to one or more running tool servers.

    Keeps one connection per server, opened on first use and kept alive
    until ``close``. A transport serves one run on one thread, so the
    connections need no lock. A request is never sent twice: ``tools/call``
    is not idempotent, so a broken connection or reply fails the call and the
    next request opens a new connection. A server that closes after every
    reply (HTTP/1.0, ``Connection: close``) gets a new connection per request,
    and one that closed an idle connection gets a new one before the request.
    """

    def __init__(
        self,
        urls: Mapping[int, str],
        clock: Any,
        tool_latency_ms: int = 0,
        timeout_s: float = DEFAULT_TIMEOUT_S,
    ) -> None:
        super().__init__(clock, tool_latency_ms)
        self.urls = dict(urls)
        self.timeout_s = timeout_s
        self._connections: dict[int, tuple[socket.socket, BinaryIO, bytes]] = {}

    def _connection(self, server_id: int) -> tuple[socket.socket, BinaryIO, bytes]:
        kept = self._connections.get(server_id)
        # readable between replies: the server closed it, and nothing was sent on it
        if kept and select.select([kept[0]], [], [], 0)[0]:
            self._drop(server_id)
        if server_id not in self._connections:
            url = self.urls.get(server_id)
            if url is None:
                raise RuntimeError(f"no server {server_id} configured")
            parts = urlsplit(url)
            sock = socket.create_connection((parts.hostname, parts.port or 80), self.timeout_s)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, True)
            head = f"POST {parts.path or '/'} HTTP/1.1\r\nHost: {parts.netloc}\r\n"
            head += f"Content-Type: application/json\r\n{SESSION_HEADER}: "
            self._connections[server_id] = (sock, sock.makefile("rb"), head.encode("latin-1"))
        return self._connections[server_id]

    def _drop(self, server_id: int) -> None:
        sock, reader, _ = self._connections.pop(server_id)
        reader.close()
        sock.close()

    def _send(self, server_id: int, payload: dict[str, Any], session_id: str) -> dict[str, Any]:
        if "\r" in session_id or "\n" in session_id:
            raise ValueError(f"session id {session_id!r} holds a line break")
        sock, reader, head = self._connection(server_id)
        body = json.dumps(payload).encode("utf-8")
        try:
            sock.sendall(b"%s%s\r\nContent-Length: %d\r\n\r\n%s" % (
                head, session_id.encode("latin-1"), len(body), body))
            if not (line := reader.readline(MAX_LINE + 1)):
                raise ConnectionError("server closed the connection without a reply")
            version, status, reason = line.decode("latin-1").rstrip("\r\n").split(" ", 2)
            headers = _read_headers(reader)
            data = reader.read(length := int(headers["content-length"]))
            if len(data) < length:
                raise ConnectionError("reply shorter than its Content-Length")
        except Exception:
            self._drop(server_id)
            raise
        if _closes(version, headers):
            self._drop(server_id)
        if int(status) >= 400:
            raise RuntimeError(f"HTTP {status} {reason} from {self.urls[server_id]}")
        return json.loads(data)

    def close(self) -> None:
        for server_id in list(self._connections):
            self._drop(server_id)
