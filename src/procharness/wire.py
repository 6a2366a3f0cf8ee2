"""Networked tool servers and the matching client.

The protocol is a minimal JSON-RPC-2.0-shaped HTTP POST exchange with two
methods, ``tools/list`` and ``tools/call``. The run-session identifier
travels in a request header so tool names stay clean. An in-process
loopback transport shares the exact request-handling path with the HTTP
server, so both behave identically.

The socket path keeps connections open (HTTP/1.1 keep-alive, RFC 9112
section 9): a client transport holds one connection per server for the
length of a run.
"""

from __future__ import annotations

import http.client
import json
import socket
import sys
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Mapping
from urllib.parse import urlsplit

from .model import MonotonicClock
from .toolsim.host import (
    ArgumentValidationError,
    InternalCall,
    ToolHost,
    ToolNotFoundError,
)

SESSION_HEADER = "X-Run-Session"
DEFAULT_TIMEOUT_S = 10.0

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


def handle_rpc(
    host: ToolHost, payload: Mapping[str, Any], session_id: str, clock: Any
) -> dict[str, Any]:
    """Dispatch one request against a host. Shared by HTTP and loopback."""
    req_id = payload.get("id")
    if payload.get("jsonrpc") != "2.0" or "method" not in payload:
        return _error(req_id, ERR_INVALID_REQUEST, "not a jsonrpc 2.0 request")
    method = payload["method"]
    params = payload.get("params") or {}

    if method == "tools/list":
        return _result(req_id, {"tools": host.list_tools()})

    if method == "tools/call":
        name = params.get("name")
        if not isinstance(name, str):
            return _error(req_id, ERR_INVALID_PARAMS, "params.name must be a string")
        arguments = params.get("arguments") or {}
        if not isinstance(arguments, Mapping):
            return _error(req_id, ERR_INVALID_PARAMS, "params.arguments must be an object")
        try:
            outcome = host.call_tool(name, arguments, session_id, clock)
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
            result["internal_calls"] = [c.to_dict() for c in outcome.internal_calls]
        return _result(req_id, result)

    return _error(req_id, ERR_METHOD_NOT_FOUND, f"unknown method: {method}")


# ---------------------------------------------------------------------------
# HTTP server


class _RpcRequestHandler(BaseHTTPRequestHandler):
    server_version = "procharness/0.1"
    protocol_version = "HTTP/1.1"  # keep-alive: one connection serves a run
    # the headers and the body go out in two sends; with Nagle's algorithm
    # the body waits for the client's delayed ACK, about 40 ms per reply
    disable_nagle_algorithm = True

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        host: ToolHost = self.server.tool_host  # type: ignore[attr-defined]
        clock = self.server.clock  # type: ignore[attr-defined]
        session_id = self.headers.get(SESSION_HEADER, "default")
        length = int(self.headers.get("Content-Length", "0"))
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError:
            response = _error(None, ERR_PARSE, "request body is not valid JSON")
        else:
            response = handle_rpc(host, payload, session_id, clock)
        body = json.dumps(response).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:
        pass  # keep stdout clean; traces carry the interesting data


class _HttpServer(ThreadingHTTPServer):
    """Tracks its open connections so that closing the server ends them too;
    a kept-alive connection would otherwise go on being served by its
    handler thread."""

    def __init__(self, address: tuple[str, int]) -> None:
        super().__init__(address, _RpcRequestHandler)
        self._open: set[socket.socket] = set()
        self._open_lock = threading.Lock()

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

    def close_connections(self) -> None:
        with self._open_lock:
            for request in self._open:
                try:
                    request.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # the peer has gone already


class ToolServer:
    """One HTTP tool server bound to a host; runs on a daemon thread."""

    def __init__(self, host: ToolHost, bind_host: str = "127.0.0.1", port: int = 0):
        self._httpd = _HttpServer((bind_host, port))
        self._httpd.tool_host = host  # type: ignore[attr-defined]
        self._httpd.clock = MonotonicClock()  # type: ignore[attr-defined]
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)

    @property
    def address(self) -> tuple[str, int]:
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ToolServer":
        self._thread.start()
        return self

    def close(self) -> None:
        self._httpd.shutdown()  # accepts no more connections
        self._httpd.server_close()
        self._httpd.close_connections()

    def __enter__(self) -> "ToolServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Client


@dataclass(frozen=True)
class WireCallOutcome:
    """Client-side view of one tool call, with latency captured around the
    request and any internal sub-calls rebased into the caller's clock."""

    tool_name: str
    arguments: dict[str, Any]
    content: Any
    success: bool
    started_at: int
    ended_at: int
    internal_calls: tuple["RebasedInternalCall", ...] = ()
    error: str | None = None


@dataclass(frozen=True)
class RebasedInternalCall:
    name: str
    arguments: dict[str, Any]
    content: Any
    is_error: bool
    started_at: int
    ended_at: int


def _rebase_internals(
    raw: list[dict[str, Any]], started_at: int, ended_at: int
) -> tuple[RebasedInternalCall, ...]:
    out = []
    for item in raw:
        call = InternalCall.from_dict(item)
        start = min(started_at + max(call.offset_ms, 0), ended_at)
        end = min(start + max(call.duration_ms, 0), ended_at)
        out.append(
            RebasedInternalCall(
                name=call.name,
                arguments=call.arguments,
                content=call.content,
                is_error=call.is_error,
                started_at=start,
                ended_at=end,
            )
        )
    return tuple(out)


class _TransportBase:
    """Shared request bookkeeping for both transports.

    ``tool_latency_ms`` is the injected per-call latency used with a virtual
    clock; with a real clock ``advance`` is a no-op and elapsed time is
    measured instead.
    """

    def __init__(self, clock: Any, tool_latency_ms: int = 0) -> None:
        self.clock = clock
        self.tool_latency_ms = tool_latency_ms
        self._next_id = 0
        self._id_lock = threading.Lock()

    def _request_id(self) -> int:
        with self._id_lock:
            self._next_id += 1
            return self._next_id

    def _send(self, server_id: int, payload: dict[str, Any], session_id: str) -> dict[str, Any]:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the transport holds open; loopback holds nothing."""

    def list_tools(self, server_id: int) -> list[dict[str, Any]]:
        payload = {"jsonrpc": "2.0", "id": self._request_id(), "method": "tools/list"}
        response = self._send(server_id, payload, "discovery")
        if "error" in response:
            raise RuntimeError(f"tools/list failed: {response['error']}")
        return response["result"]["tools"]

    def call_tool(
        self, server_id: int, name: str, arguments: Mapping[str, Any], session_id: str
    ) -> WireCallOutcome:
        payload = {
            "jsonrpc": "2.0",
            "id": self._request_id(),
            "method": "tools/call",
            "params": {"name": name, "arguments": dict(arguments)},
        }
        started = self.clock.now_ms()
        try:
            response = self._send(server_id, payload, session_id)
        except Exception as exc:
            self.clock.advance(self.tool_latency_ms)
            ended = self.clock.now_ms()
            return WireCallOutcome(
                tool_name=name,
                arguments=dict(arguments),
                content={"error": f"transport failure: {exc}"},
                success=False,
                started_at=started,
                ended_at=ended,
                error=f"transport failure: {exc}",
            )
        self.clock.advance(self.tool_latency_ms)
        ended = self.clock.now_ms()

        if "error" in response:
            err = response["error"]
            return WireCallOutcome(
                tool_name=name,
                arguments=dict(arguments),
                content={"error": err.get("message", "tool call failed")},
                success=False,
                started_at=started,
                ended_at=ended,
                error=err.get("message", "tool call failed"),
            )
        result = response["result"]
        return WireCallOutcome(
            tool_name=name,
            arguments=dict(arguments),
            content=result.get("content"),
            success=not result.get("is_error", False),
            started_at=started,
            ended_at=ended,
            internal_calls=_rebase_internals(
                result.get("internal_calls", []), started, ended
            ),
        )


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
        # JSON round-trip keeps payloads identical to what the socket path sees
        wire_payload = json.loads(json.dumps(payload))
        return json.loads(json.dumps(handle_rpc(host, wire_payload, session_id, self.clock)))


class HttpTransport(_TransportBase):
    """Socket transport talking to one or more running tool servers.

    Keeps one connection per server, opened on first use and kept alive
    until ``close``. A transport serves one run on one thread, so the
    connections need no lock. A request is never sent twice: ``tools/call``
    is not idempotent, so a broken connection fails the call and the next
    request opens a new one. A server that closes after every reply
    (HTTP/1.0) gets a new connection per request.
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
        self._connections: dict[int, tuple[http.client.HTTPConnection, str]] = {}

    def _connection(self, server_id: int) -> tuple[http.client.HTTPConnection, str]:
        if server_id not in self._connections:
            url = self.urls.get(server_id)
            if url is None:
                raise RuntimeError(f"no server {server_id} configured")
            parts = urlsplit(url)
            conn = http.client.HTTPConnection(parts.netloc, timeout=self.timeout_s)
            self._connections[server_id] = (conn, parts.path or "/")
        return self._connections[server_id]

    def _send(self, server_id: int, payload: dict[str, Any], session_id: str) -> dict[str, Any]:
        conn, path = self._connection(server_id)
        body = json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json", SESSION_HEADER: session_id}
        try:
            conn.request("POST", path, body, headers)
            response = conn.getresponse()
            # read the whole body first so the connection stays in step
            data = response.read()
        except Exception:
            conn.close()
            raise
        if response.status >= 400:
            raise RuntimeError(
                f"HTTP {response.status} {response.reason} from {self.urls[server_id]}"
            )
        return json.loads(data)

    def close(self) -> None:
        for conn, _ in self._connections.values():
            conn.close()
        self._connections.clear()
