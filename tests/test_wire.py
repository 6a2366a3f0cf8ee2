from __future__ import annotations

import contextlib
import email.utils
import http.client
import itertools
import json
import select
import socket
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procharness import wire
from procharness.agent import ScriptedBackend, build_context, run_agent
from procharness.model import (
    Approach,
    CallOrigin,
    MonotonicClock,
    ToolSpec,
    ValueKind,
    VirtualClock,
)
from procharness.toolsim import (
    AUTH_TOOL,
    ENCAP_TOOL,
    META_TOOL_NAME,
    ToolHost,
    build_encapsulated_host,
    build_kpi_host,
    build_kpi_pool,
    build_procedure_host,
    default_fixtures,
    make_allocation_intent,
)
from procharness.wire import (
    ERR_INTERNAL,
    ERR_INVALID_PARAMS,
    ERR_INVALID_REQUEST,
    ERR_PARSE,
    ERR_TOOL_NOT_FOUND,
    HttpTransport,
    LoopbackTransport,
    SERVE_POLL_S,
    SESSION_HEADER,
    ToolServer,
    handle_rpc,
)


@pytest.fixture(scope="module")
def fixtures():
    return default_fixtures()


@pytest.fixture(scope="module")
def procedure_host(fixtures):
    return build_procedure_host(fixtures, repository_text="procedures here")


@pytest.fixture()
def loopback(fixtures):
    hosts = {
        1: build_encapsulated_host(fixtures),
        2: build_procedure_host(fixtures, repository_text="procedures here"),
        3: build_kpi_host(build_kpi_pool(42)),
    }
    return LoopbackTransport(hosts, VirtualClock(), tool_latency_ms=1)


def test_list_tools_counts(loopback):
    assert len(loopback.list_tools(1)) == 3
    names = [d["name"] for d in loopback.list_tools(2)]
    assert names[:5] == [
        "ue_authorization",
        "static_ip_retrieval",
        "dhcpv4_allocate",
        "dhcpv6_allocate",
        "ip_assignment",
    ]
    assert META_TOOL_NAME in names and len(names) == 6
    assert len(loopback.list_tools(3)) == 100


def test_list_tools_empty_host():
    empty = ToolHost([], {})
    transport = LoopbackTransport({9: empty}, VirtualClock())
    assert transport.list_tools(9) == []


def test_list_tools_byte_stable(loopback):
    first = json.dumps(loopback.list_tools(2))
    second = json.dumps(loopback.list_tools(2))
    assert first == second


def test_descriptors_carry_complete_schemas(loopback):
    by_name = {d["name"]: d for d in loopback.list_tools(2)}
    auth = by_name[AUTH_TOOL]
    params = {p["name"]: p for p in auth["params"]}
    assert params["ue_id"]["required"] and params["ue_id"]["kind"] == "string"
    assert params["session_type"]["kind"] == "enum"
    assert params["session_type"]["enum_values"] == ["IPv4", "IPv6", "IPv4v6"]


def test_call_tool_success_and_timing(loopback):
    (call,) = loopback.call_tool(
        2, AUTH_TOOL, {"ue_id": "ue-001", "session_type": "IPv4"}, "s1"
    )
    assert call.success
    assert call.result["status"] == "authorized"
    assert call.ended_at - call.started_at == 1  # injected latency


def test_call_tool_unknown_name_is_failed_call(loopback):
    (call,) = loopback.call_tool(2, "foo", {}, "s1")
    assert not call.success
    assert call.tool_name == "foo"
    assert "unknown tool" in call.result["error"]


def test_call_tool_validation_error(loopback):
    (call,) = loopback.call_tool(2, AUTH_TOOL, {"ue_id": "ue-001"}, "s1")
    assert not call.success
    assert "session_type" in call.result["error"]


def test_encapsulated_call_returns_internal_records(loopback):
    call, *internal_calls = loopback.call_tool(
        1, ENCAP_TOOL, {"ue_id": "ue-001", "session_type": "IPv4"}, "s1"
    )
    assert call.success
    assert [c.tool_name for c in internal_calls] == [
        "ue_authorization",
        "static_ip_retrieval",
        "ip_assignment",
    ]
    for internal in internal_calls:
        assert internal.origin is CallOrigin.TOOL_INTERNAL
        assert call.started_at <= internal.started_at
        assert internal.ended_at <= call.ended_at


def test_sessions_do_not_share_state(loopback):
    (first,) = loopback.call_tool(2, "dhcpv4_allocate", {"ue_id": "ue-002"}, "run-1")
    (second,) = loopback.call_tool(2, "dhcpv4_allocate", {"ue_id": "ue-002"}, "run-2")
    (third,) = loopback.call_tool(2, "dhcpv4_allocate", {"ue_id": "ue-002"}, "run-1")
    assert first.result["address"] == "100.64.0.1"
    assert second.result["address"] == "100.64.0.1"
    assert third.result["address"] == "100.64.0.2"


def test_handle_rpc_error_codes(procedure_host):
    bad_version = handle_rpc(procedure_host, {"id": 1, "method": "tools/list"}, "s")
    assert bad_version["error"]["code"] == -32600
    unknown_method = handle_rpc(
        procedure_host, {"jsonrpc": "2.0", "id": 2, "method": "nope"}, "s"
    )
    assert unknown_method["error"]["code"] == -32601
    not_found = handle_rpc(
        procedure_host,
        {"jsonrpc": "2.0", "id": 3, "method": "tools/call", "params": {"name": "foo"}},
        "s",
    )
    assert not_found["error"]["code"] == ERR_TOOL_NOT_FOUND
    bad_args = handle_rpc(
        procedure_host,
        {
            "jsonrpc": "2.0",
            "id": 4,
            "method": "tools/call",
            "params": {"name": AUTH_TOOL, "arguments": {"ue_id": "ue-001"}},
        },
        "s",
    )
    assert bad_args["error"]["code"] == ERR_INVALID_PARAMS
    # absent or null params and arguments read as {}; any other value that is
    # not an object, a falsy one included, gets -32602
    listing = {"jsonrpc": "2.0", "id": 5, "method": "tools/list"}
    listed = handle_rpc(procedure_host, listing, "s")
    meta = _call(META_TOOL_NAME)
    assert "result" in listed and "result" in handle_rpc(procedure_host, meta, "s")
    for empty in (None, {}):
        assert handle_rpc(procedure_host, {**listing, "params": empty}, "s") == listed
        call = {**meta, "params": {"name": META_TOOL_NAME, "arguments": empty}}
        assert "result" in handle_rpc(procedure_host, call, "s")
    for bad in ([], 0, "", False, [1], 1, "x", True):
        bad_params = {**listing, "params": bad}
        bad_arguments = {**meta, "params": {"name": META_TOOL_NAME, "arguments": bad}}
        for request in (bad_params, bad_arguments):
            reply = handle_rpc(procedure_host, request, "s")
            assert reply["error"]["code"] == ERR_INVALID_PARAMS, request


def _raising_host():
    def boom(args, session):
        raise RuntimeError("kaput")

    return ToolHost([ToolSpec("boom", "Always raises.")], {"boom": boom})


def _call(name):
    return {"jsonrpc": "2.0", "id": 1, "method": "tools/call", "params": {"name": name}}


def _reply_error(reply):
    return f"{reply['error']['code']} {reply['error']['message']}"


def _non_string_name(monkeypatch):
    return _reply_error(handle_rpc(_raising_host(), _call(5), "s"))


def _handler_raises(monkeypatch):
    host = _raising_host()
    reply = handle_rpc(host, _call("boom"), "s")
    (record,) = LoopbackTransport({1: host}, VirtualClock()).call_tool(1, "boom", {}, "s")
    assert not record.success
    assert record.result == {"error": reply["error"]["message"]}
    return _reply_error(reply)


def _non_json_body(monkeypatch):
    with ToolServer(_raising_host()) as server:
        conn = http.client.HTTPConnection(*server.address, timeout=2.0)
        try:
            conn.request("POST", "/", b"{not json", {SESSION_HEADER: "s"})
            reply = json.loads(conn.getresponse().read())
        finally:
            conn.close()
    return _reply_error(reply)


class _Http500Handler(BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802 (http.server API)
        self.rfile.read(int(self.headers["Content-Length"]))
        self.send_response(500)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, *args):
        pass


def _http_500(monkeypatch):
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Http500Handler)
    threading.Thread(target=server.serve_forever, args=(SERVE_POLL_S,), daemon=True).start()
    host, port = server.server_address[:2]
    transport = HttpTransport({1: f"http://{host}:{port}"}, MonotonicClock(), timeout_s=2.0)
    try:
        (record,) = transport.call_tool(1, "boom", {}, "s")
    finally:
        transport.close()
        server.shutdown()
        server.server_close()
    assert not record.success
    return record.result["error"]


def _failed_discovery(monkeypatch):
    def list_refused(host, payload, session_id):
        return wire._error(payload["id"], ERR_INTERNAL, "list refused")

    monkeypatch.setattr(wire, "handle_rpc", list_refused)
    intent = make_allocation_intent("ue-001", "IPv4")
    context = build_context(Approach.A4, intent, "", 1)
    clock = VirtualClock()
    transport = LoopbackTransport({1: build_encapsulated_host(default_fixtures())}, clock)
    with pytest.raises(RuntimeError, match="tools/list failed"):
        transport.list_tools(1)
    backend = ScriptedBackend([], clock)
    run = run_agent(context, intent, backend, transport, clock, 5, "r")
    assert (run.trace.records, run.llm_steps) == ((), ())
    return run.terminated_reason.value


@pytest.mark.parametrize(
    "case, expected",
    [
        (_non_string_name, "-32602 params.name must be a string"),
        (_handler_raises, "-32603 tool execution failed: kaput"),
        (_non_json_body, "-32700 request body is not valid JSON"),
        (_http_500, "transport failure: HTTP 500"),
        (_failed_discovery, "backend_error"),
    ],
    ids=lambda value: getattr(value, "__name__", "").strip("_") or None,
)
def test_error_replies(monkeypatch, case, expected):
    assert case(monkeypatch).startswith(expected)


_WORDS = st.sampled_from(
    ["ue-001", "ue-002", "ue-404", "IPv4", "IPv6", "IPv4v6", "ipv4", "10.0.0.42",
     "100.64.0.1,2001:db8::1", "region-3", "region-99"]
) | st.text(max_size=6)


def _padded(words):
    """Words with whitespace around them, which the host trims."""
    padding = st.sampled_from(["", " ", "  ", "\t", "\n", " \r\n"])
    return st.builds(lambda before, word, after: before + word + after, padding, words, padding)


_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    _padded(_WORDS),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _fitting_value(param):
    if param.kind is ValueKind.INTEGER:
        return st.integers()
    return _padded(st.sampled_from(param.enum_values) if param.enum_values else _WORDS)


def _misspellings(name):
    return st.sampled_from(
        [name.upper(), f"{name}_check", name[:-1], f" {name}", name.replace("_", "-")]
    )


@pytest.fixture(scope="module")
def every_host(fixtures):
    return [
        build_encapsulated_host(fixtures),
        build_procedure_host(fixtures, repository_text="procedures here"),
        build_kpi_host(build_kpi_pool(42)),
    ]


_SESSIONS = itertools.count(1)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_handle_rpc_needs_no_json_round_trip(every_host, data):
    # the loopback transport hands its request to handle_rpc and takes the
    # reply as they are; this is the reply the socket path's decoded request
    # gets, byte for byte once encoded, and the handler leaves the request
    # untouched
    host = data.draw(st.sampled_from(every_host), label="host")
    names = [s.name for s in host.registry]
    params = sorted({p.name for s in host.registry for p in s.params})
    payload = {
        "jsonrpc": "2.0",
        "id": data.draw(st.integers(0, 2**31), label="id"),
        "method": data.draw(st.sampled_from(["tools/list", "tools/call"]), label="method"),
    }
    if payload["method"] == "tools/call":
        name = data.draw(
            st.sampled_from(names)
            | st.sampled_from(names).flatmap(_misspellings)
            | st.text(max_size=12),
            label="name",
        )
        spec = host.registry.lookup(name)
        own = spec.params if spec else ()
        # values of the right kind, so that many calls reach a handler
        fitting = st.fixed_dictionaries(
            {p.name: _fitting_value(p) for p in own}, optional={"extra": _JSON_VALUES}
        )
        arguments = data.draw(
            fitting
            | st.fixed_dictionaries({p.name: _JSON_VALUES for p in own})
            | st.dictionaries(st.sampled_from(params) | st.text(max_size=6), _JSON_VALUES, max_size=4)
            | _JSON_VALUES,
            label="arguments",
        )
        payload["params"] = {"name": name, "arguments": arguments}
    sent = json.dumps(payload)  # as HttpTransport encodes it, key order kept
    # a session of its own per side: DHCP cursors start from the same place
    n = next(_SESSIONS)
    direct = handle_rpc(host, payload, f"direct-{n}")
    decoded = handle_rpc(host, json.loads(sent), f"decoded-{n}")
    assert json.dumps(direct, sort_keys=True) == json.dumps(decoded, sort_keys=True)
    assert json.dumps(payload) == sent


class _TickingClock:
    """Moves one millisecond on every reading."""

    def __init__(self) -> None:
        self._now = 1000

    def now_ms(self) -> int:
        self._now += 1
        return self._now

    def advance(self, ms: int) -> None:
        self._now += ms


def test_sub_calls_sit_at_the_parent_start_on_either_transport(fixtures):
    # a simulated tool takes no time: over loopback on a moving clock, as
    # over a socket, the sub-calls of an encapsulated tool start with it
    # and last nothing
    args = {"ue_id": "ue-002", "session_type": "IPv4v6"}
    loopback = LoopbackTransport({1: build_encapsulated_host(fixtures)}, _TickingClock())
    looped = loopback.call_tool(1, ENCAP_TOOL, args, "s")
    with ToolServer(build_encapsulated_host(fixtures)) as server:
        http = HttpTransport({1: server.url}, _TickingClock())
        try:
            sent = http.call_tool(1, ENCAP_TOOL, args, "s")
        finally:
            http.close()
    assert looped == sent
    call, *internals = looped
    assert len(internals) == 5
    assert all(c.origin is CallOrigin.TOOL_INTERNAL for c in internals)
    assert {(c.started_at, c.ended_at) for c in internals} == {(call.started_at,) * 2}


def test_wire_field_names(procedure_host):
    response = handle_rpc(
        procedure_host,
        {
            "jsonrpc": "2.0",
            "id": 7,
            "method": "tools/call",
            "params": {
                "name": AUTH_TOOL,
                "arguments": {"ue_id": "ue-001", "session_type": "IPv4"},
            },
        },
        "s",
    )
    assert set(response) == {"jsonrpc", "id", "result"}
    assert set(response["result"]) == {"content", "is_error"}


@pytest.mark.parametrize(
    "body, code, req_id",
    [
        (b"[1]", ERR_INVALID_REQUEST, None),
        (
            b'{"jsonrpc": "2.0", "id": 1, "method": "tools/call", "params": [1]}',
            ERR_INVALID_PARAMS,
            1,
        ),
        (b"\x80abc", ERR_PARSE, None),
    ],
    ids=["non-object body", "non-object params", "non-UTF-8 body"],
)
def test_server_answers_every_body_with_a_reply(procedure_host, capfd, body, code, req_id):
    valid = {
        "jsonrpc": "2.0",
        "id": 2,
        "method": "tools/call",
        "params": {"name": AUTH_TOOL, "arguments": {"ue_id": "ue-001", "session_type": "IPv4"}},
    }
    with ToolServer(procedure_host) as server:
        conn = http.client.HTTPConnection(*server.address, timeout=2.0)
        try:
            conn.request("POST", "/", body, {SESSION_HEADER: "s"})
            reply = json.loads(conn.getresponse().read())
            conn.request("POST", "/", json.dumps(valid), {SESSION_HEADER: "s"})
            answered = json.loads(conn.getresponse().read())
        finally:
            conn.close()
    assert (reply["id"], reply["error"]["code"]) == (req_id, code)
    assert answered["result"]["content"]["status"] == "authorized"
    assert capfd.readouterr().err == ""


def test_meta_tool_round_trip(loopback):
    (call,) = loopback.call_tool(2, META_TOOL_NAME, {}, "s1")
    assert call.success and call.result == "procedures here"


def test_http_server_round_trip(fixtures):
    host = build_procedure_host(fixtures, repository_text="text")
    with ToolServer(host) as server:
        transport = HttpTransport({2: server.url}, MonotonicClock())
        try:
            names = [d["name"] for d in transport.list_tools(2)]
            assert AUTH_TOOL in names
            (call,) = transport.call_tool(
                2, AUTH_TOOL, {"ue_id": "ue-001", "session_type": "IPv4"}, "run-http"
            )
            assert call.success and call.result["status"] == "authorized"
            (missing,) = transport.call_tool(2, "foo", {}, "run-http")
            assert not missing.success
        finally:
            transport.close()


def test_http_session_isolation_via_header(fixtures):
    host = build_procedure_host(fixtures, repository_text="procedures here")
    with ToolServer(host) as server:
        transport = HttpTransport({2: server.url}, MonotonicClock())
        try:
            (a1,) = transport.call_tool(2, "dhcpv4_allocate", {"ue_id": "ue-002"}, "s-a")
            (b1,) = transport.call_tool(2, "dhcpv4_allocate", {"ue_id": "ue-002"}, "s-b")
            (a2,) = transport.call_tool(2, "dhcpv4_allocate", {"ue_id": "ue-002"}, "s-a")
        finally:
            transport.close()
        assert a1.result["address"] == b1.result["address"] == "100.64.0.1"
        assert a2.result["address"] == "100.64.0.2"


def test_http_transport_failure_is_failed_call():
    transport = HttpTransport({2: "http://127.0.0.1:1"}, MonotonicClock(), timeout_s=0.5)
    (call,) = transport.call_tool(2, AUTH_TOOL, {}, "s")
    assert not call.success
    assert "transport failure" in call.result["error"]


def test_closing_an_idle_server_is_quick(fixtures):
    server = ToolServer(build_procedure_host(fixtures, repository_text="procedures here")).start()
    time.sleep(0.1)  # let the accept loop settle into its wait
    started = time.perf_counter()
    server.close()
    assert time.perf_counter() - started < 0.25


def _closes_within(server, seconds):
    closer = threading.Thread(target=server.close, daemon=True)
    closer.start()
    closer.join(seconds)
    return not closer.is_alive()


def test_closing_a_server_that_never_started_returns_at_once(procedure_host):
    assert _closes_within(ToolServer(procedure_host), 2.0)


def test_closing_a_server_right_after_its_start_returns(procedure_host):
    assert _closes_within(ToolServer(procedure_host).start(), 2.0)


@pytest.mark.parametrize("req_id", [7, "list-7", 2.5, None])
def test_tools_list_reply_is_the_encoded_handle_rpc_reply(procedure_host, req_id):
    payload = {"jsonrpc": "2.0", "id": req_id, "method": "tools/list"}
    with ToolServer(procedure_host) as server:
        conn = http.client.HTTPConnection(*server.address, timeout=2)
        try:
            before = int(time.time())
            conn.request("POST", "/", json.dumps(payload), {SESSION_HEADER: "s"})
            reply = conn.getresponse()
            body, date = reply.read(), reply.getheader("Date")
            after = int(time.time())
        finally:
            conn.close()
    assert body == json.dumps(handle_rpc(procedure_host, payload, "s")).encode("utf-8")
    assert date in {email.utils.formatdate(t, usegmt=True) for t in range(before, after + 1)}


def test_session_header_name():
    assert SESSION_HEADER == "X-Run-Session"


def test_http_transport_keeps_one_connection_until_closed(
    fixtures, accepted_connections
):
    host = build_procedure_host(fixtures, repository_text="procedures here")
    with ToolServer(host) as server:
        transport = HttpTransport({2: server.url}, MonotonicClock())
        transport.list_tools(2)
        calls = [
            transport.call_tool(2, "dhcpv4_allocate", {"ue_id": "ue-002"}, "s")[0]
            for _ in range(3)
        ]
        assert [c.result["address"] for c in calls] == [
            "100.64.0.1",
            "100.64.0.2",
            "100.64.0.3",
        ]
        assert len(accepted_connections) == 1
        transport.close()
        (again,) = transport.call_tool(2, "dhcpv4_allocate", {"ue_id": "ue-002"}, "s")
        assert again.result["address"] == "100.64.0.4"
        assert len(accepted_connections) == 2
        transport.close()


def test_closed_server_stops_serving_open_connections(fixtures):
    host = build_procedure_host(fixtures, repository_text="procedures here")
    server = ToolServer(host).start()
    transport = HttpTransport({2: server.url}, MonotonicClock(), timeout_s=2.0)
    try:
        (first,) = transport.call_tool(2, "dhcpv4_allocate", {"ue_id": "ue-002"}, "s")
        assert first.result["address"] == "100.64.0.1"
        server.close()
        (second,) = transport.call_tool(2, "dhcpv4_allocate", {"ue_id": "ue-002"}, "s")
        assert not second.success
        assert "transport failure" in second.result["error"]
    finally:
        transport.close()


class _Http10Handler(BaseHTTPRequestHandler):
    """A plain HTTP/1.0 server: it closes the connection after every reply."""

    def do_POST(self):  # noqa: N802 (http.server API)
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        response = handle_rpc(self.server.tool_host, payload, self.headers[SESSION_HEADER])
        body = json.dumps(response).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_http_transport_reconnects_to_a_closing_http10_server(
    fixtures, accepted_connections
):
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Http10Handler)
    server.tool_host = build_procedure_host(fixtures, repository_text="procedures here")
    thread = threading.Thread(
        target=server.serve_forever, args=(SERVE_POLL_S,), daemon=True
    )
    thread.start()
    host, port = server.server_address[:2]
    transport = HttpTransport({2: f"http://{host}:{port}"}, MonotonicClock(), timeout_s=2.0)
    try:
        assert len(transport.list_tools(2)) == 6
        calls = [
            transport.call_tool(2, "dhcpv4_allocate", {"ue_id": "ue-002"}, "s")[0]
            for _ in range(3)
        ]
        assert all(c.success for c in calls)
        assert [c.result["address"] for c in calls] == [
            "100.64.0.1",
            "100.64.0.2",
            "100.64.0.3",
        ]
        assert len(accepted_connections) == 4
    finally:
        transport.close()
        server.shutdown()
        server.server_close()


# ---------------------------------------------------------------------------
# HTTP framing on a raw socket

_VALID_CALL = json.dumps(
    {
        "jsonrpc": "2.0",
        "id": 1,
        "method": "tools/call",
        "params": {"name": AUTH_TOOL, "arguments": {"ue_id": "ue-001", "session_type": "IPv4"}},
    }
).encode("utf-8")


def _post(body, length=None):
    length = len(body) if length is None else length
    return b"POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" % (length, body)


def _read_to_eof(sock):
    chunks = []
    try:
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    except ConnectionResetError:
        pass  # the server closed on request bytes it did not read
    return b"".join(chunks)


def _exchange(address, data):
    """Send raw request bytes, end the sending side, and read until the
    server closes."""
    with socket.create_connection(address, timeout=2.0) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        return _read_to_eof(sock)


def _replies(data):
    """The (status, headers, body) of each HTTP reply in ``data``, in order."""
    replies = []
    while data:
        head, sep, data = data.partition(b"\r\n\r\n")
        assert sep, f"reply head cut short: {head!r}"
        status_line, *lines = head.decode("latin-1").split("\r\n")
        headers = {k.strip().lower(): v.strip() for k, _, v in (h.partition(":") for h in lines)}
        length = int(headers.get("content-length", 0))
        assert len(data) >= length, "reply body cut short"
        replies.append((int(status_line.split()[1]), headers, data[:length]))
        data = data[length:]
    return replies


def _authorized(address, request=_post(_VALID_CALL)):
    (reply,) = _replies(_exchange(address, request))
    return json.loads(reply[2])["result"]["content"]["status"] == "authorized"


@pytest.mark.parametrize(
    "request_bytes, status",
    [
        (b"POST / HTTP/1.1\r\n\r\n", 411),
        (b"POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n{}", 400),
        (b"POST / HTTP/1.1\r\nContent-Length: -2\r\n\r\n{}", 400),
        (b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n", 411),
        (b"POST / HTTP/1.1\r\nContent-Length: 1048577\r\n\r\n", 413),
        (_post(b"{}", length=10), 400),
        (b"POST / HTTP/1.1\r\n" + b"X-Junk: 1\r\n" * 100 + b"\r\n", 431),
        (b"POST / HTTP/1.1\r\nX-Junk: " + b"1" * 65536 + b"\r\n\r\n", 431),
        (b"POST / HTTP/2.0\r\n\r\n", 400),
    ],
    ids=[
        "no length",
        "non-numeric length",
        "negative length",
        "chunked",
        "over 1 MiB",
        "body shorter than its length",
        "100 header fields",
        "header line over 64 KiB",
        "not HTTP/1.x",
    ],
)
def test_server_refuses_bad_framing_and_closes(procedure_host, capfd, request_bytes, status):
    with ToolServer(procedure_host) as server:
        # one reply and then the close: _exchange reads to the end
        (reply,) = _replies(_exchange(server.address, request_bytes))
        assert _authorized(server.address)
    assert (reply[0], reply[1]["connection"]) == (status, "close")
    assert capfd.readouterr().err == ""


def test_server_reads_99_header_fields(procedure_host):
    # http.server's limit: 100 lines, the blank line that ends them included
    request = _post(_VALID_CALL).replace(b"\r\n", b"\r\n" + b"X-Junk: 1\r\n" * 98, 1)
    with ToolServer(procedure_host) as server:
        assert _authorized(server.address, request)


def test_server_answers_expect_100_continue(procedure_host):
    head, body = _post(_VALID_CALL).split(b"\r\n\r\n", 1)
    with ToolServer(procedure_host) as server:
        with socket.create_connection(server.address, timeout=2.0) as sock:
            sock.sendall(head + b"\r\nExpect: 100-continue\r\n\r\n")
            # the body waits for the interim reply, so the reply must leave now
            assert sock.recv(64) == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            sock.shutdown(socket.SHUT_WR)
            (reply,) = _replies(_read_to_eof(sock))
    assert json.loads(reply[2])["result"]["content"]["status"] == "authorized"


_FUZZ_HEADER_LINES = st.lists(
    st.sampled_from(
        [
            b"Expect: 100-continue",
            b"Connection: close",
            b"Transfer-Encoding: chunked",
            b"Content-Length: 7",
            b"X-Run-Session: fuzz",
            b"no colon",
            b": no name",
        ]
    )
    | st.binary(max_size=24),
    max_size=4,
)
_FUZZ_BODIES = _JSON_VALUES.map(lambda v: json.dumps(v).encode("utf-8")) | st.binary(max_size=40)
_FUZZ_LENGTHS = (
    st.just("exact")
    | st.integers(0, 80)
    | st.sampled_from([None, b"", b"abc", b"-1", b"+5", b"1e3", b"\xb2", b"99999999"])
)


def _is_rpc_reply(body):
    reply = json.loads(body)
    return reply["jsonrpc"] == "2.0" and ("error" in reply) != ("result" in reply)


def test_fuzzed_requests_never_break_the_server(fixtures, capfd):
    # each request gets a JSON-RPC reply, or an HTTP 4xx and then the close
    with ToolServer(build_procedure_host(fixtures, repository_text="procedures here")) as server:

        @settings(max_examples=500, deadline=None)
        @given(header_lines=_FUZZ_HEADER_LINES, body=_FUZZ_BODIES, length=_FUZZ_LENGTHS)
        def exchange(header_lines, body, length):
            if length == "exact":
                length = b"%d" % len(body)
            elif isinstance(length, int):
                length = b"%d" % length
            if length is not None:
                header_lines = header_lines + [b"Content-Length: " + length]
            head = b"".join(line + b"\r\n" for line in [b"POST / HTTP/1.1", *header_lines])
            replies = _replies(_exchange(server.address, head + b"\r\n" + body))
            *answered, (status, headers, last) = [r for r in replies if r[0] != 100]
            assert all(s == 200 and _is_rpc_reply(b) for s, _, b in answered)
            assert (status == 200 and _is_rpc_reply(last)) or (
                400 <= status < 500 and headers["connection"] == "close"
            )

        exchange()
        assert _authorized(server.address)
    assert capfd.readouterr().err == ""


def test_kept_alive_calls_do_not_wait_for_the_timeout(procedure_host):
    # a client that reads past a reply's Content-Length waits out timeout_s
    with ToolServer(procedure_host) as server:
        transport = HttpTransport({2: server.url}, MonotonicClock(), timeout_s=1.0)
        try:
            started = time.perf_counter()
            calls = [transport.call_tool(2, AUTH_TOOL, {}, "s")[0] for _ in range(5)]
            elapsed = time.perf_counter() - started
        finally:
            transport.close()
    assert not any(c.success for c in calls)  # -32602: session_type is missing
    assert elapsed < 1.0


def test_closing_a_server_with_an_idle_kept_alive_connection_is_quick(procedure_host):
    # an idle kept-alive connection's handler waits in readline, and
    # server_close joins every handler thread that is not a daemon
    server = ToolServer(procedure_host).start()
    transport = HttpTransport({2: server.url}, MonotonicClock(), timeout_s=2.0)
    closer = threading.Thread(target=server.close, daemon=True)
    try:
        transport.list_tools(2)
        closer.start()
        closer.join(0.25)
        closed_in_time = not closer.is_alive()
    finally:
        transport.close()  # ends the idle connection, so a blocked close returns
    closer.join(2.0)
    assert closed_in_time and not closer.is_alive()


def _handler_threads():
    return {t for t in threading.enumerate() if t.name.endswith("(process_request_thread)")}


def test_stalled_connections_free_their_handler_threads(
    procedure_host, monkeypatch, accepted_connections
):
    assert wire._RpcRequestHandler.timeout == wire.DEFAULT_TIMEOUT_S
    monkeypatch.setattr(wire._RpcRequestHandler, "timeout", 0.5)
    before = _handler_threads()
    with ToolServer(procedure_host) as server, contextlib.ExitStack() as clients:
        for _ in range(20):  # each stops mid-body and keeps its socket open
            sock = clients.enter_context(socket.create_connection(server.address, 2.0))
            sock.sendall(_post(_VALID_CALL)[:-10])
        deadline = time.monotonic() + 5.0
        while len(accepted_connections) < 20 or _handler_threads() - before:
            if time.monotonic() > deadline:
                break
            time.sleep(0.05)
        assert len(accepted_connections) == 20
        assert not _handler_threads() - before


def test_a_transport_idle_past_the_server_timeout_reconnects(
    procedure_host, monkeypatch, accepted_connections
):
    monkeypatch.setattr(wire._RpcRequestHandler, "timeout", 0.2)
    with ToolServer(procedure_host) as server:
        transport = HttpTransport({2: server.url}, MonotonicClock(), timeout_s=2.0)
        try:
            (first,) = transport.call_tool(2, "dhcpv4_allocate", {"ue_id": "ue-002"}, "idle")
            kept = transport._connections[2][0]
            assert select.select([kept], [], [], 5.0)[0]  # the server closed it
            (second,) = transport.call_tool(2, "dhcpv4_allocate", {"ue_id": "ue-002"}, "idle")
        finally:
            transport.close()
    assert [first.result["address"], second.result["address"]] == ["100.64.0.1", "100.64.0.2"]
    assert len(accepted_connections) == 2


def test_urllib_posts_to_the_server(procedure_host):
    with ToolServer(procedure_host) as server:
        request = urllib.request.Request(
            server.url, _VALID_CALL, {"Content-Type": "application/json", SESSION_HEADER: "s"}
        )
        with urllib.request.urlopen(request, timeout=2.0) as response:
            reply = json.loads(response.read())
    assert reply["result"]["content"]["status"] == "authorized"


def _read_request(conn):
    with conn.makefile("rb") as rfile:
        head = b""
        while not head.endswith(b"\r\n\r\n"):
            line = rfile.readline()
            if not line:
                return head
            head += line
        length = int(head.lower().split(b"content-length:")[1].split(b"\r\n")[0])
        return head + rfile.read(length)


def _reply_ok(conn, received):
    received.append(_read_request(conn))
    body = json.dumps({"jsonrpc": "2.0", "id": 1, "result": {"content": "ok", "is_error": False}})
    conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body.encode()))
    # wait for the client to close its side, as a kept-alive server does
    conn.recv(1)


def _short_body_then_stall(conn, received):
    received.append(_read_request(conn))
    conn.sendall(b'HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{"jsonrpc"')
    conn.recv(1)  # stalls until the client gives up and closes


def _close_without_reply(conn, received):
    received.append(_read_request(conn))


@contextlib.contextmanager
def _scripted_server(*answers):
    """A TCP server that serves its i-th connection with ``answers[i]``, one
    connection at a time; yields its URL and the requests it received."""
    received = []
    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.settimeout(5.0)

        def serve():
            for answer in answers:
                conn, _ = listener.accept()
                with conn:
                    answer(conn, received)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        yield f"http://127.0.0.1:{listener.getsockname()[1]}", received
        thread.join(5.0)
        assert not thread.is_alive()


@pytest.mark.parametrize(
    "answer, timeout_s, bound_s",
    [(_short_body_then_stall, 0.3, 1.0), (_close_without_reply, 5.0, 1.0)],
    ids=["short body then stall", "close without reply"],
)
def test_http_transport_fails_a_broken_reply_and_reconnects(answer, timeout_s, bound_s):
    with _scripted_server(answer, _reply_ok) as (url, received):
        transport = HttpTransport({1: url}, MonotonicClock(), timeout_s=timeout_s)
        try:
            started = time.perf_counter()
            (failed,) = transport.call_tool(1, "t", {}, "s")
            elapsed = time.perf_counter() - started
            (answered,) = transport.call_tool(1, "t", {}, "s")
        finally:
            transport.close()
    assert not failed.success and failed.result["error"].startswith("transport failure")
    assert elapsed < bound_s
    assert answered.success and answered.result == "ok"
    assert len(received) == 2  # one request per connection: none was sent again


def test_http_transport_refuses_a_session_id_with_a_line_break():
    with socket.create_server(("127.0.0.1", 0)) as listener:
        transport = HttpTransport(
            {1: f"http://127.0.0.1:{listener.getsockname()[1]}"}, MonotonicClock(), timeout_s=1.0
        )
        try:
            (call,) = transport.call_tool(1, "t", {}, "s\r\nX-Injected: 1")
        finally:
            transport.close()
        listener.settimeout(0.1)
        with pytest.raises(TimeoutError):  # nothing connected, so nothing was sent
            listener.accept()
    assert not call.success and call.result["error"].startswith("transport failure")


class _Http11ClosingHandler(_Http10Handler):
    """An HTTP/1.1 server that answers every request with ``Connection: close``."""

    protocol_version = "HTTP/1.1"

    def end_headers(self):
        self.server.requests += 1
        self.send_header("Connection", "close")
        super().end_headers()


def test_http_transport_reconnects_to_an_http11_server_that_closes(
    fixtures, accepted_connections
):
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Http11ClosingHandler)
    server.tool_host = build_procedure_host(fixtures, repository_text="procedures here")
    server.requests = 0
    threading.Thread(target=server.serve_forever, args=(SERVE_POLL_S,), daemon=True).start()
    host, port = server.server_address[:2]
    transport = HttpTransport({2: f"http://{host}:{port}"}, MonotonicClock(), timeout_s=2.0)
    try:
        calls = [
            transport.call_tool(2, "dhcpv4_allocate", {"ue_id": "ue-002"}, "s")[0]
            for _ in range(3)
        ]
    finally:
        transport.close()
        server.shutdown()
        server.server_close()
    assert [c.result["address"] for c in calls] == ["100.64.0.1", "100.64.0.2", "100.64.0.3"]
    assert (len(accepted_connections), server.requests) == (3, 3)
