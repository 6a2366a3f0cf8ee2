from __future__ import annotations

import http.client
import itertools
import json
import threading
import time
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
