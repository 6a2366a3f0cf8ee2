from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from procharness.model import MonotonicClock, VirtualClock
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
)
from procharness.wire import (
    ERR_INVALID_PARAMS,
    ERR_TOOL_NOT_FOUND,
    HttpTransport,
    LoopbackTransport,
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
    empty = ToolHost(9, [], {})
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
    outcome = loopback.call_tool(
        2, AUTH_TOOL, {"ue_id": "ue-001", "session_type": "IPv4"}, "s1"
    )
    assert outcome.success
    assert outcome.content["status"] == "authorized"
    assert outcome.ended_at - outcome.started_at == 1  # injected latency


def test_call_tool_unknown_name_is_failed_call(loopback):
    outcome = loopback.call_tool(2, "foo", {}, "s1")
    assert not outcome.success
    assert outcome.tool_name == "foo"
    assert "unknown tool" in outcome.error


def test_call_tool_validation_error(loopback):
    outcome = loopback.call_tool(2, AUTH_TOOL, {"ue_id": "ue-001"}, "s1")
    assert not outcome.success
    assert "session_type" in outcome.error


def test_encapsulated_call_returns_internal_records(loopback):
    outcome = loopback.call_tool(
        1, ENCAP_TOOL, {"ue_id": "ue-001", "session_type": "IPv4"}, "s1"
    )
    assert outcome.success
    assert [c.name for c in outcome.internal_calls] == [
        "ue_authorization",
        "static_ip_retrieval",
        "ip_assignment",
    ]
    for internal in outcome.internal_calls:
        assert outcome.started_at <= internal.started_at
        assert internal.ended_at <= outcome.ended_at


def test_sessions_do_not_share_state(loopback):
    first = loopback.call_tool(2, "dhcpv4_allocate", {"ue_id": "ue-002"}, "run-1")
    second = loopback.call_tool(2, "dhcpv4_allocate", {"ue_id": "ue-002"}, "run-2")
    third = loopback.call_tool(2, "dhcpv4_allocate", {"ue_id": "ue-002"}, "run-1")
    assert first.content["address"] == "100.64.0.1"
    assert second.content["address"] == "100.64.0.1"
    assert third.content["address"] == "100.64.0.2"


def test_handle_rpc_error_codes(procedure_host):
    clock = MonotonicClock()
    bad_version = handle_rpc(procedure_host, {"id": 1, "method": "tools/list"}, "s", clock)
    assert bad_version["error"]["code"] == -32600
    unknown_method = handle_rpc(
        procedure_host, {"jsonrpc": "2.0", "id": 2, "method": "nope"}, "s", clock
    )
    assert unknown_method["error"]["code"] == -32601
    not_found = handle_rpc(
        procedure_host,
        {"jsonrpc": "2.0", "id": 3, "method": "tools/call", "params": {"name": "foo"}},
        "s",
        clock,
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
        clock,
    )
    assert bad_args["error"]["code"] == ERR_INVALID_PARAMS


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
        MonotonicClock(),
    )
    assert set(response) == {"jsonrpc", "id", "result"}
    assert set(response["result"]) == {"content", "is_error"}


def test_meta_tool_round_trip(loopback):
    outcome = loopback.call_tool(2, META_TOOL_NAME, {}, "s1")
    assert outcome.success and outcome.content == "procedures here"


def test_http_server_round_trip(fixtures):
    host = build_procedure_host(fixtures, repository_text="text")
    with ToolServer(host) as server:
        transport = HttpTransport({2: server.url}, MonotonicClock())
        names = [d["name"] for d in transport.list_tools(2)]
        assert AUTH_TOOL in names
        outcome = transport.call_tool(
            2, AUTH_TOOL, {"ue_id": "ue-001", "session_type": "IPv4"}, "run-http"
        )
        assert outcome.success and outcome.content["status"] == "authorized"
        missing = transport.call_tool(2, "foo", {}, "run-http")
        assert not missing.success


def test_http_session_isolation_via_header(fixtures):
    host = build_procedure_host(fixtures, repository_text=None)
    with ToolServer(host) as server:
        transport = HttpTransport({2: server.url}, MonotonicClock())
        a1 = transport.call_tool(2, "dhcpv4_allocate", {"ue_id": "ue-002"}, "s-a")
        b1 = transport.call_tool(2, "dhcpv4_allocate", {"ue_id": "ue-002"}, "s-b")
        a2 = transport.call_tool(2, "dhcpv4_allocate", {"ue_id": "ue-002"}, "s-a")
        assert a1.content["address"] == b1.content["address"] == "100.64.0.1"
        assert a2.content["address"] == "100.64.0.2"


def test_http_transport_failure_is_failed_call():
    transport = HttpTransport({2: "http://127.0.0.1:1"}, MonotonicClock(), timeout_s=0.5)
    outcome = transport.call_tool(2, AUTH_TOOL, {}, "s")
    assert not outcome.success
    assert "transport failure" in outcome.error


def test_session_header_name():
    assert SESSION_HEADER == "X-Run-Session"


def test_http_transport_keeps_one_connection_until_closed(
    fixtures, accepted_connections
):
    host = build_procedure_host(fixtures, repository_text=None)
    with ToolServer(host) as server:
        transport = HttpTransport({2: server.url}, MonotonicClock())
        transport.list_tools(2)
        outcomes = [
            transport.call_tool(2, "dhcpv4_allocate", {"ue_id": "ue-002"}, "s")
            for _ in range(3)
        ]
        assert [o.content["address"] for o in outcomes] == [
            "100.64.0.1",
            "100.64.0.2",
            "100.64.0.3",
        ]
        assert len(accepted_connections) == 1
        transport.close()
        again = transport.call_tool(2, "dhcpv4_allocate", {"ue_id": "ue-002"}, "s")
        assert again.content["address"] == "100.64.0.4"
        assert len(accepted_connections) == 2
        transport.close()


def test_closed_server_stops_serving_open_connections(fixtures):
    host = build_procedure_host(fixtures, repository_text=None)
    server = ToolServer(host).start()
    transport = HttpTransport({2: server.url}, MonotonicClock(), timeout_s=2.0)
    try:
        first = transport.call_tool(2, "dhcpv4_allocate", {"ue_id": "ue-002"}, "s")
        assert first.content["address"] == "100.64.0.1"
        server.close()
        second = transport.call_tool(2, "dhcpv4_allocate", {"ue_id": "ue-002"}, "s")
        assert not second.success
        assert "transport failure" in second.error
    finally:
        transport.close()


class _Http10Handler(BaseHTTPRequestHandler):
    """A plain HTTP/1.0 server: it closes the connection after every reply."""

    def do_POST(self):  # noqa: N802 (http.server API)
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        response = handle_rpc(
            self.server.tool_host, payload, self.headers[SESSION_HEADER], MonotonicClock()
        )
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
    server.tool_host = build_procedure_host(fixtures, repository_text=None)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    transport = HttpTransport({2: f"http://{host}:{port}"}, MonotonicClock(), timeout_s=2.0)
    try:
        assert len(transport.list_tools(2)) == 5
        outcomes = [
            transport.call_tool(2, "dhcpv4_allocate", {"ue_id": "ue-002"}, "s")
            for _ in range(3)
        ]
        assert all(o.success for o in outcomes)
        assert [o.content["address"] for o in outcomes] == [
            "100.64.0.1",
            "100.64.0.2",
            "100.64.0.3",
        ]
        assert len(accepted_connections) == 4
    finally:
        transport.close()
        server.shutdown()
        server.server_close()
