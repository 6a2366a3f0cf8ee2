from __future__ import annotations

from http.server import ThreadingHTTPServer

import pytest

from procharness.model import (
    CallOrigin,
    ObservedTrace,
    ToolCallRecord,
    ToolRegistry,
)
from procharness.toolsim import (
    allocation_tool_specs,
    default_fixtures,
    ground_truth_procedure,
    make_allocation_intent,
)

# canonical valid arguments per scenario-A tool, matching the shipped
# static-IP request (ue-001 / IPv4)
CANONICAL_ARGS = {
    "ue_authorization": {"ue_id": "ue-001", "session_type": "IPv4"},
    "static_ip_retrieval": {"ue_id": "ue-001"},
    "dhcpv4_allocate": {"ue_id": "ue-001"},
    "dhcpv6_allocate": {"ue_id": "ue-001"},
    "ip_assignment": {"ue_id": "ue-001", "address": "10.0.0.42", "session_type": "IPv4"},
    "ue_authorisation_check": {},  # deliberately unregistered
}


def make_trace(names, args_by_name=None, args_overrides=None) -> ObservedTrace:
    """Build an agent-level trace from tool names using canonical args."""
    args_by_name = args_by_name or CANONICAL_ARGS
    records = []
    for i, name in enumerate(names, start=1):
        args = dict(args_by_name.get(name, {}))
        if args_overrides and i in args_overrides:
            args = args_overrides[i]
        records.append(
            ToolCallRecord(
                step_index=i,
                tool_name=name,
                arguments=args,
                result={"ok": True},
                success=True,
                started_at=i,
                ended_at=i + 1,
                origin=CallOrigin.AGENT_ISSUED,
            )
        )
    return ObservedTrace(records=tuple(records))


@pytest.fixture(scope="session")
def fixtures():
    return default_fixtures()


@pytest.fixture(scope="session")
def scenario_a_registry():
    return ToolRegistry(allocation_tool_specs())


@pytest.fixture(scope="session")
def static_ip_procedure(fixtures):
    intent = make_allocation_intent("ue-001", "IPv4")
    return ground_truth_procedure(intent, fixtures)


@pytest.fixture()
def accepted_connections(monkeypatch):
    """The port of the server behind every connection that a
    ``ThreadingHTTPServer`` accepts while the test runs."""
    accepted = []
    finish_request = ThreadingHTTPServer.finish_request

    def counting(self, request, client_address):
        accepted.append(self.server_address[1])
        return finish_request(self, request, client_address)

    monkeypatch.setattr(ThreadingHTTPServer, "finish_request", counting)
    return accepted
