"""Simulated UE IP allocation tools and their ground-truth procedure.

Every handler is ``handler(arguments, session)``, trusts the host's
schema check of its arguments, and is deterministic given a fixture set
and its run's session, a ``Counter`` of DHCP leases handed out per
family: each pool hands out sequential addresses within a run.
"""

from __future__ import annotations

import ipaddress
from collections import Counter
from dataclasses import dataclass
from typing import Any, Mapping

from ..model import (
    CallOrigin,
    Intent,
    ModelError,
    ParamSpec,
    Procedure,
    ToolCallRecord,
    ToolScope,
    ToolSpec,
    ValueKind,
)
from .host import Handler, ToolResult

SESSION_TYPES = ("IPv4", "IPv6", "IPv4v6")

AUTH_TOOL = "ue_authorization"
STATIC_TOOL = "static_ip_retrieval"
DHCPV4_TOOL = "dhcpv4_allocate"
DHCPV6_TOOL = "dhcpv6_allocate"
REGISTRY_TOOL = "ip_assignment"
ENCAP_TOOL = "ue_ip_allocation"

UE_INTENT_KEY = "ue_ip_allocation"

DHCPV4_BASE = ipaddress.IPv4Address("100.64.0.0")
DHCPV6_BASE = ipaddress.IPv6Address("2001:db8::")
# pool is one /24-sized block; the base address itself is never handed out
DHCP_POOL_SIZE = 255


@dataclass(frozen=True)
class UeFixture:
    """Deterministic subscriber state driving the allocation tools."""

    ue_id: str
    authorized_session_types: frozenset[str]
    static_ip: str | None = None

    def __post_init__(self) -> None:
        unknown = self.authorized_session_types - set(SESSION_TYPES)
        if unknown:
            raise ModelError(f"unknown session types {sorted(unknown)}")
        if self.static_ip is not None:
            ipaddress.ip_address(self.static_ip)


def default_fixtures() -> dict[str, UeFixture]:
    """Shipped subscriber set covering every allocation branch."""
    fixtures = [
        UeFixture("ue-001", frozenset({"IPv4", "IPv4v6"}), "10.0.0.42"),
        UeFixture("ue-002", frozenset({"IPv4", "IPv6", "IPv4v6"}), None),
        UeFixture("ue-003", frozenset({"IPv6"}), None),
    ]
    return {f.ue_id: f for f in fixtures}


def static_family_compatible(address: str, session_type: str) -> bool:
    """A single-family static address cannot serve a dual-stack request."""
    version = ipaddress.ip_address(address).version
    if session_type == "IPv4":
        return version == 4
    if session_type == "IPv6":
        return version == 6
    return False


def _valid_assignment_address(address: str) -> bool:
    parts = address.split(",")
    if not 1 <= len(parts) <= 2:
        return False
    try:
        for part in parts:
            ipaddress.ip_address(part)
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------------------
# Tool handlers


def make_ue_handlers(fixtures: Mapping[str, UeFixture]) -> dict[str, Any]:
    """Handlers for the five allocation tools, bound to a fixture set."""

    def authorize(args: Mapping[str, Any], session: Any) -> ToolResult:
        ue_id = args["ue_id"]
        session_type = args["session_type"]
        fixture = fixtures.get(ue_id)
        if fixture is None:
            return ToolResult(content={"status": "rejected", "reason": "unknown_ue"})
        if session_type not in fixture.authorized_session_types:
            return ToolResult(
                content={"status": "rejected", "reason": "session_type_not_allowed"}
            )
        return ToolResult(
            content={"status": "authorized", "ue_id": ue_id, "session_type": session_type}
        )

    def static_lookup(args: Mapping[str, Any], session: Any) -> ToolResult:
        fixture = fixtures.get(args["ue_id"])
        static_ip = fixture.static_ip if fixture is not None else None
        return ToolResult(content={"static_ip": static_ip})

    def dhcp(family: str, base: ipaddress.IPv4Address | ipaddress.IPv6Address) -> Handler:
        def allocate(args: Mapping[str, Any], leases: Counter) -> ToolResult:
            if leases[family] >= DHCP_POOL_SIZE:
                return ToolResult(content={"error": f"{family} pool exhausted"}, is_error=True)
            leases[family] += 1
            return ToolResult(content={"address": str(base + leases[family])})

        return allocate

    def assign(args: Mapping[str, Any], session: Any) -> ToolResult:
        address = args["address"]
        if not _valid_assignment_address(address):
            return ToolResult(
                content={"error": f"invalid address syntax {address!r}"}, is_error=True
            )
        return ToolResult(
            content={
                "status": "assigned",
                "ue_id": args["ue_id"],
                "address": address,
                "session_type": args["session_type"],
            }
        )

    return {
        AUTH_TOOL: authorize,
        STATIC_TOOL: static_lookup,
        DHCPV4_TOOL: dhcp("dhcpv4", DHCPV4_BASE),
        DHCPV6_TOOL: dhcp("dhcpv6", DHCPV6_BASE),
        REGISTRY_TOOL: assign,
    }


def make_encapsulated_handler(fixtures: Mapping[str, UeFixture]):
    """Single tool that walks the full allocation procedure internally.

    Reacts to each internal tool's output to pick the next step, mirroring
    what a well-behaved agent would do, and reports every internal call. A
    simulated tool takes no time, so every internal call sits at the start
    of this one (offset 0) and lasts nothing.
    """
    handlers = make_ue_handlers(fixtures)

    def run_procedure(args: Mapping[str, Any], session: Any) -> ToolResult:
        internals: list[ToolCallRecord] = []

        def call(name: str, call_args: dict[str, Any]) -> ToolResult:
            result = handlers[name](call_args, session)
            internals.append(
                ToolCallRecord(
                    step_index=0,  # the wire drops it; the client numbers the calls
                    tool_name=name,
                    arguments=call_args,
                    result=result.content,
                    success=not result.is_error,
                    started_at=0,
                    ended_at=0,
                    origin=CallOrigin.TOOL_INTERNAL,
                )
            )
            return result

        ue_id = args["ue_id"]
        session_type = args["session_type"]

        auth = call(AUTH_TOOL, {"ue_id": ue_id, "session_type": session_type})
        if auth.content.get("status") != "authorized":
            return ToolResult(content=auth.content, internal_calls=internals)

        static = call(STATIC_TOOL, {"ue_id": ue_id})
        static_ip = static.content.get("static_ip")
        if static_ip and static_family_compatible(static_ip, session_type):
            address = static_ip
        else:
            parts: list[str] = []
            if session_type in ("IPv4", "IPv4v6"):
                lease = call(DHCPV4_TOOL, {"ue_id": ue_id})
                if lease.is_error:
                    return ToolResult(content=lease.content, is_error=True, internal_calls=internals)
                parts.append(lease.content["address"])
            if session_type in ("IPv6", "IPv4v6"):
                lease = call(DHCPV6_TOOL, {"ue_id": ue_id})
                if lease.is_error:
                    return ToolResult(content=lease.content, is_error=True, internal_calls=internals)
                parts.append(lease.content["address"])
            address = ",".join(parts)

        confirmation = call(
            REGISTRY_TOOL,
            {"ue_id": ue_id, "address": address, "session_type": session_type},
        )
        return ToolResult(
            content=confirmation.content,
            is_error=confirmation.is_error,
            internal_calls=internals,
        )

    return run_procedure


def make_decoy_handler(procedure_name: str) -> Handler:
    error = f"procedure {procedure_name!r} is not available in this simulation"
    return lambda args, session: ToolResult(content={"error": error}, is_error=True)


# ---------------------------------------------------------------------------
# Tool specs


_SESSION_TYPE = ParamSpec("session_type", ValueKind.ENUM, True, SESSION_TYPES)


def allocation_tool_specs() -> list[ToolSpec]:
    """The five step-level tools, in procedure order."""
    return [
        ToolSpec(
            AUTH_TOOL,
            "Validate a UE identifier and the requested session type.",
            (ParamSpec("ue_id"), _SESSION_TYPE),
        ),
        ToolSpec(
            STATIC_TOOL,
            "Look up whether a static IP is pre-assigned for a UE.",
            (ParamSpec("ue_id"),),
        ),
        ToolSpec(
            DHCPV4_TOOL,
            "Allocate the next available IPv4 address for a UE.",
            (ParamSpec("ue_id"),),
        ),
        ToolSpec(
            DHCPV6_TOOL,
            "Allocate the next available IPv6 address for a UE.",
            (ParamSpec("ue_id"),),
        ),
        ToolSpec(
            REGISTRY_TOOL,
            "Finalize an allocation: notify the UE and record it in the network "
            "registry. For dual-stack sessions pass both addresses comma-separated.",
            (ParamSpec("ue_id"), ParamSpec("address"), _SESSION_TYPE),
        ),
    ]


def encapsulated_tool_specs() -> list[ToolSpec]:
    """Whole-procedure tools; only the first applies to IP allocation."""
    return [
        ToolSpec(
            ENCAP_TOOL,
            "Run the complete UE IP allocation procedure for a UE and session "
            "type: authorization, static lookup, DHCP if needed, and registry "
            "recording.",
            (ParamSpec("ue_id"), _SESSION_TYPE),
            scope=ToolScope.ENCAPSULATED,
            encapsulates=UE_INTENT_KEY,
        ),
        ToolSpec(
            "pdu_session_release",
            "Run the complete PDU session release procedure for a UE.",
            (ParamSpec("ue_id"),),
            scope=ToolScope.ENCAPSULATED,
            encapsulates="pdu_session_release",
        ),
        ToolSpec(
            "qos_profile_update",
            "Run the complete QoS profile update procedure for a UE.",
            (ParamSpec("ue_id"),),
            scope=ToolScope.ENCAPSULATED,
            encapsulates="qos_profile_update",
        ),
    ]


# ---------------------------------------------------------------------------
# Ground truth


def make_allocation_intent(ue_id: str, session_type: str) -> Intent:
    return Intent(
        intent_key=UE_INTENT_KEY,
        text=(
            f"Allocate an IP address for UE '{ue_id}' with session type "
            f"{session_type}."
        ),
        structured={"ue_id": ue_id, "session_type": session_type},
    )


def allocation_plan(
    fixtures: Mapping[str, UeFixture], ue_id: str, session_type: str
) -> list[tuple[str, dict[str, Any]]]:
    """Concrete (tool, arguments) sequence the allocation rules prescribe.

    Used to generate ground-truth procedures and scripted playbooks; address
    values assume a fresh run (first DHCP lease of each family).
    """
    auth_args = {"ue_id": ue_id, "session_type": session_type}
    fixture = fixtures.get(ue_id)
    if fixture is None or session_type not in fixture.authorized_session_types:
        return [(AUTH_TOOL, auth_args)]

    plan = [(AUTH_TOOL, auth_args), (STATIC_TOOL, {"ue_id": ue_id})]
    if fixture.static_ip and static_family_compatible(fixture.static_ip, session_type):
        address = fixture.static_ip
    else:
        parts = []
        if session_type in ("IPv4", "IPv4v6"):
            plan.append((DHCPV4_TOOL, {"ue_id": ue_id}))
            parts.append(str(DHCPV4_BASE + 1))
        if session_type in ("IPv6", "IPv4v6"):
            plan.append((DHCPV6_TOOL, {"ue_id": ue_id}))
            parts.append(str(DHCPV6_BASE + 1))
        address = ",".join(parts)
    plan.append(
        (REGISTRY_TOOL, {"ue_id": ue_id, "address": address, "session_type": session_type})
    )
    return plan


def ground_truth_procedure(
    intent: Intent, fixtures: Mapping[str, UeFixture]
) -> Procedure:
    """Expected step-level procedure for an allocation intent: the calls of
    its allocation plan, with any address accepted, since the address comes
    from the DHCP or static lookup output."""
    if intent.intent_key != UE_INTENT_KEY:
        raise ModelError(f"not an IP allocation intent: {intent.intent_key!r}")
    ue_id = intent.structured["ue_id"]
    session_type = intent.structured["session_type"]
    return Procedure.of_calls(
        f"{UE_INTENT_KEY}:{ue_id}:{session_type}",
        UE_INTENT_KEY,
        allocation_plan(fixtures, ue_id, session_type),
        any_value=("address",),
    )
