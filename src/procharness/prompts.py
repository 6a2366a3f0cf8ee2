"""Canonical prompt texts and procedure renderings.

These strings are part of the experiment definition: runs are reproducible
against exactly this wording, and the repository meta tool serves the same
rendering byte-for-byte.
"""

from __future__ import annotations

from .model import AnyValue, Procedure

SYSTEM_BASE = """\
You are a network operations agent. You complete requests by calling the
tools exposed by the connected tool servers.

Rules:
- Call exactly one tool per turn and wait for its result.
- Use only the listed tools and pass every required argument.
- Follow the applicable operating procedure exactly: do not skip, reorder,
  or repeat steps.
- When the request is complete, or cannot proceed, reply with a short text
  summary and no tool call."""

UE_PROCEDURE_SET_TEXT = """\
Procedure: UE IP allocation
Applies to: requests to allocate an IP address for a UE (ue_id, session_type).
Steps:
1. Call ue_authorization with the requested ue_id and session_type.
   If the result is "rejected", stop: the procedure ends here.
2. Call static_ip_retrieval with the ue_id.
3. If step 2 returned a static IP whose address family matches the requested
   session type, skip the DHCP tools and use that address.
   Otherwise allocate dynamically:
   - session_type IPv4: call dhcpv4_allocate.
   - session_type IPv6: call dhcpv6_allocate.
   - session_type IPv4v6: call dhcpv4_allocate, then dhcpv6_allocate, and
     join both addresses with a comma.
4. Call ip_assignment with the ue_id, the address from step 3, and the
   session_type to record the allocation."""

KPI_PROCEDURE_SET_TEXT = """\
Procedure: network health analysis
Applies to: requests to analyze the network health of a region.
Steps:
1. The request lists the KPI tools to consult. Call each listed tool exactly
   once, in the listed order, passing the requested region.
2. After the last tool, reply with a summary of the collected KPIs and flag
   any value reported as abnormal."""

A2_RETRIEVAL_INSTRUCTION = """\
The operating procedures are stored in an external repository. Before doing
anything else, call get_procedures once to retrieve them, then execute the
matching procedure."""

A4_SELECTION_INSTRUCTION = """\
Each available tool executes a complete operating procedure internally.
Select the single tool that matches the request and invoke it once, then
summarize its result."""

A3_STEPS_PREAMBLE = "Execute exactly these steps in order:"

FINAL_SUMMARY_TEXT = "Request handled; procedure execution finished."


def render_step_list(procedure: Procedure) -> str:
    """Numbered step list with tool names and bound arguments, for prompts
    that spell the exact sequence out."""
    lines = []
    for i, step in enumerate(procedure.steps, start=1):
        parts = []
        for name, constraint in step.arg_constraints.items():
            if isinstance(constraint, AnyValue):
                parts.append(f"{name}=<from a previous step's output>")
            else:
                parts.append(f"{name}={constraint!r}")
        lines.append(f"{i}. {step.tool_name}({', '.join(parts)})")
    return "\n".join(lines)
