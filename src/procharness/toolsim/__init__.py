"""Deterministic simulated network tools and their hosting glue."""

from __future__ import annotations

from collections import Counter

from ..model import ToolRegistry
from .host import META_TOOL_NAME, REPOSITORY_SPEC, ToolHost, make_repository_handler
from .kpi import (
    KPI_TOOL_NAMES,
    POOL_SIZE,
    STRESS_LENGTHS,
    KpiToolPool,
    build_kpi_pool,
    gen_stress_procedure,
    kpi_query,
    kpi_tool_specs,
    make_kpi_handlers,
)
from .ue import (
    AUTH_TOOL,
    DHCPV4_TOOL,
    DHCPV6_TOOL,
    ENCAP_TOOL,
    REGISTRY_TOOL,
    SESSION_TYPES,
    STATIC_TOOL,
    UeFixture,
    allocation_plan,
    allocation_tool_specs,
    default_fixtures,
    encapsulated_tool_specs,
    ground_truth_procedure,
    make_allocation_intent,
    make_decoy_handler,
    make_encapsulated_handler,
    make_ue_handlers,
)

ENCAPSULATED_SERVER_ID = 1
PROCEDURE_SERVER_ID = 2
KPI_SERVER_ID = 3

# the one table of the tools each server exposes, in tools/list order, and
# their registries; a host binds only the handlers (server 2 always serves
# the procedure repository tool)
SERVER_SPECS = {
    ENCAPSULATED_SERVER_ID: tuple(encapsulated_tool_specs()),
    PROCEDURE_SERVER_ID: (*allocation_tool_specs(), REPOSITORY_SPEC),
    KPI_SERVER_ID: tuple(kpi_tool_specs()),
}
SERVER_REGISTRIES = {server_id: ToolRegistry(specs) for server_id, specs in SERVER_SPECS.items()}


def build_encapsulated_host(fixtures) -> ToolHost:
    """Server 1: whole-procedure tools."""
    specs = SERVER_SPECS[ENCAPSULATED_SERVER_ID]
    handlers = {spec.name: make_decoy_handler(spec.name) for spec in specs[1:]}
    handlers[ENCAP_TOOL] = make_encapsulated_handler(fixtures)
    return ToolHost(specs, handlers, session_factory=Counter)


def build_procedure_host(fixtures, repository_text: str) -> ToolHost:
    """Server 2: the five step-level allocation tools and the procedure
    repository meta tool, which serves ``repository_text``."""
    handlers = make_ue_handlers(fixtures)
    handlers[META_TOOL_NAME] = make_repository_handler(repository_text)
    return ToolHost(SERVER_SPECS[PROCEDURE_SERVER_ID], handlers, session_factory=Counter)


def build_kpi_host(pool: KpiToolPool) -> ToolHost:
    """Server 3: the KPI tools, valued by the seeded pool (stateless)."""
    return ToolHost(SERVER_SPECS[KPI_SERVER_ID], make_kpi_handlers(pool))
