"""Deterministic simulated network tools and their hosting glue."""

from __future__ import annotations

from .host import (
    META_TOOL_NAME,
    ArgumentValidationError,
    CallContext,
    ToolHost,
    ToolNotFoundError,
    ToolResult,
    make_repository_tool,
)
from .kpi import (
    KPI_INTENT_KEY,
    KPI_TOOL_NAMES,
    POOL_SIZE,
    STRESS_LENGTHS,
    KpiToolDef,
    KpiToolPool,
    build_kpi_pool,
    gen_stress_procedure,
    kpi_query,
    kpi_tool_specs,
    kpi_value,
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
    UE_INTENT_KEY,
    RegistryState,
    UeFixture,
    UeSessionState,
    allocation_plan,
    allocation_tool_specs,
    default_fixtures,
    encapsulated_expected_procedure,
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


def build_encapsulated_host(fixtures) -> ToolHost:
    """Server 1: whole-procedure tools."""
    specs = encapsulated_tool_specs()
    handlers = {ENCAP_TOOL: make_encapsulated_handler(fixtures)}
    for spec in specs[1:]:
        handlers[spec.name] = make_decoy_handler(spec.name)
    return ToolHost(
        ENCAPSULATED_SERVER_ID, specs, handlers, session_factory=UeSessionState
    )


def build_procedure_host(fixtures, repository_text: str | None = None) -> ToolHost:
    """Server 2: the five step-level allocation tools, plus the procedure
    repository meta tool when a rendering is configured."""
    specs = allocation_tool_specs()
    handlers = make_ue_handlers(fixtures)
    if repository_text is not None:
        meta_spec, meta_handler = make_repository_tool(repository_text)
        specs = specs + [meta_spec]
        handlers[META_TOOL_NAME] = meta_handler
    return ToolHost(PROCEDURE_SERVER_ID, specs, handlers, session_factory=UeSessionState)


def build_kpi_host(pool: KpiToolPool) -> ToolHost:
    """Server 3: the seeded KPI pool (stateless)."""
    return ToolHost(KPI_SERVER_ID, kpi_tool_specs(pool), make_kpi_handlers(pool))
