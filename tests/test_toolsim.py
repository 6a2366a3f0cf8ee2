from __future__ import annotations

import itertools
from collections import Counter

import pytest

from procharness.model import AnyValue, ExpectedStep, ModelError, ParamSpec, ToolSpec, ValueKind
from procharness.toolsim import (
    AUTH_TOOL,
    DHCPV4_TOOL,
    DHCPV6_TOOL,
    ENCAP_TOOL,
    ENCAPSULATED_SERVER_ID,
    PROCEDURE_SERVER_ID,
    REGISTRY_TOOL,
    SESSION_TYPES,
    STATIC_TOOL,
    KPI_SERVER_ID,
    KPI_TOOL_NAMES,
    POOL_SIZE,
    SERVER_SPECS,
    ToolHost,
    UeFixture,
    allocation_plan,
    build_kpi_pool,
    default_fixtures,
    gen_stress_procedure,
    ground_truth_procedure,
    kpi_query,
    kpi_tool_specs,
    make_allocation_intent,
    make_encapsulated_handler,
    make_ue_handlers,
)
from procharness.toolsim.host import ToolResult
from procharness.toolsim.ue import DHCP_POOL_SIZE, static_family_compatible
from procharness.wire import ERR_INVALID_PARAMS, handle_rpc


@pytest.fixture()
def handlers(fixtures):
    return make_ue_handlers(fixtures)


# ---------------------------------------------------------------------------
# individual tools


def test_authorization_accepts_configured_type(handlers):
    result = handlers[AUTH_TOOL]({"ue_id": "ue-001", "session_type": "IPv4"}, Counter())
    assert result.content["status"] == "authorized"


def test_authorization_rejects_unknown_ue(handlers):
    result = handlers[AUTH_TOOL]({"ue_id": "ue-999", "session_type": "IPv4"}, Counter())
    assert result.content == {"status": "rejected", "reason": "unknown_ue"}


def test_authorization_rejects_disallowed_type(handlers):
    result = handlers[AUTH_TOOL]({"ue_id": "ue-001", "session_type": "IPv6"}, Counter())
    assert result.content == {"status": "rejected", "reason": "session_type_not_allowed"}


@pytest.mark.parametrize(
    "server_id", [ENCAPSULATED_SERVER_ID, PROCEDURE_SERVER_ID], ids=["encapsulated", "procedure"]
)
def test_a_malformed_session_type_is_refused_before_any_handler(fixtures, server_id):
    """Handlers trust the host's schema check: a session type outside the
    enum gets -32602 from the host, no handler runs and no lease is used."""
    real = {**make_ue_handlers(fixtures), ENCAP_TOOL: make_encapsulated_handler(fixtures)}
    ran = []

    def spy(name):
        def handler(args, session):
            ran.append(name)
            return real[name](args, session) if name in real else ToolResult(None)

        return handler

    specs = SERVER_SPECS[server_id]
    host = ToolHost(specs, {spec.name: spy(spec.name) for spec in specs}, Counter)

    def rpc(name, args):
        request = {"jsonrpc": "2.0", "id": 1, "method": "tools/call"}
        return handle_rpc(host, {**request, "params": {"name": name, "arguments": args}}, "s")

    both = {"ue_id": "ue-002", "session_type": "both"}
    if server_id == ENCAPSULATED_SERVER_ID:
        refused = [(ENCAP_TOOL, both)]
        lease = (ENCAP_TOOL, {**both, "session_type": "IPv4"})
    else:
        refused = [(AUTH_TOOL, both), (REGISTRY_TOOL, {**both, "address": "100.64.0.1"})]
        lease = (DHCPV4_TOOL, {"ue_id": "ue-002"})
    for name, args in refused:
        reply = rpc(name, args)
        assert reply["error"]["code"] == ERR_INVALID_PARAMS
        assert reply["error"]["data"]["problems"] == [
            "parameter 'session_type' must be one of ['IPv4', 'IPv6', 'IPv4v6'], got 'both'"
        ]
    assert ran == []
    # the session's first DHCP lease is still free
    assert rpc(*lease)["result"]["content"]["address"] == "100.64.0.1"


def test_static_lookup_present_absent_unknown(handlers):
    assert (
        handlers[STATIC_TOOL]({"ue_id": "ue-001"}, Counter()).content["static_ip"]
        == "10.0.0.42"
    )
    assert handlers[STATIC_TOOL]({"ue_id": "ue-002"}, Counter()).content["static_ip"] is None
    result = handlers[STATIC_TOOL]({"ue_id": "ue-999"}, Counter())
    assert result.content["static_ip"] is None and not result.is_error


def test_dhcp_pools_are_sequential_per_run(handlers):
    session = Counter()
    assert handlers[DHCPV4_TOOL]({"ue_id": "ue-002"}, session).content["address"] == "100.64.0.1"
    assert handlers[DHCPV4_TOOL]({"ue_id": "ue-002"}, session).content["address"] == "100.64.0.2"
    assert handlers[DHCPV6_TOOL]({"ue_id": "ue-002"}, session).content["address"] == "2001:db8::1"
    # fresh session restarts the pool
    assert handlers[DHCPV4_TOOL]({"ue_id": "ue-002"}, Counter()).content["address"] == "100.64.0.1"


def test_dhcp_pool_exhaustion(handlers):
    session = Counter()
    for _ in range(DHCP_POOL_SIZE):
        assert not handlers[DHCPV4_TOOL]({"ue_id": "ue-002"}, session).is_error
    assert handlers[DHCPV4_TOOL]({"ue_id": "ue-002"}, session).is_error


def test_assignment_appends_to_registry(handlers):
    session = Counter()
    for address in ("10.0.0.42", "100.64.0.9,2001:db8::1"):
        args = {"ue_id": "ue-001", "address": address, "session_type": "IPv4"}
        result = handlers[REGISTRY_TOOL](args, session)
        assert not result.is_error
        assert result.content["status"] == "assigned"
        assert result.content["address"] == address


def test_assignment_rejects_bad_address(handlers):
    for address in ("not-an-ip", "100.64.0.1,2001:db8::1,10.0.0.42"):  # a third part too
        result = handlers[REGISTRY_TOOL](
            {"ue_id": "ue-001", "address": address, "session_type": "IPv4"}, Counter()
        )
        assert result.is_error, address


def test_assignment_accepts_dual_stack_address(handlers):
    result = handlers[REGISTRY_TOOL](
        {"ue_id": "ue-002", "address": "100.64.0.1,2001:db8::1", "session_type": "IPv4v6"},
        Counter(),
    )
    assert not result.is_error


def test_fixture_validation():
    with pytest.raises(ModelError):
        UeFixture("ue-x", frozenset({"IPv5"}))
    with pytest.raises(ValueError):
        UeFixture("ue-x", frozenset({"IPv4"}), static_ip="not-an-ip")


def test_static_family_compatibility():
    assert static_family_compatible("10.0.0.42", "IPv4")
    assert not static_family_compatible("10.0.0.42", "IPv6")
    assert not static_family_compatible("10.0.0.42", "IPv4v6")
    assert static_family_compatible("2001:db8::5", "IPv6")


# ---------------------------------------------------------------------------
# ground truth decision tree


def _names(procedure):
    return procedure.tool_names


def test_ground_truth_static_branch(fixtures):
    p = ground_truth_procedure(make_allocation_intent("ue-001", "IPv4"), fixtures)
    assert _names(p) == (AUTH_TOOL, STATIC_TOOL, REGISTRY_TOOL)
    assert p.length == 3


def test_ground_truth_unauthorized_branch(fixtures):
    for ue_id, session_type in (("ue-999", "IPv4"), ("ue-001", "IPv6"), ("ue-003", "IPv4")):
        p = ground_truth_procedure(make_allocation_intent(ue_id, session_type), fixtures)
        assert _names(p) == (AUTH_TOOL,)


def test_ground_truth_dynamic_branches(fixtures):
    assert _names(
        ground_truth_procedure(make_allocation_intent("ue-002", "IPv4"), fixtures)
    ) == (AUTH_TOOL, STATIC_TOOL, DHCPV4_TOOL, REGISTRY_TOOL)
    assert _names(
        ground_truth_procedure(make_allocation_intent("ue-002", "IPv6"), fixtures)
    ) == (AUTH_TOOL, STATIC_TOOL, DHCPV6_TOOL, REGISTRY_TOOL)
    assert _names(
        ground_truth_procedure(make_allocation_intent("ue-002", "IPv4v6"), fixtures)
    ) == (AUTH_TOOL, STATIC_TOOL, DHCPV4_TOOL, DHCPV6_TOOL, REGISTRY_TOOL)


def test_ground_truth_static_family_mismatch_goes_dynamic(fixtures):
    # ue-001 holds an IPv4 static; a dual-stack request cannot use it alone
    p = ground_truth_procedure(make_allocation_intent("ue-001", "IPv4v6"), fixtures)
    assert _names(p) == (AUTH_TOOL, STATIC_TOOL, DHCPV4_TOOL, DHCPV6_TOOL, REGISTRY_TOOL)


def test_ground_truth_never_mixes_static_and_dhcp(fixtures):
    for ue_id, session_type in itertools.product(fixtures, SESSION_TYPES):
        p = ground_truth_procedure(make_allocation_intent(ue_id, session_type), fixtures)
        names = _names(p)
        fixture = fixtures[ue_id]
        if fixture.static_ip and static_family_compatible(fixture.static_ip, session_type):
            assert DHCPV4_TOOL not in names and DHCPV6_TOOL not in names


def test_ground_truth_rejects_foreign_intent(fixtures):
    from procharness.model import Intent

    with pytest.raises(ModelError):
        ground_truth_procedure(Intent("other", "x", {}), fixtures)


def _auth(ue_id, session_type):
    return ExpectedStep(AUTH_TOOL, {"ue_id": ue_id, "session_type": session_type})


def _served(ue_id, session_type, *dhcp_tools):
    """Authorization, static lookup, the DHCP tools given and the registry
    step, whose address comes from an earlier tool's output."""
    return (
        _auth(ue_id, session_type),
        ExpectedStep(STATIC_TOOL, {"ue_id": ue_id}),
        *(ExpectedStep(tool, {"ue_id": ue_id}) for tool in dhcp_tools),
        ExpectedStep(
            REGISTRY_TOOL,
            {"ue_id": ue_id, "address": AnyValue(ValueKind.STRING), "session_type": session_type},
        ),
    )


GROUND_TRUTH_STEPS = {
    ("ue-001", "IPv4"): _served("ue-001", "IPv4"),
    ("ue-001", "IPv6"): (_auth("ue-001", "IPv6"),),
    ("ue-001", "IPv4v6"): _served("ue-001", "IPv4v6", DHCPV4_TOOL, DHCPV6_TOOL),
    ("ue-002", "IPv4"): _served("ue-002", "IPv4", DHCPV4_TOOL),
    ("ue-002", "IPv6"): _served("ue-002", "IPv6", DHCPV6_TOOL),
    ("ue-002", "IPv4v6"): _served("ue-002", "IPv4v6", DHCPV4_TOOL, DHCPV6_TOOL),
    ("ue-003", "IPv4"): (_auth("ue-003", "IPv4"),),
    ("ue-003", "IPv6"): _served("ue-003", "IPv6", DHCPV6_TOOL),
    ("ue-003", "IPv4v6"): (_auth("ue-003", "IPv4v6"),),
    ("ue-999", "IPv4"): (_auth("ue-999", "IPv4"),),
    ("ue-999", "IPv6"): (_auth("ue-999", "IPv6"),),
    ("ue-999", "IPv4v6"): (_auth("ue-999", "IPv4v6"),),
}


@pytest.mark.parametrize(
    "ue_id, session_type", list(itertools.product([*default_fixtures(), "ue-999"], SESSION_TYPES))
)
def test_ground_truth_steps_constraint_by_constraint(fixtures, ue_id, session_type):
    p = ground_truth_procedure(make_allocation_intent(ue_id, session_type), fixtures)
    expected = GROUND_TRUTH_STEPS[ue_id, session_type]
    assert (p.procedure_id, p.intent_key) == (
        f"ue_ip_allocation:{ue_id}:{session_type}",
        "ue_ip_allocation",
    )
    assert p.steps == expected
    # the constraints keep the order of the call's arguments
    assert [list(s.arg_constraints) for s in p.steps] == [
        list(s.arg_constraints) for s in expected
    ]


def test_encapsulated_internals_match_ground_truth_everywhere(fixtures):
    handler = make_encapsulated_handler(fixtures)
    cases = list(itertools.product(list(fixtures) + ["ue-999"], SESSION_TYPES))
    for ue_id, session_type in cases:
        intent = make_allocation_intent(ue_id, session_type)
        expected = ground_truth_procedure(intent, fixtures)
        result = handler({"ue_id": ue_id, "session_type": session_type}, Counter())
        internal_names = tuple(c.tool_name for c in result.internal_calls)
        assert internal_names == expected.tool_names, (ue_id, session_type)
        # internal arguments satisfy the expected constraints step by step
        for step, call in zip(expected.steps, result.internal_calls):
            assert step.satisfied_by(call.arguments), (ue_id, session_type, step)


def test_encapsulated_final_payload_matches_plan(fixtures):
    handler = make_encapsulated_handler(fixtures)
    result = handler({"ue_id": "ue-001", "session_type": "IPv4"}, Counter())
    assert result.content["status"] == "assigned"
    assert result.content["address"] == "10.0.0.42"
    rejected = handler({"ue_id": "ue-999", "session_type": "IPv4"}, Counter())
    assert rejected.content["status"] == "rejected"
    assert not rejected.is_error


def test_allocation_plan_addresses_assume_fresh_run(fixtures):
    plan = allocation_plan(fixtures, "ue-002", "IPv4v6")
    registry_args = plan[-1][1]
    assert registry_args["address"] == "100.64.0.1,2001:db8::1"


# ---------------------------------------------------------------------------
# KPI pool


def test_pool_size_and_required_tools():
    pool = build_kpi_pool(42)
    assert len(pool.tools) == POOL_SIZE == 100
    for required in ("avg_cell_throughput", "amf_load", "handover_success_rate"):
        assert required in KPI_TOOL_NAMES


def test_pool_name_list_is_unique():
    assert len(set(KPI_TOOL_NAMES)) == len(KPI_TOOL_NAMES) == 100


def test_kpi_tool_list_is_the_same_for_every_seed():
    # the seed sets the KPI values, not the tools a server lists
    for seed in (1, 987654):
        pool = build_kpi_pool(seed)
        specs = [ToolSpec(t.name, t.description, (ParamSpec("region"),)) for t in pool.tools]
        assert specs == kpi_tool_specs() == list(SERVER_SPECS[KPI_SERVER_ID])


def test_pool_deterministic_under_seed():
    assert build_kpi_pool(7).to_dict() == build_kpi_pool(7).to_dict()
    a, b = build_kpi_pool(7), build_kpi_pool(8)
    assert [t.abnormal_threshold for t in a.tools] != [t.abnormal_threshold for t in b.tools]


def test_kpi_query_deterministic():
    pool = build_kpi_pool(42)
    first = kpi_query(pool, "amf_load", "region-7")
    second = kpi_query(pool, "amf_load", "region-7")
    assert first == second
    other_region = kpi_query(pool, "amf_load", "region-8")
    assert other_region["value"] != first["value"]


def test_kpi_query_unknown_tool():
    pool = build_kpi_pool(42)
    with pytest.raises(KeyError):
        kpi_query(pool, "made_up_metric", "region-1")


def test_kpi_abnormal_flag_matches_threshold():
    pool = build_kpi_pool(42)
    for name in KPI_TOOL_NAMES[:20]:
        tool = pool.get(name)
        result = kpi_query(pool, name, "region-3")
        if tool.high_is_bad:
            assert result["abnormal"] == (result["value"] > tool.abnormal_threshold)
        else:
            assert result["abnormal"] == (result["value"] < tool.abnormal_threshold)


def test_stress_generation_deterministic():
    first = gen_stress_procedure(5, 1)
    second = gen_stress_procedure(5, 1)
    assert first[0] == second[0]
    assert first[1] == second[1]


def test_stress_generation_distinct_tools():
    intent, procedure = gen_stress_procedure(50, 42)
    names = procedure.tool_names
    assert len(names) == 50 == len(set(names))
    assert intent.structured["required_kpis"] == list(names)
    region = intent.structured["region"]
    assert all(step.arg_constraints == {"region": region} for step in procedure.steps)


def test_stress_generation_bounds():
    with pytest.raises(ValueError):
        gen_stress_procedure(101, 42)
    with pytest.raises(ValueError):
        gen_stress_procedure(0, 42)


def test_default_fixtures_cover_documented_set():
    fixtures = default_fixtures()
    assert set(fixtures) == {"ue-001", "ue-002", "ue-003"}
    assert fixtures["ue-001"].static_ip == "10.0.0.42"
    assert fixtures["ue-002"].static_ip is None
    assert fixtures["ue-003"].authorized_session_types == {"IPv6"}
