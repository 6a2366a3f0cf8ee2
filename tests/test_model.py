from __future__ import annotations

from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procharness.archive import RunDocument
from procharness.model import (
    AnyValue,
    Approach,
    CallOrigin,
    ExpectedStep,
    Intent,
    ModelError,
    ObservedTrace,
    ParamSpec,
    Procedure,
    RunRecord,
    TerminatedReason,
    ToolCallRecord,
    ToolRegistry,
    ToolScope,
    ToolSpec,
    TraceLevel,
    ValueKind,
    Verdict,
    Outcome,
    VirtualClock,
    WrongToolKind,
    constraint_satisfied,
    effective_trace,
    normalize_arguments,
    validate_arguments,
)
from procharness.toolsim import (
    allocation_tool_specs,
    encapsulated_tool_specs,
)
from procharness.toolsim.kpi import KpiToolPool, build_kpi_pool
from procharness.toolsim.host import REPOSITORY_SPEC


def test_tool_name_must_be_identifier_like():
    with pytest.raises(ModelError):
        ToolSpec("Bad-Name", "x")
    with pytest.raises(ModelError):
        ToolSpec("", "x")
    with pytest.raises(ModelError):
        ToolSpec("1starts_with_digit", "x")


def test_duplicate_params_rejected():
    with pytest.raises(ModelError):
        ToolSpec("t", "x", (ParamSpec("a"), ParamSpec("a")))


def test_encapsulated_tool_declares_its_procedure():
    with pytest.raises(ModelError):
        ToolSpec("encap", "x", scope=ToolScope.ENCAPSULATED)
    spec = ToolSpec("encap", "x", scope=ToolScope.ENCAPSULATED, encapsulates="proc")
    assert spec.encapsulates == "proc"


def test_registry_lookup_exact_match(scenario_a_registry):
    spec = scenario_a_registry.lookup("ue_authorization")
    assert spec is not None and spec.scope is ToolScope.PROCEDURE
    assert scenario_a_registry.lookup("ue_authorisation") is None
    assert scenario_a_registry.lookup("") is None
    assert scenario_a_registry.lookup("UE_AUTHORIZATION") is None


def test_registry_rejects_duplicates():
    spec = ToolSpec("t", "x")
    with pytest.raises(ModelError):
        ToolRegistry([spec, spec])


def test_validate_arguments_kinds_and_enum():
    spec = ToolSpec(
        "t",
        "x",
        (
            ParamSpec("name"),
            ParamSpec("count", ValueKind.INTEGER, required=False),
            ParamSpec("mode", ValueKind.ENUM, enum_values=("a", "b")),
        ),
    )
    assert validate_arguments(spec, {"name": "x", "mode": "a"}) == []
    assert validate_arguments(spec, {"name": "x", "mode": "a", "count": 3}) == []
    problems = validate_arguments(spec, {"mode": "c", "count": "many", "name": 1})
    assert len(problems) == 3
    # booleans are not integers here
    assert validate_arguments(spec, {"name": "x", "mode": "a", "count": True})
    # undeclared extras pass through silently
    assert validate_arguments(spec, {"name": "x", "mode": "b", "extra": 1}) == []


@pytest.mark.parametrize(
    "kind, value, holds",
    [
        (ValueKind.INTEGER, 3, True),
        (ValueKind.INTEGER, True, False),
        (ValueKind.INTEGER, "3", False),
        (ValueKind.STRING, "3", True),
        (ValueKind.STRING, 3, False),
    ],
)
def test_a_wildcard_holds_for_a_value_of_its_kind_only(kind, value, holds):
    assert constraint_satisfied(AnyValue(kind), value) is holds


def test_normalize_arguments_trims_strings_only():
    out = normalize_arguments({"a": "  x ", "b": 3, "c": "y"})
    assert out == {"a": "x", "b": 3, "c": "y"}


def test_trace_rejects_nonincreasing_step_index():
    """A run checks its trace, as built and as decoded."""
    for pairs in [(_rec(1, 0), _rec(1, 1)), (_rec(2, 0), _rec(1, 1))]:
        with pytest.raises(ModelError, match="^step_index must be strictly increasing$"):
            _run(*(record for record, _ in pairs))
        with pytest.raises(ModelError, match="^step_index must be strictly increasing$"):
            RunRecord.from_dict(_run_data(*(data for _, data in pairs)))


def test_record_rejects_backwards_interval():
    with pytest.raises(ModelError):
        ToolCallRecord(1, "t", {}, None, True, 5, 4)


def _record(i, name, origin=CallOrigin.AGENT_ISSUED, start=None):
    start = i if start is None else start
    return ToolCallRecord(i, name, {}, None, True, start, start + 1, origin)


def _a4_style_run(records):
    return RunRecord(
        run_id="r",
        approach=Approach.A4,
        model_id="scripted",
        intent=Intent("ue_ip_allocation", "x", {}),
        trace=ObservedTrace(records=tuple(records)),
        llm_steps=((0, 1),),
    )


@pytest.fixture(scope="module")
def mixed_registry():
    return ToolRegistry(allocation_tool_specs() + encapsulated_tool_specs() + [REPOSITORY_SPEC])


def test_effective_trace_agent_level_filters_meta_and_internals(mixed_registry):
    run = _a4_style_run(
        [
            _record(1, "get_procedures"),
            _record(2, "ue_ip_allocation"),
            _record(3, "ue_authorization", CallOrigin.TOOL_INTERNAL, start=2),
            _record(4, "static_ip_retrieval", CallOrigin.TOOL_INTERNAL, start=2),
            _record(5, "ip_assignment", CallOrigin.TOOL_INTERNAL, start=2),
        ]
    )
    agent = effective_trace(run, TraceLevel.AGENT, mixed_registry)
    assert agent.tool_names == ("ue_ip_allocation",)


def test_effective_trace_flattened_substitutes_internals(mixed_registry):
    run = _a4_style_run(
        [
            _record(1, "get_procedures"),
            _record(2, "ue_ip_allocation"),
            _record(3, "ue_authorization", CallOrigin.TOOL_INTERNAL, start=2),
            _record(4, "static_ip_retrieval", CallOrigin.TOOL_INTERNAL, start=2),
            _record(5, "ip_assignment", CallOrigin.TOOL_INTERNAL, start=2),
        ]
    )
    flat = effective_trace(run, TraceLevel.FLATTENED, mixed_registry)
    assert flat.tool_names == (
        "ue_authorization",
        "static_ip_retrieval",
        "ip_assignment",
    )


def test_effective_trace_identity_without_encapsulated_calls(mixed_registry):
    run = _a4_style_run(
        [
            _record(1, "ue_authorization"),
            _record(2, "static_ip_retrieval"),
            _record(3, "ip_assignment"),
        ]
    )
    agent = effective_trace(run, TraceLevel.AGENT, mixed_registry)
    flat = effective_trace(run, TraceLevel.FLATTENED, mixed_registry)
    assert agent.tool_names == flat.tool_names == (
        "ue_authorization",
        "static_ip_retrieval",
        "ip_assignment",
    )
    # conformance length counts agent-issued, non-meta calls
    assert agent.length == 3


def test_unknown_tool_names_survive_trace_projection(mixed_registry):
    run = _a4_style_run([_record(1, "made_up_tool")])
    agent = effective_trace(run, TraceLevel.AGENT, mixed_registry)
    assert agent.tool_names == ("made_up_tool",)


_INTERNAL = CallOrigin.TOOL_INTERNAL


@pytest.mark.parametrize(
    "calls, agent_names, flat_names",
    [
        pytest.param(
            [("ue_authorization", _INTERNAL), ("ip_assignment", None)],
            ("ip_assignment",),
            ("ip_assignment",),
            id="internal-before-any-agent-call",
        ),
        pytest.param(
            [("get_procedures", None), ("ue_authorization", _INTERNAL), ("ip_assignment", None)],
            ("ip_assignment",),
            ("ip_assignment",),
            id="internal-after-meta-call",
        ),
        pytest.param(
            [("static_ip_retrieval", None), ("ue_authorization", _INTERNAL)],
            ("static_ip_retrieval",),
            ("static_ip_retrieval",),
            id="internal-after-procedure-call",
        ),
        pytest.param(
            [("made_up_tool", None), ("ue_authorization", _INTERNAL)],
            ("made_up_tool",),
            ("made_up_tool",),
            id="internal-after-unknown-name",
        ),
        pytest.param(
            [
                ("ue_ip_allocation", None),
                ("ue_authorization", _INTERNAL),
                ("static_ip_retrieval", _INTERNAL),
                ("ue_ip_allocation", None),
                ("dhcpv4_allocate", _INTERNAL),
                ("ip_assignment", _INTERNAL),
            ],
            ("ue_ip_allocation", "ue_ip_allocation"),
            ("ue_authorization", "static_ip_retrieval", "dhcpv4_allocate", "ip_assignment"),
            id="duplicated-encapsulated-call",
        ),
    ],
)
def test_effective_trace_places_internal_records(mixed_registry, calls, agent_names, flat_names):
    """Internal records count only under the encapsulated call they follow,
    and only in the flattened view."""
    run = _a4_style_run(
        _record(i, name, origin or CallOrigin.AGENT_ISSUED)
        for i, (name, origin) in enumerate(calls, start=1)
    )
    assert effective_trace(run, TraceLevel.AGENT, mixed_registry).tool_names == agent_names
    assert effective_trace(run, TraceLevel.FLATTENED, mixed_registry).tool_names == flat_names


def test_finished_run_needs_llm_step():
    with pytest.raises(ModelError):
        RunRecord(
            run_id="r",
            approach=Approach.A1,
            model_id="m",
            intent=Intent("k", "t", {}),
            trace=ObservedTrace(),
            llm_steps=(),
            terminated_reason=TerminatedReason.MODEL_FINISHED,
        )


def test_verdict_subclass_pairing():
    from procharness.model import WrongToolKind

    Verdict(Outcome.CORRECT)  # no subclass: fine
    Verdict(Outcome.WRONG_TOOL, wrong_tool_subclass=WrongToolKind.WRONG_TOOL_NAME)
    with pytest.raises(ModelError):
        Verdict(Outcome.WRONG_TOOL)
    with pytest.raises(ModelError):
        Verdict(Outcome.DUPLICATE_TOOL, wrong_tool_subclass=WrongToolKind.WRONG_TOOL_NAME)


def test_virtual_clock_is_manual():
    clock = VirtualClock()
    assert clock.now_ms() == 0
    clock.advance(5)
    assert clock.now_ms() == 5
    with pytest.raises(ValueError):
        clock.advance(-1)


# ---------------------------------------------------------------------------
# serialization round trips

_names = st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True)
_scalars = st.one_of(st.text(max_size=8), st.integers(-1000, 1000))


@st.composite
def procedures(draw):
    n = draw(st.integers(1, 4))
    steps = []
    for _ in range(n):
        constraints = draw(
            st.dictionaries(
                _names,
                st.one_of(_scalars, st.just(AnyValue(ValueKind.STRING))),
                max_size=3,
            )
        )
        steps.append(ExpectedStep(draw(_names), constraints))
    return Procedure("p", "intent", tuple(steps))


@st.composite
def run_records(draw):
    n = draw(st.integers(0, 4))
    records = []
    t = 0
    for i in range(n):
        t += draw(st.integers(0, 5))
        dur = draw(st.integers(0, 5))
        records.append(
            ToolCallRecord(
                step_index=i + 1,
                tool_name=draw(_names),
                arguments=draw(st.dictionaries(_names, _scalars, max_size=3)),
                result=draw(st.one_of(st.none(), st.text(max_size=8), st.dictionaries(_names, _scalars, max_size=2))),
                success=draw(st.booleans()),
                started_at=t,
                ended_at=t + dur,
                origin=CallOrigin.AGENT_ISSUED,
            )
        )
    steps = draw(st.lists(st.tuples(st.integers(0, 100), st.integers(0, 10)), min_size=1, max_size=4))
    return RunRecord(
        run_id=draw(_names),
        approach=draw(st.sampled_from(list(Approach))),
        model_id="m",
        intent=Intent("k", draw(st.text(max_size=12)), draw(st.dictionaries(_names, _scalars, max_size=2))),
        trace=ObservedTrace(records=tuple(records)),
        llm_steps=tuple((s, s + d) for s, d in steps),
        final_text=draw(st.text(max_size=12)),
        terminated_reason=draw(st.sampled_from(list(TerminatedReason))),
    )


def test_procedure_of_calls_binds_each_argument_but_the_named_ones():
    calls = [
        ("b_tool", {"ue_id": "u", "address": "10.0.0.1"}),
        ("a_tool", {"address": "x", "count": 3}),
        ("b_tool", {"ue_id": "v"}),
    ]
    p = Procedure.of_calls("p:1", "intent", calls, any_value=("address",))
    assert (p.procedure_id, p.intent_key, p.tool_names) == ("p:1", "intent", ("b_tool", "a_tool", "b_tool"))
    assert [dict(s.arg_constraints) for s in p.steps] == [
        {"ue_id": "u", "address": AnyValue(ValueKind.STRING)},
        {"address": AnyValue(ValueKind.STRING), "count": 3},
        {"ue_id": "v"},
    ]
    exact = Procedure.of_calls("p:1", "intent", calls)
    assert [dict(s.arg_constraints) for s in exact.steps] == [args for _, args in calls]
    for procedure in (p, exact):
        assert [list(s.arg_constraints) for s in procedure.steps] == [list(a) for _, a in calls]
    # a wildcard takes any string; an exact constraint only the call's own value
    other_address = {"ue_id": "u", "address": "10.0.0.2"}
    assert p.steps[0].satisfied_by(other_address)
    assert not exact.steps[0].satisfied_by(other_address)
    assert not p.steps[0].satisfied_by({"ue_id": "w", "address": "10.0.0.1"})


@given(procedures())
def test_procedure_round_trip(p):
    assert Procedure.from_dict(p.to_dict()) == p


@given(run_records())
def test_run_record_round_trip(run):
    assert RunRecord.from_dict(run.to_dict()) == run


@given(
    st.sampled_from(list(Outcome)),
    st.text(max_size=10),
    st.one_of(st.none(), st.integers(1, 10)),
)
def test_verdict_round_trip(outcome, detail, step):
    from procharness.model import WrongToolKind

    sub = WrongToolKind.WRONG_TOOL_NAME if outcome is Outcome.WRONG_TOOL else None
    v = Verdict(outcome, sub, detail, step)
    assert Verdict.from_dict(v.to_dict()) == v


@st.composite
def a4_documents(draw):
    """An A4 run document with its flattened procedure and both verdicts."""
    run = replace(draw(run_records()), approach=Approach.A4)
    verdicts = [
        Verdict(Outcome.WRONG_TOOL, draw(st.sampled_from(list(WrongToolKind))), draw(st.text(max_size=8)), 1),
        Verdict(draw(st.sampled_from([o for o in Outcome if o is not Outcome.WRONG_TOOL]))),
    ]
    agent, flattened = draw(st.permutations(verdicts))
    return RunDocument(
        run, "A", draw(st.integers(1, 50)), draw(procedures()), draw(procedures()), agent, flattened
    )


@settings(max_examples=25, deadline=None)
@given(a4_documents())
def test_run_document_round_trip(doc):
    assert RunDocument.from_dict(doc.to_dict()) == doc


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32))
def test_kpi_pool_round_trip(seed):
    pool = build_kpi_pool(seed)
    decoded = KpiToolPool.from_dict(pool.to_dict())
    assert decoded == pool
    assert [decoded.get(t.name) for t in pool.tools] == list(pool.tools)


# ---------------------------------------------------------------------------
# decoding keeps every construction check


def _rec(i, start, end=None):
    end = start if end is None else end
    data = {"step_index": i, "tool_name": "t", "arguments": {}, "result": None, "success": True}
    return ToolCallRecord(i, "t", {}, None, True, start, end), {**data, "started_at": start, "ended_at": end}


def _run(*records):
    return RunRecord("r", Approach.A1, "m", Intent("k", "t"), ObservedTrace(records), ((0, 1),))


def _run_data(*records):
    return {"run_id": "r", "approach": "A1", "model_id": "m",
            "intent": {"intent_key": "k", "text": "t"},
            "trace": {"records": list(records)}, "llm_steps": [[0, 1]]}


def _pool_tools():
    return build_kpi_pool(1).to_dict()["tools"]


# (class, the constructor call that breaks a rule, the same values as JSON)
_BROKEN_RULES = {
    "record backwards interval": (
        ToolCallRecord, lambda: _rec(1, 5, 4)[0], lambda: _rec(1, 5, 4)[1]),
    "trace step index repeats": (
        RunRecord,
        lambda: _run(_rec(2, 0)[0], _rec(2, 1)[0]),
        lambda: _run_data(_rec(2, 0)[1], _rec(2, 1)[1]),
    ),
    "trace goes back in time": (
        RunRecord,
        lambda: _run(_rec(1, 5)[0], _rec(2, 3)[0]),
        lambda: _run_data(_rec(1, 5)[1], _rec(2, 3)[1]),
    ),
    "finished run without llm steps": (
        RunRecord,
        lambda: RunRecord("r", Approach.A1, "m", Intent("k", "t"), ObservedTrace(), ()),
        lambda: {"run_id": "r", "approach": "A1", "model_id": "m",
                 "intent": {"intent_key": "k", "text": "t"}, "trace": {}, "llm_steps": []},
    ),
    "wrong tool without subclass": (
        Verdict, lambda: Verdict(Outcome.WRONG_TOOL), lambda: {"outcome": "WrongTool"}),
    "subclass without wrong tool": (
        Verdict,
        lambda: Verdict(Outcome.CORRECT, WrongToolKind.WRONG_TOOL_NAME),
        lambda: {"outcome": "Correct", "wrong_tool_subclass": "wrong_tool_name"},
    ),
    "procedure without steps": (
        Procedure,
        lambda: Procedure("p", "i", ()),
        lambda: {"procedure_id": "p", "intent_key": "i", "steps": []},
    ),
    "enum param without values": (
        ParamSpec, lambda: ParamSpec("x", ValueKind.ENUM), lambda: {"name": "x", "kind": "enum"}),
    "tool name": (
        ToolSpec, lambda: ToolSpec("Bad", ""), lambda: {"name": "Bad", "description": ""}),
    "duplicate params": (
        ToolSpec,
        lambda: ToolSpec("t", "", (ParamSpec("a"), ParamSpec("a"))),
        lambda: {"name": "t", "description": "", "params": [{"name": "a"}, {"name": "a"}]},
    ),
    "encapsulated without procedure": (
        ToolSpec,
        lambda: ToolSpec("t", "", scope=ToolScope.ENCAPSULATED),
        lambda: {"name": "t", "description": "", "scope": "encapsulated"},
    ),
    "pool size": (
        KpiToolPool,
        lambda: KpiToolPool(1, build_kpi_pool(1).tools[:99]),
        lambda: {"seed": 1, "tools": _pool_tools()[:99]},
    ),
    "pool duplicate names": (
        KpiToolPool,
        lambda: KpiToolPool(1, build_kpi_pool(1).tools[:99] + build_kpi_pool(1).tools[:1]),
        lambda: {"seed": 1, "tools": _pool_tools()[:99] + _pool_tools()[:1]},
    ),
}


@pytest.mark.parametrize("rule", list(_BROKEN_RULES))
def test_decoding_keeps_every_construction_check(rule):
    cls, construct, data = _BROKEN_RULES[rule]
    with pytest.raises(ModelError) as built:
        construct()
    with pytest.raises(ModelError) as decoded:
        cls.from_dict(data())
    assert str(decoded.value) == str(built.value)


@pytest.mark.parametrize("value", ["bogus", ["Correct"], {"a": 1}, None, 3])
def test_a_bad_enum_value_raises_the_enums_own_error(value):
    with pytest.raises(ValueError) as built:
        Outcome(value)
    with pytest.raises(ValueError) as decoded:
        Verdict.from_dict({"outcome": value})
    assert str(decoded.value) == str(built.value)
    with pytest.raises(ValueError) as built:
        CallOrigin(value)
    with pytest.raises(ValueError) as decoded:
        ObservedTrace.from_dict({"records": [{**_rec(1, 0)[1], "origin": value}]})
    assert str(decoded.value) == str(built.value)


def test_a_missing_key_without_default_raises_key_error():
    with pytest.raises(KeyError):
        Verdict.from_dict({})
    with pytest.raises(KeyError):
        ToolCallRecord.from_dict({k: v for k, v in _rec(1, 0)[1].items() if k != "result"})


@pytest.mark.parametrize(
    "value",
    [
        Verdict(Outcome.WRONG_TOOL, WrongToolKind.WRONG_PARAMETERS, "d", 3),
        ParamSpec("x", ValueKind.ENUM, False, ("a", "b")),
        ToolSpec("t", "d", (ParamSpec("a"),), ToolScope.ENCAPSULATED, "p"),
        AnyValue(ValueKind.INTEGER),
    ],
    ids=lambda v: type(v).__name__,
)
def test_a_decoded_instance_is_frozen_and_equal(value):
    decoded = type(value).from_dict(value.to_dict())
    assert decoded == value
    assert hash(decoded) == hash(value)
    with pytest.raises(FrozenInstanceError):
        setattr(decoded, fields(decoded)[0].name, None)
