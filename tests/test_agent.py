from __future__ import annotations

import random

import pytest

from procharness import prompts
from procharness.agent import (
    AssistantTurn,
    FaultKind,
    FaultProgram,
    NO_FAULT,
    apply_fault,
    build_context,
    build_playbook,
    default_turn_cap,
    descriptor_to_chat_tool,
    parse_tool_calls,
    run_agent,
)
from procharness.model import (
    Approach,
    Outcome,
    TerminatedReason,
    TraceLevel,
    VirtualClock,
    effective_trace,
)
from procharness.classify import classify
from procharness.runner import HarnessEnv, RunCell, SCENARIO_A, execute_run
from procharness.config import HarnessConfig, ModelConfig
from procharness.toolsim import (
    default_fixtures,
    ground_truth_procedure,
    make_allocation_intent,
)

CALLS = [
    ("ue_authorization", {"ue_id": "ue-001", "session_type": "IPv4"}),
    ("static_ip_retrieval", {"ue_id": "ue-001"}),
    ("ip_assignment", {"ue_id": "ue-001", "address": "10.0.0.42", "session_type": "IPv4"}),
]


# ---------------------------------------------------------------------------
# parse_tool_calls


def test_parse_single_well_formed_call():
    message = {
        "tool_calls": [
            {
                "id": "c1",
                "function": {"name": "t", "arguments": '{"a": 1}'},
            }
        ]
    }
    (req,) = parse_tool_calls(message)
    assert req.name == "t" and req.arguments == {"a": 1} and req.call_id == "c1"


def test_parse_preserves_emission_order():
    message = {
        "tool_calls": [
            {"id": "c1", "function": {"name": "first", "arguments": "{}"}},
            {"id": "c2", "function": {"name": "second", "arguments": "{}"}},
        ]
    }
    names = [r.name for r in parse_tool_calls(message)]
    assert names == ["first", "second"]


def test_parse_unparseable_arguments_default_to_empty():
    message = {
        "tool_calls": [
            {"id": "c1", "function": {"name": "t", "arguments": "{not json"}},
            {"id": "c2", "function": {"name": "u", "arguments": '["not", "a", "dict"]'}},
        ]
    }
    reqs = parse_tool_calls(message)
    assert [r.arguments for r in reqs] == [{}, {}]


def test_parse_no_tool_calls():
    assert parse_tool_calls({"content": "done"}) == ()


def test_descriptor_to_chat_tool_schema():
    descriptor = {
        "name": "t",
        "description": "d",
        "params": [
            {"name": "a", "kind": "string", "required": True},
            {"name": "b", "kind": "integer", "required": False},
            {"name": "c", "kind": "enum", "required": True, "enum_values": ["x"]},
        ],
    }
    tool = descriptor_to_chat_tool(descriptor)
    fn = tool["function"]
    assert fn["name"] == "t"
    assert fn["parameters"]["required"] == ["a", "c"]
    assert fn["parameters"]["properties"]["b"] == {"type": "integer"}
    assert fn["parameters"]["properties"]["c"]["enum"] == ["x"]


# ---------------------------------------------------------------------------
# fault programs


def test_apply_fault_none_copies():
    out = apply_fault(CALLS, NO_FAULT)
    assert out == CALLS and out is not CALLS


def test_apply_fault_stop_after():
    out = apply_fault(CALLS, FaultProgram(FaultKind.STOP_AFTER, step=2))
    assert [c[0] for c in out] == ["ue_authorization", "static_ip_retrieval"]


def test_apply_fault_duplicate_step():
    out = apply_fault(CALLS, FaultProgram(FaultKind.DUPLICATE_STEP, step=1))
    assert [c[0] for c in out][:2] == ["ue_authorization", "ue_authorization"]
    assert len(out) == 4


def test_apply_fault_swap_steps():
    out = apply_fault(CALLS, FaultProgram(FaultKind.SWAP_STEPS, step=1))
    assert [c[0] for c in out] == [
        "static_ip_retrieval",
        "ue_authorization",
        "ip_assignment",
    ]


def test_apply_fault_hallucinate_name():
    out = apply_fault(CALLS, FaultProgram(FaultKind.HALLUCINATE_NAME_AT, step=1))
    assert out[0][0] == "ue_authorization_check"


def test_apply_fault_drop_param():
    out = apply_fault(CALLS, FaultProgram(FaultKind.DROP_PARAM_AT, step=1))
    assert "ue_id" not in out[0][1]


def test_apply_fault_call_outside():
    out = apply_fault(
        CALLS, FaultProgram(FaultKind.CALL_OUTSIDE_AT, step=2, tool="dhcpv4_allocate")
    )
    assert out[1][0] == "dhcpv4_allocate"


def test_apply_fault_no_calls():
    assert apply_fault(CALLS, FaultProgram(FaultKind.NO_CALLS)) == []


def test_apply_fault_random_stop_deterministic():
    fault = FaultProgram(FaultKind.RANDOM_STOP, prob=0.5, seed=3)
    first = apply_fault(CALLS, fault, random.Random(99))
    second = apply_fault(CALLS, fault, random.Random(99))
    assert first == second
    assert len(first) <= len(CALLS)


def test_apply_fault_bounds_checked():
    with pytest.raises(ValueError):
        apply_fault(CALLS, FaultProgram(FaultKind.STOP_AFTER, step=9))
    with pytest.raises(ValueError):
        apply_fault(CALLS, FaultProgram(FaultKind.SWAP_STEPS, step=3))


def test_playbook_shapes():
    plain = build_playbook(Approach.A1, CALLS)
    assert len(plain) == 4  # one call per turn plus the summary turn
    assert plain[-1].text and not plain[-1].tool_calls
    with_meta = build_playbook(Approach.A2, CALLS)
    assert with_meta[0].tool_calls[0].name == "get_procedures"
    assert len(with_meta) == 5


def test_turn_cap_default():
    assert default_turn_cap(3) == 12
    assert default_turn_cap(50) == 106


# ---------------------------------------------------------------------------
# context building


@pytest.fixture(scope="module")
def intent():
    return make_allocation_intent("ue-001", "IPv4")


def test_context_embedded_procedures(intent):
    ctx = build_context(Approach.A1, intent, prompts.UE_PROCEDURE_SET_TEXT, 2)
    for tool in (
        "ue_authorization",
        "static_ip_retrieval",
        "dhcpv4_allocate",
        "dhcpv6_allocate",
        "ip_assignment",
    ):
        assert tool in ctx.system_prompt
    assert "ue-001" in ctx.user_prompt and "IPv4" in ctx.user_prompt
    assert "ue-001" not in ctx.system_prompt
    assert ctx.server_id == 2


def test_context_retrieval_instructs_meta_call(intent):
    ctx = build_context(Approach.A2, intent, prompts.UE_PROCEDURE_SET_TEXT, 2)
    assert "get_procedures" in ctx.system_prompt
    assert "ue_authorization" not in ctx.system_prompt


def test_context_prompt_supplied_steps(intent):
    fixtures = default_fixtures()
    procedure = ground_truth_procedure(intent, fixtures)
    ctx = build_context(
        Approach.A3, intent, prompts.UE_PROCEDURE_SET_TEXT, 2, explicit_procedure=procedure
    )
    assert "1. ue_authorization" in ctx.user_prompt
    assert "2. static_ip_retrieval" in ctx.user_prompt
    assert "3. ip_assignment" in ctx.user_prompt
    assert "ue_authorization" not in ctx.system_prompt


def test_context_encapsulated_has_no_procedure_text(intent):
    ctx = build_context(Approach.A4, intent, prompts.UE_PROCEDURE_SET_TEXT, 1)
    assert "static_ip_retrieval" not in ctx.system_prompt
    assert "static_ip_retrieval" not in ctx.user_prompt
    assert ctx.server_id == 1


def test_context_requires_explicit_procedure_for_a3(intent):
    with pytest.raises(ValueError):
        build_context(Approach.A3, intent, prompts.UE_PROCEDURE_SET_TEXT, 2)


# ---------------------------------------------------------------------------
# run loop


def _env():
    return HarnessEnv(HarnessConfig())


def _scripted_run(approach=Approach.A1, fault=NO_FAULT, model_id="scripted"):
    env = _env()
    model = ModelConfig(model_id=model_id, fault=fault)
    cell = RunCell(SCENARIO_A, approach, model, 3, 1)
    doc = execute_run(env, cell)
    return env, doc


def test_scripted_perfect_run_structure():
    env, doc = _scripted_run()
    run = doc.run
    assert run.terminated_reason is TerminatedReason.MODEL_FINISHED
    assert len(run.llm_steps) == 4
    assert run.trace.tool_names == (
        "ue_authorization",
        "static_ip_retrieval",
        "ip_assignment",
    )
    assert run.final_text


def test_scripted_fault_stop_after_classifies_premature():
    env, doc = _scripted_run(fault=FaultProgram(FaultKind.STOP_AFTER, step=2))
    registry = env.visible_registry(SCENARIO_A, Approach.A1)
    trace = effective_trace(doc.run, TraceLevel.AGENT, registry)
    assert trace.tool_names == ("ue_authorization", "static_ip_retrieval")
    verdict = classify(doc.expected, trace, registry)
    assert verdict.outcome is Outcome.PREMATURE_STOP


def test_scripted_fault_no_calls_classifies_empty():
    env, doc = _scripted_run(fault=FaultProgram(FaultKind.NO_CALLS))
    registry = env.visible_registry(SCENARIO_A, Approach.A1)
    trace = effective_trace(doc.run, TraceLevel.AGENT, registry)
    verdict = classify(doc.expected, trace, registry)
    assert verdict.outcome is Outcome.NO_TOOL_CALLS
    assert len(doc.run.llm_steps) == 1


def test_run_caps_turns():
    env = _env()
    clock = VirtualClock()
    transport = env.make_transport(clock, 1)
    intent = make_allocation_intent("ue-001", "IPv4")

    class LoopingBackend:
        model_id = "looper"

        def step(self, messages, tools):
            from procharness.agent import ToolCallRequest

            return AssistantTurn(
                tool_calls=(
                    ToolCallRequest("c", "static_ip_retrieval", {"ue_id": "ue-001"}),
                ),
                raw_message={"role": "assistant", "content": None},
            )

    ctx = env.plans[SCENARIO_A, Approach.A1, 3].context
    run = run_agent(ctx, intent, LoopingBackend(), transport, clock, 5, "r")
    assert run.terminated_reason is TerminatedReason.TURN_CAP_HIT
    assert len(run.llm_steps) == 5
    assert run.trace.length == 5


def test_backend_exception_yields_backend_error():
    env = _env()
    clock = VirtualClock()
    transport = env.make_transport(clock, 1)
    intent = make_allocation_intent("ue-001", "IPv4")

    class BrokenBackend:
        model_id = "broken"

        def step(self, messages, tools):
            raise RuntimeError("boom")

    ctx = env.plans[SCENARIO_A, Approach.A1, 3].context
    run = run_agent(ctx, intent, BrokenBackend(), transport, clock, 5, "r")
    assert run.terminated_reason is TerminatedReason.BACKEND_ERROR
    assert run.trace.length == 0


def test_failed_tool_discovery_ends_run_before_first_turn():
    env = _env()
    intent = make_allocation_intent("ue-001", "IPv4")

    class DownTransport:
        def list_tools(self, server_id):
            raise ConnectionError("no server")

    class UnusedBackend:
        model_id = "unused"

        def step(self, messages, tools):
            raise AssertionError("no turn runs without a tool list")

    ctx = env.plans[SCENARIO_A, Approach.A1, 3].context
    run = run_agent(ctx, intent, UnusedBackend(), DownTransport(), VirtualClock(), 5, "r")
    assert run.terminated_reason is TerminatedReason.BACKEND_ERROR
    assert (run.run_id, run.model_id, run.intent) == ("r", "unused", intent)
    assert (run.trace.records, run.llm_steps, run.final_text) == ((), (), "")


def test_failed_tool_call_feeds_back_and_run_continues():
    env = _env()
    doc_env, doc = _scripted_run(fault=FaultProgram(FaultKind.DROP_PARAM_AT, step=1))
    run = doc.run
    # the faulty call is recorded as failed, later calls still happen
    assert run.trace.records[0].success is False
    assert run.trace.length == 3
    assert run.terminated_reason is TerminatedReason.MODEL_FINISHED


def test_multiple_calls_in_one_turn_execute_in_order():
    env = _env()
    clock = VirtualClock()
    transport = env.make_transport(clock, 1)
    intent = make_allocation_intent("ue-001", "IPv4")

    class BatchingBackend:
        model_id = "batcher"

        def __init__(self):
            self.done = False

        def step(self, messages, tools):
            from procharness.agent import ToolCallRequest

            if self.done:
                return AssistantTurn(text="done", raw_message={"role": "assistant", "content": "done"})
            self.done = True
            return AssistantTurn(
                tool_calls=tuple(
                    ToolCallRequest(f"c{i}", name, dict(args))
                    for i, (name, args) in enumerate(CALLS)
                ),
                raw_message={"role": "assistant", "content": None},
            )

    ctx = env.plans[SCENARIO_A, Approach.A1, 3].context
    run = run_agent(ctx, intent, BatchingBackend(), transport, clock, 5, "r")
    assert run.trace.tool_names == tuple(c[0] for c in CALLS)
    assert len(run.llm_steps) == 2
    assert [r.step_index for r in run.trace.records] == [1, 2, 3]


def test_scripted_replay_is_identical():
    _, first = _scripted_run()
    _, second = _scripted_run()
    assert first.run.to_dict() == second.run.to_dict()


def test_tool_calls_fall_between_reasoning_turns():
    _, doc = _scripted_run(approach=Approach.A2)
    run = doc.run
    llm_starts = [start for start, _ in run.llm_steps]
    for rec in run.trace.records:
        # every issued call begins after some reasoning turn has begun
        assert any(start <= rec.started_at for start in llm_starts)
    assert run.trace.records[0].started_at >= run.llm_steps[0][1]
