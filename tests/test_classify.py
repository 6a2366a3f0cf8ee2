from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CANONICAL_ARGS, make_trace
from procharness.agent import FaultKind, FaultProgram, apply_fault
from procharness.classify import classify, matched_steps, validate_call
from procharness.model import (
    AnyValue,
    ExpectedStep,
    ObservedTrace,
    Outcome,
    Procedure,
    ToolCallRecord,
    ValueKind,
    WrongToolKind,
    validate_arguments,
)
from procharness.reference import reference_classify
from procharness.toolsim import (
    KPI_SERVER_ID,
    KPI_TOOL_NAMES,
    SERVER_REGISTRIES,
    gen_stress_procedure,
)

AUTH = "ue_authorization"
STATIC = "static_ip_retrieval"
DHCP4 = "dhcpv4_allocate"
DHCP6 = "dhcpv6_allocate"
REGISTRY = "ip_assignment"
UNKNOWN = "ue_authorisation_check"

GOOD = (AUTH, STATIC, REGISTRY)


# ---------------------------------------------------------------------------
# matched steps; a run's binary reliability is 1 iff matched_steps == k == n


def test_reliability_exact_match_is_one(static_ip_procedure):
    assert matched_steps(static_ip_procedure, make_trace(GOOD)) == 3 == static_ip_procedure.length


def test_reliability_shorter_trace_is_zero(static_ip_procedure):
    assert matched_steps(static_ip_procedure, make_trace((AUTH, STATIC))) == 2


def test_reliability_single_step_procedure(fixtures):
    from procharness.toolsim import ground_truth_procedure, make_allocation_intent

    rejected = ground_truth_procedure(make_allocation_intent("ue-999", "IPv4"), fixtures)
    assert rejected.length == 1
    trace = make_trace(
        (AUTH,), args_overrides={1: {"ue_id": "ue-999", "session_type": "IPv4"}}
    )
    assert matched_steps(rejected, trace) == 1


def test_reliability_checks_argument_constraints(static_ip_procedure):
    trace = make_trace(
        GOOD, args_overrides={1: {"ue_id": "ue-007", "session_type": "IPv4"}}
    )
    assert matched_steps(static_ip_procedure, trace) == 0


# ---------------------------------------------------------------------------
# validate_call


def _call(name, args, index=1):
    return ToolCallRecord(index, name, args, None, True, 0, 1)


def test_validate_call_unknown_name(static_ip_procedure, scenario_a_registry):
    validity = validate_call(
        _call(UNKNOWN, {}), static_ip_procedure, scenario_a_registry
    )
    assert validity.wrong_tool_subclass is WrongToolKind.WRONG_TOOL_NAME


def test_validate_call_outside_procedure(static_ip_procedure, scenario_a_registry):
    validity = validate_call(
        _call(DHCP4, {"ue_id": "ue-001"}), static_ip_procedure, scenario_a_registry
    )
    assert validity.wrong_tool_subclass is WrongToolKind.TOOL_OUTSIDE_PROCEDURE


def test_validate_call_missing_required_param(static_ip_procedure, scenario_a_registry):
    validity = validate_call(
        _call(AUTH, {"session_type": "IPv4"}), static_ip_procedure, scenario_a_registry
    )
    assert validity.wrong_tool_subclass is WrongToolKind.WRONG_PARAMETERS


def test_validate_call_constraint_violation(static_ip_procedure, scenario_a_registry):
    validity = validate_call(
        _call(AUTH, {"ue_id": "ue-002", "session_type": "IPv4"}),
        static_ip_procedure,
        scenario_a_registry,
    )
    assert validity.wrong_tool_subclass is WrongToolKind.WRONG_PARAMETERS


def test_validate_call_ok(static_ip_procedure, scenario_a_registry):
    validity = validate_call(
        _call(AUTH, CANONICAL_ARGS[AUTH]), static_ip_procedure, scenario_a_registry
    )
    assert validity is None


def test_validate_call_multiple_steps_same_tool(scenario_a_registry):
    p = Procedure(
        "p",
        "i",
        (
            ExpectedStep(STATIC, {"ue_id": "ue-001"}),
            ExpectedStep(STATIC, {"ue_id": "ue-002"}),
        ),
    )
    ok = validate_call(_call(STATIC, {"ue_id": "ue-002"}), p, scenario_a_registry)
    assert ok is None
    bad = validate_call(_call(STATIC, {"ue_id": "ue-003"}), p, scenario_a_registry)
    assert bad.wrong_tool_subclass is WrongToolKind.WRONG_PARAMETERS


# ---------------------------------------------------------------------------
# classify cascade


@pytest.mark.parametrize(
    "names,expected_outcome",
    [
        ((), Outcome.NO_TOOL_CALLS),
        (GOOD, Outcome.CORRECT),
        ((AUTH, AUTH, STATIC, REGISTRY), Outcome.DUPLICATE_TOOL),
        ((STATIC, AUTH, REGISTRY), Outcome.WRONG_ORDER),
        ((AUTH, STATIC), Outcome.PREMATURE_STOP),
        ((AUTH,), Outcome.PREMATURE_STOP),
        ((AUTH, REGISTRY), Outcome.OTHER_DEVIATION),
        ((AUTH, STATIC, REGISTRY, REGISTRY), Outcome.DUPLICATE_TOOL),
    ],
)
def test_classify_outcomes(static_ip_procedure, scenario_a_registry, names, expected_outcome):
    verdict = classify(static_ip_procedure, make_trace(names), scenario_a_registry)
    assert verdict.outcome is expected_outcome


def test_classify_wrong_tool_dominates_duplicate(static_ip_procedure, scenario_a_registry):
    trace = make_trace((AUTH, DHCP4, DHCP4, STATIC, REGISTRY))
    verdict = classify(static_ip_procedure, trace, scenario_a_registry)
    assert verdict.outcome is Outcome.WRONG_TOOL
    assert verdict.wrong_tool_subclass is WrongToolKind.TOOL_OUTSIDE_PROCEDURE


def test_classify_unknown_name_subclass(static_ip_procedure, scenario_a_registry):
    trace = make_trace((UNKNOWN, AUTH, STATIC, REGISTRY))
    verdict = classify(static_ip_procedure, trace, scenario_a_registry)
    assert verdict.outcome is Outcome.WRONG_TOOL
    assert verdict.wrong_tool_subclass is WrongToolKind.WRONG_TOOL_NAME
    assert verdict.offending_step == 1


def test_classify_bad_params_subclass(static_ip_procedure, scenario_a_registry):
    trace = make_trace(GOOD, args_overrides={1: {"session_type": "IPv4"}})
    verdict = classify(static_ip_procedure, trace, scenario_a_registry)
    assert verdict.outcome is Outcome.WRONG_TOOL
    assert verdict.wrong_tool_subclass is WrongToolKind.WRONG_PARAMETERS


def test_classify_earliest_invalid_call_wins(static_ip_procedure, scenario_a_registry):
    trace = make_trace((AUTH, DHCP4, UNKNOWN))
    verdict = classify(static_ip_procedure, trace, scenario_a_registry)
    assert verdict.wrong_tool_subclass is WrongToolKind.TOOL_OUTSIDE_PROCEDURE
    assert verdict.offending_step == 2


def test_premature_stop_requires_matching_prefix_args(
    static_ip_procedure, scenario_a_registry
):
    trace = make_trace(
        (AUTH, STATIC), args_overrides={1: {"ue_id": "ue-009", "session_type": "IPv4"}}
    )
    verdict = classify(static_ip_procedure, trace, scenario_a_registry)
    assert verdict.outcome is Outcome.WRONG_TOOL  # constraint violation, not a prefix


# ---------------------------------------------------------------------------
# properties


def _arg_pool(name):
    base = dict(CANONICAL_ARGS.get(name, {}))
    variants = [base]
    if base:
        mutated = dict(base)
        mutated["ue_id"] = "ue-002"
        variants.append(mutated)
        dropped = dict(base)
        dropped.pop(next(iter(dropped)))
        variants.append(dropped)
        # values of the wrong kind, for the schema's and the step's checks
        variants.append({**base, "ue_id": 1})
    if "address" in base:
        variants.append({**base, "address": 1042})
    if "session_type" in base:
        variants.append({**base, "session_type": "IPv5"})
    return variants


_names_strategy = st.sampled_from([AUTH, STATIC, DHCP4, DHCP6, REGISTRY, UNKNOWN])


@st.composite
def traces(draw):
    # the expected names, often enough that their arguments decide the verdict
    names = draw(st.one_of(st.just(list(GOOD)), st.lists(_names_strategy, max_size=6)))
    overrides = {}
    for i, name in enumerate(names, start=1):
        overrides[i] = draw(st.sampled_from(_arg_pool(name) or [{}]))
    return make_trace(names, args_overrides=overrides)


@settings(max_examples=300, deadline=None)
@given(traces())
def test_correct_iff_reliability_one(static_ip_procedure, scenario_a_registry, trace):
    verdict = classify(static_ip_procedure, trace, scenario_a_registry)
    matched = matched_steps(static_ip_procedure, trace)
    exact = matched == static_ip_procedure.length == trace.length
    assert (verdict.outcome is Outcome.CORRECT) == exact


@settings(max_examples=300, deadline=None)
@given(traces())
def test_classify_matches_reference_oracle(
    static_ip_procedure, scenario_a_registry, trace
):
    got = classify(static_ip_procedure, trace, scenario_a_registry)
    want = reference_classify(static_ip_procedure, trace, scenario_a_registry)
    assert got.outcome is want.outcome
    assert got.wrong_tool_subclass == want.wrong_tool_subclass


@settings(max_examples=200, deadline=None)
@given(traces())
def test_premature_stop_implies_proper_prefix(
    static_ip_procedure, scenario_a_registry, trace
):
    verdict = classify(static_ip_procedure, trace, scenario_a_registry)
    if verdict.outcome is Outcome.PREMATURE_STOP:
        assert trace.length < static_ip_procedure.length
        for step, call in zip(static_ip_procedure.steps, trace.records):
            assert step.tool_name == call.tool_name
            assert step.satisfied_by(call.arguments)


def _edit(draw, calls, pool_names, procedure_names):
    """One random edit of a call list, in place."""
    action = draw(
        st.sampled_from(
            ["swap", "drop", "duplicate", "rename", "outside", "region", "no region"]
        )
    )
    if not calls:
        return
    i = draw(st.integers(0, len(calls) - 1))
    name, args = calls[i]
    if action == "swap":
        j = draw(st.integers(0, len(calls) - 1))
        calls[i], calls[j] = calls[j], calls[i]
    elif action == "drop":
        del calls[i]
    elif action == "duplicate":
        calls.insert(draw(st.integers(0, len(calls))), (name, dict(args)))
    elif action == "rename":
        calls[i] = (f"{name}_v2", args)
    elif action == "outside":
        outside = sorted(set(pool_names) - set(procedure_names)) or [UNKNOWN]
        calls[i] = (draw(st.sampled_from(outside)), args)
    elif action == "region":
        calls[i] = (name, {"region": draw(st.sampled_from(["region-0", "region-17", 3]))})
    else:
        calls[i] = (name, {})


@st.composite
def stress_cases(draw):
    """A stress procedure of k 1..100 from the KPI tools, the KPI server's
    registry, and a trace of its fault-free calls edited by one fault
    program and by random swaps, drops, duplicates, renames, outside tools
    and wrong or missing regions."""
    registry = SERVER_REGISTRIES[KPI_SERVER_ID]
    k = draw(st.integers(1, 100))
    intent, procedure = gen_stress_procedure(k, draw(st.integers(0, 1000)))
    region = intent.structured["region"]
    calls = [(name, {"region": region}) for name in intent.structured["required_kpis"]]
    fault = FaultProgram(
        draw(st.sampled_from(list(FaultKind))),
        step=draw(st.integers(1, k)),
        tool=draw(st.sampled_from(KPI_TOOL_NAMES)),
        prob=draw(st.sampled_from([0.0, 0.02, 0.2])),
        seed=draw(st.integers(0, 100)),
    )
    try:
        calls = apply_fault(calls, fault)
    except ValueError:
        pass  # the program does not fit these calls; keep them as they are
    for _ in range(draw(st.integers(0, 3))):
        _edit(draw, calls, KPI_TOOL_NAMES, procedure.tool_names)
    trace = ObservedTrace(
        tuple(
            ToolCallRecord(i, name, args, None, True, i, i)
            for i, (name, args) in enumerate(calls, start=1)
        )
    )
    return procedure, trace, registry


@settings(max_examples=300, deadline=None)
@given(stress_cases())
def test_classify_matches_reference_oracle_at_every_length(case):
    procedure, trace, registry = case
    got = classify(procedure, trace, registry)
    want = reference_classify(procedure, trace, registry)
    assert got.outcome is want.outcome
    assert got.wrong_tool_subclass == want.wrong_tool_subclass
    if got.outcome is Outcome.WRONG_TOOL:
        assert got.offending_step == want.offending_step


def _count_matched(procedure, trace):
    """``matched_steps`` written apart: the largest m whose first m calls
    all fit the first m steps, each constraint checked as it is defined."""

    def fits(step, call):
        def holds(name, want):
            got = call.arguments[name]
            if not isinstance(want, AnyValue):
                return got == want
            if want.kind is ValueKind.INTEGER:
                return type(got) is int
            return isinstance(got, str)

        return step.tool_name == call.tool_name and all(
            name in call.arguments and holds(name, want)
            for name, want in step.arg_constraints.items()
        )

    return max(
        m
        for m in range(min(procedure.length, trace.length) + 1)
        if all(map(fits, procedure.steps[:m], trace.records[:m]))
    )


@settings(max_examples=300, deadline=None)
@given(traces())
def test_matched_steps_agrees_with_a_separate_count(static_ip_procedure, trace):
    assert matched_steps(static_ip_procedure, trace) == _count_matched(static_ip_procedure, trace)


@settings(max_examples=300, deadline=None)
@given(stress_cases())
def test_matched_steps_agrees_with_a_separate_count_at_every_length(case):
    procedure, trace, registry = case
    matched = matched_steps(procedure, trace)
    assert matched == _count_matched(procedure, trace)
    exact = matched == procedure.length == trace.length
    assert (classify(procedure, trace, registry).outcome is Outcome.CORRECT) == exact


_FIXED_DETAIL = {
    Outcome.NO_TOOL_CALLS: "the run issued no tool calls",
    Outcome.WRONG_ORDER: "all required tools were called but not in the prescribed order",
    Outcome.CORRECT: "",
    Outcome.OTHER_DEVIATION: (
        "trace deviates from the procedure without matching a specific error class"
    ),
}


def _detail_and_step(procedure, trace, registry, verdict):
    """The detail and offending step ``verdict`` must carry, worked out from
    the trace without the classifier's helpers."""
    records = trace.records
    if verdict.outcome is Outcome.WRONG_TOOL:
        (call,) = [r for r in records if r.step_index == verdict.offending_step]
        name = call.tool_name
        if verdict.wrong_tool_subclass is WrongToolKind.WRONG_TOOL_NAME:
            return f"tool {name!r} is not registered on any visible server", call.step_index
        if verdict.wrong_tool_subclass is WrongToolKind.TOOL_OUTSIDE_PROCEDURE:
            return f"tool {name!r} is not part of the expected procedure", call.step_index
        problems = validate_arguments(registry.lookup(name), call.arguments)
        detail = "; ".join(problems) or (
            f"arguments {dict(call.arguments)!r} do not satisfy any expected {name!r} step"
        )
        return detail, call.step_index
    if verdict.outcome is Outcome.DUPLICATE_TOOL:
        allowed = Counter(step.tool_name for step in procedure.steps)
        seen = Counter()
        for call in records:
            seen[call.tool_name] += 1
            if seen[call.tool_name] > allowed[call.tool_name]:
                detail = f"tool {call.tool_name!r} invoked more times than the procedure requires"
                return detail, call.step_index
        raise AssertionError("no call exceeds its tool's count")
    if verdict.outcome is Outcome.PREMATURE_STOP:
        m, k = len(records), len(procedure.steps)
        return f"execution stopped after {m} of {k} steps", None
    return _FIXED_DETAIL[verdict.outcome], None


@settings(max_examples=300, deadline=None)
@given(stress_cases())
def test_classify_details_and_steps_at_every_length(case):
    procedure, trace, registry = case
    got = classify(procedure, trace, registry)
    assert (got.detail, got.offending_step) == _detail_and_step(procedure, trace, registry, got)


@settings(max_examples=300, deadline=None)
@given(traces())
def test_classify_details_and_steps_on_scenario_a(static_ip_procedure, scenario_a_registry, trace):
    got = classify(static_ip_procedure, trace, scenario_a_registry)
    want = _detail_and_step(static_ip_procedure, trace, scenario_a_registry, got)
    assert (got.detail, got.offending_step) == want


def test_reference_oracle_trivial_cases(scenario_a_registry):
    p = Procedure("p", "i", (ExpectedStep(AUTH, dict(CANONICAL_ARGS[AUTH])),))
    assert (
        reference_classify(p, make_trace(()), scenario_a_registry).outcome
        is Outcome.NO_TOOL_CALLS
    )
    two = Procedure(
        "p",
        "i",
        (
            ExpectedStep(AUTH, dict(CANONICAL_ARGS[AUTH])),
            ExpectedStep(STATIC, dict(CANONICAL_ARGS[STATIC])),
        ),
    )
    assert (
        reference_classify(two, make_trace((AUTH, STATIC)), scenario_a_registry).outcome
        is Outcome.CORRECT
    )
