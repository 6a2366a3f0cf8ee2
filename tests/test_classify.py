from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CANONICAL_ARGS, make_trace
from procharness.classify import classify, reliability, validate_call
from procharness.model import (
    ExpectedStep,
    Outcome,
    Procedure,
    ToolCallRecord,
    WrongToolKind,
)
from procharness.reference import reference_classify

AUTH = "ue_authorization"
STATIC = "static_ip_retrieval"
DHCP4 = "dhcpv4_allocate"
DHCP6 = "dhcpv6_allocate"
REGISTRY = "ip_assignment"
UNKNOWN = "ue_authorisation_check"

GOOD = (AUTH, STATIC, REGISTRY)


# ---------------------------------------------------------------------------
# reliability


def test_reliability_exact_match_is_one(static_ip_procedure):
    assert reliability(static_ip_procedure, make_trace(GOOD)) == 1


def test_reliability_shorter_trace_is_zero(static_ip_procedure):
    assert reliability(static_ip_procedure, make_trace((AUTH, STATIC))) == 0


def test_reliability_single_step_procedure(fixtures):
    from procharness.toolsim import ground_truth_procedure, make_allocation_intent

    rejected = ground_truth_procedure(make_allocation_intent("ue-999", "IPv4"), fixtures)
    assert rejected.length == 1
    trace = make_trace(
        (AUTH,), args_overrides={1: {"ue_id": "ue-999", "session_type": "IPv4"}}
    )
    assert reliability(rejected, trace) == 1


def test_reliability_checks_argument_constraints(static_ip_procedure):
    trace = make_trace(
        GOOD, args_overrides={1: {"ue_id": "ue-007", "session_type": "IPv4"}}
    )
    assert reliability(static_ip_procedure, trace) == 0


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
    return variants


_names_strategy = st.sampled_from([AUTH, STATIC, DHCP4, DHCP6, REGISTRY, UNKNOWN])


@st.composite
def traces(draw):
    names = draw(st.lists(_names_strategy, max_size=6))
    overrides = {}
    for i, name in enumerate(names, start=1):
        overrides[i] = draw(st.sampled_from(_arg_pool(name) or [{}]))
    return make_trace(names, args_overrides=overrides)


@settings(max_examples=300, deadline=None)
@given(traces())
def test_correct_iff_reliability_one(static_ip_procedure, scenario_a_registry, trace):
    verdict = classify(static_ip_procedure, trace, scenario_a_registry)
    rel = reliability(static_ip_procedure, trace)
    assert (verdict.outcome is Outcome.CORRECT) == (rel == 1)


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


def test_reference_oracle_rejects_big_instances(scenario_a_registry):
    p = Procedure("p", "i", tuple(ExpectedStep(AUTH, {}) for _ in range(7)))
    with pytest.raises(ValueError):
        reference_classify(p, make_trace(()), scenario_a_registry)
    trace = make_trace((AUTH,) * 9)
    small = Procedure("p", "i", (ExpectedStep(AUTH, {}),))
    with pytest.raises(ValueError):
        reference_classify(small, trace, scenario_a_registry)


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
