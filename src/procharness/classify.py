"""Conformance checking: binary reliability plus the error-class cascade.

All functions here are pure; they never touch run state and are safe for
unlimited concurrent invocation.
"""

from __future__ import annotations

from collections import Counter

from .model import (
    ExpectedStep,
    ObservedTrace,
    Outcome,
    Procedure,
    ToolCallRecord,
    ToolRegistry,
    Verdict,
    WrongToolKind,
    validate_arguments,
)


def _step_matches(step: ExpectedStep, call: ToolCallRecord) -> bool:
    return step.tool_name == call.tool_name and step.satisfied_by(call.arguments)


def reliability(expected: Procedure, observed: ObservedTrace) -> int:
    """Binary exact-match score between an expected procedure and a
    conformance-level trace: 1 iff lengths agree and every position matches
    the expected tool name with arguments satisfying that step's constraints.
    """
    if observed.length != expected.length:
        return 0
    for step, call in zip(expected.steps, observed.records):
        if not _step_matches(step, call):
            return 0
    return 1


def validate_call(
    call: ToolCallRecord, expected: Procedure, registry: ToolRegistry
) -> Verdict | None:
    """Judge a single call independent of its position in the trace: the
    ``WrongTool`` verdict it earns, or None when it is valid.

    A name absent from the registry is a wrong tool name; a registered name
    not used by the expected procedure is a tool outside the procedure; a
    procedure tool whose arguments satisfy none of that tool's expected
    steps (or violate the tool schema) has wrong parameters. The checks run
    in that order of severity.
    """
    spec = registry.lookup(call.tool_name)
    if spec is None:
        kind = WrongToolKind.WRONG_TOOL_NAME
        detail = f"tool {call.tool_name!r} is not registered on any visible server"
    elif call.tool_name not in expected.tool_names:
        kind = WrongToolKind.TOOL_OUTSIDE_PROCEDURE
        detail = f"tool {call.tool_name!r} is not part of the expected procedure"
    elif schema_problems := validate_arguments(spec, call.arguments):
        kind = WrongToolKind.WRONG_PARAMETERS
        detail = "; ".join(schema_problems)
    elif not any(
        s.satisfied_by(call.arguments) for s in expected.steps if s.tool_name == call.tool_name
    ):
        kind = WrongToolKind.WRONG_PARAMETERS
        detail = (
            f"arguments {dict(call.arguments)!r} do not satisfy any expected "
            f"{call.tool_name!r} step"
        )
    else:
        return None
    return Verdict(
        Outcome.WRONG_TOOL,
        wrong_tool_subclass=kind,
        detail=detail,
        offending_step=call.step_index,
    )


def classify(
    expected: Procedure, observed: ObservedTrace, registry: ToolRegistry
) -> Verdict:
    """Classify a conformance-level trace against its expected procedure.

    Precedence cascade, first match wins:

    1. empty trace                                -> NoToolCalls
    2. any invalid call (earliest, most severe)   -> WrongTool (+ subclass);
       this deliberately suppresses DuplicateTool
    3. any expected tool called more often than
       it appears in the procedure               -> DuplicateTool
    4. trace is a proper prefix of the procedure -> PrematureStop
    5. same tool-name multiset, different order  -> WrongOrder
    6. exact match                               -> Correct
    7. anything else                             -> OtherDeviation
    """
    records = observed.records
    if not records:
        return Verdict(Outcome.NO_TOOL_CALLS, detail="the run issued no tool calls")

    for rec in records:
        wrong = validate_call(rec, expected, registry)
        if wrong is not None:
            return wrong

    expected_counts = Counter(expected.tool_names)
    seen: Counter[str] = Counter()
    for rec in records:
        seen[rec.tool_name] += 1
        if seen[rec.tool_name] > expected_counts[rec.tool_name]:
            return Verdict(
                Outcome.DUPLICATE_TOOL,
                detail=f"tool {rec.tool_name!r} invoked more times than the procedure requires",
                offending_step=rec.step_index,
            )

    if observed.length < expected.length and all(
        _step_matches(step, call) for step, call in zip(expected.steps, records)
    ):
        return Verdict(
            Outcome.PREMATURE_STOP,
            detail=(
                f"execution stopped after {observed.length} of "
                f"{expected.length} steps"
            ),
        )

    if (
        Counter(observed.tool_names) == expected_counts
        and observed.tool_names != expected.tool_names
    ):
        return Verdict(
            Outcome.WRONG_ORDER,
            detail="all required tools were called but not in the prescribed order",
        )

    if reliability(expected, observed) == 1:
        return Verdict(Outcome.CORRECT)

    return Verdict(
        Outcome.OTHER_DEVIATION,
        detail="trace deviates from the procedure without matching a specific error class",
    )
