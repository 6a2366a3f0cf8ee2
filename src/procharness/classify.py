"""Conformance checking: matched steps plus the error-class cascade.

All functions here are pure; they never touch run state and are safe for
unlimited concurrent invocation.
"""

from __future__ import annotations

from .model import (
    ObservedTrace,
    Outcome,
    Procedure,
    ToolCallRecord,
    ToolRegistry,
    Verdict,
    WrongToolKind,
    validate_arguments,
)


def matched_steps(expected: Procedure, observed: ObservedTrace) -> int:
    """How far a run got: the length of the longest prefix of the trace whose
    calls match the expected steps at their positions, each by tool name and
    by arguments that satisfy the step's constraints. A run is an exact match
    iff this equals both the procedure's and the trace's length.
    """
    matched = 0
    for step, call in zip(expected.steps, observed.records):
        if step.tool_name != call.tool_name or not step.satisfied_by(call.arguments):
            break
        matched += 1
    return matched


def validate_call(
    call: ToolCallRecord, expected: Procedure, registry: ToolRegistry, *, satisfied: bool = False
) -> Verdict | None:
    """Judge a single call independent of its position in the trace: the
    ``WrongTool`` verdict it earns, or None when it is valid.

    A name absent from the registry is a wrong tool name; a registered name
    not used by the expected procedure is a tool outside the procedure; a
    procedure tool whose arguments satisfy none of that tool's expected
    steps (or violate the tool schema) has wrong parameters. The checks run
    in that order of severity. ``satisfied`` says the caller saw the
    arguments satisfy one of the tool's steps, so none is scanned again.
    """
    spec = registry.lookup(call.tool_name)
    steps = expected.steps_by_tool.get(call.tool_name)
    if spec is None:
        kind = WrongToolKind.WRONG_TOOL_NAME
        detail = f"tool {call.tool_name!r} is not registered on any visible server"
    elif steps is None:
        kind = WrongToolKind.TOOL_OUTSIDE_PROCEDURE
        detail = f"tool {call.tool_name!r} is not part of the expected procedure"
    elif schema_problems := validate_arguments(spec, call.arguments):
        kind = WrongToolKind.WRONG_PARAMETERS
        detail = "; ".join(schema_problems)
    elif not satisfied and not any(s.satisfied_by(call.arguments) for s in steps):
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

    One pass over the trace judges each call, counts each tool and notes
    the first call past its tool's count; rules 3 to 6 read what it found
    and ``matched_steps``.
    """
    records = observed.records
    if not records:
        return Verdict(Outcome.NO_TOOL_CALLS, detail="the run issued no tool calls")

    by_tool, k = expected.steps_by_tool, expected.length
    matched = matched_steps(expected, observed)
    counts: dict[str, int] = {}
    duplicate = None  # the first call past its tool's count
    for i, rec in enumerate(records):
        wrong = validate_call(rec, expected, registry, satisfied=i < matched)
        if wrong is not None:
            return wrong
        seen = counts[rec.tool_name] = counts.get(rec.tool_name, 0) + 1
        if duplicate is None and seen > len(by_tool[rec.tool_name]):
            duplicate = rec

    if duplicate is not None:
        return Verdict(
            Outcome.DUPLICATE_TOOL,
            detail=f"tool {duplicate.tool_name!r} invoked more times than the procedure requires",
            offending_step=duplicate.step_index,
        )

    n = len(records)
    if n < k and matched == n:
        return Verdict(Outcome.PREMATURE_STOP, detail=f"execution stopped after {n} of {k} steps")

    # every call is a procedure tool within its count: n == k is one multiset
    if n == k and matched < n and observed.tool_names != expected.tool_names:
        return Verdict(
            Outcome.WRONG_ORDER,
            detail="all required tools were called but not in the prescribed order",
        )

    if matched == k:
        return Verdict(Outcome.CORRECT)

    return Verdict(
        Outcome.OTHER_DEVIATION,
        detail="trace deviates from the procedure without matching a specific error class",
    )
