"""Reference classifier (oracle).

A deliberately naive re-derivation of the error-class definitions, used to
cross-check the production classifier. Each class is evaluated as its own
predicate straight from its definition, then a fixed precedence order picks
the verdict. No predicate costs more than one pass over the procedure per
call, so procedures and traces of any length are accepted. Shares no
helpers with :mod:`procharness.classify`.
"""

from __future__ import annotations

from collections import Counter

from .model import (
    AnyValue,
    ObservedTrace,
    Outcome,
    Procedure,
    ToolCallRecord,
    ToolRegistry,
    ValueKind,
    Verdict,
    WrongToolKind,
)

def _value_has_kind(value: object, kind: ValueKind) -> bool:
    if kind is ValueKind.INTEGER:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, str)


def _args_fit_step(step, arguments) -> bool:
    for pname, constraint in step.arg_constraints.items():
        if pname not in arguments:
            return False
        value = arguments[pname]
        if isinstance(constraint, AnyValue):
            if not _value_has_kind(value, constraint.kind):
                return False
        elif value != constraint:
            return False
    return True


def _args_fit_schema(spec, arguments) -> bool:
    for p in spec.params:
        if p.name not in arguments:
            if p.required:
                return False
            continue
        value = arguments[p.name]
        if p.kind is ValueKind.ENUM:
            if value not in (p.enum_values or ()):
                return False
        elif not _value_has_kind(value, p.kind):
            return False
    return True


def _call_flaw(
    call: ToolCallRecord, expected: Procedure, registry: ToolRegistry
) -> WrongToolKind | None:
    spec = registry.lookup(call.tool_name)
    if spec is None:
        return WrongToolKind.WRONG_TOOL_NAME
    if call.tool_name not in [s.tool_name for s in expected.steps]:
        return WrongToolKind.TOOL_OUTSIDE_PROCEDURE
    if not _args_fit_schema(spec, call.arguments):
        return WrongToolKind.WRONG_PARAMETERS
    same_name_steps = [s for s in expected.steps if s.tool_name == call.tool_name]
    if not any(_args_fit_step(s, call.arguments) for s in same_name_steps):
        return WrongToolKind.WRONG_PARAMETERS
    return None


def reference_classify(
    expected: Procedure, observed: ObservedTrace, registry: ToolRegistry
) -> Verdict:
    """Verdict from the error-class definitions, at any length; the
    ``WrongTool`` subclass and offending step are set, details are not."""
    calls = list(observed.records)
    steps = list(expected.steps)
    p_names = [s.tool_name for s in steps]
    o_names = [c.tool_name for c in calls]

    # independent predicates, one per error-class definition
    no_tool_calls = len(calls) == 0

    first_flaw: WrongToolKind | None = None
    flaw_at: int | None = None
    for call in calls:
        flaw = _call_flaw(call, expected, registry)
        if flaw is not None:
            first_flaw = flaw
            flaw_at = call.step_index
            break

    o_counts, p_counts = Counter(o_names), Counter(p_names)
    duplicate = any(o_counts[name] > p_counts[name] for name in p_counts)

    proper_prefix = len(calls) < len(steps) and all(
        c.tool_name == s.tool_name and _args_fit_step(s, c.arguments)
        for c, s in zip(calls, steps)
    )

    same_multiset = o_counts == p_counts
    wrong_order = same_multiset and o_names != p_names

    exact = (
        len(calls) == len(steps)
        and o_names == p_names
        and all(_args_fit_step(s, c.arguments) for c, s in zip(calls, steps))
    )

    # precedence order
    if no_tool_calls:
        return Verdict(Outcome.NO_TOOL_CALLS)
    if first_flaw is not None:
        return Verdict(
            Outcome.WRONG_TOOL, wrong_tool_subclass=first_flaw, offending_step=flaw_at
        )
    if duplicate:
        return Verdict(Outcome.DUPLICATE_TOOL)
    if proper_prefix:
        return Verdict(Outcome.PREMATURE_STOP)
    if wrong_order:
        return Verdict(Outcome.WRONG_ORDER)
    if exact:
        return Verdict(Outcome.CORRECT)
    return Verdict(Outcome.OTHER_DEVIATION)
