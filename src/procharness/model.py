"""Core domain model: tools, procedures, traces, runs, and verdicts.

Everything here is immutable after construction and safe to share across
concurrent run workers. Timestamps are monotonic milliseconds taken from an
injectable clock so simulated runs are exactly reproducible.
"""

from __future__ import annotations

import functools
import hashlib
import re
import time
from collections import abc
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
from types import UnionType
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

TOOL_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")


class ToolScope(str, Enum):
    PROCEDURE = "procedure"
    META = "meta"
    ENCAPSULATED = "encapsulated"


class ValueKind(str, Enum):
    STRING = "string"
    INTEGER = "integer"
    ENUM = "enum"


class CallOrigin(str, Enum):
    AGENT_ISSUED = "agent_issued"
    TOOL_INTERNAL = "tool_internal"


class Approach(str, Enum):
    A1 = "A1"
    A2 = "A2"
    A3 = "A3"
    A4 = "A4"


class TerminatedReason(str, Enum):
    MODEL_FINISHED = "model_finished"
    TURN_CAP_HIT = "turn_cap_hit"
    BACKEND_ERROR = "backend_error"


class Outcome(str, Enum):
    CORRECT = "Correct"
    WRONG_TOOL = "WrongTool"
    DUPLICATE_TOOL = "DuplicateTool"
    PREMATURE_STOP = "PrematureStop"
    WRONG_ORDER = "WrongOrder"
    NO_TOOL_CALLS = "NoToolCalls"
    OTHER_DEVIATION = "OtherDeviation"


class WrongToolKind(str, Enum):
    TOOL_OUTSIDE_PROCEDURE = "tool_outside_procedure"
    WRONG_TOOL_NAME = "wrong_tool_name"
    WRONG_PARAMETERS = "wrong_parameters"


class ModelError(ValueError):
    """Invalid construction of a domain value."""


# ---------------------------------------------------------------------------
# Dataclass <-> JSON codec

# field metadata: leave the key out when the value is None
OMIT_NONE = {"omit_none": True}
# field metadata: the nested object's keys sit at the level of its parent
INLINE = {"inline": True}

_PASSTHROUGH = (Any, str, int, float, bool, type(None))


class Jsonable:
    """Base for dataclasses that travel as JSON objects.

    ``to_dict`` and ``from_dict`` run functions generated once per class
    from its type hints, the way ``dataclasses`` generates ``__init__``:
    enums travel as their values, tuples as lists, nested dataclasses as
    objects and ``X | None`` as the value or null. A key missing from the
    input takes the field's default; for a field without one ``from_dict``
    raises ``KeyError``. ``from_dict`` skips the frozen ``__init__``: it
    makes the instance with ``object.__new__``, fills its ``__dict__`` in
    one update and then calls the class's ``__post_init__``, so every check
    the constructor makes still runs.
    """

    def to_dict(self) -> dict[str, Any]:
        return _codec(type(self))[0](self)

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> Any:
        return _codec(cls)[1](d)


def _ref(ns: dict[str, Any], value: Any) -> str:
    """Bind ``value`` to a fresh name in the generated code's namespace."""
    name = f"_r{len(ns)}"
    ns[name] = value
    return name


def _exprs(
    hint: Any, o: str, d: str, ns: dict[str, Any], depth: int = 0
) -> tuple[str, str]:
    """Python expressions that encode the value ``o`` of type ``hint`` into
    JSON, and decode the JSON value ``d`` into that type."""
    origin, args = get_origin(hint), get_args(hint)
    if hint in _PASSTHROUGH:
        return o, d
    if isinstance(hint, type) and issubclass(hint, Enum):
        return f"{o}._value_", f"{_ref(ns, _enum_decoder(hint))}({d})"
    if is_dataclass(hint):
        encode, decode = _codec(hint)
        return f"{_ref(ns, encode)}({o})", f"{_ref(ns, decode)}({d})"
    if origin in (Union, UnionType):
        # a union passes its scalars and None through and codes one member
        members = [a for a in args if a not in _PASSTHROUGH]
        if not members:
            return o, d
        enc, dec = _exprs(members[0], o, d, ns, depth)
        if set(args) == {members[0], type(None)}:
            return f"(None if {o} is None else {enc})", f"(None if {d} is None else {dec})"
        if len(members) == 1 and is_dataclass(members[0]):
            test = f"isinstance({o}, {_ref(ns, members[0])})"
            return f"({enc} if {test} else {o})", f"({dec} if isinstance({d}, dict) else {d})"
    v, k = f"v{depth}", f"k{depth}"
    if origin is tuple and args[-1] is Ellipsis:
        enc, dec = _exprs(args[0], v, v, ns, depth + 1)
        return (
            f"list({o})" if enc == v else f"[{enc} for {v} in {o}]",
            f"tuple({d})" if dec == v else f"tuple([{dec} for {v} in {d}])",
        )
    if origin is tuple and all(a in _PASSTHROUGH for a in args):
        return f"list({o})", "(" + "".join(f"{d}[{i}], " for i in range(len(args))) + ")"
    if origin in (dict, abc.Mapping):
        enc, dec = _exprs(args[1], v, v, ns, depth + 1)
        return (
            f"dict({o})" if enc == v else f"{{{k}: {enc} for {k}, {v} in {o}.items()}}",
            f"dict({d})" if dec == v else f"{{{k}: {dec} for {k}, {v} in {d}.items()}}",
        )
    raise TypeError(f"no JSON codec for {hint!r}")


def _enum_decoder(enum: type[Enum]) -> Callable[[Any], Enum]:
    """An enum's member by value through one dict; any other value, an
    unhashable one too, goes to the enum's own call for its error."""
    members = {m._value_: m for m in enum}
    def decode(value: Any) -> Enum:
        try:
            return members[value]
        except (KeyError, TypeError):
            return enum(value)
    return decode


@functools.cache
def _codec(cls: type) -> tuple[Callable[[Any], dict[str, Any]], Callable[[Any], Any]]:
    """Generate the (encode, decode) functions of a dataclass."""
    hints = get_type_hints(cls)
    ns: dict[str, Any] = {}
    items: list[str] = []  # the dict display, up to the first omittable field
    tail: list[str] = []  # statements that add the keys after it
    attrs: list[str] = []  # the decoded instance's __dict__ display, in field order
    for f in fields(cls):
        key = repr(f.name)
        inline = f.metadata.get("inline", False)
        enc, dec = _exprs(hints[f.name], f"o.{f.name}", "d" if inline else f"d[{key}]", ns)
        if inline:
            items.append(f"**{enc}")
        elif f.metadata.get("omit_none"):
            tail.append(f"    if o.{f.name} is not None: d[{key}] = {enc}")
        elif tail:
            tail.append(f"    d[{key}] = {enc}")
        else:
            items.append(f"{key}: {enc}")
        if f.default is not MISSING:
            dec = f"({dec} if {key} in d else {_ref(ns, f.default)})"
        elif f.default_factory is not MISSING:
            dec = f"({dec} if {key} in d else {_ref(ns, f.default_factory)}())"
        attrs.append(f"{key}: {dec}")

    source = "\n".join(
        [
            "def encode(o):",
            f"    d = {{{', '.join(items)}}}",
            *tail,
            "    return d",
            "def decode(d):",
            f"    o = {_ref(ns, object.__new__)}({_ref(ns, cls)})",
            f"    o.__dict__.update({{{', '.join(attrs)}}})",
            *(["    o.__post_init__()"] if hasattr(cls, "__post_init__") else []),
            "    return o",
        ]
    )
    exec(source, ns)
    return ns["encode"], ns["decode"]


# ---------------------------------------------------------------------------
# Tool specs and registry


@dataclass(frozen=True)
class ParamSpec(Jsonable):
    """One declared parameter of a tool."""

    name: str
    kind: ValueKind = ValueKind.STRING
    required: bool = True
    enum_values: tuple[str, ...] | None = field(default=None, metadata=OMIT_NONE)

    def __post_init__(self) -> None:
        if self.kind is ValueKind.ENUM and not self.enum_values:
            raise ModelError(f"enum param {self.name!r} needs enum_values")

    def accepts(self, value: Any) -> bool:
        if self.kind is ValueKind.STRING:
            return isinstance(value, str)
        if self.kind is ValueKind.INTEGER:
            return isinstance(value, int) and not isinstance(value, bool)
        return isinstance(value, str) and value in (self.enum_values or ())

@dataclass(frozen=True)
class ToolSpec(Jsonable):
    """Schema of one tool exposed by a tool server."""

    name: str
    description: str
    params: tuple[ParamSpec, ...] = ()
    scope: ToolScope = ToolScope.PROCEDURE
    encapsulates: str | None = field(default=None, metadata=OMIT_NONE)

    def __post_init__(self) -> None:
        if not TOOL_NAME_RE.match(self.name):
            raise ModelError(f"invalid tool name {self.name!r}")
        seen = [p.name for p in self.params]
        if len(set(seen)) != len(seen):
            raise ModelError(f"duplicate params in tool {self.name!r}")
        if self.scope is ToolScope.ENCAPSULATED and not self.encapsulates:
            raise ModelError(
                f"encapsulated tool {self.name!r} must name the procedure it executes"
            )

class ToolRegistry:
    """Immutable name -> ToolSpec mapping with exact, case-sensitive lookup."""

    def __init__(self, specs: Iterable[ToolSpec]) -> None:
        self._specs: dict[str, ToolSpec] = {}
        for spec in specs:
            if spec.name in self._specs:
                raise ModelError(f"duplicate tool name {spec.name!r}")
            self._specs[spec.name] = spec

    def lookup(self, name: str) -> ToolSpec | None:
        return self._specs.get(name)

    def __iter__(self) -> Iterator[ToolSpec]:
        return iter(self._specs.values())

def normalize_arguments(arguments: Mapping[str, Any]) -> dict[str, Any]:
    """Lexical normalization only: trim whitespace around string values."""
    return {
        k: v.strip() if isinstance(v, str) else v for k, v in arguments.items()
    }


def validate_arguments(spec: ToolSpec, arguments: Mapping[str, Any]) -> list[str]:
    """Check arguments against a tool schema.

    Returns a list of problems (empty means valid). Parameters not declared
    by the tool are passed through untouched and not reported.
    """
    problems = []
    for p in spec.params:
        if p.name not in arguments:
            if p.required:
                problems.append(f"missing required parameter {p.name!r}")
            continue
        value = arguments[p.name]
        if not p.accepts(value):
            if p.kind is ValueKind.ENUM:
                problems.append(
                    f"parameter {p.name!r} must be one of {list(p.enum_values or ())}, got {value!r}"
                )
            else:
                problems.append(
                    f"parameter {p.name!r} must be a {p.kind.value}, got {value!r}"
                )
    return problems


# ---------------------------------------------------------------------------
# Procedures


@dataclass(frozen=True)
class AnyValue(Jsonable):
    """Wildcard argument constraint: the parameter must be present with the
    given value kind, but any concrete value is accepted."""

    kind: ValueKind = ValueKind.STRING

# an exact scalar to match, or a wildcard
Constraint = Union[AnyValue, str, int, float, bool, None]


def constraint_satisfied(constraint: Constraint, value: Any) -> bool:
    if isinstance(constraint, AnyValue):
        if constraint.kind is ValueKind.INTEGER:
            return isinstance(value, int) and not isinstance(value, bool)
        return isinstance(value, str)
    return value == constraint


@dataclass(frozen=True)
class ExpectedStep(Jsonable):
    """One expected tool call: a tool name plus per-parameter constraints.

    A parameter absent from ``arg_constraints`` is ignored entirely during
    conformance checking. Procedure generators constrain every required
    parameter (exact where the intent binds it, ``AnyValue`` otherwise).
    """

    tool_name: str
    arg_constraints: Mapping[str, Constraint] = field(default_factory=dict)

    def satisfied_by(self, arguments: Mapping[str, Any]) -> bool:
        for name, c in self.arg_constraints.items():
            if name not in arguments or not constraint_satisfied(c, arguments[name]):
                return False
        return True


@dataclass(frozen=True)
class Procedure(Jsonable):
    """Ground-truth ordered tool-call sequence answering one intent family."""

    procedure_id: str
    intent_key: str
    steps: tuple[ExpectedStep, ...]

    def __post_init__(self) -> None:
        if len(self.steps) < 1:
            raise ModelError("a procedure needs at least one step")

    @classmethod
    def of_calls(
        cls,
        procedure_id: str,
        intent_key: str,
        calls: Iterable[tuple[str, Mapping[str, Any]]],
        any_value: tuple[str, ...] = (),
    ) -> Procedure:
        """The procedure a sequence of (tool, arguments) calls carries out:
        one step per call, in order, that binds each argument exactly. The
        arguments named in ``any_value`` take ``AnyValue()`` instead, since
        an earlier tool's output sets their value."""
        steps = tuple(
            ExpectedStep(name, {k: AnyValue() if k in any_value else v for k, v in args.items()})
            for name, args in calls
        )
        return cls(procedure_id, intent_key, steps)

    @property
    def length(self) -> int:
        return len(self.steps)

    @functools.cached_property
    def tool_names(self) -> tuple[str, ...]:
        return tuple(s.tool_name for s in self.steps)

    @functools.cached_property
    def steps_by_tool(self) -> dict[str, tuple[ExpectedStep, ...]]:
        """Tool name -> its steps in procedure order. Computed once, and not
        a field, so it is not part of the JSON, equality or hash."""
        by_tool: dict[str, tuple[ExpectedStep, ...]] = {}
        for step in self.steps:
            by_tool[step.tool_name] = by_tool.get(step.tool_name, ()) + (step,)
        return by_tool


# ---------------------------------------------------------------------------
# Intents, traces, runs


@dataclass(frozen=True)
class Intent(Jsonable):
    """A user request, both as natural language and as structured fields."""

    intent_key: str
    text: str
    structured: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ToolCallRecord(Jsonable):
    """One executed tool call as captured in a trace.

    ``tool_name`` is the name as issued by the model, which may be unknown
    or hallucinated. ``origin`` distinguishes agent-issued calls from the
    internal sub-calls an encapsulated tool reports; until the client
    rebases them, those count their times from the start of the parent call.
    """

    step_index: int
    tool_name: str
    arguments: Mapping[str, Any]
    result: Any
    success: bool
    started_at: int
    ended_at: int
    origin: CallOrigin = CallOrigin.AGENT_ISSUED

    def __post_init__(self) -> None:
        if self.ended_at < self.started_at:
            raise ModelError("tool call ended before it started")

    @property
    def duration_ms(self) -> int:
        return self.ended_at - self.started_at


@dataclass(frozen=True)
class ObservedTrace(Jsonable):
    """Ordered record of the tool calls a run actually executed."""

    records: tuple[ToolCallRecord, ...] = ()

    @property
    def length(self) -> int:
        return len(self.records)

    @property
    def tool_names(self) -> tuple[str, ...]:
        return tuple(r.tool_name for r in self.records)


@dataclass(frozen=True)
class RunRecord(Jsonable):
    """One end-to-end agent execution of an intent; it checks the order of its trace."""

    run_id: str
    approach: Approach
    model_id: str
    intent: Intent
    trace: ObservedTrace
    llm_steps: tuple[tuple[int, int], ...]
    final_text: str = ""
    terminated_reason: TerminatedReason = TerminatedReason.MODEL_FINISHED

    def __post_init__(self) -> None:
        if (
            self.terminated_reason is TerminatedReason.MODEL_FINISHED
            and len(self.llm_steps) < 1
        ):
            raise ModelError("a finished run needs at least one model invocation")
        records = self.trace.records
        indices = [r.step_index for r in records]
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise ModelError("step_index must be strictly increasing")
        agent_starts = [r.started_at for r in records if r.origin is CallOrigin.AGENT_ISSUED]
        if any(b < a for a, b in zip(agent_starts, agent_starts[1:])):
            raise ModelError("agent-issued calls must not go back in time")


@dataclass(frozen=True)
class Verdict(Jsonable):
    """Classification of one run: Correct or a single taxonomy error class."""

    outcome: Outcome
    wrong_tool_subclass: WrongToolKind | None = None
    detail: str = ""
    offending_step: int | None = None

    def __post_init__(self) -> None:
        if (self.outcome is Outcome.WRONG_TOOL) != (self.wrong_tool_subclass is not None):
            raise ModelError("wrong_tool_subclass is present iff outcome is WrongTool")


# ---------------------------------------------------------------------------
# Trace views


class TraceLevel(str, Enum):
    AGENT = "agent"
    FLATTENED = "flattened"


def effective_trace(
    run: RunRecord, level: TraceLevel, registry: ToolRegistry
) -> ObservedTrace:
    """Project a raw run trace to the view conformance checking operates on.

    ``agent`` keeps only agent-issued calls whose tool is not meta-scoped
    (unknown names are kept; they are agent behavior). ``flattened``
    additionally replaces each encapsulated-tool call with its recorded
    internal sub-calls, in order.

    One pass suffices: the transport returns a call's internal records
    right after it, and step indices increase, so an internal record
    belongs to the last agent-issued call before it. Internal records with
    no such call, or after any call that is not being flattened, are out.
    """
    out: list[ToolCallRecord] = []
    flattening = False  # the last agent-issued call is encapsulated, at FLATTENED
    for rec in run.trace.records:
        if rec.origin is not CallOrigin.AGENT_ISSUED:
            if flattening:
                out.append(rec)
            continue
        spec = registry.lookup(rec.tool_name)
        scope = spec.scope if spec is not None else None
        flattening = level is TraceLevel.FLATTENED and scope is ToolScope.ENCAPSULATED
        if scope is not ToolScope.META and not flattening:
            out.append(rec)
    return ObservedTrace(records=tuple(out))


# ---------------------------------------------------------------------------
# Clocks and seeds


def stable_seed(*parts: Any) -> int:
    """A 64-bit integer from the SHA-256 digest of the parts joined by ':',
    the same in every process and on every platform."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class MonotonicClock:
    """Wall clock: monotonic milliseconds. ``advance`` is a no-op because
    real time passes on its own."""

    def now_ms(self) -> int:
        return time.monotonic_ns() // 1_000_000

    def advance(self, ms: int) -> None:
        pass


class VirtualClock:
    """Deterministic clock for simulated runs; moves only when told to."""

    def __init__(self) -> None:
        self._now = 0

    def now_ms(self) -> int:
        return self._now

    def advance(self, ms: int) -> None:
        if ms < 0:
            raise ValueError("cannot move a clock backwards")
        self._now += ms
