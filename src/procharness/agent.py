"""Agent loop for the four procedure-delivery approaches.

Builds approach-specific context, drives a model backend, executes the
requested tool calls through a wire transport, and assembles the RunRecord
with timing captured around every model invocation and tool call.
"""

from __future__ import annotations

import json
import os
import random
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from enum import Enum
from typing import Any, Mapping, Protocol, Sequence

from . import prompts
from .model import (
    Approach,
    CallOrigin,
    Intent,
    ObservedTrace,
    Procedure,
    RunRecord,
    TerminatedReason,
    ToolCallRecord,
    normalize_arguments,
)
from .toolsim.host import META_TOOL_NAME


def default_turn_cap(k: int) -> int:
    """Bounds duplicate-loop runaway while leaving retry headroom."""
    return 2 * k + 6


# ---------------------------------------------------------------------------
# Backend contract


@dataclass(frozen=True)
class ToolCallRequest:
    call_id: str
    name: str
    arguments: dict[str, Any]


@dataclass(frozen=True)
class AssistantTurn:
    tool_calls: tuple[ToolCallRequest, ...] = ()
    text: str | None = None
    raw_message: dict[str, Any] | None = None


class ModelBackend(Protocol):
    model_id: str

    def step(
        self, messages: list[dict[str, Any]], tools: Sequence[Mapping[str, Any]]
    ) -> AssistantTurn: ...


class BackendError(Exception):
    """The model backend could not produce a turn."""


# ---------------------------------------------------------------------------
# Scripted backend with fault programs


class FaultKind(str, Enum):
    NONE = "none"
    STOP_AFTER = "stop_after"
    DUPLICATE_STEP = "duplicate_step"
    SWAP_STEPS = "swap_steps"
    HALLUCINATE_NAME_AT = "hallucinate_name_at"
    DROP_PARAM_AT = "drop_param_at"
    CALL_OUTSIDE_AT = "call_outside_at"
    NO_CALLS = "no_calls"
    RANDOM_STOP = "random_stop"


@dataclass(frozen=True)
class FaultProgram:
    kind: FaultKind = FaultKind.NONE
    step: int | None = None  # 1-based position the fault applies to
    tool: str | None = None  # replacement tool for call_outside_at
    prob: float = 0.0  # per-step stop probability for random_stop
    seed: int = 0

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "FaultProgram":
        return cls(
            kind=FaultKind(d.get("kind", "none")),
            step=d.get("step"),
            tool=d.get("tool"),
            prob=float(d.get("prob", 0.0)),
            seed=int(d.get("seed", 0)),
        )


NO_FAULT = FaultProgram()

Call = tuple[str, dict[str, Any]]


def apply_fault(
    calls: Sequence[Call], fault: FaultProgram, rng: random.Random | None = None
) -> list[Call]:
    """Perturb a fault-free call sequence according to the fault program."""
    out = [(name, dict(args)) for name, args in calls]
    kind = fault.kind
    if kind is FaultKind.NONE:
        return out
    if kind is FaultKind.NO_CALLS:
        return []
    if kind is FaultKind.RANDOM_STOP:
        rng = rng or random.Random(fault.seed)
        for i in range(len(out)):
            if rng.random() < fault.prob:
                return out[:i]
        return out

    if fault.step is None or not 1 <= fault.step <= len(out):
        raise ValueError(f"fault step {fault.step} out of range for {len(out)} calls")
    idx = fault.step - 1
    if kind is FaultKind.STOP_AFTER:
        return out[: fault.step]
    if kind is FaultKind.DUPLICATE_STEP:
        return out[: idx + 1] + [out[idx]] + out[idx + 1 :]
    if kind is FaultKind.SWAP_STEPS:
        if idx + 1 >= len(out):
            raise ValueError("swap_steps needs a successor step")
        out[idx], out[idx + 1] = out[idx + 1], out[idx]
        return out
    if kind is FaultKind.HALLUCINATE_NAME_AT:
        name, args = out[idx]
        out[idx] = (f"{name}_check", args)
        return out
    if kind is FaultKind.DROP_PARAM_AT:
        name, args = out[idx]
        if not args:
            raise ValueError("drop_param_at needs a call with arguments")
        args.pop(next(iter(args)))
        out[idx] = (name, args)
        return out
    if kind is FaultKind.CALL_OUTSIDE_AT:
        if not fault.tool:
            raise ValueError("call_outside_at needs a replacement tool")
        _, args = out[idx]
        out[idx] = (fault.tool, args)
        return out
    raise ValueError(f"unhandled fault kind {kind}")


@dataclass(frozen=True)
class ScriptedTurn:
    calls: tuple[ToolCallRequest, ...] = ()
    text: str | None = None


def build_playbook(
    approach: Approach,
    procedure_calls: Sequence[Call],
    fault: FaultProgram = NO_FAULT,
    rng: random.Random | None = None,
    summary: str = prompts.FINAL_SUMMARY_TEXT,
) -> list[ScriptedTurn]:
    """Fault-free playbooks emit the ground-truth sequence one call per turn
    and then a final summary turn; fault programs perturb the call list."""
    calls = apply_fault(procedure_calls, fault, rng)
    turns = []
    if approach is Approach.A2 and fault.kind is not FaultKind.NO_CALLS:
        turns.append(
            ScriptedTurn(calls=(ToolCallRequest("call_meta", META_TOOL_NAME, {}),))
        )
    for i, (name, args) in enumerate(calls, start=1):
        turns.append(ScriptedTurn(calls=(ToolCallRequest(f"call_{i}", name, args),)))
    turns.append(ScriptedTurn(text=summary))
    return turns


class ScriptedBackend:
    """Deterministic stand-in model that replays a prepared playbook.

    Advances the injected clock by ``llm_latency_ms`` per reasoning turn so
    simulated latency accounting is exact.
    """

    def __init__(
        self,
        playbook: Sequence[ScriptedTurn],
        clock: Any,
        llm_latency_ms: int = 1,
        model_id: str = "scripted",
    ) -> None:
        self.model_id = model_id
        self._turns = list(playbook)
        self._cursor = 0
        self._clock = clock
        self._llm_latency_ms = llm_latency_ms

    def step(
        self, messages: list[dict[str, Any]], tools: Sequence[Mapping[str, Any]]
    ) -> AssistantTurn:
        self._clock.advance(self._llm_latency_ms)
        if self._cursor < len(self._turns):
            turn = self._turns[self._cursor]
            self._cursor += 1
        else:
            turn = ScriptedTurn(text=prompts.FINAL_SUMMARY_TEXT)
        raw: dict[str, Any] = {"role": "assistant", "content": turn.text}
        if turn.calls:
            raw["tool_calls"] = [
                {
                    "id": c.call_id,
                    "type": "function",
                    "function": {"name": c.name, "arguments": json.dumps(c.arguments)},
                }
                for c in turn.calls
            ]
        return AssistantTurn(tool_calls=turn.calls, text=turn.text, raw_message=raw)


# ---------------------------------------------------------------------------
# Remote chat-completions backend


def parse_tool_calls(message: Mapping[str, Any]) -> tuple[ToolCallRequest, ...]:
    """Extract tool-call requests from a chat-completions assistant message.

    Defensive by design: an unparseable argument payload yields a request
    with empty arguments instead of aborting the run.
    """
    out = []
    for i, item in enumerate(message.get("tool_calls") or [], start=1):
        function = item.get("function") or {}
        name = function.get("name") or ""
        raw_args = function.get("arguments")
        arguments: dict[str, Any] = {}
        if isinstance(raw_args, Mapping):
            arguments = dict(raw_args)
        elif isinstance(raw_args, str) and raw_args.strip():
            try:
                parsed = json.loads(raw_args)
                if isinstance(parsed, dict):
                    arguments = parsed
            except json.JSONDecodeError:
                arguments = {}
        out.append(
            ToolCallRequest(
                call_id=item.get("id") or f"call_{i}", name=name, arguments=arguments
            )
        )
    return tuple(out)


def descriptor_to_chat_tool(descriptor: Mapping[str, Any]) -> dict[str, Any]:
    """Map a wire tool descriptor to the chat-completions tool schema."""
    properties: dict[str, Any] = {}
    required = []
    for param in descriptor.get("params", []):
        kind = param.get("kind", "string")
        if kind == "integer":
            schema: dict[str, Any] = {"type": "integer"}
        elif kind == "enum":
            schema = {"type": "string", "enum": list(param.get("enum_values", []))}
        else:
            schema = {"type": "string"}
        properties[param["name"]] = schema
        if param.get("required", True):
            required.append(param["name"])
    return {
        "type": "function",
        "function": {
            "name": descriptor["name"],
            "description": descriptor.get("description", ""),
            "parameters": {
                "type": "object",
                "properties": properties,
                "required": required,
            },
        },
    }


@dataclass(frozen=True)
class RemoteEndpointConfig:
    model: str
    base_url: str
    api_key_env: str = "PROCHARNESS_API_KEY"
    temperature: float = 0.0
    max_output_tokens: int | None = 1024
    retries: int = 2
    timeout_s: float = 60.0


class RemoteChatBackend:
    """Chat-completions-with-tools client for any compatible endpoint.

    Built on ``urllib.request``: it speaks HTTPS and honours the
    ``HTTP_PROXY``/``HTTPS_PROXY``/``NO_PROXY`` variables."""

    def __init__(self, config: RemoteEndpointConfig) -> None:
        self.config = config
        self.model_id = config.model

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.config.api_key_env, "")
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def step(
        self, messages: list[dict[str, Any]], tools: Sequence[Mapping[str, Any]]
    ) -> AssistantTurn:
        payload: dict[str, Any] = {
            "model": self.config.model,
            "messages": messages,
            "temperature": self.config.temperature,
        }
        if self.config.max_output_tokens is not None:
            payload["max_tokens"] = self.config.max_output_tokens
        if tools:
            payload["tools"] = [descriptor_to_chat_tool(d) for d in tools]

        url = self.config.base_url.rstrip("/") + "/chat/completions"
        data = json.dumps(payload).encode("utf-8")
        last_error: Exception | None = None
        for attempt in range(self.config.retries + 1):
            try:
                # urlopen raises HTTPError on a 4xx/5xx status, which is retried
                request = urllib.request.Request(
                    url, data=data, headers=self._headers(), method="POST"
                )
                with urllib.request.urlopen(
                    request, timeout=self.config.timeout_s
                ) as response:
                    body = json.loads(response.read())
                message = body["choices"][0]["message"]
                calls = parse_tool_calls(message)
                return AssistantTurn(
                    tool_calls=calls,
                    text=message.get("content"),
                    raw_message=dict(message),
                )
            except Exception as exc:
                if isinstance(exc, urllib.error.HTTPError):
                    exc.close()
                last_error = exc
                if attempt < self.config.retries:
                    time.sleep(0.5 * 2**attempt)
        raise BackendError(f"chat endpoint failed after retries: {last_error}")


# ---------------------------------------------------------------------------
# Approach context


@dataclass(frozen=True)
class ScenarioPrompts:
    """Scenario-level prompt inputs: the canonical procedure-set rendering
    and which servers each approach may see."""

    procedure_set_text: str
    servers_by_approach: Mapping[Approach, tuple[int, ...]]


@dataclass(frozen=True)
class ApproachContext:
    approach: Approach
    system_prompt: str
    user_prompt: str
    visible_servers: tuple[int, ...]


def build_context(
    approach: Approach,
    intent: Intent,
    scenario: ScenarioPrompts,
    explicit_procedure: Procedure | None = None,
) -> ApproachContext:
    """Deterministic prompt assembly from the canonical templates.

    The explicit procedure is required for the prompt-supplied approach,
    where the request itself spells out the numbered step sequence.
    """
    servers = scenario.servers_by_approach.get(approach)
    if servers is None:
        raise ValueError(f"approach {approach.value} not configured for this scenario")

    if approach is Approach.A1:
        system = prompts.SYSTEM_BASE
        if scenario.procedure_set_text:
            system = (
                f"{prompts.SYSTEM_BASE}\n\nOperating procedures:\n"
                f"{scenario.procedure_set_text}"
            )
        user = intent.text
    elif approach is Approach.A2:
        system = f"{prompts.SYSTEM_BASE}\n\n{prompts.A2_RETRIEVAL_INSTRUCTION}"
        user = intent.text
    elif approach is Approach.A3:
        if explicit_procedure is None:
            raise ValueError("prompt-supplied execution needs the explicit procedure")
        system = prompts.SYSTEM_BASE
        user = (
            f"{intent.text}\n\n{prompts.A3_STEPS_PREAMBLE}\n"
            f"{prompts.render_step_list(explicit_procedure)}"
        )
    else:
        system = f"{prompts.SYSTEM_BASE}\n\n{prompts.A4_SELECTION_INSTRUCTION}"
        user = intent.text

    return ApproachContext(
        approach=approach,
        system_prompt=system,
        user_prompt=user,
        visible_servers=tuple(servers),
    )


# ---------------------------------------------------------------------------
# Run loop


@dataclass(frozen=True)
class RunLimits:
    max_turns: int

    def __post_init__(self) -> None:
        if self.max_turns < 1:
            raise ValueError("max_turns must be at least 1")


def run_agent(
    context: ApproachContext,
    intent: Intent,
    backend: ModelBackend,
    transport: Any,
    clock: Any,
    limits: RunLimits,
    session_id: str,
    run_id: str,
) -> RunRecord:
    """Standard tool-calling loop: model turn, execute requested calls in
    emission order, feed results back, stop on a text-only turn or the
    turn cap. Failed tool calls are returned to the model as error results
    rather than aborting the run."""
    messages: list[dict[str, Any]] = [
        {"role": "system", "content": context.system_prompt},
        {"role": "user", "content": context.user_prompt},
    ]

    try:
        descriptors: list[dict[str, Any]] = []
        route: dict[str, int] = {}
        for server_id in context.visible_servers:
            for descriptor in transport.list_tools(server_id):
                descriptors.append(descriptor)
                route[descriptor["name"]] = server_id
    except Exception:
        return RunRecord(
            run_id=run_id,
            approach=context.approach,
            model_id=backend.model_id,
            intent=intent,
            trace=ObservedTrace(),
            llm_steps=(),
            final_text="",
            terminated_reason=TerminatedReason.BACKEND_ERROR,
        )

    records: list[ToolCallRecord] = []
    llm_steps: list[tuple[int, int]] = []
    step_index = 0
    final_text = ""
    reason = TerminatedReason.TURN_CAP_HIT

    for _ in range(limits.max_turns):
        started = clock.now_ms()
        try:
            turn = backend.step(messages, descriptors)
        except Exception:
            reason = TerminatedReason.BACKEND_ERROR
            break
        llm_steps.append((started, clock.now_ms()))
        messages.append(
            turn.raw_message or {"role": "assistant", "content": turn.text}
        )

        if not turn.tool_calls:
            final_text = turn.text or ""
            reason = TerminatedReason.MODEL_FINISHED
            break

        for request in turn.tool_calls:
            # unknown names still go out on the wire so the attempt is traced
            server_id = route.get(request.name, context.visible_servers[0])
            outcome = transport.call_tool(
                server_id, request.name, request.arguments, session_id
            )
            step_index += 1
            records.append(
                ToolCallRecord(
                    step_index=step_index,
                    tool_name=request.name,
                    arguments=normalize_arguments(request.arguments),
                    result=outcome.content,
                    success=outcome.success,
                    started_at=outcome.started_at,
                    ended_at=outcome.ended_at,
                    origin=CallOrigin.AGENT_ISSUED,
                )
            )
            for internal in outcome.internal_calls:
                step_index += 1
                records.append(
                    ToolCallRecord(
                        step_index=step_index,
                        tool_name=internal.name,
                        arguments=normalize_arguments(internal.arguments),
                        result=internal.content,
                        success=not internal.is_error,
                        started_at=internal.started_at,
                        ended_at=internal.ended_at,
                        origin=CallOrigin.TOOL_INTERNAL,
                    )
                )
            messages.append(
                {
                    "role": "tool",
                    "tool_call_id": request.call_id,
                    "content": json.dumps(outcome.content),
                }
            )

    return RunRecord(
        run_id=run_id,
        approach=context.approach,
        model_id=backend.model_id,
        intent=intent,
        trace=ObservedTrace(records=tuple(records)),
        llm_steps=tuple(llm_steps),
        final_text=final_text,
        terminated_reason=reason,
    )
