"""In-process tool hosting: specs + handlers + per-run session state.

A host backs exactly one tool server. Sessions are keyed by a run-session
identifier so concurrent runs never observe each other's DHCP cursors or
registry entries; calls within one session are serialized.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from ..model import (
    ToolCallRecord,
    ToolRegistry,
    ToolScope,
    ToolSpec,
    normalize_arguments,
    validate_arguments,
)

META_TOOL_NAME = "get_procedures"


class ToolNotFoundError(Exception):
    def __init__(self, name: str) -> None:
        super().__init__(f"unknown tool: {name}")
        self.name = name


class ArgumentValidationError(Exception):
    def __init__(self, name: str, problems: Sequence[str]) -> None:
        super().__init__(f"invalid arguments for {name}: " + "; ".join(problems))
        self.name = name
        self.problems = list(problems)


@dataclass
class ToolResult:
    """What a handler returns. An encapsulated tool also returns the
    sub-calls it made, timed from the start of its own call."""

    content: Any
    is_error: bool = False
    internal_calls: list[ToolCallRecord] = field(default_factory=list)


@dataclass
class CallContext:
    """What a handler gets besides its arguments."""

    session: Any
    clock: Any


Handler = Callable[[Mapping[str, Any], CallContext], ToolResult]


class ToolHost:
    def __init__(
        self,
        server_id: int,
        specs: Sequence[ToolSpec],
        handlers: Mapping[str, Handler],
        session_factory: Callable[[], Any] | None = None,
    ) -> None:
        self.server_id = server_id
        self.registry = ToolRegistry(specs)
        missing = [s.name for s in specs if s.name not in handlers]
        if missing:
            raise ValueError(f"no handler for tools: {missing}")
        self._handlers = dict(handlers)
        self._session_factory = session_factory
        self._descriptors = [spec.to_dict() for spec in self.registry]
        self._sessions: dict[str, Any] = {}
        self._session_locks: dict[str, threading.Lock] = {}
        self._lock = threading.Lock()

    def list_tools(self) -> list[dict[str, Any]]:
        """Descriptors in registration order, built once: the tools never change."""
        return self._descriptors

    def _session_slot(self, session_id: str) -> tuple[Any, threading.Lock]:
        with self._lock:
            if session_id not in self._session_locks:
                self._session_locks[session_id] = threading.Lock()
                self._sessions[session_id] = (
                    self._session_factory() if self._session_factory else None
                )
            return self._sessions[session_id], self._session_locks[session_id]

    def call_tool(
        self, name: str, arguments: Mapping[str, Any], session_id: str, clock: Any
    ) -> ToolResult:
        spec = self.registry.lookup(name)
        if spec is None:
            raise ToolNotFoundError(name)
        args = normalize_arguments(arguments)
        problems = validate_arguments(spec, args)
        if problems:
            raise ArgumentValidationError(name, problems)
        session, lock = self._session_slot(session_id)
        with lock:
            return self._handlers[name](args, CallContext(session=session, clock=clock))


def make_repository_tool(text: str) -> tuple[ToolSpec, Handler]:
    """Meta tool returning the configured procedure-set rendering verbatim."""
    spec = ToolSpec(
        META_TOOL_NAME,
        "Retrieve the operating procedures from the procedure repository.",
        (),
        scope=ToolScope.META,
    )

    def fetch(args: Mapping[str, Any], ctx: CallContext) -> ToolResult:
        return ToolResult(content=text)

    return spec, fetch
