"""Wall-time spans around the harness's layers, recorded from outside.

``Tracer.install`` replaces the layers' public functions with timing
wrappers at run time; ``Tracer.remove`` puts the originals back. The
harness's files are never changed. A function imported by name into
another procharness module is replaced there too, so every call site is
covered however the harness binds it.

A span is (id, parent id, name, start ns, end ns, run id, thread id, value).
Spans are kept in memory and written out as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import http.server
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

# span name -> (module, attribute path); the attribute path is a function or
# a method on a class
TARGETS = {
    "runner.run_batch": ("procharness.runner", "run_batch"),
    "runner.classify_archive": ("procharness.runner", "classify_archive"),
    "runner.execute_run": ("procharness.runner", "execute_run"),
    "runner.render": ("procharness.runner", "render_markdown_report"),
    "agent.run_agent": ("procharness.agent", "run_agent"),
    "agent.build_context": ("procharness.agent", "build_context"),
    "agent.build_playbook": ("procharness.agent", "build_playbook"),
    "agent.step": ("procharness.agent", "ScriptedBackend.step"),
    "wire.list": ("procharness.wire", "LoopbackTransport.list_tools|HttpTransport.list_tools"),
    "wire.call": ("procharness.wire", "LoopbackTransport.call_tool|HttpTransport.call_tool"),
    "wire.handle_rpc": ("procharness.wire", "handle_rpc"),
    "toolsim.call": ("procharness.toolsim.host", "ToolHost.call_tool"),
    "toolsim.list": ("procharness.toolsim.host", "ToolHost.list_tools"),
    "archive.append": ("procharness.archive", "append_document"),
    "archive.scan": ("procharness.archive", "existing_run_ids"),
    "archive.load": ("procharness.archive", "load_documents"),
    "model.encode": ("procharness.archive", "RunDocument.to_dict"),
    "model.decode": ("procharness.archive", "RunDocument.from_dict"),
    "model.trace": ("procharness.model", "effective_trace"),
    "classify.verdict": ("procharness.classify", "classify"),
    "metrics.summarize": ("procharness.metrics", "summarize"),
    "metrics.csv": ("procharness.metrics", "summary_csv_lines"),
}


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    name: str
    start: int
    end: int
    run_id: str | None
    thread: int
    value: float | None = None

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts = {"http_connections": 0, "http_requests": 0}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            run_id = getattr(tracer._local, "run_id", None)
            if name == "runner.execute_run":  # execute_run(env, cell)
                run_id = tracer._local.run_id = getattr(args[-1], "run_id", None)
            elif name == "wire.handle_rpc" and not stack:
                # handle_rpc(host, payload, session_id, clock) on a server
                # thread: the session header is the run id
                run_id = args[2] if len(args) > 2 else kwargs.get("session_id")
            before = 0
            if name == "archive.append" and Path(args[0]).exists():
                before = Path(args[0]).stat().st_size
            stack.append(span_id)
            value = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                end = time.perf_counter_ns()
                if name == "wire.list":
                    value = float(len(json.dumps(result)))
                elif name == "archive.append":
                    value = float(Path(args[0]).stat().st_size - before)
                return result
            except BaseException:
                end = time.perf_counter_ns()
                raise
            finally:
                stack.pop()
                if name == "runner.execute_run":
                    tracer._local.run_id = None
                tracer.spans.append(
                    Span(span_id, parent, name, start, end, run_id, threading.get_ident(), value)
                )

        return wrapper

    def _counter(self, key: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with tracer._count_lock:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing --------------------------------------------------------

    def _replace(self, owner: Any, attr: str, new: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for name, (module_name, paths) in TARGETS.items():
            module = sys.modules[module_name]
            for path in paths.split("|"):
                if "." in path:
                    cls_name, meth = path.split(".")
                    cls = getattr(module, cls_name)
                    raw = next(
                        c.__dict__[meth] for c in cls.__mro__ if meth in c.__dict__
                    )
                    if isinstance(raw, classmethod):
                        self._replace(cls, meth, classmethod(self._wrap(name, raw.__func__)))
                    else:
                        self._replace(cls, meth, self._wrap(name, raw))
                    continue
                original = getattr(module, path)
                wrapped = self._wrap(name, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "procharness" or mod is None:
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, attr, wrapped)
        # connections accepted and responses sent by the stdlib HTTP server
        server_cls = http.server.ThreadingHTTPServer
        self._replace(server_cls, "finish_request",
                      self._counter("http_connections", server_cls.finish_request))
        handler_cls = http.server.BaseHTTPRequestHandler
        self._replace(handler_cls, "send_response",
                      self._counter("http_requests", handler_cls.send_response))

    def remove(self) -> None:
        for owner, attr, old in reversed(self._undo):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._undo.clear()

    # -- output --------------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


_MISSING = object()


# ---------------------------------------------------------------------------
# Self time


def _covered(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of [start, end) covered by the union of the intervals."""
    total = 0
    cursor = start
    for s, e in sorted(intervals):
        s, e = max(s, cursor), min(e, end)
        if e > s:
            total += e - s
            cursor = e
    return total


def link_cross_thread(spans: list[Span]) -> list[Span]:
    """Give parents to spans that began on another thread than their cause:
    a run executed by a pool worker belongs to the batch that was open, and
    a server-side ``handle_rpc`` belongs to the client request that contains
    it (same run id, or any open discovery request for ``tools/list``)."""
    batches = [s for s in spans if s.name == "runner.run_batch"]
    requests = [s for s in spans if s.name in ("wire.list", "wire.call")]
    out = []
    for s in spans:
        parent = s.parent
        if parent is None and s.name == "runner.execute_run":
            parent = next((b.span_id for b in batches if b.start <= s.start and s.end <= b.end), None)
        elif parent is None and s.name == "wire.handle_rpc":
            parent = next(
                (r.span_id for r in requests
                 if r.start <= s.start and s.end <= r.end
                 and (r.run_id == s.run_id or (r.name == "wire.list" and s.run_id == "discovery"))),
                None,
            )
        out.append(s if parent == s.parent else Span(**{**s.__dict__, "parent": parent}))
    return out


def self_times(spans: list[Span]) -> dict[int, int]:
    """span id -> duration minus the part its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.span_id: s.duration - _covered(s.start, s.end, children.get(s.span_id, []))
        for s in spans
    }
