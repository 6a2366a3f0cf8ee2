"""procharness: execute multi-step network procedures with tool-calling
agents, record full traces, and classify every run against ground truth."""

__version__ = "0.1.0"

from .classify import classify, matched_steps, validate_call
from .metrics import latency_cost_ms, summarize
from .model import (
    Approach,
    Intent,
    ObservedTrace,
    Outcome,
    Procedure,
    RunRecord,
    ToolCallRecord,
    ToolRegistry,
    ToolSpec,
    Verdict,
    effective_trace,
)
from .reference import reference_classify

__all__ = [
    "Approach",
    "Intent",
    "ObservedTrace",
    "Outcome",
    "Procedure",
    "RunRecord",
    "ToolCallRecord",
    "ToolRegistry",
    "ToolSpec",
    "Verdict",
    "classify",
    "effective_trace",
    "latency_cost_ms",
    "matched_steps",
    "reference_classify",
    "summarize",
    "validate_call",
]
