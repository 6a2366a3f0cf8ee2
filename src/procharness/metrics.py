"""Per-run latency/step accounting and cross-run aggregation."""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .archive import RunDocument
from .model import CallOrigin, ModelError, Outcome, RunRecord

CSV_HEADER = (
    "scenario,approach,model,k,runs,correctness_rate,"
    "lat_min,lat_p25,lat_median,lat_p75,lat_max,lat_mean,mean_n_llm,"
    "err_wrong_tool,err_duplicate,err_premature,err_wrong_order,"
    "err_no_calls,err_other"
)

# the error classes of the CSV and the markdown report, in column order
ERR_COLUMNS = (
    Outcome.WRONG_TOOL,
    Outcome.DUPLICATE_TOOL,
    Outcome.PREMATURE_STOP,
    Outcome.WRONG_ORDER,
    Outcome.NO_TOOL_CALLS,
    Outcome.OTHER_DEVIATION,
)


def latency_cost_ms(run: RunRecord) -> int:
    """End-to-end cost of a run: model reasoning time plus tool time.

    An internal sub-call belongs to the last agent-issued call before it,
    the trace order ``effective_trace`` reads too. One that nests inside
    that call's interval is already covered by the parent envelope and is
    skipped, so encapsulated execution is not double-counted.
    """
    total = sum(end - start for start, end in run.llm_steps)
    parent = None  # the last agent-issued call so far
    for rec in run.trace.records:
        if rec.origin is CallOrigin.AGENT_ISSUED:
            parent = rec
        elif parent and parent.started_at <= rec.started_at and rec.ended_at <= parent.ended_at:
            continue
        total += rec.duration_ms
    return total


@dataclass(frozen=True, order=True)
class GroupKey:
    scenario: str
    approach: str
    model_id: str
    k: int


@dataclass(frozen=True)
class GroupSummary:
    key: GroupKey
    runs: int
    correctness_rate: float
    lat_min: float
    lat_p25: float
    lat_median: float
    lat_p75: float
    lat_max: float
    lat_mean: float
    mean_n_llm: float
    error_counts: Mapping[str, int] = field(default_factory=dict)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(docs: Iterable[RunDocument]) -> list[GroupSummary]:
    """One summary per (scenario, approach, model, k) group, ordered by key.

    Each classified run is folded into its group as it is read: the group
    keeps the run's latency, turn count and outcome, never the run itself.
    """
    groups = defaultdict(lambda: ([], [], Counter()))  # key -> (latencies, turns, outcomes)
    for doc in docs:
        if doc.verdict_agent is None:
            raise ModelError(f"run {doc.run.run_id} has no verdict; classify first")
        key = GroupKey(doc.scenario, doc.run.approach.value, doc.run.model_id, doc.k)
        lats, turns, outcomes = groups[key]
        lats.append(float(latency_cost_ms(doc.run)))
        turns.append(len(doc.run.llm_steps))
        outcomes[doc.verdict_agent.outcome] += 1

    summaries = []
    for key in sorted(groups):
        lats, turns, outcomes = groups[key]
        lats.sort()
        q1, q2, q3 = _quartiles(lats)
        summaries.append(
            GroupSummary(
                key=key,
                runs=len(lats),
                correctness_rate=outcomes[Outcome.CORRECT] / len(lats),
                lat_min=lats[0],
                lat_p25=q1,
                lat_median=q2,
                lat_p75=q3,
                lat_max=lats[-1],
                lat_mean=statistics.fmean(lats),
                mean_n_llm=statistics.fmean(turns),
                error_counts={
                    o.value: n for o, n in outcomes.items() if o is not Outcome.CORRECT
                },
            )
        )
    return summaries


def _csv_field(text: str) -> str:
    """A field as RFC 4180 writes it: quoted when it holds a comma, a quote
    or a line break, with its quotes doubled."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def summary_csv_lines(
    summaries: Iterable[GroupSummary], fold_other_into_wrong_order: bool = False
) -> list[str]:
    """Render summaries as CSV rows under the fixed header."""
    lines = [CSV_HEADER]
    for s in summaries:
        errs = dict(s.error_counts)
        if fold_other_into_wrong_order:
            errs[Outcome.WRONG_ORDER.value] = errs.get(
                Outcome.WRONG_ORDER.value, 0
            ) + errs.pop(Outcome.OTHER_DEVIATION.value, 0)
        cols = [
            _csv_field(s.key.scenario),
            s.key.approach,
            _csv_field(s.key.model_id),
            str(s.key.k),
            str(s.runs),
            f"{s.correctness_rate:.6f}",
            f"{s.lat_min:.3f}",
            f"{s.lat_p25:.3f}",
            f"{s.lat_median:.3f}",
            f"{s.lat_p75:.3f}",
            f"{s.lat_max:.3f}",
            f"{s.lat_mean:.3f}",
            f"{s.mean_n_llm:.3f}",
        ]
        cols.extend(str(errs.get(outcome.value, 0)) for outcome in ERR_COLUMNS)
        lines.append(",".join(cols))
    return lines
