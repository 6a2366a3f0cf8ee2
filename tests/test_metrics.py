from __future__ import annotations

from procharness.archive import RunDocument
from procharness.metrics import (
    CSV_HEADER,
    GroupKey,
    latency_cost_ms,
    summarize,
    summary_csv_lines,
)
from procharness.model import (
    Approach,
    CallOrigin,
    ExpectedStep,
    Intent,
    ObservedTrace,
    Outcome,
    Procedure,
    RunRecord,
    ToolCallRecord,
    Verdict,
)


def _run(llm_steps, tool_intervals, internal_intervals=(), approach=Approach.A1, model_id="m"):
    records = []
    idx = 0
    for start, end in tool_intervals:
        idx += 1
        records.append(
            ToolCallRecord(idx, "tool", {}, None, True, start, end, CallOrigin.AGENT_ISSUED)
        )
    for start, end in internal_intervals:
        idx += 1
        records.append(
            ToolCallRecord(idx, "inner", {}, None, True, start, end, CallOrigin.TOOL_INTERNAL)
        )
    return RunRecord(
        run_id="r",
        approach=approach,
        model_id=model_id,
        intent=Intent("k", "t", {}),
        trace=ObservedTrace(records=tuple(records)),
        llm_steps=tuple(llm_steps),
    )


def test_latency_sums_llm_and_tool_durations():
    run = _run([(0, 100), (110, 230)], [(100, 110)])
    assert latency_cost_ms(run) == 100 + 120 + 10


def test_latency_no_tools():
    run = _run([(0, 50)], [])
    assert latency_cost_ms(run) == 50


def test_latency_skips_internals_nested_in_parent_envelope():
    # two llm steps of 80 and 60 ms, one encapsulated call of 40 ms whose
    # three 5 ms internals run inside that envelope
    run = _run(
        [(0, 80), (120, 180)],
        [(80, 120)],
        internal_intervals=[(80, 85), (85, 90), (90, 95)],
    )
    assert latency_cost_ms(run) == 80 + 60 + 40


def test_latency_counts_non_nested_internals():
    run = _run([(0, 10)], [(10, 20)], internal_intervals=[(25, 30)])
    assert latency_cost_ms(run) == 10 + 10 + 5


def test_latency_reads_sub_calls_by_trace_order():
    # a sub-call belongs to the last agent-issued call before it, so one that
    # nests only in an earlier call's interval is counted
    run = _run([(0, 10)], [(10, 50), (50, 60)], internal_intervals=[(20, 30)])
    assert latency_cost_ms(run) == 10 + 40 + 10 + 10


def test_llm_and_tool_counts():
    run = _run([(0, 1), (1, 2)], [(0, 1), (1, 2), (2, 3)], [(2, 3)])
    assert len(run.llm_steps) == 2
    # internals are not separate invocations
    assert sum(r.origin is CallOrigin.AGENT_ISSUED for r in run.trace.records) == 3


_EXPECTED = Procedure("p", "k", (ExpectedStep("tool"),))


def _row(key, latency, outcome):
    """A classified run document in the group ``key``."""
    run = _run([(0, latency)], [], approach=Approach(key.approach), model_id=key.model_id)
    return RunDocument(run, key.scenario, key.k, _EXPECTED, verdict_agent=Verdict(outcome))


def test_summarize_counts_and_rates():
    key = GroupKey("A", "A1", "m", 3)
    rows = [_row(key, 10, Outcome.CORRECT) for _ in range(21)]
    rows += [_row(key, 10, Outcome.PREMATURE_STOP) for _ in range(9)]
    (summary,) = summarize(rows)
    assert summary.runs == 30
    assert summary.correctness_rate == 21 / 30
    assert summary.error_counts == {"PrematureStop": 9}


def test_summarize_all_correct_has_empty_error_counts():
    key = GroupKey("A", "A4", "m", 3)
    rows = [_row(key, 5, Outcome.CORRECT) for _ in range(50)]
    (summary,) = summarize(rows)
    assert summary.correctness_rate == 1.0
    assert summary.error_counts == {}


def test_summarize_quantiles_linear_interpolation():
    key = GroupKey("A", "A1", "m", 3)
    rows = [_row(key, latency, Outcome.CORRECT) for latency in (10, 20, 30, 40)]
    (summary,) = summarize(rows)
    assert summary.lat_median == 25
    assert summary.lat_mean == 25
    assert summary.lat_p25 == 17.5
    assert summary.lat_p75 == 32.5
    assert summary.lat_min == 10 and summary.lat_max == 40


def test_summarize_empty_input():
    assert summarize([]) == []


def test_summarize_orders_groups_by_key():
    rows = [
        _row(GroupKey("B", "A1", "m", 10), 1, Outcome.CORRECT),
        _row(GroupKey("A", "A2", "m", 3), 1, Outcome.CORRECT),
        _row(GroupKey("A", "A1", "m", 3), 1, Outcome.CORRECT),
        _row(GroupKey("B", "A1", "m", 5), 1, Outcome.CORRECT),
    ]
    keys = [s.key for s in summarize(rows)]
    assert keys == sorted(keys)


def test_csv_lines_schema_and_folding():
    key = GroupKey("A", "A1", "m", 3)
    rows = [
        _row(key, 10, Outcome.OTHER_DEVIATION),
        _row(key, 10, Outcome.WRONG_ORDER),
        _row(key, 10, Outcome.CORRECT),
    ]
    summaries = summarize(rows)
    lines = summary_csv_lines(summaries)
    assert lines[0] == CSV_HEADER
    cols = lines[1].split(",")
    header_cols = CSV_HEADER.split(",")
    assert len(cols) == len(header_cols)
    assert cols[header_cols.index("err_wrong_order")] == "1"
    assert cols[header_cols.index("err_other")] == "1"

    folded = summary_csv_lines(summaries, fold_other_into_wrong_order=True)
    cols = folded[1].split(",")
    assert cols[header_cols.index("err_wrong_order")] == "2"
    assert cols[header_cols.index("err_other")] == "0"


def test_folding_a_group_that_lacks_one_of_the_two_classes():
    key = GroupKey("A", "A1", "m", 3)
    header_cols = CSV_HEADER.split(",")
    for outcomes in ((Outcome.OTHER_DEVIATION,) * 2, (Outcome.WRONG_ORDER,) * 3):
        summaries = summarize([_row(key, 10, outcome) for outcome in outcomes])
        cols = summary_csv_lines(summaries, fold_other_into_wrong_order=True)[1].split(",")
        assert cols[header_cols.index("err_wrong_order")] == str(len(outcomes))
        assert cols[header_cols.index("err_other")] == "0"
