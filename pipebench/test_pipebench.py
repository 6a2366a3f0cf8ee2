"""The benchmark's own tests.

    python3 -m pytest -q pipebench

Tiny-size runs of every workload on two seeds must complete with every
check passing, and a tampered archive must fail the checks with a message
that names the workload and the run id.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import expect
import pipeline
import workloads

pipeline.import_harness()

SPEC = json.loads((pipeline.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEEDS = (workloads.DEFAULT_SEED, 7)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_completes_and_passes_its_checks(workload, seed, tmp_path):
    outcome = pipeline.run_workload(workload, seed, 0, False, "tiny", probes=1, workdir=tmp_path)
    assert outcome.findings.problems == []
    assert outcome.attempted > 0 and not outcome.findings.failed
    metrics = pipeline.end_to_end(outcome)
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_traced_run_reports_every_layer(workload, tmp_path):
    outcome = pipeline.run_workload(workload, 3, 0, True, "tiny", probes=1, workdir=tmp_path)
    assert outcome.findings.problems == []
    metrics, _ = pipeline.per_layer(outcome)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert (metrics["wire.http_connections"][0] > 0) == (workload == "stress_http")
    for name in ("wire.server_start_s", "agent.turns", "wire.calls", "toolsim.calls", "classify.verdicts",
                 "archive.bytes_written", "runner.execute_run_s", "wire.client_self_s"):
        assert metrics[name][0] > 0, name


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """A checked reference pass of tiny ue_mix, for the tampering cases."""
    bench = pipeline.Workbench("ue_mix", 11, "tiny", tmp_path_factory.mktemp("ue_mix"))
    _, files = bench.run_pass("ref")
    findings = expect.Findings("ue_mix")
    pipeline.check_reference(bench, files, findings)
    assert findings.problems == []
    return bench, files


def _tamper(files, index, run_id, edit, field="classified"):
    """Copy of the pass's files with one run's line edited (or dropped when
    ``edit`` returns None)."""
    out = []
    for i, f in enumerate(files):
        lines = list(getattr(f, field))
        if i == index:
            new = []
            for line in lines:
                doc = json.loads(line)
                if doc["run_id"] == run_id:
                    doc = edit(doc)
                    if doc is None:
                        continue
                    line = json.dumps(doc, sort_keys=True)
                new.append(line)
            lines = new
        out.append(pipeline.BatchFiles(**{**f.__dict__, field: lines}))
    return out


def _problems_about(findings, run_id):
    return [p for p in findings.problems if p.startswith("ue_mix:") and f"run {run_id}:" in p]


RUN = "A-A1-clean-k003-r001"  # second batch: the static-address request


def _flip(doc):
    doc["verdict_agent"] = {**doc["verdict_agent"], "outcome": "PrematureStop"}
    return doc


def _later(doc):
    doc["llm_steps"][-1][1] += 1
    return doc


def _check(bench, files):
    findings = expect.Findings("ue_mix")
    pipeline.check_reference(bench, files, findings)
    return findings


def test_flipped_verdict_fails_naming_the_run(reference):
    bench, files = reference
    findings = _check(bench, _tamper(files, 1, RUN, _flip))
    assert _problems_about(findings, RUN)
    assert (0, RUN) in findings.failed


def test_changed_latency_fails_naming_the_run(reference):
    bench, files = reference
    findings = _check(bench, _tamper(files, 1, RUN, _later))
    assert any("virtual latency" in p for p in _problems_about(findings, RUN))
    # the same change in a timed pass's archive differs from the first pass
    findings = expect.Findings("ue_mix")
    pipeline.compare_pass(bench, 4, files, _tamper(files, 1, RUN, _later, "raw"), findings)
    assert any("pass 4" in p for p in _problems_about(findings, RUN))
    assert findings.failed == {(4, RUN)}


def test_dropped_line_fails_naming_the_run(reference):
    bench, files = reference
    findings = _check(bench, _tamper(files, 1, RUN, lambda doc: None))
    assert any("missing" in p for p in _problems_about(findings, RUN))
    findings = expect.Findings("ue_mix")
    pipeline.compare_pass(bench, 2, files, _tamper(files, 1, RUN, lambda doc: None, "raw"), findings)
    assert any("missing" in p for p in _problems_about(findings, RUN))


def test_without_the_harness_the_command_fails_without_a_result(tmp_path):
    shutil.copy(pipeline.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(pipeline.BENCH_DIR, tmp_path / "pipebench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "pipebench/run.py", "--workload", "ue_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_expected_verdicts_depend_on_the_approach():
    """The derivations differ by approach where the taxonomy says so."""
    scopes_a4 = {"ue_ip_allocation": "encapsulated", "pdu_session_release": "encapsulated"}
    scopes_steps = {"ue_authorization": "procedure", "get_procedures": "meta"}
    outside = {"kind": "call_outside_at", "step": 1, "tool": "pdu_session_release"}
    agent = expect.expected_agent_verdict
    assert agent(outside, "r", 1, scopes_a4, {"ue_ip_allocation"}) == expect.Expected(
        "WrongTool", "tool_outside_procedure", 1)
    assert agent(outside, "r", 3, scopes_steps, {"ue_authorization"}) == expect.Expected(
        "WrongTool", "wrong_tool_name", 1)
    assert expect.expected_flattened_verdict(outside, "r", 3, scopes_a4) == expect.Expected(
        "NoToolCalls")
    stop = {"kind": "stop_after", "step": 1}
    assert agent(stop, "r", 1, scopes_steps, set()).outcome == "Correct"
    assert agent(stop, "r", 5, scopes_steps, set()).outcome == "PrematureStop"
